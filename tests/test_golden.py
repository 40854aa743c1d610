"""Golden artifacts: the SHA-256 of every file a CLI call writes, pinned across commits.

`tests/test_reference.py` and `tests/test_lanes.py` compare two code paths
within one process; these hashes also catch a change that moves both paths
the same way. Each case runs `configs/example.cfg` at 60 samples and horizon
1e2, with the schedule or verb it names, and writes to a relative ``--out``
because `report.json` and `manifest.json` record ``output.dir``.

The hashes were made with Python 3.11.7 and numpy 2.4.6 on x86-64. Another
numpy or BLAS may round the DP5 weight products differently; a failure here
on another platform says the bytes moved, not that a result is wrong.
"""
import hashlib
from pathlib import Path

import pytest

from tikhoflow.cli import main

EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example.cfg"
SHORT = "dynamics.sample_count = 60\ndynamics.horizon = 1e2\n"

CASES = {
    "example": (["run"], ""),
    "compare": (["compare", "--gammas", "1.5", "2.5"], ""),
    "logarithmic": (["run"], "schedule.kind = logarithmic\n"),
    "tabulated": (
        ["run"],
        "schedule.kind = tabulated\nschedule.times = 1 10 100\nschedule.values = 1 0.3 0.05\n",
    ),
    "zero": (["run"], "schedule.kind = zero\n"),
}

GOLDEN = {
    "compare": {
        "example/comparison.csv":
            "123753e1a3ee0d6a8a0482483a2d402e9456f3808af1d16ab32240e6b0542704",
        "example/gamma_1.5/manifest.json":
            "00bf7924fce492323d427add7f891e5e37b93939eeb1eccc9a4e3406823bfd13",
        "example/gamma_1.5/report.json":
            "36d6e458842a04ef827d0f16d119394ce68e3b9275c941a0bc82e8b3df6ac689",
        "example/gamma_1.5/trajectory.csv":
            "6f585294b87343867f5ba6ad639759c20bfadeb81883069b8806defce2460bcc",
        "example/gamma_2.5/manifest.json":
            "3d4fb4982602d5f2b6b15294c05c033ffe02beaaaf388b81b58890fb4fd37c68",
        "example/gamma_2.5/report.json":
            "0011b7318d212dd9f7e19784e8b9e922a6df4332c9c6d8494bc3eaa7ac3b08b8",
        "example/gamma_2.5/trajectory.csv":
            "7d2ee4defa8ae7736282d2e3af0ae117e46236bf57de657549a4da5aba16d958",
        "example/zero/manifest.json":
            "c991e27281649c61661c592607bb043c3a27e79998ffd7bfe58669da7bbd6335",
        "example/zero/report.json":
            "a69a418a0643d461bc8de7c528b9d8bad9831d570d606091838fedbfefd3ddb9",
        "example/zero/trajectory.csv":
            "8985fac7e58e4a5c778427ac9521f3027a0ff74c8310f630a343ea26547cc9b6",
    },
    "example": {
        "example/manifest.json":
            "0d14f6b3516668550817f26bbdbab0b2ffbcea2e7ce8ecbdae5d0b7ff9d4a357",
        "example/report.json":
            "cf46ed22df83218145b12375709981f226d4b177e81331928db93005b00fa684",
        "example/trajectory.csv":
            "6f585294b87343867f5ba6ad639759c20bfadeb81883069b8806defce2460bcc",
    },
    "logarithmic": {
        "example/manifest.json":
            "b425b6122e998567a35491055767044761f445e7d363e16b0de4f85317198bd6",
        "example/report.json":
            "1d2906b08a272a60e77319ee823072be9c3b7e730398227b895fe2d9645d2e08",
        "example/trajectory.csv":
            "ed7f5e5f534546e5cf5210088ccdff7935d188c217b08d9b15f62a31b5e2fe19",
    },
    "tabulated": {
        "example/manifest.json":
            "23b5315274825aa4a6977f2937f5bde6dbe47495e634ee69a8d02503b28d62a5",
        "example/report.json":
            "a4dcbc3efd90a3b5198adf0f18265fed7a1cddfbcc753373d1663c5474ee7364",
        "example/trajectory.csv":
            "96eeacf46c36b66e99a489542144252bc5d1137d2d896513eadef77041f6701a",
    },
    "zero": {
        "example/manifest.json":
            "60ddab79911fa5553a29c967fa74d06b19a102da0eff5628db48b01fc4bffb18",
        "example/report.json":
            "50bef91b136436694bbd8d7e45039e9383c8bc9e18e0d573d066e7531a2f6c5d",
        "example/trajectory.csv":
            "8985fac7e58e4a5c778427ac9521f3027a0ff74c8310f630a343ea26547cc9b6",
    },
}


def _digests(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden_hashes(case, tmp_path, monkeypatch):
    verb, keys = CASES[case]
    cfg = tmp_path / f"{case}.cfg"
    cfg.write_text(EXAMPLE.read_text() + SHORT + keys)
    monkeypatch.chdir(tmp_path)
    assert main([verb[0], cfg.name, *verb[1:], "--out", "out"]) == 0
    assert _digests(tmp_path / "out") == GOLDEN[case]
