"""Golden artifacts: the SHA-256 of every file a CLI call writes, pinned across commits.

`tests/test_reference.py` and `tests/test_lanes.py` compare two code paths
within one process; these hashes also catch a change that moves both paths
the same way. Each case runs `configs/example.cfg` at 60 samples and horizon
1e2, with the problem, schedule, reports or verb it names, and writes to a
relative ``--out`` because `report.json` and `manifest.json` record
``output.dir``. The ``reports*`` cases ask for every report block, on
settings where each block gives its result, its error or its refusal;
``least_squares`` asks for every block on a d=2 problem, so its arrays of
several entries sit in dicts and in the list of Tikhonov-curve points.
``compare`` and ``sweep`` integrate their cells as lanes; the ``compare_*``
cases put each builtin other than paper1d through them, so that the row
forms of every builtin gradient and value are pinned.

``python tests/test_golden.py`` prints the digests of every case for the
current tree, in the shape of `GOLDEN`.

The hashes were made with Python 3.11.7 and numpy 2.4.6 on x86-64. A run
of dimension 1 makes no BLAS call: its weight products are left-to-right
float sums, and `test_one_dimensional_artifacts_do_not_depend_on_the_blas_kernel`
reruns the ``example`` case under the baseline OpenBLAS kernel. Another numpy,
BLAS or libm may round the runs of dimension 2 or more, the schedules and
paper1d's gradient differently; a failure here on another platform says the
bytes moved, not that a result is wrong.

The bit policy: a hash here may change only in a change that regenerates
it, says why the bytes moved, and states the largest deviation of the new
artifacts against the parent commit's (``scripts/artifact_hashes.py`` with
PYTHONPATH at each tree's ``src``) and against the closed-form solutions of
`tests/exact.py`. Those bounds (`tests/test_exact.py`) are multiples of
rel_tol and are not regenerated with the hashes, so a regenerated golden
must still be as accurate.
"""
import hashlib
import json
import os
import pprint
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from tikhoflow.cli import main

EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example.cfg"
SHORT = "dynamics.sample_count = 60\ndynamics.horizon = 1e2\n"
ALL_REPORTS = "diagnostics.reports = W,Eb,Ebp,rates,ergodic,tikhonov_curve,hypotheses\n"

CASES = {
    "example": (["run"], ""),
    "compare": (["compare", "--gammas", "1.5", "2.5"], ""),
    "logarithmic": (["run"], "schedule.kind = logarithmic\n"),
    "tabulated": (
        ["run"],
        "schedule.kind = tabulated\nschedule.times = 1 10 100\nschedule.values = 1 0.3 0.05\n",
    ),
    "zero": (["run"], "schedule.kind = zero\n"),
    "reports": (["run"], ALL_REPORTS),
    "reports_alpha2": (["run"], ALL_REPORTS + "dynamics.alpha = 2\n"),
    "reports_horizon1": (["run"], ALL_REPORTS + "dynamics.horizon = 1\n"),
    "reports_zero": (["run"], ALL_REPORTS + "schedule.kind = zero\n"),
    "least_squares": (
        ["run"],
        ALL_REPORTS + "problem.name = least_squares\nproblem.A = 1 2; 3 4; 5 6\nproblem.b = 1 2 3\n",
    ),
    "check_schedule": (["check-schedule"], ""),
    "compare_shifted_quadratic": (
        ["compare", "--gammas", "1.5", "2.5"],
        "problem.name = shifted_quadratic\nproblem.c = 1 -2 0.5\n",
    ),
    "compare_psd_quadratic": (
        ["compare", "--gammas", "1.5", "2.5"],
        "problem.name = psd_quadratic\nproblem.A = 1 1; 1 1\nproblem.b = 1 1\n",
    ),
    "compare_least_squares": (
        ["compare", "--gammas", "1.5", "2.5"],
        ALL_REPORTS + "problem.name = least_squares\nproblem.A = 1 2; 3 4; 5 6\nproblem.b = 1 2 3\n",
    ),
    "sweep": (["sweep", "--alpha", "3", "4", "--beta", "0.5", "1", "--gamma", "1.5", "2.5"], ""),
}

GOLDEN = {
    "check_schedule": {
        "example/report.json":
            "8dce63c059bf6fcb04d4505f57136215aada2bd76478617cf43f97a4592cc7be",
    },
    "compare": {
        "example/comparison.csv":
            "188e6dd633f42bd2cfb98a5f4fa0dfd8c17718f16c779803bf9d687d6e1bedf8",
        "example/gamma_1.5/manifest.json":
            "00bf7924fce492323d427add7f891e5e37b93939eeb1eccc9a4e3406823bfd13",
        "example/gamma_1.5/report.json":
            "a6b5c69cbd56d8d212fde9b53d74687d1eaadd89436a23c8f8063d8704b8c73d",
        "example/gamma_1.5/trajectory.csv":
            "34e5d106871ac81d8801cd02e4460a0f604305effb1e1b93e4922ec6e12c4e80",
        "example/gamma_2.5/manifest.json":
            "3d4fb4982602d5f2b6b15294c05c033ffe02beaaaf388b81b58890fb4fd37c68",
        "example/gamma_2.5/report.json":
            "48ab646d826bb1067e3aec05f25de76504a553e54d7da724fbc836ef0792c840",
        "example/gamma_2.5/trajectory.csv":
            "b2d31b6eebd2d54985cbda7016494ffcd2e682907c2c495fee3e3b986d196b6a",
        "example/zero/manifest.json":
            "c991e27281649c61661c592607bb043c3a27e79998ffd7bfe58669da7bbd6335",
        "example/zero/report.json":
            "1539d461ae84bf9f3b446b0cb2f31d618f88bb9fd3b843b1ccbdbea66c2f3e3f",
        "example/zero/trajectory.csv":
            "f1b38e717f82e50696e1c57d79941af929219b00480d51a415fa7cf2d31949f0",
    },
    "compare_least_squares": {
        "example/comparison.csv":
            "c7cf753016728d8fdbc8f2f698baebce8d6942003c11822104d8f68f7d96dbfa",
        "example/gamma_1.5/manifest.json":
            "c6161a78c4f40e2d4b06ab940db573d0bdd2013915c2df0bbc33fe86be2b5d30",
        "example/gamma_1.5/report.json":
            "30374faff8a6a6c76c72a9ad2b603fd7843240b000bc6795216ee5866163e02e",
        "example/gamma_1.5/trajectory.csv":
            "14b3a8e04cf04d1627d3c4c6c186039c992ff67157bc9be92f27beff45f0721d",
        "example/gamma_2.5/manifest.json":
            "6ec112ec9b0925279a05cefc2e158feb24d58a2d494638ddcf8d2c44364335a0",
        "example/gamma_2.5/report.json":
            "ffc3803cff2c255e91a5619fe9e6a91aaed8282d2c48e4266e3cd13a8ae16b61",
        "example/gamma_2.5/trajectory.csv":
            "e5134ecb238e63df2fa0f260c264c6ff158d67e529d44d6654607ebf1522cbfa",
        "example/zero/manifest.json":
            "011bd877f105ad0818f739a74d92c4c7e580348cf1954a84e91f966586e0e8be",
        "example/zero/report.json":
            "93c844e43cb83b8936c928e8ab7ab3cfbca45b1aee380b18754ee5f02e64f954",
        "example/zero/trajectory.csv":
            "7bf66d3450d26bc314cedfeca8a530e184f0d040cdc7c21b9601eb0b1054ea38",
    },
    "compare_psd_quadratic": {
        "example/comparison.csv":
            "1c1d37e8a3aa96bc8048c03d408581bc937eb4f2bc1a5bffc9ef824d02d6a6e4",
        "example/gamma_1.5/manifest.json":
            "3fe9513c590800e378a774897d02b4b634f4e2435be5b28e195e10a8899e153e",
        "example/gamma_1.5/report.json":
            "2a56b6572d37c1fe5375c803e516a27478812ce8e953f58b44f26e471384d36b",
        "example/gamma_1.5/trajectory.csv":
            "3931284a05348f3d7a7f58a5b49bbc94be136b80056a0c40e869e3f2cf58947b",
        "example/gamma_2.5/manifest.json":
            "05978cef339488053a0d80035a8e3584e54fd16daa95d592d605f73bfc35cbb1",
        "example/gamma_2.5/report.json":
            "36ecf835f94be3b72567cb6ba397873e39cbc049b2eeeddb3c63be8bc915d6f4",
        "example/gamma_2.5/trajectory.csv":
            "8b4b00364f7fd14b8073dd5c5dbfeec41fdebfeaf98e243ac9581a59f6c8a680",
        "example/zero/manifest.json":
            "fa5a45ca9a54a1547e35edad3df83ce20b3707f6e498093deb67e1d0652b42b8",
        "example/zero/report.json":
            "72d7842e47735db721d12af431cb581c6328db6f935d6d566b8d9f82da3cdc15",
        "example/zero/trajectory.csv":
            "b172cb5cb784383b097c529180ca68a9847e1d72deed22472dc187985d83abeb",
    },
    "compare_shifted_quadratic": {
        "example/comparison.csv":
            "efceac5830d73e2fab629eecaed78c85429cc8705390a4e6c1abae89e911b1df",
        "example/gamma_1.5/manifest.json":
            "74afde51a81f1455ac41382cae7c858d5e0e98d7cd118bc81097ac4f21fc6a3d",
        "example/gamma_1.5/report.json":
            "cfdb87b9488ea4f2b2c53733757fbadc7d10aa748dd157d701b1ab5c1b34a2d7",
        "example/gamma_1.5/trajectory.csv":
            "439ebc60bda8eb8bd9c097f84d7051b2144a94fbaaf799f777f5824b98daea0d",
        "example/gamma_2.5/manifest.json":
            "092c36fde88aeb497ba704489196dc92cec1c30ab8e11a1d90f38ee3efbe33d8",
        "example/gamma_2.5/report.json":
            "4cbfccf7eda846f5580db1c2c7660b148f013a8fb3f9143610082fdcb1c15fba",
        "example/gamma_2.5/trajectory.csv":
            "7169906e219ec447f9c7669e0e721293cde1cc1cb40474d3d4721ff69b22bbcf",
        "example/zero/manifest.json":
            "5bb14db3f8ceea2928e9587d7e54853dd6bd6576f274e5e70f2a7b33fb3a3b3a",
        "example/zero/report.json":
            "7e65d4fa666ddcd619f812f69c84552056a72be6b4d62ddac9c1fb6f60288b49",
        "example/zero/trajectory.csv":
            "8f8a7bef3c16314c92cb7bdbe944f7b4f66895961d4699391a5ac6f3731c9460",
    },
    "example": {
        "example/manifest.json":
            "0d14f6b3516668550817f26bbdbab0b2ffbcea2e7ce8ecbdae5d0b7ff9d4a357",
        "example/report.json":
            "2426aaa4359d288addd137880aa52bc0fdc42bb3b176f56b6ab41398e25390de",
        "example/trajectory.csv":
            "34e5d106871ac81d8801cd02e4460a0f604305effb1e1b93e4922ec6e12c4e80",
    },
    "least_squares": {
        "example/manifest.json":
            "d83baeef120382fb8030b6a18c61d5c0b4022b5538bf9ca391179c346663b4a2",
        "example/report.json":
            "9a7d8444c8fd422c2919b464800a24d54409f5002f065dd91997d75521780c8a",
        "example/trajectory.csv":
            "14b3a8e04cf04d1627d3c4c6c186039c992ff67157bc9be92f27beff45f0721d",
    },
    "logarithmic": {
        "example/manifest.json":
            "b425b6122e998567a35491055767044761f445e7d363e16b0de4f85317198bd6",
        "example/report.json":
            "9b5e03f81969dfb331ec52e39e4157ee002068fafa367f8bf36e0b9af1c6eedf",
        "example/trajectory.csv":
            "15f03076611f7073e2b465fe11aee4105e589941243e56c2ef962f67b277ba11",
    },
    "reports": {
        "example/manifest.json":
            "b235ab019bc80c89a233995fda024d858b9758cd4a335cc3f5257e5fce9f6ee5",
        "example/report.json":
            "29e8605d51618921a26c63f08d69ac5ad7bc3f5e7fe8f4e8168fc1d81691e90c",
        "example/trajectory.csv":
            "34e5d106871ac81d8801cd02e4460a0f604305effb1e1b93e4922ec6e12c4e80",
    },
    "reports_alpha2": {
        "example/manifest.json":
            "71fcade4feb6c71080f2cbc46bdf3e544c9a9906584945b729a746cec4ee8122",
        "example/report.json":
            "09a846420927a51b0b23556a6f9263ad9161566514e06bf42af1b86e46e7ae0b",
        "example/trajectory.csv":
            "0982a6f8263a7b6ea6dfd818cce44e640bdd0493b58e8e9b4f6057b153c11dd3",
    },
    "reports_horizon1": {
        "example/manifest.json":
            "27d8ef57de36c41efbb292383534356141e2b766a3dcd92f02e69d7b6599702f",
        "example/report.json":
            "0b57c32edb5b3aae8379fdb80b3127f35d5150e3449462a887cb843eb9b8b7cb",
        "example/trajectory.csv":
            "065dff835ca6c540ccf4878b0357e6364f1df67de1614d4760b657c9855ed8c1",
    },
    "reports_zero": {
        "example/manifest.json":
            "b17cc9ae2cf29d7d873a5151f21a7d03bedb3e91205bbe3dc318537a9b09c18f",
        "example/report.json":
            "a4bb019440bafe6ff7e034c9049cb0713d4b18ac1b8c739df41bf80f48cbfd58",
        "example/trajectory.csv":
            "f1b38e717f82e50696e1c57d79941af929219b00480d51a415fa7cf2d31949f0",
    },
    "sweep": {
        "example/alpha_3__beta_0.5__gamma_1.5/manifest.json":
            "f91c61e358fd7d403a71ab43249f5c9455d571ca88e14d247032c45df8a10d2b",
        "example/alpha_3__beta_0.5__gamma_1.5/report.json":
            "19b49500ac78fe03294861a0e65cd4bdb6210201dd15033c85765e91b7998bcb",
        "example/alpha_3__beta_0.5__gamma_1.5/trajectory.csv":
            "cf4b6bd24e0c6da63ddbc677021bd1b9beb9ed4591d843dd021b697db01c4379",
        "example/alpha_3__beta_0.5__gamma_2.5/manifest.json":
            "cdf1e60fb9bf21b9bcf1d7dfbd841b2ac6e4c93726c138826473fabcc45a4c19",
        "example/alpha_3__beta_0.5__gamma_2.5/report.json":
            "7ed0101d4661e201e760798c231cc13ebb6a594fe2fc58308ae77a8b055c108f",
        "example/alpha_3__beta_0.5__gamma_2.5/trajectory.csv":
            "cb67edbb41c0df7a64382445203f82f1f8012983f32ce4c8e2a2a9dc711fa8fd",
        "example/alpha_3__beta_1__gamma_1.5/manifest.json":
            "8ad3c729855bd2b488e4383a4f40c6c828ea8ee94b71c4e41112682774ac6b04",
        "example/alpha_3__beta_1__gamma_1.5/report.json":
            "b3a0c52a61f521bc999a9a25dbbe3b89f69ce192d634c93bc091e4c677e69ef9",
        "example/alpha_3__beta_1__gamma_1.5/trajectory.csv":
            "34e5d106871ac81d8801cd02e4460a0f604305effb1e1b93e4922ec6e12c4e80",
        "example/alpha_3__beta_1__gamma_2.5/manifest.json":
            "535a01886938fe1c225ff73cf7d6b4b2d06205b31586f0d946b7cf71e9e683eb",
        "example/alpha_3__beta_1__gamma_2.5/report.json":
            "56694a4aa3cc4b0c5028e655906c0b5b277c1887b50853c7afb46ddf47962abe",
        "example/alpha_3__beta_1__gamma_2.5/trajectory.csv":
            "b2d31b6eebd2d54985cbda7016494ffcd2e682907c2c495fee3e3b986d196b6a",
        "example/alpha_4__beta_0.5__gamma_1.5/manifest.json":
            "800b798560d3452196faa84518fff31476bce2b04e7f57ae11406bc401b4d229",
        "example/alpha_4__beta_0.5__gamma_1.5/report.json":
            "2cfb6919ce34b8b691c873cb1867e08915d5700fc1928ff5946633b7d447c474",
        "example/alpha_4__beta_0.5__gamma_1.5/trajectory.csv":
            "2cdf9a00e62610794fdc73b719dbc63a179cb38c852f385649ba532681cee801",
        "example/alpha_4__beta_0.5__gamma_2.5/manifest.json":
            "1c4c8d6193aec8228de47318c2203d41a2bfaa373a15f72f9f098ade6ebe8eb0",
        "example/alpha_4__beta_0.5__gamma_2.5/report.json":
            "13cfa735422befd464e24b7a4b11d02b31885ce1e406ad71015ead18dd560ba9",
        "example/alpha_4__beta_0.5__gamma_2.5/trajectory.csv":
            "15abafe5e443076111633a38d9b10baabece4480ee728ffa6d8aef2b232c1f2f",
        "example/alpha_4__beta_1__gamma_1.5/manifest.json":
            "49ce5a963ce5b9c8656fa794b5bbfcad6a246a19997b81ca5bedc5aa5c4d602f",
        "example/alpha_4__beta_1__gamma_1.5/report.json":
            "aaba2fc6f9f1e3a2438dd58d5d12d3fc8ae165930fd793c510274ecabd845aa5",
        "example/alpha_4__beta_1__gamma_1.5/trajectory.csv":
            "68166def476b36f125fcdb654742e267457ccd8ffd849f98e20608624bf6d441",
        "example/alpha_4__beta_1__gamma_2.5/manifest.json":
            "1d56d797b81905826e687b2a2ca81da5f2dbef851ad25422881c44ed2a954fd7",
        "example/alpha_4__beta_1__gamma_2.5/report.json":
            "056f8cad0ed0e910d231bae6b2c5ff9a92e0a3f5cbfe3379b3f6f0fb8043bcac",
        "example/alpha_4__beta_1__gamma_2.5/trajectory.csv":
            "0ec7654da60f18484ec82e765b39253b2b8262ecc87046911d8f4750bb2f4ce8",
        "example/sweep_summary.csv":
            "02af6a7fa1d52ca609c29936e003032eff444b4277d2ed5ca59bdca4b8f6dacf",
    },
    "tabulated": {
        "example/manifest.json":
            "23b5315274825aa4a6977f2937f5bde6dbe47495e634ee69a8d02503b28d62a5",
        "example/report.json":
            "88d7a3b7a5fb2b429e811f565034851f2af35dc13089800409b325b7b16a5fc7",
        "example/trajectory.csv":
            "ac3b06f1823e8d2e138c7d0276ef47ab13a79a30f89aff4d4a71902ec67e8918",
    },
    "zero": {
        "example/manifest.json":
            "60ddab79911fa5553a29c967fa74d06b19a102da0eff5628db48b01fc4bffb18",
        "example/report.json":
            "ffddf2b579a79ce3627b4c4263922551d2ee6670a2ca9d2a838507c2a9370efb",
        "example/trajectory.csv":
            "f1b38e717f82e50696e1c57d79941af929219b00480d51a415fa7cf2d31949f0",
    },
}


def _digests(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _run(case: str, root: Path) -> dict:
    """Run a case with ``root`` as the working directory; the digests of what it wrote."""
    verb, keys = CASES[case]
    cfg = root / f"{case}.cfg"
    cfg.write_text(EXAMPLE.read_text() + SHORT + keys)
    assert main([verb[0], cfg.name, *verb[1:], "--out", "out"]) == 0
    return _digests(root / "out")


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden_hashes(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run(case, tmp_path) == GOLDEN[case]


def _case_digests(case: str) -> dict:
    """`_run` in a temporary working directory."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return _run(case, Path(tmp))
        finally:
            os.chdir(home)


def _numpy_blas() -> str:
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "")


@pytest.mark.skipif("openblas" not in _numpy_blas().lower(),
                    reason="numpy is not linked to OpenBLAS, so OPENBLAS_CORETYPE selects nothing")
def test_one_dimensional_artifacts_do_not_depend_on_the_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE picks the BLAS kernel of one process; Prescott, the
    # baseline SSE3 kernel, runs on every x86-64 host. A d = 1 run makes no
    # BLAS call, so its trajectory keeps the pinned bytes
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": os.pathsep.join(path)}
    code = "import json, test_golden; print(json.dumps(test_golden._case_digests('example')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    digests = json.loads(done.stdout)
    name = "example/trajectory.csv"
    assert digests[name] == GOLDEN["example"][name]


if __name__ == "__main__":
    pprint.pprint({case: _case_digests(case) for case in sorted(CASES)}, width=100)
