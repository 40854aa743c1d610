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

The hashes were made with Python 3.11.7 and numpy 2.4.6 on x86-64. Another
numpy or BLAS may round the DP5 weight products differently; a failure here
on another platform says the bytes moved, not that a result is wrong.
"""
import hashlib
import os
import pprint
import tempfile
from pathlib import Path

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
            "cf46ed22df83218145b12375709981f226d4b177e81331928db93005b00fa684",
        "example/trajectory.csv":
            "6f585294b87343867f5ba6ad639759c20bfadeb81883069b8806defce2460bcc",
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
            "1d2906b08a272a60e77319ee823072be9c3b7e730398227b895fe2d9645d2e08",
        "example/trajectory.csv":
            "ed7f5e5f534546e5cf5210088ccdff7935d188c217b08d9b15f62a31b5e2fe19",
    },
    "reports": {
        "example/manifest.json":
            "b235ab019bc80c89a233995fda024d858b9758cd4a335cc3f5257e5fce9f6ee5",
        "example/report.json":
            "0dd7347ac63ac650841f95a293a4014d2029427da795704532c14e783d88f0cb",
        "example/trajectory.csv":
            "6f585294b87343867f5ba6ad639759c20bfadeb81883069b8806defce2460bcc",
    },
    "reports_alpha2": {
        "example/manifest.json":
            "71fcade4feb6c71080f2cbc46bdf3e544c9a9906584945b729a746cec4ee8122",
        "example/report.json":
            "870c0a76c3731f36164380372b599049f2c61689a14d65f0a51d68f4b45cc286",
        "example/trajectory.csv":
            "e0f0b3fbca5192f75aed4984a64db11095cd166556a8eb7dcc534ab84afb5415",
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
            "32b20876d196e5ed9c16a72ed9b0ad9c7229929e1f6fe02c3cdaec3591b8c9d3",
        "example/trajectory.csv":
            "8985fac7e58e4a5c778427ac9521f3027a0ff74c8310f630a343ea26547cc9b6",
    },
    "sweep": {
        "example/alpha_3__beta_0.5__gamma_1.5/manifest.json":
            "f91c61e358fd7d403a71ab43249f5c9455d571ca88e14d247032c45df8a10d2b",
        "example/alpha_3__beta_0.5__gamma_1.5/report.json":
            "88bc49510bafdfdb230b66286390d66843dfc97ef8e416790b0ebd66a971ca1e",
        "example/alpha_3__beta_0.5__gamma_1.5/trajectory.csv":
            "9f859bd491213b6ed5a50a268eb397c2dd888222a84b2a4af5de500280bb166f",
        "example/alpha_3__beta_0.5__gamma_2.5/manifest.json":
            "cdf1e60fb9bf21b9bcf1d7dfbd841b2ac6e4c93726c138826473fabcc45a4c19",
        "example/alpha_3__beta_0.5__gamma_2.5/report.json":
            "697ba958e93b3dc5f8950b563eefd476496b71c55d27c49c9ea3bdb7af28be26",
        "example/alpha_3__beta_0.5__gamma_2.5/trajectory.csv":
            "f8b24b2ed08d125023b3a4c19bcd946c8811dedd70a4876b26088bfface395b5",
        "example/alpha_3__beta_1__gamma_1.5/manifest.json":
            "8ad3c729855bd2b488e4383a4f40c6c828ea8ee94b71c4e41112682774ac6b04",
        "example/alpha_3__beta_1__gamma_1.5/report.json":
            "483111409fad9f420e73d0b4950023acb7ad7f81be967a479e20ece08c6b6b37",
        "example/alpha_3__beta_1__gamma_1.5/trajectory.csv":
            "6f585294b87343867f5ba6ad639759c20bfadeb81883069b8806defce2460bcc",
        "example/alpha_3__beta_1__gamma_2.5/manifest.json":
            "535a01886938fe1c225ff73cf7d6b4b2d06205b31586f0d946b7cf71e9e683eb",
        "example/alpha_3__beta_1__gamma_2.5/report.json":
            "079af870dc76fffe8dc30742d61a3756df3d8f4b511c1a3d1a226a7776674339",
        "example/alpha_3__beta_1__gamma_2.5/trajectory.csv":
            "7d2ee4defa8ae7736282d2e3af0ae117e46236bf57de657549a4da5aba16d958",
        "example/alpha_4__beta_0.5__gamma_1.5/manifest.json":
            "800b798560d3452196faa84518fff31476bce2b04e7f57ae11406bc401b4d229",
        "example/alpha_4__beta_0.5__gamma_1.5/report.json":
            "fb18fc22ab6000d1ab607dd7d7b7946fe21e01b1be401493e95211a6a67a0b55",
        "example/alpha_4__beta_0.5__gamma_1.5/trajectory.csv":
            "9d42f01103ca26d6d2910c2e54e2c53ce5b27c92a8f4c89b6cbaf4859b90b54d",
        "example/alpha_4__beta_0.5__gamma_2.5/manifest.json":
            "1c4c8d6193aec8228de47318c2203d41a2bfaa373a15f72f9f098ade6ebe8eb0",
        "example/alpha_4__beta_0.5__gamma_2.5/report.json":
            "7d5760283c852eaff77da9626f618d2f0adb4588758f093717bbb32e87d59ad1",
        "example/alpha_4__beta_0.5__gamma_2.5/trajectory.csv":
            "1b361d1cff13a3eb31fa945ca7d208583a1778169285ac0bec867c76abaa6e98",
        "example/alpha_4__beta_1__gamma_1.5/manifest.json":
            "49ce5a963ce5b9c8656fa794b5bbfcad6a246a19997b81ca5bedc5aa5c4d602f",
        "example/alpha_4__beta_1__gamma_1.5/report.json":
            "7a5b17edd6bde72bf84312140a73b4e69b4588a11f737f96e019bdf7e75deab8",
        "example/alpha_4__beta_1__gamma_1.5/trajectory.csv":
            "6a6b8eb5724f9068ec389e9fcb02a99b0534e265b4f700c38c4a8699548c7ae6",
        "example/alpha_4__beta_1__gamma_2.5/manifest.json":
            "1d56d797b81905826e687b2a2ca81da5f2dbef851ad25422881c44ed2a954fd7",
        "example/alpha_4__beta_1__gamma_2.5/report.json":
            "8dd1393cef3072f196b8bf0a4c93ecca495390c9039297bef59c466d06ee8210",
        "example/alpha_4__beta_1__gamma_2.5/trajectory.csv":
            "9a4025bedcc3dcd87ded19749af63123e9b0ceac53ad1312eb72ac268159f9d7",
        "example/sweep_summary.csv":
            "be3144ad86491df5c7556e62cf1692bbafa76d94c70be6f7bf9d1b9bbfc19747",
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


if __name__ == "__main__":
    digests, home = {}, os.getcwd()
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                digests[case] = _run(case, Path(tmp))
            finally:
                os.chdir(home)
    pprint.pprint(digests, width=100)
