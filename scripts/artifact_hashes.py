"""Print the exit code of a fixed matrix of CLI calls and the SHA-256 of every file they write.

    PYTHONPATH=src python scripts/artifact_hashes.py > hashes.txt

Each config, `configs/example.cfg` and fourteen variants of it
(logarithmic, tabulated and zero schedules, linear sample spacing,
psd_quadratic, least_squares at horizon 1e2, a shifted_quadratic run from
u0 = 1e200, which fails, an undamped one-center shifted_quadratic at horizon
1e3, paper1d from u0 = 1e20, 1e100 and 1e200, which fail at or before their
first step, alpha 4 with gamma 1.999, whose t^2*eps verdict holds from a
time t1 past the float range, written as Infinity, alpha 200, and every
report block), goes through `run`, `compare`, `sweep` and `check-schedule`.
The alpha-200 sweep keeps the config's alpha and beta, so its cells cross
the t^2*eps threshold past the horizon (near 7.9e7 and 3.1e39), and its
t^2*eps verdicts hold from t1 >= 1e6, where no grid point is checked.
The calls run in a temporary directory and write to a relative ``--out``,
because `report.json` and `manifest.json` record the output directory. The
script prints one ``exit <code>  <call>`` line per call, then one
``<sha256>  <path>`` line per artifact, sorted by path. It takes about 40 s
on one core of a 2-CPU x86-64 host.

It imports whichever `tikhoflow` comes first on the path, so running it
with PYTHONPATH at another checkout's ``src`` hashes that checkout: two
trees give the same artifacts exactly when the two outputs are equal.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

from tikhoflow.cli import main

EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example.cfg"

VARIANTS = {
    "example": "",
    "logarithmic": "schedule.kind = logarithmic\n",
    "tabulated": (
        "schedule.kind = tabulated\nschedule.times = 1 10 100 1e4\n"
        "schedule.values = 1 0.3 0.05 0.01\n"
    ),
    "zero": "schedule.kind = zero\n",
    "linear": "dynamics.sample_spacing = linear\n",
    "psd_quadratic": "problem.name = psd_quadratic\nproblem.A = 1 1; 1 1\nproblem.b = 1 1\n",
    # stability-bound (beta L = 91), so a shorter horizon keeps it to seconds
    "least_squares": (
        "problem.name = least_squares\nproblem.A = 1 2; 3 4; 5 6\nproblem.b = 1 2 3\n"
        "dynamics.horizon = 1e2\n"
    ),
    "u0_1e200": "problem.name = shifted_quadratic\nproblem.c = 1 -2 0.5\ndynamics.u0 = 1e200\n",
    # one center, undamped: the quadratic half of the d = 1 float attempt
    "undamped_1d": (
        "problem.name = shifted_quadratic\nproblem.c = 1\ndynamics.beta = 0\n"
        "dynamics.horizon = 1e3\n"
    ),
    # paper1d far out, stiff at beta = 1: its first step underflows (exit 3)
    "paper1d_u0_1e20": "dynamics.u0 = 1e20\n",
    # the first derivative's scaled norm overflows (run, sweep); the zero
    # cell of compare fails on the derivative's change over the trial step
    "paper1d_u0_1e100": "dynamics.u0 = 1e100\n",
    # the first derivative is not finite
    "paper1d_u0_1e200": "dynamics.u0 = 1e200\n",
    # (32/9)^(1/0.001) overflows: t^2*eps holds from t1 = inf
    "near_critical": "dynamics.alpha = 4\nschedule.gamma = 1.999\n",
    "alpha200": "dynamics.alpha = 200\n",
    "all_reports": "diagnostics.reports = W,Eb,Ebp,rates,ergodic,tikhonov_curve,hypotheses\n",
}

CALLS = {
    "run": ["run"],
    "compare": ["compare", "--gammas", "1.5", "2.5", "1.1"],
    "sweep": ["sweep", "--alpha", "3", "4", "--beta", "0", "1", "--gamma", "1.5", "2.5"],
    "check-schedule": ["check-schedule"],
}

# calls that replace CALLS' for one variant; this sweep's grid takes its
# alpha and beta from the config
OWN_CALLS = {"alpha200": {"sweep": ["sweep", "--gamma", "1.5", "1.9"]}}


def _call(argv: list) -> int:
    # the CLI's messages are not artifacts; only its exit code is printed
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def print_hashes() -> None:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        os.chdir(root)
        try:
            for name, keys in VARIANTS.items():
                cfg = f"{name}.cfg"
                (root / cfg).write_text(EXAMPLE.read_text() + keys)
                for verb, args in {**CALLS, **OWN_CALLS.get(name, {})}.items():
                    out = f"out/{name}/{verb}"
                    print(f"exit {_call([args[0], cfg, *args[1:], '--out', out])}  {name} {verb}")
        finally:
            os.chdir(home)
        for p in sorted((root / "out").rglob("*")):
            if p.is_file():
                digest = hashlib.sha256(p.read_bytes()).hexdigest()
                print(f"{digest}  {p.relative_to(root).as_posix()}")


if __name__ == "__main__":
    print_hashes()
