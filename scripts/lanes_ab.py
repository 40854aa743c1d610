"""Time `integrate_lanes` against stepping each of its runs alone, in one process.

    PYTHONPATH=src python scripts/lanes_ab.py

The inputs are runs of dimension 2 or more that `compare` and `sweep` step
as lanes:

- ``lsq2_sweep``: the benchmark `sweep` grid (alpha 3, 10, 200 x beta 0,
  0.5, 1 x gamma 1.1, 1.5, 1.9; 27 cells, T = 1e2, 100 logarithmic samples)
  on the golden `least_squares` (A = 1 2; 3 4; 5 6, b = 1 2 3; d = 2);
- ``quad3_sweep``: the same grid on `shifted_quadratic` with c = (1, -2,
  0.5) (d = 3);
- ``lsq60_compare``: the three cells of a `compare` (zero schedule, gamma
  1.5 and 2.5) on the benchmark's stiff_lsq problem at seed 1 (d = 60,
  alpha 3, beta 1, T = 200, 400 samples).

Each pair times both sides once, in alternating order: the lanes
(``list(integrate_lanes(obj, runs))``) and the runs one by one, each
through `dynamics._solved` and finished as `integrate_lanes` finishes it.
Both sides finish every trajectory. Each pair also checks that the two
sides give the same bytes: every trajectory column, the counters and, for a
failed run, the error. The output is one line per input: the median and
quartiles of each side in seconds, the run-by-run median over the lanes'
median, and the pairs in which the lanes were faster. The sweeps take 7
pairs and the d = 60 compare 4, about 2 minutes in all on one core of a
2-CPU x86-64 host. It stops with a message if the two sides differ.

It imports whichever `tikhoflow` comes first on the path, so running it
with PYTHONPATH at another checkout's ``src`` times that checkout.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from tikhoflow import DynamicsConfig, IntegrationError, builtin, power_schedule, zero_schedule
from tikhoflow import dynamics

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import SWEEP_ALPHAS, SWEEP_BETAS, SWEEP_GAMMAS, lsq_problem  # noqa: E402

FIELDS = ("t", "x", "v", "y", "eps", "gap", "grad_norm", "int_eps_over_t", "int_erg_num", "int_vel")


def _config(d: int, horizon: float, samples: int, u0: float, **rates) -> DynamicsConfig:
    return DynamicsConfig(t0=1.0, u0=np.full(d, u0), v0=np.zeros(d), horizon=horizon,
                          sample_count=samples, **rates)


def _sweep(obj) -> tuple:
    runs = [(power_schedule(g), _config(obj.dimension, 1e2, 100, 2.0, alpha=a, beta=b))
            for a in SWEEP_ALPHAS for b in SWEEP_BETAS for g in SWEEP_GAMMAS]
    return obj, runs, 7


def _inputs() -> dict:
    A, b = lsq_problem(1)
    cfg = _config(60, 200.0, 400, 0.0, alpha=3.0, beta=1.0)
    return {
        "lsq2_sweep": _sweep(builtin("least_squares", A=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
                                     b=np.array([1.0, 2.0, 3.0]))),
        "quad3_sweep": _sweep(builtin("shifted_quadratic", c=np.array([1.0, -2.0, 0.5]))),
        "lsq60_compare": (builtin("least_squares", A=A, b=b),
                          [(zero_schedule(), cfg), (power_schedule(1.5), cfg), (power_schedule(2.5), cfg)],
                          4),
    }


def _lanes(obj, runs) -> list:
    return list(dynamics.integrate_lanes(obj, runs))


def _one_by_one(obj, runs) -> list:
    ts = dynamics.sample_times(runs[0][1])
    outcomes = []
    for s, c in runs:
        result = dynamics._solved(dynamics.vector_field(obj, s, c), dynamics._lifted_z0(obj, c), ts, c)
        outcomes.append(dynamics._outcome(obj, s, c, ts, result, "lifted"))
    return outcomes


def _bytes(outcome) -> tuple:
    if isinstance(outcome, IntegrationError):
        return (str(outcome), outcome.t, outcome.stats, outcome.rows.tobytes(), outcome.state.tobytes())
    return tuple(getattr(outcome, name).tobytes() for name in FIELDS) + (outcome.meta["stats"],)


def _timed(fn, *args) -> tuple:
    started = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - started, out


def _spread(times: list) -> str:
    q1, med, q3 = np.percentile(times, [25, 50, 75])
    return f"{med:.3f} [{q1:.3f}, {q3:.3f}]"


def main() -> int:
    print("input          runs  d   lanes s: median [q1, q3]  one by one s: median [q1, q3]  "
          "ratio  lanes won")
    for name, (obj, runs, pairs) in _inputs().items():
        lanes, alone = [], []
        for k in range(pairs):
            sides = [(lanes, _lanes), (alone, _one_by_one)]
            results = []
            for times, fn in sides if k % 2 == 0 else sides[::-1]:
                seconds, out = _timed(fn, obj, runs)
                times.append(seconds)
                results.append([_bytes(o) for o in out])
            if results[0] != results[1]:
                sys.exit(f"lanes_ab.py: {name}: the lanes and the runs one by one differ")
        wins = sum(a < b for a, b in zip(lanes, alone))
        print(f"{name:<14} {len(runs):>4} {obj.dimension:>2}   {_spread(lanes):<26} "
              f"{_spread(alone):<31} {np.median(alone) / np.median(lanes):5.2f}x  "
              f"{wins}/{pairs}  bytes identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
