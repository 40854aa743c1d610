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
with PYTHONPATH at another checkout's ``src`` times that checkout. It then
also compares that tree with this script's own checkout: it loads this
checkout's package as well, under another name, builds each input in each
tree, and each pair also times this checkout's lanes on its input, the
three sides in alternating order. It stops if the two trees' lanes differ
in a single byte, and prints a second table: each tree's lanes median
[q1, q3] and the pairs in which this checkout's lanes were faster. That
mode takes about half as long again.
"""
from __future__ import annotations

import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

import tikhoflow
from tikhoflow import dynamics

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import SWEEP_ALPHAS, SWEEP_BETAS, SWEEP_GAMMAS, lsq_problem  # noqa: E402

FIELDS = ("t", "x", "v", "y", "eps", "gap", "grad_norm", "int_eps_over_t", "int_erg_num", "int_vel")


def _checkout():
    """This script's checkout's tikhoflow, loaded under another name, or
    None if it is the `tikhoflow` first on the path."""
    src = Path(__file__).resolve().parents[1] / "src" / "tikhoflow"
    if Path(tikhoflow.__file__).resolve().parent == src:
        return None
    spec = importlib.util.spec_from_file_location("checkout_tikhoflow", src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _inputs(tf) -> dict:
    """Each input as (objective, runs, pairs), built with the package tf."""

    def config(d: int, horizon: float, samples: int, u0: float, **rates):
        return tf.DynamicsConfig(t0=1.0, u0=np.full(d, u0), v0=np.zeros(d), horizon=horizon,
                                 sample_count=samples, **rates)

    def sweep(obj) -> tuple:
        runs = [(tf.power_schedule(g), config(obj.dimension, 1e2, 100, 2.0, alpha=a, beta=b))
                for a in SWEEP_ALPHAS for b in SWEEP_BETAS for g in SWEEP_GAMMAS]
        return obj, runs, 7

    A, b = lsq_problem(1)
    cfg = config(60, 200.0, 400, 0.0, alpha=3.0, beta=1.0)
    return {
        "lsq2_sweep": sweep(tf.builtin("least_squares", A=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
                                       b=np.array([1.0, 2.0, 3.0]))),
        "quad3_sweep": sweep(tf.builtin("shifted_quadratic", c=np.array([1.0, -2.0, 0.5]))),
        "lsq60_compare": (tf.builtin("least_squares", A=A, b=b),
                          [(tf.zero_schedule(), cfg), (tf.power_schedule(1.5), cfg),
                           (tf.power_schedule(2.5), cfg)],
                          4),
    }


def _lanes(tf, obj, runs) -> list:
    return list(tf.dynamics.integrate_lanes(obj, runs))


def _one_by_one(obj, runs) -> list:
    ts = dynamics.sample_times(runs[0][1])
    outcomes = []
    for s, c in runs:
        result = dynamics._solved(dynamics.vector_field(obj, s, c), dynamics._lifted_z0(obj, c), ts, c)
        outcomes.append(dynamics._outcome(obj, s, c, ts, result, "lifted"))
    return outcomes


def _bytes(outcome) -> tuple:
    # each tree has its own IntegrationError class
    if isinstance(outcome, RuntimeError):
        return (str(outcome), outcome.t, outcome.stats, outcome.rows.tobytes(), outcome.state.tobytes())
    return tuple(getattr(outcome, name).tobytes() for name in FIELDS) + (outcome.meta["stats"],)


def _timed(fn) -> tuple:
    started = time.perf_counter()
    out = fn()
    return time.perf_counter() - started, out


def _spread(times: list) -> str:
    q1, med, q3 = np.percentile(times, [25, 50, 75])
    return f"{med:.3f} [{q1:.3f}, {q3:.3f}]"


def main() -> int:
    checkout = _checkout()
    ours = _inputs(checkout) if checkout else {}
    print("input          runs  d   lanes s: median [q1, q3]  one by one s: median [q1, q3]  "
          "ratio  lanes won")
    cross = []
    for name, (obj, runs, pairs) in _inputs(tikhoflow).items():
        sides = {"lanes": lambda: _lanes(tikhoflow, obj, runs),
                 "alone": lambda: _one_by_one(obj, runs)}
        if checkout:
            sides["checkout"] = lambda: _lanes(checkout, *ours[name][:2])
        times = {side: [] for side in sides}
        for k in range(pairs):
            results = {}
            for side in list(sides) if k % 2 == 0 else list(sides)[::-1]:
                seconds, out = _timed(sides[side])
                times[side].append(seconds)
                results[side] = [_bytes(o) for o in out]
            if results["lanes"] != results["alone"]:
                sys.exit(f"lanes_ab.py: {name}: the lanes and the runs one by one differ")
            if checkout and results["checkout"] != results["lanes"]:
                sys.exit(f"lanes_ab.py: {name}: the lanes of the two trees differ")
        lanes, alone = times["lanes"], times["alone"]
        wins = sum(a < b for a, b in zip(lanes, alone))
        print(f"{name:<14} {len(runs):>4} {obj.dimension:>2}   {_spread(lanes):<26} "
              f"{_spread(alone):<31} {np.median(alone) / np.median(lanes):5.2f}x  "
              f"{wins}/{pairs}  bytes identical")
        if checkout:
            won = sum(c < a for c, a in zip(times["checkout"], lanes))
            cross.append(f"{name:<14} {_spread(lanes):<26} {_spread(times['checkout']):<28} "
                         f"{won}/{pairs}  bytes identical")
    if checkout:
        print(f"\nlanes of the tree on the path ({Path(tikhoflow.__file__).parent}) against "
              f"this checkout's ({Path(checkout.__file__).parent})")
        print("input          path s: median [q1, q3]    checkout s: median [q1, q3]  checkout won")
        print("\n".join(cross))
    return 0


if __name__ == "__main__":
    sys.exit(main())
