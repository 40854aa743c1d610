"""The repository benchmark: one workload, timed in fresh processes, checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, nothing is installed. Workloads: oscillatory, dense_report, stiff_lsq,
sweep (see workloads.py for what each one stresses). Each repetition is one
CLI call in its own interpreter, so peak memory is per workload. Set-up is
sampled in separate interpreters as well. Repetitions run one after another
(closed loop, one client, no extra threads) while the next one still fits
in S seconds; there is always at least one.

--trace 0 reports the end-to-end metrics: medians over repetitions of the
timed CLI call (wall_s), of set-up (setup_s), of peak RSS, and of the error
against the pinned reference. --trace 1 alternates untraced and traced
repetitions and reports the per-layer split of the traced ones (spans.py),
plus the tracing overhead as traced minus untraced wall time. Times are
scaled to a reference CPU speed (CALIBRATION_REF_S); the raw ones are in the
provenance line.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it holds the run's provenance: the seed, the
stiff_lsq facts, the integrator counters and whether they repeat and satisfy
the DP5 identity, and any failed check. A readable table goes to stderr.
fail_frac is failed/attempted of the result line.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import (
    ERR_RESOLUTION, WORKLOADS, Workload, artifact_bytes, check_outputs, counters, lsq_facts,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 5
# Seconds child.calibrate() takes on the machine of baseline.json. Reported
# times are measured times scaled by CALIBRATION_REF_S over the calibration
# measured in the same process right before and after the timed call. That
# machine ran the same code anywhere from 1x to 2x as fast from one minute to
# the next; scaling 2.6-second repetitions cut the quartile spread of
# 2-repetition medians from 28% to 7%.
CALIBRATION_REF_S = 0.3
# A run must end within 180 s; no repetition may start past this point.
HARD_LIMIT_S = 150.0

END_TO_END = ("wall_s", "setup_s", "err_max", "peak_rss_mb")
PER_LAYER = (
    "config.resolve_s",
    "problems.grad_calls", "problems.grad_s", "problems.grad_us",
    "problems.value_calls", "problems.value_s",
    "schedules.eps_calls", "schedules.eps_s", "schedules.eps_us", "schedules.hypotheses_s",
    "integrator.steps", "integrator.rejected", "integrator.rhs_evals",
    "integrator.accept_ratio", "integrator.self_s", "integrator.us_per_attempt",
    "dynamics.rhs_evals_seen", "dynamics.rhs_s", "dynamics.rhs_us",
    "dynamics.rhs_self_s", "dynamics.finish_s",
    *(f"diagnostics.{fn}_{k}" for fn in (
        "energy_W_series", "energy_Eb_series", "energy_Ebp", "rate_report",
        "ergodic_deviation", "monotonicity_check", "tikhonov_point",
    ) for k in ("s", "calls")),
    "cli.csv_s", "cli.csv_bytes", "cli.report_bytes", "cli.self_s", "cli.runs",
    "cli.cell_overhead_s",
    "trace.overhead_s",
)


def unit_of(name: str) -> str:
    if name.endswith("_us") or name.endswith(".us_per_attempt"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name in ("err_max", "integrator.accept_ratio"):
        return "1"
    return "count"


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, workload: Workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        self.cfg = work / "config.cfg"
        self.cfg.write_text(workload.config_text(seed))
        self.started = time.perf_counter()
        self.env = _child_env()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def child(self, argv, trace: bool):
        """Run one child; returns (result dict or None, error text)."""
        spec = {"src": str(SRC), "config": str(self.cfg), "argv": argv, "trace": trace}
        timeout = max(1.0, HARD_LIMIT_S + 20.0 - self.elapsed())
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                capture_output=True, text=True, timeout=timeout, env=self.env, cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout:.0f} s"
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            return None, lines[-1] if lines else f"exit status {proc.returncode}"
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"tikhoflow was imported from {result['module']}, not from {SRC}")
        return result, ""

    def repetition(self, i: int, trace: bool) -> dict:
        out = self.work / f"rep{i}"
        cells = len(self.w.labels())
        started = time.perf_counter()
        result, error = self.child(self.w.cli_args(self.cfg, out), trace)
        rep = {"trace": trace, "duration_s": time.perf_counter() - started, "result": result,
               "attempted": cells, "failed": cells, "errs": [], "notes": []}
        try:
            if result is None or result["rc"] != 0:
                rep["notes"].append(f"cli call failed: {error or 'exit status %s' % result['rc']}")
                return rep
            checked = check_outputs(self.w, out, self.seed)
            rep.update(failed=checked["failed"], errs=checked["errs"], notes=checked["notes"])
            rep["counters"] = counters(self.w, out)
            rep["bytes"] = artifact_bytes(self.w, out)
            rep["hashes"] = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                             for p in self.w.artifacts(out)}
        except (OSError, ValueError, KeyError) as exc:
            rep["failed"] = cells
            rep["notes"].append(f"outputs unreadable: {exc}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return rep

    def setup_samples(self) -> list:
        """Set-up times from interpreters that run no workload."""
        samples = []
        for _ in range(SETUP_SAMPLES):
            result, error = self.child([], False)
            if result is None:
                raise SystemExit(f"set-up failed: {error}")
            samples.append(result["setup_s"])
        return samples

    def repetitions(self, seconds: float, trace: bool) -> list:
        reps = []
        start = time.perf_counter()
        while True:
            traced = trace and len(reps) % 2 == 1
            reps.append(self.repetition(len(reps), traced))
            longest = max(r["duration_s"] for r in reps)
            spent = time.perf_counter() - start
            need_traced = trace and not any(r["trace"] for r in reps)
            if self.elapsed() + longest > HARD_LIMIT_S:
                break
            if spent + longest > seconds and not need_traced:
                break
        return reps


def _median(values):
    return statistics.median(values) if values else float("nan")


def _mark_changed_artifacts(reps: list) -> None:
    """Every repetition must write the same trajectory and summary bytes."""
    first = next((r["hashes"] for r in reps if "hashes" in r), None)
    for r in reps:
        if "hashes" in r and r["hashes"] != first:
            r["failed"] = r["attempted"]
            r["notes"].append("artifacts differ from the first repetition"
                              + (" (traced run)" if r["trace"] else ""))


def summarize(runner: Runner, setup: list, reps: list, trace: bool) -> tuple[dict, dict]:
    _mark_changed_artifacts(reps)
    ok = [r for r in reps if r["result"] is not None and r["result"]["rc"] == 0]
    untraced = [r for r in ok if not r["trace"]]
    traced = [r for r in ok if r["trace"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)

    def speed(r):  # converts the repetition's seconds to reference-CPU seconds
        return CALIBRATION_REF_S / r["result"]["calibration_s"]

    def wall(reps_):
        return _median([r["result"]["wall_s"] * speed(r) for r in reps_])

    if trace:
        metrics = {}
        for name in PER_LAYER:
            if name == "trace.overhead_s":
                value = wall(traced) - wall(untraced)
            elif name in ("cli.csv_bytes", "cli.report_bytes"):
                value = _median([r["bytes"][name[4:]] for r in traced if "bytes" in r])
            else:
                scale = unit_of(name) in ("s", "us")
                value = _median([r["result"]["layers"][name] * (speed(r) if scale else 1)
                                 for r in traced])
            metrics[name] = value
    else:
        metrics = {
            "wall_s": wall(untraced),
            # set-up interpreters are too short to calibrate: the median
            # speed of the run's repetitions stands for them
            "setup_s": _median(setup + [r["result"]["setup_s"] for r in ok])
            * _median([speed(r) for r in ok]),
            "err_max": _median([max(ERR_RESOLUTION, *r["errs"]) for r in untraced if r["errs"]]),
            # a run's first repetition peaks 1.2-1.7 MB lower than later ones;
            # the minimum does not depend on how many repetitions fit
            "peak_rss_mb": min((r["result"]["peak_rss_mb"] for r in untraced),
                               default=float("nan")),
        }
    finite = all(v == v for v in metrics.values())  # NaN: no repetition to take it from
    metrics = {n: v if v == v else None for n, v in metrics.items()}
    counts = [r["counters"] for r in reps if "counters" in r]
    cells = len(runner.w.labels())
    info = {
        "workload": runner.w.name,
        "seed": runner.seed,
        "trace": int(trace),
        "repetitions": len(reps),
        "traced_repetitions": len(traced),
        "setup_samples": len(setup) + len(ok),
        "wall_s_raw_samples": [r["result"]["wall_s"] for r in untraced],
        "calibration_s_samples": [r["result"]["calibration_s"] for r in ok],
        "err_max_unfloored": max((e for r in reps for e in r["errs"]), default=None),
        "fail_frac": failed / max(attempted, 1),
        "counters": counts[0] if counts else None,
        "counters_repeat": bool(counts) and all(c == counts[0] for c in counts),
        "dp5_identity": bool(counts) and all(
            c["rhs_evals"] == 2 * cells + 6 * (c["steps"] + c["rejected"]) for c in counts),
        "notes": sorted({n for r in reps for n in r["notes"]}),
    }
    if trace and traced:
        seen = [r["result"]["layers"]["dynamics.rhs_evals_seen"] for r in traced]
        reported = [r["counters"]["rhs_evals"] for r in traced if "counters" in r]
        info["rhs_evals_seen_match"] = seen == reported
    if runner.w.name == "stiff_lsq":
        info["stiff_lsq"] = lsq_facts(runner.seed)
    for key in ("counters_repeat", "dp5_identity", "rhs_evals_seen_match"):
        if info.get(key) is False:
            print(f"warning: {key} does not hold: {info['counters']}", file=sys.stderr)
    names = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0 and finite and bool(ok),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": unit_of(n)} for n in names},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tikhoflow" / "__init__.py").is_file():
        print(f"error: no tikhoflow sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = Runner(WORKLOADS[args.workload], args.seed, work)
        setup = runner.setup_samples()
        reps = runner.repetitions(args.seconds, bool(args.trace))
        info, result = summarize(runner, setup, reps, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rows = [(n, m["value"], m["unit"]) for n, m in result["metrics"].items()]
    for name, value, unit in rows + [("fail_frac", info["fail_frac"], "1")]:
        print(f"{args.workload:>12}  {name:<34} {value if value is None else f'{value:.6g}'} {unit}",
              file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
