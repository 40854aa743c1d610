"""The benchmark's four workloads: inputs from a seed, pinned references, checks.

Each workload is one `tikhoflow` CLI call on a generated config. Only
`stiff_lsq` depends on the seed. Its least-squares data is a fixed Gaussian
draw (40x60 A and length-40 b from ``numpy.random.default_rng(0)``, so
L = lambda_max(A^T A) = 175.3). The seed applies a random signed permutation
to the rows and another to the columns. A signed permutation is an exact
symmetry of the dynamics and of the integrator's componentwise error norm, so
every seed gives a different config with the same stiffness, the same step
sequence and the same accuracy. The pinned reference maps exactly onto every
seed by the same permutation. A general random rotation would also preserve
the dynamics, but not the error norm: err_max then varies 3x between seeds,
which no regression bound can absorb.

Operations: one per run, one per sweep cell. An operation fails if the CLI
call exits non-zero or raises, if its artifacts are missing, or if it fails
a check below. The checks are the error against the pinned reference under a
fixed ceiling, the hypothesis verdicts on `dense_report` and the crossing
times on `sweep`.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFS = Path(__file__).resolve().parent / "refs"

# Tolerances for the pinned references; make_refs.py uses these.
REF_REL_TOL = 1e-12
REF_ABS_TOL = 1e-15

_OSCILLATORY = """\
label = oscillatory
problem.name = shifted_quadratic
problem.c = 1
schedule.kind = power
schedule.gamma = 2.5
schedule.scale = 1
dynamics.alpha = 3
dynamics.beta = 0
dynamics.t0 = 1
dynamics.u0 = 2
dynamics.v0 = 0
dynamics.horizon = 2e3
dynamics.rel_tol = 1e-9
dynamics.abs_tol = 1e-12
dynamics.sample_count = 400
dynamics.sample_spacing = logarithmic
diagnostics.reports = W,rates,ergodic,hypotheses
"""

# configs/example.cfg with an 8,000-sample grid and every report on.
_DENSE_REPORT = """\
label = dense_report
problem.name = paper1d
schedule.kind = power
schedule.gamma = 1.5
schedule.scale = 1
dynamics.alpha = 3
dynamics.beta = 1
dynamics.t0 = 1
dynamics.u0 = 2
dynamics.v0 = 0
dynamics.horizon = 1e4
dynamics.rel_tol = 1e-9
dynamics.abs_tol = 1e-12
dynamics.sample_count = 8000
dynamics.sample_spacing = logarithmic
diagnostics.reports = W,Eb,Ebp,rates,ergodic,tikhonov_curve,hypotheses
diagnostics.a = 2
diagnostics.c = 1
diagnostics.eps_grid = 1 0.1 0.01 0.001
"""

_STIFF_LSQ_HEAD = """\
label = stiff_lsq
problem.name = least_squares
schedule.kind = power
schedule.gamma = 1.5
schedule.scale = 1
dynamics.alpha = 3
dynamics.beta = 1
dynamics.t0 = 1
dynamics.u0 = 0
dynamics.v0 = 0
dynamics.horizon = 200
dynamics.rel_tol = 1e-9
dynamics.abs_tol = 1e-12
dynamics.sample_count = 400
dynamics.sample_spacing = logarithmic
diagnostics.reports = W,rates,ergodic,hypotheses
"""

_SWEEP = """\
label = sweep
problem.name = paper1d
schedule.kind = power
schedule.gamma = 1.5
schedule.scale = 1
dynamics.alpha = 3
dynamics.beta = 1
dynamics.t0 = 1
dynamics.u0 = 2
dynamics.v0 = 0
dynamics.horizon = 1e2
dynamics.rel_tol = 1e-9
dynamics.abs_tol = 1e-12
dynamics.sample_count = 100
dynamics.sample_spacing = logarithmic
diagnostics.reports = W,rates,ergodic,hypotheses
diagnostics.a = 2
diagnostics.c = 1
"""

SWEEP_ALPHAS = (3.0, 10.0, 200.0)
SWEEP_BETAS = (0.0, 0.5, 1.0)
SWEEP_GAMMAS = (1.1, 1.5, 1.9)

# The references agree with the unlifted formulation (integrate_direct) to
# 3.6e-11 at worst (refs/crosscheck.json), so errors below this are not
# resolved and err_max reports them as this value. dense_report sits there:
# its 8,000 clamped samples make it agree with its reference to 1e-16.
ERR_RESOLUTION = 1e-10

# err_max ceilings, 300-1000x the error each workload reaches at the seed
# commit (dense_report: 1000x the resolution), so that a less accurate but
# legitimate method still passes while a broken integrator does not.
ERR_CEILING = {
    "oscillatory": 1e-7,
    "dense_report": 1e-7,
    "stiff_lsq": 1e-7,
    "sweep": 1e-5,
}

# Exponent-arithmetic truth for eps = t^-1.5 (tests/helpers.py POWER_TRUTH,
# gamma 1.5, at alpha=3, beta=1, a=2, c=1); copied so the benchmark does not
# change when the tests do.
HYPOTHESES_TRUTH_GAMMA_1_5 = {
    "int_eps_over_t": "finite",
    "int_t_eps": "infinite",
    "int_eps": "finite",
    "cond_a": "holds",
    "cond_b": "holds",
    "t2eps_growth": "holds",
    "limit_condition": "holds",
}

LSQ_ROWS, LSQ_COLS = 40, 60
LSQ_DRAW_SEED = 0


def _fmt_row(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def lsq_base() -> tuple[np.ndarray, np.ndarray]:
    """The fixed Gaussian least-squares draw that every seed permutes."""
    rng = np.random.default_rng(LSQ_DRAW_SEED)
    A = rng.standard_normal((LSQ_ROWS, LSQ_COLS))
    b = rng.standard_normal(LSQ_ROWS)
    return A, b


def lsq_symmetry(seed: int):
    """Signed row and column permutations drawn from the benchmark seed."""
    rng = np.random.default_rng(seed)
    rows = rng.permutation(LSQ_ROWS)
    row_signs = rng.choice([-1.0, 1.0], LSQ_ROWS)
    cols = rng.permutation(LSQ_COLS)
    col_signs = rng.choice([-1.0, 1.0], LSQ_COLS)
    return rows, row_signs, cols, col_signs


def lsq_problem(seed: int) -> tuple[np.ndarray, np.ndarray]:
    A, b = lsq_base()
    rows, row_signs, cols, col_signs = lsq_symmetry(seed)
    return (row_signs[:, None] * A[rows])[:, cols] * col_signs, row_signs * b[rows]


def lsq_facts(seed: int) -> dict:
    """Seed, L = lambda_max(A^T A) and DP5's stability step 3.3/(beta L), beta = 1."""
    A, _ = lsq_problem(seed)
    L = float(np.linalg.eigvalsh(A.T @ A)[-1])
    return {"seed": seed, "L": L, "h_stability": 3.3 / L}


def lsq_config(A: np.ndarray, b: np.ndarray) -> str:
    rows = "; ".join(_fmt_row(r) for r in A)
    return _STIFF_LSQ_HEAD + f"problem.A = {rows}\nproblem.b = {_fmt_row(b)}\n"


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str  # CLI verb: run or sweep

    def config_text(self, seed: int) -> str:
        if self.name == "stiff_lsq":
            return lsq_config(*lsq_problem(seed))
        return {"oscillatory": _OSCILLATORY, "dense_report": _DENSE_REPORT, "sweep": _SWEEP}[self.name]

    def cli_args(self, cfg: Path, out: Path) -> list:
        args = [self.verb, str(cfg), "--out", str(out)]
        if self.verb == "sweep":
            args += ["--alpha", *map(_g, SWEEP_ALPHAS), "--beta", *map(_g, SWEEP_BETAS),
                     "--gamma", *map(_g, SWEEP_GAMMAS)]
        return args

    def labels(self) -> list:
        """The label of every run the CLI call makes, in the order it makes them."""
        if self.verb == "run":
            return [self.name]
        return [sweep_cell_label(a, b, g)
                for a in SWEEP_ALPHAS for b in SWEEP_BETAS for g in SWEEP_GAMMAS]

    def run_dirs(self, out: Path) -> list:
        if self.verb == "run":
            return [out / self.name]
        return [out / "sweep" / label for label in self.labels()]

    def artifacts(self, out: Path) -> list:
        """Files that must be byte-identical between traced and untraced runs."""
        files = [d / "trajectory.csv" for d in self.run_dirs(out)]
        if self.verb == "sweep":
            files.append(out / "sweep" / "sweep_summary.csv")
        return files


def _g(v: float) -> str:
    return "%g" % v


def sweep_cell_label(alpha, beta, gamma) -> str:
    return "alpha_%g__beta_%g__gamma_%g" % (alpha, beta, gamma)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oscillatory", "run"),
        Workload("dense_report", "run"),
        Workload("stiff_lsq", "run"),
        Workload("sweep", "sweep"),
    )
}


# -- references -------------------------------------------------------------


def reference(name: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Pinned (t, x) with x of shape (cells, samples, dimension)."""
    with np.load(REFS / f"{name}.npz", allow_pickle=False) as ref:
        t, x = ref["t"], ref["x"]
    if name == "stiff_lsq":
        _, _, cols, col_signs = lsq_symmetry(seed)
        x = x[..., cols] * col_signs
    return t, x


def read_trajectory(path: Path, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1 : 1 + dimension]


def rel_err_max(x: np.ndarray, x_ref: np.ndarray) -> float:
    """max over samples of |x - x_ref|_inf / (1 + |x_ref|_inf)."""
    num = np.max(np.abs(x - x_ref), axis=-1)
    return float(np.max(num / (1.0 + np.max(np.abs(x_ref), axis=-1))))


# -- checks -------------------------------------------------------------------


def _hypotheses_ok(report: dict) -> bool:
    hyp = report["diagnostics"]["hypotheses"]
    for key, want in HYPOTHESES_TRUTH_GAMMA_1_5.items():
        got = hyp[key]["status"] if isinstance(hyp[key], dict) else hyp[key]
        if got != want:
            return False
    return True


def _crossing_ok(row: dict, horizon: float, t0: float, samples: int, scale: float, c: float) -> bool:
    """t_cross lies within one extended-grid ratio above (threshold/scale)^(1/(2-gamma))."""
    alpha, beta, gamma = float(row["alpha"]), float(row["beta"]), float(row["gamma"])
    threshold = (2.0 / 3.0) * alpha * (alpha / 3.0 - 1.0 + beta * c * c)
    t_star = max(t0, (threshold / scale) ** (1.0 / (2.0 - gamma)))
    ratio = (horizon / t0) ** (1.0 / (samples - 1))
    t_cross = float(row["t_cross"])
    return t_star * (1.0 - 1e-9) <= t_cross <= t_star * ratio * (1.0 + 1e-9)


def check_outputs(w: Workload, out: Path, seed: int) -> dict:
    """Check every operation of one CLI call; returns per-cell errors and failures."""
    t_ref, x_ref = reference(w.name, seed)
    dim = x_ref.shape[-1]
    errs, failed, notes = [], 0, []
    rows = {}
    if w.verb == "sweep":
        try:
            with open(out / "sweep" / "sweep_summary.csv", newline="") as fh:
                rows = {sweep_cell_label(float(r["alpha"]), float(r["beta"]), float(r["gamma"])): r
                        for r in csv.DictReader(fh)}
        except (OSError, KeyError, ValueError) as exc:
            notes.append(f"sweep_summary.csv unreadable: {exc}")
    for i, (run_dir, label) in enumerate(zip(w.run_dirs(out), w.labels())):
        try:
            t, x = read_trajectory(run_dir / "trajectory.csv", dim)
            report = json.loads((run_dir / "report.json").read_text())
        except (OSError, ValueError) as exc:
            failed += 1
            notes.append(f"{label}: artifacts unreadable: {exc}")
            continue
        if t.shape != t_ref.shape or np.max(np.abs(t - t_ref) / t_ref) > 1e-12:
            failed += 1
            notes.append(f"{label}: sample times differ from the reference")
            continue
        err = rel_err_max(x, x_ref[i])
        errs.append(err)
        ok = err <= ERR_CEILING[w.name]
        if not ok:
            notes.append(f"{label}: err {err:.3g} above ceiling {ERR_CEILING[w.name]:g}")
        if w.name == "dense_report" and not _hypotheses_ok(report):
            ok = False
            notes.append(f"{label}: hypothesis verdicts differ from the exponent-arithmetic truth")
        if w.verb == "sweep":
            row = rows.get(label)
            cfg = report["config"]
            if row is None or not _crossing_ok(
                row, cfg["dynamics.horizon"], cfg["dynamics.t0"], cfg["dynamics.sample_count"],
                cfg["schedule.scale"], cfg["diagnostics.c"],
            ):
                ok = False
                notes.append(f"{label}: t_cross missing or off the closed form")
        failed += 0 if ok else 1
    return {"errs": errs, "failed": failed, "notes": notes}


def counters(w: Workload, out: Path) -> dict:
    """Integrator counts summed over the run's report.json files."""
    total = {"steps": 0, "rejected": 0, "rhs_evals": 0}
    for run_dir in w.run_dirs(out):
        stats = json.loads((run_dir / "report.json").read_text())["integrator"]
        for k in total:
            total[k] += int(stats[k])
    return total


def artifact_bytes(w: Workload, out: Path) -> dict:
    csv_bytes = sum(p.stat().st_size for p in w.artifacts(out))
    report_bytes = sum((d / "report.json").stat().st_size for d in w.run_dirs(out))
    return {"csv_bytes": csv_bytes, "report_bytes": report_bytes}
