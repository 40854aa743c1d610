"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

They check that tracing never changes what the program writes, that the
metric names and units agree with BENCHMARK.json, that one seed always yields
the same config bytes, that the pinned references map onto every seed, that
the checks reject wrong output, and that the benchmark refuses to run without
the program's sources.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_benchmark_json():
    spec = _spec()
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    emitted = list(run.END_TO_END) + list(run.PER_LAYER)
    assert sorted(listed) == sorted(emitted)
    assert len(set(emitted)) == len(emitted)
    for name in emitted:
        assert NAME_RE.match(name), name
        assert listed[name] == run.unit_of(name), name
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_one_seed_always_yields_the_same_config_bytes():
    for name, w in wl.WORKLOADS.items():
        assert w.config_text(7) == w.config_text(7), name
    lsq = wl.WORKLOADS["stiff_lsq"]
    assert lsq.config_text(0) != lsq.config_text(1)
    facts = [wl.lsq_facts(seed) for seed in (0, 1, 123456789)]
    assert all(abs(f["L"] - facts[0]["L"]) <= 1e-9 * facts[0]["L"] for f in facts)
    assert abs(facts[0]["L"] - 175.3) < 0.05


def test_stiff_lsq_reference_follows_the_seed_permutation():
    A0, b0 = wl.lsq_base()
    with np.load(wl.REFS / "stiff_lsq.npz") as ref:
        x0 = ref["x"][0]
    for seed in (0, 1, 2):
        A, b = wl.lsq_problem(seed)
        rows, row_signs, _, _ = wl.lsq_symmetry(seed)
        _, x = wl.reference("stiff_lsq", seed)
        # residuals of the permuted problem are the row-permuted base residuals
        base_residual = (A0 @ x0.T).T - b0
        assert np.allclose((A @ x[0].T).T - b, row_signs * base_residual[:, rows],
                           rtol=0, atol=1e-12)
    check = json.loads((wl.REFS / "crosscheck.json").read_text())["workloads"]
    assert check["stiff_lsq"]["permuted_agreement"] < 1e-12
    for name in ("dense_report", "stiff_lsq", "sweep"):
        assert check[name]["direct_agreement_max"] < 1e-9, name


def _fake_run_output(out: Path, w: wl.Workload, x: np.ndarray, t: np.ndarray):
    run_dir = w.run_dirs(out)[0]
    run_dir.mkdir(parents=True)
    cols = np.column_stack([t, x])
    header = "t," + ",".join(f"x_{i}" for i in range(x.shape[1]))
    np.savetxt(run_dir / "trajectory.csv", cols, delimiter=",", header=header, comments="",
               fmt="%.17g")
    (run_dir / "report.json").write_text(json.dumps({"integrator": {}}))


def test_checks_reject_a_wrong_trajectory(tmp_path):
    w = wl.WORKLOADS["oscillatory"]
    t, x = wl.reference(w.name, 0)
    _fake_run_output(tmp_path / "good", w, x[0], t)
    assert wl.check_outputs(w, tmp_path / "good", 0)["failed"] == 0
    _fake_run_output(tmp_path / "bad", w, x[0] * (1.0 + 1e-5), t)
    assert wl.check_outputs(w, tmp_path / "bad", 0)["failed"] == 1


def test_hypotheses_check_rejects_a_changed_verdict():
    hyp = {k: ({"status": v} if k.startswith(("cond_", "t2eps", "limit")) else v)
           for k, v in wl.HYPOTHESES_TRUTH_GAMMA_1_5.items()}
    assert wl._hypotheses_ok({"diagnostics": {"hypotheses": hyp}})
    hyp["limit_condition"] = {"status": "fails"}
    assert not wl._hypotheses_ok({"diagnostics": {"hypotheses": hyp}})


def test_crossing_check_allows_one_grid_ratio():
    ratio = 1e3 ** (1.0 / 399)
    t_star = (2.0 / 3.0 * 10.0 * (10.0 / 3.0 - 1.0 + 1.0)) ** (1.0 / (2.0 - 1.5))
    row = {"alpha": 10.0, "beta": 1.0, "gamma": 1.5}
    assert wl._crossing_ok({**row, "t_cross": t_star * ratio ** 0.5}, 1e3, 1.0, 400, 1.0, 1.0)
    assert not wl._crossing_ok({**row, "t_cross": t_star * ratio ** 1.5}, 1e3, 1.0, 400, 1.0, 1.0)
    assert not wl._crossing_ok({**row, "t_cross": t_star / ratio}, 1e3, 1.0, 400, 1.0, 1.0)
    assert not wl._crossing_ok({**row, "t_cross": float("nan")}, 1e3, 1.0, 400, 1.0, 1.0)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_trace_never_changes_results(name, tmp_path):
    w = wl.WORKLOADS[name]
    runner = run.Runner(w, 3, tmp_path)
    plain, traced = runner.repetition(0, False), runner.repetition(1, True)
    assert plain["failed"] == 0 and traced["failed"] == 0
    assert plain["result"]["rc"] == 0 and traced["result"]["rc"] == 0
    assert plain["hashes"] and plain["hashes"] == traced["hashes"]
    layers = traced["result"]["layers"]
    assert layers["dynamics.rhs_evals_seen"] == traced["counters"]["rhs_evals"]
    assert layers["integrator.rhs_evals"] == traced["counters"]["rhs_evals"]
    assert layers["cli.runs"] == len(w.labels())
    assert set(layers) == set(run.PER_LAYER) - {"cli.csv_bytes", "cli.report_bytes",
                                               "trace.overhead_s"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
