import dataclasses
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from tikhoflow import DynamicsConfig, cli, power_schedule
from tikhoflow.cli import main
from tikhoflow.config import ConfigError, load_config, resolve
from tikhoflow.dynamics import IntegrationError
from tikhoflow.schedules import t2eps_threshold


BASE = """
label = demo
problem.name = paper1d
schedule.kind = power
schedule.gamma = 1.5
dynamics.alpha = 3
dynamics.beta = 1
dynamics.t0 = 1
dynamics.u0 = 2
dynamics.v0 = 0
dynamics.horizon = 150
dynamics.sample_count = 120
"""


@pytest.fixture()
def base_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BASE)
    return cfg


def test_run_writes_all_artifacts(base_config, tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(base_config), "--out", str(out)]) == 0
    run_dir = out / "demo"
    assert (run_dir / "trajectory.csv").exists()
    assert (run_dir / "report.json").exists()
    assert (run_dir / "manifest.json").exists()
    report = json.loads((run_dir / "report.json").read_text())
    hyp = report["diagnostics"]["hypotheses"]
    assert hyp["cond_a"]["status"] == "holds"
    assert hyp["int_eps_over_t"] == "finite"
    assert report["problem"]["min_norm_solution"] == [0.0]
    assert report["summary"]["final_t"] == 150.0


def test_csv_schema(base_config, tmp_path):
    out = tmp_path / "out"
    main(["run", str(base_config), "--out", str(out)])
    raw = (out / "demo" / "trajectory.csv").read_bytes().decode()
    lines = raw.split("\n")
    assert lines[0] == "t,x_0,v_0,eps,gap,grad_norm,W,int_eps_over_t,int_erg_num,int_vel"
    assert raw.endswith("\n") and not raw.endswith(",\n")
    assert "\r" not in raw
    # 120 samples + header + trailing newline
    assert len(lines) == 122
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert float(first[1]) == 2.0  # u0
    assert float(first[3]) == 1.0  # eps(1) = 1
    # 17 significant digits: a full-precision double survives the round trip
    row = lines[60].split(",")
    assert float(row[1]) == pytest.approx(float(row[1]), abs=0)
    for tok in row:
        assert re.fullmatch(r"-?\d+(\.\d+)?(e[+-]\d+)?", tok), tok


def test_run_is_deterministic(base_config, tmp_path):
    main(["run", str(base_config), "--out", str(tmp_path / "a")])
    main(["run", str(base_config), "--out", str(tmp_path / "b")])
    csv_a = (tmp_path / "a" / "demo" / "trajectory.csv").read_bytes()
    csv_b = (tmp_path / "b" / "demo" / "trajectory.csv").read_bytes()
    assert csv_a == csv_b


def test_manifest_rerun_reproduces_csv(base_config, tmp_path):
    out = tmp_path / "out"
    main(["run", str(base_config), "--out", str(out)])
    manifest = out / "demo" / "manifest.json"
    assert main(["run", str(manifest), "--out", str(tmp_path / "replay")]) == 0
    original = (out / "demo" / "trajectory.csv").read_bytes()
    replay = (tmp_path / "replay" / "demo" / "trajectory.csv").read_bytes()
    assert original == replay


def test_unknown_problem_exits_2_without_artifacts(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BASE.replace("problem.name = paper1d", "problem.name = nosuch"))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("raw, count", [("400", 400), ("4e2", 400), ("400.7", None)])
def test_sample_count_must_be_whole(tmp_path, raw, count):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BASE.replace("dynamics.sample_count = 120", f"dynamics.sample_count = {raw}"))
    if count is None:
        with pytest.raises(ConfigError, match="dynamics.sample_count"):
            resolve(load_config(cfg))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    else:
        assert resolve(load_config(cfg)).dynamics.sample_count == count


@pytest.mark.parametrize("name, text", [
    ("exp.cfg", BASE + "dynamics.alpha = 4\n"),
    ("exp.json", '{"dynamics.alpha": 3, "dynamics.alpha": 4}'),
])
def test_key_given_twice_takes_its_last_value(tmp_path, name, text):
    # appending `key = value` overrides a setting, in both file formats
    cfg = tmp_path / name
    cfg.write_text(text)
    assert resolve(load_config(cfg)).dynamics.alpha == 4.0


def test_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BASE + "dynamics.bogus = 1\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize(
    "key, raw",
    [
        ("diagnostics.b", "abc"),
        ("diagnostics.p", "abc"),
        ("diagnostics.eps_grid", "abc"),
        ("diagnostics.eps_grid", "0.1 abc"),
        ("dynamics.u0", "2 abc"),
        ("schedule.gamma", "nan"),
        ("schedule.scale", "inf"),
        ("dynamics.alpha", "nan"),
        ("dynamics.beta", "nan"),
        ("dynamics.t0", "nan"),
        ("dynamics.horizon", "inf"),
        ("dynamics.u0", "nan"),
        ("dynamics.v0", "inf"),
        ("dynamics.rel_tol", "nan"),
        ("dynamics.abs_tol", "inf"),
        ("dynamics.sample_count", "inf"),
        ("diagnostics.a", "nan"),
        ("diagnostics.c", "-inf"),
        ("diagnostics.b", "nan"),
        ("diagnostics.p", "inf"),
        ("diagnostics.eps_grid", "0.1 nan"),
        ("problem.A", "1 2; 3\nproblem.name = least_squares"),  # ragged rows
        ("problem.b", "1; 2\nproblem.name = least_squares\nproblem.A = 1; 1"),  # nested
        ("schedule.offset", "nan"),  # a key the power schedule ignores
        ("problem.A", "1 2; 3"),  # a key paper1d ignores
    ],
)
def test_non_numeric_or_non_finite_value_exits_2(tmp_path, capsys, key, raw):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BASE + f"{key} = {raw}\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert f"{key}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, text, key",
    [
        ("bad.json", '{"label": "x",', None),  # JSON syntax: names the file
        ("bad.json", '{"dynamics.alpha": {"a": 1}}', "dynamics.alpha"),
        ("bad.json", '{"dynamics.alpha": null}', "dynamics.alpha"),
        ("bad.json", '{"dynamics.alpha": true}', "dynamics.alpha"),
        ("bad.json", '{"diagnostics.reports": 3}', "diagnostics.reports"),
        ("bad.json", '{"dynamics.u0": [[2.0]]}', "dynamics.u0"),
        ("bad.cfg", "dynamics.alpha = nan\n", "dynamics.alpha"),
        ("bad.cfg", "dynamics.sample_count = 400.7\n", "dynamics.sample_count"),
    ],
)
def test_malformed_value_exits_2_naming_its_key_once(tmp_path, capsys, name, text, key):
    cfg = tmp_path / name
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key or cfg}:") and "Traceback" not in err, err
    assert not out.exists()


_PSD = "problem.name = psd_quadratic\nproblem.A = "
_TABULATED = "schedule.kind = tabulated\nschedule.times = "
_INPUT_CHECKS = [
    # the config file and its keys
    ("bad.cfg", BASE + "label = a/b\n", "run", "label: must be nonempty and filesystem-safe"),
    ("bad.cfg", BASE + "diagnostics.eps_grid = 1 0 0.1\n", "run",
     "diagnostics.eps_grid: entries must be positive"),
    ("bad.cfg", BASE + "schedule.kind = cubic\n", "run", "schedule.kind: unknown schedule 'cubic'"),
    ("bad.cfg", BASE + "problem.name = shifted_quadratic\nproblem.c = 1 2\ndynamics.u0 = 1 2 3\n",
     "run", "dynamics.u0: dimension 3 does not match problem dimension 2"),
    ("bad.cfg", BASE + "problem.name = shifted_quadratic\n", "run",
     "problem.c: required for problem.name = shifted_quadratic"),
    ("bad.cfg", BASE + "diagnostics.reports = W rates bogus\n", "run",
     "diagnostics.reports: unknown report 'bogus'"),
    ("missing.cfg", None, "run", "config file not found: "),
    ("bad.cfg", BASE + "dynamics.alpha 3\n", "run", "expected 'key = value', got 'dynamics.alpha 3'"),
    ("bad.json", "[1, 2]", "run", "JSON config must be an object of dotted keys"),
    ("bad.json", '{"label": 3}', "run", "label: expected text, got 3"),
    ("bad.json", '{"dynamics.alpha": 1%s}' % ("0" * 400), "run",
     "dynamics.alpha: expected a finite number, got 1000"),
    # the objects `resolve` builds
    ("bad.cfg", BASE + "dynamics.alpha = -1\n", "run", "dynamics: alpha must be nonnegative"),
    ("bad.cfg", BASE + "dynamics.beta = -0.5\n", "run", "dynamics: beta must be nonnegative"),
    ("bad.cfg", BASE + "dynamics.sample_count = 0\n", "run", "dynamics: sample_count must be positive"),
    ("bad.cfg", BASE + "dynamics.sample_count = 1\n", "run",
     "dynamics: sample_count must be >= 2 for a nonempty time span"),
    ("bad.cfg", BASE + "schedule.scale = 0\n", "run", "power schedule needs scale > 0"),
    ("bad.cfg", BASE + "schedule.kind = logarithmic\nschedule.offset = -5\n", "run",
     "logarithmic schedule needs offset + t0 > 1"),
    ("bad.cfg", BASE + _TABULATED + "1 10 200\nschedule.values = 1 0.5\n", "run",
     "tabulated schedule needs matching 1-d grids of length >= 2"),
    ("bad.cfg", BASE + _TABULATED + "1 100 10 200\nschedule.values = 1 0.5 0.2 0.1\n", "run",
     "tabulated times must be strictly increasing"),
    ("bad.cfg", BASE + _TABULATED + "1 10 200\nschedule.values = 1 0.5 -0.1\n", "run",
     "tabulated values must be nonnegative"),
    ("bad.cfg", BASE + _PSD + "1 1 1; 1 1 1\nproblem.b = 1 1\n", "run", "A must be a square matrix"),
    ("bad.cfg", BASE + _PSD + "1 2; 0 1\nproblem.b = 1 1\n", "run", "A must be symmetric"),
    ("bad.cfg", BASE + _PSD + "1 0; 0 1\nproblem.b = 1 1 1\n", "run",
     "b does not match the dimension of A"),
    ("bad.cfg", BASE + "problem.name = least_squares\nproblem.A = 1 0; 0 1; 1 1\nproblem.b = 1 1\n",
     "run", "row count of A does not match length of b"),
    # a logarithmic schedule has no gamma to sweep by default
    ("bad.cfg", BASE + "schedule.kind = logarithmic\n", "sweep",
     "sweep needs nonempty alpha, beta and gamma grids"),
]


@pytest.mark.parametrize("name, text, verb, message", _INPUT_CHECKS, ids=[c[3] for c in _INPUT_CHECKS])
def test_input_check_exits_2_with_its_own_message(tmp_path, capsys, name, text, verb, message):
    cfg = tmp_path / name
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    assert main([verb, str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and "Traceback" not in err, err
    assert not out.exists()


def test_config_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(BASE.encode() + b"label = \xff\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}:") and "Traceback" not in err, err
    assert not out.exists()


def test_compare_single_gamma_two_runs(base_config, tmp_path):
    out = tmp_path / "out"
    assert main(["compare", str(base_config), "--gammas", "1.5", "--out", str(out)]) == 0
    top = out / "demo"
    assert (top / "zero" / "trajectory.csv").exists()
    assert (top / "gamma_1.5" / "trajectory.csv").exists()
    table = (top / "comparison.csv").read_text().strip().split("\n")
    assert table[0] == "run,gamma,final_gap,min_x_norm,final_x_0"
    assert len(table) == 3  # header + zero + one gamma


def test_compare_requires_gammas(base_config, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["compare", str(base_config), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_compare_experiment_refuses_an_empty_gamma_list(base_config, tmp_path):
    # the CLI's --gammas needs a value, so only a direct call reaches this check
    exp = resolve(load_config(base_config), out_override=tmp_path / "o")
    with pytest.raises(ConfigError, match="compare needs a nonempty gamma list"):
        cli.compare_experiment(exp, [])


def test_compare_tikhonov_pulls_toward_origin(base_config, tmp_path):
    out = tmp_path / "out"
    main(["compare", str(base_config), "--gammas", "1.5", "--out", str(out)])
    rows = (out / "demo" / "comparison.csv").read_text().strip().split("\n")[1:]
    table = {r.split(",")[0]: r.split(",") for r in rows}
    min_zero = float(table["zero"][3])
    min_tikh = float(table["gamma_1.5"][3])
    assert min_tikh < min_zero


def test_sweep_1x1x1_matches_run(base_config, tmp_path):
    out_run = tmp_path / "r"
    out_sweep = tmp_path / "s"
    main(["run", str(base_config), "--out", str(out_run)])
    assert (
        main(
            ["sweep", str(base_config), "--alpha", "3", "--beta", "1", "--gamma", "1.5",
             "--out", str(out_sweep)]
        )
        == 0
    )
    cell = out_sweep / "demo" / "alpha_3__beta_1__gamma_1.5"
    assert (
        cell.joinpath("trajectory.csv").read_bytes()
        == out_run.joinpath("demo", "trajectory.csv").read_bytes()
    )
    summary = (out_sweep / "demo" / "sweep_summary.csv").read_text().strip().split("\n")
    assert len(summary) == 2  # header + single cell


def test_sweep_grid_size_and_flagged_growth_failure(base_config, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["sweep", str(base_config), "--alpha", "3", "--beta", "1",
         "--gamma", "1.5", "2.0", "--out", str(out)]
    )
    assert code == 0
    summary = (out / "demo" / "sweep_summary.csv").read_text().strip().split("\n")
    assert len(summary) == 3  # header + 2 cells, no silent skips
    cell = out / "demo" / "alpha_3__beta_1__gamma_2"
    report = json.loads((cell / "report.json").read_text())
    assert report["diagnostics"]["hypotheses"]["t2eps_growth"]["status"] == "fails"


def _sweep_one_cell(tmp_path, horizon, spacing="logarithmic"):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text(
        BASE + f"dynamics.horizon = {horizon}\ndynamics.sample_count = 400\n"
        f"dynamics.sample_spacing = {spacing}\n"
    )
    out = tmp_path / "out"
    code = main(["sweep", str(cfg), "--alpha", "3", "--beta", "1", "--gamma", "1.5", "--out", str(out)])
    assert code == 0
    rows = (out / "demo" / "sweep_summary.csv").read_text().strip().split("\n")
    return dict(zip(rows[0].split(","), rows[1].split(",")))


def test_sweep_crossing_search_memory_is_bounded(tmp_path):
    # at horizon 1.01 the crossing t^2*eps = 2 lies near t = 4, past 55,000
    # extension points; one array of the extension up to 1e45 held 4.2e6 points
    tracemalloc.start()
    try:
        row = _sweep_one_cell(tmp_path, 1.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert float(row["t_cross"]) == pytest.approx(4.0, rel=1e-4)
    assert row["within_horizon"] == "0"
    assert peak < 10e6


@pytest.mark.parametrize("spacing", ["logarithmic", "linear"])
def test_sweep_crossing_past_the_horizon_is_the_first_extended_grid_point(tmp_path, spacing):
    row = _sweep_one_cell(tmp_path, 2, spacing)
    cell = tmp_path / "out" / "demo" / "alpha_3__beta_1__gamma_1.5"
    exp = resolve(load_config(cell / "manifest.json"))
    dyn = exp.dynamics
    ts = cli.sample_times(dyn)
    k = np.arange(1, 10_001)
    if spacing == "logarithmic":
        ext = dyn.horizon * ((dyn.horizon / dyn.t0) ** (1.0 / (dyn.sample_count - 1))) ** k
    else:
        ext = dyn.horizon + (ts[-1] - ts[-2]) * k
    grid = np.concatenate([ts, ext])
    first = grid[np.nonzero(grid * grid * exp.schedule.eps(grid) >= 2.0 * (1.0 - 1e-15))[0][0]]
    assert first > dyn.horizon
    assert float(row["t_cross"]) == first


def _extension_ratio(dyn) -> float:
    return max((dyn.horizon / dyn.t0) ** (1.0 / (dyn.sample_count - 1)), 1.0 + 1e-6)


def _extension_size(dyn) -> int:
    if dyn.sample_spacing == "linear":
        return 200_000
    return int(np.log(1e45 / dyn.horizon) / np.log(_extension_ratio(dyn))) + 1


def _scanned_crossing(dyn, s, bound):
    # the oracle: the sample grid and the whole extension in one array, scanned
    ts = cli.sample_times(dyn)
    k = np.arange(1, _extension_size(dyn) + 1)
    if dyn.sample_spacing == "logarithmic":
        ext = dyn.horizon * _extension_ratio(dyn) ** k
    else:
        ext = dyn.horizon + (ts[-1] - ts[-2]) * k
    grid = np.concatenate([ts, ext])
    hit = np.nonzero(grid * grid * s.eps(grid) >= bound * (1.0 - 1e-15))[0]
    return float(grid[hit[0]]) if hit.size else None


def test_crossing_search_equals_a_full_scan_of_the_extension():
    # threshold 2 at alpha 3, beta 1: crossings on the sample grid, past the
    # horizon (up to 1.3e30 at gamma 1.99) and, on linear grids, none at all
    kinds = {"none": 0, "within": 0, "past": 0}
    for spacing, gamma, horizon, n in itertools.product(
        ("logarithmic", "linear"), (1.1, 1.5, 1.9, 1.99), (1.01, 2.0, 1e2, 1e4), (2, 60, 400, 8000)
    ):
        dyn = DynamicsConfig(alpha=3.0, beta=1.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=horizon,
                             sample_count=n, sample_spacing=spacing)
        if _extension_size(dyn) > 2e6:
            continue
        s = power_schedule(gamma)
        want = _scanned_crossing(dyn, s, 2.0)
        got = cli._crossing_time(cli.ExperimentConfig(None, s, dyn, {}), 2.0)
        assert got == want, (spacing, gamma, horizon, n)
        kinds["none" if want is None else "within" if want <= horizon else "past"] += 1
    assert kinds == {"none": 23, "within": 40, "past": 57}


def test_crossing_search_on_a_fine_grid_is_fast():
    # horizon 1.0001 with 400 samples: the ratio is clamped at 1 + 1e-6, and
    # the crossing near 3.08e39 lies about 9e7 extension points in
    dyn = DynamicsConfig(alpha=200.0, beta=1.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=1.0001)
    bound = t2eps_threshold(200.0, 1.0, 1.0)
    start = time.perf_counter()
    t_cross = cli._crossing_time(cli.ExperimentConfig(None, power_schedule(1.9), dyn, {}), bound)
    assert time.perf_counter() - start < 0.1
    assert t_cross == pytest.approx(3.08e39, rel=1e-3)


def test_sweep_cell_whose_t2eps_does_not_increase_is_decided_on_the_sample_grid(
    tmp_path, monkeypatch
):
    # gamma = 2.5: t^2*eps = t^-0.5 never reaches the threshold 2, so the
    # 1.04e8-point extension past this horizon up to 1e45 is not searched
    calls = []
    on_grid = cli.crossing_time_on_grid
    monkeypatch.setattr(cli, "crossing_time_on_grid", lambda *a: calls.append(a) or on_grid(*a))
    cfg = tmp_path / "cell.cfg"
    cfg.write_text(BASE + "dynamics.horizon = 1.0001\ndynamics.sample_count = 400\n")
    out = tmp_path / "out"
    code = main(["sweep", str(cfg), "--alpha", "3", "--beta", "1", "--gamma", "2.5", "--out", str(out)])
    assert code == 0
    rows = (out / "demo" / "sweep_summary.csv").read_text().strip().split("\n")
    row = dict(zip(rows[0].split(","), rows[1].split(",")))
    assert len(calls) == 1
    assert row["t_cross"] == "nan" and row["within_horizon"] == "0"


EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example.cfg"


@pytest.mark.parametrize("keys, verb, written", [
    ("dynamics.alpha = 4\nschedule.gamma = 1.999\ndynamics.horizon = 100\n", "run",
     ("trajectory.csv", "report.json", "manifest.json")),
    ("dynamics.alpha = 200\nschedule.gamma = 1.99\n", "check-schedule", ("report.json",)),
], ids=["run", "check-schedule"])
def test_verdict_whose_threshold_overflows_is_written_as_infinity(tmp_path, keys, verb, written):
    # (32/9)^(1/0.001) and (8888.9)^(1/0.01) exceed the float range: t^2*eps
    # holds its bound from t1 = inf
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(EXAMPLE.read_text() + keys)
    out = tmp_path / "out"
    assert main([verb, str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "example").iterdir()) == sorted(written)
    report = json.loads((out / "example" / "report.json").read_text())
    hypotheses = report["diagnostics"]["hypotheses"] if verb == "run" else report["hypotheses"]
    assert hypotheses["t2eps_growth"]["status"] == "holds"
    assert hypotheses["t2eps_growth"]["t1"] == math.inf
    assert '"t1": Infinity' in (out / "example" / "report.json").read_text()


def test_sweep_cell_whose_threshold_overflows_never_crosses(tmp_path):
    out = tmp_path / "out"
    argv = ["sweep", str(EXAMPLE), "--alpha", "200", "--beta", "1", "--gamma", "1.9", "1.99"]
    assert main(argv + ["--out", str(out)]) == 0
    for gamma in ("1.9", "1.99"):
        cell = out / "example" / f"alpha_200__beta_1__gamma_{gamma}"
        assert sorted(p.name for p in cell.iterdir()) == ["manifest.json", "report.json", "trajectory.csv"]
    rows = (out / "example" / "sweep_summary.csv").read_text().strip().split("\n")
    row = dict(zip(rows[0].split(","), rows[2].split(",")))
    assert (row["gamma"], row["t_cross"], row["within_horizon"]) == ("1.99", "nan", "0")


@pytest.mark.parametrize(
    "verb, args, label, key, first",
    [
        ("compare", ["--gammas", "1.5", "1.5000001"], "gamma_1.5", "schedule.gamma", 1.5),
        (
            "sweep",
            ["--alpha", "3", "3.0000001", "--beta", "1", "--gamma", "1.5"],
            "alpha_3__beta_1__gamma_1.5",
            "dynamics.alpha",
            3.0,
        ),
    ],
)
def test_repeated_cell_label_exits_2_after_the_earlier_cells(
    base_config, tmp_path, capsys, verb, args, label, key, first
):
    # labels keep 6 significant digits, so both values name one directory
    out = tmp_path / "out"
    assert main([verb, str(base_config), *args, "--out", str(out)]) == 2
    assert repr(label) in capsys.readouterr().err
    top = out / "demo"
    cells = sorted(p.name for p in top.iterdir())
    assert cells == (["gamma_1.5", "zero"] if verb == "compare" else [label])
    assert json.loads((top / label / "manifest.json").read_text())[key] == first
    assert (top / label / "report.json").exists()


def test_check_schedule_no_integration(base_config, tmp_path):
    out = tmp_path / "out"
    assert main(["check-schedule", str(base_config), "--out", str(out)]) == 0
    run_dir = out / "demo"
    assert (run_dir / "report.json").exists()
    assert not (run_dir / "trajectory.csv").exists()
    payload = json.loads((run_dir / "report.json").read_text())
    assert payload["hypotheses"]["cond_a"]["status"] == "holds"


def test_seedless_flag_bare_only(base_config, tmp_path):
    assert main(["run", str(base_config), "--seedless", "--out", str(tmp_path / "o")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["run", str(base_config), "--seedless=1", "--out", str(tmp_path / "o2")])
    assert exc.value.code == 2


def test_integration_failure_exits_3_and_flushes_partial(base_config, tmp_path, monkeypatch):
    import tikhoflow.cli as cli_mod
    from tikhoflow import builtin, power_schedule, DynamicsConfig, integrate

    obj = builtin("paper1d")
    s = power_schedule(1.5)
    cfg = DynamicsConfig(alpha=3, beta=1, t0=1.0, u0=[2.0], v0=[0.0], horizon=50.0, sample_count=30)
    partial = integrate(obj, s, cfg)

    def fake_integrate(*args, **kwargs):
        err = IntegrationError("forced failure", t=50.0, state=np.zeros(2),
                               rows=np.zeros((30, 2)), stats={})
        err.partial = partial
        raise err

    monkeypatch.setattr(cli_mod, "integrate", fake_integrate)
    out = tmp_path / "out"
    assert main(["run", str(base_config), "--out", str(out)]) == 3
    flushed = out / "demo" / "trajectory.csv"
    assert flushed.exists()
    assert len(flushed.read_text().strip().split("\n")) == 31  # header + 30 partial rows
    assert (out / "demo" / "manifest.json").exists()
    assert not (out / "demo" / "report.json").exists()


@pytest.mark.parametrize("problem", [
    "problem.name = shifted_quadratic\nproblem.c = 1 -2 0.5\n",
    "problem.name = shifted_quadratic\nproblem.c = 1\n",
    "",  # paper1d, whose float gradient overflows to inf
], ids=["1 -2 0.5", "1", "paper1d"])
def test_non_finite_initial_derivative_exits_3_without_warnings(tmp_path, capsys, problem):
    # u0 = 1e200 squares to inf in the integrands of the first derivative and
    # in the finished partial run; only the diagnosis may reach the user
    for argv in (["run"], ["sweep", "--gamma", "1.5", "2.5"]):
        assert _diagnosis_only(tmp_path, capsys, problem + "dynamics.u0 = 1e200\n", argv) == (
            3, "integration failed: non-finite derivative at the initial state\n")


def _diagnosis_only(tmp_path, capsys, text, argv):
    # the exit code and stderr of one call, which must raise no warning
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BASE + text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([argv[0], str(cfg), *argv[1:], "--out", str(tmp_path / "out")])
    assert [str(w.message) for w in caught] == []
    return code, capsys.readouterr().err


OVERFLOWING_NORM = ("integration failed: initial step size underflow: the scaled norm of the "
                    "initial derivative overflows at t=1\n")


@pytest.mark.parametrize("problem", ["", "problem.name = shifted_quadratic\nproblem.c = 1\n"],
                         ids=["paper1d", "shifted"])
@pytest.mark.parametrize("argv", [["run"], ["sweep", "--gamma", "1.5", "2.5"]], ids=["run", "sweep"])
def test_initial_derivative_whose_norm_overflows_exits_3(tmp_path, capsys, problem, argv):
    # the first step-size guess divides by that norm and comes out 0
    assert _diagnosis_only(tmp_path, capsys, problem + "dynamics.u0 = 1e100\n", argv) == (
        3, OVERFLOWING_NORM)


OVERFLOWING_CHANGE = ("integration failed: initial step size underflow: the change of the "
                      "derivative over the first trial step overflows at t=1\n")


def test_compare_with_cells_whose_initial_norm_overflows_exits_3(tmp_path, capsys):
    # the gamma cells fail at their first step-size guess; the zero cell,
    # whose initial integrands vanish, fails first, at its second guess:
    # |x'|^2/t overflows at the trial step
    assert _diagnosis_only(tmp_path, capsys, "dynamics.u0 = 1e100\n",
                           ["compare", "--gammas", "1.5", "2.5"]) == (3, OVERFLOWING_CHANGE)


# a sweep's cells are power schedules; at scale 1e-300 their initial
# integrands stay finite, as the zero schedule's vanish
@pytest.mark.parametrize("text, argv", [
    ("schedule.kind = zero\n", ["run"]),
    ("schedule.scale = 1e-300\n", ["sweep", "--gamma", "1.5", "2.5"]),
], ids=["run", "sweep"])
def test_initial_derivative_whose_change_overflows_exits_3(tmp_path, capsys, text, argv):
    # the second step-size guess divides by that change and comes out 0
    assert _diagnosis_only(tmp_path, capsys, text + "dynamics.u0 = 1e100\n", argv) == (
        3, OVERFLOWING_CHANGE)


def test_compare_failing_on_a_non_finite_derivative_prints_only_the_diagnosis(tmp_path, capsys):
    # the zero cell's partial run holds 0 * inf in its energy
    text = "problem.name = shifted_quadratic\nproblem.c = 1 -2 0.5\ndynamics.u0 = 1e200\n"
    assert _diagnosis_only(tmp_path, capsys, text, ["compare", "--gammas", "1.5", "2.5"]) == (
        3, "integration failed: non-finite derivative at the initial state\n")


def test_all_diagnostics_blocks_present(tmp_path):
    cfg = tmp_path / "full.cfg"
    cfg.write_text(
        BASE.replace("dynamics.alpha = 3", "dynamics.alpha = 4")
        + "diagnostics.reports = W,Eb,Ebp,rates,ergodic,tikhonov_curve,hypotheses\n"
        + "dynamics.horizon = 200\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    diag = json.loads((out / "demo" / "report.json").read_text())["diagnostics"]
    assert diag["W"]["monotonicity"]["passed"] is True
    assert diag["Eb"]["b"] == 2.5  # midpoint of (2, alpha-1) at alpha=4
    assert diag["Ebp"]["b"] == pytest.approx(8.0 / 3.0)
    assert len(diag["Eb"]["values"]) == 120
    assert diag["rates"]["sup_t2_gap"] >= 0.0
    assert len(diag["ergodic"]["values"]) == 119  # first sample has zero denominator
    points = diag["tikhonov_curve"]["points"]
    assert [p["eps"] for p in points] == [1.0, 0.1, 0.01, 0.001]
    assert all(p["residual"] <= 1e-10 for p in points)
    assert diag["tikhonov_curve"]["xstar_norm"] == 0.0


def test_tikhonov_point_that_fails_is_recorded_with_its_residual(tmp_path, monkeypatch):
    from tikhoflow import diagnostics

    solve = diagnostics.tikhonov_point

    def fails_below_one(obj, e):
        if e < 1.0:
            raise diagnostics.SolverError("conjugate gradients stagnated", residual=0.25)
        return solve(obj, e)

    monkeypatch.setattr(diagnostics, "tikhonov_point", fails_below_one)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BASE + "diagnostics.reports = tikhonov_curve\ndiagnostics.eps_grid = 1 0.1\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    points = json.loads((out / "demo" / "report.json").read_text())["diagnostics"]["tikhonov_curve"]["points"]
    assert points[0]["x"] == [0.0]
    assert points[1] == {"eps": 0.1, "error": "conjugate gradients stagnated", "residual": 0.25}


def test_ergodic_refusal_recorded_for_zero_schedule(tmp_path):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(BASE.replace("schedule.kind = power", "schedule.kind = zero"))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    diag = json.loads((out / "demo" / "report.json").read_text())["diagnostics"]
    assert "refused" in diag["ergodic"]


def test_matrix_problem_config(tmp_path):
    cfg = tmp_path / "ls.cfg"
    cfg.write_text(
        """
label = ls
problem.name = least_squares
problem.A = 1 1
problem.b = 2
schedule.kind = power
schedule.gamma = 1.5
dynamics.alpha = 4
dynamics.beta = 0
dynamics.u0 = 2 0
dynamics.v0 = 0
dynamics.horizon = 120
dynamics.sample_count = 80
"""
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    header = (out / "ls" / "trajectory.csv").read_text().split("\n")[0]
    assert header.startswith("t,x_0,x_1,v_0,v_1,")
    report = json.loads((out / "ls" / "report.json").read_text())
    assert report["problem"]["min_norm_solution"] == pytest.approx([1.0, 1.0], abs=1e-12)


def test_tabulated_grid_must_cover_horizon(tmp_path):
    cfg = tmp_path / "tab.cfg"
    cfg.write_text(
        """
label = tab
schedule.kind = tabulated
schedule.times = 1 10 50
schedule.values = 1 0.5 0.25
dynamics.horizon = 100
"""
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_tabulated_grid_must_cover_t0(tmp_path, capsys):
    cfg = tmp_path / "tab.cfg"
    cfg.write_text(
        "schedule.kind = tabulated\nschedule.times = 2 10 1e5\nschedule.values = 1 0.5 0.1\n"
    )
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: schedule.times:")
    assert not out.exists()


def test_horizon_at_t0_records_the_w_refusal(tmp_path):
    cfg = tmp_path / "eq.cfg"
    cfg.write_text(BASE.replace("dynamics.horizon = 150", "dynamics.horizon = 1"))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "demo").iterdir()) == [
        "manifest.json", "report.json", "trajectory.csv"
    ]
    report = json.loads((out / "demo" / "report.json").read_text())
    assert "error" in report["diagnostics"]["W"]
    assert report["summary"]["samples"] == 1


@pytest.mark.parametrize("spacing", ["logarithmic", "linear"])
def test_sample_grid_with_repeated_times_exits_2(tmp_path, capsys, spacing):
    # the double after t0 leaves room for two distinct sample times, not 400:
    # such a grid used to run, stepping zero-length steps between equal samples
    cfg = tmp_path / "rep.cfg"
    cfg.write_text(
        BASE.replace("dynamics.horizon = 150", "dynamics.horizon = 1.0000000000000002")
        .replace("dynamics.sample_count = 120", "dynamics.sample_count = 400")
        + f"dynamics.sample_spacing = {spacing}\n"
    )
    for verb in (["run"], ["sweep", "--alpha", "3", "10"]):
        out = tmp_path / verb[0]
        assert main([verb[0], str(cfg), *verb[1:], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: dynamics:"), err
        assert "dynamics.sample_count" in err and "dynamics.horizon" in err
        assert not list(out.rglob("*.csv"))
    # a horizon at t0 is one sample, whatever the count
    resolved = resolve({**load_config(cfg), "dynamics.horizon": 1.0})
    assert cli.sample_times(resolved.dynamics).tolist() == [1.0]


def test_resolve_checks_a_large_sample_grid_without_building_it(tmp_path):
    # 2,000,000 samples are 16 MB as one grid; their spacing is far above the
    # rounding of geomspace, so the grid check needs none of it
    cfg = tmp_path / "big.cfg"
    cfg.write_text(BASE.replace("dynamics.sample_count = 120", "dynamics.sample_count = 2000000"))
    data = load_config(cfg)
    tracemalloc.start()
    try:
        resolve(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert main(["check-schedule", str(cfg), "--out", str(tmp_path / "out")]) == 0


PROBLEM_KEYS = {
    "paper1d": "",
    "shifted_quadratic": "problem.c = 1 -2\n",
    "psd_quadratic": "problem.A = 2 1; 1 2\nproblem.b = 1 1\n",
    "least_squares": "problem.A = 1 1 0; 0 1 1\nproblem.b = 2 1\n",
}
SCHEDULE_KEYS = {
    "power": "schedule.gamma = 2\nschedule.scale = 0.7\n",
    "logarithmic": "schedule.offset = 3\n",
    "zero": "",
    "tabulated": "schedule.times = 0.5 2 10\nschedule.values = 1 0.4 0.1\n",
}
# every other key away from its default, so a key dropped from the manifest
# would change the replay
NON_DEFAULT = """label = trip
dynamics.alpha = 4
dynamics.beta = 0.5
dynamics.t0 = 0.5
dynamics.u0 = 1.5
dynamics.v0 = -0.5
dynamics.horizon = 6
dynamics.rel_tol = 1e-8
dynamics.abs_tol = 1e-10
dynamics.sample_count = 9
dynamics.sample_spacing = linear
diagnostics.reports = W,Eb,Ebp,tikhonov_curve
diagnostics.b = 2.2
diagnostics.p = 0.2
diagnostics.a = 3
diagnostics.c = 2
diagnostics.eps_grid = 0.5 0.05
"""


@pytest.mark.parametrize("kind", sorted(SCHEDULE_KEYS))
@pytest.mark.parametrize("problem", sorted(PROBLEM_KEYS))
def test_manifest_round_trip_every_problem_and_schedule(tmp_path, problem, kind):
    cfg = tmp_path / "trip.cfg"
    cfg.write_text(
        NON_DEFAULT + f"problem.name = {problem}\n" + PROBLEM_KEYS[problem]
        + f"schedule.kind = {kind}\n" + SCHEDULE_KEYS[kind]
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    run_dir = out / "trip"
    first = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(first["manifest.json"])
    resolved = resolve(load_config(cfg), out_override=str(out)).resolved
    assert resolve(load_config(manifest)).resolved == resolved == json.loads(first["manifest.json"])
    shutil.rmtree(run_dir)
    assert main(["run", str(manifest)]) == 0
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == first


@dataclasses.dataclass
class _Inner:
    values: np.ndarray
    label: str


@dataclasses.dataclass
class _Outer:
    inner: _Inner
    count: np.int64
    where: Path


def test_report_writer_matches_json_dump(tmp_path):
    nonfinite = [float("nan"), float("inf"), -float("inf")]
    payload = {
        "scalars": nonfinite + [0.1, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, 3, True, False, None],
        "float_array": np.array(nonfinite + [0.1, -0.0, 1e-300, 2.0 / 3.0, 1e22]),
        "single": np.array([3.0]),
        "long_array": np.geomspace(1e-3, 1e3, 2 * cli._ARRAY_CHUNK + 3),
        "chunk_array": np.arange(float(cli._ARRAY_CHUNK)) / 3.0,
        "long_list": [i / 7.0 for i in range(cli._ARRAY_CHUNK + 5)],
        "flat_tuple": (1.5, "a", None),
        "empty_array": np.array([]),
        "zero_d": np.array(2.5),
        "two_d": np.arange(6.0).reshape(2, 3),
        "int_array": np.arange(4),
        "float32_array": np.array([0.1, 0.2], dtype=np.float32),
        "np_scalars": [np.float64(0.1), np.int64(-7), np.float64("nan")],
        "dataclass": _Outer(_Inner(np.array([1.5, 2.5]), "x"), np.int64(3), Path("out") / "run"),
        "tuple": (1, "two", (3.0, [])),
        "text": "Tikhonov \u03b5(t) \u2192 0, x\u2605",
        "escaped": 'quote " backslash \\ tab \t newline \n \x00',
        "empty_dict": {},
        "empty_list": [],
        "nested": {"b": {"c": {}, "a": [[], {}]}, "a": [{"x": np.array([1.0, 2.0]), "eps": 0.01}]},
    }
    path = tmp_path / "report.json"
    cli._write_json(path, payload)
    expected = json.dumps(payload, indent=2, sort_keys=True, default=cli._json_default) + "\n"
    assert path.read_text() == expected
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._write_json(path, {"ok": [1.0], "bad": {"obj": object()}})


def test_benchmark_trace_installs():
    # bench/spans.py wraps config, dynamics, diagnostics and cli entry points
    # by name; a renamed one must fail here, not only in the benchmark's suite
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_trace_hooks_are_called(tmp_path, monkeypatch):
    # bench/spans.py replaces these module attributes to time each layer; a
    # caller that binds one of them locally would bypass its span, and the
    # benchmark would read 0 for that layer
    from tikhoflow import diagnostics, dynamics

    hooks = [
        (cli, "resolve"),
        (cli, "integrate"),
        (cli, "run_experiment"),
        (cli, "write_trajectory_csv"),
        (cli, "check_strong_convergence_hypotheses"),
        (dynamics, "solve"),
    ] + [
        (diagnostics, name)
        for name in (
            "energy_W_series", "energy_Eb_series", "energy_Ebp", "rate_report",
            "ergodic_deviation", "monotonicity_check", "tikhonov_point",
        )
    ]
    calls = {}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in hooks:
        key = f"{module.__name__}.{name}"
        calls[key] = 0
        monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        BASE
        + "dynamics.sample_count = 60\n"
        + "diagnostics.reports = W,Eb,Ebp,rates,ergodic,tikhonov_curve,hypotheses\n"
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert [key for key, n in calls.items() if n == 0] == []
