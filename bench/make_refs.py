"""Generate the pinned references in refs/ (run once; the results are checked in).

    PYTHONPATH=src python3 bench/make_refs.py

Each workload's configs are integrated through the library at rel_tol 1e-12,
abs_tol 1e-15 and their sample times and positions are stored in
refs/<workload>.npz (x has shape cells x samples x dimension; `sweep` cells in
CLI order). stiff_lsq is stored for the unpermuted draw; workloads.reference
applies each seed's column permutation. refs/crosscheck.json records, for
every reference with beta > 0, its agreement with `integrate_direct` at the
same tolerances (which integrates the unlifted system through Hessian-vector
products), and for seed 1 the agreement of the permuted reference with a
reference integrated directly on the permuted problem.
"""
from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tikhoflow as tf
from tikhoflow.config import load_config, resolve

from workloads import (
    REF_ABS_TOL, REF_REL_TOL, REFS, SWEEP_ALPHAS, SWEEP_BETAS, SWEEP_GAMMAS, WORKLOADS,
    lsq_base, lsq_config, lsq_facts, lsq_problem, reference, rel_err_max,
)

TIGHT = {"dynamics.rel_tol": REF_REL_TOL, "dynamics.abs_tol": REF_ABS_TOL}


def _resolve(text: str, **overrides):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ref.cfg"
        path.write_text(text)
        data = load_config(path)
    data.update(TIGHT)
    data.update(overrides)
    return resolve(data)


def _cases(name: str):
    if name == "stiff_lsq":
        yield _resolve(lsq_config(*lsq_base()))
    elif name == "sweep":
        text = WORKLOADS[name].config_text(0)
        for a in SWEEP_ALPHAS:
            for b in SWEEP_BETAS:
                for g in SWEEP_GAMMAS:
                    yield _resolve(text, **{"schedule.gamma": g, "dynamics.alpha": a,
                                            "dynamics.beta": b})
    else:
        yield _resolve(WORKLOADS[name].config_text(0))


def _integrate(exp, direct=False):
    fn = tf.integrate_direct if direct else tf.integrate
    return fn(exp.objective, exp.schedule, exp.dynamics)


def main() -> int:
    REFS.mkdir(exist_ok=True)
    record = {"rel_tol": REF_REL_TOL, "abs_tol": REF_ABS_TOL, "numpy": np.__version__,
              "python": sys.version.split()[0], "workloads": {}}
    for name in WORKLOADS:
        started = time.perf_counter()
        ts, xs, stats, direct = None, [], [], []
        for exp in _cases(name):
            traj = _integrate(exp)
            ts = traj.t
            xs.append(traj.x)
            stats.append(traj.meta["stats"])
            if exp.dynamics.beta > 0.0:
                direct.append(rel_err_max(_integrate(exp, direct=True).x, traj.x))
        np.savez_compressed(REFS / f"{name}.npz", t=ts, x=np.stack(xs))
        entry = {
            "cells": len(xs),
            "steps": sum(s["steps"] for s in stats),
            "rejected": sum(s["rejected"] for s in stats),
            "rhs_evals": sum(s["rhs_evals"] for s in stats),
            "direct_agreement_max": max(direct) if direct else None,
            "direct_cells": len(direct),
            "seconds": time.perf_counter() - started,
        }
        if name == "stiff_lsq":
            seed = 1
            _, x_perm = reference(name, seed)
            traj = _integrate(_resolve(lsq_config(*lsq_problem(seed))))
            entry["permuted_seed"] = lsq_facts(seed)
            entry["permuted_agreement"] = rel_err_max(traj.x, x_perm[0])
        record["workloads"][name] = entry
        print(name, json.dumps(entry), flush=True)
    (REFS / "crosscheck.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
