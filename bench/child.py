"""One repetition of a workload in a fresh interpreter; prints one JSON line.

The spec (a JSON object, the only argument) names the source tree, the
config and the CLI arguments. Set-up is timed from before the first tikhoflow
import to after `load_config` and `resolve`, which is what every CLI call
pays. The timed region is `tikhoflow.cli.main(argv)` in-process, after
import. A fixed calibration loop runs right before and right after the timed
region, in the same process, so that the parent can scale the time to a
reference CPU speed. With "trace" set, spans are installed after set-up and
before the timed region.
"""
from __future__ import annotations

import json
import resource
import sys
import time


def calibrate(iterations: int = 15000) -> float:
    """Seconds for a fixed loop of small numpy operations in Python.

    It is the same mix of interpreter and tiny-array work as the program's
    stepping and does not depend on the program, so it measures how fast
    this CPU runs at the moment.
    """
    import numpy as np

    z, K, a = np.ones(6), np.zeros((7, 6)), np.array([0.3, 0.2, 0.1])
    start = time.perf_counter()
    for _ in range(iterations):
        K[1] = z + 0.01 * (a @ K[:3])
        z = 0.999 * z + 1e-3 * K[1]
        float(np.sqrt(np.mean(z * z)))
    return time.perf_counter() - start


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    from tikhoflow import cli

    cli.resolve(cli.load_config(spec["config"]))
    result = {"setup_s": time.perf_counter() - start, "module": cli.__file__}
    if spec["argv"]:
        tracer = None
        if spec["trace"]:
            from spans import Tracer, install

            tracer = Tracer()
            install(tracer)
        calibrate(1000)  # warm-up
        before = calibrate()
        start = time.perf_counter()
        rc = cli.main(spec["argv"])
        wall_s = time.perf_counter() - start
        result.update(
            rc=rc,
            wall_s=wall_s,
            calibration_s=0.5 * (before + calibrate()),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            from spans import layer_metrics

            result["layers"] = layer_metrics(tracer, wall_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
