"""Run one workload once in a fresh process and report it as one JSON line.

Usage: python3 perfbench/child.py WORKLOAD SEED TRACE OUT_DIR SPAWN_TIME

``SPAWN_TIME`` is the parent's ``time.time()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports and the
workload's set-up up to the first timed call.  With ``TRACE`` 1 the calls
into ``fluxrec`` are wrapped in spans (see ``tracer.py``); the spans are
written to ``OUT_DIR/spans.json`` and the per-layer metrics are reported.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv) -> None:
    workload_name, seed, trace, out_dir, spawn_time = argv
    seed, trace, spawn_time = int(seed), trace == "1", float(spawn_time)

    import numpy
    import scipy

    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, [workloads])
        tracer.begin(tracing.SETUP_ROOT)
    state = workload.setup(seed, out_dir)
    if trace:
        tracer.end()
        tracer.counts.clear()
        tracer.begin(tracing.TIMED_ROOT)

    setup_s = time.time() - spawn_time
    start = time.perf_counter()
    result = workload.timed(state)
    wall_s = time.perf_counter() - start
    if trace:
        tracer.end()

    observed = workload.observe(state, result)
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "observed": observed,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if trace:
        layers = tracer.layer_metrics()
        layers["driver.iterations"] = (
            len(observed["n_triangles"]) if "stop_reason" in observed else 0)
        layers["mesh.discarded_triangles"] = (
            tracer.last_adaptive_fine
            if observed.get("stop_reason") == "max_triangles" else 0)
        report["layers"] = layers
        tracer.write(os.path.join(out_dir, "spans.json"))
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
