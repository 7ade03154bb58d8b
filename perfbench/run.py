"""fluxrec benchmark: end-to-end metrics, correctness gate and traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --repeat 10    # steadiness check

One run starts the workload in fresh single-process children, one after
another, each doing set-up once and the timed call once, until ``--seconds``
are used up (at least three children).  Each child reconstructs from its own
noise realization: ``--seed`` draws an order of the noise seeds that have
committed references, the first of them is run twice, and every child after
that takes the next one.  Medians over these inputs vary little from seed to
seed, although 1 % noise moves a single adaptive run's work by ~10 %.
BLAS and OpenMP pools are pinned to one thread, so the numbers measure the
program and not the scheduler.

End-to-end metrics (``--trace 0``) are medians over the children:

- ``wall_s``: the timed call, a reconstruction at the workload's stopping rule;
- ``setup_s``: child start to the first timed call (imports, measurement
  generation, and the fixed mesh for the sweep);
- ``cum_dofs_per_s``: vertices summed over every solve, over the timed call;
- ``peak_rss_mb``: peak resident memory of the child.

Each child's results are checked against ``reference.json``: triangle counts
and stop reason exactly, ``eta``, ``objective`` and ``err_*`` to a relative
``REF_TOL``; the largest relative deviation is printed as ``ref_rel_err``.
Children given the same input must report the same ``history.csv`` bytes.
A child that exits non-zero or fails a check counts in ``failed`` and
``failed_ratio``.  These two are printed but left out of the JSON metrics
because they are 0 on a correct program.

With ``--trace 1`` every input runs twice, untraced and then traced.  The
JSON metrics are the per-layer self times (medians over the traced children),
the per-layer counts of the first input (exact, so they repeat run to run)
and ``trace.overhead_s``, the median over inputs of traced minus untraced
``wall_s``.  ``--repeat R`` makes R runs with seeds N .. N+R-1 and
prints each metric's median, quartiles and spread against the bounds in
``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Child outputs,
spans and a result file with the environment go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("adapt_jump_cli", "adapt_spike_errors", "sweep_beta_fixed")

MIN_CHILDREN = 3
# reference.json holds noise seeds 0 .. REFERENCE_SEEDS-1, so every child
# is checked; a run uses at most this many distinct inputs
REFERENCE_SEEDS = 30
REF_TOL = 1e-6
EXACT_KEYS = ("n_triangles", "stop_reason")
RELATIVE_KEYS = ("eta", "objective", "err_q", "err_u", "err_p")
# a run starts no child after this many seconds, to end within 180 s
LAST_START_S = 100.0
CHILD_TIMEOUT_S = 170.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# printed with the end-to-end metrics but not in BENCHMARK.json, being 0
GATE_UNITS = {"ref_rel_err": "ratio", "failed_ratio": "ratio"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "threads": {var: "1" for var in THREAD_VARS}}


def run_child(workload: str, seed: int, trace: bool, out_dir: str,
              timeout: float) -> dict:
    """Run one child; return its report, or raise RuntimeError."""
    os.makedirs(out_dir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload,
           str(seed), "1" if trace else "0", out_dir, repr(time.time())]
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"child timed out after {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"child exited with {proc.returncode}: {tail[0]}")
    return json.loads(stdout.strip().splitlines()[-1])


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def reference_error(observed: dict, reference: dict) -> float:
    """Largest relative deviation from the reference; raise on a mismatch."""
    for key in EXACT_KEYS:
        if key in reference and observed.get(key) != reference[key]:
            raise RuntimeError(f"{key} {observed.get(key)} differs from the "
                               f"reference {reference[key]}")
    worst = 0.0
    for key in RELATIVE_KEYS:
        if key not in reference:
            continue
        got, want = observed.get(key, []), reference[key]
        if len(got) != len(want):
            raise RuntimeError(f"{key} has {len(got)} values, "
                               f"reference has {len(want)}")
        for g, w in zip(got, want):
            worst = max(worst, abs(g - w) / abs(w))
    if not worst <= REF_TOL:
        raise RuntimeError(f"relative deviation {worst:.3e} from the "
                           f"reference exceeds {REF_TOL:.0e}")
    return worst


def noise_seeds(seed: int, trace: bool) -> list:
    """Noise seed of each child of a run, drawn from ``seed``.

    The first input runs twice, so that its outputs can be compared; traced
    runs give every input an untraced and a traced child.
    """
    order = random.Random(seed).sample(range(REFERENCE_SEEDS), REFERENCE_SEEDS)
    if trace:
        return [n for n in order for _ in range(2)]
    return order[:1] + order


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 reference: dict) -> dict:
    """One benchmark run: children until ``seconds`` are used, then checks."""
    run_dir = os.path.join(OUT, workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    start = time.perf_counter()
    children, errors, longest = [], [], 0.0
    for index, noise_seed in enumerate(noise_seeds(seed, trace)):
        elapsed = time.perf_counter() - start
        traced = trace and index % 2 == 1
        # a traced child always follows its untraced twin
        if index >= MIN_CHILDREN and not traced and (
                errors or elapsed + longest > seconds or elapsed > LAST_START_S):
            break
        try:
            report = run_child(workload, noise_seed, traced,
                               os.path.join(run_dir, f"child{index}"),
                               CHILD_TIMEOUT_S - elapsed)
            report.update(index=index, noise_seed=noise_seed, traced=traced)
            report["ref_rel_err"] = reference_error(
                report["observed"], reference[workload][str(noise_seed)])
            children.append(report)
        except (RuntimeError, ValueError, KeyError) as exc:
            errors.append(f"child {index} (noise seed {noise_seed}): {exc}")
        longest = max(longest, time.perf_counter() - start - elapsed)

    # the same code must write the same history.csv bytes for the same input
    first = {}
    for child in children:
        first.setdefault(child["noise_seed"], child)
    mismatched = [c for c in children if c["observed"].get("history_sha256")
                  != first[c["noise_seed"]]["observed"].get("history_sha256")]
    errors.extend(f"child {c['index']}: history.csv differs from child "
                  f"{first[c['noise_seed']]['index']}'s" for c in mismatched)
    children = [c for c in children if c not in mismatched]
    # a child's VTK file is large; keep its spans and small files only
    for name in os.listdir(run_dir):
        vtk = os.path.join(run_dir, name, "final.vtk")
        if os.path.exists(vtk):
            os.remove(vtk)
    env = environment()
    if children:
        env["versions"] = children[0]["versions"]
    return {"workload": workload, "seed": seed, "trace": trace,
            "attempted": len(children) + len(errors), "failed": len(errors),
            "errors": errors, "children": children, "env": env}


def median_of(children, key):
    return statistics.median(c[key] for c in children)


def end_to_end(run: dict) -> dict:
    plain = [c for c in run["children"] if not c["traced"]]
    if not plain:
        return {}
    return {
        "wall_s": median_of(plain, "wall_s"),
        "setup_s": median_of(plain, "setup_s"),
        "cum_dofs_per_s": statistics.median(
            c["observed"]["dofs"] / c["wall_s"] for c in plain),
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        "ref_rel_err": max((c.get("ref_rel_err", 0.0) for c in plain),
                           default=0.0),
        "failed_ratio": run["failed"] / run["attempted"],
    }


def per_layer(run: dict) -> dict:
    traced = [c for c in run["children"] if c["traced"]]
    plain = {c["noise_seed"]: c for c in run["children"] if not c["traced"]}
    pairs = [(plain[c["noise_seed"]], c) for c in traced
             if c["noise_seed"] in plain]
    if not pairs:
        return {}
    # times are medians over the traced inputs; counts are exact, from the
    # run's first input, which every traced run starts with
    layers = {n: statistics.median(c["layers"][n] for c in traced)
              if n.endswith("_s") else v for n, v in traced[0]["layers"].items()}
    layers["trace.overhead_s"] = statistics.median(
        t["wall_s"] - u["wall_s"] for u, t in pairs)
    return layers


def load_spec() -> dict:
    """Metric names, units and bounds, as declared in ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def metrics_of(run: dict, spec: dict) -> dict:
    """The JSON metrics of a run: its kind's metrics from ``spec``, in order."""
    kind = "per_layer" if run["trace"] else "end_to_end"
    values = per_layer(run) if run["trace"] else end_to_end(run)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[kind] if m["name"] in values}


def print_run(run: dict, spec: dict) -> None:
    print(f"{run['workload']} seed={run['seed']}: {run['attempted']} "
          f"children, {run['failed']} failed")
    for error in run["errors"]:
        print(f"  FAILED {error}")
    metrics = metrics_of(run, spec)
    if not run["trace"]:
        values = end_to_end(run)
        metrics.update({name: {"value": values[name], "unit": unit}
                        for name, unit in GATE_UNITS.items() if name in values})
    for name, metric in metrics.items():
        print(f"  {name:<30} {metric['value']:>16.6g} {metric['unit']}")
    print("  children (noise seed: wall_s, T when traced): " + " ".join(
        f"{c['noise_seed']}:{c['wall_s']:.3f}{'T' if c['traced'] else ''}"
        for c in run["children"]))


def write_result(run: dict) -> None:
    path = os.path.join(OUT, run["workload"], "result.json")
    with open(path, "w") as fh:
        json.dump(run, fh, indent=1)


def steadiness(runs_by_workload: dict, spec: dict) -> None:
    """Median, quartiles and spread of each metric over repeated runs.

    A spread (interquartile distance over the median) below a third of the
    metric's bound is steady; ``setup_s`` is only held to its median.
    """
    for workload, runs in runs_by_workload.items():
        print(f"{workload}: {len(runs)} runs")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        table = [end_to_end(r) for r in runs]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [t[name] for t in table if name in t]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < bound / 3 else "WIDE"
            if name == "setup_s":
                verdict = ""
            print(f"  {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound:>6.3g} {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit, so a running child is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "fluxrec", "__init__.py")):
        print("error: no fluxrec sources under src/ in this checkout",
              file=sys.stderr)
        return 2
    reference = load_reference()
    spec = load_spec()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    runs_by_workload = {w: [] for w in workloads}
    for i in range(args.repeat):
        for workload in workloads:
            run = run_workload(workload, args.seed + i, args.seconds,
                               bool(args.trace), reference)
            write_result(run)
            print_run(run, spec)
            if not run["children"]:
                print(f"error: every child of {workload} failed",
                      file=sys.stderr)
                return 1
            runs_by_workload[workload].append(run)
    all_runs = [r for runs in runs_by_workload.values() for r in runs]
    print("env: " + json.dumps(all_runs[0]["env"]))
    if args.repeat > 1 and not args.trace:
        steadiness(runs_by_workload, spec)

    if len(all_runs) == 1:
        metrics = metrics_of(all_runs[0], spec)
    else:
        metrics = {f"{r['workload']}/{r['seed']}/{name}": value
                   for r in all_runs
                   for name, value in metrics_of(r, spec).items()}
    attempted = sum(r["attempted"] for r in all_runs)
    failed = sum(r["failed"] for r in all_runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
