"""Record ``reference.json``: the checked values of every workload and seed.

Usage, from the root of a checkout:  python3 perfbench/record_reference.py

Runs each workload once per noise seed 0 .. REFERENCE_SEEDS-1, untraced,
and keeps what the correctness gate compares (triangle counts, stop
reason, eta, objective and true errors).  Record it only from a commit
whose results are trusted; a change that is meant to alter results must
say so when it records again.
"""

import json
import os
import shutil
import sys

import run

KEYS = run.EXACT_KEYS + run.RELATIVE_KEYS


def main() -> int:
    reference = {}
    for workload in run.WORKLOADS:
        reference[workload] = {}
        for seed in range(run.REFERENCE_SEEDS):
            out_dir = os.path.join(run.OUT, "reference", workload, str(seed))
            if os.path.exists(out_dir):
                shutil.rmtree(out_dir)
            report = run.run_child(workload, seed, False, out_dir,
                                   run.CHILD_TIMEOUT_S)
            observed = report["observed"]
            reference[workload][str(seed)] = {
                k: observed[k] for k in KEYS if k in observed}
            print(workload, seed, observed["n_triangles"][-1],
                  observed.get("stop_reason"), flush=True)
    # one line per workload and seed keeps later diffs readable
    blocks = []
    for workload, seeds in reference.items():
        rows = ",\n".join(f'  "{seed}": {json.dumps(values)}'
                          for seed, values in seeds.items())
        blocks.append(f' "{workload}": {{\n{rows}\n }}')
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
