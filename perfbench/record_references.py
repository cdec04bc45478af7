"""Record the reference outputs the benchmark checks every operation against.

Run from the root of a checkout, once, at the commit whose outputs are
the reference::

    python3 perfbench/record_references.py [workload ...]

It runs one operation per pool data seed for each workload at both the
benchmark's sizes and the self-tests' tiny sizes and rewrites
``perfbench/references.json`` (entries for workloads not named are
kept).  Outputs that already fail a check, such as an objective history
that rises, are recorded as they are and listed on stderr: the check
flags them again on every run, whatever the reference says.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads as W  # noqa: E402


def record(workload: str, scale: str, out_dir: str) -> tuple[str, dict]:
    key = f"{workload}:{W.fingerprint(*W.make_config(workload, scale))}"
    refs = {}
    for seed in W.POOL:
        _, out = W.run_op(workload, W.prepare(workload, scale, seed), out_dir)
        ref = W.reference_of(workload, out)
        for problem in W.check(workload, out, ref):
            print(f"{key} seed {seed}: {problem}", file=sys.stderr)
        refs[str(seed)] = ref
        print(f"{key} seed {seed}: recorded", flush=True)
    return key, refs


def main(names) -> int:
    table = {}
    if os.path.exists(W.REFERENCES):
        with open(W.REFERENCES, encoding="utf-8") as fh:
            table = json.load(fh)
    os.makedirs(os.path.join(os.path.dirname(HERE), ".perfbench_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(
            dir=os.path.join(os.path.dirname(HERE), ".perfbench_out")) as out_dir:
        for workload in names or W.NAMES:
            for scale in W.SCALES:
                key, refs = record(workload, scale, out_dir)
                table[key] = refs
    with open(W.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
