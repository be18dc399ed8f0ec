"""Record pins.json: the expected output of every benchmark operation.

    python3 perfbench/pin.py

Run from the repository root, at the commit whose outputs are the
reference. Every operation is pinned from the stdout of a fresh
`python -m coverdist.cli` process. Re-pinning is a behaviour change: a
commit that alters a pinned number must argue for it separately.
"""

import json
import os
import subprocess
import sys

import check
import gen


def main():
    env = dict(os.environ, PYTHONPATH="src")
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    pins = {}
    for workload in gen.WORKLOADS:
        for op_id, op in gen.all_ops(workload).items():
            out = subprocess.run(
                [sys.executable, "-m", "coverdist.cli", *op["argv"]],
                input=op.get("stdin"),
                capture_output=True,
                text=True,
                env=env,
                check=True,
            ).stdout
            pins[op_id] = {"input_sha256": gen.input_sha256(op), **check.expected(op, out)}
            print(op_id, pins[op_id].get("verdict") or pins[op_id].get("y"), flush=True)
    with open(check.PINS, "w", encoding="utf-8") as fh:
        json.dump({"commit": commit, "ops": pins}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
