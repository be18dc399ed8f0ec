"""coverdist benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload certify-deep --seed 1 --seconds 40 --trace 0

Run from the repository root; the program is imported from ./src. One
process (this one) runs one operation at a time (closed loop, one client).

Workloads:
  certify-deep  `coverdist certify` (default delta policy) on many-class,
                deep instances; each op is a fresh CLI process
  bound-sweep   `coverdist bound` over Q, Q(i) and Q(sqrt -3) at s = 3, 4;
                each op is a fresh CLI process

A run measures whole rounds (every round has the same make-up; see
gen.rounds) and stops at the first round boundary after --seconds. Every
output is checked against pins.json; a mismatch is a failed operation and
makes the run exit 1.

--trace 0 prints the end-to-end metrics; --trace 1 repeats one round
in-process with spans around the calls into each module and prints the
per-layer metrics (self time per operation), the tracing overhead and the
CLI overhead. Spans are written to .perfbench/. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import check
import gen
import spans

HERE = Path(__file__).resolve().parent
DEADLINE_S = 150  # stop starting operations after this, to end within 180 s
SETUP_REPEATS = 5
IMPORT_REPEATS = 3


class Child(NamedTuple):
    code: int
    out: str
    err: str
    wall: float  # seconds from start to exit
    rss_mb: float  # the child's own peak RSS


def run_child(cmd, stdin=None, timeout=DEADLINE_S):
    """Run cmd to completion; wall time and peak RSS are the child's own."""
    start = time.perf_counter()
    p = subprocess.Popen(
        cmd,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH="src"),
    )
    bufs = {}
    readers = [
        threading.Thread(target=lambda k=k, f=f: bufs.__setitem__(k, f.read()))
        for k, f in (("out", p.stdout), ("err", p.stderr))
    ]
    for t in readers:
        t.start()
    killer = threading.Timer(timeout, p.kill)
    killer.start()
    try:
        if stdin is not None:
            try:
                p.stdin.write(stdin.encode())
                p.stdin.close()
            except BrokenPipeError:
                pass
        # wait4 rather than wait: it also returns the child's resource usage
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    p.stdout.close()
    p.stderr.close()
    return Child(
        p.returncode, bufs["out"].decode(), bufs["err"].decode(), wall, usage.ru_maxrss / 1024
    )


def run_worker(job, timeout=DEADLINE_S):
    child = run_child([sys.executable, str(HERE / "worker.py")], json.dumps(job), timeout)
    if child.code != 0:
        raise RuntimeError(f"worker exited {child.code}: {child.err.strip()[-400:]}")
    return json.loads(child.out), child


def cli_check(op, child, pins):
    """None if a CLI op ran cleanly and printed its pinned output."""
    if child.code != 0 or "Traceback" in child.err:
        return f"{op['id']}: exit code {child.code}: {child.err.strip()[-200:]}"
    return check.mismatch(pins, op, gen.input_sha256(op), child.out)


def cold_start():
    """(environment, median wall time of a fresh interpreter importing
    coverdist.cli). The environment probe runs first, which also settles
    the bytecode cache before the timed imports."""
    env = run_worker({"ops": [], "trace": False})[0]["env"]
    cmd = [sys.executable, "-c", "import coverdist.cli"]
    return env, statistics.median(run_child(cmd).wall for _ in range(SETUP_REPEATS))


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------- untraced


def measure(workload, seed, seconds, pins):
    """End-to-end run; returns (metrics, attempted, errors, notes)."""
    env, setup_s = cold_start()
    ops = gen.all_ops(workload)
    walls, errors, rss, attempted = [], [], 0.0, 0
    start = time.perf_counter()
    for ids in gen.rounds(workload, seed):
        for i in ids:
            child = run_child([sys.executable, "-m", "coverdist.cli", *ops[i]["argv"]],
                              ops[i].get("stdin"))
            attempted += 1
            err = cli_check(ops[i], child, pins)
            if err:
                errors.append(err)
            else:
                walls.append(child.wall)
            rss = max(rss, child.rss_mb)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= DEADLINE_S:
            break
    ok = len(walls)
    walls = walls or [0.0]  # every op failed: the run reports correct = false
    metrics = {
        "ops_per_s": (ok / elapsed, "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_p90_s": (percentile(walls, 90), "s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = {
        "env": env,
        "samples_beyond_p90": sum(w > metrics["op_p90_s"][0] for w in walls),
        "measured_s": elapsed,
    }
    return metrics, attempted, errors, notes


# ------------------------------------------------------------------ traced


def import_times():
    """(sympy, coverdist) cumulative import seconds from -X importtime."""
    sym, cov = [], []
    for _ in range(IMPORT_REPEATS):
        child = run_child([sys.executable, "-X", "importtime", "-c", "import coverdist.cli"])
        cum = {}
        for line in child.err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$", line)
            if m:
                cum.setdefault(m.group(2), int(m.group(1)) / 1e6)
        sym.append(cum.get("sympy", 0.0))
        cov.append(cum.get("coverdist", 0.0))
    return statistics.median(sym), statistics.median(cov)


LAYER_TIMES = [
    "serialize.parse_instance",
    "serialize.dumps_stable",
    "system.validate",
    "ring.factor_ideal",
    "system.build_problem",
    "kernels.level_labels",
    "kernels.mark_class",
    "system.covers",
    "distortion.certify",
    "distortion.run",
    "distortion.run_nochecks",
    "bounds.effective_bound",
    "bounds.verify_certificate",
    "bounds.rankin_W",
    "bounds.eta2_major_cold",
    "bounds.eta2_major_warm",
    "bounds.certify_moduli",
    "ring.prime_norms_up_to",
    "kernels.sieve",
    "kernels.kron_values",
    "op",
]
LAYER_COUNTS = [
    "system.residues",
    "distortion.labels",
    "distortion.distinct_values",
    "ring.prime_norms",
]


def trace(workload, seed, pins):
    """Traced run of one round; returns (metrics, attempted, errors, notes)."""
    ops = gen.all_ops(workload)
    round_ops = [ops[i] for i in next(gen.rounds(workload, seed))]
    sympy_s, coverdist_s = import_times()
    errors = []
    attempted = 0

    # CLI wall time of the same ops, for the CLI overhead
    cli_walls, cli_shas = {}, {}
    for op in round_ops:
        child = run_child([sys.executable, "-m", "coverdist.cli", *op["argv"]], op.get("stdin"))
        attempted += 1
        err = cli_check(op, child, pins)
        if err:
            errors.append(err)
        cli_walls[op["id"]] = child.wall
        cli_shas[op["id"]] = check.sha256(child.out)

    # In-process, untraced then traced. Each bound-sweep op gets fresh
    # interpreters: bounds caches the eta2 base per (field, y) at module
    # level, so a second effective_bound in one process would skip the work
    # that every `coverdist bound` command pays.
    if workload == "bound-sweep":
        batches = [[op] for op in round_ops]
    else:
        batches = [round_ops]
    plain, traced, all_spans = [], [], []
    for batch in batches:
        plain += run_worker({"ops": batch, "trace": False})[0]["results"]
        out = run_worker({"ops": batch, "trace": True})[0]
        traced += out["results"]
        base = len(all_spans)  # span ids are per worker: renumber
        for s in out["spans"]:
            s["id"] += base
            s["parent"] = None if s["parent"] is None else s["parent"] + base
        all_spans += out["spans"]
        env = out["env"]
    for r in plain + traced:
        attempted += 1
        if r["error"]:
            errors.append(r["error"])
        elif r["output_sha256"] != cli_shas[r["id"]]:
            errors.append(f"{r['id']}: in-process output differs from the CLI output")
    nesting = spans.nesting_errors(all_spans)
    attempted += 1
    if nesting:
        errors.append(f"{len(nesting)} spans misnested, first: {nesting[0]}")

    n = len(round_ops)
    selfs = spans.self_times(all_spans)
    metrics = {f"{name}_s": (selfs.get(name, 0.0) / n, "s/op") for name in LAYER_TIMES}
    metrics["op.other_s"] = metrics.pop("op_s")
    metrics["distortion.checks_s"] = (
        metrics["distortion.run_s"][0] - metrics["distortion.run_nochecks_s"][0],
        "s/op",
    )
    metrics["bounds.rankin_W_calls"] = (
        sum(s["name"] == "bounds.rankin_W" for s in all_spans) / n,
        "count/op",
    )
    counters = [r.get("counters", {}) for r in traced]
    for name in LAYER_COUNTS:
        metrics[name] = (sum(c.get(name, 0) for c in counters) / n, "count/op")
    metrics["distortion.max_value_bits"] = (
        max([c.get("distortion.max_value_bits", 0) for c in counters] or [0]),
        "bits",
    )
    wall = {r["id"]: r["wall"] for r in plain if r["wall"] is not None}
    twall = {r["id"]: r["wall"] for r in traced if r["wall"] is not None}
    main = [i for i in cli_walls if i in wall and i in twall]
    metrics["trace.overhead_s"] = (
        sum(twall[i] - wall[i] for i in main) / max(len(main), 1),
        "s/op",
    )
    metrics["cli.overhead_s"] = (
        sum(cli_walls[i] - wall[i] for i in main) / max(len(main), 1),
        "s/op",
    )
    metrics["import.sympy_s"] = (sympy_s, "s")
    metrics["import.coverdist_s"] = (coverdist_s, "s")
    return metrics, attempted, errors, {"env": env, "spans": all_spans}


# -------------------------------------------------------------------- main


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (Path("src") / "coverdist" / "cli.py").is_file():
        sys.stderr.write("run from the repository root: src/coverdist is missing\n")
        return 2
    pins = check.load_pins()
    if args.trace:
        metrics, attempted, errors, notes = trace(args.workload, args.seed, pins)
        path = Path(".perfbench") / f"trace_{args.workload}_{args.seed}.jsonl"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in notes.pop("spans"):
                fh.write(json.dumps(s) + "\n")
        notes["spans_file"] = str(path)
    else:
        metrics, attempted, errors, notes = measure(args.workload, args.seed, args.seconds, pins)
    print("env " + json.dumps(notes.pop("env"), sort_keys=True))
    print("run " + json.dumps(notes, sort_keys=True))
    for err in errors:
        print("FAILED " + err)
    print(f"workload {args.workload}  seed {args.seed}  attempted {attempted}  failed {len(errors)}")
    # error_rate is printed, not put in the result: it is 0 on a good run,
    # and the result carries attempted and failed
    rows = dict(metrics, error_rate=(len(errors) / attempted, "ratio"))
    for name, (value, unit) in rows.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": len(errors),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
