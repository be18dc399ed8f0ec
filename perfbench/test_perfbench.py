"""Test of the benchmark: every workload for one round, traced and untraced.

    python3 -m pytest perfbench/test_perfbench.py      # about two minutes

The runs use the gated inputs; --seconds 1 stops each after its first
round. Each run checks every output against pins.json; the traced runs also
check that each in-process operation's child spans fit inside their parent.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

SEED = 3


def bench(workload, trace):
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert p.returncode == 0, p.stdout[-3000:] + p.stderr[-3000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


def declared(kind):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_untraced_run_is_pinned_and_complete(workload):
    res = bench(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_run_spans_nest(workload):
    res = bench(workload, 1)
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == declared("per_layer")
    with open(ROOT / ".perfbench" / f"trace_{workload}_{SEED}.jsonl", encoding="utf-8") as fh:
        recorded = [json.loads(line) for line in fh]
    assert recorded and spans.nesting_errors(recorded) == []
    children = {}
    for s in recorded:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + spans.duration(s)
    for s in recorded:
        assert children.get(s["id"], 0.0) <= spans.duration(s)


def test_same_seed_same_inputs():
    for workload in gen.WORKLOADS:
        a, b, c = (gen.rounds(workload, seed) for seed in (5, 5, 6))
        first = [next(a) for _ in range(3)]
        assert first == [next(b) for _ in range(3)]
        if workload != "bound-sweep":
            assert first != [next(c) for _ in range(3)]


def test_changed_output_is_a_mismatch():
    op = gen.all_ops("bound-sweep")["bound-sweep/rational/s3"]
    out = json.dumps({"y": 1, "x": 4, "w": "1", "eta1": "1/2", "eta2": "1/4"})
    pins = {op["id"]: {"input_sha256": gen.input_sha256(op), **check.expected(op, out)}}
    assert check.mismatch(pins, op, gen.input_sha256(op), out) is None
    assert "output_sha256" in check.mismatch(pins, op, gen.input_sha256(op), out + " ")
    assert "input differs" in check.mismatch(pins, op, "0" * 64, out)
    assert "unreadable" in check.mismatch(pins, op, gen.input_sha256(op), "{}")
    assert "no pin" in check.mismatch({}, op, gen.input_sha256(op), out)


def test_self_times_subtract_children():
    rec = [
        {"id": 0, "name": "op", "parent": None, "op": "a", "start": 0.0, "end": 10.0},
        {"id": 1, "name": "x", "parent": 0, "op": "a", "start": 1.0, "end": 4.0},
        {"id": 2, "name": "y", "parent": 1, "op": "a", "start": 2.0, "end": 3.0},
        {"id": 3, "name": "x", "parent": 0, "op": "a", "start": 5.0, "end": 6.0},
    ]
    assert spans.self_times(rec) == {"op": 6.0, "x": 3.0, "y": 1.0}
    assert spans.nesting_errors(rec) == []
    rec[2]["end"] = 5.0
    assert spans.nesting_errors(rec)
