"""Runs benchmark operations inside one Python process.

Reads one JSON job on stdin and writes one JSON result on stdout:

  {"ops": [op, ...], "trace": false|true}
      each op once: coverdist.cli.main runs in this process with stdin and
      stdout swapped for buffers. With trace, spans are recorded around the
      calls into each module, and the distortion run of each op is repeated
      with checks off to price the soundness checks.

Every output is checked against its pin (check.py) outside the timed region.
"""

import importlib
import io
import json
import os
import platform
import sys
import time
import traceback

import check
import gen
import spans
from coverdist import bounds, cli, distortion, kernels, ring, serialize, system


def environment():
    try:
        importlib.import_module("numba")
        numba = True
    except ImportError:
        numba = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "sympy": importlib.import_module("sympy").__version__,
        "backend": kernels.backend_name(),
        "numba_imports": numba,
    }


def run_cli(op):
    """(exit code, stdout) of coverdist.cli.main on the op's argv and stdin."""
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(op.get("stdin", "")), io.StringIO()
    try:
        code = cli.main(op["argv"])
    except SystemExit as e:  # argparse rejects
        code = e.code
    finally:
        out = sys.stdout.getvalue()
        sys.stdin, sys.stdout = saved
    return code, out


def result(op, wall, code, out, pins):
    if code != 0:
        error = f"{op['id']}: exit code {code}"
    else:
        error = check.mismatch(pins, op, gen.input_sha256(op), out)
    return {"id": op["id"], "wall": wall, "output_sha256": check.sha256(out), "error": error}


def failed(op, exc):
    tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
    return {"id": op["id"], "wall": None, "output_sha256": None, "error": f"{op['id']}: {tb}"}


def instrument(rec, counters, captured):
    def add(name, value):
        counters[name] = counters.get(name, 0) + value

    def on_validate(args, kwargs, instance):
        add("system.residues", ring.ideal_norm(instance.q))
        captured["instance"] = instance

    def on_run(args, kwargs, res):
        captured["run"] = (args, res)

    def on_norms(args, kwargs, norms):
        add("ring.prime_norms", len(norms))

    def eta2_name(args, kwargs):
        # bounds keeps a module-level cache of the s-free eta2 base per
        # (field, y); a hit skips the expensive part
        cache = getattr(bounds, "_ETA2_BASE_CACHE", None)
        hit = cache is not None and (args[0], int(args[2])) in cache
        return "bounds.eta2_major_warm" if hit else "bounds.eta2_major_cold"

    rec.wrap(serialize, "parse_instance")
    rec.wrap(serialize, "dumps_stable")
    rec.wrap(system, "validate", on_return=on_validate)
    rec.wrap(ring, "factor_ideal")
    rec.wrap(system, "build_problem")
    rec.wrap(kernels, "level_labels")
    rec.wrap(kernels, "mark_class")
    rec.wrap(system, "covers")
    rec.wrap(distortion, "certify")
    rec.wrap(distortion, "run", on_return=on_run)
    rec.wrap(bounds, "effective_bound")
    rec.wrap(bounds, "verify_certificate")
    rec.wrap(bounds, "rankin_W")
    rec.wrap(bounds, "eta2_major", rename=eta2_name)
    rec.wrap(bounds, "certify_moduli")
    rec.wrap(ring, "prime_norms_up_to", on_return=on_norms)
    rec.wrap(kernels, "sieve")
    rec.wrap(kernels, "kron_values")


def run_counters(res):
    """Size of the measure: labels over all levels, distinct values on the
    last level, and the largest numerator or denominator in bits."""
    values = [st.values for st in res.states]
    bits = max(
        max(v.numerator.bit_length(), v.denominator.bit_length()) for vs in values for v in vs
    )
    return {
        "distortion.labels": sum(len(vs) for vs in values),
        "distortion.distinct_values": len(set(values[-1])),
        "distortion.max_value_bits": bits,
    }


def traced(op, rec, pins):
    """One op under spans, then its distortion run again with checks off,
    and certify_moduli on its moduli if the op did not call it."""
    counters, captured = {}, {}
    rec.op = op["id"]
    instrument(rec, counters, captured)
    root = rec.begin("op")
    try:
        code, out = run_cli(op)
    finally:
        rec.end(root)
        rec.unwrap_all()
    res = result(op, spans.duration(root), code, out, pins)
    if "run" in captured:
        args, run_result = captured["run"]
        span = rec.begin("distortion.run_nochecks")
        nochecks = distortion.run(*args[:2], checks=False)  # unwrapped again
        rec.end(span)
        counters.update(run_counters(run_result))
        if nochecks.eta != run_result.eta and res["error"] is None:
            res["error"] = f"{op['id']}: eta differs with checks off"
    if "instance" in captured and not any(
        s["name"] == "bounds.certify_moduli" and s["op"] == op["id"] for s in rec.spans
    ):
        # `coverdist certify` never calls certify_moduli: time it on the
        # op's moduli so that the layer is measured on certify-deep too
        inst = captured["instance"]
        span = rec.begin("bounds.certify_moduli")
        bounds.certify_moduli(inst.field, [c.modulus for c in inst.classes], inst.s)
        rec.end(span)
    res["counters"] = counters
    return res


def main():
    job = json.load(sys.stdin)
    pins = check.load_pins()
    rec = spans.Recorder()
    results = []
    for op in job["ops"]:
        try:
            if job["trace"]:
                results.append(traced(op, rec, pins))
            else:
                t = time.perf_counter()
                code, text = run_cli(op)
                results.append(result(op, time.perf_counter() - t, code, text, pins))
        except Exception as e:  # one failed op must not end the run
            rec.unwrap_all()
            results.append(failed(op, e))
    out = {"results": results, "spans": rec.spans}
    out["env"] = environment()
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
