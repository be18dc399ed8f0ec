"""Command line interface.

Subcommands:
  check           brute-force coverage verdict for a class list
  certify         distortion run: measures, moments, non-coverage certificate
  moments         per-level moment table without a verdict
  certify-moduli  residue-free majorant certificate for a moduli list
  bound           effective minimum-norm certificate for (field, s)
  primes          prime ideals up to a norm bound
  ideal-tool      one-off ideal arithmetic

Exit codes: 0 success, 2 invalid input or flags, 3 budget refusal or an
unprintable result, 4 soundness failure; errors go to stderr as one JSON object.
"""

import argparse
import json
import sys

from . import bounds, distortion, ring, serialize, system
from .errors import CoverdistError, InputError, SoundnessError


def _load_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise CoverdistError(f"cannot read {path}: {e}") from None
    except (ValueError, RecursionError) as e:  # bad JSON, or an int over the digit limit
        raise CoverdistError(f"bad JSON in {path}: {e}") from None


def _inline_ideal(field, text, flag):
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise CoverdistError(f"bad JSON in {flag}: {e}") from None
    return serialize.parse_ideal(field, obj)


def _write(args, doc, lines):
    if args.format == "json":
        payload = serialize.dumps_stable(doc)
    else:
        payload = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _load_instance(args):
    field, raw = serialize.parse_instance(_load_json(args.input))
    return system.validate(field, raw)


def _level_rows(instance, reports):
    rows = []
    for (prime, nu), rep in zip(instance.primes, reports):
        rows.append(
            {
                "j": rep.j,
                "prime": serialize.prime_json(prime),
                "nu": nu,
                "delta": serialize.frac_str(rep.delta),
                "m1": serialize.frac_str(rep.m1),
                "m2": serialize.frac_str(rep.m2),
                "contribution": serialize.frac_str(rep.contribution),
                "target_mass": serialize.frac_str(rep.target_mass),
            }
        )
    return rows


def cmd_check(args):
    instance = _load_instance(args)
    verdict, witness = system.covers(instance, args.max_enum)
    doc = {
        "command": "check",
        "field": serialize.field_json(instance.field),
        "classes": len(instance.classes),
        "s": instance.s,
        "q": serialize.ideal_json(instance.q),
        "norm_q": ring.ideal_norm(instance.q),
        "verdict": verdict,
    }
    lines = [
        f"field: {instance.field.label()}",
        f"classes: {len(instance.classes)}  s: {instance.s}  norm(Q): {ring.ideal_norm(instance.q)}",
        f"verdict: {verdict}",
    ]
    if witness is not None:
        doc["witness"] = serialize.element_json(instance.field, witness)
        lines.append(f"witness: {witness}")
    _write(args, doc, lines)
    return 0


def cmd_certify(args):
    instance = _load_instance(args)
    deltas = system.resolve_delta_policy(instance, serialize.parse_delta_policy(args.delta))
    problem = system.build_problem(instance, args.max_enum)
    cert = distortion.certify(problem, deltas)
    verdict, _ = system.covers(instance, args.max_enum)
    if cert.verdict == "certified-noncover" and verdict == "covers":
        raise SoundnessError("certificate contradicts brute-force coverage")
    doc = {
        "command": "certify",
        "field": serialize.field_json(instance.field),
        "classes": len(instance.classes),
        "s": instance.s,
        "q": serialize.ideal_json(instance.q),
        "norm_q": ring.ideal_norm(instance.q),
        "deltas": [serialize.frac_str(d) for d in deltas],
        "levels": _level_rows(instance, cert.reports),
        "eta": serialize.frac_str(cert.eta),
        "verdict": cert.verdict,
    }
    lines = [
        f"field: {instance.field.label()}",
        f"classes: {len(instance.classes)}  s: {instance.s}  norm(Q): {ring.ideal_norm(instance.q)}",
        f"deltas: {', '.join(serialize.frac_str(d) for d in deltas)}",
        f"eta: {serialize.frac_str(cert.eta)}",
        f"verdict: {cert.verdict}",
    ]
    if cert.verdict == "certified-noncover":
        witness = ring.residue_at(cert.witness_index, instance.q)
        doc["uncovered_mass"] = serialize.frac_str(cert.uncovered_mass)
        doc["witness"] = serialize.element_json(instance.field, witness)
        lines.append(f"uncovered mass: {serialize.frac_str(cert.uncovered_mass)}")
        lines.append(f"witness: {witness}")
    _write(args, doc, lines)
    return 0


def cmd_moments(args):
    instance = _load_instance(args)
    deltas = system.resolve_delta_policy(instance, serialize.parse_delta_policy(args.delta))
    problem = system.build_problem(instance, args.max_enum)
    result = distortion.run(problem, deltas)
    doc = {
        "command": "moments",
        "field": serialize.field_json(instance.field),
        "q": serialize.ideal_json(instance.q),
        "deltas": [serialize.frac_str(d) for d in deltas],
        "levels": _level_rows(instance, result.reports),
        "final_target_masses": [serialize.frac_str(m) for m in result.final_target_masses],
        "eta": serialize.frac_str(result.eta),
    }
    lines = [f"eta: {serialize.frac_str(result.eta)}"]
    for row in doc["levels"]:
        lines.append(
            f"j={row['j']} norm={row['prime']['norm']} delta={row['delta']} "
            f"M1={row['m1']} M2={row['m2']} contribution={row['contribution']}"
        )
    _write(args, doc, lines)
    return 0


def cmd_certify_moduli(args):
    field, moduli, s_doc = serialize.parse_moduli(_load_json(args.input))
    s = args.s if args.s is not None else s_doc
    cert = bounds.certify_moduli(
        field, moduli, s, serialize.parse_delta_policy(args.delta)
    )
    rows = []
    for row in cert.rows:
        rows.append(
            {
                "j": row.j,
                "prime": serialize.prime_json(row.prime),
                "nu": row.nu,
                "delta": serialize.frac_str(row.delta),
                "mechanism": row.mechanism,
                "contribution": serialize.frac_str(row.contribution),
            }
        )
    doc = {
        "command": "certify-moduli",
        "field": serialize.field_json(field),
        "moduli": len(moduli),
        "s": cert.s,
        "q": serialize.ideal_json(cert.q),
        "deltas": [serialize.frac_str(d) for d in cert.deltas],
        "levels": rows,
        "eta_majorant": serialize.frac_str(cert.eta),
        "verdict": cert.verdict,
    }
    lines = [
        f"field: {field.label()}  moduli: {len(moduli)}  s: {cert.s}",
        f"eta majorant: {serialize.frac_str(cert.eta)}",
        f"verdict: {cert.verdict}",
    ]
    _write(args, doc, lines)
    return 0


def cmd_bound(args):
    field = serialize.parse_field(args.field)
    cert = bounds.effective_bound(field, args.s)
    doc = {
        "command": "bound",
        "field": serialize.field_json(field),
        "s": cert.s,
        "y": cert.y,
        "x": cert.x,
        "w": serialize.frac_str(cert.w),
        "eta1": serialize.frac_str(cert.eta1),
        "eta2": serialize.frac_str(cert.eta2),
        "statement": (
            "every covering system over this field with multiplicity <= s "
            "and distinguishable moduli uses a modulus of norm <= x"
        ),
    }
    digits = len(str(cert.x))
    lines = [
        f"field: {field.label()}  s: {cert.s}",
        f"y: {cert.y}",
        f"x: {cert.x if digits <= 40 else f'~10^{digits - 1}'} ({digits} digits)",
        "statement: some modulus must have norm <= x",
    ]
    _write(args, doc, lines)
    return 0


def cmd_primes(args):
    field = serialize.parse_field(args.field)
    primes = ring.primes_up_to_norm(field, args.max_norm)
    doc = {
        "command": "primes",
        "field": serialize.field_json(field),
        "max_norm": args.max_norm,
        "primes": [serialize.prime_json(p) for p in primes],
    }
    lines = [
        f"{p.norm}  ({p.ideal.u}, {p.ideal.v}, {p.ideal.w})  {p.splitting}"
        for p in primes
    ]
    _write(args, doc, lines or [""])
    return 0


def cmd_ideal_tool(args):
    field = serialize.parse_field(args.field)
    ideal = _inline_ideal(field, args.ideal, "--ideal")
    doc = {"command": "ideal-tool", "op": args.op, "ideal": serialize.ideal_json(ideal)}
    if args.op in ("mul", "intersect", "divides"):
        if args.ideal2 is None:
            raise CoverdistError(f"op {args.op} needs --ideal2")
        other = _inline_ideal(field, args.ideal2, "--ideal2")
        doc["ideal2"] = serialize.ideal_json(other)
        if args.op == "mul":
            doc["result"] = serialize.ideal_json(ring.ideal_mul(ideal, other))
        elif args.op == "intersect":
            doc["result"] = serialize.ideal_json(ring.ideal_intersect(ideal, other))
        else:
            doc["result"] = ring.ideal_divides(ideal, other)
    elif args.op == "norm":
        doc["result"] = ring.ideal_norm(ideal)
    elif args.op == "factor":
        doc["result"] = [
            {"prime": serialize.prime_json(p), "exponent": e}
            for p, e in ring.factor_ideal(ideal)
        ]
    elif args.op == "distinguishable":
        doc["result"] = ring.is_distinguishable(ideal)
    elif args.op == "pmin":
        prime = ring.p_min(ideal)
        doc["result"] = serialize.prime_json(prime)
    else:
        raise CoverdistError(f"unknown op {args.op!r}")
    _write(args, doc, [json.dumps(doc["result"])])
    return 0


def _add_common(p, with_input=True):
    if with_input:
        p.add_argument("--input", required=True, help="input JSON path, or - for stdin")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", default=None, help="write result here instead of stdout")


class _Parser(argparse.ArgumentParser):
    """Rejects bad arguments with InputError (exit 2, JSON on stderr)."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="coverdist",
        description="covering systems over Z and quadratic integer rings: "
        "coverage checks, distortion measures, and certified bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="brute-force coverage verdict")
    _add_common(p)
    p.add_argument("--max-enum", type=int, default=system.DEFAULT_MAX_ENUM)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("certify", help="distortion certificate for a class list")
    _add_common(p)
    p.add_argument("--delta", default=None, help="threshold:Y or explicit:q1,q2,...")
    p.add_argument("--max-enum", type=int, default=system.DEFAULT_MAX_ENUM)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("moments", help="per-level moment table")
    _add_common(p)
    p.add_argument("--delta", default=None, help="threshold:Y or explicit:q1,q2,...")
    p.add_argument("--max-enum", type=int, default=system.DEFAULT_MAX_ENUM)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("certify-moduli", help="residue-free majorant certificate")
    _add_common(p)
    p.add_argument("--delta", default=None, help="threshold:Y or explicit:q1,q2,...")
    p.add_argument("--s", type=int, default=None, help="multiplicity budget")
    p.set_defaults(func=cmd_certify_moduli)

    p = sub.add_parser("bound", help="effective minimum-norm certificate")
    _add_common(p, with_input=False)
    p.add_argument("--field", required=True, help="rational or quadratic:d")
    p.add_argument("--s", type=int, default=1, help="multiplicity (default 1)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("primes", help="prime ideals up to a norm bound")
    _add_common(p, with_input=False)
    p.add_argument("--field", required=True, help="rational or quadratic:d")
    p.add_argument("--max-norm", type=int, required=True)
    p.set_defaults(func=cmd_primes)

    p = sub.add_parser("ideal-tool", help="one-off ideal arithmetic")
    _add_common(p, with_input=False)
    p.add_argument("--field", required=True, help="rational or quadratic:d")
    p.add_argument(
        "--op",
        required=True,
        choices=("norm", "factor", "distinguishable", "pmin", "mul", "intersect", "divides"),
    )
    p.add_argument("--ideal", required=True, help="ideal as inline JSON")
    p.add_argument("--ideal2", default=None, help="second ideal as inline JSON")
    p.set_defaults(func=cmd_ideal_tool)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CoverdistError as e:
        sys.stderr.write(
            serialize.dumps_stable({"error": type(e).__name__, "message": str(e)})
        )
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
