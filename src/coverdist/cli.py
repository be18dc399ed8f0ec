"""Command line interface.

Subcommands:
  check           brute-force coverage verdict for a class list
  certify         distortion run: measures, moments, non-coverage certificate
  moments         per-level moment table without a verdict
  certify-moduli  residue-free majorant certificate for a moduli list
  bound           effective minimum-norm certificate for (field, s)
  primes          prime ideals up to a norm bound
  ideal-tool      one-off ideal arithmetic

Each handler returns a document and its text lines; main writes the one
that --format asks for, to stdout or --output.

Exit codes: 0 success, 2 invalid input or flags, 3 budget refusal or an
unprintable result, 4 soundness failure; errors go to stderr as one JSON object.
"""

import argparse
import json
import sys

from . import kernels, ring, serialize
from .errors import CoverdistError, InputError


def _load_json(name, text=None):
    """The JSON in text, or if text is None in the file name ("-": stdin)."""
    try:
        if text is None:
            if name == "-":
                text = sys.stdin.read()
            else:
                with open(name, "r", encoding="utf-8") as fh:
                    text = fh.read()
        return json.loads(text)
    except OSError as e:
        raise CoverdistError(f"cannot read {name}: {e}") from None
    except (ValueError, RecursionError) as e:  # bad JSON, or an int over the digit limit
        raise CoverdistError(f"bad JSON in {name}: {e}") from None


def _write(args, doc, lines):
    payload = serialize.dumps_stable(doc) if args.format == "json" else "\n".join(lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as e:
            raise CoverdistError(f"cannot write {args.output}: {e}") from None
    else:
        sys.stdout.write(payload)


def _fracs(xs):
    return [serialize.frac_str(x) for x in xs]


def _load_instance(args):
    from . import system

    field, raw = serialize.parse_instance(_load_json(args.input))
    return system.validate(field, raw)


def _distortion_input(args):
    """(instance, deltas, problem) for certify and moments."""
    from . import system

    instance = _load_instance(args)
    deltas = system.resolve_delta_policy(instance, serialize.parse_delta_policy(args.delta))
    return instance, deltas, system.build_problem(instance, args.max_enum)


def _head(command, instance):
    """The document head and first text lines of check and certify."""
    field, classes = instance.field.label(), len(instance.classes)
    norm_q = ring.ideal_norm(instance.q)
    doc = {
        "command": command,
        "field": field,
        "classes": classes,
        "s": instance.s,
        "q": serialize.ideal_json(instance.q),
        "norm_q": norm_q,
    }
    return doc, [f"field: {field}", f"classes: {classes}  s: {instance.s}  norm(Q): {norm_q}"]


def _row(j, prime, nu, delta):
    """The four keys that open a level row."""
    prime = serialize.prime_json(prime)
    return {"j": j, "prime": prime, "nu": nu, "delta": serialize.frac_str(delta)}


def _level_rows(instance, reports):
    keys = ("m1", "m2", "contribution", "target_mass")
    return [
        _row(rep.j, prime, nu, rep.delta) | {k: serialize.frac_str(getattr(rep, k)) for k in keys}
        for (prime, nu), rep in zip(instance.primes, reports)
    ]


def cmd_check(args):
    from . import system

    instance = _load_instance(args)
    verdict, witness = system.covers(instance, args.max_enum)
    doc, lines = _head("check", instance)
    doc["verdict"] = verdict
    lines.append(f"verdict: {verdict}")
    if witness is not None:
        doc["witness"] = serialize.element_json(instance.field, witness)
        lines.append(f"witness: {witness}")
    return doc, lines


def cmd_certify(args):
    from . import distortion, system

    instance, deltas, problem = _distortion_input(args)
    cert = distortion.certify(problem, deltas)
    doc, lines = _head("certify", instance)
    doc["deltas"] = _fracs(deltas)
    doc["levels"] = _level_rows(instance, cert.reports)
    doc["eta"] = serialize.frac_str(cert.eta)
    doc["verdict"] = cert.verdict
    lines += [f"deltas: {', '.join(doc['deltas'])}", f"eta: {doc['eta']}"]
    lines.append(f"verdict: {cert.verdict}")
    if cert.verdict == "certified-noncover":
        witness = ring.residue_at(cert.witness_index, instance.q)
        system.check_witness(instance, witness)
        doc["uncovered_mass"] = serialize.frac_str(cert.uncovered_mass)
        doc["witness"] = serialize.element_json(instance.field, witness)
        lines.append(f"uncovered mass: {doc['uncovered_mass']}")
        lines.append(f"witness: {witness}")
    return doc, lines


def cmd_moments(args):
    from . import distortion

    instance, deltas, problem = _distortion_input(args)
    result = distortion.run(problem, deltas)
    doc = {
        "command": "moments",
        "field": instance.field.label(),
        "q": serialize.ideal_json(instance.q),
        "deltas": _fracs(deltas),
        "levels": _level_rows(instance, result.reports),
        "final_target_masses": _fracs(result.final_target_masses),
        "eta": serialize.frac_str(result.eta),
    }
    lines = [f"eta: {doc['eta']}"] + [
        f"j={row['j']} norm={row['prime']['norm']} delta={row['delta']} "
        f"M1={row['m1']} M2={row['m2']} contribution={row['contribution']}"
        for row in doc["levels"]
    ]
    return doc, lines


def cmd_certify_moduli(args):
    from . import bounds

    field, moduli, s_doc = serialize.parse_moduli(_load_json(args.input))
    s = args.s if args.s is not None else s_doc
    cert = bounds.certify_moduli(field, moduli, s, serialize.parse_delta_policy(args.delta))
    doc = {
        "command": "certify-moduli",
        "field": field.label(),
        "moduli": len(moduli),
        "s": cert.s,
        "q": serialize.ideal_json(cert.q),
        "deltas": _fracs(cert.deltas),
        "levels": [
            _row(row.j, row.prime, row.nu, row.delta)
            | {"mechanism": row.mechanism, "contribution": serialize.frac_str(row.contribution)}
            for row in cert.rows
        ],
        "eta_majorant": serialize.frac_str(cert.eta),
        "verdict": cert.verdict,
    }
    lines = [
        f"field: {field.label()}  moduli: {len(moduli)}  s: {cert.s}",
        f"eta majorant: {doc['eta_majorant']}",
        f"verdict: {cert.verdict}",
    ]
    return doc, lines


def cmd_bound(args):
    from . import bounds

    field = serialize.parse_field(args.field)
    cert = bounds.effective_bound(field, args.s)
    doc = {
        "command": "bound",
        "field": field.label(),
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
    return doc, lines


def cmd_primes(args):
    field = serialize.parse_field(args.field)
    primes = ring.primes_up_to_norm(field, args.max_norm)
    doc = {
        "command": "primes",
        "field": field.label(),
        "max_norm": args.max_norm,
        "primes": [serialize.prime_json(p) for p in primes],
    }
    lines = [f"{p.norm}  ({p.ideal.u}, {p.ideal.v}, {p.ideal.w})  {p.splitting}" for p in primes]
    return doc, lines or [""]


# op -> (operand count, result as JSON), in the order --op lists them; each
# looks its ring function up at call time, so a wrapper installed on ring sees it
_IDEAL_OPS = {
    "norm": (1, lambda a: ring.ideal_norm(a)),
    "factor": (
        1,
        lambda a: [
            {"prime": serialize.prime_json(p), "exponent": e} for p, e in ring.factor_ideal(a)
        ],
    ),
    "distinguishable": (1, lambda a: ring.is_distinguishable(a)),
    "pmin": (1, lambda a: serialize.prime_json(ring.p_min(a))),
    "mul": (2, lambda a, b: serialize.ideal_json(ring.ideal_mul(a, b))),
    "intersect": (2, lambda a, b: serialize.ideal_json(ring.ideal_intersect(a, b))),
    "divides": (2, lambda a, b: ring.ideal_divides(a, b)),
}


def cmd_ideal_tool(args):
    field = serialize.parse_field(args.field)
    ideals = [serialize.parse_ideal(field, _load_json("--ideal", args.ideal))]
    doc = {"command": "ideal-tool", "op": args.op, "ideal": serialize.ideal_json(ideals[0])}
    operands, op = _IDEAL_OPS[args.op]
    if operands == 2:
        if args.ideal2 is None:
            raise CoverdistError(f"op {args.op} needs --ideal2")
        ideals.append(serialize.parse_ideal(field, _load_json("--ideal2", args.ideal2)))
        doc["ideal2"] = serialize.ideal_json(ideals[1])
    doc["result"] = op(*ideals)
    return doc, [serialize.dumps_line(doc["result"])]


# argparse options of more than one command, as (flag, add_argument keywords)
_DELTA = ("--delta", dict(default=None, help="threshold:Y or explicit:q1,q2,..."))
_MAX_ENUM = ("--max-enum", dict(type=int, default=kernels.DEFAULT_MAX_ENUM))
_FIELD = ("--field", dict(required=True, help="rational or quadratic:d"))

# (name, handler, help, reads --input, own options after --format and --output)
_COMMANDS = [
    ("check", cmd_check, "brute-force coverage verdict", True, [_MAX_ENUM]),
    ("certify", cmd_certify, "distortion certificate for a class list", True, [_DELTA, _MAX_ENUM]),
    ("moments", cmd_moments, "per-level moment table", True, [_DELTA, _MAX_ENUM]),
    (
        "certify-moduli", cmd_certify_moduli, "residue-free majorant certificate", True,
        [_DELTA, ("--s", dict(type=int, default=None, help="multiplicity budget"))],
    ),
    (
        "bound", cmd_bound, "effective minimum-norm certificate", False,
        [_FIELD, ("--s", dict(type=int, default=1, help="multiplicity (default 1)"))],
    ),
    (
        "primes", cmd_primes, "prime ideals up to a norm bound", False,
        [_FIELD, ("--max-norm", dict(type=int, required=True))],
    ),
    (
        "ideal-tool", cmd_ideal_tool, "one-off ideal arithmetic", False,
        [
            _FIELD,
            ("--op", dict(required=True, choices=tuple(_IDEAL_OPS))),
            ("--ideal", dict(required=True, help="ideal as inline JSON")),
            ("--ideal2", dict(default=None, help="second ideal as inline JSON")),
        ],
    ),
]


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
    for name, func, help_text, reads_input, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if reads_input:
            p.add_argument("--input", required=True, help="input JSON path, or - for stdin")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--output", default=None, help="write result here instead of stdout")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        _write(args, *args.func(args))
        return 0
    except CoverdistError as e:
        sys.stderr.write(serialize.dumps_stable({"error": type(e).__name__, "message": str(e)}))
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
