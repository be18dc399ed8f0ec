"""JSON input parsing and deterministic output encoding.

Integers may be given as JSON numbers or as decimal strings (for values
beyond native JSON ranges). Rationals are emitted as strings "p/q".
Elements are a bare integer (rational field) or a pair [a, b] meaning
a + b*omega. Ideals are {"hnf": [u, v, w]}, {"gens": [element, ...]},
{"principal": element}, or a bare integer (principal). Output numbers past
Python's int-to-str digit limit raise ResourceError (exit 3), and so do
explicit deltas, which every command prints.
"""

import json
import sys
from fractions import Fraction

from . import ring
from .errors import InputError, ResourceError


def parse_int(x, what="integer"):
    if isinstance(x, bool):
        raise InputError(f"{what}: booleans are not integers")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            return int(x.strip(), 10)
        except ValueError:
            raise InputError(f"{what}: bad integer string {x!r}") from None
    raise InputError(f"{what}: expected an integer, got {type(x).__name__}")


def parse_field(obj):
    if isinstance(obj, str):
        text = obj.strip()
        if text == "rational":
            return ring.make_field("rational")
        if text.startswith("quadratic:"):
            return ring.make_field("quadratic", parse_int(text[10:], "field d"))
        raise InputError(f"bad field {obj!r} (want rational or quadratic:d)")
    if isinstance(obj, dict):
        kind = obj.get("kind")
        if kind == "rational":
            return ring.make_field("rational")
        if kind == "quadratic":
            return ring.make_field("quadratic", parse_int(obj.get("d"), "field d"))
        raise InputError(f"bad field kind {kind!r}")
    raise InputError("bad field specification")


def parse_element(field, obj):
    if isinstance(obj, (int, str)):
        return (parse_int(obj, "element"), 0)
    if isinstance(obj, list) and len(obj) == 2:
        a = parse_int(obj[0], "element")
        b = parse_int(obj[1], "element")
        if field.kind == "rational" and b != 0:
            raise InputError("rational elements have no omega part")
        return (a, b)
    raise InputError(f"bad element {obj!r}")


def parse_ideal(field, obj):
    if isinstance(obj, (int, str)):
        return ring.ideal_principal(field, (parse_int(obj, "ideal"), 0))
    if isinstance(obj, dict):
        if "hnf" in obj:
            trip = obj["hnf"]
            if not isinstance(trip, list) or len(trip) != 3:
                raise InputError("hnf must be [u, v, w]")
            u, v, w = (parse_int(t, "hnf entry") for t in trip)
            return ring.check_hnf(field, u, v, w)
        if "gens" in obj:
            gens = obj["gens"]
            if not isinstance(gens, list) or not gens:
                raise InputError("gens must be a nonempty list")
            return ring.ideal_from_gens(field, [parse_element(field, g) for g in gens])
        if "principal" in obj:
            return ring.ideal_principal(field, parse_element(field, obj["principal"]))
    raise InputError(f"bad ideal {obj!r}")


def parse_instance(doc):
    """(field, [(residue, Ideal), ...]) from a problem document."""
    if not isinstance(doc, dict):
        raise InputError("input must be a JSON object")
    field = parse_field(doc.get("field", "rational"))
    raw = doc.get("classes")
    if not isinstance(raw, list) or not raw:
        raise InputError("classes must be a nonempty list")
    classes = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or "residue" not in item or "modulus" not in item:
            raise InputError(f"class {i} needs residue and modulus")
        classes.append(
            (parse_element(field, item["residue"]), parse_ideal(field, item["modulus"]))
        )
    return field, classes


def parse_moduli(doc):
    """(field, [Ideal, ...], s or None) from a moduli document."""
    if not isinstance(doc, dict):
        raise InputError("input must be a JSON object")
    field = parse_field(doc.get("field", "rational"))
    raw = doc.get("moduli")
    if not isinstance(raw, list) or not raw:
        raise InputError("moduli must be a nonempty list")
    moduli = [parse_ideal(field, item) for item in raw]
    s = doc.get("s")
    return field, moduli, None if s is None else parse_int(s, "s")


def parse_delta_policy(text):
    """--delta value: "threshold:Y" or "explicit:q1,q2,..."; None passes through."""
    if text is None:
        return None
    text = text.strip()
    if text.startswith("threshold:"):
        return ("threshold", parse_int(text[10:], "threshold"))
    if text.startswith("explicit:"):
        body = text[9:].strip()
        if not body:
            return ("explicit", [])
        try:
            return ("explicit", [_parse_delta(part.strip()) for part in body.split(",")])
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad delta list {body!r}") from None
    raise InputError(f"bad delta policy {text!r} (want threshold:Y or explicit:...)")


def _parse_delta(text):
    # Every command prints its deltas, so one that cannot print has no answer.
    # Fraction expands an exponent into all its digits: refuse first one past
    # the digit limit by more than the mantissa's length, as no nonzero value
    # with it can print.
    limit = sys.get_int_max_str_digits()
    mantissa, e, exp = text.lower().partition("e")
    if limit and e and abs(int(exp)) > limit + len(mantissa):
        raise ResourceError("a delta exponent is too large to print in decimal")
    delta = Fraction(text)
    frac_str(delta)
    return delta


# ------------------------------------------------------------------ emission


def frac_str(x):
    try:
        return str(Fraction(x))
    except ValueError:  # beyond Python's int-to-str digit limit
        raise ResourceError("a rational is too large to print in decimal") from None


def element_json(field, e):
    if field.kind == "rational":
        return e[0]
    return [e[0], e[1]]


def ideal_json(ideal):
    return {"hnf": [ideal.u, ideal.v, ideal.w]}


def prime_json(prime):
    out = ideal_json(prime.ideal)
    out["under"] = prime.under
    out["norm"] = prime.norm
    out["splitting"] = prime.splitting
    return out


def _dumps(obj, **kwargs):
    try:
        return json.dumps(obj, ensure_ascii=True, **kwargs)
    except ValueError:  # an int beyond Python's int-to-str digit limit
        raise ResourceError("an output integer is too large to print in decimal") from None


def dumps_stable(obj):
    return _dumps(obj, indent=2) + "\n"


def dumps_line(obj):
    """obj as one line of JSON, refused like dumps_stable."""
    return _dumps(obj)
