"""Pinned outputs: what every benchmark operation must print.

pins.json holds, per operation id, the sha256 of the input and of the
output recorded at the seed commit, plus the certified numbers in readable
form (eta, verdict and witness for certify; y, x, w, eta1 and eta2 for
bound), so that a mismatch names the number that changed.
"""

import hashlib
import json
from pathlib import Path

PINS = Path(__file__).resolve().parent / "pins.json"

CERTIFY_FIELDS = ("eta", "verdict", "witness")
BOUND_FIELDS = ("y", "x", "w", "eta1", "eta2")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins():
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def cli_fields(argv, stdout):
    """Readable pinned numbers from a certify or bound JSON document."""
    doc = json.loads(stdout)
    names = BOUND_FIELDS if argv[0] == "bound" else CERTIFY_FIELDS
    # x is an integer of a few hundred digits: keep it exact as a string
    return {k: str(doc[k]) if k == "x" else doc.get(k) for k in names}


def expected(op, stdout):
    """The pin record for an operation's output (what pin.py stores)."""
    return {"output_sha256": sha256(stdout), **cli_fields(op["argv"], stdout)}


def mismatch(pins, op, input_sha, stdout):
    """None if the output matches its pin, else a one-line reason."""
    pin = pins.get(op["id"])
    if pin is None:
        return f"{op['id']}: no pin"
    if pin["input_sha256"] != input_sha:
        return f"{op['id']}: input differs from the pinned input"
    try:
        got = expected(op, stdout)
    except (ValueError, KeyError, IndexError) as e:
        return f"{op['id']}: unreadable output ({type(e).__name__}: {e})"
    for k, v in got.items():
        if pin.get(k) != v:
            return f"{op['id']}: {k} is {str(v)[:60]!r}, pinned {str(pin.get(k))[:60]!r}"
    return None
