import argparse
import ast
import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from coverdist import ring, serialize, system
from coverdist.cli import build_parser, main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent


def run_cli(args, stdin_data=None):
    proc = subprocess.run(
        [sys.executable, "-m", "coverdist.cli", *args],
        input=stdin_data,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def call_main(capsys, args):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ------------------------------------------------------------------ goldens

# Every pinned run, as (stem, argv): stdout is pinned in stem.json with the
# default --format json, and in stem.txt with --format text.
PINNED_RUNS = [
    ("check_classic", ["check", "--input", str(DATA / "classic.json")]),
    ("check_near", ["check", "--input", str(DATA / "near.json")]),
    (
        "certify_near_threshold10",
        ["certify", "--input", str(DATA / "near.json"), "--delta", "threshold:10"],
    ),
    ("certify_classic_default", ["certify", "--input", str(DATA / "classic.json")]),
    (
        "certify_single2_explicit0",
        ["certify", "--input", str(DATA / "single2.json"), "--delta", "explicit:0"],
    ),
    (
        "moments_near_explicit_half",
        ["moments", "--input", str(DATA / "near.json"), "--delta", "explicit:1/2"],
    ),
    ("moments_classic_default", ["moments", "--input", str(DATA / "classic.json")]),
    ("certify_moduli_1113", ["certify-moduli", "--input", str(DATA / "moduli1113.json")]),
    (
        "certify_moduli_1113_s3_threshold5",
        [
            "certify-moduli",
            "--input",
            str(DATA / "moduli1113.json"),
            "--s",
            "3",
            "--delta",
            "threshold:5",
        ],
    ),
    ("bound_rational_s1", ["bound", "--field", "rational", "--s", "1"]),
    ("bound_gauss_s2", ["bound", "--field", "quadratic:-1", "--s", "2"]),
    ("primes_m5_12", ["primes", "--field", "quadratic:-5", "--max-norm", "12"]),
    ("primes_rational_1", ["primes", "--field", "rational", "--max-norm", "1"]),
]
_IDEAL_OPS = [
    ("norm", "quadratic:-5", '{"gens": [2, [1, 1]]}', None),
    ("factor", "quadratic:-1", "12", None),
    ("distinguishable", "quadratic:-1", "15", None),
    ("pmin", "quadratic:-1", "15", None),
    ("mul", "quadratic:-5", "6", "10"),
    ("intersect", "quadratic:-5", '{"gens": [2, [1, 1]]}', "3"),
    ("divides", "quadratic:-3", "2", "6"),
]
for op, field, ideal, ideal2 in _IDEAL_OPS:
    PINNED_RUNS.append(
        (
            f"ideal_tool_{op}",
            ["ideal-tool", "--field", field, "--op", op, "--ideal", ideal]
            + ([] if ideal2 is None else ["--ideal2", ideal2]),
        )
    )
# Runs pinned later go after every earlier case, so that the parametrize ids
# (args0, args1, ...) of the earlier cases stay as they were.
LATER_RUNS = [
    ("certify_gauss_default", ["certify", "--input", str(DATA / "gauss.json")]),
]
GOLDEN_CASES = [
    (stem + ext, args + extra)
    for runs in (PINNED_RUNS, LATER_RUNS)
    for ext, extra in ((".json", []), (".txt", ["--format", "text"]))
    for stem, args in runs
]
COMMANDS = ["check", "certify", "moments", "certify-moduli", "bound", "primes", "ideal-tool"]
HELP_CASES = [("help.txt", [])] + [(f"help_{name}.txt", [name]) for name in COMMANDS]
# (stderr golden, argv, exit code); $TMP is the test's temporary directory,
# which holds bad.json and nothing else
ERROR_CASES = [
    ("err_missing_input.json", ["check"], 2),
    ("err_bad_op.json", ["ideal-tool", "--field", "rational", "--op", "gcd", "--ideal", "6"], 2),
    (
        "err_bad_inline_json.json",
        ["ideal-tool", "--field", "rational", "--op", "mul", "--ideal", "6", "--ideal2", "{x"],
        2,
    ),
    (
        "err_missing_ideal2.json",
        ["ideal-tool", "--field", "rational", "--op", "mul", "--ideal", "6"],
        2,
    ),
    ("err_unreadable_input.json", ["certify", "--input", "$TMP/missing.json"], 2),
    ("err_bad_input_json.json", ["certify-moduli", "--input", "$TMP/bad.json"], 2),
    (
        "err_unwritable_output.json",
        ["primes", "--field", "rational", "--max-norm", "10", "--output", "$TMP/no/out.json"],
        2,
    ),
    (
        "err_max_enum_not_int.json",
        ["certify", "--input", str(DATA / "classic.json"), "--max-enum", "abc"],
        2,
    ),
    ("err_max_enum_2.json", ["check", "--input", str(DATA / "classic.json"), "--max-enum", "2"], 3),
    (
        "err_delta_unprintable.json",
        ["moments", "--input", str(DATA / "classic.json"), "--delta", "explicit:1e-100000"],
        3,
    ),
]
# a norm of 4,400 digits, past the int-to-str limit, in either format
_UNPRINTABLE_NORM = [
    "ideal-tool", "--field", "quadratic:-1", "--op", "norm", "--ideal", "7" * 2200
]
ERROR_CASES += [
    ("err_ideal_tool_unprintable.json", _UNPRINTABLE_NORM + ["--format", fmt], 3)
    for fmt in ("json", "text")
]


@pytest.mark.parametrize("golden,args", GOLDEN_CASES)
def test_golden(capsys, golden, args):
    rc, out, err = call_main(capsys, args)
    assert rc == 0 and err == ""
    assert out == (GOLDEN / golden).read_text()


# Depth 7, n = 510,510: 0 mod p for each prime p <= 17, all at delta 1/2.
# JSON only, and kept out of GOLDEN_CASES so that its parametrize ids stay.
DEEP_RUNS = [
    (f"{cmd}_primes17_threshold1.json",
     [cmd, "--input", str(DATA / "primes17.json"), "--delta", "threshold:1"])
    for cmd in ("certify", "moments")
]


@pytest.mark.parametrize("golden,args", DEEP_RUNS, ids=[g for g, _ in DEEP_RUNS])
def test_deep_golden(capsys, golden, args):
    rc, out, err = call_main(capsys, args)
    assert rc == 0 and err == ""
    assert out == (GOLDEN / golden).read_text()


def test_golden_repeatable():
    name, args = GOLDEN_CASES[3]
    runs = {run_cli(args)[1] for _ in range(3)}
    assert runs == {(GOLDEN / name).read_text()}


@pytest.mark.parametrize("golden,args", HELP_CASES)
def test_help_golden(capsys, monkeypatch, golden, args):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(args + ["--help"])
    assert info.value.code == 0
    out, err = capsys.readouterr()
    assert err == "" and out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("golden,args,code", ERROR_CASES)
def test_error_golden(capsys, tmp_path, golden, args, code):
    (tmp_path / "bad.json").write_text("{nope")
    args = [a.replace("$TMP", str(tmp_path)) for a in args]
    rc, out, err = call_main(capsys, args)
    assert (rc, out) == (code, "")
    assert err == (GOLDEN / golden).read_text().replace("$TMP", str(tmp_path))


def test_every_command_is_pinned():
    # a subcommand cannot land without a JSON golden, a text golden and a
    # --help golden
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == COMMANDS
    pinned = set()
    for _, args in GOLDEN_CASES:
        fmt = args[args.index("--format") + 1] if "--format" in args else "json"
        pinned.add((args[0], fmt))
    assert pinned == {(c, fmt) for c in COMMANDS for fmt in ("json", "text")}
    ops = sub.choices["ideal-tool"]._option_string_actions["--op"].choices
    assert [op for op, *_ in _IDEAL_OPS] == list(ops)


# ------------------------------------------------------------- check/certify


def test_check_stdin(capsys):
    doc = (DATA / "near.json").read_text()
    rc, out, err = run_cli(["check", "--input", "-"], stdin_data=doc)
    assert rc == 0
    assert json.loads(out)["witness"] == 3


def test_check_gauss(capsys):
    rc, out, err = call_main(capsys, ["check", "--input", str(DATA / "gauss.json")])
    assert rc == 0
    doc = json.loads(out)
    assert doc["field"] == "quadratic:-1"
    assert doc["verdict"] == "uncovered"
    assert doc["witness"] == [0, 1]
    assert doc["q"] == {"hnf": [2, 0, 2]}


def test_check_zero_mod_six(capsys, tmp_path):
    path = tmp_path / "six.json"
    path.write_text(
        json.dumps(
            {"field": "rational", "classes": [{"residue": 0, "modulus": 6}]}
        )
    )
    rc, out, err = call_main(capsys, ["check", "--input", str(path)])
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "uncovered" and doc["witness"] == 1


def test_certify_gauss(capsys):
    rc, out, err = call_main(
        capsys,
        ["certify", "--input", str(DATA / "gauss.json"), "--delta", "explicit:0"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["eta"] == "3/4"
    assert doc["verdict"] == "certified-noncover"
    assert doc["witness"] == [0, 1]
    assert doc["uncovered_mass"] == "1/4"


def test_certify_text_format(capsys):
    rc, out, err = call_main(
        capsys,
        ["certify", "--input", str(DATA / "classic.json"), "--format", "text"],
    )
    assert rc == 0
    assert "eta: 169/144" in out
    assert "verdict: inconclusive" in out


def _claim(monkeypatch, **fields):
    """Make distortion.certify return its result with fields replaced."""
    from coverdist import distortion

    orig = distortion.certify
    monkeypatch.setattr(distortion, "certify", lambda *a: orig(*a)._replace(**fields))


def test_certify_checks_its_witness(capsys, monkeypatch):
    # near.json misses only 3 mod 4: index 0 is the residue 0, in 0 mod 2
    _claim(monkeypatch, witness_index=0)
    _json_error(*call_main(capsys, ["certify", "--input", str(DATA / "near.json")]), 4,
                "SoundnessError")


def test_certify_refuses_noncover_claim_on_a_cover(capsys, monkeypatch):
    _claim(monkeypatch, verdict="certified-noncover", uncovered_mass=Fraction(1, 12),
           witness_index=11)
    _json_error(*call_main(capsys, ["certify", "--input", str(DATA / "classic.json")]), 4,
                "SoundnessError")


def test_certify_runs_no_enumeration(capsys, monkeypatch):
    from coverdist import system

    def never(*args, **kwargs):
        raise AssertionError("certify enumerated the coverage")

    monkeypatch.setattr(system, "covers", never)
    cases = [(g, args) for g, args in GOLDEN_CASES if args[0] == "certify"]
    assert len(cases) == 8
    for golden, args in cases:
        rc, out, err = call_main(capsys, args)
        assert (rc, err) == (0, "") and out == (GOLDEN / golden).read_text(), golden


@pytest.mark.parametrize("name,n", [("classic.json", 12), ("near.json", 4), ("gauss.json", 4)])
def test_certify_max_enum_edge(capsys, name, n):
    args = ["certify", "--input", str(DATA / name), "--max-enum"]
    _json_error(*call_main(capsys, args + [str(n - 1)]), 3, "EnumerationTooLarge")
    rc, out, err = call_main(capsys, args + [str(n)])
    assert (rc, err) == (0, "") and json.loads(out)["norm_q"] == n


def _moved_doc(instance, c=(1, 0), t=(0, 0)):
    """The instance document with every class a + I moved to c a + t + I."""
    field = instance.field
    classes = []
    for a, ideal in instance.classes:
        ca = oracles.elem_mul_oracle(field.trace, field.nm, c, a)
        residue = serialize.element_json(field, (ca[0] + t[0], ca[1] + t[1]))
        classes.append({"residue": residue, "modulus": serialize.ideal_json(ideal)})
    return {"field": field.label(), "classes": classes}


def _certify_doc(capsys, doc, path):
    path.write_text(json.dumps(doc))
    rc, out, err = call_main(capsys, ["certify", "--input", str(path)])
    assert (rc, err) == (0, "")
    return json.loads(out)


def test_certify_cli_invariant_under_affine_maps(capsys, tmp_path, corpus):
    """x -> c x + t, with c a unit mod Q, permutes O/Q and each O/Q_j. So
    certify on the moved classes prints the same deltas, levels, eta,
    verdict and uncovered mass, and its witness lies in no moved class
    (checked by a Cramer solve)."""
    rng = random.Random(188413)
    names = ("classic.json", "near.json", "gauss.json", "single2.json")
    docs = [json.loads((DATA / name).read_text()) for name in names]
    docs += [_moved_doc(inst) for inst in rng.sample(corpus, 20)]
    keys = ("deltas", "levels", "eta", "verdict", "uncovered_mass")
    certified = 0
    for doc in docs:
        inst = system.validate(*serialize.parse_instance(doc))
        field, q, n = inst.field, inst.q, ring.ideal_norm(inst.q)
        c = ring.residue_at(rng.randrange(n), q)
        while gcd(ring.elem_norm(field, c), n) != 1:
            c = ring.residue_at(rng.randrange(n), q)
        image = _moved_doc(inst, c, ring.residue_at(rng.randrange(n), q))
        want = _certify_doc(capsys, doc, tmp_path / "want.json")
        got = _certify_doc(capsys, image, tmp_path / "got.json")
        assert [got.get(k) for k in keys] == [want.get(k) for k in keys]
        if got["verdict"] == "certified-noncover":
            certified += 1
            x = serialize.parse_element(field, got["witness"])
            for (r0, r1), m in serialize.parse_instance(image)[1]:
                assert not oracles.cramer_member((x[0] - r0, x[1] - r1), m.u, m.v, m.w)
    assert certified > 15


def test_moments(capsys):
    rc, out, err = call_main(
        capsys,
        ["moments", "--input", str(DATA / "near.json"), "--delta", "explicit:1/2"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["eta"] == "9/16"
    assert doc["final_target_masses"] == ["1/2"]
    row = doc["levels"][0]
    assert (row["m1"], row["m2"], row["contribution"]) == ("3/4", "9/16", "9/16")


def test_output_file(tmp_path, capsys):
    # --output of each subcommand, in both formats, holds its stdout golden
    # byte for byte
    for golden, args in GOLDEN_CASES:
        target = tmp_path / golden
        rc, out, err = call_main(capsys, args + ["--output", str(target)])
        assert (rc, out, err) == (0, "", ""), golden
        assert target.read_bytes() == (GOLDEN / golden).read_bytes(), golden
    assert {args[0] for _, args in GOLDEN_CASES} == set(COMMANDS)


def test_output_unwritable_is_json_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    args = ["check", "--input", str(DATA / "classic.json"), "--output", str(target)]
    rc, out, err = call_main(capsys, args)
    _json_error(rc, out, err, 2, "CoverdistError")
    assert json.loads(err)["message"].startswith(f"cannot write {target}")


def test_unprintable_delta_refused_before_work(capsys, monkeypatch):
    # every command prints its deltas, so a delta past the int-to-str digit
    # limit has no answer; it is refused as it is parsed
    from coverdist import bounds, distortion

    def never(*args, **kwargs):
        raise AssertionError("ran past the delta parse")

    monkeypatch.setattr(distortion, "run", never)
    monkeypatch.setattr(bounds, "certify_moduli", never)
    for command, data in [
        ("certify", "classic.json"),
        ("moments", "classic.json"),
        ("certify-moduli", "moduli1113.json"),
    ]:
        for delta in ("1e100000", "1e-100000", "-1e100000", "0,1e4300"):
            args = [command, "--input", str(DATA / data), "--delta", "explicit:" + delta]
            _json_error(*call_main(capsys, args), 3, "ResourceError")


def test_string_integers_accepted(capsys, tmp_path):
    path = tmp_path / "strs.json"
    path.write_text(
        json.dumps(
            {
                "field": "rational",
                "classes": [
                    {"residue": "0", "modulus": "2"},
                    {"residue": "1", "modulus": "4"},
                ],
            }
        )
    )
    rc, out, err = call_main(capsys, ["check", "--input", str(path)])
    assert rc == 0
    assert json.loads(out)["witness"] == 3


# ------------------------------------------------------------ certify-moduli


def test_certify_moduli_cli(capsys):
    rc, out, err = call_main(
        capsys, ["certify-moduli", "--input", str(DATA / "moduli1113.json")]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["eta_majorant"] == "77/3600"
    assert doc["verdict"] == "certified-noncover"
    assert [r["mechanism"] for r in doc["levels"]] == ["m2", "m2"]


def test_certify_moduli_two_four(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"field": "rational", "moduli": [2, 4]}))
    rc, out, err = call_main(capsys, ["certify-moduli", "--input", str(path)])
    assert rc == 0
    doc = json.loads(out)
    assert doc["eta_majorant"] == "1"
    assert doc["verdict"] == "inconclusive"


def test_certify_moduli_s_flag(capsys):
    rc, out, err = call_main(
        capsys,
        [
            "certify-moduli",
            "--input",
            str(DATA / "moduli1113.json"),
            "--s",
            "3",
            "--delta",
            "explicit:0,0",
        ],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["s"] == 3
    assert doc["verdict"] == "inconclusive"


# ------------------------------------------------------------ bound / primes


def test_bound_cli(capsys):
    rc, out, err = call_main(
        capsys, ["bound", "--field", "rational", "--s", "1"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["y"] == 65536
    assert int(doc["x"]) > 10**50
    assert "statement" in doc


def test_bound_cli_soundness_exit(capsys, monkeypatch):
    from coverdist import bounds, ring

    # a search that stops at y = Y_MIN with its norms and its exact eta2,
    # which at s = 1 is not below 1/2: the guard refuses the certificate
    def search(field, s):
        y = bounds.Y_MIN
        return y, ring.prime_norms_up_to(field, y), bounds.eta2_major(field, s, y)

    monkeypatch.setattr(bounds, "_search_y", search)
    rc, out, err = call_main(capsys, ["bound", "--field", "rational", "--s", "1"])
    assert rc == 4
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "SoundnessError"
    assert "eta2" in doc["message"] and "1/2" in doc["message"]


def test_bound_computes_once_verifies_once(capsys, monkeypatch):
    from coverdist import bounds, ring

    calls = {"prime_norms_up_to": [], "_rankin_fold": [], "_p_small_fold": []}

    def logged(module, name, log):
        fn = getattr(module, name)

        def wrapper(*args):
            log(args)
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    logged(ring, "prime_norms_up_to", lambda a: calls["prime_norms_up_to"].append(a[1:]))
    for name in ("_rankin_fold", "_p_small_fold"):
        logged(bounds, name, lambda a, log=calls[name]: log.append(a[0].tolist()))
    rc, out, _ = call_main(capsys, ["bound", "--field", "rational", "--s", "1"])
    assert rc == 0
    y = json.loads(out)["y"]
    tried = [bounds.Y_MIN << k for k in range((y // bounds.Y_MIN).bit_length())]
    assert len(tried) > 2
    # the search windows, (0, y0], (y0, 2 y0], ..., are the only norms
    # produced: rankin_W folds the norms the search kept
    search = [(tried[0], 0)] + [(b, a) for a, b in zip(tried, tried[1:])]
    assert calls["prime_norms_up_to"] == search
    norms = ring.prime_norms_up_to(ring.make_field("rational"), y).tolist()
    n = len(norms)
    # per y, one fold of the new full 64-norm blocks onto the carry, then one
    # of the < 64 trailing norms; the full-block folds take each norm <= y
    # in a full block once, in order, and with the last tail every norm <= y
    full, tails = calls["_p_small_fold"][::2], calls["_p_small_fold"][1::2]
    assert len(full) == len(tails) == len(tried)
    assert all(len(f) % 64 == 0 for f in full)
    assert all(len(t) < 64 for t in tails)
    assert sum(full, []) == norms[: n - n % 64]
    assert sum(full, []) + tails[-1] == norms
    # one exact rankin fold, over every norm <= y
    assert calls["_rankin_fold"] == [norms]


def test_primes_cli(capsys):
    rc, out, err = call_main(
        capsys, ["primes", "--field", "quadratic:-5", "--max-norm", "12"]
    )
    assert rc == 0
    doc = json.loads(out)
    got = [(p["norm"], p["splitting"]) for p in doc["primes"]]
    assert got == [
        (2, "ramified"),
        (3, "split"),
        (3, "split"),
        (5, "ramified"),
        (7, "split"),
        (7, "split"),
    ]


def test_primes_text(capsys):
    rc, out, err = call_main(
        capsys,
        ["primes", "--field", "rational", "--max-norm", "10", "--format", "text"],
    )
    assert rc == 0
    norms = [int(line.split()[0]) for line in out.strip().splitlines()]
    assert norms == [2, 3, 5, 7]


# ------------------------------------------------------------- ideal-tool


def test_ideal_tool_factor(capsys):
    rc, out, err = call_main(
        capsys,
        [
            "ideal-tool",
            "--field",
            "quadratic:-1",
            "--op",
            "factor",
            "--ideal",
            "12",
        ],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"] == [
        {
            "prime": {"hnf": [2, 1, 1], "under": 2, "norm": 2, "splitting": "ramified"},
            "exponent": 4,
        },
        {
            "prime": {"hnf": [3, 0, 3], "under": 3, "norm": 9, "splitting": "inert"},
            "exponent": 1,
        },
    ]


def test_ideal_tool_ops(capsys):
    rc, out, _ = call_main(
        capsys,
        ["ideal-tool", "--field", "rational", "--op", "norm", "--ideal", "30"],
    )
    assert rc == 0 and json.loads(out)["result"] == 30
    rc, out, _ = call_main(
        capsys,
        [
            "ideal-tool",
            "--field",
            "quadratic:-1",
            "--op",
            "mul",
            "--ideal",
            '{"gens": [[1, 1]]}',
            "--ideal2",
            '{"gens": [[1, 1]]}',
        ],
    )
    assert rc == 0 and json.loads(out)["result"] == {"hnf": [2, 0, 2]}
    rc, out, _ = call_main(
        capsys,
        [
            "ideal-tool",
            "--field",
            "rational",
            "--op",
            "intersect",
            "--ideal",
            "6",
            "--ideal2",
            "10",
        ],
    )
    assert rc == 0 and json.loads(out)["result"] == {"hnf": [30, 0, 1]}
    rc, out, _ = call_main(
        capsys,
        [
            "ideal-tool",
            "--field",
            "rational",
            "--op",
            "divides",
            "--ideal",
            "3",
            "--ideal2",
            "12",
        ],
    )
    assert rc == 0 and json.loads(out)["result"] is True


def test_ideal_tool_distinguishable(capsys):
    rc, out, _ = call_main(
        capsys,
        [
            "ideal-tool",
            "--field",
            "quadratic:-1",
            "--op",
            "distinguishable",
            "--ideal",
            "5",
        ],
    )
    assert rc == 0 and json.loads(out)["result"] is False
    rc, out, err = call_main(
        capsys,
        ["ideal-tool", "--field", "quadratic:-1", "--op", "pmin", "--ideal", "5"],
    )
    assert rc == 2
    assert json.loads(err)["error"] == "PMinOnIndistinguishable"


# -------------------------------------------------------------- exit codes


def test_exit_code_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    # the last is a number beyond Python's str-to-int digit limit
    for text in ["{nope", "[" * 100000, '{"classes": [' + "7" * 5000 + "]}"]:
        path.write_text(text)
        rc, out, err = call_main(capsys, ["check", "--input", str(path)])
        assert rc == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "CoverdistError"
        assert "bad JSON" in doc["message"]


def test_ideal_tool_bad_json(capsys):
    base = ["ideal-tool", "--field", "rational", "--op"]
    for args, flag in [
        (["norm", "--ideal", "{bad"], "--ideal"),
        (["norm", "--ideal", "[" * 100000], "--ideal"),
        (["norm", "--ideal", "7" * 5000], "--ideal"),
        (["mul", "--ideal", "6", "--ideal2", "{bad"], "--ideal2"),
    ]:
        rc, out, err = call_main(capsys, base + args)
        assert rc == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "CoverdistError"
        assert doc["message"].startswith(f"bad JSON in {flag}:")


def test_exit_code_missing_file(capsys):
    rc, out, err = call_main(capsys, ["check", "--input", "/nonexistent.json"])
    assert rc == 2
    assert "cannot read" in json.loads(err)["message"]


def test_exit_code_empty_classes(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"field": "rational", "classes": []}))
    rc, out, err = call_main(capsys, ["check", "--input", str(path)])
    assert rc == 2
    assert json.loads(err)["error"] == "InputError"


def test_exit_code_indistinguishable(tmp_path, capsys):
    path = tmp_path / "ind.json"
    path.write_text(
        json.dumps(
            {"field": "quadratic:-1", "classes": [{"residue": 0, "modulus": 5}]}
        )
    )
    rc, out, err = call_main(capsys, ["check", "--input", str(path)])
    assert rc == 2
    assert json.loads(err)["error"] == "IndistinguishableModulus"


def test_exit_code_enum_budget(capsys):
    rc, out, err = call_main(
        capsys,
        ["check", "--input", str(DATA / "classic.json"), "--max-enum", "5"],
    )
    assert rc == 3
    assert json.loads(err)["error"] == "EnumerationTooLarge"


def test_exit_code_sieve_budget(tmp_path, capsys, monkeypatch):
    # refused before the sieve allocates its flags
    from coverdist import kernels

    for field in ("rational", "quadratic:-1"):
        rc, out, err = call_main(
            capsys, ["primes", "--field", field, "--max-norm", str(kernels.SIEVE_MAX + 1)]
        )
        assert rc == 3 and out == ""
        assert json.loads(err)["error"] == "SieveTooLarge"
    # a delta-0 level at prime q sieves up to q - 1; 134217757 is the first
    # prime with q - 1 above the cap
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"field": "rational", "moduli": [134217757]}))
    rc, out, err = call_main(
        capsys,
        ["certify-moduli", "--input", str(path), "--delta", "threshold:134217757"],
    )
    assert rc == 3 and out == ""
    assert json.loads(err)["error"] == "SieveTooLarge"
    # bound: y starts at s^3 = 216000000, above the cap, so no sieve runs
    rc, out, err = call_main(capsys, ["bound", "--field", "quadratic:-1", "--s", "600"])
    assert rc == 3 and out == ""
    assert json.loads(err)["error"] == "SieveTooLarge"
    # refused within the search, after the carry has run at y = 512 ... 4096
    monkeypatch.setattr(kernels, "SIEVE_MAX", 2**12)
    rc, out, err = call_main(capsys, ["bound", "--field", "rational", "--s", "1"])
    assert rc == 3 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "SieveTooLarge"
    assert doc["message"] == "sieve limit 8192 exceeds 4096"


def test_primes_huge_limit_no_traceback():
    rc, out, err = run_cli(
        ["primes", "--field", "rational", "--max-norm", "1000000000000000"]
    )
    assert rc == 3 and out == ""
    assert json.loads(err)["error"] == "SieveTooLarge"


def _json_error(rc, out, err, code, error):
    assert rc == code and out == ""
    assert json.loads(err)["error"] == error  # exactly one JSON object


def test_unprintable_certified_rational(tmp_path, capsys, monkeypatch):
    # the delta-0 m1 row at each q is a Fraction over 4300 digits; it is
    # refused from a size bound, before the product that would build it
    from coverdist import bounds

    def never(*args):
        raise AssertionError("_m1_euler ran")

    monkeypatch.setattr(bounds, "_m1_euler", never)
    path = tmp_path / "p.json"
    for q in (100003, 3000017):
        path.write_text(json.dumps({"field": "rational", "moduli": [q]}))
        args = ["certify-moduli", "--input", str(path), "--delta", "explicit:0"]
        _json_error(*call_main(capsys, args), 3, "ResourceError")


def test_unprintable_output_integer(tmp_path, capsys):
    # each modulus prints, but the HNF of Q = (2^13000 * 3^8000) does not
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"moduli": [str(2**13000), str(3**8000)]}))
    args = ["certify-moduli", "--input", str(path)]
    _json_error(*call_main(capsys, args), 3, "ResourceError")


def test_enum_budget_message_on_unprintable_norm(tmp_path, capsys):
    path = tmp_path / "big.json"
    classes = [{"residue": 0, "modulus": str(m)} for m in (2**13000, 3**8000)]
    path.write_text(json.dumps({"classes": classes}))
    rc, out, err = call_main(capsys, ["check", "--input", str(path)])
    _json_error(rc, out, err, 3, "EnumerationTooLarge")
    assert "25680 bits" in json.loads(err)["message"]


def test_fermat_split_with_small_factors_refused(tmp_path, capsys):
    # Q = (2^89 - 1)(2^89 + 155) is a Fermat split, but 2^89 + 155 =
    # 7703 * 124133 * 1706489 * 379331555297. Trial division takes 7703 and
    # 124133 out first, and no Fermat step splits the 149-bit cofactor left.
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"moduli": [(2**89 - 1) * (2**89 + 155)]}))
    args = ["certify-moduli", "--input", str(path)]
    _json_error(*call_main(capsys, args), 3, "NormTooLargeToFactor")


def test_cli_never_imports_sympy():
    script = f"""
import contextlib, io, sys
from coverdist.cli import main
data = {str(DATA)!r}
runs = [
    ["check", "--input", data + "/classic.json"],
    ["certify", "--input", data + "/classic.json"],
    ["certify-moduli", "--input", data + "/moduli1113.json"],
    ["bound", "--field", "quadratic:-1", "--s", "1"],
    ["primes", "--field", "quadratic:5", "--max-norm", "1000"],
]
for args in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0, args
assert "sympy" not in sys.modules, sorted(m for m in sys.modules if "sympy" in m)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_numpy_imports_only_where_o_mod_q_arrays_live():
    # only the distortion engine imports numpy at module level; every other
    # module loads it inside the functions that build arrays over O/Q, if at
    # all
    src = Path(__import__("coverdist").__file__).parent
    importers = set()
    for path in src.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            if any(n == "numpy" or n.startswith("numpy.") for n in names):
                importers.add(path.name)
    assert importers == {"distortion.py"}


def test_bound_primes_ideal_tool_never_import_numpy():
    # the prime-norm commands and certify-moduli run on the standard library,
    # without numpy, the distortion engine or dataclasses (which loads
    # inspect and ast); certify, in the same fresh process afterwards, loads
    # numpy but not dataclasses and prints its golden
    script = f"""
import contextlib, io, sys
from coverdist.cli import main
runs = [
    ["bound", "--field", "rational", "--s", "2"],
    ["bound", "--field", "quadratic:-1", "--s", "1"],
    ["primes", "--field", "quadratic:5", "--max-norm", "1000"],
    ["primes", "--field", "rational", "--max-norm", "100"],
    ["ideal-tool", "--field", "quadratic:-1", "--op", "factor",
     "--ideal", "{(2**61 - 1) * 999983**2}"],
    ["ideal-tool", "--field", "rational", "--op", "pmin", "--ideal", "{(2**89 - 1) ** 3 * 10**6}"],
    ["ideal-tool", "--field", "quadratic:-5", "--op", "mul", "--ideal", "6", "--ideal2", "10"],
    ["certify-moduli", "--input", {str(DATA / "moduli1113.json")!r}],
    ["certify-moduli", "--input", {str(DATA / "moduli1113.json")!r}, "--delta", "explicit:0,1/3"],
]
for args in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0, args
assert "numpy" not in sys.modules, args
assert "dataclasses" not in sys.modules, args
assert "coverdist.distortion" not in sys.modules, args
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["certify", "--input", {str(DATA / "classic.json")!r}]) == 0
assert "numpy" in sys.modules
assert "dataclasses" not in sys.modules
print(out.getvalue(), end="")
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "certify_classic_default.json").read_text()


def test_distortion_commands_never_import_bounds():
    # cli loads bounds only inside bound and certify-moduli, so check,
    # certify and moments in a fresh process never import it
    script = f"""
import contextlib, io, sys
from coverdist.cli import main
data = {str(DATA)!r}
runs = [
    ["check", "--input", data + "/classic.json"],
    ["certify", "--input", data + "/classic.json"],
    ["moments", "--input", data + "/near.json", "--delta", "threshold:1"],
]
for args in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0, args
assert "coverdist.bounds" not in sys.modules
assert "coverdist.distortion" in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_package_exports_resolve():
    # the package serves its names lazily; each resolves, in a fresh
    # process, to the object of the module that defines it
    script = """
import importlib, coverdist
for _ in range(2):  # served by __getattr__, then from the package namespace
    for name in coverdist.__all__:
        mod = importlib.import_module("coverdist." + coverdist._MODULE[name])
        assert getattr(coverdist, name) is getattr(mod, name), name
assert len(set(coverdist.__all__)) == len(coverdist.__all__) == 52
# names that only tests called, removed from the package
removed = [
    "alpha", "alpha_upper_bound", "class_measure_bound", "eta1_major",
    "IdealNotDividingQ", "initial_state", "m1_bound", "m2_bound", "mask_mass",
    "mertens_sum_bound", "moments", "step", "target_mask", "target_mass", "XNotPerfectSquare",
]
for name in ["no_such_name"] + removed:
    assert name not in coverdist.__all__, name
    try:
        getattr(coverdist, name)
    except AttributeError:
        pass
    else:
        raise AssertionError(f"no AttributeError for {name}")
from coverdist import *
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_argparse_rejections_are_json(capsys):
    for args in (["bound", "--field", "rational", "--s", "abc"], ["bound"]):
        _json_error(*call_main(capsys, args), 2, "InputError")
    with pytest.raises(SystemExit) as info:
        main(["bound", "--help"])
    assert info.value.code == 0
    assert "--field" in capsys.readouterr().out


def test_exit_code_hierarchy():
    from coverdist import (
        CoverdistError,
        InputError,
        ResourceError,
        SoundnessError,
    )

    assert CoverdistError("x").exit_code == 2
    assert InputError("x").exit_code == 2
    assert ResourceError("x").exit_code == 3
    assert SoundnessError("x").exit_code == 4
    assert issubclass(SoundnessError, CoverdistError)


# ------------------------------------------------------------------- fuzzing

# A case is a valid document over a small field, often with one part
# replaced by an extreme or malformed value, plus random flags. Values are
# small or extreme: mid-sized moduli and norms make honest work (a sieve to
# 2^27) that a fuzz run should not wait for.
_FIELDS = ["rational", "quadratic:-1", "quadratic:-3", "quadratic:5", "quadratic:-5"]
_ODD = st.one_of(
    st.sampled_from(
        [0, -1, 2**31, 2**64 + 13, 100003, 3000017, 134217757, 10**40, str(2**13000),
         "7" * 5000, "12", " 7 ", "x", "", [], {}, None, True, 1.5, "quadratic:4",
         "quadratic:1", "quadratic:" + "9" * 60, {"hnf": [4, 1, 2]}, {"gens": []}]
    ),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=5), inner, max_size=3),
        max_leaves=6,
    ),
)


def _slots(obj):
    """(container, key) for every value nested in a document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    out = []
    for key, value in items:
        out.append((obj, key))
        if isinstance(value, (dict, list)):
            out += _slots(value)
    return out


@st.composite
def _docs(draw):
    field = draw(st.sampled_from(_FIELDS))
    coeff = st.integers(-20, 60)
    elem = coeff if field == "rational" else coeff | st.lists(coeff, min_size=2, max_size=2)
    modulus = st.integers(2, 40) | st.fixed_dictionaries(
        {"gens": st.lists(elem, min_size=1, max_size=2)}
    )
    cls = st.fixed_dictionaries({"residue": elem, "modulus": modulus})
    doc = {
        "field": field,
        "classes": draw(st.lists(cls, min_size=1, max_size=6)),
        "moduli": draw(st.lists(modulus, min_size=1, max_size=4)),
    }
    if draw(st.booleans()):
        doc["s"] = draw(st.integers(-1, 4))
    if draw(st.booleans()):
        container, key = draw(st.sampled_from(_slots(doc)))
        container[key] = draw(_ODD)
    return doc


_DELTA = st.one_of(
    st.none(),
    st.builds(lambda y: f"threshold:{y}", st.integers(-2, 50) | _ODD),
    st.lists(
        st.sampled_from(
            ["0", "0", "1/2", "1/2", "1/3", "2/5", "-1", "1", "1/0", "abc", "", "1e100000",
             "1e-100000", "0e99999999999", "1e4300", "5e-3", "1" * 5000]
        ),
        max_size=4,
    ).map(lambda ds: "explicit:" + ",".join(ds)),
    st.text(max_size=12),
)
_ANY_FIELD = st.one_of(*[st.sampled_from(_FIELDS)] * 3, _ODD)
_ENUM = st.one_of(st.just(10**5), st.just(10**5), st.integers(-5, 10**5))
_COMMAND = st.one_of(
    *[st.tuples(st.sampled_from(["check", "certify", "moments"]), _DELTA, _ENUM)] * 3,
    st.tuples(st.just("certify-moduli"), _DELTA, st.none() | st.integers(-1, 4) | _ODD),
    st.tuples(st.just("bound"), _ANY_FIELD, st.sampled_from([1, 0, -1, 10**6, 10**30])),
    st.tuples(
        st.just("primes"), _ANY_FIELD, st.sampled_from([-5, 0, 1, 2, 500, 2**27 + 1, 10**20])
    ),
    st.tuples(
        st.just("ideal-tool"),
        _ANY_FIELD,
        st.sampled_from(["norm", "factor", "pmin", "mul", "distinguishable"]),
    ),
)


_CLASSIC = json.loads((DATA / "classic.json").read_text())


def _fuzz_argv(command, doc, fmt, output, tmp):
    """argv for one fuzz case; the document goes to a file in tmp."""
    name, arg, extra = command
    path = Path(tmp) / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [name, "--format", fmt]
    if output:
        argv += ["--output", str(Path(tmp) / output)]
    if name in ("bound", "primes", "ideal-tool"):
        argv += ["--field", arg if isinstance(arg, str) else json.dumps(arg)]
        if name == "bound":
            return argv + ["--s", str(extra)]
        if name == "primes":
            return argv + ["--max-norm", str(extra)]
        ideal = doc.get("moduli")
        if isinstance(ideal, list) and ideal:
            ideal = ideal[0]
        return argv + ["--op", extra, "--ideal", json.dumps(ideal), "--ideal2", "6"]
    argv += ["--input", str(path)]
    if name != "check" and arg is not None:
        argv += ["--delta", arg]
    if name == "certify-moduli":
        return argv + ([] if extra is None else ["--s", str(extra)])
    return argv + ["--max-enum", str(extra)]


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    _COMMAND, _docs(), st.sampled_from(["json", "text"]), st.sampled_from([None, "out", "no/dir"])
)
@example(("check", None, 100), _CLASSIC, "json", "no/dir")
@example(("certify", "explicit:1e100000", 100), _CLASSIC, "json", None)
@example(("moments", "explicit:1e-100000", 100), _CLASSIC, "text", None)
@example(("certify-moduli", "explicit:1e100000", None), {"moduli": [11, 13]}, "json", None)
@example(("certify-moduli", "explicit:0", None), {"moduli": [3000017]}, "json", None)
@example(("certify-moduli", "explicit:0", None), {"moduli": [100003]}, "json", None)
@example(("certify-moduli", None, None), {"moduli": [100003]}, "json", None)
@example(("ideal-tool", "quadratic:-1", "norm"), {"moduli": [int("7" * 2200)]}, "text", None)
def test_cli_fuzz(command, doc, fmt, output):
    # any input ends in exit 0, 2 or 3, in bounded time, with exactly one
    # JSON error object on stderr when it fails and nothing there otherwise
    with tempfile.TemporaryDirectory() as tmp:
        argv = _fuzz_argv(command, doc, fmt, output, tmp)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        elapsed = time.perf_counter() - start
    assert rc in (0, 2, 3), (argv, err.getvalue())
    assert elapsed < 30, argv
    if rc == 0:
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        error = json.loads(err.getvalue())  # one object, nothing after it
        assert set(error) == {"error", "message"}, argv


def test_console_script_installed():
    # the installed script when it is on PATH, else the module:function
    # target that pyproject.toml declares for it
    args = ["check", "--input", str(DATA / "classic.json")]
    rc, out, err = run_cli(args)
    assert rc == 0
    if shutil.which("coverdist"):
        command = ["coverdist"]
    else:
        import tomllib

        pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
        module, func = pyproject["project"]["scripts"]["coverdist"].split(":")
        script = f"import sys; from {module} import {func}; sys.exit({func}())"
        command = [sys.executable, "-c", script]
    proc = subprocess.run(command + args, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out
