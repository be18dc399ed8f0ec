import json
import subprocess
import sys
from pathlib import Path

import pytest

from coverdist.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


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

GOLDEN_CASES = [
    ("check_classic.json", ["check", "--input", str(DATA / "classic.json")]),
    ("check_near.json", ["check", "--input", str(DATA / "near.json")]),
    (
        "certify_near_threshold10.json",
        ["certify", "--input", str(DATA / "near.json"), "--delta", "threshold:10"],
    ),
    (
        "certify_classic_default.json",
        ["certify", "--input", str(DATA / "classic.json")],
    ),
    (
        "certify_single2_explicit0.json",
        ["certify", "--input", str(DATA / "single2.json"), "--delta", "explicit:0"],
    ),
]


@pytest.mark.parametrize("golden,args", GOLDEN_CASES)
def test_golden(capsys, golden, args):
    rc, out, err = call_main(capsys, args)
    assert rc == 0 and err == ""
    assert out == (GOLDEN / golden).read_text()


def test_golden_repeatable():
    name, args = GOLDEN_CASES[3]
    runs = {run_cli(args)[1] for _ in range(3)}
    assert runs == {(GOLDEN / name).read_text()}


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
    target = tmp_path / "out.json"
    rc, out, err = call_main(
        capsys,
        ["check", "--input", str(DATA / "classic.json"), "--output", str(target)],
    )
    assert rc == 0 and out == ""
    assert target.read_text() == (GOLDEN / "check_classic.json").read_text()


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
    from coverdist import bounds

    monkeypatch.setattr(bounds, "verify_certificate", lambda cert: (False, "tampered"))
    rc, out, err = call_main(capsys, ["bound", "--field", "rational", "--s", "1"])
    assert rc == 4
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "SoundnessError"
    assert "tampered" in doc["message"]


def test_bound_computes_once_verifies_once(capsys, monkeypatch):
    from coverdist import bounds

    calls = {"rankin_W": [], "_eta2_base": []}
    for name, log in calls.items():

        def counted(field, y, fn=getattr(bounds, name), log=log):
            log.append(y)
            return fn(field, y)

        monkeypatch.setattr(bounds, name, counted)
    rc, out, _ = call_main(capsys, ["bound", "--field", "rational", "--s", "1"])
    assert rc == 0
    y = json.loads(out)["y"]
    # one rankin_W to build the certificate and one to verify it
    assert calls["rankin_W"] == [y, y]
    # one eta2 base per y on the doubling schedule, and one more to verify
    tried = [bounds.Y_MIN << k for k in range((y // bounds.Y_MIN).bit_length())]
    assert calls["_eta2_base"] == tried + [y]


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


def test_exit_code_sieve_budget(tmp_path, capsys):
    # refused before the sieve allocates its flags
    from coverdist.kernels import SIEVE_MAX

    for field, limit in [("rational", SIEVE_MAX + 1), ("quadratic:-1", SIEVE_MAX + 1)]:
        rc, out, err = call_main(
            capsys, ["primes", "--field", field, "--max-norm", str(limit)]
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


def test_primes_huge_limit_no_traceback():
    rc, out, err = run_cli(
        ["primes", "--field", "rational", "--max-norm", "1000000000000000"]
    )
    assert rc == 3 and out == ""
    assert json.loads(err)["error"] == "SieveTooLarge"


def _json_error(rc, out, err, code, error):
    assert rc == code and out == ""
    assert json.loads(err)["error"] == error  # exactly one JSON object


def test_unprintable_certified_rational(tmp_path, capsys):
    # the delta-0 m1 row at q = 100003 is a Fraction over 4300 digits
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"moduli": [100003]}))
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


def test_console_script_installed():
    rc, out, err = run_cli(["check", "--input", str(DATA / "classic.json")])
    assert rc == 0
    proc = subprocess.run(
        ["coverdist", "check", "--input", str(DATA / "classic.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == out
