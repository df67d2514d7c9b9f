"""CLI surface: envelopes, exit codes, and the verify roundtrip."""

import json
import os
import subprocess
import sys

import pytest

from lpregroup import decide, term
from lpregroup.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_valid_envelope(capsys):
    code, out, _ = run(capsys, "decide", "--theory", "fnz", "--n", "1",
                       "--complete", "1 <= x^(-1) x")
    assert code == 0
    env = json.loads(out)
    assert env["verdict"] == "valid"
    assert env["theory"] == "fnz"
    assert env["n"] == 1
    assert env["mode"] == "complete"
    assert env["witness"] is None
    assert env["stats"]["failing_candidates"] == 0


def test_decide_fails_and_verify_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "decide", "--theory", "lpn", "--n", "2",
                       "x^l = x^r")
    assert code == 1
    env = json.loads(out)
    assert env["verdict"] == "fails" and env["witness"]
    path = tmp_path / "w.json"
    path.write_text(out)

    code, out, _ = run(capsys, "verify", str(path), "x^l = x^r")
    assert code == 0
    assert json.loads(out)["verified"] is True

    # same witness does not defeat an unrelated valid equation
    code, out, _ = run(capsys, "verify", str(path), "1 <= x x^l")
    assert code == 1
    assert json.loads(out)["verified"] is False


def test_verify_accepts_bare_witness_json(capsys, tmp_path):
    code, out, _ = run(capsys, "decide", "--theory", "fnz", "--n", "1",
                       "1 <= x")
    assert code == 1
    bare = json.loads(out)["witness"]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(bare))
    code, out, _ = run(capsys, "verify", str(path), "1 <= x")
    assert code == 0 and json.loads(out)["verified"] is True


@pytest.mark.parametrize("argv", [
    ("decide", "--theory", "fnz", "--n", "1", "--complete", "1 <= x^(-1) x"),
    ("oracle", "--theory", "lex", "--n", "1", "--budget", "50",
     "1 <= x^(-1) x"),
], ids=["valid-verdict", "oracle-miss"])
def test_verify_says_the_file_holds_no_witness(capsys, tmp_path, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["witness"] is None
    path = tmp_path / "none.json"
    path.write_text(out)
    code, out, err = run(capsys, "verify", str(path), "1 <= x^(-1) x")
    assert code == 3 and out == ""
    assert f"{path} holds no witness" in err, err


@pytest.mark.parametrize("index", [7, -1])
def test_verify_names_an_out_of_range_conjunct(capsys, tmp_path, index):
    code, out, _ = run(capsys, "decide", "--theory", "lpn", "--n", "1",
                       "x y = y x")
    assert code == 1
    env = json.loads(out)
    env["witness"]["conjunct"] = index
    path = tmp_path / "w.json"
    path.write_text(json.dumps(env))
    code, out, _ = run(capsys, "verify", str(path), "x y = y x")
    assert code == 1
    assert json.loads(out)["reason"] == (f"conjunct {index} out of range: "
                                         "the equation has 2 conjuncts")


def test_verify_refuses_a_string_for_an_array(capsys, tmp_path):
    # "" iterates like [], so x would load as the same identity global part
    code, out, _ = run(capsys, "decide", "--theory", "lpn", "--n", "1",
                       "x y = y x")
    assert code == 1
    env = json.loads(out)
    x = env["witness"]["assignment"]["x"]
    assert x["tilde"] == []
    x["tilde"] = ""
    path = tmp_path / "w.json"
    path.write_text(json.dumps(env))
    code, out, err = run(capsys, "verify", str(path), "x y = y x")
    assert code == 3
    assert out == "" and err


def test_normalize_moves_terms_across(capsys):
    code, out, _ = run(capsys, "normalize", "x <= 1")
    assert code == 0
    assert out.splitlines() == ["1 <= x^(-1)"]


def test_normalize_long_inverse_chain(capsys):
    # one Inv node per "^l": the chain must not cost a stack frame each
    eq = "x" + "^l" * 1500 + " <= x"
    code, out, _ = run(capsys, "normalize", eq)
    assert code == 0
    assert out.splitlines() == ["1 <= x^(1499) x"]
    parsed = term.parse(eq)
    assert term.equation_size(parsed) == 1502
    assert term.variables(parsed.lhs) == {"x"}


def test_normalize_trivial_prints_nothing(capsys):
    code, out, _ = run(capsys, "normalize", "1 <= 1 | x")
    assert code == 0 and out == ""


def test_oracle_hit_and_miss(capsys):
    code, out, _ = run(capsys, "oracle", "--theory", "lex", "--n", "1",
                       "--budget", "500", "x y = y x")
    assert code == 1
    assert json.loads(out)["witness"] is not None

    code, out, _ = run(capsys, "oracle", "--theory", "fnz", "--n", "1",
                       "--budget", "300", "1 <= x^(-1) x")
    assert code == 0
    assert json.loads(out)["witness"] is None


def test_oracle_seed_flag(capsys):
    code, out, _ = run(capsys, "oracle", "--theory", "fnz", "--n", "1",
                       "--budget", "10", "--seed", "3", "1 <= x")
    assert json.loads(out)["seed"] == 3


def test_oracle_output_deterministic_under_seed(capsys):
    argv = ["oracle", "--theory", "fnz", "--n", "2", "--budget", "200",
            "--seed", "11", "x y z = z y x"]
    _, a, _ = run(capsys, *argv)
    _, b, _ = run(capsys, *argv)
    assert a == b


def test_budget_exhaustion_exit_code(capsys):
    code, out, _ = run(capsys, "decide", "--theory", "fnz", "--n", "1",
                       "--complete", "--budget", "200",
                       "1 <= x^(-1) y | y^(-1) z | z^(-1) x")
    assert code == 2
    assert json.loads(out)["verdict"] == "unknown-budget-exhausted"


def test_long_product_fails_without_a_traceback(capsys):
    # 1,101 points, so a search path deeper than the recursion limit
    eq = "1 <= " + " ".join(f"x{i}" for i in range(1100))
    code, out, err = run(capsys, "decide", "--theory", "fnz", "--n", "1", eq)
    assert code == 1, err
    assert json.loads(out)["verdict"] == "fails"


def test_dlp_paths(capsys):
    code, out, _ = run(capsys, "decide", "--theory", "lpn", "--n", "1",
                       "1 <= x")
    assert code == 1
    assert json.loads(out)["n"] == 1

    # complete mode runs at the reduced period 2^6 * 6^4
    code, out, _ = run(capsys, "decide", "--theory", "dlp", "--complete",
                       "x y = y x")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "fails" and data["n"] == 82_944
    w = decide.witness_from_json(data["witness"])
    assert decide.verify_witness("x y = y x", w)


def test_dlp_period_past_the_int_to_str_limit_exits_three(capsys,
                                                          monkeypatch):
    # size 14,230: the period 2^s * s^4 has 4,301 digits, one past
    # Python's default int-to-str limit, which the envelope would hit
    # after the search (exit 4 with a traceback); refused before it
    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(decide, "decide_dlp", no_search)
    code, out, err = run(capsys, "decide", "--theory", "dlp", "--budget",
                         "100", "1 <= x^(14226) x")
    assert code == 3 and out == ""
    assert "Traceback" not in err
    assert "s = 14230" in err and "4301 digits" in err and "4300" in err
    # an exponent of 400 digits, past what a float holds
    code, _, err = run(capsys, "decide", "--theory", "dlp",
                       f"1 <= x^({'9' * 400}) x")
    assert code == 3 and "at least" in err and "Traceback" not in err
    monkeypatch.undo()

    code, out, err = run(capsys, "decide", "--theory", "dlp", "--budget",
                         "100", "1 <= x^(14225) x")
    assert code == 2, err
    assert json.loads(out)["n"] == 2 ** 14229 * 14229 ** 4


_DLP_HUGE = """
import contextlib, io, resource
from lpregroup import cli
limit = 512 * 1024 * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = cli.main(["decide", "--theory", "dlp", "--budget", "100",
                     "1 <= x^(100000000000) x"])
print(code, "Traceback" in err.getvalue(), "DLP_MAX_SIZE" in err.getvalue())
"""


def test_dlp_size_past_the_bound_exits_three_with_the_limit_off():
    # with no int-to-str limit the digit check passes, and building the
    # period 2^s * s^4 raised MemoryError (exit 4) under this limit
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="0",
               PYTHONPATH=os.path.dirname(os.path.dirname(decide.__file__)))
    proc = subprocess.run([sys.executable, "-c", _DLP_HUGE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3", "False", "True"]


def test_complete_warning_only_without_a_budget(capsys):
    argv = ("decide", "--theory", "dlp", "--complete", "1 <= x")
    assert "warning" in run(capsys, *argv)[2]
    code, _, err = run(capsys, *argv, "--budget", "1000")
    assert code == 1 and err == ""


@pytest.mark.parametrize("argv", [
    ("decide", "--theory", "fnz", "1 <= x"),              # missing --n
    ("decide", "--theory", "dlp", "--n", "2", "1 <= x"),  # dlp owns its n
    ("decide", "--theory", "fnz", "--n", "1",
     "--n-override", "2", "1 <= x"),                      # no such option
    ("decide", "--theory", "nope", "--n", "1", "1 <= x"),
    ("decide", "--theory", "fnz", "--n", "1", "1 <= )("),
    ("decide", "--theory", "fnz", "--n", "0", "1 <= x"),
    ("verify", "/nonexistent/w.json", "1 <= x"),
    ("decide", "--theory", "fnz", "--n", "1",
     "(" * 2000 + "x" + ")" * 2000 + " <= x"),            # nested too deep
    ("decide", "--theory", "fnz", "--n", "1",
     "--jobs", "2", "1 <= x"),                            # no such option
    ("decide", "--theory", "fnz", "--n", "1",
     "--budget", "-5", "1 <= x"),                         # negative budget
    ("oracle", "--theory", "fnz", "--n", "1",
     "--budget", "-3", "1 <= x"),                         # negative budget
    ("decide", "--theory", "dlp", "--n-override", "1",
     "--complete", "x^(2) = x"),                          # no such option
])
def test_config_errors_exit_three(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err


@pytest.mark.parametrize("error", [RuntimeError, KeyError, ValueError])
def test_internal_error_exits_four(capsys, monkeypatch, error):
    # input errors are caught where the input is read; the same exception
    # types raised from inside the search are internal
    from lpregroup import decide

    def broken(*args, **kwargs):
        raise error("simulated internal error")

    monkeypatch.setattr(decide, "decide_fnz", broken)
    code, out, err = run(capsys, "decide", "--theory", "fnz", "--n", "1",
                         "1 <= x")
    assert code == 4
    assert out == ""
    assert "Traceback" in err and "simulated internal error" in err


# x(z) = z - 1 at n = 1 and on block 0 of Q x Z: both fail 1 <= x at 0
_FNZ_BODY = ('{"space": "FnZ", "n": 1, "assignment": {"x": '
             '{"n": 1, "steps": [[0, -1]]}}, "point": 0}')
_FNQXZ_BODY = ('{"space": "FnQxZ", "n": 1, "assignment": {"x": {"n": 1, '
               '"tilde": [], "components": [{"j": "0", '
               '"fn": {"n": 1, "steps": [[0, -1]]}}]}}, '
               '"point": {"q": "0", "z": 0}}')


@pytest.mark.parametrize("body", [_FNZ_BODY, _FNQXZ_BODY],
                         ids=["FnZ", "FnQxZ"])
def test_unbroken_witness_file_verifies(capsys, tmp_path, body):
    # the control for the malformed files below: each of those breaks
    # one field of one of these
    path = tmp_path / "ok.json"
    path.write_text(body)
    code, out, err = run(capsys, "verify", str(path), "1 <= x")
    assert code == 0 and json.loads(out)["verified"] and not err


@pytest.mark.parametrize("body,reason", [
    ('{"space": "FnZ"}', "KeyError('n')"),
    ('[]', "TypeError"),
    (_FNZ_BODY.replace('{"n": 1, "steps": [[0, -1]]}', '5'),
     "not subscriptable"),
    (_FNZ_BODY.replace('"point": 0', '"point": null'),
     "got None"),
    (_FNQXZ_BODY.replace('"FnQxZ"', '"Z"'), "unknown space 'Z'"),
    ('{"space": "FnZ", "n": 1, "assignment": {"x": {"n": 2, "steps":'
     ' [[1, -2]]}, "y": {"n": 2, "steps": [[0, -2], [1, 0]]}}, "point": 1,'
     ' "conjunct": 0}', "x has period 2"),
    (_FNQXZ_BODY.replace('"tilde": []', '"tilde": [["0", "0"], ["1", "0"]]'),
     "anchors must increase"),
    (_FNQXZ_BODY.replace('"tilde": []', '"tilde": [["0"]]'), "an anchor is"),
    (_FNZ_BODY.replace('[[0, -1]]', '[[0, -1.5]]'), "got -1.5"),
    (_FNZ_BODY.replace('"point": 0', '"point": true'), "got True"),
    (_FNQXZ_BODY.replace('"q": "0"', '"q": "1/0"'), "ZeroDivisionError"),
    (_FNQXZ_BODY.replace('"j": "0"', '"j": true'), "got True"),
    (_FNQXZ_BODY.replace('"q": "0"', '"q": 0.0'), "got 0.0"),
    (_FNZ_BODY.replace('"n": 1, "steps": [[0, -1]]',
                       '"n": 2, "steps": [[1, 0], [0, -1]]'),
     "residues must increase"),
    (_FNZ_BODY.replace('"n": 1, "steps": [[0, -1]]',
                       '"n": 2, "steps": [[0, -1], [1, 2]]'),
     "period window"),
    (_FNZ_BODY.replace('[[0, -1]]', '[[0, -1, 2]]'), "a step is"),
    # the global part's earlier breakpoints-and-pieces form
    (_FNQXZ_BODY.replace('"tilde": []', '"tilde": {"breakpoints": [], '
                         '"pieces": [{"slope": "1", "intercept": "0"}]}'),
     "expected an array"),
], ids=["missing-fields", "list", "bad-function", "null-point",
        "unknown-space", "wrong-period", "falling-anchors", "short-anchor",
        "float-value", "bool-point", "zero-denominator", "bool-block",
        "float-point", "unsorted-steps", "step-window", "long-step",
        "pieces-form"])
def test_malformed_witness_file_exits_three(capsys, tmp_path, body, reason):
    path = tmp_path / "junk.json"
    path.write_text(body)
    code, _, err = run(capsys, "verify", str(path), "1 <= x")
    assert code == 3 and reason in err, err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "decide", "--help")[0] == 0


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "lpregroup.cli", "decide", "--theory",
         "fnz", "--n", "2", "1 <= x"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["verdict"] == "fails"


def test_closed_stdout_keeps_the_verdict_exit_code():
    # the reader is gone before anything is written, as after `| head`
    # has read its lines; the decided fails must still exit 1, silently
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lpregroup.cli", "decide", "--theory",
             "fnz", "--n", "1", "1 <= x"],
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
