"""CLI surface: envelopes, exit codes, and the verify roundtrip."""

import json
import subprocess
import sys

import pytest

from lpregroup import term
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


def test_oracle_seed_from_env(capsys, monkeypatch):
    monkeypatch.setenv("LPG_SEED", "17")
    code, out, _ = run(capsys, "oracle", "--theory", "fnz", "--n", "1",
                       "--budget", "10", "1 <= x")
    assert json.loads(out)["seed"] == 17
    # explicit flag wins
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
                       "--complete", "--budget", "200", "x^l = x^r")
    assert code == 2
    assert json.loads(out)["verdict"] == "unknown-budget-exhausted"


def test_dlp_paths(capsys):
    code, out, _ = run(capsys, "decide", "--theory", "dlp",
                       "--n-override", "1", "1 <= x")
    assert code == 1
    assert json.loads(out)["n"] == 1

    code, _, err = run(capsys, "decide", "--theory", "dlp", "--complete",
                       "x y = y x")
    assert code == 3
    assert "n_override" in err or "impractical" in err


@pytest.mark.parametrize("argv", [
    ("decide", "--theory", "fnz", "1 <= x"),              # missing --n
    ("decide", "--theory", "dlp", "--n", "2", "1 <= x"),  # dlp owns its n
    ("decide", "--theory", "fnz", "--n", "1",
     "--n-override", "2", "1 <= x"),                      # override off dlp
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
])
def test_config_errors_exit_three(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err


def test_internal_error_exits_four(capsys, monkeypatch):
    from lpregroup import decide

    def broken(*args, **kwargs):
        raise RuntimeError("simulated internal error")

    monkeypatch.setattr(decide, "decide_fnz", broken)
    code, out, err = run(capsys, "decide", "--theory", "fnz", "--n", "1",
                         "1 <= x")
    assert code == 4
    assert out == ""
    assert "Traceback" in err and "simulated internal error" in err


@pytest.mark.parametrize("body", [
    '{"space": "FnZ"}',
    '[]',
    '{"space": "FnZ", "n": 1, "assignment": {"x": 5}, "point": 0}',
    '{"space": "FnZ", "n": 1, "assignment": {"x": {"n": 1, "vals": [-1]}},'
    ' "point": null}',
    '{"space": "Z", "n": 1, "assignment": {"x": {"n": 1, "tilde":'
    ' {"breakpoints": [], "pieces": [{"slope": "1", "intercept": "0"}]},'
    ' "components": [{"j": "0", "fn": {"n": 1, "vals": [-1]}}]}},'
    ' "point": {"q": "0", "z": 0}}',
    '{"space": "FnZ", "n": 1, "assignment": {"x": {"n": 2, "vals":'
    ' [-2, -2]}, "y": {"n": 2, "vals": [-2, 0]}}, "point": 1,'
    ' "conjunct": 0}',
    '{"space": "FnQxZ", "n": 1, "assignment": {"y": {"n": 1, "tilde":'
    ' {"breakpoints": ["0"], "pieces": [{"slope": "1", "intercept": "-1"},'
    ' {"slope": "5", "intercept": "-1"}]}, "components": []}},'
    ' "point": {"q": "1", "z": 1}}',
    '{"space": "FnQxZ", "n": 1, "assignment": {"y": {"n": 1, "tilde":'
    ' {"breakpoints": ["0"], "pieces": [{"slope": "1", "intercept": "-1"},'
    ' {"slope": "1", "intercept": "3"}]}, "components": []}},'
    ' "point": {"q": "1", "z": 1}}',
], ids=["missing-fields", "list", "bad-function", "null-point",
        "unknown-space", "wrong-period", "bent-tail", "broken-piece"])
def test_malformed_witness_file_exits_three(capsys, tmp_path, body):
    path = tmp_path / "junk.json"
    path.write_text(body)
    code, _, err = run(capsys, "verify", str(path), "1 <= x")
    assert code == 3 and err


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
