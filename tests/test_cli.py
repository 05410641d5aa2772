"""End-to-end CLI coverage: output shapes, exit codes, determinism, env
seeding, and file input/output."""

import csv
import inspect
import io
import json
import subprocess
import sys

import pytest

from meanlab import CharacterizationConfig, CheckConfig, rational_sandwich, recover_exponent
from meanlab.cli import _check_settings, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ── eval ──────────────────────────────────────────────────────────────────────


def test_eval_prints_the_bare_value(capsys):
    code, out, _ = run_cli(capsys, "eval", "--builtin", "p=2",
                           "--w", "0.5,0.5", "--x", "1,7")
    assert code == 0
    assert float(out.strip()) == 5.0


def test_eval_geometric_and_dsl(capsys):
    code, out, _ = run_cli(capsys, "eval", "--builtin", "0",
                           "--w", "0.5,0.5", "--x", "4,9")
    assert code == 0 and float(out.strip()) == 6.0
    code, out, _ = run_cli(capsys, "eval", "--dsl", "sum(w*x^2)^0.5",
                           "--w", "0.5,0.5", "--x", "1,7")
    assert code == 0 and float(out.strip()) == 5.0


def test_eval_json_format(capsys):
    code, out, _ = run_cli(capsys, "eval", "--builtin", "inf",
                           "--w", "0.5,0.5,0", "--x", "1,2,5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2.0
    assert payload["system"] == "power_mean[p=inf]"


def test_eval_csv_format(capsys):
    code, out, _ = run_cli(capsys, "eval", "--builtin", "1",
                           "--w", "1", "--x", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["record", "field", "value"]
    cells = {(r[0], r[1]): r[2] for r in rows[1:]}
    assert cells[("report", "value")] == "3.0"


def test_eval_input_file(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"w": [0.5, 0.5], "x": [1, 7]}))
    code, out, _ = run_cli(capsys, "eval", "--builtin", "2", "--input", str(path))
    assert code == 0 and float(out.strip()) == 5.0


def test_eval_output_file(tmp_path, capsys):
    path = tmp_path / "out.txt"
    code, out, _ = run_cli(capsys, "eval", "--builtin", "2",
                           "--w", "0.5,0.5", "--x", "1,7", "--output", str(path))
    assert code == 0 and out == ""
    assert float(path.read_text().strip()) == 5.0


# ── usage and evaluation errors ───────────────────────────────────────────────


def test_dsl_parse_error_reports_position_and_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--dsl", "sum(w*",
                           "--w", "1", "--x", "1")
    assert code == 2
    assert "line 1" in err and "column" in err


def test_bad_weights_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--builtin", "2",
                           "--w", "0.5,0.6", "--x", "1,2")
    assert code == 2 and "sum" in err


def test_unparsable_weights_exit_2(capsys):
    code, out, err = run_cli(capsys, "eval", "--builtin", "2", "--w", "abc", "--x", "1")
    assert (code, out) == (2, "")
    assert err == "meanlab: bad --w list 'abc': could not convert string to float: 'abc'\n"


def test_bad_builtin_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--builtin", "two",
                           "--w", "1", "--x", "1")
    assert code == 2


def test_missing_vectors_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--builtin", "2")
    assert code == 2 and "--input" in err


def test_malformed_input_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "eval", "--builtin", "2", "--input", str(path))
    assert code == 2
    path.write_text(json.dumps({"w": [1.0]}))  # x missing
    code, _, _ = run_cli(capsys, "eval", "--builtin", "2", "--input", str(path))
    assert code == 2


def test_runtime_evaluation_error_exits_1(capsys):
    code, _, err = run_cli(capsys, "eval", "--dsl", "sum(w/x)",
                           "--w", "1", "--x", "0")
    assert code == 1 and "evaluation failed" in err


def test_eval_system_value_error_exits_1(capsys):
    # math.fsum raises ValueError on inf + -inf inside the system; the DSL
    # reports it as an evaluation error.
    code, out, err = run_cli(capsys, "eval", "--dsl", "sum(w*(x-1)*1e300*1e300)",
                             "--w", "0.5,0.5", "--x", "0,2")
    assert code == 1 and out == "" and "evaluation failed" in err


def test_eval_length_mismatch_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--dsl", "sum(w*x)",
                           "--w", "0.5,0.5", "--x", "1,2,3")
    assert code == 2 and "length mismatch" in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    path = str(tmp_path / "missing" / "out.json")
    for argv in (["eval", "--builtin", "2", "--w", "1", "--x", "1"],
                 ["axioms", "--builtin", "2", "--trials", "5"]):
        code, out, err = run_cli(capsys, *argv, "--output", path)
        assert code == 2 and out == "", argv
        assert err.startswith(f"meanlab: cannot write --output {path!r}: "), argv


@pytest.mark.parametrize("source", ["sum(" + "(" * 3000 + "w*x" + ")" * 3000 + ")",
                                    "sum(w*x" + "^1" * 3000 + ")",
                                    "sum(w*x)" + "+1" * 3000],
                         ids=["parens", "powers", "chain"])
def test_deeply_nested_dsl_exits_2(capsys, source):
    code, out, err = run_cli(capsys, "eval", "--dsl", source, "--w", "1", "--x", "1")
    assert code == 2 and out == ""
    assert err.startswith("meanlab: bad --dsl expression: expression nests deeper "
                          "than 100 levels at line 1, column ")


def test_usage_errors_from_argparse_exit_2(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["axioms"]) == 2  # a system is required
    capsys.readouterr()


@pytest.mark.parametrize("command, flag, value, code", [
    ("eval", "--builtin", "-inf", 0),
    ("eval", "--dsl", "-sum(w*x)+2*sum(w*x)", 0),
    ("characterize", "--builtin", "-1e3", 1),  # degenerate: p <= 0 annihilates zero
])
def test_system_values_starting_with_a_dash(capsys, command, flag, value, code):
    rest = ["--w", "0.5,0.5", "--x", "1,3"] if command == "eval" else []
    joined = run_cli(capsys, command, f"{flag}={value}", *rest)
    assert joined[0] == code
    assert run_cli(capsys, command, flag, value, *rest) == joined


def test_parser_defaults_are_the_librarys(monkeypatch):
    monkeypatch.delenv("MEANLAB_SEED", raising=False)

    def parse(*argv):
        return build_parser().parse_args([*argv, "--builtin", "2"])

    def signature_default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert CheckConfig(**_check_settings(parse("axioms"), CheckConfig)) == CheckConfig()
    characterize, config = parse("characterize"), CharacterizationConfig()
    assert CharacterizationConfig(
        **_check_settings(characterize, CharacterizationConfig),
        deltas=tuple(map(float, characterize.delta.split(","))),
        weight_denominator_max=characterize.max_denominator,
        sample_count=characterize.samples) == config
    assert parse("recover").samples == signature_default(recover_exponent, "sample_count")
    assert parse("sandwich", "--delta", "0.1").max_denominator \
        == signature_default(rational_sandwich, "max_denominator")


# ── axioms ────────────────────────────────────────────────────────────────────


def test_axioms_pass_for_an_honest_builtin(capsys):
    code, out, _ = run_cli(capsys, "axioms", "--builtin", "2",
                           "--trials", "50", "--seed", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["seed"] == 4
    assert len(payload["checks"]) == 10


def test_axioms_convexity_counterexample_for_sqrt_mean(capsys):
    code, out, _ = run_cli(capsys, "axioms", "--builtin", "p=0.5",
                           "--trials", "50", "--seed", "42")
    assert code == 1
    payload = json.loads(out)
    convexity = next(c for c in payload["checks"]
                     if c["property_name"] == "convexity")
    assert convexity["passed"] is False
    ce = convexity["counterexample"]
    assert ce["w"] == [0.5, 0.5]
    assert ce["x"] == [1.0, 0.0]
    assert ce["aux"]["y"] == [0.0, 1.0]
    assert ce["lhs"] == 0.5 and ce["rhs"] == 0.25


def test_axioms_positive_weights_flag(capsys):
    code, out, _ = run_cli(capsys, "axioms", "--builtin", "2",
                           "--trials", "30", "--positive-weights")
    assert code == 0
    payload = json.loads(out)
    assert payload["positive_weights_only"] is True
    zero_weight = next(c for c in payload["checks"]
                       if c["property_name"] == "zero_weight")
    assert zero_weight["trials"] == 0 and "not applicable" in zero_weight["note"]


def test_axioms_reports_are_byte_identical(tmp_path, capsys):
    args = ["axioms", "--builtin", "2", "--trials", "40", "--seed", "9"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert main(args + ["--format", "csv", "--output", str(c)]) == 0
    assert main(args + ["--format", "csv", "--output", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()
    capsys.readouterr()


def test_axioms_csv_has_one_record_per_check(capsys):
    code, out, _ = run_cli(capsys, "axioms", "--builtin", "1",
                           "--trials", "20", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    records = {r[0] for r in rows[1:]}
    assert "checks:convexity" in records and "report" in records


def test_seed_env_var_default(capsys, monkeypatch):
    monkeypatch.setenv("MEANLAB_SEED", "31")
    code, out, _ = run_cli(capsys, "axioms", "--builtin", "2", "--trials", "20")
    assert code == 0 and json.loads(out)["seed"] == 31
    # an explicit flag wins over the environment
    code, out, _ = run_cli(capsys, "axioms", "--builtin", "2",
                           "--trials", "20", "--seed", "5")
    assert json.loads(out)["seed"] == 5
    monkeypatch.setenv("MEANLAB_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "axioms", "--builtin", "2", "--trials", "20")
    assert code == 2 and "MEANLAB_SEED" in err


# ── recover / characterize / sandwich ─────────────────────────────────────────


def test_recover_builtin(capsys):
    code, out, _ = run_cli(capsys, "recover", "--builtin", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["exponent"] == "3.0"
    assert payload["degenerate_zero"] is False
    assert len(payload["samples"]) == 31


def test_recover_degenerate_exits_1(capsys):
    code, out, _ = run_cli(capsys, "recover", "--builtin", "0")
    assert code == 1
    assert json.loads(out)["degenerate_zero"] is True


def test_recover_invalid_probe_exits_1(capsys):
    code, _, err = run_cli(capsys, "recover", "--dsl", "sum(w*x)+1")
    assert code == 1 and "recovery failed" in err


def test_recover_too_few_samples_exits_2(capsys):
    code, out, err = run_cli(capsys, "recover", "--builtin", "2", "--samples", "1")
    assert code == 2 and out == "" and "two sample points" in err


def test_recover_samples_past_normal_probe_weights_exit_2(capsys):
    code, out, err = run_cli(capsys, "recover", "--builtin", "2", "--samples", "7084")
    assert (code, out) == (2, "")
    assert err == "meanlab: need at least two sample points and at most 7083\n"
    code, out, _ = run_cli(capsys, "recover", "--builtin", "2", "--samples", "7083")
    assert code == 0 and json.loads(out)["exponent"] == "2.0"


def test_characterize_consistent_builtin(capsys):
    code, out, _ = run_cli(capsys, "characterize", "--builtin", "2",
                           "--trials", "40", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "consistent"
    assert [s["name"] for s in payload["stages"]] == ["uniform", "rational", "sandwich"]


def test_characterize_blend_exits_1(capsys):
    code, out, _ = run_cli(capsys, "characterize", "--dsl",
                           "(sum(w*x)+sum(w*x^2)^0.5)/2", "--trials", "40")
    assert code == 1
    assert json.loads(out)["verdict"] == "counterexample"


def test_characterize_degenerate_exits_1(capsys):
    code, out, _ = run_cli(capsys, "characterize", "--dsl", "min(x*w^0)",
                           "--trials", "20")
    assert code == 1
    assert json.loads(out)["verdict"] == "degenerate"


def test_characterize_out_of_range_settings_exit_2(capsys):
    # A stage cannot use any of these; each must be a usage error.
    for flags in (["--rel-tol", "nan"], ["--slack", "nan"],
                  ["--max-denominator", "1"], ["--max-denominator", "3000000"],
                  ["--delta", "0.5"], ["--delta", "1e-7"], ["--samples", "1"],
                  ["--samples", "7084"]):
        code, out, err = run_cli(capsys, "characterize", "--dsl", "sum(w*x^2)", *flags)
        assert code == 2 and out == "" and err.startswith("meanlab: "), flags


def test_sandwich_ordered_exits_0(capsys):
    code, out, _ = run_cli(capsys, "sandwich", "--builtin", "2",
                           "--w", "0.318309886,0.681690114", "--x", "1,2",
                           "--delta", "0.01")
    assert code == 0
    payload = json.loads(out)
    assert payload["ordered"] is True
    assert payload["denominator"] == 200
    assert payload["value_lower"] <= payload["value_at"] <= payload["value_upper"]


def test_sandwich_bad_delta_exits_2(capsys):
    code, _, _ = run_cli(capsys, "sandwich", "--builtin", "2",
                         "--w", "0.5,0.5", "--x", "1,2", "--delta", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "sandwich", "--builtin", "2",
                           "--w", "0.5,0.5", "--x", "1,2", "--delta", "1e-9",
                           "--max-denominator", "100")
    assert code == 2 and "denominator" in err
    code, _, err = run_cli(capsys, "sandwich", "--builtin", "2",
                           "--w", "0.5,0.5", "--x", "1,2,3", "--delta", "0.1")
    assert code == 2 and "length" in err
    # checked before the system runs, so a raising system changes nothing
    code, _, err = run_cli(capsys, "sandwich", "--dsl", "sum(w*(x-1)*1e300*1e300)",
                           "--w", "0.5,0.5", "--x", "0,2", "--delta", "0")
    assert code == 2 and "delta" in err


def test_sandwich_system_value_error_exits_1(capsys):
    code, out, err = run_cli(capsys, "sandwich", "--dsl", "sum(w*(x-1)*1e300*1e300)",
                             "--w", "0.5,0.5", "--x", "0,2", "--delta", "0.1")
    assert code == 1 and out == "" and err.startswith("meanlab: evaluation failed: ")


_HOSTILE = "sum(w*(x-1)*1e300*1e300)"


@pytest.mark.parametrize("argv", [["axioms", "--trials", "30"], ["recover"],
                                  ["characterize", "--trials", "20"]],
                         ids=lambda argv: argv[0])
def test_hostile_dsl_fails_with_the_error_recorded(capsys, argv):
    # Its terms overflow to -inf (or to both infinities, which fsum rejects)
    # wherever a value differs from 1.
    code, out, err = run_cli(capsys, *argv, "--dsl", _HOSTILE)
    assert code == 1
    if argv[0] == "recover":
        assert out == "" and err == "meanlab: evaluation failed: non-finite result -inf\n"
        return
    assert err == ""
    payload = json.loads(out)
    assert payload["passed"] is False
    if argv[0] == "characterize":
        assert payload["note"] == "probe evaluation failed: non-finite result -inf"
        return
    for check in payload["checks"]:
        assert not check["passed"]
        assert check["counterexample"]["aux"]["error"] in (
            "non-finite result -inf", "-inf + inf in fsum")


@pytest.mark.parametrize("argv", [["eval", "--w", "0.5,0.5", "--x", "0,2"],
                                  ["axioms", "--trials", "20"], ["recover"],
                                  ["characterize", "--trials", "20"],
                                  ["sandwich", "--w", "0.5,0.5", "--x", "0,2", "--delta", "0.1"]],
                         ids=lambda argv: argv[0])
def test_infinite_literals_fail_without_a_traceback(capsys, argv):
    # 1e999 parses to inf, and the system's label prints it back as 1e999.
    for source in ("sum(w*x)+1e999-1e999", "sum(w*x*1e999)"):
        code, out, err = run_cli(capsys, *argv, "--dsl", source)
        assert code == 1, source
        if out:
            assert json.loads(out)["system"] in ("sum(w*x) + 1e999 - 1e999", "sum(w*x*1e999)")
        else:
            assert err.startswith("meanlab: evaluation failed: "), source


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "meanlab.cli", "eval", "--builtin", "2",
         "--w", "0.5,0.5", "--x", "1,7"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == 5.0
