"""CLI behavior: output shapes, JSON round-trips, exit codes."""
import contextlib
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tornheim.cli import main
from tornheim.closedform import KNOWN_VALUES
from tornheim.exact import expression_from_json, expression_to_json
from tornheim.reduction import reduction_from_json, theorem1_reduce


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------

def test_eval_closed_form_human(capsys):
    rc, out, _ = run(capsys, "eval", "R", "1", "1", "1")
    assert rc == 0
    assert "R[1,1,1] = -(5/8)*zeta(3) ≈ -0.7512855644747464283748363509" in out


def test_eval_closed_form_json(capsys):
    rc, out, _ = run(capsys, "eval", "R", "1", "1", "1", "--format", "json")
    assert rc == 0
    blob = json.loads(out)
    assert blob["route"] == "closed-form"
    assert expression_from_json(blob["expression"]) == KNOWN_VALUES[("R", 1, 1, 1)]
    assert blob["value"].startswith("-0.751285564474746428374836350")
    assert blob["provenance"][0]["rule"] == "depth-2-reduction"


def test_eval_q_analog_reports_tail_bound(capsys):
    rc, out, _ = run(capsys, "eval", "T", "2", "1", "2", "--q", "2", "--digits", "30")
    assert rc == 0
    assert "q = 2" in out
    assert "tail bound <=" in out


def test_eval_q_analog_json(capsys):
    rc, out, _ = run(capsys, "eval", "T", "2", "1", "2", "--q", "2",
                     "--format", "json")
    assert rc == 0
    blob = json.loads(out)
    assert blob["route"] == "numeric"
    assert blob["expression"] is None
    assert blob["q"] == "2"
    assert blob["terms"] > 0
    assert float(blob["tail_bound"]) < 1e-30


def test_eval_divergent_names_inequality(capsys):
    rc, _, err = run(capsys, "eval", "T", "1", "1", "0")
    assert rc == 2
    assert "s + t > 1" in err


def test_eval_even_weight_numeric_only(capsys):
    rc, out, _ = run(capsys, "eval", "T", "2", "1", "1")
    assert rc == 0
    assert "no closed form, numeric only" in out
    assert "1.3529040421389227" in out


def test_eval_sign_flags_map_to_variants(capsys):
    rc, out_r, _ = run(capsys, "eval", "R", "1", "2", "1")
    rc2, out_swapped, _ = run(capsys, "eval", "T", "2", "1", "1", "--signs=-+")
    assert rc == rc2 == 0
    assert out_r == out_swapped
    rc3, out_s, _ = run(capsys, "eval", "T", "1", "1", "1", "--signs=--")
    rc4, out_s2, _ = run(capsys, "eval", "S", "1", "1", "1")
    assert rc3 == rc4 == 0
    assert out_s == out_s2


def test_eval_signs_reject_non_t_series(capsys):
    rc, _, err = run(capsys, "eval", "R", "1", "1", "1", "--signs=+-")
    assert rc == 2
    assert "series T only" in err


def test_eval_zeta2_closed(capsys):
    rc, out, _ = run(capsys, "eval", "zeta2", "4", "1")
    assert rc == 0
    assert "zeta[4,1] = 2*zeta(5) - (1/6)*pi^2*zeta(3)" in out


def test_eval_zeta2_signed(capsys):
    rc, out, _ = run(capsys, "eval", "zeta2", "2", "1", "--signs=+-")
    assert rc == 0
    assert "zeta[2,1-] = zeta(3) - (1/4)*pi^2*log2" in out


def test_eval_zeta2_even_weight(capsys):
    rc, out, _ = run(capsys, "eval", "zeta2", "3", "1")
    assert rc == 0
    assert "no closed form, numeric only" in out


def test_eval_qzeta(capsys):
    rc, out, _ = run(capsys, "eval", "qzeta", "2", "--q", "3/2", "--signs=-")
    assert rc == 0
    assert "zq[2-], q = 3/2" in out
    assert "tail bound <=" in out


def test_eval_qzeta_requires_q(capsys):
    rc, _, err = run(capsys, "eval", "qzeta", "2")
    assert rc == 2
    assert "--q" in err


def test_eval_argument_errors(capsys):
    assert run(capsys, "eval", "T", "1", "1")[0] == 2           # arity
    assert run(capsys, "eval", "T", "x", "1", "1")[0] == 2      # not rational
    assert run(capsys, "eval", "T", "1", "1", "1", "--q", "1")[0] == 2  # q > 1


MALFORMED_NUMBER_ARGV = [
    ("eval", "T", "1", "1", "1", "--q", "abc"),
    ("eval", "T", "1", "1", "1", "--q", "1/0"),
    ("eval", "qzeta", "2", "--q", "x"),
    ("verify", "theorem1", "--q", "abc"),
    ("verify", "theorem1", "--tolerance", "abc"),
    ("verify", "lemma1", "--max", "0"),
    ("verify", "lemma1", "--max", "-1"),
]
MALFORMED_EXPRESSIONS = [
    '[1]', '{"a":1}', '"abc"', '[{"coeff":"x"}]', '[{"coeff":"1","pi":"x"}]',
]


@pytest.mark.parametrize(
    "argv",
    MALFORMED_NUMBER_ARGV
    + [("verify", "expr", "R", "1", "1", "1", "--expression", e)
       for e in MALFORMED_EXPRESSIONS],
)
def test_malformed_numbers_and_json_exit_2(capsys, argv):
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


_NUMBER_TOKENS = st.sampled_from(
    ["abc", "x", "", "-", "1/0", "0/0", "nan", "inf", "1e400", "0", "1", "-2",
     "1/2", "3/2", "2", "5", "0x10"]
)
_EXPRESSION_TOKENS = st.sampled_from(
    MALFORMED_EXPRESSIONS
    + ['[]', 'null', '{not json', '[{"coeff": null}]', '[{"coeff":"1","zeta":3}]',
       '[{"coeff":"1","zeta":[2]}]', '[{"coeff":"-5/8","zeta":[3]}]']
)
_ARGV = st.one_of(
    st.tuples(st.just(["eval", "qzeta", "2", "--digits", "10", "--q"]), _NUMBER_TOKENS),
    st.tuples(st.just(["eval", "T", "1", "1", "1", "--digits", "10", "--q"]), _NUMBER_TOKENS),
    st.tuples(st.just(["verify", "theorem1", "--max", "1", "--digits", "10", "--q"]),
              _NUMBER_TOKENS, st.just("--tolerance"), _NUMBER_TOKENS),
    st.tuples(st.just(["verify", "expr", "R", "1", "1", "1", "--expression"]),
              _EXPRESSION_TOKENS),
).map(lambda parts: [*parts[0], *parts[1:]])


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_ARGV)
def test_fuzzed_argv_never_tracebacks(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects before any command runs
            rc = exc.code
    assert rc in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_eval_precision_budget_exit_code(capsys):
    rc, _, err = run(capsys, "eval", "qzeta", "1", "--q", "101/100",
                     "--max-terms", "100")
    assert rc == 4
    assert "max_terms" in err


def test_eval_classical_precision_budget_exit_code(capsys):
    rc, out, err = run(capsys, "eval", "zeta2", "4", "2", "--digits", "250",
                       "--max-terms", "100")
    assert rc == 4
    assert out == ""
    assert err.startswith("error: classical_double_euler:") and "max_terms=100" in err
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# reduce
# ----------------------------------------------------------------------

def test_reduce_human_golden(capsys):
    rc, out, _ = run(capsys, "reduce", "R", "1", "1", "1")
    assert rc == 0
    assert out.strip() == "R[1,1,1] = zq[2-,1-] + zq[2,1-] + (1-q)*(1+q)^(-2)*zq2[2]"


def test_reduce_fractional_t(capsys):
    rc, out, _ = run(capsys, "reduce", "T", "1", "1", "1/2")
    assert rc == 0
    assert "T[1,1,1/2]" in out


def test_reduce_json_roundtrip(capsys):
    rc, out, _ = run(capsys, "reduce", "T", "2", "1", "2", "--format", "json")
    assert rc == 0
    assert reduction_from_json(json.loads(out)) == theorem1_reduce(2, 1, 2, "T")


def test_reduce_classical(capsys):
    rc, out, _ = run(capsys, "reduce", "T", "2", "1", "2", "--classical")
    assert rc == 0
    assert out.strip() == "T[2,1,2] = zeta[3,2] + zeta[4,1] + zeta[4,1]"


def test_reduce_classical_rejects_fractional_t(capsys):
    rc, _, err = run(capsys, "reduce", "T", "2", "1", "1/2", "--classical")
    assert rc == 2
    assert "integer" in err


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_lemma1(capsys):
    rc, out, _ = run(capsys, "verify", "lemma1", "--max", "2")
    assert rc == 0
    assert "lemma1: 12/12 cases passed" in out
    assert out.count("PASS") == 12


def test_verify_theorem1(capsys):
    rc, out, _ = run(capsys, "verify", "theorem1", "--max", "1", "--q", "2")
    assert rc == 0
    assert "theorem1: 12/12 cases passed" in out


def test_verify_corollary1(capsys):
    rc, out, _ = run(capsys, "verify", "corollary1", "--max", "1")
    assert rc == 0
    assert "corollary1: 3/3 cases passed" in out


def test_verify_corollary2(capsys):
    rc, out, _ = run(capsys, "verify", "corollary2", "--max", "2", "--q", "3/2")
    assert rc == 0
    assert "corollary2: 12/12 cases passed" in out


def test_verify_corollary3(capsys):
    rc, out, _ = run(capsys, "verify", "corollary3", "--max", "2")
    assert rc == 0
    assert "corollary3: 7/7 cases passed" in out


def test_verify_table(capsys):
    rc, out, _ = run(capsys, "verify", "table")
    assert rc == 0
    assert "table: 12/12 cases passed" in out
    assert "exact=yes" in out


def test_verify_expr_accepts_true_value(capsys):
    blob = json.dumps(expression_to_json(KNOWN_VALUES[("R", 5, 5, 5)]))
    rc, out, _ = run(capsys, "verify", "expr", "R", "5", "5", "5",
                     "--expression", blob)
    assert rc == 0
    assert "PASS expr R[5,5,5]" in out


def test_verify_expr_flags_perturbed_value(capsys):
    """A wrong coefficient has to be detected, not absorbed."""
    terms = expression_to_json(KNOWN_VALUES[("R", 5, 5, 5)])
    terms[-1]["coeff"] = str(F(terms[-1]["coeff"]) + F(1, 100))
    rc, out, _ = run(capsys, "verify", "expr", "R", "5", "5", "5",
                     "--expression", json.dumps(terms))
    assert rc == 3
    assert "FAIL expr R[5,5,5]" in out


def test_verify_expr_from_file(tmp_path, capsys):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expression_to_json(KNOWN_VALUES[("R", 1, 1, 1)])))
    rc, out, _ = run(capsys, "verify", "expr", "R", "1", "1", "1",
                     "--expression-file", str(path))
    assert rc == 0
    assert "PASS" in out


def test_verify_expr_argument_errors(capsys, tmp_path):
    assert run(capsys, "verify", "expr", "R", "5", "5", "5")[0] == 2  # no expression
    assert run(capsys, "verify", "expr", "R", "5", "5",
               "--expression", "[]")[0] == 2                          # arity
    assert run(capsys, "verify", "expr", "R", "5", "5", "5",
               "--expression", "{not json")[0] == 2
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"\xff": 1}')
    # a missing path, a directory, a file that is not UTF-8
    for path in (tmp_path / "missing.json", tmp_path, latin1):
        rc, _, err = run(capsys, "verify", "expr", "R", "5", "5", "5",
                         "--expression-file", str(path))
        assert rc == 2 and err.startswith("error: ") and "Traceback" not in err, (path, err)
        assert str(path) in err


# ----------------------------------------------------------------------
# table
# ----------------------------------------------------------------------

def test_table_weight_3(capsys):
    rc, out, _ = run(capsys, "table", "--weight", "3")
    assert rc == 0
    assert "R[1,1,1] = -(5/8)*zeta(3)" in out
    assert len(out.strip().splitlines()) == 3


def test_table_json(capsys):
    rc, out, _ = run(capsys, "table", "--weight", "5", "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 21
    lookup = {
        (row["series"], row["r"], row["s"], row["t"]):
            expression_from_json(row["expression"])
        for row in rows
    }
    assert lookup[("R", 2, 1, 2)] == KNOWN_VALUES[("R", 2, 1, 2)]


# SHA-256 of `table --weight 15` stdout; pins every row's render() string.
TABLE_15_SHA256 = "a19d56736e4c12f5c0cb0346114179c127bd51d4c87dd577ebff36e212997eb2"


def test_table_weight_15_golden(capsys):
    rc, out, _ = run(capsys, "table", "--weight", "15")
    assert rc == 0
    assert len(out.splitlines()) == 756  # one row per (variant, r, s, t)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TABLE_15_SHA256


def test_table_weight_guard(capsys):
    rc, _, err = run(capsys, "table", "--weight", "17")
    assert rc == 2
    assert "15" in err


# ----------------------------------------------------------------------
# wiring
# ----------------------------------------------------------------------

def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_removed_window_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "T", "1", "1", "1", "--q", "2", "--window", "square"])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_readme_cli_examples_print_the_readme_lines(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.splitlines()
    for command in ("eval R 1 1 1", "eval T 2 1 2 --q 2 --digits 30"):
        start = lines.index(f"tornheim {command}") + 1
        expected = []
        for line in lines[start:]:
            if not line.startswith("  "):
                break
            expected.append(line[2:])
        rc, out, _ = run(capsys, *command.split())
        assert rc == 0
        assert out.splitlines() == expected, command


def test_closed_stdout_exits_1_without_traceback():
    # table --weight 15 prints about 85 KB, more than a pipe buffer holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "tornheim.cli", "table", "--weight", "15"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first.startswith(b"T[1,1,1] = ")
    assert b"Traceback" not in err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tornheim.cli", "eval", "S", "1", "1", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "(1/4)*zeta(3)" in proc.stdout
