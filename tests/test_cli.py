"""CLI behavior: output shapes, JSON round-trips, exit codes."""
import contextlib
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction as F
from itertools import takewhile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tornheim.cli import main
from tornheim.closedform import KNOWN_VALUES
from tornheim.exact import ZetaExpression, expression_from_json, expression_to_json
from tornheim.reduction import reduction_to_json, theorem1_reduce


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


def test_eval_zeta2_near_q_one_golden(capsys):
    # 94458 terms of two q-term tables with half-integer exponents
    rc, out, _ = run(capsys, "eval", "zeta2", "5/2", "3/2", "--q", "1001/1000")
    assert rc == 0
    expected = ["zq[5/2,3/2], q = 1001/1000 ≈ 0.443699830697632366841274522818",
                "tail bound <= 9.99e-36 after 94458 terms"]
    assert out.splitlines() == expected
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = "\n  ".join(["tornheim eval zeta2 5/2 3/2 --q 1001/1000", *expected])
    assert example in readme


def test_eval_t_near_q_one_golden(capsys):
    # the Lambert sum reads about 1,600 powers q^-k at q = 11/10 and 60 digits;
    # the Theorem 1 reduction gives the same 60 digits
    rc, out, _ = run(capsys, "eval", "T", "2", "1", "2", "--q", "11/10", "--digits", "60")
    assert rc == 0
    assert out.splitlines()[0] == ("T[2,1,2], q = 11/10 ≈ 0.6535284620691832971948992820670647"
                                   "36583385426336921955723252")


def test_eval_zeta2_classical_numeric_golden(capsys):
    # even weight: the split at 1/2 alone, on a word of 6 letters at 120 digits
    rc, out, _ = run(capsys, "eval", "zeta2", "4", "2", "--digits", "120")
    assert rc == 0
    expected = ["no closed form, numeric only (even weight 6)",
                "zeta[4,2] ≈ 0.0884833824543687142943278390857604566479787523"
                "86750591674889276559474278928743571455827794600470586619559667498925395915"]
    assert out.splitlines() == expected
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = "\n  ".join(["tornheim eval zeta2 4 2 --digits 120", *expected])
    assert example in readme


def test_eval_rejects_exponent_denominator_above_the_bound(capsys):
    # 2.001 reads as 2001/1000; its 1000th roots are outside the q-side's domain
    rc, _, err = run(capsys, "eval", "qzeta", "2.001", "--q", "2")
    assert rc == 2
    assert "exponent 2001/1000 has denominator 1000, above the 8" in err


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


# the flags each verify family reads; it refuses the other ones, and every
# family but expr refuses positional arguments
VERIFY_READS = {
    "lemma1": {"--max", "--q"},
    "theorem1": {"--max", "--q", "--digits", "--tolerance"},
    "corollary1": {"--max"},
    "corollary2": {"--max", "--q", "--digits", "--tolerance"},
    "corollary3": {"--max", "--digits", "--tolerance"},
    "table": {"--digits", "--tolerance"},
    "expr": {"--expression", "--expression-file", "--digits", "--tolerance"},
}
R111 = '[{"coeff": "-5/8", "zeta": [3]}]'
VERIFY_FLAG_ARGS = {
    "--max": ("--max", "1"), "--q": ("--q", "2"), "--digits": ("--digits", "12"),
    "--tolerance": ("--tolerance", "1"), "--expression": ("--expression", R111),
    "--expression-file": ("--expression-file", "expr.json"),
}
# 22 (family, flag) pairs
UNREAD_FLAGS = [(family, flag) for family, reads in VERIFY_READS.items()
                for flag in VERIFY_FLAG_ARGS if flag not in reads]
STRAY_ARGUMENTS = [(family, "junk") for family in VERIFY_READS if family != "expr"]


@pytest.mark.parametrize("family,extra", UNREAD_FLAGS + STRAY_ARGUMENTS,
                         ids=lambda value: value)
def test_verify_refuses_what_a_family_does_not_read(capsys, family, extra):
    base = ["R", "1", "1", "1", "--expression", R111] if family == "expr" else []
    rc, out, err = run(capsys, "verify", family, *base, *VERIFY_FLAG_ARGS.get(extra, (extra,)))
    assert rc == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: verify {family} does not take ")
    assert (extra if extra.startswith("--") else repr(extra)) in line


def test_verify_refusal_names_every_unread_flag(capsys):
    rc, out, err = run(capsys, "verify", "corollary1", "--q", "2", "--tolerance", "5",
                       "--digits", "5")
    assert (rc, out) == (2, "")
    assert err == ("error: verify corollary1 does not take --q, --digits, --tolerance; "
                   "it takes --max\n")


_NUMBER_TOKENS = st.sampled_from(
    ["abc", "x", "", "-", "1/0", "0/0", "nan", "inf", "1e400", "0", "1", "-1", "-2",
     "1/2", "3/2", "2", "5", "0x10", str(10 ** 400)]
)
_EXPRESSION_TOKENS = st.sampled_from(
    MALFORMED_EXPRESSIONS
    + ['[]', 'null', '{not json', '[{"coeff": null}]', '[{"coeff":"1","zeta":3}]',
       '[{"coeff":"1","zeta":[2]}]', '[{"coeff":"-5/8","zeta":[3]}]']
)
_ARGV = st.one_of(
    st.one_of(
        st.tuples(st.just(["eval", "qzeta", "2", "--digits", "10", "--q"]), _NUMBER_TOKENS),
        st.tuples(st.just(["eval", "T", "1", "1", "1", "--digits", "10", "--q"]), _NUMBER_TOKENS),
        st.tuples(st.just(["verify", "theorem1", "--max", "1", "--digits", "10", "--q"]),
                  _NUMBER_TOKENS, st.just("--tolerance"), _NUMBER_TOKENS),
        st.tuples(st.just(["verify", "expr", "R", "1", "1", "1", "--expression"]),
                  _EXPRESSION_TOKENS),
        st.tuples(st.just(["verify", "lemma1", "--q"]), _NUMBER_TOKENS),
        st.tuples(st.just(["eval", "T", "1", "1", "2", "--q", "2", "--digits"]), _NUMBER_TOKENS),
    ).map(lambda parts: [*parts[0], *parts[1:]]),
    # any family with any of the verify flags, read or not, and stray arguments
    st.tuples(
        st.sampled_from(sorted(VERIFY_READS)),
        st.lists(st.sampled_from([*VERIFY_FLAG_ARGS.values(), ("--digits", "10"), ("junk",),
                                  ("R", "1", "1", "1")]), max_size=4),
    ).map(lambda parts: ["verify", parts[0], *[tok for group in parts[1] for tok in group]]),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_ARGV)
@example(["verify", "lemma1", "--q", "-1"])  # [2] = 0 at q = -1
@example(["eval", "qzeta", str(10 ** 400), "--q", "2"])  # a log2 past the float range
@example(["eval", "T", "1", "1", "2", "--q", "2", "--digits", str(10 ** 400)])
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
    assert json.loads(out) == reduction_to_json(theorem1_reduce(2, 1, 2, "T"))


# SHA-256 of the stdout of each command; pins reduction_to_json, the
# classical reduction's JSON and result_to_json (provenance included) byte
# for byte.
JSON_SHA256 = {
    ("reduce", "T", "2", "1", "2", "--format", "json"):
        "548b9678cfe26435b9142cb5ef9df2efe22edb37eb8bd09c92247247cb31cf84",
    ("reduce", "T", "3", "2", "1", "--classical", "--format", "json"):
        "1de7bd08932e40a6c8c366bbec78f90f2a78d3d5c496ad89bc8d7e42c647451d",
    ("eval", "R", "1", "2", "2", "--format", "json"):
        "a95c86a83ff1958a88c4035a4abc0d3812a3de29a61ff172283896b8325d40c9",
}


@pytest.mark.parametrize("argv", list(JSON_SHA256), ids=" ".join)
def test_json_output_golden(capsys, argv):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == JSON_SHA256[argv]


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
    assert out.splitlines() == [
        "PASS corollary1 T[1,1,1] exact on 11 windows",
        "PASS corollary1 S[1,1,1] exact on 11 windows",
        "PASS corollary1 R[1,1,1] exact on 11 windows",
        "corollary1: 3/3 cases passed",
    ]


def test_verify_corollary1_fails_on_a_wrong_reduction(capsys, monkeypatch):
    from tornheim import reduction

    right = reduction.corollary1_reduce

    def wrong(*args):
        (coeff, outer, inner), *rest = right(*args)
        return ((coeff + 1, outer, inner), *rest)

    monkeypatch.setattr(reduction, "corollary1_reduce", wrong)
    rc, out, _ = run(capsys, "verify", "corollary1", "--max", "1")
    assert rc == 3
    assert "FAIL corollary1 T[1,1,1] exact on 11 windows" in out
    assert "corollary1: 0/3 cases passed" in out


# the numeric families gate on 10^-(digits-3) at every precision
NUMERIC_FAMILY_ARGV = [
    ("theorem1", "--max", "1", "--q", "3/2"),
    ("corollary2", "--max", "1"),
    ("corollary3", "--max", "2"),
    ("table",),
]


@pytest.mark.parametrize("digits", ["12", "120"])
@pytest.mark.parametrize("argv", NUMERIC_FAMILY_ARGV, ids=lambda argv: argv[0])
def test_numeric_families_pass_at_every_precision(capsys, argv, digits):
    rc, out, _ = run(capsys, "verify", *argv, "--digits", digits)
    assert rc == 0, out
    assert "FAIL" not in out


def test_negative_tolerance_exits_2_naming_the_flag(capsys):
    for value in ("-1", "-1/2"):
        rc, _, err = run(capsys, "verify", "theorem1", "--max", "1", f"--tolerance={value}")
        assert rc == 2
        assert err.startswith("error: --tolerance")


def test_malformed_tolerance_exits_2_naming_the_flag(capsys):
    # an empty value used to read as no tolerance and pass under the default gate
    for value in ("", "abc", "1/0"):
        rc, out, err = run(capsys, "verify", "table", "--tolerance", value)
        assert (rc, out) == (2, "")
        assert err == f"error: --tolerance: not a rational number: {value!r}\n"


def test_tolerance_still_overrides_the_gate(capsys):
    rc, out, _ = run(capsys, "verify", "corollary3", "--max", "2", "--digits", "12",
                     "--tolerance", "0")
    assert rc == 3
    assert "corollary3: 0/7 cases passed" in out


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


def test_verify_expr_gate_follows_digits(capsys):
    """At 100 digits the gate is 1e-97, so an error of 1e-60 must fail."""
    value = KNOWN_VALUES[("R", 5, 5, 5)]
    shifted = value + ZetaExpression.constant(F(1, 10 ** 60))
    for expr, code in ((value, 0), (shifted, 3)):
        rc, out, _ = run(capsys, "verify", "expr", "R", "5", "5", "5", "--digits", "100",
                         "--expression", json.dumps(expression_to_json(expr)))
        assert rc == code
        assert "(tolerance 1.0e-97)" in out


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
# SHA-256 of `table --weight 15 --format json` stdout; pins every exact
# coefficient of every row.
TABLE_15_JSON_SHA256 = "e116a3baecc8448b2d804504348127d5ac092f785a194ef31db0cbc214a08b18"


def test_table_weight_15_golden(capsys):
    rc, out, _ = run(capsys, "table", "--weight", "15")
    assert rc == 0
    assert len(out.splitlines()) == 756  # one row per (variant, r, s, t)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TABLE_15_SHA256


def test_table_weight_15_json_golden(capsys):
    rc, out, _ = run(capsys, "table", "--weight", "15", "--format", "json")
    assert rc == 0
    assert len(json.loads(out)) == 756
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TABLE_15_JSON_SHA256


def test_table_weight_guard(capsys):
    rc, _, err = run(capsys, "table", "--weight", "17")
    assert rc == 2
    assert "15" in err


@pytest.mark.parametrize("weight", ["2", "0", "-3"])
def test_table_refuses_weights_below_three(capsys, weight):
    rc, out, err = run(capsys, "table", "--weight", weight)
    assert (rc, out) == (2, "")
    assert err == f"error: closed_form_table: max_weight must be >= 3, got {weight}\n"


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
    """Every README example that shows its output prints exactly those lines."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.splitlines()
    examples = {}
    for i, line in enumerate(lines):
        if line.startswith("tornheim ") and lines[i + 1].startswith("  "):
            output = takewhile(lambda shown: shown.startswith("  "), lines[i + 1:])
            examples[line[len("tornheim "):]] = [shown[2:] for shown in output]
    assert list(examples) == [
        "eval R 1 1 1", "eval T 2 1 2 --q 2 --digits 30", "eval zeta2 4 1",
        "eval zeta2 5/2 3/2 --q 1001/1000",
        "eval T 2 1 2 --q 101/100 --digits 12 --max-terms 100000000",
        "eval zeta2 4 2 --digits 120", "reduce R 1 1 1",
    ]
    for command, expected in examples.items():
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


@pytest.mark.parametrize("coeff", ["Infinity", "-Infinity"])
def test_verify_expr_infinite_coefficient_exits_2_without_traceback(coeff):
    # json.loads accepts Infinity, which no Fraction can hold
    proc = subprocess.run(
        [sys.executable, "-m", "tornheim.cli", "verify", "expr", "T", "1", "1", "1",
         "--expression", f'[{{"coeff": {coeff}, "zeta": [3]}}]'],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: bad expression term")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("term, field", [
    ('{"coeff": "-5/8", "zeta": [3.7]}', "odd_zeta_factors entry"),
    ('{"coeff": "-5/8", "zeta": [3], "pi": 0.5}', "pi_exponent"),
    ('{"coeff": "-5/8", "zeta": [3], "log2": true}', "log2_exponent"),
    ('{"coeff": "-5/8", "zeta": ["3"]}', "odd_zeta_factors entry"),
])
def test_verify_expr_refuses_an_exponent_that_is_no_json_integer(capsys, term, field):
    # each was truncated or coerced to -(5/8)*zeta(3), R[1,1,1], and passed
    rc, out, err = run(capsys, "verify", "expr", "R", "1", "1", "1", "--expression", f"[{term}]")
    assert rc == 2 and out == ""
    assert err.startswith("error: bad expression term") and f"{field} must be an integer" in err


def test_package_imports_without_numpy():
    # numpy is a test dependency only: a fresh interpreter that imports the
    # package and its CLI loads no numpy module
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tornheim, tornheim.cli; "
         "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tornheim.cli", "eval", "S", "1", "1", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "(1/4)*zeta(3)" in proc.stdout
