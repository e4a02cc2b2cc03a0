"""Closed-form route: reference table, identity goldens, numeric cross-checks."""
import json
from fractions import Fraction as F

import pytest
from mpmath import mp, mpf

from tornheim import closedform
from tornheim.closedform import (
    ALT_ZETA_AT_ZERO,
    KNOWN_VALUES,
    EvaluationResult,
    closed_form_table,
    double_euler_closed,
    result_from_json,
    result_to_json,
    tornheim_closed,
)
from tornheim.errors import DivergenceError, DomainError
from tornheim.exact import (
    SignedIndex,
    ZetaExpression,
    ZetaMonomial,
    expr_numeric,
    zeta_const,
)
from tornheim.numeric import PrecisionConfig, classical_double_euler, tornheim_classical


def expr(pairs):
    return ZetaExpression(
        {ZetaMonomial(pi_exponent=p, odd_zeta_factors=z): c for c, p, z in pairs}
    )


# ----------------------------------------------------------------------
# the reference table, reproduced exactly
# ----------------------------------------------------------------------

@pytest.mark.parametrize("key", sorted(KNOWN_VALUES))
def test_reference_table_exact(key):
    variant, r, s, t = key
    assert tornheim_closed(r, s, t, variant).expression == KNOWN_VALUES[key]


def test_reference_table_weight_homogeneous():
    for (variant, r, s, t), value in KNOWN_VALUES.items():
        for mono, _ in value.terms():
            assert mono.weight == r + s + t


def test_alternative_zero_convention_breaks_table():
    """The +1/2 convention for the alternating zeta at 0 is wrong.

    Swapping it in changes every R entry of weight 3 and 5, so the table
    pins the constant down.
    """
    assert ALT_ZETA_AT_ZERO == F(-1, 2)
    broken = 0
    for (variant, r, s, t), want in KNOWN_VALUES.items():
        if r + s + t > 5:
            continue
        got = tornheim_closed(r, s, t, variant, alt_zero=F(1, 2)).expression
        if got != want:
            broken += 1
    assert broken == 7


# ----------------------------------------------------------------------
# identity goldens
# ----------------------------------------------------------------------

def test_inner_one_plain_goldens():
    assert double_euler_closed(2, 1) == zeta_const(3)
    # zeta(4,1) = 2 zeta(5) - zeta(2) zeta(3)
    assert double_euler_closed(4, 1) == expr([(F(2), 0, (5,)), (F(-1, 6), 2, (3,))])
    # zeta(6,1) = 3 zeta(7) - zeta(2) zeta(5) - zeta(3) zeta(4)
    assert double_euler_closed(6, 1) == expr(
        [(F(3), 0, (7,)), (F(-1, 6), 2, (5,)), (F(-1, 90), 4, (3,))]
    )


def test_inner_one_alternating_golden():
    assert double_euler_closed(2, 1, -1, 1) == expr([(F(1, 8), 0, (3,))])


def test_general_rule_reproduces_euler_inner_one_formulas():
    """zeta(s, 1; sigma, +1) has no rule of its own: the general identity,
    with zeta(1) read as 0, matches Euler's formula and its alternating
    analogue exactly."""
    for s in range(2, 41, 2):
        # (s/2) zeta(s+1) - 1/2 sum_{k=2}^{s-1} zeta(k) zeta(s+1-k)
        plain = zeta_const(s + 1) * F(s, 2)
        for k in range(2, s):
            plain = plain - zeta_const(k) * zeta_const(s + 1 - k) * F(1, 2)
        # (s-1)/2 zeta(s+1; -1) + 1/2 zeta(s+1) - sum_{k=1}^{s/2-1} zeta(2k; -1) zeta(s+1-2k)
        alt = zeta_const(s + 1, -1) * F(s - 1, 2) + zeta_const(s + 1) * F(1, 2)
        for k in range(1, s // 2):
            alt = alt - zeta_const(2 * k, -1) * zeta_const(s + 1 - 2 * k)
        assert double_euler_closed(s, 1, 1, 1) == plain, s
        assert double_euler_closed(s, 1, -1, 1) == alt, s


def test_general_rule_golden():
    # zeta(2, 1; 1, -1) = zeta(3) - (1/4) pi^2 log2
    got = double_euler_closed(2, 1, 1, -1)
    want = ZetaExpression(
        {
            ZetaMonomial(odd_zeta_factors=(3,)): F(1),
            ZetaMonomial(pi_exponent=2, log2_exponent=1): F(-1, 4),
        }
    )
    assert got == want


def test_known_simple_values():
    assert tornheim_closed(1, 1, 1, "S").expression == expr([(F(1, 4), 0, (3,))])
    assert tornheim_closed(1, 1, 1, "T").expression == expr([(F(2), 0, (3,))])


# ----------------------------------------------------------------------
# numeric cross-checks (the full sweep is in the acceptance module)
# ----------------------------------------------------------------------

PREC = PrecisionConfig(digits=30)
TOL = mpf(10) ** -25


def test_double_closed_vs_numeric_sweep():
    checked = 0
    for w in (3, 5, 7):
        for s in range(1, w):
            t = w - s
            for sigma in (1, -1):
                for tau in (1, -1):
                    if sigma == 1 and s < 2:
                        continue
                    value = expr_numeric(double_euler_closed(s, t, sigma, tau), PREC)
                    direct = classical_double_euler(
                        SignedIndex(s, sigma), SignedIndex(t, tau), PREC
                    )
                    assert abs(value - direct) < TOL, (s, t, sigma, tau)
                    checked += 1
    assert checked == 42


def test_double_closed_vs_numeric_at_high_precision():
    """All four sign pairs at 60 and 120 digits: the classical route meets
    its own goal, not only at the 30 digits above."""
    for digits in (60, 120):
        prec = PrecisionConfig(digits=digits)
        ref_prec = PrecisionConfig(digits=digits + 20)
        for s, t in [(2, 1), (1, 2), (3, 2), (2, 3), (4, 3), (3, 4), (6, 1)]:
            for sigma in (1, -1):
                for tau in (1, -1):
                    if sigma == 1 and s < 2:
                        continue
                    ref = expr_numeric(double_euler_closed(s, t, sigma, tau), ref_prec)
                    direct = classical_double_euler(
                        SignedIndex(s, sigma), SignedIndex(t, tau), prec
                    )
                    with mp.workdps(ref_prec.working_dps):
                        err = abs(direct - ref)
                    assert err <= prec.goal(), (digits, s, t, sigma, tau, err)


@pytest.mark.parametrize("r,s,t", [(1, 1, 1), (2, 1, 2), (1, 3, 3), (2, 2, 3)])
@pytest.mark.parametrize("variant", ["T", "S", "R"])
def test_tornheim_closed_vs_numeric(r, s, t, variant):
    value = expr_numeric(tornheim_closed(r, s, t, variant).expression, PREC)
    direct = tornheim_classical(r, s, t, variant, PREC)
    assert abs(value - direct) < TOL


# ----------------------------------------------------------------------
# domain handling
# ----------------------------------------------------------------------

def test_even_weight_rejected():
    with pytest.raises(DomainError, match="even weight"):
        double_euler_closed(2, 2)
    with pytest.raises(DomainError, match="even weight"):
        tornheim_closed(1, 1, 2, "T")


def test_divergent_rejected():
    with pytest.raises(DivergenceError):
        double_euler_closed(1, 2)  # plain outer slot needs s >= 2
    with pytest.raises(DivergenceError):
        double_euler_closed(2, 0, 1, -1)
    with pytest.raises(DivergenceError, match=r"s \+ t > 1"):
        tornheim_closed(2, 1, 0, "T")


def test_bad_arguments_rejected():
    with pytest.raises(DomainError):
        double_euler_closed(2, 1, 2, 1)
    with pytest.raises(DomainError, match="variant"):
        tornheim_closed(1, 1, 1, "X")


def test_double_closed_memo_is_bounded_counts_hits_and_skips_rejected_input():
    memo = closedform._double_closed_memo
    assert memo.cache_info().maxsize == closedform.CLOSED_MEMO_SIZE
    first = double_euler_closed(4, 3, -1, 1)
    hits = memo.cache_info().hits
    # defaults and explicit arguments share one entry, and the entry is shared
    assert double_euler_closed(4, 3, sigma=-1) is first
    assert memo.cache_info().hits == hits + 1
    assert double_euler_closed(2, 1) is double_euler_closed(2, 1, 1, 1)
    before = memo.cache_info()
    with pytest.raises(DomainError):
        double_euler_closed(2, 2)
    with pytest.raises(DivergenceError):
        double_euler_closed(1, 2)
    with pytest.raises(DomainError):
        double_euler_closed(2, 1, 2, 1)
    assert memo.cache_info() == before


# ----------------------------------------------------------------------
# table enumeration
# ----------------------------------------------------------------------

def test_table_enumeration():
    rows = closed_form_table(5)
    # weight 3 has one index triple, weight 5 has six, times three variants
    assert len(rows) == 21
    lookup = {(v, r, s, t): e for v, r, s, t, e in rows}
    assert lookup[("R", 1, 1, 1)] == KNOWN_VALUES[("R", 1, 1, 1)]
    assert lookup[("R", 2, 1, 2)] == KNOWN_VALUES[("R", 2, 1, 2)]


def test_table_weight_guard():
    with pytest.raises(DomainError, match="cost|exceeds"):
        closed_form_table(17)


# ----------------------------------------------------------------------
# provenance and serialization
# ----------------------------------------------------------------------

def test_provenance_records_rules():
    res = tornheim_closed(2, 1, 2, "R")
    rules = [step.rule for step in res.provenance]
    assert rules[0] == "depth-2-reduction"
    assert "double-euler-closed" in rules
    assert rules[-1] == "alternating-zeta-at-zero"

    plain = tornheim_closed(2, 1, 2, "T")
    assert all(step.rule != "alternating-zeta-at-zero" for step in plain.provenance)

    # S[1,1,1] reduces to zeta(2, 1; -1, +1), whose closed form reads zeta(0; -1)
    alt = tornheim_closed(1, 1, 1, "S")
    pairs = [dict(step.details) for step in alt.provenance if step.rule == "double-euler-closed"]
    assert {"s": "2", "t": "1", "sigma": "-1", "tau": "1"} in pairs
    assert alt.provenance[-1].rule == "alternating-zeta-at-zero"
    for result in (res, plain, alt):
        assert all("identity" not in dict(step.details) for step in result.provenance)


def test_result_json_roundtrip():
    res = tornheim_closed(1, 2, 2, "R")
    blob = json.dumps(result_to_json(res))
    back = result_from_json(json.loads(blob))
    assert isinstance(back, EvaluationResult)
    assert back == res
