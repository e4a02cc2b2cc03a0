"""Acceptance gate: one test per shipped criterion, each printing a verdict.

Every criterion pins its tolerance and, where stated, its runtime budget.
LHS and RHS always come from independent code paths: direct summation
kernels on one side, reduction identities or closed forms on the other.
"""
import json
import time
from fractions import Fraction

from mpmath import mp, mpf

from tornheim import numeric
from tornheim.cli import main
from tornheim.closedform import KNOWN_VALUES, tornheim_closed
from tornheim.exact import (
    ZetaExpression,
    expr_numeric,
    expression_to_json,
    zeta_const,
)
from tornheim.numeric import (
    PrecisionConfig,
    classical_double_euler,
    classical_zeta,
    evaluate_reduction,
    q_int,
    q_zeta1,
    tornheim_classical,
    tornheim_q,
    tornheim_q_info,
)
from tornheim.reduction import (
    VARIANT_SIGNS,
    corollary1_reduce,
    theorem1_reduce,
    verify_lemma1,
)

from test_closedform import _ring_tornheim  # the ring reference, which takes any zeta(0; -1)

PREC30 = PrecisionConfig(digits=30)

LOW_WEIGHT_KEYS = [
    ("R", 1, 1, 1), ("R", 1, 1, 3), ("R", 1, 2, 2), ("R", 1, 3, 1),
    ("R", 2, 1, 2), ("R", 2, 2, 1), ("R", 3, 1, 1),
]
HIGH_WEIGHT_KEYS = [
    ("S", 5, 5, 5), ("S", 7, 7, 7), ("R", 5, 5, 5), ("R", 7, 7, 7), ("R", 9, 9, 9),
]


def test_criterion_1_low_weight_table_exact():
    t0 = time.perf_counter()
    for key in LOW_WEIGHT_KEYS:
        variant, r, s, t = key
        assert tornheim_closed(r, s, t, variant).expression == KNOWN_VALUES[key], key
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"criterion 1: PASS - {len(LOW_WEIGHT_KEYS)} weight-3/5 values exact ({dt:.3f}s)")


def test_criterion_2_high_weight_table_exact():
    t0 = time.perf_counter()
    for key in HIGH_WEIGHT_KEYS:
        variant, r, s, t = key
        got = tornheim_closed(r, s, t, variant).expression
        assert got == KNOWN_VALUES[key], key
    # the deepest entry carries five terms, three with denominator 2^26
    terms = tornheim_closed(9, 9, 9, "R").expression.terms()
    assert len(terms) == 5
    assert sum(c.denominator == 67108864 for _, c in terms) == 3
    dt = time.perf_counter() - t0
    assert dt < 5.0
    print(f"criterion 2: PASS - high-weight values exact incl. R[9,9,9] ({dt:.3f}s)")


def test_criterion_3_partial_fraction_exact_sweep():
    t0 = time.perf_counter()
    checked = 0
    for q in ("3/2", "2", "7/2"):
        for r in range(1, 6):
            for s in range(1, 6):
                for u in range(1, 7):
                    for v in range(1, 7):
                        assert verify_lemma1(r, s, u, v, q), (r, s, u, v, q)
                        checked += 1
    dt = time.perf_counter() - t0
    assert checked == 2700
    assert dt < 10.0
    print(f"criterion 3: PASS - 2700 exact rational identities ({dt:.2f}s)")


def test_criterion_4_q_reduction_numeric_sweep():
    numeric.clear_memos()
    tol = mpf(10) ** -27
    t0 = time.perf_counter()
    worst = mpf(0)
    cases = 0
    with mp.workdps(PREC30.working_dps):
        for q in ("3/2", "2", "3"):
            for variant in ("T", "S", "R"):
                sigma, tau = VARIANT_SIGNS[variant]
                for r in range(1, 5):
                    for s in range(1, 5):
                        for t in (0, 1, 2, Fraction(1, 2)):
                            lhs = tornheim_q_info(r, s, t, sigma, tau, q, PREC30).value
                            rhs = evaluate_reduction(
                                theorem1_reduce(r, s, t, variant), q, PREC30
                            )
                            resid = abs(lhs - rhs)
                            worst = max(worst, resid)
                            assert resid <= tol, (variant, r, s, t, q, resid)
                            cases += 1
    dt = time.perf_counter() - t0
    assert cases == 576
    assert dt < 120.0
    tables = numeric.memo_stats()["tables"]
    # 96 tables of the reduction terms, 12 of tornheim_q's a and b factors at
    # the same width, and one table of the powers q^-k per q
    assert tables["misses"] == 111
    assert tables["terms"] <= tables["budget"]
    # the memo holds one sign-free entry per key, plan and integer totals of
    # all its signs together: 120 tornheim_q series (r <= s, t, q), as
    # T[r,s;sigma,tau] and T[s,r;tau,sigma] share one, and for the
    # reduction terms, whatever their signs and their (1-q) and (1+q)
    # factors, 156 q_zeta2 (s1, s2, q), 48 phi_q (s, q) and 48 q_zeta1
    # (s, q^2), all at one precision, so each is summed once, not once per
    # sign.  It also keeps the 192 reductions (T/S/R, r, s, t), met once
    # for all three q, their 16 expansions (r, s), and the parses of the
    # three q and of their squares.
    tornheim, series = 120, 156 + 48 + 48
    reductions, expansions, q_parses = 3 * 4 * 4 * 4, 4 * 4, 3 + 3
    assert tornheim + series == 372
    assert numeric.memo_stats()["memo"]["misses"] == (
        tornheim + series + reductions + expansions + q_parses) == 586
    print(f"criterion 4: PASS - 576 cases, worst residual {mp.nstr(worst, 3)} ({dt:.1f}s)")


def test_criterion_5_product_decompositions():
    tol_q = mpf(10) ** -27
    worst_q = mpf(0)
    cases_q = 0
    with mp.workdps(PREC30.working_dps):
        for q in ("3/2", "2"):
            for variant in ("T", "S", "R"):
                sigma, tau = VARIANT_SIGNS[variant]
                for r in range(1, 5):
                    for s in range(1, 5):
                        lhs = q_zeta1(r, sigma, q, PREC30) * q_zeta1(s, tau, q, PREC30)
                        rhs = evaluate_reduction(
                            theorem1_reduce(r, s, 0, variant), q, PREC30
                        )
                        resid = abs(lhs - rhs)
                        worst_q = max(worst_q, resid)
                        assert resid <= tol_q, (variant, r, s, q, resid)
                        cases_q += 1
    assert cases_q == 96

    tol_c = mpf(10) ** -24
    worst_c = mpf(0)
    with mp.workdps(PREC30.working_dps):
        for r in range(2, 6):
            for s in range(2, 6):
                lhs = classical_zeta(r, 1, PREC30) * classical_zeta(s, 1, PREC30)
                rhs = sum(
                    c * classical_double_euler(o, i, PREC30)
                    for c, o, i in corollary1_reduce(r, s, 0, "T")
                )
                resid = abs(lhs - rhs)
                worst_c = max(worst_c, resid)
                assert resid <= tol_c, (r, s, resid)
    print(
        "criterion 5: PASS - 96 q-product cases "
        f"(worst {mp.nstr(worst_q, 3)}), 16 classical cases "
        f"(worst {mp.nstr(worst_c, 3)})"
    )


def test_criterion_6_closed_vs_numeric_and_zero_convention():
    tol = mpf(10) ** -24
    worst = mpf(0)
    cases = 0
    for r in range(1, 6):
        for s in range(1, 6):
            for t in range(1, 6):
                if (r + s + t) % 2 == 0:
                    continue
                for variant in ("T", "S", "R"):
                    with mp.workdps(PREC30.working_dps):
                        closed = expr_numeric(
                            tornheim_closed(r, s, t, variant).expression, PREC30
                        )
                        direct = tornheim_classical(r, s, t, variant, PREC30)
                        resid = abs(closed - direct)
                    worst = max(worst, resid)
                    assert resid <= tol, (variant, r, s, t, resid)
                    cases += 1
    # the same comparison adjudicates the alternating zeta at 0: with +1/2
    # the R closed form lands far from the numeric value
    with mp.workdps(PREC30.working_dps):
        wrong = expr_numeric(_ring_tornheim(1, 1, 1, "R", Fraction(1, 2), {}), PREC30)
        gap = abs(wrong - tornheim_classical(1, 1, 1, "R", PREC30))
    assert gap > mpf(10) ** -3
    print(
        f"criterion 6: PASS - {cases} closed-vs-numeric cases, worst residual "
        f"{mp.nstr(worst, 3)}; +1/2 convention off by {mp.nstr(gap, 3)}"
    )


def test_criterion_7_property_suite():
    # expression-ring axioms on a deterministic sample
    a = zeta_const(3) * Fraction(2, 7) + zeta_const(2)
    b = zeta_const(5) - zeta_const(1, -1) * zeta_const(1, -1)
    c = zeta_const(4) * Fraction(-3) + ZetaExpression.one()
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZetaExpression.zero() == a
    assert a * ZetaExpression.one() == a

    # canonicalization is idempotent and construction already canonicalizes
    messy = (a + b) * c - zeta_const(4) * zeta_const(2) * Fraction(0)
    rebuilt = ZetaExpression(dict(messy.terms()))
    assert rebuilt == messy
    assert ZetaExpression(dict(rebuilt.terms())) == rebuilt

    # weight homogeneity of every closed form in the reference table
    for (variant, r, s, t), value in KNOWN_VALUES.items():
        assert all(m.weight == r + s + t for m, _ in value.terms())

    # first-pair symmetry, exact on both routes
    assert (tornheim_closed(2, 3, 2, "T").expression
            == tornheim_closed(3, 2, 2, "T").expression)
    assert tornheim_q(2, 1, 1, -1, 1, "2") == tornheim_q(1, 2, 1, 1, -1, "2")

    # [2m]_q = (q+1) [m]_{q^2}
    with mp.workdps(50):
        for qtext in ("3/2", "2"):
            for m in range(1, 31):
                lhs = q_int(2 * m, qtext)
                q = mpf(Fraction(qtext).numerator) / Fraction(qtext).denominator
                rhs = (q + 1) * q_int(m, str(Fraction(qtext) ** 2))
                assert abs(lhs - rhs) < mpf(10) ** -38 * lhs, (qtext, m)

    # q -> 1 continuity at (2,1,2)
    coarse = PrecisionConfig(digits=10, tail_goal=1e-7, max_terms=10 ** 9)
    with mp.workdps(PREC30.working_dps):
        limit = tornheim_classical(2, 1, 2, "T", PREC30)
        devs = [
            abs(tornheim_q(2, 1, 2, 1, 1, q, coarse) - limit)
            for q in ("11/10", "101/100", "1001/1000")
        ]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < mpf(5) / 1000
    print("criterion 7: PASS - ring axioms, canonical form, homogeneity, "
          "symmetry, index doubling, q->1 continuity")


def test_criterion_8_negative_control(capsys):
    """A wrong R(5,5,5) coefficient must be detected, not absorbed."""
    terms = expression_to_json(KNOWN_VALUES[("R", 5, 5, 5)])
    assert terms[0]["zeta"] == [15]
    terms[0]["coeff"] = str(Fraction(terms[0]["coeff"]) + Fraction(1, 100))
    rc = main(["verify", "expr", "R", "5", "5", "5",
               "--expression", json.dumps(terms)])
    out = capsys.readouterr().out
    assert rc == 3
    assert "FAIL expr R[5,5,5]" in out

    from tornheim.exact import expression_from_json
    with mp.workdps(PREC30.working_dps):
        gap = abs(
            expr_numeric(expression_from_json(terms), PREC30)
            - tornheim_classical(5, 5, 5, "R", PREC30)
        )
    assert gap > mpf(10) ** -3

    rc_ok = main(["verify", "expr", "R", "5", "5", "5",
                  "--expression", json.dumps(expression_to_json(
                      KNOWN_VALUES[("R", 5, 5, 5)]))])
    capsys.readouterr()
    assert rc_ok == 0
    print(f"criterion 8: PASS - perturbed value off by {mp.nstr(gap, 3)} > 1e-3, exit 3")
