"""Tests for partial fractions and depth-2 reductions."""
from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from tornheim import reduction
from tornheim.errors import DivergenceError, DomainError
from tornheim.closedform import closed_form_table, double_euler_closed
from tornheim.exact import (
    MEMO_SIZE,
    SignedIndex,
    as_rational,
    bernoulli,
    expr_numeric,
    memo,
    zeta_const,
)
from tornheim.numeric import (
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
    DoubleQZeta,
    PartialFractionTerm,
    PhiTerm,
    QSquaredZeta,
    Reduction,
    corollary1_reduce,
    lemma1_expand,
    theorem1_reduce,
    trinomial,
    verify_lemma1,
    verify_theorem1,
)

F = Fraction
SI = SignedIndex


# ---------------------------------------------------------------- trinomial

@pytest.mark.parametrize(
    "z, a, b, expected",
    [
        (4, 1, 2, F(12)),
        (5, 2, 3, F(10)),
        (0, 0, 0, F(1)),
        (0, 0, 1, F(0)),  # zero coefficient, kept by expansions
        (3, 1, 1, F(6)),
        (-1, 1, 0, F(-1)),  # generalized upper index
    ],
)
def test_trinomial_values(z, a, b, expected):
    assert trinomial(z, a, b) == expected


def test_trinomial_rejects_negative_lower():
    with pytest.raises(DomainError):
        trinomial(3, -1, 0)


@pytest.mark.parametrize("args, named", [
    ((None, 1, 1), "z"),  # was TypeError
    ((2.5, 1, 1), "z"),  # was TypeError
    ((3, F(1), 1), "a"),
    ((3, 1, None), "b"),
    ((True, 1, 1), "z"),  # was C(1; 1, 1)
    ((3, -1, 0), "a"),
    ((3, 0, -1), "b"),
])
def test_trinomial_names_a_malformed_argument(args, named):
    with pytest.raises(DomainError, match=f"^trinomial: {named} must be an integer"):
        trinomial(*args)


def test_reduction_to_json_refuses_what_is_not_a_reduction():
    for bad in (None, "x", corollary1_reduce(1, 1, 1, "T")):
        with pytest.raises(DomainError, match="reduction_to_json: red must be a Reduction"):
            reduction.reduction_to_json(bad)  # was AttributeError


# ---------------------------------------------------------------- lemma 1

def test_lemma1_term_counts():
    for r in range(1, 6):
        for s in range(1, 6):
            terms = lemma1_expand(r, s)
            expected = r * (r + 1) // 2 + s * (s + 1) // 2 + min(r, s)
            assert len(terms) == expected
            assert isinstance(terms, tuple)
            assert lemma1_expand(r, s) is terms


def test_lemma1_structure_golden_1_1():
    a, b, c = lemma1_expand(1, 1)
    # family A: 1/([u][u+v])
    assert (a.coefficient, a.q_power_u, a.q_power_v) == (F(1), 0, 0)
    assert (a.denom_u_pow, a.denom_v_pow, a.denom_uv_pow, a.one_minus_q_pow) == (1, 0, 1, 0)
    # family B: 1/([v][u+v])
    assert (b.denom_u_pow, b.denom_v_pow, b.denom_uv_pow) == (0, 1, 1)
    # family C: -(1-q)/[u+v]
    assert (c.coefficient, c.denom_uv_pow, c.one_minus_q_pow) == (F(-1), 1, 1)


def test_lemma1_zero_coefficient_terms_are_kept():
    terms = lemma1_expand(2, 1)
    assert len(terms) == 3 + 1 + 1
    assert any(t.coefficient == 0 for t in terms)  # (a,b) = (0,1) has trinomial 0


def test_verify_lemma1_accepts_string_q():
    assert verify_lemma1(2, 2, 3, 1, "3/2")


def test_verify_lemma1_rejects_q_equal_one():
    with pytest.raises(DomainError) as info:
        verify_lemma1(1, 1, 1, 1, 1)
    assert str(info.value) == "verify_lemma1: q must differ from 1"


def test_malformed_rationals_raise_domain_error():
    # every exception Fraction() raises for a non-finite float, None or a
    # bad string reaches the caller as DomainError
    calls = (
        lambda: theorem1_reduce(1, 1, float("inf")),
        lambda: tornheim_q_info(1, 1, float("inf"), q=2),
        lambda: verify_lemma1(1, 1, 1, 1, float("inf")),
        lambda: as_rational(None),
    )
    for call in calls:
        with pytest.raises(DomainError, match="not a rational number"):
            call()
    # an integral q stays a Fraction: in floats, [n] = (q^n - 1)/(q - 1)
    # would round, and this point of the identity would fail
    assert verify_lemma1(1, 2, 1, 3, 2) and verify_lemma1(1, 2, 1, 3, 2.0)


def test_a_malformed_exponent_is_named_in_the_error():
    # as a malformed q names q, a malformed exponent names its argument
    with pytest.raises(DomainError) as info:
        tornheim_q_info(1, 1, float("inf"), q=2)
    assert str(info.value) == "tornheim_q: t: not a rational number: inf"
    with pytest.raises(DomainError) as info:
        theorem1_reduce(1, 1, "x")
    assert str(info.value) == "theorem1_reduce: t: not a rational number: 'x'"


def test_malformed_arguments_raise_domain_error_naming_them():
    # an index that is no integer, or is a bool, is refused at the boundary;
    # lemma1_expand refuses it before its memo, where True would hit key 1
    for call, args, message in [
        (lemma1_expand, (1.5, 1), "lemma1_expand: r must be an integer >= 1, got 1.5"),
        (lemma1_expand, (1, True), "lemma1_expand: s must be an integer >= 1, got True"),
        (verify_lemma1, (1.5, 1, 1, 1, 2), "verify_lemma1: r must be an integer >= 1, got 1.5"),
        (verify_lemma1, (1, 1, "x", 1, 2), "verify_lemma1: u must be an integer >= 1, got 'x'"),
        (verify_lemma1, (1, 1, 1, 1, "x"), "verify_lemma1: q: not a rational number: 'x'"),
        (verify_lemma1, (1, 1, 1, 1, -1), "verify_lemma1: q must differ from -1, where [2] = 0"),
        (theorem1_reduce, (True, 1, 1), "theorem1_reduce: r must be an integer >= 1, got True"),
        (corollary1_reduce, (True, 1, 1), "corollary1_reduce: r must be an integer >= 1, got True"),
        (q_int, ("x", 2), "q_int: n must be an integer >= 0, got 'x'"),
        (q_int, (None, 2), "q_int: n must be an integer >= 0, got None"),
        (q_int, (2.5, 2), "q_int: n must be an integer >= 0, got 2.5"),
        (verify_theorem1, (1, 1, 1, "T", "x", 4), "verify_theorem1: q: not a rational number: 'x'"),
        (verify_theorem1, (1, 1, 1, "T", "1/2", 4), "verify_theorem1: q must be >= 1, got 1/2"),
        (verify_theorem1, (1, 1, 0.5, "T", 2, 4), "verify_theorem1: t must be an integer, got 0.5"),
        (verify_theorem1, (1, 1, True, "T", 2, 4), "verify_theorem1: t must be an integer, got True"),
        (verify_theorem1, (1, 1, 1, "X", 2, 4), "unknown variant 'X'; expected one of ('T', 'S', 'R')"),
        # a bool is no number, and no sign, anywhere (True == 1)
        (q_zeta1, (True, 1, 2), "q_zeta1: s: not a rational number: True"),
        (q_zeta1, (3, True, 2), "q_zeta1: sign must be +1 or -1, got True"),
        (tornheim_q, (True, 1, 1, 1, 1, 2), "tornheim_q: r: not a rational number: True"),
        (theorem1_reduce, (1, 1, True), "theorem1_reduce: t: not a rational number: True"),
        (classical_double_euler, (2, True), "classical_double_euler: second must be an integer, got True"),
        (double_euler_closed, (2, True), "double_euler_closed: t must be an integer, got True"),
        (double_euler_closed, (2, 1, True), "double_euler_closed: sigma must be +1 or -1, got True"),
        (classical_zeta, (True, -1), "classical_zeta: s: not a rational number: True"),
        (classical_zeta, (3, True), "classical_zeta: sign must be +1 or -1, got True"),
        (SignedIndex, (2, True), "SignedIndex: sign must be +1 or -1, got True"),
        # arguments of the wrong type
        (classical_zeta, ("3",), "classical_zeta: s must be a number, got '3'"),
        (closed_form_table, ("5",), "closed_form_table: max_weight must be an integer, got '5'"),
        (zeta_const, ("3",), "zeta_const: k must be an integer >= 1, got '3'"),
        (bernoulli, ("4",), "bernoulli: n must be an integer >= 0, got '4'"),
        (bernoulli, (2.5,), "bernoulli: n must be an integer >= 0, got 2.5"),
        (evaluate_reduction, (None, 2), "evaluate_reduction: reduction must be a Reduction, got None"),
        (expr_numeric, (None,), "expr_numeric: expr must be a ZetaExpression, got None"),
        (q_zeta1, (3, 1, [2]), "QParam: q must be a number, got [2]"),
        (q_zeta1, (3, 1, 2, 30), "q_zeta1: prec must be a PrecisionConfig, got 30"),
        (tornheim_classical, (2, 1, 2, "T", 30), "tornheim_classical: prec must be a PrecisionConfig, got 30"),
    ]:
        with pytest.raises(DomainError) as info:
            call(*args)
        assert str(info.value) == message, (call, args)


def test_lemma1_dropping_a_term_breaks_identity(monkeypatch):
    # negative control: the identity is exact, so any missing piece must show
    assert verify_lemma1(2, 2, 2, 3, 2)
    nonzero = tuple(t for t in lemma1_expand(2, 2) if t.coefficient != 0)
    monkeypatch.setattr(reduction, "lemma1_expand", lambda r, s: nonzero[:-1])
    assert not verify_lemma1(2, 2, 2, 3, 2)


def _lemma1_three_families(r, s):
    """Lemma 1's three families written out one by one: the reference for
    lemma1_expand, which builds B as the mirror of A."""
    terms = []
    for a in range(r):
        for b in range(r - a):
            terms.append(PartialFractionTerm(
                coefficient=trinomial(a + s - 1, a, b),
                q_power_u=s - 1 - b, q_power_v=a,
                denom_u_pow=r - a - b, denom_v_pow=0, denom_uv_pow=s + a,
                one_minus_q_pow=b,
            ))
    for a in range(s):
        for b in range(s - a):
            terms.append(PartialFractionTerm(
                coefficient=trinomial(a + r - 1, a, b),
                q_power_u=a, q_power_v=r - 1 - b,
                denom_u_pow=0, denom_v_pow=s - a - b, denom_uv_pow=r + a,
                one_minus_q_pow=b,
            ))
    for j in range(1, min(r, s) + 1):
        terms.append(PartialFractionTerm(
            coefficient=-trinomial(r + s - j - 1, r - j, s - j),
            q_power_u=s - j, q_power_v=r - j,
            denom_u_pow=0, denom_v_pow=0, denom_uv_pow=r + s - j,
            one_minus_q_pow=j,
        ))
    return tuple(terms)


def test_lemma1_matches_the_three_families_term_for_term():
    for r, s in product(range(1, 9), repeat=2):
        assert lemma1_expand(r, s) == _lemma1_three_families(r, s), (r, s)


@pytest.mark.parametrize("q", [F(-3, 5), F(1, 3), 0, F(-7, 2)])
def test_lemma1_holds_below_one_and_a_dropped_term_shows(q, monkeypatch):
    # q < 1, 0 and negative q: criterion 3 and `verify lemma1` use q > 1 only
    points = list(product(range(1, 5), range(1, 5), range(1, 6), range(1, 6)))
    assert all(verify_lemma1(r, s, u, v, q) for r, s, u, v in points)
    # drop, in turn, each term that is nonzero at (u, v) = (2, 3); at q = 0
    # that is each nonzero coefficient of q^0
    terms = lemma1_expand(3, 2)
    dropped = [i for i, t in enumerate(terms)
               if t.coefficient and F(q) ** (2 * t.q_power_u + 3 * t.q_power_v)]
    assert dropped
    for i in dropped:
        monkeypatch.setattr(reduction, "lemma1_expand", lambda r, s: terms[:i] + terms[i + 1:])
        assert not verify_lemma1(3, 2, 2, 3, q), i


# ---------------------------------------------------------------- theorem 1

def test_theorem1_structure_golden_T111():
    red = theorem1_reduce(1, 1, 1, "T")
    assert red.terms == (
        (F(1), DoubleQZeta(SI(2, 1), SI(1, 1), 0)),
        (F(1), DoubleQZeta(SI(2, 1), SI(1, 1), 0)),
        (F(-1), PhiTerm(SI(2, 1), 1)),
    )


def test_theorem1_structure_golden_S111():
    red = theorem1_reduce(1, 1, 1, "S")
    assert red.terms == (
        (F(1), DoubleQZeta(SI(2, -1), SI(1, 1), 0)),
        (F(1), DoubleQZeta(SI(2, -1), SI(1, 1), 0)),
        (F(-1), PhiTerm(SI(2, -1), 1)),
    )


def test_theorem1_structure_golden_R111():
    # the diagonal family enters with a plus sign and weight (1+q)^(j-r-s-t)
    red = theorem1_reduce(1, 1, 1, "R")
    assert red.terms == (
        (F(1), DoubleQZeta(SI(2, -1), SI(1, -1), 0)),
        (F(1), DoubleQZeta(SI(2, 1), SI(1, -1), 0)),
        (F(1), QSquaredZeta(2, 1, -2)),
    )


def test_theorem1_term_counts_and_weight_homogeneity():
    for r in range(1, 7):
        for s in range(1, 7):
            for t in (0, 1, 2, F(7, 2)):
                for variant in ("T", "S", "R"):
                    red = theorem1_reduce(r, s, t, variant)
                    assert len(red.terms) == r * (r + 1) // 2 + s * (s + 1) // 2 + min(r, s)
                    w = r + s + t
                    for _, kind in red.terms:
                        if isinstance(kind, DoubleQZeta):
                            assert kind.outer.value + kind.inner.value + kind.one_minus_q_pow == w
                        elif isinstance(kind, PhiTerm):
                            assert kind.index.value + kind.one_minus_q_pow == w
                        else:
                            assert kind.index + kind.one_minus_q_pow == w
                            assert kind.one_plus_q_pow == kind.one_minus_q_pow - w


def test_theorem1_fractional_t():
    red = theorem1_reduce(2, 1, F(1, 2), "R")
    assert red.t == F(1, 2)
    coeff, first = red.terms[0]
    assert isinstance(first, DoubleQZeta)
    assert first.outer == SI(F(3, 2), -1)
    qsq = [k for _, k in red.terms if isinstance(k, QSquaredZeta)]
    assert qsq == [QSquaredZeta(F(5, 2), 1, F(-5, 2))]


def test_theorem1_rejects_bad_variant_and_indices():
    with pytest.raises(DomainError) as info:
        theorem1_reduce(1, 1, 1, "X")
    assert str(info.value) == "unknown variant 'X'; expected one of ('T', 'S', 'R')"
    with pytest.raises(DomainError) as info:
        theorem1_reduce(0, 1, 1, "T")
    assert str(info.value) == "theorem1_reduce: r must be an integer >= 1, got 0"


def test_theorem1_render_golden():
    assert (
        theorem1_reduce(1, 1, 1, "T").render()
        == "T[1,1,1] = zq[2,1] + zq[2,1] - (1-q)*phi[2]"
    )
    assert (
        theorem1_reduce(1, 1, 1, "R").render()
        == "R[1,1,1] = zq[2-,1-] + zq[2,1-] + (1-q)*(1+q)^(-2)*zq2[2]"
    )


def test_theorem1_exact_on_finite_triangles():
    """The q-series and its reduction on every triangle u + v <= w, w up to
    9, in exact rationals (q > 1): 243 cases."""
    grid = product((F(3, 2), F(2), F(7, 5)), "TSR", range(1, 4), range(1, 4), range(3))
    for q, variant, r, s, t in grid:
        assert verify_theorem1(r, s, t, variant, q, 9), (q, variant, r, s, t)


def test_verify_theorem1_catches_a_sign_flip_in_the_R_diagonal(monkeypatch):
    # the zeta over base q^2 comes from the R branch of _theorem1_term alone;
    # with its sign flipped every R case fails, and T and S hold
    right = reduction.theorem1_reduce

    def flipped(*args):
        red = right(*args)
        return replace(red, terms=tuple(
            (-c if isinstance(k, QSquaredZeta) else c, k) for c, k in red.terms))

    monkeypatch.setattr(reduction, "theorem1_reduce", flipped)
    for variant, r, s, t in product("TSR", range(1, 4), range(1, 4), range(3)):
        assert verify_theorem1(r, s, t, variant, 2, 9) == (variant != "R"), (variant, r, s, t)


# ---------------------------------------------------------------- corollary 1

def test_corollary1_golden_T212():
    assert corollary1_reduce(2, 1, 2, "T") == (
        (F(1), SI(3, 1), SI(2, 1)),
        (F(1), SI(4, 1), SI(1, 1)),
        (F(1), SI(4, 1), SI(1, 1)),
    )


def test_corollary1_golden_R111():
    assert corollary1_reduce(1, 1, 1, "R") == (
        (F(1), SI(2, -1), SI(1, -1)),
        (F(1), SI(2, 1), SI(1, -1)),
    )


def test_corollary1_binomial_coefficients():
    terms = corollary1_reduce(3, 2, 1, "T")
    # first family coefficients C(a+1, 1) = 1, 2, 3 for a = 0, 1, 2
    assert [c for c, _, _ in terms[:3]] == [F(1), F(2), F(3)]
    # second family C(a+2, 2) = 1, 3 for a = 0, 1
    assert [c for c, _, _ in terms[3:]] == [F(1), F(3)]
    # C(a+s-1, s-1) = trinomial(a+s-1; a, 0): corollary 1 is the (1-q)^0
    # slice of theorem 1, term for term and in order, on its valid grid
    checked = 0
    for variant in ("T", "S", "R"):
        for r in range(1, 6):
            for s in range(1, 6):
                for t in range(-1, 4):
                    try:
                        classical = corollary1_reduce(r, s, t, variant)
                    except DomainError:
                        continue
                    slice_ = tuple(
                        (c, k.outer, k.inner)
                        for c, k in theorem1_reduce(r, s, t, variant).terms
                        if isinstance(k, DoubleQZeta) and k.one_minus_q_pow == 0
                    )
                    assert classical == slice_, (variant, r, s, t)
                    checked += 1
    assert checked > 200


@pytest.mark.parametrize(
    "r, s, t, variant, fragment",
    [
        (2, 1, 0, "T", "s + t > 1"),
        (1, 2, 0, "T", "r + t > 1"),
        (1, 1, 0, "R", "r + t > 1"),
        (1, 1, -1, "S", "s + t > 0"),
    ],
)
def test_corollary1_precondition_messages(r, s, t, variant, fragment):
    with pytest.raises(DivergenceError, match=fragment.replace("+", r"\+")):
        corollary1_reduce(r, s, t, variant)


def test_corollary1_memo_is_bounded_shares_entries_and_skips_rejected_input():
    # a hit looks up the one exact.memo entry of the list and nothing else
    assert memo.cache_info().maxsize == MEMO_SIZE
    first = corollary1_reduce(3, 2, 2, "S")
    hits = memo.cache_info().hits
    assert corollary1_reduce(3, 2, 2, "S") is first
    assert memo.cache_info().hits == hits + 1
    assert isinstance(first, tuple)
    # input equal to a cached key but rejected by the checks still raises
    before = memo.cache_info()
    for args in [(3, 2, 2.0, "S"), (3.0, 2, 2, "S"), (3, 2, [2], "S"), (3, 2, 2, "X")]:
        with pytest.raises(DomainError):
            corollary1_reduce(*args)
    with pytest.raises(DivergenceError):
        corollary1_reduce(2, 1, 0, "T")
    assert memo.cache_info() == before


def test_theorem1_memo_is_bounded_shares_entries_and_skips_rejected_input():
    assert memo.cache_info().maxsize == MEMO_SIZE
    first = theorem1_reduce(2, 1, F(1, 2), "R")
    hits = memo.cache_info().hits
    # t is keyed exactly, whatever form it is given in
    assert theorem1_reduce(2, 1, "1/2", "R") is first
    assert theorem1_reduce(2, 1, 0.5, "R") is first
    assert memo.cache_info().hits == hits + 2
    before = memo.cache_info()
    for args in [(2.0, 1, 1, "R"), (2, 0, 1, "R"), (2, 1, "x", "R"), (2, 1, 1, "X")]:
        with pytest.raises(DomainError):
            theorem1_reduce(*args)
    assert memo.cache_info() == before


def test_corollary1_allows_t_zero_when_inequalities_hold():
    terms = corollary1_reduce(2, 2, 0, "T")
    assert terms[0] == (F(1), SI(2, 1), SI(2, 1))
    assert corollary1_reduce(1, 1, 0, "S")  # s+t = 1 > 0 suffices here


def test_corollary1_exact_on_finite_triangles():
    """Theorem 1 at q = 1: direct triangle sums against the reduction's
    double sums cut to m <= w, in exact rationals, on every window up to 16
    and every integer t from -1 to 3; the rest raise DivergenceError."""
    accepted = 0
    for variant, r, s, t in product("TSR", range(1, 4), range(1, 4), range(-1, 4)):
        try:
            assert verify_theorem1(r, s, t, variant, 1, 16), (variant, r, s, t)
            accepted += 1
        except DivergenceError:
            pass
    assert accepted == 107


def test_verify_corollary1_rejects_bad_windows_and_divergent_input():
    for w in (1, 0, 2.0, "12", True):
        with pytest.raises(DomainError, match="window"):
            verify_theorem1(1, 1, 1, "T", 1, w)
    with pytest.raises(DivergenceError):
        verify_theorem1(2, 1, 0, "T", 1, 12)


@pytest.mark.parametrize("mutate", [
    lambda terms: ((terms[0][0] + 1, *terms[0][1:]), *terms[1:]),
    lambda terms: ((terms[0][0], terms[0][1], SI(terms[0][2].value, -terms[0][2].sign)),
                   *terms[1:]),
], ids=["coefficient", "inner_sign"])
def test_verify_corollary1_catches_a_wrong_reduction(monkeypatch, mutate):
    for variant, r, s, t in [("T", 1, 1, 1), ("S", 2, 3, 1), ("R", 3, 1, 2)]:
        wrong = mutate(corollary1_reduce(r, s, t, variant))
        monkeypatch.setattr(reduction, "corollary1_reduce", lambda *args: wrong)
        assert not verify_theorem1(r, s, t, variant, 1, 3), (variant, r, s, t)
        monkeypatch.undo()
