"""Tests for partial fractions, depth-2 reductions, and their serialization."""
from __future__ import annotations

from fractions import Fraction

import pytest

from tornheim.errors import DivergenceError, DomainError
from tornheim.exact import SignedIndex
from tornheim.reduction import (
    DoubleQZeta,
    PhiTerm,
    QSquaredZeta,
    Reduction,
    corollary1_reduce,
    lemma1_expand,
    product_decompose,
    reduction_from_json,
    reduction_to_json,
    theorem1_reduce,
    trinomial,
    verify_lemma1,
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


def test_verify_lemma1_small_sweep():
    for r in range(1, 4):
        for s in range(1, 4):
            for u in range(1, 5):
                for v in range(1, 5):
                    for q in (F(2), F(3, 2), F(7, 2)):
                        assert verify_lemma1(r, s, u, v, q)


def test_verify_lemma1_accepts_string_q():
    assert verify_lemma1(2, 2, 3, 1, "3/2")


def test_verify_lemma1_rejects_q_equal_one():
    with pytest.raises(DomainError):
        verify_lemma1(1, 1, 1, 1, 1)


def test_lemma1_dropping_a_term_breaks_identity():
    # negative control: the identity is exact, so any missing piece must show
    r, s, u, v, q = 2, 2, 2, 3, F(2)
    terms = lemma1_expand(r, s)

    def rhs(term_list):
        qi = lambda n: (q ** n - 1) / (q - 1)
        total = F(0)
        for t in term_list:
            val = t.coefficient * (1 - q) ** t.one_minus_q_pow
            val *= q ** (t.q_power_u * u + t.q_power_v * v)
            val /= qi(u) ** t.denom_u_pow * qi(v) ** t.denom_v_pow * qi(u + v) ** t.denom_uv_pow
            total += val
        return total

    qi = lambda n: (q ** n - 1) / (q - 1)
    lhs = 1 / (qi(u) ** r * qi(v) ** s)
    assert rhs(terms) == lhs
    nonzero = [t for t in terms if t.coefficient != 0]
    assert rhs(nonzero[:-1]) != lhs


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
    with pytest.raises(DomainError):
        theorem1_reduce(1, 1, 1, "X")
    with pytest.raises(DomainError):
        theorem1_reduce(0, 1, 1, "T")


def test_theorem1_render_golden():
    assert (
        theorem1_reduce(1, 1, 1, "T").render()
        == "T[1,1,1] = zq[2,1] + zq[2,1] - (1-q)*phi[2]"
    )
    assert (
        theorem1_reduce(1, 1, 1, "R").render()
        == "R[1,1,1] = zq[2-,1-] + zq[2,1-] + (1-q)*(1+q)^(-2)*zq2[2]"
    )


# ---------------------------------------------------------------- corollary 1

def test_corollary1_golden_T212():
    assert corollary1_reduce(2, 1, 2, "T") == [
        (F(1), SI(3, 1), SI(2, 1)),
        (F(1), SI(4, 1), SI(1, 1)),
        (F(1), SI(4, 1), SI(1, 1)),
    ]


def test_corollary1_golden_R111():
    assert corollary1_reduce(1, 1, 1, "R") == [
        (F(1), SI(2, -1), SI(1, -1)),
        (F(1), SI(2, 1), SI(1, -1)),
    ]


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
                    slice_ = [
                        (c, k.outer, k.inner)
                        for c, k in theorem1_reduce(r, s, t, variant).terms
                        if isinstance(k, DoubleQZeta) and k.one_minus_q_pow == 0
                    ]
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


def test_corollary1_allows_t_zero_when_inequalities_hold():
    terms = corollary1_reduce(2, 2, 0, "T")
    assert terms[0] == (F(1), SI(2, 1), SI(2, 1))
    assert corollary1_reduce(1, 1, 0, "S")  # s+t = 1 > 0 suffices here


# ---------------------------------------------------------------- products

def test_product_decompose_maps_variants():
    assert product_decompose(2, 3, "TT").variant == "T"
    assert product_decompose(2, 3, "SS").variant == "S"
    assert product_decompose(2, 3, "TS").variant == "R"
    assert product_decompose(2, 3, "TS").t == 0
    with pytest.raises(DomainError):
        product_decompose(2, 3, "ST")


# ---------------------------------------------------------------- JSON

def test_reduction_json_roundtrip():
    for args in [(1, 1, 1, "T"), (3, 2, 2, "S"), (2, 2, 0, "R"), (2, 1, F(1, 2), "R")]:
        red = theorem1_reduce(*args)
        assert reduction_from_json(reduction_to_json(red)) == red


def test_reduction_json_is_plain_data():
    import json

    red = theorem1_reduce(2, 1, F(1, 2), "R")
    text = json.dumps(reduction_to_json(red))
    assert reduction_from_json(json.loads(text)) == red
