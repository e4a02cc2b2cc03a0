"""Tests for the exact ring: constants, monomial order, ring axioms, JSON."""
from __future__ import annotations

import json
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from tornheim.errors import DivergenceError, DomainError, PrecisionError
from tornheim.exact import (
    SignedIndex,
    ZetaExpression,
    ZetaMonomial,
    bernoulli,
    expr_numeric,
    expression_from_json,
    expression_to_json,
    render_sum,
    zeta_const,
    zeta_even_as_pi,
)
from tornheim.cli import main
from tornheim.reduction import theorem1_reduce

F = Fraction


def _rebuilt(expr):
    """expr through the validating constructor: the canonical form to compare
    with, as construction canonicalizes."""
    return ZetaExpression(dict(expr.terms()))


# ---------------------------------------------------------------- constants

@pytest.mark.parametrize(
    "n, expected",
    [
        (0, F(1)),
        (1, F(-1, 2)),
        (2, F(1, 6)),
        (3, F(0)),
        (4, F(-1, 30)),
        (8, F(-1, 30)),
        (12, F(-691, 2730)),
        (20, F(-174611, 330)),
    ],
)
def test_bernoulli_table(n, expected):
    assert bernoulli(n) == expected


def test_bernoulli_defining_recurrence():
    # sum_{k=0}^{n} C(n+1,k) B_k = 0 for n >= 1
    from math import comb

    for n in range(1, 40):
        assert sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1)) == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(DomainError):
        bernoulli(-1)


@pytest.mark.parametrize(
    "k, coeff",
    [(2, F(1, 6)), (4, F(1, 90)), (6, F(1, 945)), (8, F(1, 9450))],
)
def test_zeta_even_as_pi_small(k, coeff):
    expr = zeta_even_as_pi(k)
    assert expr.terms() == [(ZetaMonomial(pi_exponent=k), coeff)]


def test_zeta_even_as_pi_matches_mpmath_oracle():
    with mp.workdps(40):
        for k in range(2, 22, 2):
            expr = zeta_even_as_pi(k)
            ((mono, coeff),) = expr.terms()
            approx = mpf(coeff.numerator) / coeff.denominator * mp.pi ** mono.pi_exponent
            assert abs(approx - mpmath.zeta(k)) < mpf(10) ** -35


@pytest.mark.parametrize("k", [1, 3, 5])
def test_zeta_even_as_pi_rejects_odd(k):
    with pytest.raises(DomainError):
        zeta_even_as_pi(k)


def test_zeta_const_one_diverges():
    with pytest.raises(DivergenceError):
        zeta_const(1, 1)


def test_zeta_const_signed_values():
    # zeta(1;-1) = -log 2
    assert zeta_const(1, -1).terms() == [(ZetaMonomial(log2_exponent=1), F(-1))]
    # zeta(2;-1) = -pi^2/12
    assert zeta_const(2, -1).terms() == [(ZetaMonomial(pi_exponent=2), F(-1, 12))]
    # zeta(3;-1) = -(3/4) zeta(3)
    assert zeta_const(3, -1).terms() == [(ZetaMonomial(odd_zeta_factors=(3,)), F(-3, 4))]
    # zeta(3;+1) is the atom itself
    assert zeta_const(3).terms() == [(ZetaMonomial(odd_zeta_factors=(3,)), F(1))]


def test_zeta_const_signed_matches_mpmath_oracle():
    with mp.workdps(40):
        for k in range(2, 12):
            val = expr_numeric(zeta_const(k, -1))
            oracle = (2 ** (1 - mpf(k)) - 1) * mpmath.zeta(k)
            assert abs(val - oracle) < mpf(10) ** -30


# ---------------------------------------------------------------- SignedIndex

def test_signed_index_render_and_json():
    for value, sign, text in [(1, 1, "1"), (2, -1, "2-"), (F(5, 2), 1, "5/2"),
                              (F(7, 2), -1, "7/2-"), (10, 1, "10")]:
        si = SignedIndex(value, sign)
        assert str(si) == text
        assert si.to_json() == {"value": str(F(value)), "sign": sign}


def test_signed_index_validation():
    for value, sign in ((2, 0), ("2", 1), (2.5, 1)):
        with pytest.raises(DomainError):
            SignedIndex(value, sign)


def test_signed_index_has_slots_and_keeps_its_value_semantics():
    si = SignedIndex(F(3, 2), -1)
    assert not hasattr(si, "__dict__")
    with pytest.raises(AttributeError):
        si.sign = 1
    assert hash(si) == hash(SignedIndex(F(3, 2), -1))
    assert len({si, SignedIndex(F(3, 2), -1), SignedIndex(2)}) == 2
    assert sorted([SignedIndex(2), si, SignedIndex(1, -1), SignedIndex(2, -1)]) == [
        SignedIndex(1, -1), si, SignedIndex(2, -1), SignedIndex(2)]


# ---------------------------------------------------------------- monomials

def test_monomial_normalizes_factor_order():
    a = ZetaMonomial(odd_zeta_factors=(5, 3, 3))
    b = ZetaMonomial(odd_zeta_factors=(3, 5, 3))
    assert a == b
    assert a.odd_zeta_factors == (3, 3, 5)


def test_monomial_rejects_even_zeta_factor():
    with pytest.raises(DomainError):
        ZetaMonomial(odd_zeta_factors=(4,))


@pytest.mark.parametrize("kwargs, named", [
    ({"pi_exponent": 2.5}, "pi_exponent"),  # was pi^2.5, evaluated by expr_numeric
    ({"pi_exponent": True}, "pi_exponent"),  # was pi^1
    ({"pi_exponent": None}, "pi_exponent"),  # was TypeError
    ({"log2_exponent": F(1)}, "log2_exponent"),
    ({"log2_exponent": "1"}, "log2_exponent"),
    ({"odd_zeta_factors": (3.0,)}, "odd_zeta_factors"),  # was rendered zeta(3.0)
    ({"odd_zeta_factors": (True,)}, "odd_zeta_factors"),
    ({"odd_zeta_factors": None}, "odd_zeta_factors"),
    ({"odd_zeta_factors": 3}, "odd_zeta_factors"),
    ({"odd_zeta_factors": "3"}, "odd_zeta_factors"),
])
def test_monomial_refuses_what_is_not_an_integer(kwargs, named):
    with pytest.raises(DomainError, match=f"ZetaMonomial: {named}"):
        ZetaMonomial(**kwargs)


def test_monomial_product_skips_the_checks_and_equals_a_checked_build():
    a = ZetaMonomial(1, 2, (5, 3))
    b = ZetaMonomial(2, 0, (3, 7))
    product = a * b
    assert product == ZetaMonomial(3, 2, (3, 3, 5, 7))
    assert product.odd_zeta_factors == (3, 3, 5, 7)
    assert hash(product) == hash(ZetaMonomial(3, 2, (7, 5, 3, 3)))
    with pytest.raises(TypeError):
        a * 2


@pytest.mark.parametrize("terms, named", [
    ("x", "terms must be a Mapping"),
    ([(ZetaMonomial(), 1)], "terms must be a Mapping"),
    (0, "terms must be a Mapping"),
    ({"x": 1}, "keys must be ZetaMonomial"),  # was accepted, and failed in render
    ({(3,): 1}, "keys must be ZetaMonomial"),
    ({ZetaMonomial(): None}, "coefficient"),
    ({ZetaMonomial(): float("nan")}, "coefficient"),
    ({ZetaMonomial(): True}, "coefficient"),
    ({ZetaMonomial(): "x"}, "coefficient"),
])
def test_expression_refuses_malformed_terms(terms, named):
    with pytest.raises(DomainError, match=f"ZetaExpression: .*{named}"):
        ZetaExpression(terms)


def test_expression_takes_rational_coefficients():
    m3 = ZetaMonomial(odd_zeta_factors=(3,))
    assert ZetaExpression({m3: "1/2"}) == ZetaExpression({m3: F(1, 2)}) == ZetaExpression({m3: 0.5})
    assert ZetaExpression(None).is_zero() and ZetaExpression({}).is_zero()


def test_monomial_weight_and_order():
    m1 = ZetaMonomial(pi_exponent=2, odd_zeta_factors=(3,))  # weight 5
    m2 = ZetaMonomial(odd_zeta_factors=(5,))  # weight 5
    m3 = ZetaMonomial(odd_zeta_factors=(3,))  # weight 3
    assert m1.weight == 5 and m2.weight == 5 and m3.weight == 3
    # lower weight first; at equal weight, higher pi exponent sorts later
    assert sorted([m1, m2, m3], key=lambda m: m.sort_key) == [m3, m2, m1]


# ---------------------------------------------------------------- ring axioms

def _random_expr(rng: random.Random) -> ZetaExpression:
    terms = {}
    for _ in range(rng.randint(0, 4)):
        mono = ZetaMonomial(
            pi_exponent=rng.randint(0, 3),
            log2_exponent=rng.randint(0, 2),
            odd_zeta_factors=tuple(rng.choice([3, 5, 7]) for _ in range(rng.randint(0, 2))),
        )
        terms[mono] = F(rng.randint(-9, 9), rng.randint(1, 9))
    return ZetaExpression(terms)


def test_ring_axioms_seeded_sweep():
    rng = random.Random(20260816)
    zero = ZetaExpression.zero()
    one = ZetaExpression.one()
    for _ in range(200):
        a, b, c = _random_expr(rng), _random_expr(rng), _random_expr(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + zero == a
        assert a - a == zero
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * one == a
        assert a * (b + c) == a * b + a * c
        assert a * F(3, 7) == F(3, 7) * a


def test_constructor_drops_zeros_and_merges():
    m = ZetaMonomial(odd_zeta_factors=(3,))
    e = ZetaExpression({m: F(0)})
    assert e.is_zero()
    # duplicate monomials merge via differing-but-equal key objects
    e2 = ZetaExpression({m: F(1, 2)}) + ZetaExpression({ZetaMonomial(odd_zeta_factors=(3,)): F(1, 2)})
    assert e2.terms() == [(m, F(1))]


def test_constructor_converts_each_coefficient_to_a_fraction():
    m3, m5 = ZetaMonomial(odd_zeta_factors=(3,)), ZetaMonomial(odd_zeta_factors=(5,))
    e = ZetaExpression({m3: 2, m5: 0.25, ZetaMonomial(): F(0)})
    assert e.terms() == [(m3, F(2)), (m5, F(1, 4))]
    assert all(type(c) is Fraction for _, c in e.terms())
    half = F(1, 2)
    assert ZetaExpression({m3: half}).terms()[0][1] is half  # kept, not rebuilt
    assert ZetaExpression({m3: 0, m5: 0.0}).is_zero()
    for expr in (e, ZetaExpression({m3: "2/6"})):
        assert _rebuilt(expr) == expr
        assert _rebuilt(_rebuilt(expr)) == _rebuilt(expr)


def test_expression_from_json_merges_converts_and_drops_zeros():
    z3 = {"pi": 0, "log2": 0, "zeta": [3]}
    z53 = {"pi": 2, "log2": 0, "zeta": [5, 3]}
    m3 = ZetaMonomial(odd_zeta_factors=(3,))
    m35 = ZetaMonomial(pi_exponent=2, odd_zeta_factors=(3, 5))
    # duplicate monomials that cancel are dropped; int and float become Fractions
    e = expression_from_json([
        {"coeff": "1/2", **z3}, {"coeff": 3, **z53}, {"coeff": "-1/2", **z3},
        {"coeff": 0.5, **z53}, {"coeff": 0, "pi": 4},
    ])
    assert e.terms() == [(m35, F(7, 2))]
    assert all(type(c) is Fraction for _, c in e.terms())
    # a "coeff": 0 term is dropped, and a later term of its monomial still counts
    assert expression_from_json([{"coeff": 0, **z3}, {"coeff": "2", **z3}]).terms() == [(m3, F(2))]
    # a cancelled monomial may come back
    back = expression_from_json([{"coeff": 1, **z3}, {"coeff": -1, **z3}, {"coeff": 1.5, **z3}])
    assert back.terms() == [(m3, F(3, 2))]
    # duplicates that sum to zero leave nothing
    assert expression_from_json([{"coeff": "1/3", **z53}, {"coeff": "-2/6", **z53}]).is_zero()
    assert expression_from_json([{"coeff": 0, **z3}]).is_zero()
    for expr in (e, back):
        assert _rebuilt(expr) == expr
        assert _rebuilt(_rebuilt(expr)) == _rebuilt(expr)
        assert expression_from_json(expression_to_json(expr)) == expr


@pytest.mark.parametrize("term, field", [
    ({"coeff": "-5/8", "zeta": [3.7]}, "odd_zeta_factors entry"),  # was zeta(3)
    ({"coeff": "-5/8", "zeta": [3], "pi": 0.5}, "pi_exponent"),  # was pi^0
    ({"coeff": "-5/8", "zeta": [3], "log2": True}, "log2_exponent"),  # was log2^1
    ({"coeff": "-5/8", "zeta": ["3"]}, "odd_zeta_factors entry"),  # was zeta(3)
    ({"coeff": "-5/8", "zeta": "3"}, '"zeta"'),
    ({"coeff": "-5/8", "zeta": [3], "pi": -2}, "pi_exponent"),
])
def test_expression_from_json_takes_only_json_integers(term, field):
    with pytest.raises(DomainError, match="bad expression term") as info:
        expression_from_json([term])
    assert f"{field} must be" in str(info.value)


@pytest.mark.parametrize("call", [expression_to_json])
def test_expression_readers_refuse_what_is_not_an_expression(call):
    for bad in (None, "x", {ZetaMonomial(): 1}):
        with pytest.raises(DomainError, match=f"{call.__name__}: .* must be a ZetaExpression"):
            call(bad)


def test_expression_from_json_rejects_infinite_coefficients():
    for blob in ('[{"coeff": Infinity, "zeta": [3]}]', '[{"coeff": -Infinity, "zeta": [3]}]'):
        with pytest.raises(DomainError, match="bad expression term"):
            expression_from_json(json.loads(blob))


def test_canonicalize_idempotent():
    """Construction canonicalizes: rebuilding an expression changes nothing."""
    rng = random.Random(7)
    for _ in range(50):
        e = _random_expr(rng)
        assert _rebuilt(e) == e
        assert _rebuilt(_rebuilt(e)) == _rebuilt(e)


_MONOMIALS = st.builds(
    ZetaMonomial,
    pi_exponent=st.integers(0, 3),
    log2_exponent=st.integers(0, 2),
    odd_zeta_factors=st.lists(st.sampled_from([3, 5, 7]), max_size=2).map(tuple),
)
_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_EXPRESSIONS = st.dictionaries(_MONOMIALS, _COEFFS, max_size=5).map(ZetaExpression)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_EXPRESSIONS, _EXPRESSIONS, _COEFFS | st.integers(-3, 3))
def test_ring_operations_return_canonical_expressions(a, b, c):
    """Ring results skip re-canonicalization; each must already be canonical."""
    for result in (a + b, a - b, -a, a * b, a * c, c * a):
        assert result == _rebuilt(result)
        assert all(type(coeff) is Fraction and coeff != 0 for _, coeff in result.terms())
    assert (a * 0).is_zero() and (a - a).is_zero()


# ---------------------------------------------------------------- rendering

def test_render_golden(capsys):
    e = ZetaExpression(
        {
            ZetaMonomial(odd_zeta_factors=(3,)): F(-5, 8),
            ZetaMonomial(pi_exponent=2, odd_zeta_factors=(3,)): F(1, 16),
            ZetaMonomial(odd_zeta_factors=(5,)): F(-27, 32),
        }
    )
    assert e.render() == "-(5/8)*zeta(3) - (27/32)*zeta(5) + (1/16)*pi^2*zeta(3)"
    assert ZetaExpression.zero().render() == "0"
    assert zeta_const(1, -1).render() == "-log2"
    assert ZetaExpression.constant(F(3, 4)).render() == "3/4"
    sq = zeta_const(3) * zeta_const(3)
    assert sq.render() == "zeta(3)^2"
    # a negative first term, a bare fractional constant, a coefficient of -1
    # and an integer one
    e = ZetaExpression({ZetaMonomial(): F(-3, 4), ZetaMonomial(odd_zeta_factors=(3,)): -1,
                        ZetaMonomial(odd_zeta_factors=(5,)): 2})
    assert e.render() == "-3/4 - zeta(3) + 2*zeta(5)"
    assert render_sum([(F(-1), "1"), (F(0), "x"), (F(2, 3), "y")]) == "-1 + 0*x + (2/3)*y"
    # Reduction.render and the CLI's classical line print through render_sum
    # too: a zero coefficient as 0*, and integer coefficients above 1 as n*
    assert theorem1_reduce(3, 4, 2, "S").render() == (
        "S[3,4,2] = zq[6-,3] + 3*(1-q)*zq[6-,2] + 3*(1-q)^2*zq[6-,1] + 4*zq[7-,2]"
        " + 12*(1-q)*zq[7-,1] + 10*zq[8-,1] + zq[5-,4] + 2*(1-q)*zq[5-,3]"
        " + (1-q)^2*zq[5-,2] + 0*(1-q)^3*zq[5-,1] + 3*zq[6-,3] + 6*(1-q)*zq[6-,2]"
        " + 3*(1-q)^2*zq[6-,1] + 6*zq[7-,2] + 12*(1-q)*zq[7-,1] + 10*zq[8-,1]"
        " - 10*(1-q)*phi[8-] - 12*(1-q)^2*phi[7-] - 3*(1-q)^3*phi[6-]"
    )
    assert main(["reduce", "R", "4", "2", "3", "--classical"]) == 0
    assert capsys.readouterr().out == (
        "R[4,2,3] = zeta[5-,4-] + 2*zeta[6-,3-] + 3*zeta[7-,2-] + 4*zeta[8-,1-]"
        " + zeta[7,2-] + 4*zeta[8,1-]\n"
    )


# ---------------------------------------------------------------- JSON

def test_json_roundtrip_seeded_sweep():
    rng = random.Random(99)
    for _ in range(100):
        e = _random_expr(rng)
        assert expression_from_json(expression_to_json(e)) == e


def test_json_golden_shape():
    e = ZetaExpression(
        {
            ZetaMonomial(odd_zeta_factors=(3,)): F(-5, 8),
            ZetaMonomial(pi_exponent=2, log2_exponent=1): F(7, 2),
        }
    )
    assert expression_to_json(e) == [
        {"coeff": "-5/8", "pi": 0, "log2": 0, "zeta": [3]},
        {"coeff": "7/2", "pi": 2, "log2": 1, "zeta": []},
    ]


# ---------------------------------------------------------------- numerics

def test_expr_numeric_against_mpmath_oracle():
    with mp.workdps(40):
        # -(5/8) zeta(3)
        e = ZetaExpression({ZetaMonomial(odd_zeta_factors=(3,)): F(-5, 8)})
        assert abs(expr_numeric(e) - (-F(5, 8).numerator / mpf(8) * mpmath.zeta(3))) < mpf(10) ** -28
        # pi^2/6 == zeta(2)
        e2 = zeta_even_as_pi(2)
        assert abs(expr_numeric(e2) - mpmath.zeta(2)) < mpf(10) ** -28
        # mixed monomial pi^2 * log2 * zeta(3)^2
        e3 = ZetaExpression({ZetaMonomial(2, 1, (3, 3)): F(1)})
        oracle = mp.pi ** 2 * mp.log(2) * mpmath.zeta(3) ** 2
        assert abs(expr_numeric(e3) - oracle) < mpf(10) ** -28


def test_expr_numeric_is_linear():
    rng = random.Random(5)
    for _ in range(10):
        a, b = _random_expr(rng), _random_expr(rng)
        with mp.workdps(40):
            lhs = expr_numeric(a + b)
            rhs = expr_numeric(a) + expr_numeric(b)
            assert abs(lhs - rhs) < mpf(10) ** -25


def test_expr_numeric_zero():
    assert expr_numeric(ZetaExpression.zero()) == 0


def test_expr_numeric_reads_each_zeta_factor_under_classical_zetas_key():
    # one entry per zeta(k) at one precision, shared with classical_zeta,
    # and the factor's PrecisionError still reaches the caller
    from tornheim.numeric import PrecisionConfig, classical_zeta, clear_memos, memo_stats

    prec = PrecisionConfig(digits=20)
    e = ZetaExpression({ZetaMonomial(1, 0, (3, 5)): F(1), ZetaMonomial(0, 0, (3, 3, 3)): F(2)})
    clear_memos()
    value = expr_numeric(e, prec)
    assert memo_stats()["memo"]["size"] == 2
    assert classical_zeta(5, 1, prec) * classical_zeta(3, 1, prec) > 0
    assert memo_stats()["memo"] == {"hits": 5, "misses": 2, "size": 2}
    with mp.workdps(40):
        oracle = mp.pi * mpmath.zeta(3) * mpmath.zeta(5) + 2 * mpmath.zeta(3) ** 3
        assert abs(value - oracle) < mpf(10) ** -20
    with pytest.raises(PrecisionError, match="max_terms"):
        expr_numeric(e, PrecisionConfig(digits=200, max_terms=100))
