"""Closed forms in Q[pi, log 2, zeta(3), zeta(5), ...] for odd total weight.

Every convergent signed double zeta value zeta(s, t; sigma, tau) of odd
weight s + t reduces to the ring by one identity (Borwein, Borwein and
Girgensohn 1995; Flajolet and Salvy 1998), for s > (1+sigma)/2, t >= 1:

      zeta(s, t; sigma, tau) =
          (1/2)(1 + (-1)^s) zeta(s; sigma) zeta(t; tau)
        - (1/2) zeta(s+t; sigma tau)
        + (-1)^t [ sum_{0<=k<=t/2} C(s+t-2k-1, s-1) zeta(2k; st) zeta(s+t-2k; sigma)
                 + sum_{0<=k<=s/2} C(s+t-2k-1, t-1) zeta(2k; st) zeta(s+t-2k; tau) ]

with st = sigma tau and two formula-local constants: zeta(0; +-1) = -1/2
(the continuation of sum sigma^n n^(-s) at 0 for both signs; the
alternating case is fixed by cross-checking the published reference table,
see ALT_ZETA_AT_ZERO), and zeta(1; +1) read as 0 wherever the formula
produces it.  With that reading the identity also covers t = 1, tau = +1:
it is ring-equal to Euler's zeta(s, 1) = (s/2) zeta(s+1) - (1/2)
sum_{k=2}^{s-1} zeta(k) zeta(s+1-k) and to its alternating analogue for
every even s <= 60 and both sigma (the tests check s <= 40).

Tornheim values follow by the depth-2 reduction: tornheim_closed combines
the classical reduction's terms through this identity and reports the
pairs it used as provenance.

Assembly runs in exact integers.  Each factor zeta(k; sign) of the identity
is one monomial or zero, so a double Euler value is a sum of single-monomial
products, merged in one dict; its memo entry is that ZetaExpression.  A
Tornheim value takes each pair's value from double_euler_closed, puts every
coefficient (times its Corollary 1 coefficient) over the lcm L of their
denominators, sums the numerators as ints, and scales the expression of
those sums by 1/L at the end.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .errors import DomainError
from .exact import (
    ZetaExpression,
    ZetaMonomial,
    _zeta_monomial,
    as_integer,
    as_sign,
    check_convergent,
    expression_to_json,
    memo,
)
from .reduction import VARIANTS, corollary1_reduce

__all__ = [
    "ALT_ZETA_AT_ZERO",
    "EvaluationResult",
    "ProvenanceStep",
    "double_euler_closed",
    "tornheim_closed",
    "closed_form_table",
    "KNOWN_VALUES",
    "result_to_json",
]

# Continuation value of the alternating zeta at 0.  The alternative +1/2 is
# rejected by the reference-table cross-check (and by direct numerics); the
# tests build the +1/2 values from their ring reference and refute them.
ALT_ZETA_AT_ZERO = Fraction(-1, 2)

MAX_TABLE_WEIGHT = 15


@dataclass(frozen=True)
class ProvenanceStep:
    """One rule application: a rule name plus sorted key/value details."""
    rule: str
    details: tuple[tuple[str, str], ...] = ()

    @classmethod
    def make(cls, rule: str, **details) -> "ProvenanceStep":
        return cls(rule, tuple(sorted((k, str(v)) for k, v in details.items())))


@dataclass(frozen=True)
class EvaluationResult:
    """A closed form together with the identities that produced it."""
    expression: ZetaExpression
    provenance: tuple[ProvenanceStep, ...]


def _zeta_term(k: int, sign: int) -> tuple[ZetaMonomial, Fraction] | None:
    """zeta(k; sign), extended by the two formula-local constants, as its
    one monomial and coefficient; None where the value is 0."""
    if k == 0:
        return ZetaMonomial(), ALT_ZETA_AT_ZERO if sign == -1 else Fraction(-1, 2)
    if k == 1 and sign == 1:
        return None  # sentinel: the formula's zeta(1) reads as 0
    return _zeta_monomial(k, sign)


def _validate_double(s: int, t: int, sigma: int, tau: int) -> tuple[int, int, int, int]:
    s, t = as_integer(s, "double_euler_closed: s"), as_integer(t, "double_euler_closed: t")
    sigma = as_sign(sigma, "double_euler_closed: sigma")
    tau = as_sign(tau, "double_euler_closed: tau")
    check_convergent("double_euler_closed:", s, sigma, t, ("s", "t"))
    if (s + t) % 2 == 0:
        raise DomainError(
            f"double_euler_closed: no closed form at even weight s + t = {s + t}"
        )
    return s, t, sigma, tau


def double_euler_closed(s: int, t: int, sigma: int = 1, tau: int = 1) -> ZetaExpression:
    """Closed form of zeta(s, t; sigma, tau) at odd weight, by the one
    identity of the module docstring (t = 1, tau = +1 included).

    Results are kept in exact.memo, keyed by the validated arguments with
    defaults filled in, so rejected input is never cached; repeat calls
    return the same ZetaExpression, which is safe because expressions are
    immutable.  An entry is that ZetaExpression alone, summed from
    single-monomial products on a miss.
    """
    return memo(_double_closed, *_validate_double(s, t, sigma, tau))


def _double_closed(s: int, t: int, sigma: int, tau: int) -> ZetaExpression:
    """The identity as a sum of single-monomial products, merged in one dict."""
    st = sigma * tau
    flip = -1 if t % 2 else 1  # the bracket's (-1)^t
    one = (ZetaMonomial(), Fraction(1))
    products = [(Fraction(-1, 2), _zeta_term(s + t, st), one)]
    if s % 2 == 0:
        products.append((1, _zeta_term(s, sigma), _zeta_term(t, tau)))
    for k in range(0, t // 2 + 1):
        products.append((
            flip * comb(s + t - 2 * k - 1, s - 1),
            _zeta_term(2 * k, st), _zeta_term(s + t - 2 * k, sigma),
        ))
    for k in range(0, s // 2 + 1):
        products.append((
            flip * comb(s + t - 2 * k - 1, t - 1),
            _zeta_term(2 * k, st), _zeta_term(s + t - 2 * k, tau),
        ))
    coeffs: dict[ZetaMonomial, Fraction] = {}
    for factor, a, b in products:
        if a is None or b is None:
            continue
        mono, coeff = a[0] * b[0], factor * a[1] * b[1]
        if mono in coeffs:
            coeff += coeffs.pop(mono)
        if coeff:
            coeffs[mono] = coeff
    return ZetaExpression._trusted(coeffs)


def tornheim_closed(r: int, s: int, t: int, variant: str = "T") -> EvaluationResult:
    """Closed form of the classical T/S/R(r,s,t) at odd total weight.

    Requires the variant's convergence inequalities (enforced by the depth-2
    reduction) and r + s + t odd.

    Each term's pair (outer, inner) goes through double_euler_closed, which
    checks it and returns its memoized value.  The common denominator L is
    the lcm of every value coefficient's denominator times its Corollary 1
    coefficient's denominator (1 on every row).  Each product of the two
    coefficients, as an integer numerator over L, is summed in one dict of
    ints; the result is the expression of those sums times 1/L, the one
    ring operation of the assembly.
    """
    terms = corollary1_reduce(r, s, t, variant)
    if (r + s + t) % 2 == 0:
        raise DomainError(
            f"tornheim_closed: no closed form at even weight r + s + t = {r + s + t}"
        )
    values = [
        (coeff, double_euler_closed(outer.value, inner.value, outer.sign, inner.sign)._terms)
        for coeff, outer, inner in terms
    ]
    common = lcm(*(
        coeff.denominator * c.denominator
        for coeff, value in values for c in value.values()
    ))
    sums: dict[ZetaMonomial, int] = {}
    for coeff, value in values:
        num, den = coeff.numerator, coeff.denominator
        for mono, c in value.items():
            sums[mono] = sums.get(mono, 0) + (
                num * c.numerator * (common // (den * c.denominator))
            )
    total = ZetaExpression(sums) * Fraction(1, common)
    steps = [
        ProvenanceStep.make(
            "depth-2-reduction", variant=variant, r=r, s=s, t=t, terms=len(terms)
        )
    ]
    pairs = dict.fromkeys((outer, inner) for _, outer, inner in terms)
    for outer, inner in pairs:
        steps.append(
            ProvenanceStep.make(
                "double-euler-closed",
                s=outer.value, t=inner.value, sigma=outer.sign, tau=inner.sign,
            )
        )
    if any(outer.sign * inner.sign == -1 for outer, inner in pairs):
        steps.append(ProvenanceStep.make("alternating-zeta-at-zero", value=ALT_ZETA_AT_ZERO))
    return EvaluationResult(expression=total, provenance=tuple(steps))


def closed_form_table(max_weight: int) -> list[tuple[str, int, int, int, ZetaExpression]]:
    """All closed forms for positive indices with odd weight <= max_weight.

    max_weight runs from 3, the least such weight, and is capped at 15 as a
    cost guard.
    """
    max_weight = as_integer(max_weight, "closed_form_table: max_weight")
    if max_weight < 3:
        raise DomainError(f"closed_form_table: max_weight must be >= 3, got {max_weight}")
    if max_weight > MAX_TABLE_WEIGHT:
        raise DomainError(
            f"closed_form_table: weight bound {max_weight} exceeds {MAX_TABLE_WEIGHT}"
        )
    rows = []
    for w in range(3, max_weight + 1, 2):
        for r in range(1, w - 1):
            for s in range(1, w - r):
                t = w - r - s
                for variant in VARIANTS:
                    rows.append(
                        (variant, r, s, t, tornheim_closed(r, s, t, variant).expression)
                    )
    return rows


# ----------------------------------------------------------------------
# reference values
# ----------------------------------------------------------------------

def _entry(pairs: list[tuple[Fraction, int, tuple[int, ...]]]) -> ZetaExpression:
    return ZetaExpression(
        {
            ZetaMonomial(pi_exponent=p, odd_zeta_factors=z): c
            for c, p, z in pairs
        }
    )


F = Fraction

# Independently published reference values; the verification target for the
# closed-form route (compared exactly) and for the numeric route (compared
# at the configured tolerance).
KNOWN_VALUES: dict[tuple[str, int, int, int], ZetaExpression] = {
    ("R", 1, 1, 1): _entry([(F(-5, 8), 0, (3,))]),
    ("R", 1, 1, 3): _entry([(F(1, 16), 2, (3,)), (F(-27, 32), 0, (5,))]),
    ("R", 1, 2, 2): _entry([(F(5, 48), 2, (3,)), (F(-3, 2), 0, (5,))]),
    ("R", 1, 3, 1): _entry([(F(1, 12), 2, (3,)), (F(-59, 32), 0, (5,))]),
    ("R", 2, 1, 2): _entry([(F(-5, 16), 2, (3,)), (F(107, 32), 0, (5,))]),
    ("R", 2, 2, 1): _entry([(F(-5, 24), 2, (3,)), (F(59, 32), 0, (5,))]),
    ("R", 3, 1, 1): _entry([(F(1, 8), 2, (3,)), (F(-59, 32), 0, (5,))]),
    ("S", 5, 5, 5): _entry(
        [(F(7, 73728), 4, (11,)), (F(35, 24576), 2, (13,)), (F(63, 8192), 0, (15,))]
    ),
    ("S", 7, 7, 7): _entry(
        [
            (F(31, 35389440), 6, (15,)),
            (F(49, 1966080), 4, (17,)),
            (F(77, 262144), 2, (19,)),
            (F(429, 262144), 0, (21,)),
        ]
    ),
    ("R", 5, 5, 5): _entry(
        [
            (F(16375, 147456), 4, (11,)),
            (F(573335, 49152), 2, (13,)),
            (F(-2064195, 16384), 0, (15,)),
        ]
    ),
    ("R", 7, 7, 7): _entry(
        [
            (F(1048543, 70778880), 6, (15,)),
            (F(7339969, 3932160), 4, (17,)),
            (F(80740121, 524288), 2, (19,)),
            (F(-899676921, 524288), 0, (21,)),
        ]
    ),
    ("R", 9, 9, 9): _entry(
        [
            (F(13421747, 7046430720), 8, (19,)),
            (F(738197141, 2113929216), 6, (21,)),
            (F(1919313253, 67108864), 4, (23,)),
            (F(143948506845, 67108864), 2, (25,)),
            (F(-1631416447375, 67108864), 0, (27,)),
        ]
    ),
}


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def result_to_json(result: EvaluationResult) -> dict:
    if not isinstance(result, EvaluationResult):
        raise DomainError(f"result_to_json: result must be an EvaluationResult, got {result!r}")
    return {
        "expression": expression_to_json(result.expression),
        "provenance": [
            {"rule": step.rule, "details": dict(step.details)}
            for step in result.provenance
        ],
    }
