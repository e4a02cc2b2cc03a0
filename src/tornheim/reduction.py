"""Reduction identities: partial fractions and depth-2 decompositions.

The engine turns the double series

    T[r,s,t; sigma,tau] = sum_{u,v>=1} sigma^u tau^v q^((r+t-1)u+(s+t-1)v)
                          / ([u]^r [v]^s [u+v]^t)

into finite combinations of depth-2 q-zeta values plus correction terms, by
expanding 1/([u]^r [v]^s) through the exact q-partial-fraction identity
(lemma1_expand / verify_lemma1) and resumming each resulting family.

Each identity has one source.  theorem1_reduce maps the terms of
lemma1_expand one by one to term kinds, so the exactly verified lemma and
the reduction cannot drift apart; corollary1_reduce is the q -> 1 slice of
that map, its (1-q)^0 terms, since every other term carries a vanishing
power of 1-q.

Emitted term kinds:

    DoubleQZeta(outer, inner, one_minus_q_pow)   (1-q)^b zeta_q[outer, inner]
    PhiTerm(index, one_minus_q_pow)              (1-q)^j phi[index]
    QSquaredZeta(index, one_minus_q_pow,         (1-q)^j (1+q)^p zeta_{q^2}[index]
                 one_plus_q_pow)

Sign bookkeeping: writing m = u+v, the slot signs transform as
sigma^u tau^v = tau^m (sigma tau)^u = sigma^m (sigma tau)^v, which fixes the
(outer, inner) sign pairs per family.  The diagonal family (powers of [u+v]
alone) collapses to phi when sigma = tau, and to a zeta over base q^2 when
exactly one sign alternates: sum_{v<m} (-1)^v is -1 for even m, 0 for odd m,
and even-index q-integers factor as [2k]_q = (q+1) [k]_{q^2}, so the family
contributes +sum_j trinomial(...) (1-q)^j (1+q)^(j-r-s-t) zeta_{q^2}[...]
(the two minus signs cancel).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, lcm, prod
from operator import mul

from .errors import DomainError
from .exact import SignedIndex, as_integer, as_rational, check_convergent, memo, render_sum

__all__ = [
    "DoubleQZeta",
    "PhiTerm",
    "QSquaredZeta",
    "PartialFractionTerm",
    "Reduction",
    "trinomial",
    "lemma1_expand",
    "verify_lemma1",
    "verify_theorem1",
    "theorem1_reduce",
    "corollary1_reduce",
    "reduction_to_json",
    "VARIANTS",
]

VARIANTS = ("T", "S", "R")

# (sigma, tau) slot signs per variant
VARIANT_SIGNS = {"T": (1, 1), "S": (-1, -1), "R": (1, -1)}


# ----------------------------------------------------------------------
# combinatorics
# ----------------------------------------------------------------------

def _binom(z: int, k: int) -> int:
    """Generalized binomial C(z, k) = z(z-1)...(z-k+1)/k! for an int k >= 0;
    for z < 0 it is (-1)^k C(k-z-1, k)."""
    return comb(z, k) if z >= 0 else (-1) ** k * comb(k - z - 1, k)


def trinomial(z: int, a: int, b: int) -> Fraction:
    """Trinomial coefficient C(z; a, b) = C(z, a) C(z-a, b).

    Can be zero when b exceeds z - a; zero-coefficient terms are kept by the
    expansions so that term counts depend only on the index ranges.  Each
    argument must be an int (not a bool), a and b >= 0, else DomainError
    naming it.
    """
    z = as_integer(z, "trinomial: z")
    a, b = as_integer(a, "trinomial: a", 0), as_integer(b, "trinomial: b", 0)
    return _trinomial(z, a, b)


def _trinomial(z: int, a: int, b: int) -> Fraction:
    """trinomial of checked ints, as lemma1_expand builds them."""
    return Fraction(_binom(z, a) * _binom(z - a, b))


# ----------------------------------------------------------------------
# term kinds
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DoubleQZeta:
    """(1-q)^b * zeta_q[outer, inner] with signed slots."""
    outer: SignedIndex
    inner: SignedIndex
    one_minus_q_pow: int = 0

    def render(self) -> str:
        body = f"zq[{self.outer},{self.inner}]"
        return f"{_omq(self.one_minus_q_pow)}{body}"


@dataclass(frozen=True)
class PhiTerm:
    """(1-q)^j * phi[index], the diagonal correction when sigma = tau."""
    index: SignedIndex
    one_minus_q_pow: int = 0

    def render(self) -> str:
        return f"{_omq(self.one_minus_q_pow)}phi[{self.index}]"


@dataclass(frozen=True)
class QSquaredZeta:
    """(1-q)^j (1+q)^p * zeta over base q^2, the diagonal correction when
    exactly one slot alternates."""
    index: int | Fraction
    one_minus_q_pow: int = 0
    one_plus_q_pow: int | Fraction = 0

    def render(self) -> str:
        p = self.one_plus_q_pow
        opq = "" if p == 0 else (f"(1+q)*" if p == 1 else f"(1+q)^({p})*")
        return f"{_omq(self.one_minus_q_pow)}{opq}zq2[{self.index}]"


def _omq(b) -> str:
    if b == 0:
        return ""
    if b == 1:
        return "(1-q)*"
    return f"(1-q)^{b}*"


QTermKind = DoubleQZeta | PhiTerm | QSquaredZeta


@dataclass(frozen=True)
class Reduction:
    """A depth-2 decomposition: lhs T[r,s,t] (variant) = sum coeff * term."""
    variant: str
    r: int
    s: int
    t: int | Fraction
    terms: tuple[tuple[Fraction, QTermKind], ...]

    def lhs_label(self) -> str:
        return f"{self.variant}[{self.r},{self.s},{self.t}]"

    def render(self) -> str:
        return f"{self.lhs_label()} = " + render_sum((c, kind.render()) for c, kind in self.terms)


# ----------------------------------------------------------------------
# partial fractions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PartialFractionTerm:
    """coefficient * (1-q)^e * q^(pu*u + pv*v) / ([u]^du [v]^dv [u+v]^duv)."""
    coefficient: Fraction
    q_power_u: int
    q_power_v: int
    denom_u_pow: int
    denom_v_pow: int
    denom_uv_pow: int
    one_minus_q_pow: int


def lemma1_expand(r: int, s: int) -> tuple[PartialFractionTerm, ...]:
    """Exact expansion of 1/([u]^r [v]^s) into [u]/[u+v] and [v]/[u+v] pieces.

    Three families (the third enters negatively):
      A: a in [0, r-1], b in [0, r-1-a]:
         trinomial(a+s-1; a, b) (1-q)^b q^((s-1-b)u + a v) / ([u]^(r-a-b) [u+v]^(s+a))
      B: mirror image (r <-> s, u <-> v)
      C: j in [1, min(r,s)]:
         -trinomial(r+s-j-1; r-j, s-j) (1-q)^j q^((s-j)u + (r-j)v) / [u+v]^(r+s-j)

    Kept in exact.memo after the checks, which refuse a bool (True == 1):
    a repeated call returns the same tuple of frozen terms.
    """
    return memo(_lemma1, as_integer(r, "lemma1_expand: r", 1), as_integer(s, "lemma1_expand: s", 1))


def _lemma1(r: int, s: int) -> tuple[PartialFractionTerm, ...]:
    terms: list[PartialFractionTerm] = []
    for x, y, order in ((r, s, 1), (s, r, -1)):  # family A, then its mirror B
        for a in range(x):
            for b in range(x - a):
                (pu, pv), (du, dv) = (y - 1 - b, a)[::order], (x - a - b, 0)[::order]
                terms.append(PartialFractionTerm(_trinomial(a + y - 1, a, b), pu, pv, du, dv, y + a, b))
    for j in range(1, min(r, s) + 1):
        terms.append(
            PartialFractionTerm(
                coefficient=-_trinomial(r + s - j - 1, r - j, s - j),
                q_power_u=s - j,
                q_power_v=r - j,
                denom_u_pow=0,
                denom_v_pow=0,
                denom_uv_pow=r + s - j,
                one_minus_q_pow=j,
            )
        )
    return tuple(terms)


def verify_lemma1(r: int, s: int, u: int, v: int, q: Fraction | int | str) -> bool:
    """Exact check of the partial-fraction identity at one point, in integers.

    With q = P/Q, Q > 0, [n] = N_n / Q^(n-1), where N_n = (P^n - Q^n)/(P - Q)
    is an integer, and 1 - q = (Q - P)/Q.  So each side is a sum of
    rationals c times products of powers of the six integers N_u, N_v,
    N_(u+v), P, Q and Q - P.  Both sides are put over one common
    denominator, the product of each integer's lowest power and the lcm of
    the c, and their numerators are compared: no gcd per term.
    """
    r, s, u, v = (as_integer(x, f"verify_lemma1: {name}", 1) for x, name in zip((r, s, u, v), "rsuv"))
    q = Fraction(as_rational(q, "verify_lemma1: q"))
    if q == 1:
        raise DomainError("verify_lemma1: q must differ from 1")
    if q == -1:
        raise DomainError("verify_lemma1: q must differ from -1, where [2] = 0")
    p, d = q.numerator, q.denominator
    bases = [(p ** n - d ** n) // (p - d) for n in (u, v, u + v)] + [p, d, d - p]
    lhs = [(Fraction(1), (-r, -s, 0, 0, (u - 1) * r + (v - 1) * s, 0))]
    rhs = []
    for term in lemma1_expand(r, s):
        if term.coefficient == 0:
            continue
        du, dv, duv = term.denom_u_pow, term.denom_v_pow, term.denom_uv_pow
        e, b = term.q_power_u * u + term.q_power_v * v, term.one_minus_q_pow
        shift = (u - 1) * du + (v - 1) * dv + (u + v - 1) * duv - e - b  # the power of Q
        rhs.append((term.coefficient, (-du, -dv, -duv, e, shift, b)))
    lows = [min(x) for x in zip(*(x for _, x in lhs + rhs))]
    den = lcm(*(c.denominator for c, _ in lhs + rhs))

    def numerator(side) -> int:
        return sum(c.numerator * (den // c.denominator)
                   * prod(base ** (x - low) for base, x, low in zip(bases, xs, lows))
                   for c, xs in side)

    return numerator(lhs) == numerator(rhs)


# ----------------------------------------------------------------------
# depth-2 reductions
# ----------------------------------------------------------------------

def _check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return variant


def _theorem1_term(term: PartialFractionTerm, t, variant: str) -> tuple[Fraction, QTermKind]:
    """Resum one Lemma 1 term over m = u+v (t already normalized).

    A [u]-family term carries slot signs (tau, sigma*tau), a [v]-family term
    (sigma, sigma*tau); a diagonal term becomes phi, or for R a zeta over
    base q^2 whose sign flip cancels the term's own minus sign.
    """
    sigma, tau = VARIANT_SIGNS[variant]
    outer = term.denom_uv_pow + t
    if term.denom_u_pow:
        inner = SignedIndex(term.denom_u_pow, sigma * tau)
        return term.coefficient, DoubleQZeta(SignedIndex(outer, tau), inner, term.one_minus_q_pow)
    if term.denom_v_pow:
        inner = SignedIndex(term.denom_v_pow, sigma * tau)
        return term.coefficient, DoubleQZeta(SignedIndex(outer, sigma), inner, term.one_minus_q_pow)
    if variant == "R":
        return -term.coefficient, QSquaredZeta(outer, term.one_minus_q_pow, -outer)
    return term.coefficient, PhiTerm(SignedIndex(outer, sigma), term.one_minus_q_pow)


def theorem1_reduce(r: int, s: int, t, variant: str = "T") -> Reduction:
    """Depth-2 decomposition of T[r,s,t] for any real t (int or Fraction):
    the term-by-term resummation of lemma1_expand(r, s).

    Kept in exact.memo after the checks, with t exact, so rejected input is
    never cached: a repeated call returns the same Reduction.
    """
    _check_variant(variant)
    r, s = as_integer(r, "theorem1_reduce: r", 1), as_integer(s, "theorem1_reduce: s", 1)
    return memo(_theorem1, r, s, as_rational(t, "theorem1_reduce: t"), variant)


def _theorem1(r: int, s: int, t, variant: str) -> Reduction:
    terms = tuple(_theorem1_term(term, t, variant) for term in lemma1_expand(r, s))
    return Reduction(variant=variant, r=r, s=s, t=t, terms=terms)


def corollary1_reduce(
    r: int, s: int, t: int, variant: str = "T"
) -> tuple[tuple[Fraction, SignedIndex, SignedIndex], ...]:
    """Classical (q -> 1) reduction: T/S/R(r,s,t) as a combination of depth-2
    signed zeta values.  Only the (1-q)^0 terms of theorem1_reduce survive
    the limit:

        sum_a C(a+s-1, s-1) zeta(s+t+a, r-a; tau, sigma*tau)
      + sum_a C(a+r-1, r-1) zeta(r+t+a, s-a; sigma, sigma*tau)

    Variant preconditions (convergence of the a = 0 double sums, hence of
    every emitted one; DivergenceError otherwise):
      T: s + t > 1 and r + t > 1;  S: s + t > 0 and r + t > 0;
      R: s + t > 0 and r + t > 1.

    Kept in exact.memo like lemma1_expand, after the checks, so rejected
    input is never cached: a repeated call returns the same tuple of terms.
    """
    _check_variant(variant)
    r, s = as_integer(r, "corollary1_reduce: r", 1), as_integer(s, "corollary1_reduce: s", 1)
    t = as_integer(t, "corollary1_reduce: t")
    sigma, tau = VARIANT_SIGNS[variant]
    where = f"corollary1_reduce: {variant}-variant"
    check_convergent(where, s + t, tau, r, ("s + t", "r"))
    check_convergent(where, r + t, sigma, s, ("r + t", "s"))
    return memo(_corollary1, r, s, t, variant)


def _corollary1(
    r: int, s: int, t: int, variant: str
) -> tuple[tuple[Fraction, SignedIndex, SignedIndex], ...]:
    out = []
    for term in lemma1_expand(r, s):
        if term.one_minus_q_pow == 0:  # diagonal terms carry (1-q)^j, j >= 1
            coeff, kind = _theorem1_term(term, t, variant)
            out.append((coeff, kind.outer, kind.inner))
    return tuple(out)


# ----------------------------------------------------------------------
# exact check on finite triangles
# ----------------------------------------------------------------------

def verify_theorem1(r: int, s: int, t: int, variant: str, q: Fraction | int | str, w: int) -> bool:
    """Exact rational check of Theorem 1, for integer t and q >= 1, on every
    finite triangle u + v <= w', w' = 2 .. w: the direct sum of the q-series
    against the theorem1_reduce terms cut the same way (zeta_q[a, b] to
    w' >= m > n, phi to m <= w', the zeta over base q^2 to 2k <= w').  One
    pass over the diagonals u + v = m compares every window.  At q = 1,
    [n] = n and every (1-q)^j term with j >= 1 vanishes: it reads
    corollary1_reduce, with its DivergenceError."""
    t = as_integer(t, "verify_theorem1: t")
    q = Fraction(as_rational(q, "verify_theorem1: q"))
    if q < 1:
        raise DomainError(f"verify_theorem1: q must be >= 1, got {q}")
    w = as_integer(w, "verify_theorem1: window w", 2)
    if q == 1:
        terms = [(c, DoubleQZeta(o, i)) for c, o, i in corollary1_reduce(r, s, t, variant)]
    else:
        terms = theorem1_reduce(r, s, t, variant).terms
    sigma, tau = VARIANT_SIGNS[variant]

    @lru_cache(maxsize=None)
    def row(e: int, x: int, g: int, base: Fraction = q) -> list[Fraction]:
        """g^n base^(e n) / [n]^x for n = 0 .. w (0 at n = 0).  With base = P/Q,
        [n] = N_n / Q^(n-1), N_n = P N_(n-1) + Q^(n-1), so each entry is the
        fraction of integers g^n P^(e n) Q^(x (n-1) - e n) / N_n^x."""
        p, d = base.numerator, base.denominator
        out, big_n = [Fraction(0)], 0
        for n in range(1, w + 1):
            big_n = p * big_n + d ** (n - 1)
            num, den = g ** n, 1
            for factor, k in ((p, e * n), (d, x * (n - 1) - e * n), (big_n, -x)):
                num, den = (num * factor ** k, den) if k >= 0 else (num, den * factor ** -k)
            out.append(Fraction(num, den))
        return out

    def zeta_row(index: SignedIndex, base: Fraction = q) -> list[Fraction]:
        return row(index.value - 1, index.value, index.sign, base)

    parts = []  # (scale, the term's part on each diagonal m = 0 .. w)
    for coeff, kind in terms:
        scale = coeff * (1 - q) ** kind.one_minus_q_pow
        if isinstance(kind, DoubleQZeta):  # inner sums over n < m
            part = [0, *map(mul, zeta_row(kind.outer)[1:], accumulate(zeta_row(kind.inner)))]
        elif isinstance(kind, PhiTerm):
            part = [(m - 1) * z for m, z in enumerate(zeta_row(kind.index))]
        else:
            scale *= (1 + q) ** kind.one_plus_q_pow
            half = zeta_row(SignedIndex(kind.index), q * q)
            part = [0 if m % 2 else half[m // 2] for m in range(w + 1)]
        parts.append((scale, part))
    u_row, v_row, m_row = row(r + t - 1, r, sigma), row(s + t - 1, s, tau), row(0, t, 1)
    return all(
        m_row[m] * sum(map(mul, u_row[1:m], v_row[m - 1:0:-1]))
        == sum(scale * part[m] for scale, part in parts)
        for m in range(2, w + 1)
    )


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def _kind_to_json(kind: QTermKind) -> dict:
    if isinstance(kind, DoubleQZeta):
        return {
            "kind": "double_q_zeta",
            "outer": kind.outer.to_json(),
            "inner": kind.inner.to_json(),
            "one_minus_q_pow": kind.one_minus_q_pow,
        }
    if isinstance(kind, PhiTerm):
        return {
            "kind": "phi",
            "index": kind.index.to_json(),
            "one_minus_q_pow": kind.one_minus_q_pow,
        }
    if isinstance(kind, QSquaredZeta):
        return {
            "kind": "q_squared_zeta",
            "index": str(Fraction(kind.index)),
            "one_minus_q_pow": kind.one_minus_q_pow,
            "one_plus_q_pow": str(Fraction(kind.one_plus_q_pow)),
        }
    raise DomainError(f"unknown term kind {kind!r}")


def reduction_to_json(red: Reduction) -> dict:
    if not isinstance(red, Reduction):
        raise DomainError(f"reduction_to_json: red must be a Reduction, got {red!r}")
    return {
        "variant": red.variant,
        "r": red.r,
        "s": red.s,
        "t": str(Fraction(red.t)),
        "terms": [
            {"coeff": str(coeff), **_kind_to_json(kind)} for coeff, kind in red.terms
        ],
    }
