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
from math import comb

from .errors import DomainError
from .exact import SignedIndex, as_rational, check_convergent

__all__ = [
    "DoubleQZeta",
    "PhiTerm",
    "QSquaredZeta",
    "PartialFractionTerm",
    "Reduction",
    "trinomial",
    "lemma1_expand",
    "verify_lemma1",
    "theorem1_reduce",
    "corollary1_reduce",
    "product_decompose",
    "reduction_to_json",
    "reduction_from_json",
    "VARIANTS",
    "PRODUCT_VARIANTS",
]

VARIANTS = ("T", "S", "R")
PRODUCT_VARIANTS = {"TT": "T", "SS": "S", "TS": "R"}

# (sigma, tau) slot signs per variant
VARIANT_SIGNS = {"T": (1, 1), "S": (-1, -1), "R": (1, -1)}


# ----------------------------------------------------------------------
# combinatorics
# ----------------------------------------------------------------------

def _binom(z: int, k: int) -> int:
    """Generalized binomial C(z, k) = z(z-1)...(z-k+1)/k! for k >= 0; for
    z < 0 it is (-1)^k C(k-z-1, k)."""
    if k < 0:
        raise DomainError(f"binomial: k must be >= 0, got {k}")
    return comb(z, k) if z >= 0 else (-1) ** k * comb(k - z - 1, k)


def trinomial(z: int, a: int, b: int) -> Fraction:
    """Trinomial coefficient C(z; a, b) = C(z, a) C(z-a, b).

    Can be zero when b exceeds z - a; zero-coefficient terms are kept by the
    expansions so that term counts depend only on the index ranges.
    """
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
        if not self.terms:
            return f"{self.lhs_label()} = 0"
        chunks = []
        for i, (coeff, kind) in enumerate(self.terms):
            neg = coeff < 0
            mag = -coeff if neg else coeff
            body = kind.render() if mag == 1 else f"{_coeff_str(mag)}*{kind.render()}"
            if i == 0:
                chunks.append(f"-{body}" if neg else body)
            else:
                chunks.append(f" - {body}" if neg else f" + {body}")
        return f"{self.lhs_label()} = " + "".join(chunks)


def _coeff_str(c: Fraction) -> str:
    return str(c) if c.denominator == 1 else f"({c})"


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


@lru_cache(maxsize=256)
def lemma1_expand(r: int, s: int) -> tuple[PartialFractionTerm, ...]:
    """Exact expansion of 1/([u]^r [v]^s) into [u]/[u+v] and [v]/[u+v] pieces.

    Three families (the third enters negatively):
      A: a in [0, r-1], b in [0, r-1-a]:
         trinomial(a+s-1; a, b) (1-q)^b q^((s-1-b)u + a v) / ([u]^(r-a-b) [u+v]^(s+a))
      B: mirror image (r <-> s, u <-> v)
      C: j in [1, min(r,s)]:
         -trinomial(r+s-j-1; r-j, s-j) (1-q)^j q^((s-j)u + (r-j)v) / [u+v]^(r+s-j)

    Memoized (256 entries hold every (r, s) with r, s <= 16): a repeated call
    returns the same tuple of frozen terms.
    """
    if r < 1 or s < 1:
        raise DomainError(f"lemma1_expand: r, s must be >= 1, got {(r, s)}")
    terms: list[PartialFractionTerm] = []
    for a in range(r):
        for b in range(r - a):
            terms.append(
                PartialFractionTerm(
                    coefficient=trinomial(a + s - 1, a, b),
                    q_power_u=s - 1 - b,
                    q_power_v=a,
                    denom_u_pow=r - a - b,
                    denom_v_pow=0,
                    denom_uv_pow=s + a,
                    one_minus_q_pow=b,
                )
            )
    for a in range(s):
        for b in range(s - a):
            terms.append(
                PartialFractionTerm(
                    coefficient=trinomial(a + r - 1, a, b),
                    q_power_u=a,
                    q_power_v=r - 1 - b,
                    denom_u_pow=0,
                    denom_v_pow=s - a - b,
                    denom_uv_pow=r + a,
                    one_minus_q_pow=b,
                )
            )
    for j in range(1, min(r, s) + 1):
        terms.append(
            PartialFractionTerm(
                coefficient=-trinomial(r + s - j - 1, r - j, s - j),
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
    """Exact rational check of the partial-fraction identity at one point."""
    if u < 1 or v < 1:
        raise DomainError(f"verify_lemma1: u, v must be >= 1, got {(u, v)}")
    q = Fraction(q)
    if q == 1:
        raise DomainError("verify_lemma1: q must differ from 1")
    qu, qv, quv = ((q ** n - 1) / (q - 1) for n in (u, v, u + v))
    lhs = 1 / (qu ** r * qv ** s)
    rhs = Fraction(0)
    for term in lemma1_expand(r, s):
        if term.coefficient == 0:
            continue
        val = term.coefficient * (1 - q) ** term.one_minus_q_pow
        val *= q ** (term.q_power_u * u + term.q_power_v * v)
        val /= qu ** term.denom_u_pow * qv ** term.denom_v_pow * quv ** term.denom_uv_pow
        rhs += val
    return lhs == rhs


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
    the term-by-term resummation of lemma1_expand(r, s)."""
    _check_variant(variant)
    if not (isinstance(r, int) and isinstance(s, int)) or r < 1 or s < 1:
        raise DomainError(f"theorem1_reduce: r, s must be integers >= 1, got {(r, s)}")
    t = as_rational(t)
    terms = tuple(_theorem1_term(term, t, variant) for term in lemma1_expand(r, s))
    return Reduction(variant=variant, r=r, s=s, t=t, terms=terms)


def corollary1_reduce(r: int, s: int, t: int, variant: str = "T") -> list[tuple[Fraction, SignedIndex, SignedIndex]]:
    """Classical (q -> 1) reduction: T/S/R(r,s,t) as a combination of depth-2
    signed zeta values.  Only the (1-q)^0 terms of theorem1_reduce survive
    the limit:

        sum_a C(a+s-1, s-1) zeta(s+t+a, r-a; tau, sigma*tau)
      + sum_a C(a+r-1, r-1) zeta(r+t+a, s-a; sigma, sigma*tau)

    Variant preconditions (convergence of the a = 0 double sums, hence of
    every emitted one; DivergenceError otherwise):
      T: s + t > 1 and r + t > 1;  S: s + t > 0 and r + t > 0;
      R: s + t > 0 and r + t > 1.
    """
    _check_variant(variant)
    if not all(isinstance(x, int) for x in (r, s, t)):
        raise DomainError(f"corollary1_reduce: indices must be integers, got {(r, s, t)}")
    if r < 1 or s < 1:
        raise DomainError(f"corollary1_reduce: r, s must be >= 1, got {(r, s)}")
    sigma, tau = VARIANT_SIGNS[variant]
    where = f"corollary1_reduce: {variant}-variant"
    check_convergent(where, s + t, tau, r, ("s + t", "r"))
    check_convergent(where, r + t, sigma, s, ("r + t", "s"))
    out: list[tuple[Fraction, SignedIndex, SignedIndex]] = []
    for term in lemma1_expand(r, s):
        if term.one_minus_q_pow == 0:  # diagonal terms carry (1-q)^j, j >= 1
            coeff, kind = _theorem1_term(term, t, variant)
            out.append((coeff, kind.outer, kind.inner))
    return out


def product_decompose(r: int, s: int, variant: str = "TT") -> Reduction:
    """Depth-1 product decomposition: at t = 0 the double series factorizes,

        TT: zeta_q[r] zeta_q[s]      SS: zeta_q[r-] zeta_q[s-]
        TS: zeta_q[r] zeta_q[s-]

    and the t = 0 reduction expresses the product through depth-2 values."""
    if variant not in PRODUCT_VARIANTS:
        raise DomainError(
            f"unknown product variant {variant!r}; expected one of {tuple(PRODUCT_VARIANTS)}"
        )
    return theorem1_reduce(r, s, 0, PRODUCT_VARIANTS[variant])


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


def _kind_from_json(obj: dict) -> QTermKind:
    k = obj["kind"]
    if k == "double_q_zeta":
        return DoubleQZeta(
            outer=SignedIndex.from_json(obj["outer"]),
            inner=SignedIndex.from_json(obj["inner"]),
            one_minus_q_pow=int(obj["one_minus_q_pow"]),
        )
    if k == "phi":
        return PhiTerm(
            index=SignedIndex.from_json(obj["index"]),
            one_minus_q_pow=int(obj["one_minus_q_pow"]),
        )
    if k == "q_squared_zeta":
        return QSquaredZeta(
            index=as_rational(obj["index"]),
            one_minus_q_pow=int(obj["one_minus_q_pow"]),
            one_plus_q_pow=as_rational(obj["one_plus_q_pow"]),
        )
    raise DomainError(f"unknown term kind {k!r} in JSON")


def reduction_to_json(red: Reduction) -> dict:
    return {
        "variant": red.variant,
        "r": red.r,
        "s": red.s,
        "t": str(Fraction(red.t)),
        "terms": [
            {"coeff": str(coeff), **_kind_to_json(kind)} for coeff, kind in red.terms
        ],
    }


def reduction_from_json(obj: dict) -> Reduction:
    return Reduction(
        variant=obj["variant"],
        r=int(obj["r"]),
        s=int(obj["s"]),
        t=as_rational(obj["t"]),
        terms=tuple(
            (Fraction(item["coeff"]), _kind_from_json(item)) for item in obj["terms"]
        ),
    )
