"""Exact arithmetic in the ring Q[pi, log 2, zeta(3), zeta(5), ...].

Values of the series handled by this package, when they admit closed forms,
live in the polynomial ring over Q generated by pi, log 2, and the odd zeta
values zeta(3), zeta(5), ... (treated as algebraically independent symbols).
This module provides that ring: sparse expressions keyed by monomials, with
exact Fraction coefficients, plus the classical constants needed to build
them:

    bernoulli(n)         Bernoulli numbers, B_1 = -1/2 convention
    zeta_even_as_pi(k)   zeta(k) for even k as a rational multiple of pi^k
    zeta_const(k, sign)  zeta(k; sign) as a ring element

Monomials order by (total weight, pi exponent, log2 exponent, odd factors),
where weight counts pi and log 2 once per power and each zeta(k) as k.  All
serialization and rendering is deterministic in that order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Mapping

from .errors import DivergenceError, DomainError


# ----------------------------------------------------------------------
# classical constants
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n as an exact Fraction (B_1 = -1/2 convention).

    Computed from sum_{k=0}^{n} C(n+1, k) B_k = 0.
    """
    if n < 0:
        raise DomainError(f"bernoulli: n must be >= 0, got {n}")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for k in range(n):
        acc += comb(n + 1, k) * bernoulli(k)
    return -acc / (n + 1)


def zeta_even_as_pi(k: int) -> "ZetaExpression":
    """zeta(k) for even k >= 2, as an exact rational multiple of pi^k.

    zeta(2m) = (-1)^(m+1) B_{2m} (2 pi)^{2m} / (2 (2m)!).
    """
    if k < 2 or k % 2 != 0:
        raise DomainError(f"zeta_even_as_pi: k must be even and >= 2, got {k}")
    m = k // 2
    coeff = (-1) ** (m + 1) * bernoulli(k) * Fraction(2) ** (k - 1) / factorial(k)
    return ZetaExpression({ZetaMonomial(pi_exponent=k): coeff})


def zeta_const(k: int, sign: int = 1) -> "ZetaExpression":
    """zeta(k; sign) = sum_{n>=1} sign^n / n^k as a ring element.

    sign=+1 requires k >= 2 (k = 1 diverges).  sign=-1 allows k >= 1:
    zeta(1; -1) = -log 2 and zeta(k; -1) = (2^(1-k) - 1) zeta(k) for k >= 2.
    """
    if sign not in (1, -1):
        raise DomainError(f"zeta_const: sign must be +1 or -1, got {sign}")
    if k < 1:
        raise DomainError(f"zeta_const: k must be >= 1, got {k}")
    if k == 1:
        if sign == 1:
            raise DivergenceError("zeta_const: zeta(1) diverges")
        return ZetaExpression({ZetaMonomial(log2_exponent=1): Fraction(-1)})
    plain = (
        zeta_even_as_pi(k)
        if k % 2 == 0
        else ZetaExpression({ZetaMonomial(odd_zeta_factors=(k,)): Fraction(1)})
    )
    if sign == 1:
        return plain
    return plain * (Fraction(2) ** (1 - k) - 1)


# ----------------------------------------------------------------------
# signed indices
# ----------------------------------------------------------------------

def as_rational(value) -> int | Fraction:
    """'3', '1/2', 7, Fraction(4, 2), ... as an int when integral, else a Fraction."""
    try:
        frac = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational number: {value!r}") from exc
    return int(frac) if frac.denominator == 1 else frac


@dataclass(frozen=True, order=True)
class SignedIndex:
    """An exponent with an attached sign character.

    sign=-1 marks the alternating ("barred") variant of the slot.  Rendered
    with a trailing '-': SignedIndex(2, -1) prints as '2-'.
    """
    value: int | Fraction
    sign: int = 1

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise DomainError(f"SignedIndex: sign must be +1 or -1, got {self.sign}")
        if not isinstance(self.value, (int, Fraction)):
            raise DomainError(f"SignedIndex: value must be int or Fraction, got {type(self.value).__name__}")

    @property
    def barred(self) -> bool:
        return self.sign == -1

    def __str__(self) -> str:
        return f"{self.value}-" if self.barred else str(self.value)

    @classmethod
    def parse(cls, text: str) -> "SignedIndex":
        text = text.strip()
        sign = 1
        if text.endswith("-"):
            sign = -1
            text = text[:-1]
        return cls(as_rational(text), sign)

    def to_json(self) -> dict:
        return {"value": str(Fraction(self.value)), "sign": self.sign}

    @classmethod
    def from_json(cls, obj: Mapping) -> "SignedIndex":
        return cls(as_rational(obj["value"]), int(obj["sign"]))


def check_convergent(where: str, a, g1: int, b, names: tuple[str, str]) -> None:
    """Raise DivergenceError unless sum_{m>n>=1} g1^m g2^n / (m^a n^b)
    converges (for either g2): a > 1 when g1 = +1, a > 0 when g1 = -1, and
    b >= 1.  names label a and b in the message."""
    floor = 1 if g1 == 1 else 0
    if not a > floor:
        raise DivergenceError(f"{where} requires {names[0]} > {floor}, got {names[0]} = {a}")
    if not b >= 1:
        raise DivergenceError(f"{where} requires {names[1]} >= 1, got {names[1]} = {b}")


# ----------------------------------------------------------------------
# the ring
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ZetaMonomial:
    """pi^a * log2^b * prod zeta(k_i) with every k_i odd and >= 3.

    odd_zeta_factors is kept sorted, so equal monomials compare equal.
    """
    pi_exponent: int = 0
    log2_exponent: int = 0
    odd_zeta_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.pi_exponent < 0 or self.log2_exponent < 0:
            raise DomainError("ZetaMonomial: exponents must be >= 0")
        factors = tuple(sorted(self.odd_zeta_factors))
        for k in factors:
            if k < 3 or k % 2 == 0:
                raise DomainError(f"ZetaMonomial: zeta factors must be odd >= 3, got {k}")
        object.__setattr__(self, "odd_zeta_factors", factors)

    @property
    def weight(self) -> int:
        return self.pi_exponent + self.log2_exponent + sum(self.odd_zeta_factors)

    @property
    def sort_key(self) -> tuple:
        return (self.weight, self.pi_exponent, self.log2_exponent, self.odd_zeta_factors)

    def __mul__(self, other: "ZetaMonomial") -> "ZetaMonomial":
        return ZetaMonomial(
            self.pi_exponent + other.pi_exponent,
            self.log2_exponent + other.log2_exponent,
            self.odd_zeta_factors + other.odd_zeta_factors,
        )

    def render(self) -> str:
        parts: list[str] = []
        if self.pi_exponent:
            parts.append("pi" if self.pi_exponent == 1 else f"pi^{self.pi_exponent}")
        if self.log2_exponent:
            parts.append("log2" if self.log2_exponent == 1 else f"log2^{self.log2_exponent}")
        seen: dict[int, int] = {}
        for k in self.odd_zeta_factors:
            seen[k] = seen.get(k, 0) + 1
        for k, mult in sorted(seen.items()):
            parts.append(f"zeta({k})" if mult == 1 else f"zeta({k})^{mult}")
        return "*".join(parts) if parts else "1"


class ZetaExpression:
    """Sparse Q-linear combination of ZetaMonomial, always canonical.

    Construction merges duplicate monomials and drops zero coefficients, so
    two expressions are equal iff their term maps are equal.  The ring
    operations build their results through _trusted, which skips that
    work: its callers pass an already merged dict whose coefficients are
    all nonzero Fractions, and hand that dict over to the new expression.
    Expressions are immutable, so results may be shared (see
    closedform.double_euler_closed's memo).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ZetaMonomial, Fraction | int] | None = None) -> None:
        merged: dict[ZetaMonomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            acc = merged.get(mono, Fraction(0)) + coeff
            if acc == 0:
                merged.pop(mono, None)
            else:
                merged[mono] = acc
        object.__setattr__(self, "_terms", merged)

    # -- constructors ---------------------------------------------------

    @classmethod
    def _trusted(cls, terms: dict[ZetaMonomial, Fraction]) -> "ZetaExpression":
        """An expression over an already canonical dict, taken as is."""
        expr = object.__new__(cls)
        object.__setattr__(expr, "_terms", terms)
        return expr

    @classmethod
    def zero(cls) -> "ZetaExpression":
        return cls()

    @classmethod
    def constant(cls, c: Fraction | int) -> "ZetaExpression":
        return cls({ZetaMonomial(): Fraction(c)})

    @classmethod
    def one(cls) -> "ZetaExpression":
        return cls.constant(1)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[ZetaMonomial, Fraction]]:
        """Terms sorted by the canonical monomial order."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "ZetaExpression") -> "ZetaExpression":
        if not isinstance(other, ZetaExpression):
            return NotImplemented
        merged = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = merged.pop(mono, 0) + coeff
            if acc:
                merged[mono] = acc
        return ZetaExpression._trusted(merged)

    def __sub__(self, other: "ZetaExpression") -> "ZetaExpression":
        if not isinstance(other, ZetaExpression):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ZetaExpression":
        return ZetaExpression._trusted({m: -c for m, c in self._terms.items()})

    def __mul__(self, other: "ZetaExpression | Fraction | int") -> "ZetaExpression":
        if isinstance(other, (Fraction, int)):
            c = Fraction(other)
            if not c:
                return ZetaExpression._trusted({})
            return ZetaExpression._trusted({m: c * v for m, v in self._terms.items()})
        if isinstance(other, ZetaExpression):
            out: dict[ZetaMonomial, Fraction] = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    mono = m1 * m2
                    out[mono] = out.get(mono, 0) + c1 * c2
            return ZetaExpression._trusted({m: c for m, c in out.items() if c})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZetaExpression):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"ZetaExpression({self.render()})"

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Deterministic human-readable form, e.g. '-(5/8)*zeta(3)'."""
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for i, (mono, coeff) in enumerate(self.terms()):
            neg = coeff < 0
            mag = -coeff if neg else coeff
            if mono == ZetaMonomial():
                body = str(mag)
            else:
                if mag == 1:
                    body = mono.render()
                elif mag.denominator == 1:
                    body = f"{mag}*{mono.render()}"
                else:
                    body = f"({mag})*{mono.render()}"
            if i == 0:
                chunks.append(f"-{body}" if neg else body)
            else:
                chunks.append(f" - {body}" if neg else f" + {body}")
        return "".join(chunks)


def canonicalize(a: ZetaExpression) -> ZetaExpression:
    """Re-normalize an expression.  Idempotent by construction."""
    return ZetaExpression(dict(a.terms()))


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def expression_to_json(expr: ZetaExpression) -> list[dict]:
    """JSON-safe list of terms in canonical order.

    Each term is {"coeff": "p/q", "pi": int, "log2": int, "zeta": [k, ...]}.
    """
    out = []
    for mono, coeff in expr.terms():
        out.append(
            {
                "coeff": str(coeff),
                "pi": mono.pi_exponent,
                "log2": mono.log2_exponent,
                "zeta": list(mono.odd_zeta_factors),
            }
        )
    return out


def expression_from_json(items: list[Mapping]) -> ZetaExpression:
    """Inverse of expression_to_json.  Anything but a list of term objects
    with a "coeff" and integer exponents raises DomainError."""
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise DomainError(f"expression JSON must be a list of term objects, got {items!r}")
    terms: dict[ZetaMonomial, Fraction] = {}
    for item in items:
        if "coeff" not in item:
            raise DomainError(f"expression term {item!r} has no \"coeff\"")
        try:
            mono = ZetaMonomial(
                pi_exponent=int(item.get("pi", 0)),
                log2_exponent=int(item.get("log2", 0)),
                odd_zeta_factors=tuple(int(k) for k in item.get("zeta", ())),
            )
            coeff = Fraction(item["coeff"])
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad expression term {item!r}: {exc}") from exc
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return ZetaExpression(terms)


# ----------------------------------------------------------------------
# numeric bridge
# ----------------------------------------------------------------------

def expr_numeric(expr: ZetaExpression, prec=None):
    """Evaluate an expression to an mpf at the configured precision.

    pi and log 2 come from mpmath constants; odd zeta values from the
    package's own classical_zeta (Borwein's alternating series, not
    mpmath.zeta, which is reserved as an independent oracle in the tests).
    """
    from mpmath import mp, mpf

    from .numeric import PrecisionConfig, _xm, classical_zeta

    prec = prec or PrecisionConfig()
    with mp.workdps(prec.working_dps):
        total = mpf(0)
        for mono, coeff in expr.terms():
            val = _xm(coeff)
            if mono.pi_exponent:
                val *= mp.pi ** mono.pi_exponent
            if mono.log2_exponent:
                val *= mp.log(2) ** mono.log2_exponent
            for k in mono.odd_zeta_factors:
                val *= classical_zeta(k, prec=prec)
            total += val
        return total
