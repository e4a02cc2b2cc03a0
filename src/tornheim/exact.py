"""Exact arithmetic in the ring Q[pi, log 2, zeta(3), zeta(5), ...].

Values of the series handled by this package, when they admit closed forms,
live in the polynomial ring over Q generated by pi, log 2, and the odd zeta
values zeta(3), zeta(5), ... (treated as algebraically independent symbols).
This module provides that ring: sparse expressions keyed by monomials, with
exact Fraction coefficients, plus the classical constants needed to build
them:

    bernoulli(n)         Bernoulli numbers, B_1 = -1/2 convention
    _zeta_monomial(k, s) zeta(k; s) as one (monomial, coefficient), read by
                         the two below and by closedform's identity
    zeta_even_as_pi(k)   zeta(k) for even k as a rational multiple of pi^k
    zeta_const(k, sign)  zeta(k; sign) as a ring element

It also holds memo(kernel, *args), the package's one memo, and
render_sum(terms), its one printer of signed sums.

Monomials order by (total weight, pi exponent, log2 exponent, odd factors),
where weight counts pi and log 2 once per power and each zeta(k) as k.  All
serialization and rendering is deterministic in that order.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import DivergenceError, DomainError


# ----------------------------------------------------------------------
# the memo
# ----------------------------------------------------------------------

MEMO_SIZE = 4096  # entries of memo; the largest bench grid, table --weight 15, takes 1,058


@lru_cache(maxsize=MEMO_SIZE)
def memo(kernel, *args):
    """kernel(*args), kept in the package's one memo, keyed on the kernel and
    its arguments.  Every memoized kernel is looked up here after its own
    checks: numeric's series and q parses, lemma1_expand, theorem1_reduce,
    corollary1_reduce, double_euler_closed and bernoulli.  Equal arguments,
    2 and 2.0 too, share an entry; numeric's q parse also keys on type(q).
    numeric.memo_stats() reports it and numeric.clear_memos() empties it."""
    return kernel(*args)


# ----------------------------------------------------------------------
# classical constants
# ----------------------------------------------------------------------

def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n as an exact Fraction (B_1 = -1/2 convention).

    Computed from sum_{k=0}^{n} C(n+1, k) B_k = 0, each B_k from memo.
    """
    return memo(_bernoulli, as_integer(n, "bernoulli: n", 0))


def _bernoulli(n: int) -> Fraction:
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    return -sum(comb(n + 1, k) * memo(_bernoulli, k) for k in range(n)) / (n + 1)


def _zeta_monomial(k: int, sign: int) -> tuple["ZetaMonomial", Fraction]:
    """zeta(k; sign) for checked k >= 1 and sign, zeta(1) excepted, as its one
    monomial and its nonzero coefficient: zeta(1; -1) = -log 2,
    zeta(2m) = (-1)^(m+1) B_{2m} (2 pi)^{2m} / (2 (2m)!), and
    zeta(k; -1) = (2^(1-k) - 1) zeta(k) for k >= 2."""
    if k == 1:
        return ZetaMonomial(log2_exponent=1), Fraction(-1)
    if k % 2:
        mono, coeff = ZetaMonomial(odd_zeta_factors=(k,)), Fraction(1)
    else:
        mono = ZetaMonomial(pi_exponent=k)
        coeff = (-1) ** (k // 2 + 1) * bernoulli(k) * Fraction(2) ** (k - 1) / factorial(k)
    return mono, coeff if sign == 1 else coeff * (Fraction(2) ** (1 - k) - 1)


def zeta_even_as_pi(k: int) -> "ZetaExpression":
    """zeta(k) for even k >= 2, as an exact rational multiple of pi^k."""
    if as_integer(k, "zeta_even_as_pi: k", 2) % 2 != 0:
        raise DomainError(f"zeta_even_as_pi: k must be even and >= 2, got {k}")
    return ZetaExpression(dict([_zeta_monomial(k, 1)]))


def zeta_const(k: int, sign: int = 1) -> "ZetaExpression":
    """zeta(k; sign) = sum_{n>=1} sign^n / n^k as a ring element.

    sign=+1 requires k >= 2 (k = 1 diverges).  sign=-1 allows k >= 1.
    """
    sign, k = as_sign(sign, "zeta_const: sign"), as_integer(k, "zeta_const: k", 1)
    if k == 1 and sign == 1:
        raise DivergenceError("zeta_const: zeta(1) diverges")
    return ZetaExpression(dict([_zeta_monomial(k, sign)]))


# ----------------------------------------------------------------------
# signed indices
# ----------------------------------------------------------------------

def as_rational(value, what: str = "") -> int | Fraction:
    """'3', '1/2', 7, Fraction(4, 2), ... as an int when integral, else a
    Fraction; anything else (a bool, a non-finite float, None, ...) raises
    DomainError, its message led by what, the argument's name, if given."""
    try:
        if isinstance(value, bool):  # Fraction(True) == 1
            raise TypeError("a bool is not a number here")
        frac = Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError, TypeError) as exc:
        lead = f"{what}: " if what else ""
        raise DomainError(f"{lead}not a rational number: {value!r}") from exc
    return int(frac) if frac.denominator == 1 else frac


def as_integer(value, what: str, least: int | None = None) -> int:
    """value as an int if it is an int, not a bool, and no less than least
    (when given); else DomainError led by what, the function and argument."""
    if isinstance(value, bool) or not isinstance(value, int) or least is not None and value < least:
        bound = "" if least is None else f" >= {least}"
        raise DomainError(f"{what} must be an integer{bound}, got {value!r}")
    return int(value)


def as_sign(value, what: str) -> int:
    """value as an int if it is +1 or -1 and not a bool; else DomainError led
    by what, the function and argument."""
    if isinstance(value, bool) or value not in (1, -1):
        raise DomainError(f"{what} must be +1 or -1, got {value!r}")
    return int(value)


@dataclass(frozen=True, order=True, slots=True)
class SignedIndex:
    """An exponent with an attached sign character.

    sign=-1 marks the alternating ("barred") variant of the slot.  Rendered
    with a trailing '-': SignedIndex(2, -1) prints as '2-'.
    """
    value: int | Fraction
    sign: int = 1

    def __post_init__(self) -> None:
        as_sign(self.sign, "SignedIndex: sign")
        if isinstance(self.value, bool) or not isinstance(self.value, (int, Fraction)):
            raise DomainError(f"SignedIndex: value must be int or Fraction, got {type(self.value).__name__}")

    @property
    def barred(self) -> bool:
        return self.sign == -1

    def __str__(self) -> str:
        return f"{self.value}-" if self.barred else str(self.value)

    def to_json(self) -> dict:
        return {"value": str(Fraction(self.value)), "sign": self.sign}


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

    The exponents are ints >= 0 and the factors an iterable of odd ints
    >= 3 (bools refused), else DomainError naming the argument.
    odd_zeta_factors is kept as a sorted tuple, so equal monomials compare
    equal.  The product of two monomials skips the checks its valid factors
    already passed.
    """
    pi_exponent: int = 0
    log2_exponent: int = 0
    odd_zeta_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        as_integer(self.pi_exponent, "ZetaMonomial: pi_exponent", 0)
        as_integer(self.log2_exponent, "ZetaMonomial: log2_exponent", 0)
        try:
            factors = tuple(sorted(self.odd_zeta_factors))
        except TypeError:
            raise DomainError("ZetaMonomial: odd_zeta_factors must be an iterable of ints, "
                              f"got {self.odd_zeta_factors!r}") from None
        for k in factors:
            if as_integer(k, "ZetaMonomial: odd_zeta_factors entry", 3) % 2 == 0:
                raise DomainError(f"ZetaMonomial: zeta factors must be odd >= 3, got {k}")
        object.__setattr__(self, "odd_zeta_factors", factors)

    @property
    def weight(self) -> int:
        return self.pi_exponent + self.log2_exponent + sum(self.odd_zeta_factors)

    @property
    def sort_key(self) -> tuple:
        return (self.weight, self.pi_exponent, self.log2_exponent, self.odd_zeta_factors)

    def __mul__(self, other: "ZetaMonomial") -> "ZetaMonomial":
        if not isinstance(other, ZetaMonomial):
            return NotImplemented
        mono = object.__new__(ZetaMonomial)
        object.__setattr__(mono, "pi_exponent", self.pi_exponent + other.pi_exponent)
        object.__setattr__(mono, "log2_exponent", self.log2_exponent + other.log2_exponent)
        object.__setattr__(mono, "odd_zeta_factors",
                           tuple(sorted(self.odd_zeta_factors + other.odd_zeta_factors)))
        return mono

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

    Construction takes a Mapping from ZetaMonomial to rational coefficients
    (as_rational's numbers), else DomainError; it converts each coefficient
    to a Fraction once (one that is already a Fraction is kept as is) and
    drops the zeros, so two expressions are equal iff their term maps are
    equal; a Mapping holds each monomial once, so there is nothing to
    merge.  The ring operations build their results through _trusted, which
    skips that work: its callers pass an already merged dict whose
    coefficients are all nonzero Fractions, and hand that dict over to the
    new expression.  Expressions are immutable, so results may be shared (as
    closedform.double_euler_closed shares its results through memo).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ZetaMonomial, Fraction | int] | None = None) -> None:
        if terms is None:
            terms = {}
        elif type(terms) is not dict and not isinstance(terms, Mapping):
            raise DomainError(f"ZetaExpression: terms must be a Mapping, got {terms!r}")
        canonical: dict[ZetaMonomial, Fraction] = {}
        for mono, coeff in terms.items():
            if not isinstance(mono, ZetaMonomial):
                raise DomainError(f"ZetaExpression: terms keys must be ZetaMonomial, got {mono!r}")
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff if type(coeff) is int
                                 else as_rational(coeff, "ZetaExpression: terms coefficient"))
            if coeff:
                canonical[mono] = coeff
        object.__setattr__(self, "_terms", canonical)

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
        return render_sum((coeff, mono.render()) for mono, coeff in self.terms())


def render_sum(terms: Iterable[tuple[Fraction, str]]) -> str:
    """The signed sum of (rational coefficient, rendered factor) pairs, in
    their order: '-' before a negative first term and ' + ' / ' - ' between
    terms; each magnitude is left out when it is 1, written n* when it is an
    integer (0* too) and (p/q)* otherwise, except before the factor '1',
    where it stands alone.  '0' for no terms."""
    chunks: list[str] = []
    for coeff, factor in terms:
        mag = abs(coeff)
        if factor == "1":
            body = str(mag)
        elif mag == 1:
            body = factor
        else:
            body = f"{mag}*{factor}" if mag.denominator == 1 else f"({mag})*{factor}"
        if chunks:
            chunks.append(f" - {body}" if coeff < 0 else f" + {body}")
        else:
            chunks.append(f"-{body}" if coeff < 0 else body)
    return "".join(chunks) or "0"


def _check_expression(value, what: str) -> None:
    """DomainError led by what, the function and argument, unless value is a
    ZetaExpression."""
    if not isinstance(value, ZetaExpression):
        raise DomainError(f"{what} must be a ZetaExpression, got {value!r}")


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def expression_to_json(expr: ZetaExpression) -> list[dict]:
    """JSON-safe list of terms in canonical order.

    Each term is {"coeff": "p/q", "pi": int, "log2": int, "zeta": [k, ...]}.
    """
    _check_expression(expr, "expression_to_json: expr")
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
    """Inverse of expression_to_json.  Anything but a list of term objects,
    each with a "coeff" and JSON integers (not bools) for "pi", "log2" and
    the "zeta" list, raises DomainError naming the term (and ZetaMonomial's
    field for a bad exponent).  Terms of one monomial are summed, and a
    zero coefficient or sum is dropped."""
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise DomainError(f"expression JSON must be a list of term objects, got {items!r}")
    terms: dict[ZetaMonomial, Fraction] = {}
    for item in items:
        if "coeff" not in item:
            raise DomainError(f"expression term {item!r} has no \"coeff\"")
        try:
            zeta = item.get("zeta", ())
            if not isinstance(zeta, (list, tuple)):
                raise DomainError(f'"zeta" must be a list of integers, got {zeta!r}')
            mono = ZetaMonomial(item.get("pi", 0), item.get("log2", 0), zeta)
            coeff = Fraction(item["coeff"])
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"bad expression term {item!r}: {exc}") from exc
        if mono in terms:
            coeff += terms.pop(mono)
        if coeff:
            terms[mono] = coeff
    return ZetaExpression._trusted(terms)


# ----------------------------------------------------------------------
# numeric bridge
# ----------------------------------------------------------------------

def expr_numeric(expr: ZetaExpression, prec=None):
    """Evaluate an expression to an mpf at the configured precision.

    pi and log 2 come from mpmath constants; odd zeta values from the
    package's own Borwein alternating series (not mpmath.zeta, which is
    reserved as an independent oracle in the tests).  Every factor of a
    ZetaMonomial is an odd int >= 3, so each zeta(k) is read straight from
    memo under classical_zeta's key (numeric._zeta_sum, k, 1, prec), with
    its PrecisionError, and skips classical_zeta's checks.
    """
    from mpmath import mp, mpf

    from .numeric import _as_prec, _xm, _zeta_sum

    _check_expression(expr, "expr_numeric: expr")
    prec = _as_prec(prec, "expr_numeric")
    with mp.workdps(prec.working_dps):
        total = mpf(0)
        for mono, coeff in expr.terms():
            val = _xm(coeff)
            if mono.pi_exponent:
                val *= mp.pi ** mono.pi_exponent
            if mono.log2_exponent:
                val *= mp.log(2) ** mono.log2_exponent
            for k in mono.odd_zeta_factors:
                val *= memo(_zeta_sum, k, 1, prec).value
            total += val
        return total
