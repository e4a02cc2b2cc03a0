"""High-precision numeric summation engines.

Two independent substrates:

q-side (q > 1).  With [n] = (q^n - 1)/(q - 1), every series handled here has
terms bounded by K * q^(-n) where K collects the exponent-dependent constants
(1/[n]^x <= q^x q^(-nx) for x >= 0 and <= (q-1)^x q^(-nx) for x < 0), so a
truncation point with a proven geometric tail bound is computed up front:

    q_zeta1(s, sign, q)            sum_n sign^n q^((s-1)n) / [n]^s
    q_zeta2(s1, g1, s2, g2, q)     sum_{m>n} g1^m g2^n q^((s1-1)m+(s2-1)n)
                                       / ([m]^s1 [n]^s2)
    phi_q(s, sign, q)              sum_n (n-1) sign^n q^((s-1)n) / [n]^s
    tornheim_q(r, s, t, sg, tg, q) sum_{u,v} sg^u tg^v q^((r+t-1)u+(s+t-1)v)
                                       / ([u]^r [v]^s [u+v]^t), summed by
                                       the Lambert series of 1/[u+v]^t as
                                       products of single q-series

classical side.  Geometric-rate series with tails bounded in closed form:

    classical_zeta(s, sign)        zeta(s; sign), s > 0, by P. Borwein's
                                   acceleration of eta(s): error at most
                                   2 (3+sqrt 8)^-n after n terms, divided by
                                   |1 - 2^(1-s)| for sign +1
    classical_double_euler(a, b)   zeta(s1, s2; g1, g2) = sum_{m>n>=1} ..., its
                                   iterated integral split at 1/2 (Borwein,
                                   Bradley, Broadhurst, Lisonek): L + 1
                                   products of series summed as N + 1 B-bit
                                   terms at 1/2, error at most 3 (L+1)
                                   (2^-N + 2L (N+1) 2^-B), L = s1 + s2

The q-kernels share one recurrence in fixed-point Python ints: with q = a/b
exact, q^(e k)/[k]^x = R_k^x q^(-(x-e) k), R_k = q^k/[k], comes from floors,
an integer d-th root for x = m/d and integer powers, under a guard counted
from q and x.  It fills the q-term table (_stream_terms) of each
(q, bits B, e, x): fixed-point Python ints F_k within 3/4 of
2^B q^(e k)/[k]^x, extended when a call needs more terms.  All tables
(q-term tables, tornheim_q's Lambert column tables, and the classical
side's half-series words and tails families below) are kept together in
_tables, one memo that stores at most TABLE_BUDGET ints and drops the
least recently used tables first.  q_zeta1, phi_q and
q_zeta2 are exact integer sums over q-term entries (sum sign^k F_k,
sum (k-1) sign^k F_k, sum_m sign^m F_m times a running prefix), converted
to mpf once, so their rounding is a count of 3/4-units at B = working
precision + STREAM_GUARD bits.  The entries carry no sign: as sign^k only
negates odd k, each sum is its part over even k plus sign times its part
over odd k, so one pass over the unsigned entries, split by parity, gives
the exact totals of every sign (pair) at once.

The classical double zeta keeps each word of its split at 1/2 as the word's
terms at 1/2 (_half_values), built one letter at a time; the runs that
start its heads and tails do not depend on the rest of the double and are
kept in _tables too, as their running sums, under (bits, letters)
(_split_values).  The tails' words after their run, g1 0^(a1-1), are a
prefix of the same family for every a1: one table per (bits, g1g2
0^(a2-1) g1) holds each family word's value, the deepest word's terms and
a short window of terms, so each distinct tails word is built once per
width (_family_values).

The package has one memo, exact.memo(kernel, *args), a functools.lru_cache
of exact.MEMO_SIZE entries that sits behind validated input, keyed on the
kernel and its canonical arguments.  Here it holds the QParam of each q
and its type (_qparam), the SumInfo of each classical_zeta (_zeta_sum)
and one _Series record per classical double (_double_sum) and per
sign-free key of each q-kernel (_q_zeta1_series, _q_zeta2_series,
_phi_q_series, _tornheim_q_series): the exact integer totals of all its
signs and, settled once as it is built (_series), each sign's SumInfo or
PrecisionError message.  The key holds only the exponents (r <= s for
tornheim_q, after _orient, then t), the QParam and the PrecisionConfig,
so T, S and R of one (r, s, t, q, precision) are summed and bounded once.
The public calls look their sign's answer up (_Series.info), and
evaluate_reduction and tornheim_classical read it for each term before
they combine the totals exactly and round once (_combine).  memo_stats()
reports memo and _tables, and clear_memos() empties both.

All mpf results are computed at digits + 15 working precision.  Every
q-kernel and both classical kernels plan their cutoff from the goal up
front, bound truncation plus a proven rounding allowance, and raise
PrecisionError when that exceeds the goal.  The cutoff planners
(_geometric_n, _linear_cutoff) decide in float log2, read from each mpf's
mantissa and exponent, and compare mpfs only within PLAN_TIE of a tie;
the bounds stay mpfs and are checked against the goal, so a planning slip
can only raise PrecisionError.
tornheim_q expands its coupling weight q^((t-1)m)/[m]^t, m = u + v, as
(q-1)^t sum_j binom(t+j-1, j) q^(-(j+1)m), which splits the double sum into
(q-1)^t sum_j beta_j A_j B_j, where A_j = sum_u sigma^u q^(ru)/[u]^r
q^(-(j+1)u) and B_j is the same in (s, tau).  The factors and the powers
q^-k are q-term table entries, and the parts of A_j over even and odd u
are exact integer dot products over them.  A_j, cut after U_j =
ceil(n/(j+1)) - 1 terms, depends on q, the width, r and the cutoff n
alone, so its parts are kept in _tables too, one column table per
(q, bits, r) that every t and both slots read, moved to another n by the
terms between the two cuts (_lambert_columns).  The weights beta_j come
from a floored integer recurrence, and the sum is rounded once.  Every cut
A_j and the last j are planned from the goal.

The classical Tornheim series converge too slowly to sum directly;
reduction.verify_theorem1 checks Theorem 1 exactly on finite triangles, and
at q = 1 Corollary 1.
"""
from __future__ import annotations

import math
from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice, repeat, takewhile
from numbers import Integral, Real
from operator import add, floordiv, lshift, mul, neg, rshift, sub
from sys import getsizeof
from typing import NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import (dps_to_prec, from_man_exp, from_rational, mpf_shift, round_nearest,
                          to_fixed)

from .errors import DivergenceError, DomainError, PrecisionError
from .exact import SignedIndex, as_integer, as_rational, as_sign, check_convergent, memo
from .reduction import DoubleQZeta, PhiTerm, QSquaredZeta, Reduction, corollary1_reduce

__all__ = [
    "PrecisionConfig",
    "QParam",
    "SumInfo",
    "q_int",
    "q_zeta1",
    "q_zeta1_info",
    "q_zeta2",
    "q_zeta2_info",
    "phi_q",
    "phi_q_info",
    "tornheim_q",
    "tornheim_q_info",
    "classical_zeta",
    "classical_double_euler",
    "tornheim_classical",
    "evaluate_reduction",
    "memo_stats",
    "clear_memos",
]

TABLE_BUDGET = 1 << 17  # ints kept by all growable tables together (_tables)
STREAM_GUARD = 32  # bits the q-term table keeps past working precision
MAX_EXPONENT_DENOMINATOR = 8  # q-side exponents are rationals m/d, d <= this
FAMILY_WINDOW = 8  # terms of its first word a tails family keeps below its cutoff
PLAN_TIE = 1e-9  # relative log2 margin within which the cutoff planners compare mpfs


@dataclass(frozen=True)
class PrecisionConfig:
    """Requested precision: output digits, term budget, and tail goal.

    tail_goal is the absolute truncation-error target, positive and finite;
    None means 10^-(digits+5).  Working precision is digits + 15.  Its hash
    is computed once, as every memo lookup hashes it.
    """
    digits: int = 30
    max_terms: int = 2_000_000
    tail_goal: float | None = None

    def __post_init__(self) -> None:
        for name, value in (("digits", self.digits), ("max_terms", self.max_terms)):
            if not isinstance(value, Integral):
                raise DomainError(f"PrecisionConfig: {name} must be an integer, got {value!r}")
        if self.digits < 10:
            raise DomainError(f"PrecisionConfig: digits must be >= 10, got {self.digits}")
        try:
            dps_to_prec(self.working_dps)  # as mp.workdps converts it
        except OverflowError:
            raise DomainError(f"PrecisionConfig: digits {self.digits} is past what mpmath holds")
        if self.max_terms < 100:
            raise DomainError(f"PrecisionConfig: max_terms must be >= 100, got {self.max_terms}")
        if self.tail_goal is not None and not isinstance(self.tail_goal, Real):
            raise DomainError(
                f"PrecisionConfig: tail_goal must be a number, got {self.tail_goal!r}")
        if self.tail_goal is not None and not self.tail_goal > 0:
            raise DomainError("PrecisionConfig: tail_goal must be positive")
        if self.tail_goal == math.inf:
            raise DomainError(f"PrecisionConfig: tail_goal must be finite, got {self.tail_goal}")
        object.__setattr__(self, "_hash", hash((self.digits, self.max_terms, self.tail_goal)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def working_dps(self) -> int:
        return self.digits + 15

    def goal(self) -> mpf:
        if self.tail_goal is not None:
            return mpf(self.tail_goal)
        return mpf(10) ** (-(self.digits + 5))


@dataclass(frozen=True)
class QParam:
    """The deformation parameter; only a finite q > 1 is admitted.

    Its hash is computed once, as every memo lookup hashes it; _as_q hands
    out one QParam per input, so a lookup finds its key by identity.
    """
    value: Fraction | int | float

    def __post_init__(self) -> None:
        if not isinstance(self.value, Real):
            raise DomainError(f"QParam: q must be a number, got {self.value!r}")
        if not self.value > 1:
            raise DomainError(f"QParam: q must be > 1, got {self.value}")
        if self.value == math.inf:
            raise DomainError(f"QParam: q must be finite, got {self.value}")
        object.__setattr__(self, "_hash", hash(self.value))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def ratio(self) -> Fraction:
        """q exactly, a float by its binary value."""
        return Fraction(self.value)

    def to_mpf(self) -> mpf:
        return _xm(self.value)

    def squared(self) -> "QParam":
        """q^2, exact for a float q too (a float square would round it)."""
        return self._square

    @cached_property
    def _square(self) -> "QParam":
        return _as_q(self.ratio ** 2)

    def __str__(self) -> str:
        return str(self.value)


class SumInfo(NamedTuple):
    """A summation result with its proven tail bound and term count."""
    value: mpf
    tail_bound: mpf
    terms: int


def _as_q(q) -> QParam:
    """q, or the QParam of a number or string q, kept in memo under q and its
    type (2 and 2.0 keep their own str()); DomainError for any other q."""
    if not isinstance(q, (QParam, str, Real)):
        raise DomainError(f"QParam: q must be a number, got {q!r}")
    return q if isinstance(q, QParam) else memo(_qparam, q, type(q))


def _qparam(q, kind: type) -> QParam:
    """The QParam of q, of type kind; exact.as_rational parses a string."""
    if isinstance(q, str):
        q = as_rational(q, "q")
    return QParam(q)


def _as_prec(prec, what: str) -> PrecisionConfig:
    """prec, or the default PrecisionConfig for None; DomainError led by
    what, the function, for anything else."""
    if prec is None:
        return PrecisionConfig()
    if not isinstance(prec, PrecisionConfig):
        raise DomainError(f"{what}: prec must be a PrecisionConfig, got {prec!r}")
    return prec


def _xm(x) -> mpf:
    """Exact-as-possible mpf conversion for int / Fraction / float exponents."""
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return mpf(x)


def _exponent(x, what: str) -> int | Fraction:
    """A q-side exponent exactly (a float by its binary value); DomainError,
    led by what (the kernel and the argument's name), unless it is rational
    with a denominator of at most MAX_EXPONENT_DENOMINATOR, which keeps the
    d-th roots of the q-term table (_stream_terms) cheap."""
    y = as_rational(x, what)
    if (d := Fraction(y).denominator) > MAX_EXPONENT_DENOMINATOR:
        raise DomainError(f"{what}: exponent {y} has denominator {d}, above the "
                          f"{MAX_EXPONENT_DENOMINATOR} the q-side takes")
    return y


def _pow(base: mpf, expo) -> mpf:
    if isinstance(expo, int) or (isinstance(expo, Fraction) and expo.denominator == 1):
        return base ** int(expo)
    return mp.power(base, _xm(expo))


# ----------------------------------------------------------------------
# q-side
# ----------------------------------------------------------------------

def q_int(n: int, q, prec: PrecisionConfig | None = None) -> mpf:
    """The q-integer [n] = (q^n - 1)/(q - 1)."""
    n = as_integer(n, "q_int: n", 0)
    qp = _as_q(q)
    prec = _as_prec(prec, "q_int")
    with mp.workdps(prec.working_dps):
        qm = qp.to_mpf()
        return (qm ** n - 1) / (qm - 1)


def _kbound(x, qm: mpf) -> mpf:
    """K(x) with 1/[n]^x <= K(x) q^(-n x) for all n >= 1."""
    xf = _xm(x)
    if xf >= 0:
        return mp.power(qm, xf)
    return mp.power(qm - 1, xf)


def _log2(x: mpf) -> float:
    """log2 x for an mpf x > 0, as exp + bc + log2(man 2^-bc) from its
    mantissa man of bc bits and its exponent exp; +-inf past the float range.
    For 1/2 <= x < 2 it is log1p(x - 1)/log 2, as x - 1 is exact in mpf: the
    sum above cancels to 0, or to a few bits, as x -> 1 (a q just above 1)."""
    _, man, exp, bc = x._mpf_
    if exp + bc in (0, 1):
        return math.log1p(float(x - 1)) / math.log(2)
    try:
        return exp + bc + math.log2(man / (1 << bc))
    except OverflowError:
        return math.inf if exp > 0 else -math.inf


def _decided(margin: float, scale: float, exact) -> bool:
    """margin <= 0, for a float log2 margin whose parts sum to at most scale
    in absolute value; within PLAN_TIE * (1 + scale) of a tie, exact()
    decides, as the float's error is far smaller than that."""
    if abs(margin) <= PLAN_TIE * (1 + scale):
        return exact()
    return margin <= 0


def _geometric_n(c: mpf, qm: mpf, goal: mpf) -> int:
    """The least N >= 1 with c q^-N <= goal, stepped to from an estimate in
    float log2 (_log2), each N decided by _decided (mpf at a near tie).  An
    estimate past 2^50 terms is taken in mpf at as many more bits as it has,
    and returned past the float range (N = 1, or one no budget reaches)."""
    lc, lq, lg = _log2(c), _log2(qm), _log2(goal)
    if abs(estimate := (lc - lg) / lq) < 2 ** 50:
        n = max(1, math.ceil(estimate))
    else:
        with mp.workprec(mp.prec + (abs(mp.mag(c)) + abs(mp.mag(goal))).bit_length()):
            n = max(1, int(mp.ceil(mp.log(c / goal) / mp.log(qm))))
        if math.isinf(estimate):
            return n
    scale = abs(lc) + abs(lg)
    meets = lambda n: _decided(lc - n * lq - lg, scale, lambda: c * qm ** -n <= goal)
    while n > 1 and meets(n - 1):
        n -= 1
    while not meets(n):
        n += 1
    return n


def _budget(n_terms: int, prec: PrecisionConfig, what: str) -> None:
    if n_terms > prec.max_terms:
        raise PrecisionError(
            f"{what}: tail goal needs {n_terms} terms, exceeding max_terms={prec.max_terms}"
        )


def _iroot(n: int, d: int, x: int = 0) -> int:
    """floor(n^(1/d)) for n >= 1: math.isqrt for d = 2, else integer Newton
    steps down from x, which must be at least the root (0: a power of two
    above it)."""
    if d == 1:
        return n
    if d == 2:
        return math.isqrt(n)
    x = x or 1 << -(-n.bit_length() // d)
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            return x
        x = y


def _fixed_pows(w: list[int], m: int, g: int) -> list[int]:
    """2^g (v 2^-g)^m for each v of w and m >= 0, by binary powering in
    g-bit fixed point over the whole list, each product floored: within
    3m max(1, (v 2^-g)^m) units when 9 m^2 <= 2^g (by induction, as every
    power of v 2^-g is on the same side of 1)."""
    if not m:
        return [1 << g] * len(w)
    base = w
    for bit in bin(m)[3:]:
        w = list(map(rshift, map(mul, w, w), repeat(g)))
        if bit == "1":
            w = list(map(rshift, map(mul, w, base), repeat(g)))
    return w


class _Table(list):
    """The stored entries of one table, and state, what its grow resumes
    from (None before the first grow; a Lambert column table's cut)."""
    state = None

    def parts(self) -> tuple:
        """The lists this table holds: itself, and a tuple state's lists
        (the frontier and window of a tails family, _family_values)."""
        return (self, *(self.state if isinstance(self.state, tuple) else ()))

    def size(self) -> int:
        """The ints held, which the budget counts."""
        return sum(map(len, self.parts()))

    def bytes(self) -> int:
        """sys.getsizeof of the lists held and of every int in them."""
        return sum(getsizeof(x) + sum(map(getsizeof, x)) for x in self.parts())


class _TableMemo:
    """Growable tables of ints, bounded by one budget of stored ints.

    table(key, n, grow) returns entries 1..n of the table for key.  A table
    shorter than n is extended by grow(start, n, state), which returns the
    list of entries start+1..n and the state to resume from, given the state
    the last grow of the table returned (None for a new table); the state is
    kept with the table and dropped with it, and nothing stored is
    recomputed.  table is take(key), which removes the stored table of key
    (a new empty one if none) and counts a hit or a miss, and put(key,
    table), which keeps it as the most recently used; a tails family or a
    Lambert column table, which changes in more than its length, calls the
    two itself.  Once a put has
    kept a table, the least recently used are dropped until at most budget
    ints are stored (_Table.size).  A table larger than the whole budget is
    returned but not kept, and the others stay.  lists maps each key to the
    stored table, least recently used first.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.clear()

    def clear(self) -> None:
        self.lists: OrderedDict = OrderedDict()
        self.stored = self.hits = self.misses = 0

    def take(self, key: tuple) -> _Table:
        entries = self.lists.pop(key, None)
        if entries is None:
            self.misses += 1
            return _Table()
        self.hits += 1
        self.stored -= entries.size()
        return entries

    def put(self, key: tuple, entries: _Table) -> None:
        size = entries.size()
        if size <= self.budget:
            self.lists[key] = entries
            self.stored += size
            while self.stored > self.budget:
                self.stored -= self.lists.popitem(last=False)[1].size()

    def table(self, key: tuple, n: int, grow) -> list:
        entries = self.take(key)
        if len(entries) < n:
            more, entries.state = grow(len(entries), n, entries.state)
            entries.extend(more)
        self.put(key, entries)
        return entries[:n]

    def stats(self) -> dict:
        return {"tables": len(self.lists), "terms": self.stored, "budget": self.budget,
                "hits": self.hits, "misses": self.misses,
                "bytes": sum(entries.bytes() for entries in self.lists.values())}


_tables = _TableMemo(TABLE_BUDGET)


def _stream_terms(qp: QParam, bits: int, e, x, n: int) -> list[int]:
    """F_k for k = 1..n, where F_k is q^(e k)/[k]^x in bits-bit fixed point:
    |F_k - 2^bits q^(e k)/[k]^x| <= 3/4.  Requires x - e in {0, 1}.

    The F_k are the q-term table of (q, bits, e, x) in _tables,
    which extends it when a call needs more terms.  New entries come from
    one integer recurrence in G-bit fixed point, G = bits + guard, counted
    in units of 2^-G.  With q = a/b exactly (Fraction(q), a float too) and
    c = q/(q-1), each term is R_k^x q^(-(x-e) k), where
    R_k = q^k/[k] = (q-1)/(1 - q^-k) lies in (q-1, q]:

    * P_k = floor(P_(k-1) b / a) from P_0 = 2^G stands for 2^G q^-k and errs
      low by e_k = e_(k-1)/q + [0, 1) < c units.  The last P_k of a table is
      kept with it in _tables, and a table grown from k resumes the
      recurrence there, so a table grown in pieces equals one filled at
      once.  (A restart from floor(2^G b^k / a^k) would not: it moves some
      entries by one unit.)
    * floor((a-b) 2^(2G) / (b (2^G - P_k))) is 2^G R_k low by at most
      (c^2 + c) 2^-G relative, as 1 - q^-k >= 1/c and 1/R_k < c.  It never
      grows with k, so neither does S_k, its floored d-th root times
      2^(G(1-1/d)) for x = m/d (math.isqrt over the list for d = 2, else
      _iroot started from S_(k-1)), which is 2^G R_k^(1/d) low by at most
      (c^2 + 2c) 2^-G relative.
    * W_k = S_k for x >= 0, or floor(2^(2G) / S_k) for x < 0, is 2^G w_k,
      w_k = R_k^(+-1/d), within a relative eps = (2c^2 + 4c + q) 2^-G.
    * V_k, from _fixed_pows over the list of the W_k, is within
      3 |m| max(1, w^|m|) units of 2^G w^|m|, w = W_k 2^-G, and w^|m| is
      within 1.01 |m| eps relative of R_k^x.  With K >= max(1, R_k^x),
      q^ceil(x) for x >= 0 and c^ceil(-x) for x < 0, V_k is within
      |m| K (10 c^2 + 2q) units of 2^G R_k^x.
    * When x - e = 1 the term is V_k P_k 2^-G, which adds c K + 1 units.

    In all, E = K (|m| (10 c^2 + 2q) + c) + 2 units, and guard is the bit
    length of max(ceil(4E), 9 m^2), so the error is at most 2^-bits / 4
    before rounding to the nearest integer adds 1/2, and _fixed_pows' count
    holds.  The guard depends on q and x, not on n.  The entries carry no
    sign: a sum over sign^k F_k is the sum over even k plus sign times the
    sum over odd k, so the kernels split their sums by parity and serve
    both signs from one pass.  Returns a fresh list.

    Memory: an entry is a Python int and its list slot, about bits/8 + 36
    bytes, and _tables keeps at most TABLE_BUDGET ints of all its tables
    together once a call returns, each table with its last P_k.  At 30
    digits the 576-case q_sweep grid stores about 12,700 entries in 111
    q-term tables (0.7 MB) and 1,700 in 12 Lambert column tables (0.14 MB);
    the 144-case q_limit grid (goal 1e-7) about 54,000 in 60 q-term tables
    (2.5 MB), grown in about 110 fills of 54,017 recurrence steps in all,
    and 11,800 in 8 column tables (0.8 MB), by memo_stats()["tables"].
    """
    shift = Fraction(x) - Fraction(e)
    if shift not in (0, 1):
        raise ValueError(f"_stream_terms: x - e must be 0 or 1, got {shift}")
    down = shift == 1  # the term carries q^-k

    def grow(start: int, n: int, p: int | None) -> tuple[list[int], int]:
        q, y = Fraction(qp.value), Fraction(x)
        a, b, m, d = q.numerator, q.denominator, abs(y.numerator), y.denominator
        c, negative = Fraction(a, a - b), y < 0
        k = (c if negative else q) ** math.ceil(abs(y))
        units = k * (m * (10 * c * c + 2 * q) + c) + 2
        guard = max(math.ceil(4 * units), 9 * m * m).bit_length()
        g = bits + guard
        one = 1 << g
        p, powers = one if p is None else p, []  # P_start, 2^G for a new table
        for _ in range(n - start):
            p = p * b // a
            powers.append(p)  # P_k for k = start+1..n
        w = powers  # for x = 0, _fixed_pows reads only its length
        if m:
            num = (a - b) << 2 * g
            w = [num // (b * (one - pk)) for pk in powers]  # 2^G R_k
            if d == 2:
                w = list(map(math.isqrt, map(lshift, w, repeat(g))))
            elif d > 2:
                root, lift = 0, g * (d - 1)
                for i, v in enumerate(w):
                    w[i] = root = _iroot(v << lift, d, root)
            if negative:
                w = list(map(floordiv, repeat(1 << 2 * g), w))
        w = _fixed_pows(w, m, g)
        if down:
            w = map(mul, w, powers)
        drop = guard + g * down
        half = 1 << (drop - 1)
        return list(map(rshift, map(add, w, repeat(half)), repeat(drop))), p

    return _tables.table((qp, bits, e, x), n, grow)


def _at(totals: tuple, *signs: int) -> int:
    """The entry for signs of the totals of a sign-free sum, which list the
    sign choices with +1 before -1 and the first sign slowest: (+, -) for
    one sign, (++, +-, -+, --) for a pair."""
    i = 0
    for g in signs:
        i = 2 * i + (g < 0)
    return totals[i]


def _rounded(num: int, den: int, scale: int) -> mpf:
    """num / den 2^-scale, exact ints, rounded once to working precision."""
    if den == 1:  # round before from_rational's exact num would strip its zeros
        return mp.make_mpf(from_man_exp(num, -scale, mp.prec, round_nearest))
    return mp.make_mpf(mpf_shift(from_rational(num, den, mp.prec, round_nearest), -scale))


def _bound(what: str, value: mpf, truncation: mpf, rounding: mpf, goal: mpf) -> mpf:
    """truncation + rounding + 2^(1-prec) |value|, the last term for the
    final rounding to working precision prec; PrecisionError above goal."""
    rounding += mp.ldexp(abs(value), 1 - mp.prec)
    if (bound := truncation + rounding) > goal:
        raise PrecisionError(
            f"{what}: truncation {mp.nstr(truncation, 3)} plus rounding "
            f"{mp.nstr(rounding, 3)} exceeds the goal {mp.nstr(goal, 3)} at "
            f"{mp.dps} working digits"
        )
    return bound


class _Series(NamedTuple):
    """One sign-free q_zeta1, q_zeta2, phi_q or tornheim_q series, or one
    classical double, kept in memo: the exact integer totals of all its
    signs (_at) in units of 2^-scale, and per sign in that order the
    SumInfo its public call returns or its PrecisionError's message,
    settled once by _series.  The public calls and _combine read both."""
    totals: tuple
    scale: int
    infos: tuple

    def info(self, *signs: int) -> SumInfo:
        """The settled SumInfo of signs; PrecisionError if it missed its goal."""
        info = _at(self.infos, *signs)
        if isinstance(info, str):
            raise PrecisionError(info)
        return info


def _series(what: str, prec: PrecisionConfig, terms: int, truncation: mpf, rounding: mpf,
            goal: mpf, totals: tuple, scale: int) -> _Series:
    """The _Series of totals in units of 2^-scale, each rounded once and settled
    by _bound: a SumInfo of terms, or the message of its PrecisionError."""
    infos = []
    with mp.workdps(prec.working_dps):
        for total in totals:
            value = _rounded(total, 1, scale)
            try:
                infos.append(SumInfo(value, _bound(what, value, truncation, rounding, goal), terms))
            except PrecisionError as exc:
                infos.append(str(exc))
    return _Series(totals, scale, tuple(infos))


def q_zeta1_info(s, sign: int = 1, q=None, prec: PrecisionConfig | None = None) -> SumInfo:
    """zeta_q[s; sign] = sum_{n>=1} sign^n q^((s-1)n) / [n]^s, with tail bound.

    The N table entries are summed exactly (_q_zeta1_sums), so rounding is
    at most 3/4 N 2^-B at B = prec + STREAM_GUARD bits.  The bound and the
    totals of both signs come from memo (_q_zeta1_series).
    """
    sign = as_sign(sign, "q_zeta1: sign")
    s = _exponent(s, "q_zeta1: s")
    qp = _as_q(q)
    prec = _as_prec(prec, "q_zeta1")
    return memo(_q_zeta1_series, s, qp, prec).info(sign)


def _q_zeta1_series(s, qp: QParam, prec: PrecisionConfig) -> _Series:
    """q_zeta1's _Series: its cutoff and bound, the same for both signs, then
    the totals of both signs."""
    s = _exponent(s, "q_zeta1: s")
    with mp.workdps(prec.working_dps):
        qm = qp.to_mpf()
        goal = prec.goal()
        k = _kbound(s, qm)
        n = _geometric_n(k / (qm - 1), qm, goal)
        _budget(n, prec, "q_zeta1")
        bits = mp.prec + STREAM_GUARD
        truncation = k / (qm - 1) * qm ** (-n)
        rounding = mp.ldexp(mpf(3 * n) / 4, -bits)
    totals = _q_zeta1_sums(s, qp, n, bits)
    return _series("q_zeta1", prec, n, truncation, rounding, goal, totals, bits)


def _q_zeta1_sums(s, qp: QParam, n: int, bits: int) -> tuple[int, int]:
    """sum_k sign^k F_k over the first n bits-bit entries of q_zeta1's table,
    exact, for sign = +1 and -1 (_at): the sum over even k plus sign times
    the sum over odd k."""
    terms = _stream_terms(qp, bits, s - 1, s, n)
    even, odd = sum(terms[1::2]), sum(terms[::2])
    return even + odd, even - odd


def q_zeta1(s, sign: int = 1, q=None, prec: PrecisionConfig | None = None) -> mpf:
    return q_zeta1_info(s, sign, q, prec).value


def q_zeta2_info(
    s1, sign1: int, s2, sign2: int, q=None, prec: PrecisionConfig | None = None
) -> SumInfo:
    """zeta_q[s1, s2; sign1, sign2] = sum_{m>n>=1} of the depth-2 q-series.

    With f_m, g_n the outer and inner terms and F_m, G_n their table entries
    at B = prec + STREAM_GUARD bits, the integer sum_{m=2}^{N} F_m P_{m-1},
    P_j = G_1 + ... + G_j, is exact.  |f_m| <= K1 q^-m and |g_n| <= K2 q^-n
    (_kbound), so |p_j| <= K2/(q-1) and |P_j - 2^B p_j| <= 3/4 j; each
    product then errs by at most 3/4 2^B (K2/(q-1) + 1) + 3/4 (m-1) 2^B |f_m|
    (for N <= 2^B), and summing over m with sum (m-1) q^-m = 1/(q-1)^2 gives
    rounding <= 3/4 2^-B ((N-1)(K2/(q-1) + 1) + K1/(q-1)^2).  The bound
    and the totals of all four sign pairs come from memo (_q_zeta2_series).
    """
    sign1, sign2 = as_sign(sign1, "q_zeta2: sign1"), as_sign(sign2, "q_zeta2: sign2")
    s1, s2 = _exponent(s1, "q_zeta2: s1"), _exponent(s2, "q_zeta2: s2")
    qp = _as_q(q)
    prec = _as_prec(prec, "q_zeta2")
    return memo(_q_zeta2_series, s1, s2, qp, prec).info(sign1, sign2)


def _q_zeta2_series(s1, s2, qp: QParam, prec: PrecisionConfig) -> _Series:
    """q_zeta2's _Series: its cutoff and bound, the same for all four sign
    pairs, then the totals of all four."""
    s1, s2 = _exponent(s1, "q_zeta2: s1"), _exponent(s2, "q_zeta2: s2")
    with mp.workdps(prec.working_dps):
        qm = qp.to_mpf()
        goal = prec.goal()
        k1, k2 = _kbound(s1, qm), _kbound(s2, qm)
        n = _geometric_n(k1 * k2 / (qm - 1) ** 2, qm, goal)
        _budget(n, prec, "q_zeta2")
        bits = mp.prec + STREAM_GUARD
        truncation = k1 * k2 / (qm - 1) ** 2 * qm ** (-n)
        rounding = mp.ldexp(3 * ((n - 1) * (k2 / (qm - 1) + 1) + k1 / (qm - 1) ** 2) / 4, -bits)
    totals = _q_zeta2_sums(s1, s2, qp, n, bits)
    return _series("q_zeta2", prec, n, truncation, rounding, goal, totals, 2 * bits)


def _q_zeta2_sums(s1, s2, qp: QParam, n: int, bits: int) -> tuple[int, int, int, int]:
    """sum_{m=2}^{n} sign1^m F_m P_(m-1), P_j = sum_{k<=j} sign2^k G_k, over
    the first n bits-bit entries F of the outer and G of the inner table,
    exact, for the four (sign1, sign2) (_at).  With P+ and P- the prefix
    sums for sign2 = +1 and -1, the outer entries of even m against each
    give E+ and E-, those of odd m give O+ and O-, and the total is
    E(sign2) + sign1 O(sign2)."""
    outer = _stream_terms(qp, bits, s1 - 1, s1, n)
    inner = _stream_terms(qp, bits, s2 - 1, s2, n)
    plus = list(accumulate(inner))
    inner[::2] = map(neg, inner[::2])  # odd k
    minus = list(accumulate(inner))
    # outer[i] is m = i + 1, which meets P_(m-1) = prefix[i - 1]
    even, odd = outer[1::2], outer[2::2]
    ep, em = sum(map(mul, even, plus[::2])), sum(map(mul, even, minus[::2]))
    op, om = sum(map(mul, odd, plus[1::2])), sum(map(mul, odd, minus[1::2]))
    return ep + op, em + om, ep - op, em - om


def q_zeta2(s1, sign1: int, s2, sign2: int, q=None, prec: PrecisionConfig | None = None) -> mpf:
    return q_zeta2_info(s1, sign1, s2, sign2, q, prec).value


def _linear_geometric_tail(k: mpf, x: mpf, n: int) -> mpf:
    """k * sum_{m>n} m x^m = k * x^(n+1) ((n+1) - n x) / (1-x)^2 for 0<x<1."""
    return k * x ** (n + 1) * ((n + 1) - n * x) / (1 - x) ** 2


def _linear_cutoff(k: mpf, x: mpf, n: int, goal: mpf) -> int:
    """Grow n by an eighth at a time until _linear_geometric_tail(k, x, n) <=
    goal, each n decided in float log2 by _decided (the mpf tail at a near
    tie); (n+1) - n x is taken as 1 + n (1-x).  A k or n past the float
    range returns n, then _geometric_n's estimate in mpf."""
    fixed = (_log2(k), -2 * _log2(1 - x), -_log2(goal))
    if math.isinf(fixed[0]) or n.bit_length() > 1024:
        return n
    lx, gap = _log2(x), float(1 - x)
    while True:
        parts = (*fixed, (n + 1) * lx, math.log2(1 + n * gap))
        if _decided(sum(parts), sum(map(abs, parts)),
                    lambda: _linear_geometric_tail(k, x, n) <= goal):
            return n
        n += max(1, n // 8)


def phi_q_info(s, sign: int = 1, q=None, prec: PrecisionConfig | None = None) -> SumInfo:
    """phi[s; sign] = sum_{n>=1} (n-1) sign^n q^((s-1)n) / [n]^s, with bound.

    The integer sum of (k-1) F_k over the N table entries is exact, so
    rounding is at most 3/4 2^-B sum (k-1) = 3/4 2^-B N(N-1)/2.  The bound
    and the totals of both signs come from memo (_phi_q_series).
    """
    sign = as_sign(sign, "phi_q: sign")
    s = _exponent(s, "phi_q: s")
    qp = _as_q(q)
    prec = _as_prec(prec, "phi_q")
    return memo(_phi_q_series, s, qp, prec).info(sign)


def _phi_q_series(s, qp: QParam, prec: PrecisionConfig) -> _Series:
    """phi_q's _Series: its cutoff and bound, the same for both signs, then
    the totals of both signs."""
    s = _exponent(s, "phi_q: s")
    with mp.workdps(prec.working_dps):
        qm = qp.to_mpf()
        goal = prec.goal()
        k = _kbound(s, qm)
        x = 1 / qm
        n = _linear_cutoff(k, x, _geometric_n(k / (qm - 1), qm, goal), goal)
        _budget(n, prec, "phi_q")
        bits = mp.prec + STREAM_GUARD
        truncation = _linear_geometric_tail(k, x, n)
        rounding = mp.ldexp(mpf(3 * n * (n - 1)) / 8, -bits)
    totals = _phi_q_sums(s, qp, n, bits)
    return _series("phi_q", prec, n, truncation, rounding, goal, totals, bits)


def _phi_q_sums(s, qp: QParam, n: int, bits: int) -> tuple[int, int]:
    """sum_k (k-1) sign^k F_k over the first n bits-bit entries of phi_q's
    table, exact, for sign = +1 and -1 (_at): the sum over even k plus sign
    times the sum over odd k."""
    terms = _stream_terms(qp, bits, s - 1, s, n)
    # terms[i] is k = i + 1, weighted by k - 1 = i
    even = sum(map(mul, range(1, n, 2), terms[1::2]))
    odd = sum(map(mul, range(0, n, 2), terms[::2]))
    return even + odd, even - odd


def phi_q(s, sign: int = 1, q=None, prec: PrecisionConfig | None = None) -> mpf:
    return phi_q_info(s, sign, q, prec).value


def _orient(r, s, sigma, tau):
    """Canonical orientation: swapping (r, sigma) <-> (s, tau) together with
    u <-> v is a term-level bijection, so both orders denote the same sum.
    Sorting the slot pairs by exact exponent (r and s come from _exponent)
    and then sign makes both orders one canonical key of memo, so
    they share one entry and return the identical SumInfo."""
    if (s, tau) < (r, sigma):
        return s, r, tau, sigma
    return r, s, sigma, tau


def tornheim_q_info(
    r, s, t, sigma: int = 1, tau: int = 1, q=None, prec: PrecisionConfig | None = None,
) -> SumInfo:
    """T[r,s,t; sigma,tau] = sum_{u,v>=1} sigma^u tau^v q^((r+t-1)u + (s+t-1)v)
    / ([u]^r [v]^s [u+v]^t), with a bound that covers truncation and rounding.

    The weight of u + v = m is a Lambert series: as [m] = q^m (1 - q^-m)/(q-1),
    q^((t-1)m)/[m]^t = c q^-m (1 - q^-m)^-t = c sum_{j>=0} beta_j x_j^m, with
    c = (q-1)^t, x_j = q^-(j+1) and beta_j = binom(t+j-1, j).  All sums
    converge absolutely, so T = c sum_j beta_j A_j B_j, where
    A_j = sum_u a_u x_j^u, a_u = sigma^u q^(ru)/[u]^r, and B_j is the same
    in (s, tau).  _tornheim_q_lambert sums it.

    Truncation.  |a_u| <= K(r) and |b_v| <= K(s) (_kbound), |beta_j| <=
    gamma_j = binom(|t|+j-1, j), and |A_j| <= K(r) h_j, h_j = x_j/(1 - x_j).
    With lambda = 1 - 1/q, h_j <= q^-(j+1)/lambda, and the series of
    (1 - y)^-|t| gives sum_j gamma_j h_j <= Gamma(|t|) = q^-1 lambda^(-|t|-1).

    * Cutting A_j and B_j after U_j = ceil(n/(j+1)) - 1 terms moves A_j B_j
      by at most 2 K(r) K(s) x_j^U_j h_j^2, and x_j^U_j h_j <= q^-n/lambda
      as (j+1)(U_j + 1) >= n.  Over all j this is at most 2 q M q^-n,
      M = K(r) K(s) Gamma(|t|)/(q-1); n is the least that makes c times it
      at most goal/4.  Every j >= n - 1 has U_j = 0.
    * Dropping every j >= js drops at most sum_{j>=js} gamma_j K(r) K(s)
      h_j^2 <= K(r) K(s) lambda^-2 q^(-3(js+1)/2) sum_j gamma_j q^(-(j+1)/2)
      = D q^(-3(js+1)/2), D = K(r) K(s)/(q^(1/2) lambda^2 mu^|t|),
      mu = 1 - q^(-1/2).  js is the least that makes c times it at most
      goal/4.  If that is n - 1 or more, js = n - 1 and the first bound
      alone covers every dropped j, as each has U_j = 0.

    Truncation is c times the sum of both.  The sum is taken in bits-bit
    fixed point, bits = prec plus the bit length of 4 (c + 1) kappa Lambda
    (Gamma(1) + Gamma(|t|)) rounded up to whole STREAM_GUARD steps, so that
    calls with other (r, s, t) share tables.  With E = 2^-bits and R the
    count of _lambert_rounding, the sum S' is within R of the cut sum, which
    is at most M, and C E (_tornheim_q_lambert) within 2E of c; so C S' E is
    within (c + 2E) R + 2E M of c times the cut sum before its one rounding
    to prec.

    The parts of each A_j over even and odd u do not depend on t, the
    weights or the other slot, so they are read from one column table per
    (q, bits, r) in _tables (_lambert_columns), which both slots and the
    series of every t at that width share; a series whose columns are
    stored forms only its weights and the four totals (_lambert_sum).

    terms, and the max_terms budget, count the triangle u + v <= W whose
    tail k sum_{m>W} m q^-m, k = K(r) K(s) K(t), meets the goal.  tail_bound
    is truncation plus rounding; if that exceeds the goal, PrecisionError is
    raised.  Nothing but the result depends on the signs, so after _orient
    memo holds one sign-free _Series for all four sign pairs
    (_tornheim_q_series), as it does for q_zeta1, q_zeta2 and phi_q.
    """
    sigma, tau = as_sign(sigma, "tornheim_q: sigma"), as_sign(tau, "tornheim_q: tau")
    r, s = _exponent(r, "tornheim_q: r"), _exponent(s, "tornheim_q: s")
    t = _exponent(t, "tornheim_q: t")
    qp = _as_q(q)
    prec = _as_prec(prec, "tornheim_q")
    r, s, sigma, tau = _orient(r, s, sigma, tau)
    return memo(_tornheim_q_series, r, s, t, qp, prec).info(sigma, tau)


def _tornheim_q_series(r, s, t, qp: QParam, prec: PrecisionConfig) -> _Series:
    """tornheim_q's _Series for r, s in _orient's order, planned and summed
    once for all four sign pairs: the triangle W that terms counts, checked
    against max_terms before anything is summed, then the Lambert sum's n,
    js, bits, truncation and rounding allowance and the totals of
    _tornheim_q_lambert."""
    with mp.workdps(prec.working_dps):
        qm = qp.to_mpf()
        goal = prec.goal()
        kr, ks = _kbound(r, qm), _kbound(s, qm)
        k = kr * ks * _kbound(t, qm)
        x = 1 / qm
        w = _linear_cutoff(k, x, max(2, _geometric_n(2 * k / (qm - 1) ** 2, qm, goal)), goal)
        terms = w * (w - 1) // 2
        _budget(terms, prec, "tornheim_q")
        ta = abs(_xm(t))
        lam, c, root = 1 - x, mp.power(qm - 1, _xm(t)), mp.sqrt(qm)
        gamma_1, gamma_t = x / lam ** 2, x * mp.power(lam, -ta - 1)
        mass = kr * ks * gamma_t / (qm - 1)
        drop = c * kr * ks / (root * lam ** 2 * mp.power(1 - 1 / root, ta))
        n = _geometric_n(8 * qm * c * mass, qm, goal)
        js = _geometric_n(4 * drop, root ** 3, goal) - 1
        truncation = 2 * qm * c * mass * qm ** -n
        if js < n - 1:
            truncation += drop * root ** (-3 * (js + 1))
        js = min(js, n - 1)
        kappa, spread = (kr + 1) * (ks + 1), n - 1 + 1 / (qm - 1)
        step = _ceil_bits(4 * (c + 1) * kappa * spread * (gamma_1 + gamma_t))
        bits = mp.prec - (-step // STREAM_GUARD) * STREAM_GUARD
        e = mp.ldexp(1, -bits)
        rounding = ((c + 2 * e) * _lambert_rounding(kappa, spread, gamma_1 + gamma_t, n, t, bits)
                    + 2 * e * mass)
    totals = _tornheim_q_lambert(r, s, t, qp, n, js, bits)
    return _series("tornheim_q", prec, terms, truncation, rounding, goal, totals, 6 * bits)


def _ceil_bits(x: mpf) -> int:
    """Bit length of ceil(x) for x > 0."""
    return int(mp.ceil(x)).bit_length()


def _lambert_weights(t, bits: int):
    """beta_j = binom(t+j-1, j), the coefficients of (1-y)^-t =
    sum_j beta_j y^j, for j = 0, 1, ... in bits-bit fixed point.

    With t = m/d, B_0 = 2^bits and B_(j+1) = floor(B_j (m + j d) / ((j+1) d)).
    Each floor adds less than one unit, and the factor |t+j|/(j+1) <=
    (|t|+j)/(j+1) carries the error on, so by induction |B_j - 2^bits beta_j|
    <= j max(1, gamma_j), gamma_j = binom(|t|+j-1, j) >= |beta_j| (gamma_j >=
    1 for |t| >= 1, <= 1 for |t| < 1).  For t = 0, -1, -2, ... every weight
    past j = -t is exactly 0.
    """
    y = Fraction(t)
    m, d = y.numerator, y.denominator
    beta, j = 1 << bits, 0
    while True:
        yield beta
        beta = beta * (m + j * d) // ((j + 1) * d)
        j += 1


def _lambert_sum(r, s, t, qp: QParam, n: int, js: int,
                 bits: int) -> tuple[int, int, int, int]:
    """S' = sum_{j<js} B_j A_j B'_j, exact at 5 bits bits, for the four
    (sigma, tau) (_at): B_j from _lambert_weights, A_j = E_j + sigma O_j
    and B'_j = E'_j + tau O'_j cut after U_j = ceil(n/(j+1)) - 1 terms, read
    from the column tables of r and, unless s = r, of s (_lambert_columns).
    The four totals are dot products of the lists B_j (E_j +- O_j) and
    E'_j +- O'_j; for s = r the (+, -) and (-, +) totals are equal.

    From j = (n - 1) // 2 on, 2 (j+1) > n - 1, so E_j = 0 and the cut is
    U_j = 1: A_j = sigma a_1 x_(j+1), x_k = q^-k.  That whole tail is
    sigma tau a_1 b_1 sum_j B_j x_(j+1)^2, one dot product over the q-term
    table of the powers, which enters the four totals with signs
    (+, -, -, +).  The weights stop at the first zero one, as every later
    one is zero too."""
    weights = list(islice(takewhile(bool, _lambert_weights(t, bits)), js))
    head = min(len(weights), (n - 1) // 2)
    a = _lambert_columns(qp, bits, r, n - 1, head)
    b = a if s == r else _lambert_columns(qp, bits, s, n - 1, head)
    a_pos = list(map(mul, weights, a[0:2 * head:2]))  # B_j (E_j + O_j)
    a_neg = list(map(mul, weights, a[1:2 * head:2]))  # B_j (E_j - O_j)
    b_pos, b_neg = b[0:2 * head:2], b[1:2 * head:2]
    pos_neg = sum(map(mul, a_pos, b_neg))
    neg_pos = pos_neg if b is a else sum(map(mul, a_neg, b_pos))
    tail = 0
    if len(weights) > head:
        x = _stream_terms(qp, bits, -1, 0, len(weights))[head:]
        tail = sum(map(mul, weights[head:], map(mul, x, x)))
    if tail:
        a_1 = _stream_terms(qp, bits, r, r, 1)[0]
        tail *= a_1 * (a_1 if s == r else _stream_terms(qp, bits, s, s, 1)[0])
    return (sum(map(mul, a_pos, b_pos)) + tail, pos_neg - tail, neg_pos - tail,
            sum(map(mul, a_neg, b_neg)) + tail)


def _lambert_columns(qp: QParam, bits: int, r, cut: int, head: int) -> _Table:
    """E_j + O_j and E_j - O_j, interleaved, for j from 0 to at least
    head - 1: the parts over even and odd u of A_j = sum_u sigma^u a_u
    x_((j+1)u), a_u = q^(ru)/[u]^r and x_k = q^-k, each cut at (j+1) u <=
    cut, as exact integer dot products of bits-bit q-term table entries
    (_stream_terms), at 2 bits bits.  The caller must not change it.

    A column depends on q, bits, r and the cut alone, not on t, the weights
    or the other slot, so every tornheim_q series at one (q, bits) reads one
    table of _tables per exponent, under (q, bits, r, "E+-O"), whose state
    is the cut it holds.  A read at another cut adds, or takes off, the terms
    a_u x_k for the k between the two cuts: for each such k, its divisor
    pairs (j+1) u = k, j below the stored columns (a term of even u enters
    both columns of j, one of odd u the second with a minus).  That costs
    about sqrt(k) steps per k, so when the steps would outnumber the cut,
    what building anew costs, the table is built anew.  Columns past the
    stored ones are built directly.  Either way each column is an exact sum
    of the same products, equal to one built at once; a q-term table that
    was dropped comes back entry for entry (_stream_terms)."""
    key = (qp, bits, r, "E+-O")
    table = _tables.take(key)
    stored = table.state
    if stored is not None and abs(cut - stored) * math.isqrt(max(cut, stored)) > cut:
        table, stored = _Table(), None
    if stored != cut or len(table) < 2 * head:
        top = max(cut, stored or 0)
        a, x = _stream_terms(qp, bits, r, r, top), _stream_terms(qp, bits, -1, 0, top)
        if stored is not None:
            sign, columns = (1 if cut > stored else -1), len(table) // 2
            for k in range(min(cut, stored) + 1, top + 1):
                for d in range(1, math.isqrt(k) + 1):
                    if k % d == 0:
                        for j, u in {(d - 1, k // d), (k // d - 1, d)}:
                            if j < columns:
                                term = sign * a[u - 1] * x[k - 1]
                                table[2 * j] += term
                                table[2 * j + 1] += -term if u % 2 else term
        a_even, a_odd = a[1::2], a[::2]
        for j in range(len(table) // 2, head):
            e = sum(map(mul, a_even, x[2 * j + 1:cut:2 * j + 2]))
            o = sum(map(mul, a_odd, x[j:cut:2 * j + 2]))
            table += (e + o, e - o)
    table.state = cut
    _tables.put(key, table)
    return table


def _lambert_rounding(kappa: mpf, spread: mpf, gammas: mpf, n: int, t, bits: int) -> mpf:
    """The rounding allowance of _lambert_sum over n - 1 entries and any
    js <= n - 1 weights, before the factor c = (q-1)^t.

    In the terms of tornheim_q_info, kappa = (K(r) + 1)(K(s) + 1), spread
    Lambda = n - 1 + 1/(q-1) and gammas = Gamma(1) + Gamma(|t|); E = 2^-bits
    and h_j = 1/(q^(j+1) - 1).  Against the same sum over exact entries and
    weights:

    * The a_u, b_v and the powers q^-k are table entries within 3/4 E, and
      U_j <= (n-1)/(j+1), sum_u x_j^u <= h_j <= 1/((j+1)(q-1)); so each
      integer dot product is within E (K + 1) Lambda/(j+1) of A_j (K = K(r))
      or B_j (K = K(s)), and as |A_j| <= K(r) h_j, their product is within
      2 kappa E Lambda h_j + kappa (E Lambda)^2/(j+1)^2 of A_j B_j.
    * The weights are within E j max(1, gamma_j) (_lambert_weights), so they
      are at most omega (1 + gamma_j), omega = 1 + E (n-1), and as
      j h_j <= 1/(q-1) their own error adds at most E K(r) K(s) gammas/(q-1)
      <= E kappa Lambda gammas.
    * sum_j (1 + gamma_j) h_j <= gammas, and over j <= J = n - 2,
      sum_j (1 + gamma_j)/(j+1)^2 <= 2 + binom(|t|+J, J)
      <= 2 + binom(ceil(|t|)+J, J).

    In all, E kappa Lambda (1 + 2 omega) gammas
    + omega kappa (E Lambda)^2 (2 + binom(ceil(|t|)+J, J)).
    """
    e = mp.ldexp(1, -bits)
    omega = 1 + e * (n - 1)
    last = max(n - 2, 0)
    gamma_sum = math.comb(math.ceil(abs(Fraction(t))) + last, last)
    return (e * kappa * spread * (1 + 2 * omega) * gammas
            + omega * kappa * (e * spread) ** 2 * (2 + gamma_sum))


def _tornheim_q_lambert(r, s, t, qp: QParam, n: int, js: int,
                        bits: int) -> tuple[int, int, int, int]:
    """C S' for the four (sigma, tau) (_at), exact at 6 bits bits: S' =
    _lambert_sum over js weights, each A_j and B_j cut after U_j =
    ceil(n/(j+1)) - 1 terms (tornheim_q_info), and C is c = (q-1)^t by
    _fixed_rational_power."""
    c = _fixed_rational_power(Fraction(qp.value) - 1, Fraction(t), bits)
    return tuple(c * total for total in _lambert_sum(r, s, t, qp, n, js, bits))


def _fixed_rational_power(v: Fraction, y: Fraction, bits: int) -> int:
    """v^y in bits-bit fixed point, within 2 units, for rationals v > 0 and
    y = m/d: floor(N^(1/d)) (_iroot) with N = floor(2^(bits d) v^m), as
    (z^d - 1)^(1/d) >= z - 1 for z >= 1."""
    power = v ** y.numerator
    root = (power.numerator << bits * y.denominator) // power.denominator
    return _iroot(root, y.denominator) if root else 0


def tornheim_q(
    r, s, t, sigma: int = 1, tau: int = 1, q=None, prec: PrecisionConfig | None = None,
) -> mpf:
    return tornheim_q_info(r, s, t, sigma, tau, q, prec).value


# ----------------------------------------------------------------------
# classical side: Borwein's alternating series and the split at 1/2
# ----------------------------------------------------------------------

def classical_zeta(s, sign: int = 1, prec: PrecisionConfig | None = None) -> mpf:
    """zeta(s; sign) = sum_{n>=1} sign^n / n^s  (note: the sign=-1 case is the
    negated eta function).

    sign=+1 needs s > 1; sign=-1 needs s >= 1, with zeta(1; -1) = -log 2.
    Raises PrecisionError when the a-priori cutoff exceeds max_terms or the
    proven bound misses the goal (see _zeta_sum).
    """
    sign = as_sign(sign, "classical_zeta: sign")
    if isinstance(s, str):  # as_rational would parse it
        raise DomainError(f"classical_zeta: s must be a number, got {s!r}")
    s = as_rational(s, "classical_zeta: s")
    prec = _as_prec(prec, "classical_zeta")
    if sign == 1 and not s > 1:
        raise DivergenceError(f"classical_zeta: zeta(s) needs s > 1, got {s}")
    if sign == -1 and not s >= 1:
        raise DomainError(f"classical_zeta: zeta(s; -1) needs s >= 1, got {s}")
    return memo(_zeta_sum, s, sign, prec).value


def _zeta_sum(s, sign: int, prec: PrecisionConfig) -> SumInfo:
    """Borwein's acceleration of eta(s) = sum_{k>=0} (-1)^k a_k, a_k = (k+1)^-s.

    For real s > 0, a_k = int_0^1 x^k dmu with dmu = (-log x)^(s-1) dx /
    Gamma(s) >= 0.  With d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!), the
    partial sums of |coefficients| of T_n(1-2x) (so d_n = T_n(3)),
    sum_{k<n} (-1)^k (1 - d_k/d_n) a_k differs from eta(s) by
    int T_n(1-2x) / (d_n (1+x)) dmu, at most eta(s)/d_n < 2 (3+sqrt 8)^-n
    (P. Borwein 2000; Cohen, Rodriguez Villegas and Zagier 2000).
    zeta(s; -1) = -eta(s), and zeta(s) = eta(s) / (1 - 2^(1-s)) divides that
    bound by |1 - 2^(1-s)|.

    The a_k are B-bit fixed-point ints within 3/4 (as in _stream_terms), taken
    at B + 8 + bitlen(|s| ln n) bits, where rounding s moves k^-s by at most
    2^-(B+8).  The weighted sum is exact and its division by d_n floors: the
    rounding is at most (3n/4 + 1) 2^-B.  The divisor c = -1 or 1 - 2^(1-s),
    at working precision prec, errs by at most 2^(2-prec)/|c| relative and
    adds 2^(3-prec) |value|; both allowances are divided by |c|.
    """
    with mp.workdps(prec.working_dps):
        goal = prec.goal()
        divisor = mpf(-1) if sign == -1 else 1 - mp.power(2, 1 - _xm(s))
        n = _geometric_n(4 / abs(divisor), 3 + mp.sqrt(8), goal)
        _budget(n, prec, "classical_zeta")
        bits = mp.prec + STREAM_GUARD
        with mp.workprec(bits + 8 + _ceil_bits(abs(_xm(s)) * mp.log(n + 1))):
            fixed = [(to_fixed(_pow(mpf(k), -s)._mpf_, bits + 1) + 1) >> 1
                     for k in range(1, n + 1)]
        coeff, d = 1, [1]  # d[k] = d_k, summed coefficient by coefficient
        for i in range(n):
            coeff = coeff * 2 * (n + i) * (n - i) // ((2 * i + 1) * (i + 1))
            d.append(d[-1] + coeff)
        total = sum((d[n] - d[k]) * (a if k % 2 == 0 else -a) for k, a in enumerate(fixed))
        value = _rounded(total // d[n], 1, bits) / divisor
        truncation = 1 / (d[n] * abs(divisor))
        rounding = (mp.ldexp(mpf(3 * n + 4) / 4, -bits)
                    + mp.ldexp(abs(value), 3 - mp.prec)) / abs(divisor)
        return SumInfo(value, _bound("classical_zeta", value, truncation, rounding, goal), n)


def _as_signed(x, what: str) -> SignedIndex:
    """x, or SignedIndex(x, 1) for an int x; else DomainError led by what."""
    return x if isinstance(x, SignedIndex) else SignedIndex(as_integer(x, what), 1)


def classical_double_euler(first, second, prec: PrecisionConfig | None = None) -> mpf:
    """zeta(s1, s2; g1, g2) = sum_{m>n>=1} g1^m g2^n / (m^s1 n^s2).

    Arguments are SignedIndex (or plain ints, meaning sign +1).  Convergence
    preconditions: s1 >= 2 when g1 = +1, s1 >= 1 when g1 = -1, s2 >= 1.
    Summed by the split of its iterated integral at 1/2 (_double_sum); raises
    PrecisionError when the cutoff exceeds max_terms or the bound the goal.
    """
    s1 = _as_signed(first, "classical_double_euler: first")
    s2 = _as_signed(second, "classical_double_euler: second")
    prec = _as_prec(prec, "classical_double_euler")
    if not isinstance(s1.value, int) or not isinstance(s2.value, int):
        raise DomainError("classical_double_euler: indices must be integers")
    check_convergent("classical_double_euler:", s1.value, s1.sign, s2.value, ("s1", "s2"))
    return memo(_double_sum, s1.value, s1.sign, s2.value, s2.sign, prec).info().value


def _letter(t: list[int], c: int, start: int, n: int) -> list[int]:
    """Terms start+1..n at 1/2 of the word c w, from the terms t[0..n] of w
    (_half_values): letter 0 floors t_k/k, and letter c != 0 floors
    E_k = S_k/(2c)^(k+1) and then its quotient by k+1, where S_k is the exact
    sum of t_i (2c)^i over i <= k.  For c in {1, 2}, 2c = 2^e and E_k =
    floor((E_(k-1) + t_k)/2^e) from E_(-1) = 0, as floor(floor(x)/m) =
    floor(x/m) for an int m > 0 and S_k/2^(e(k+1)) = (S_(k-1)/2^(e k) +
    t_k)/2^e; c = -1 floors the exact S_k = sum +-t_i << i.  Term k reads
    t_0..t_k only, so the terms of a longer t are the same."""
    ks = range(start + 1, n + 1)
    if c == 0:
        return list(map(floordiv, islice(t, start + 1, n + 1), ks))
    if c == -1:
        u = list(map(lshift, t, range(n)))  # t_0..t_(n-1)
        u[1::2] = map(neg, u[1::2])
        u = list(islice(accumulate(u), start, None))  # S_start..S_(n-1)
        u[start % 2::2] = map(neg, u[start % 2::2])  # (2c)^(k+1) < 0 for even k
        return list(map(floordiv, map(rshift, u, ks), ks))
    e, eta, head = abs(c), 0, islice(t, n)
    for tk in islice(head, start):  # E_(start-1)
        eta = (eta + tk) >> e
    return [(eta := (eta + tk) >> e) // k for k, tk in zip(ks, head)]


def _half_values(letters, n: int, bits: int, shared: int = 0, family: bool = False) -> list[int]:
    """I(0 -> 1/2; word), as an int V with value V 2^-bits, for each word built
    by applying letters one at a time to the constant 1, the empty word first.

    A word's series sum_k f_k x^k (f_0 = 0 unless the word is empty) is kept
    as its terms at 1/2, t_k = f_k 2^-k (k <= n), in bits-bit fixed point.
    Letter 0 is dt/t: t'_k = t_k/k.  Letter c != 0 is dt/(c - t): t'_(k+1) =
    eta_k/(k+1), eta_k = (t_k + eta_(k-1))/(2c) = S_k/(2c)^(k+1) (_letter).
    As |c| >= 1, |f_k| <= 1 and truncation is at most 2^-n.  Both steps
    floor, so from input terms within E units eta_k is within E sum_(i<=k)
    |2c|^-(k-i+1) + 1 <= E + 1, and t'_(k+1) within E + 2 (letter 0: E/k + 1):
    a word of j letters is within 2^-n + 2j (n+1) 2^-bits.

    The words of the first shared letters are kept in _tables under (bits,
    letters so far) as their running sums t_1, t_1 + t_2, .., so a stored
    word's value at n is its entry n.  A stored word is grown from the terms
    of the word before it, taken by one difference pass of that word's sums
    only when a grow needs them, and the table's state, its last sum, is
    where a grow from start resumes, so a word grown in pieces equals one
    filled at once.  The last shared word goes back to terms the same way
    for the letters after it.  Term k reads terms 0..k of the word before it
    only, so a stored word of more than n entries serves n by truncation,
    and its values are exactly those of a word built at n.  With family,
    the letters after the shared ones are one letter c and then zeros only,
    and their words are read from the family of the shared letters and c
    (_family_values); else they are built one letter at a time.

    Memory: the 567-case classical_check grid (30, 60 and 120 digits) keeps
    22 words per width, 66 tables of 16,896 sums in all (1.4 MB by
    memo_stats()'s bytes), and 20 tails families per width of 240 words,
    60 tables of 16,620 ints (0.9 MB).
    """
    letters = list(letters)
    t = [1 << bits] + [0] * n  # terms 0..n of the empty word
    values = [t[0]]
    sums = None  # running sums 1..n of the last shared word, when t is None

    def terms() -> list[int]:  # terms 0..n of the last word built
        nonlocal t
        if t is None:
            t = _terms(sums)
        return t

    def grow(start: int, n: int, last: int | None) -> tuple[list[int], int]:
        # sums start+1..n of letter c (of the loop below) applied to t
        more = _letter(terms(), c, start, n)
        more[0] += last or 0
        more = list(accumulate(more))
        return more, more[-1]

    for j, c in enumerate(letters[:shared], 1):
        sums, t = _tables.table((bits, tuple(letters[:j])), n, grow), None
        values.append(sums[-1])
    if family:
        return values + _family_values(bits, tuple(letters[:shared + 1]), len(letters) - shared,
                                       n, terms)
    for c in letters[shared:]:
        t = [0, *_letter(terms(), c, 0, n)]
        values.append(sum(t))
    return values


def _terms(sums: list[int]) -> list[int]:
    """The terms t_0 = 0, t_1, .., t_n of a word from its running sums 1..n."""
    return [0, sums[0], *map(sub, islice(sums, 1, None), sums)]


def _family_values(bits: int, letters: tuple, count: int, n: int, run) -> list[int]:
    """The values at n of the words letters 0^i, i < count, as _half_values
    gives them, where letters = w c and run() gives the terms 0..n of w.

    The words of one (bits, letters) are a family, one table of _tables
    under (bits, letters, "0^i").  Entry i is the value of letters 0^i at
    the family's cutoff N, the sum of its terms 1..N.  The state is the
    frontier, the terms 0..N of the deepest word, and the window, the terms
    b_k of letters itself for the last FAMILY_WINDOW k <= N.  Letter 0 floors
    t_k/k, and floor(floor(x)/k) = floor(x/k), so term k of letters 0^i is
    floor(b_k/k^i), whatever n or N.  Hence:

    * a deeper word costs one letter-0 pass over the frontier and one sum;
    * a cutoff n with N - FAMILY_WINDOW <= n <= N reads entry i less its
      terms k = n+1..N, floor(b_k/k^i) from the window;
    * a larger n grows the family in k: letter c gives b_(N+1)..b_n (_letter
      from N), every entry adds its terms, and frontier and window take theirs;
    * a smaller n rebuilds the family at n.

    Each value is the one of the word built at n, bit for bit.  The doubles
    of one family differ in a1 alone, and _double_sum's n = bitlen(ceil(6
    (L+1)/goal)), L = a1 + a2, grows by one when L+1 doubles: on the
    classical grid their n lie within 3 of each other, so once grown to the
    largest a family serves every one of them from its window.
    """
    c, key = letters[-1], (bits, letters, "0^i")
    family = _tables.take(key)
    frontier, window = family.state or ((), ())
    if len(frontier) - 1 - n > len(window):  # n lies below the window
        family = _Table()
    if not family:
        frontier = [0, *_letter(run(), c, 0, n)]
        family.append(sum(frontier))
        window = frontier[-FAMILY_WINDOW:]
    top = len(frontier) - 1
    if n > top:
        more = _letter(run(), c, top, n)
        for k, b in enumerate(more, top + 1):
            family[:] = [v + b // k ** i for i, v in enumerate(family)]
            frontier.append(b // k ** (len(family) - 1))
        window = (window + more)[-FAMILY_WINDOW:]
        top = n
    while len(family) < count:
        frontier = [0, *_letter(frontier, 0, 0, top)]
        family.append(sum(frontier))
    family.state = frontier, window
    _tables.put(key, family)
    values = family[:count]
    for k, b in zip(range(n + 1, top + 1), window[n - top:]):
        values = [v - b // k ** i for i, v in enumerate(values)]
    return values


def _split_values(word: list[int], a1: int, n: int, bits: int):
    """The heads I(0 -> 1/2; w_j'..w_1') and the tails I(0 -> 1/2; w_L..w_j)
    of _double_sum, j = 0..L, for w = 0^(a1-1) g1 0^(a2-1) g1g2.  The first
    letters applied are 1^(a1-1) for the heads and g1g2 0^(a2-1) for the
    tails: these runs do not depend on the rest of the word, so every double
    at bits bits reads them from _tables (_half_values).  The heads build
    the letters after their run.  The tails' letters after it are g1
    0^(a1-1), and the family of g1g2 0^(a2-1) g1 (_family_values) holds
    their words for the doubles of every a1 at once."""
    heads = _half_values([1 if c == 0 else 1 - c for c in word], n, bits, a1 - 1)
    tails = _half_values(reversed(word), n, bits, len(word) - a1, family=True)
    return heads, tails


def _double_sum(a1: int, g1: int, a2: int, g2: int, prec: PrecisionConfig) -> _Series:
    """zeta(a1, a2; g1, g2) = I(0 -> 1; w), w = w_1..w_L = 0^(a1-1) g1 0^(a2-1)
    g1g2 in the letters of _half_values, split at 1/2 (Borwein, Bradley,
    Broadhurst and Lisonek 2001): zeta = sum_{j<=L} A_j B_j with
    B_j = I(0 -> 1/2; w_(j+1)..w_L) and A_j = I(1/2 -> 1; w_1..w_j).  Reversing
    the path and putting t = 1 - u gives A_j = (-1)^(j + #{i <= j: w_i in
    {0, 1}}) I(0 -> 1/2; w_j'..w_1'), where 0' = 1 and c' = 1 - c.  Every
    letter c != 0 has |c| >= 1, so |A_j|, |B_j| <= 1; each is a word of at
    most L letters, within delta = 2^-N + 2L (N+1) 2^-B (_half_values), so
    the exact sum of the products, at 2B bits, is within (2 delta +
    delta^2) (L+1) <= 3 (L+1) delta: truncation 3 (L+1) 2^-N and rounding
    6 L (L+1) (N+1) 2^-B at B = prec + STREAM_GUARD bits, the one total of
    a _Series at scale 2B.
    The heads and tails come from _split_values; the runs and the tails
    families it reads from _tables are sum for sum those a fresh build at n
    gives, so the value and bound do not depend on what is stored, nor on
    the order in which the doubles were asked for.
    """
    word = [0] * (a1 - 1) + [g1] + [0] * (a2 - 1) + [g1 * g2]
    size = len(word)
    with mp.workdps(prec.working_dps):
        goal = prec.goal()
        n = _ceil_bits(6 * (size + 1) / goal)
        _budget(n, prec, "classical_double_euler")
        bits = mp.prec + STREAM_GUARD
        truncation = mp.ldexp(mpf(3 * (size + 1)), -n)
        rounding = mp.ldexp(mpf(6 * size * (size + 1) * (n + 1)), -bits)
    heads, tails = _split_values(word, a1, n, bits)
    signs = accumulate((1 if c in (0, 1) else -1 for c in word), mul, initial=1)
    total = sum(g * a * b for g, a, b in zip(signs, heads, reversed(tails)))
    return _series("classical_double_euler", prec, n, truncation, rounding, goal, (total,),
                   2 * bits)


# ----------------------------------------------------------------------
# combinations of series: classical Tornheim values and reductions
# ----------------------------------------------------------------------

def _combine(parts, den: int) -> tuple[defaultdict, int]:
    """Per group, the exact int sum of c_i L T_i 2^(S - scale_i) over parts
    (c_i, group, series, signs_i), T_i = _at(series.totals, *signs_i), L =
    den a common denominator of the c_i, S = 2 (working bits +
    STREAM_GUARD); and S.  A term that missed its goal raises first, as
    its public call does (_Series.info)."""
    groups = defaultdict(int)
    scale = 2 * (mp.prec + STREAM_GUARD)
    for c, group, series, signs in parts:
        series.info(*signs)
        groups[group] += (c.numerator * (den // c.denominator) * _at(series.totals, *signs)
                          << scale - series.scale)
    return groups, scale


def tornheim_classical(r: int, s: int, t: int, variant: str = "T",
                       prec: PrecisionConfig | None = None) -> mpf:
    """Numeric value of the classical series T/S/R(r,s,t) via its depth-2
    reduction (the raw double sum converges too slowly): corollary1_reduce
    checks that each term converges, and _combine reads its _double_sum."""
    prec = _as_prec(prec, "tornheim_classical")
    terms = corollary1_reduce(r, s, t, variant)
    den = math.lcm(*(coeff.denominator for coeff, _, _ in terms))
    with mp.workdps(prec.working_dps):
        parts = ((c, 0, memo(_double_sum, a.value, a.sign, b.value, b.sign, prec), ())
                 for c, a, b in terms)
        groups, scale = _combine(parts, den)
        return _rounded(groups[0], den, scale)


def evaluate_reduction(reduction, q, prec: PrecisionConfig | None = None) -> mpf:
    """Numeric value of a Reduction's right-hand side at a given q.

    Each term reads its _Series from memo, keyed on its exponents as the
    term holds them (validated by the kernel on a miss), and _combine sums
    the terms per power (a, p) of (1-q) and (1+q).  With q = n/d, (1-q)^a
    (1+q)^p = (d-n)^a (n+d)^w d^(-a-w) (1+q)^f, w = floor(p), f = p - w, so
    the groups of one f form one exact rational, rounded once (_rounded);
    only a fractional f (R at non-integer t) is a factor mp.power(1+q, f).
    """
    if not isinstance(reduction, Reduction):
        raise DomainError(f"evaluate_reduction: reduction must be a Reduction, got {reduction!r}")
    qp = _as_q(q)
    prec = _as_prec(prec, "evaluate_reduction")
    q2 = qp.squared()

    def terms():  # the parts of _combine
        for coeff, kind in reduction.terms:
            p = 0
            if isinstance(kind, DoubleQZeta):
                a, b = kind.outer, kind.inner
                series, signs = memo(_q_zeta2_series, a.value, b.value, qp, prec), (a.sign, b.sign)
            elif isinstance(kind, PhiTerm):
                series, signs = memo(_phi_q_series, kind.index.value, qp, prec), (kind.index.sign,)
            elif isinstance(kind, QSquaredZeta):
                series, signs = memo(_q_zeta1_series, kind.index, q2, prec), (1,)
                p = kind.one_plus_q_pow
            else:
                raise DomainError(f"evaluate_reduction: unknown term kind {kind!r}")
            yield coeff, (kind.one_minus_q_pow, p), series, signs

    den = math.lcm(*(coeff.denominator for coeff, _ in reduction.terms))
    with mp.workdps(prec.working_dps):
        groups, scale = _combine(terms(), den)
        n, d = qp.ratio.numerator, qp.ratio.denominator
        bases = (d - n, n + d, d)
        parts = defaultdict(dict)  # f -> {powers (a, w, -a-w) of bases: group}
        for (a, p), group in groups.items():
            w = math.floor(p)
            parts[p - w][a, w, -a - w] = group
        value = mpf(0)
        for f, part in parts.items():
            lows = [min(e) for e in zip(*part)]
            num = sum(g * math.prod(b ** (e - lo) for b, e, lo in zip(bases, powers, lows))
                      for powers, g in part.items())
            num *= math.prod(b ** lo for b, lo in zip(bases, lows) if lo > 0)
            low = den * math.prod(b ** -lo for b, lo in zip(bases, lows) if lo < 0)
            term = _rounded(num, low, scale)
            value += term * mp.power(1 + qp.to_mpf(), _xm(f)) if f else term
        return value


def memo_stats() -> dict:
    """Hits, misses and size of exact.memo, the package's one memo (q parses,
    classical_zeta's SumInfos, the settled _Series of the classical doubles
    and q-series, and the expansions, reductions, closed forms and Bernoulli
    numbers), and for _tables (q-term tables, Lambert column tables,
    half-series words and tails families) their number, ints stored (the
    budget's count: entries, and a family's frontier and window), budget,
    hits, misses and bytes
    (sys.getsizeof of the stored lists and of every int in them).  A call
    rejected inside memo (a q that _qparam refuses, or _budget, checked
    before anything is summed) counts one miss, for the entry it looked up,
    and stores nothing."""
    info = memo.cache_info()
    return {"memo": {"hits": info.hits, "misses": info.misses, "size": info.currsize},
            "tables": _tables.stats()}


def clear_memos() -> None:
    """Empty exact.memo and the tables and reset their counts."""
    memo.cache_clear()
    _tables.clear()
