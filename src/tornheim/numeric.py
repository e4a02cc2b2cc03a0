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
                                       / ([u]^r [v]^s [u+v]^t), summed over
                                       the triangle u + v <= W by one
                                       big-integer product

classical side.  Geometric-rate series with tails bounded in closed form:

    classical_zeta(s, sign)        zeta(s; sign), s > 0, by P. Borwein's
                                   acceleration of eta(s): error at most
                                   2 (3+sqrt 8)^-n after n terms, divided by
                                   |1 - 2^(1-s)| for sign +1
    classical_double_euler(a, b)   zeta(s1, s2; g1, g2) = sum_{m>n>=1} ..., its
                                   iterated integral split at 1/2 (Borwein,
                                   Bradley, Broadhurst, Lisonek): L + 1
                                   products of series at 1/2, error at most
                                   3 (L+1) 2^-N after N terms, L = s1 + s2

The q-kernels share one recurrence: _qterms yields q^(e k) / [k]^x with
[k] from a running power of q.  It fills the q-term table (_stream_terms)
of each (q, bits B, e, x): fixed-point Python ints F_k within 3/4 of
2^B q^(e k)/[k]^x, extended when a call needs more terms.  All tables are
kept together in _tables, one memo that stores at most TABLE_BUDGET terms
and drops the least recently used tables first.  q_zeta1, phi_q and
q_zeta2 are exact integer sums over q-term entries (sum sign^k F_k,
sum (k-1) sign^k F_k, sum_m sign^m F_m times a running prefix), converted
to mpf once, so their rounding is a count of 3/4-units at B = working
precision + STREAM_GUARD bits.  classical_zeta, classical_double_euler and
the terms of evaluate_reduction are memoized by functools.lru_cache(MEMO_SIZE)
on private functions (_zeta_memo, _double_memo, _qterm_memo) that the public
ones call after validating their input.  memo_stats() reports the hits,
misses and sizes of all four memos, and clear_memos() empties them.

All mpf results are computed at digits + 15 working precision.  Every
q-kernel and both classical kernels plan their cutoff from the goal up
front, bound truncation plus a proven rounding allowance, and raise
PrecisionError when that exceeds the goal.
tornheim_q sums its triangle by Kronecker substitution: the rescaled
factors sigma^u q^(ru)/[u]^r and tau^v q^(sv)/[v]^s are read from the
q-term table as p-bit fixed-point integers, packed one per slot into two
Python ints and multiplied once, so every diagonal sum over u + v = m comes
out of one big-integer product.  The diagonal weights q^((t-1)m)/[m]^t are
q-terms too; an exact integer dot product applies them, rounded once.  When
the requested tail goal is coarse (>= 1e-10), a float64 fft kernel sums the
same triangle instead if truncation plus its a-priori rounding bound still
meets the goal.
"""
from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import NamedTuple

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .errors import DivergenceError, DomainError, PrecisionError
from .exact import SignedIndex, check_convergent
from .reduction import VARIANT_SIGNS, DoubleQZeta, PhiTerm, QSquaredZeta, corollary1_reduce

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
    "tornheim_classical_naive",
    "evaluate_reduction",
    "memo_stats",
    "clear_memos",
]

FLOAT64_GOAL_CUTOFF = 1e-10  # coarser goals than this use the vectorized kernel
MEMO_SIZE = 4096  # entries per memo (_zeta_memo, _double_memo, _qterm_memo)
TABLE_BUDGET = 1 << 17  # terms kept by all growable tables together (_tables)
STREAM_GUARD = 32  # bits the q-term table keeps past working precision


@dataclass(frozen=True)
class PrecisionConfig:
    """Requested precision: output digits, term budget, and tail goal.

    tail_goal is the absolute truncation-error target; None means
    10^-(digits+5).  Working precision is digits + 15.
    """
    digits: int = 30
    max_terms: int = 2_000_000
    tail_goal: float | None = None

    def __post_init__(self) -> None:
        if self.digits < 10:
            raise DomainError(f"PrecisionConfig: digits must be >= 10, got {self.digits}")
        if self.max_terms < 100:
            raise DomainError(f"PrecisionConfig: max_terms must be >= 100, got {self.max_terms}")
        if self.tail_goal is not None and not self.tail_goal > 0:
            raise DomainError("PrecisionConfig: tail_goal must be positive")

    @property
    def working_dps(self) -> int:
        return self.digits + 15

    def goal(self) -> mpf:
        if self.tail_goal is not None:
            return mpf(self.tail_goal)
        return mpf(10) ** (-(self.digits + 5))


@dataclass(frozen=True)
class QParam:
    """The deformation parameter; only q > 1 is admitted."""
    value: Fraction | int | float

    def __post_init__(self) -> None:
        if not self.value > 1:
            raise DomainError(f"QParam: q must be > 1, got {self.value}")

    def to_mpf(self) -> mpf:
        return _xm(self.value)

    def to_float(self) -> float:
        return float(self.value)

    def squared(self) -> "QParam":
        return QParam(self.value * self.value)

    def __str__(self) -> str:
        return str(self.value)


class SumInfo(NamedTuple):
    """A summation result with its proven tail bound and term count."""
    value: mpf
    tail_bound: mpf
    terms: int


def _as_q(q) -> QParam:
    if isinstance(q, QParam):
        return q
    if isinstance(q, str):
        return QParam(Fraction(q))
    return QParam(q)


def _as_prec(prec) -> PrecisionConfig:
    return prec if prec is not None else PrecisionConfig()


def _xm(x) -> mpf:
    """Exact-as-possible mpf conversion for int / Fraction / float exponents."""
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return mpf(x)


def _pow(base: mpf, expo) -> mpf:
    if isinstance(expo, int) or (isinstance(expo, Fraction) and expo.denominator == 1):
        return base ** int(expo)
    return mp.power(base, _xm(expo))


def _sign_ok(sign: int) -> int:
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    return sign


# ----------------------------------------------------------------------
# q-side
# ----------------------------------------------------------------------

def q_int(n: int, q, prec: PrecisionConfig | None = None) -> mpf:
    """The q-integer [n] = (q^n - 1)/(q - 1)."""
    if n < 0:
        raise DomainError(f"q_int: n must be >= 0, got {n}")
    qp = _as_q(q)
    prec = _as_prec(prec)
    with mp.workdps(prec.working_dps):
        qm = qp.to_mpf()
        return (qm ** n - 1) / (qm - 1)


def _kbound(x, qm: mpf) -> mpf:
    """K(x) with 1/[n]^x <= K(x) q^(-n x) for all n >= 1."""
    xf = _xm(x)
    if xf >= 0:
        return mp.power(qm, xf)
    return mp.power(qm - 1, xf)


def _geometric_n(c: mpf, qm: mpf, goal: mpf) -> int:
    """Smallest N >= 1 with c * q^(-N) <= goal."""
    if c <= goal:
        return 1
    return max(1, int(mp.ceil(mp.log(c / goal) / mp.log(qm))))


def _budget(n_terms: int, prec: PrecisionConfig, what: str) -> None:
    if n_terms > prec.max_terms:
        raise PrecisionError(
            f"{what}: tail goal needs {n_terms} terms, exceeding max_terms={prec.max_terms}"
        )


def _qterms(qm: mpf, e: mpf, x, n: int, start: int = 0):
    """q^(e k) / [k]^x for k = start+1, ..., n, with [k] = (q^k - 1)/(q - 1)
    taken from a running power q^k."""
    step = mp.power(qm, e)
    num = step ** start
    qpow = qm ** start
    for _ in range(start, n):
        qpow *= qm
        num *= step
        yield num / _pow((qpow - 1) / (qm - 1), x)


def _guard_bits(scale: mpf, n: int, exponents: mpf, qm: mpf) -> int:
    """Guard bits over p for n steps of the _qterms recurrence.

    At working precision wp its k-th term has a relative error of a small
    multiple (far below 64) of k (|e| + |x| + 3) (q/(q-1) + ln q) 2^-wp:
    the running powers add one rounding per step, [k] = (q^k - 1)/(q - 1)
    cancels by up to q/(q-1), and the rounded exponents e and x err by
    |e| ln q^k and |x| ln [k].  With n >= k and exponents >= |e| + |x| + 3,
    wp = p + these bits puts that error times scale below 2^-p / 4.
    """
    return _ceil_bits(scale * n * exponents * (qm / (qm - 1) + mp.log(qm))) + 8


class _TableMemo:
    """Growable tables of terms, bounded by one budget of stored terms.

    table(key, n, grow) returns entries 1..n of the table for key, appending
    the list grow(start, n) of entries start+1..n to what is stored; nothing
    stored is recomputed.  Tables are kept in order of last use, and once a
    call has grown one the least recently used are dropped until at most
    budget terms are stored.  A table longer than the whole budget is
    returned but not kept, and the others stay.  Hits (key stored) and misses
    are counted.  lists maps each key to the stored entries, least recently
    used first.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.clear()

    def clear(self) -> None:
        self.lists: OrderedDict = OrderedDict()
        self.stored = self.hits = self.misses = 0

    def table(self, key: tuple, n: int, grow) -> list:
        entries = self.lists.pop(key, None)
        if entries is None:
            self.misses += 1
            entries = []
        else:
            self.hits += 1
            self.stored -= len(entries)
        if len(entries) < n:
            entries.extend(grow(len(entries), n))
        if len(entries) <= self.budget:
            self.lists[key] = entries
            self.stored += len(entries)
            while self.stored > self.budget:
                self.stored -= len(self.lists.popitem(last=False)[1])
        return entries[:n]

    def stats(self) -> dict:
        return {"tables": len(self.lists), "terms": self.stored, "budget": self.budget,
                "hits": self.hits, "misses": self.misses}


_tables = _TableMemo(TABLE_BUDGET)


def _stream_terms(qp: QParam, bits: int, e, x, sign: int, n: int) -> list[int]:
    """sign^k F_k for k = 1..n, where F_k is q^(e k)/[k]^x in bits-bit fixed
    point: |F_k - 2^bits q^(e k)/[k]^x| <= 3/4.  Requires e <= x.

    The unsigned F_k are the q-term table of (q, bits, e, x) in _tables,
    which extends it when a call needs more terms.  New entries come from
    the _qterms recurrence, restarted at the first missing k, at
    bits + _guard_bits: every term is at most K(x) (_kbound, as e <= x), so
    its absolute error is at most 2^-bits / 4 before rounding to the nearest
    integer adds 1/2.  The sign negates odd k, which is exact.  Returns a
    fresh list.

    Memory: an entry is a Python int and its list slot, about bits/8 + 36
    bytes, and _tables keeps at most TABLE_BUDGET entries of all its tables
    together once a call returns.  At 30 digits the 576-case q_sweep grid
    stores about 14,400 entries in 120 tables (0.7 MB), 12 of them the
    diagonal weights of tornheim_q, and the 144-case q_limit grid about
    36,000 in 48 (1.6 MB).
    """
    def grow(start: int, n: int) -> list[int]:
        qm = qp.to_mpf()
        guard = _guard_bits(_kbound(x, qm) + 1, n, abs(_xm(e)) + abs(_xm(x)) + 3, qm)
        with mp.workprec(bits + guard):
            qm = qp.to_mpf()
            new = _qterms(qm, _xm(e), x, n, start)
            return [(to_fixed(v._mpf_, bits + 1) + 1) >> 1 for v in new]

    terms = _tables.table((qp, bits, e, x), n, grow)
    if sign == -1:
        terms[::2] = [-f for f in terms[::2]]  # odd k
    return terms


def _fixed_mpf(man: int, bits: int) -> mpf:
    """man * 2^-bits rounded once to the working precision."""
    return mp.make_mpf(from_man_exp(man, -bits, mp.prec, round_nearest))


def _bound(what: str, value: mpf, truncation: mpf, rounding: mpf, goal: mpf) -> mpf:
    """truncation + rounding + 2^(1-prec) |value|, the last term for the
    final rounding to working precision prec; PrecisionError above goal."""
    rounding += mp.ldexp(abs(value), 1 - mp.prec)
    if truncation + rounding > goal:
        raise PrecisionError(
            f"{what}: truncation {mp.nstr(truncation, 3)} plus rounding "
            f"{mp.nstr(rounding, 3)} exceeds the goal {mp.nstr(goal, 3)} at "
            f"{mp.dps} working digits"
        )
    return truncation + rounding


def q_zeta1_info(s, sign: int = 1, q=None, prec: PrecisionConfig | None = None) -> SumInfo:
    """zeta_q[s; sign] = sum_{n>=1} sign^n q^((s-1)n) / [n]^s, with tail bound.

    The N table entries are summed exactly, so rounding is at most
    3/4 N 2^-B at B = prec + STREAM_GUARD bits.
    """
    _sign_ok(sign)
    qp = _as_q(q)
    prec = _as_prec(prec)
    with mp.workdps(prec.working_dps):
        qm = qp.to_mpf()
        goal = prec.goal()
        k = _kbound(s, qm)
        n_terms = _geometric_n(k / (qm - 1), qm, goal)
        _budget(n_terms, prec, "q_zeta1")
        bits = mp.prec + STREAM_GUARD
        value = _fixed_mpf(sum(_stream_terms(qp, bits, s - 1, s, sign, n_terms)), bits)
        truncation = k / (qm - 1) * qm ** (-n_terms)
        rounding = mp.ldexp(mpf(3 * n_terms) / 4, -bits)
        return SumInfo(value, _bound("q_zeta1", value, truncation, rounding, goal), n_terms)


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
    rounding <= 3/4 2^-B ((N-1)(K2/(q-1) + 1) + K1/(q-1)^2).
    """
    _sign_ok(sign1), _sign_ok(sign2)
    qp = _as_q(q)
    prec = _as_prec(prec)
    with mp.workdps(prec.working_dps):
        qm = qp.to_mpf()
        goal = prec.goal()
        k1, k2 = _kbound(s1, qm), _kbound(s2, qm)
        n_terms = _geometric_n(k1 * k2 / (qm - 1) ** 2, qm, goal)
        _budget(n_terms, prec, "q_zeta2")
        bits = mp.prec + STREAM_GUARD
        outer = _stream_terms(qp, bits, s1 - 1, s1, sign1, n_terms)
        prefixes = accumulate(_stream_terms(qp, bits, s2 - 1, s2, sign2, n_terms))
        value = _fixed_mpf(sum(map(mul, outer[1:], prefixes)), 2 * bits)
        truncation = k1 * k2 / (qm - 1) ** 2 * qm ** (-n_terms)
        rounding = mp.ldexp(3 * ((n_terms - 1) * (k2 / (qm - 1) + 1) + k1 / (qm - 1) ** 2) / 4,
                            -bits)
        return SumInfo(value, _bound("q_zeta2", value, truncation, rounding, goal), n_terms)


def q_zeta2(s1, sign1: int, s2, sign2: int, q=None, prec: PrecisionConfig | None = None) -> mpf:
    return q_zeta2_info(s1, sign1, s2, sign2, q, prec).value


def _linear_geometric_tail(k: mpf, x: mpf, n: int) -> mpf:
    """k * sum_{m>n} m x^m = k * x^(n+1) ((n+1) - n x) / (1-x)^2 for 0<x<1."""
    return k * x ** (n + 1) * ((n + 1) - n * x) / (1 - x) ** 2


def _linear_cutoff(k: mpf, x: mpf, n: int, goal: mpf) -> int:
    """Grow n by an eighth at a time until _linear_geometric_tail(k, x, n) <= goal."""
    while _linear_geometric_tail(k, x, n) > goal:
        n += max(1, n // 8)
    return n


def phi_q_info(s, sign: int = 1, q=None, prec: PrecisionConfig | None = None) -> SumInfo:
    """phi[s; sign] = sum_{n>=1} (n-1) sign^n q^((s-1)n) / [n]^s, with bound.

    The integer sum of (k-1) F_k over the N table entries is exact, so
    rounding is at most 3/4 2^-B sum (k-1) = 3/4 2^-B N(N-1)/2.
    """
    _sign_ok(sign)
    qp = _as_q(q)
    prec = _as_prec(prec)
    with mp.workdps(prec.working_dps):
        qm = qp.to_mpf()
        goal = prec.goal()
        k = _kbound(s, qm)
        x = 1 / qm
        n_terms = _linear_cutoff(k, x, _geometric_n(k / (qm - 1), qm, goal), goal)
        _budget(n_terms, prec, "phi_q")
        bits = mp.prec + STREAM_GUARD
        terms = _stream_terms(qp, bits, s - 1, s, sign, n_terms)
        value = _fixed_mpf(sum(map(mul, range(n_terms), terms)), bits)
        truncation = _linear_geometric_tail(k, x, n_terms)
        rounding = mp.ldexp(mpf(3 * n_terms * (n_terms - 1)) / 8, -bits)
        return SumInfo(value, _bound("phi_q", value, truncation, rounding, goal), n_terms)


def phi_q(s, sign: int = 1, q=None, prec: PrecisionConfig | None = None) -> mpf:
    return phi_q_info(s, sign, q, prec).value


def _orient(r, s, sigma, tau):
    """Canonical orientation: swapping (r, sigma) <-> (s, tau) together with
    u <-> v is a term-level bijection, so both orders denote the same sum.
    Sorting the slot pair makes the swapped call run the identical
    computation, hence return the identical float."""
    if (float(_xm(s)), tau) < (float(_xm(r)), sigma):
        return s, r, tau, sigma
    return r, s, sigma, tau


def tornheim_q_info(
    r, s, t, sigma: int = 1, tau: int = 1, q=None, prec: PrecisionConfig | None = None,
) -> SumInfo:
    """T[r,s,t; sigma,tau] = sum_{u,v>=1} sigma^u tau^v q^((r+t-1)u + (s+t-1)v)
    / ([u]^r [v]^s [u+v]^t), summed over the triangle u + v <= W, with a
    bound that covers truncation and rounding.

    Each of the m - 1 terms with u + v = m is at most k q^(-m), so the tail
    past W is at most k sum_{m>W} m q^(-m); W is the first cutoff, grown from
    the geometric estimate, where that meets the goal.  The triangle is one
    big-integer product of p-bit fixed-point factors (_tornheim_q_kronecker),
    p >= prec + 32, whose diagonals are weighted by an exact integer dot
    product; its rounding allowance is at most 2^-prec + 3/8 2^-p plus
    2^(1-prec) |value| at working precision prec.  Coarse goals (>= FLOAT64_GOAL_CUTOFF) take the
    float64 kernel when truncation plus its rounding bound meets the goal.
    tail_bound is truncation plus rounding; if that exceeds the goal,
    PrecisionError is raised.
    """
    _sign_ok(sigma), _sign_ok(tau)
    qp = _as_q(q)
    prec = _as_prec(prec)
    r, s, sigma, tau = _orient(r, s, sigma, tau)
    with mp.workdps(prec.working_dps):
        qm = qp.to_mpf()
        goal = prec.goal()
        k = _kbound(r, qm) * _kbound(s, qm) * _kbound(t, qm)
        x = 1 / qm
        w = _linear_cutoff(k, x, max(2, _geometric_n(2 * k / (qm - 1) ** 2, qm, goal)), goal)
        count = w * (w - 1) // 2
        _budget(count, prec, "tornheim_q")
        truncation = _linear_geometric_tail(k, x, w)
        if goal >= FLOAT64_GOAL_CUTOFF:
            value, rounding = _tornheim_q_float64(r, s, t, sigma, tau, qp.to_float(), w)
            if truncation + rounding <= goal:
                return SumInfo(mpf(value), truncation + rounding, count)
        value, rounding = _tornheim_q_kronecker(r, s, t, sigma, tau, qp, w)
        return SumInfo(value, _bound("tornheim_q", value, truncation, rounding, goal), count)


def _ceil_bits(x: mpf) -> int:
    """Bit length of ceil(x) for x > 0."""
    return int(mp.ceil(x)).bit_length()


def _step_bits(x: mpf) -> int:
    """_ceil_bits(x) rounded up to whole STREAM_GUARD steps."""
    return -(-_ceil_bits(x) // STREAM_GUARD) * STREAM_GUARD


def _tornheim_q_kronecker(r, s, t, sigma: int, tau: int, qp: QParam, w: int):
    """The triangle u + v <= w of tornheim_q_info by one big-integer product.

    Returns (value, rounding) at the caller's working precision prec, where
    rounding + 2^(1-prec) |value| bounds |value - sum over the triangle|.

    With a_u = sigma^u q^(ru)/[u]^r, b_v = tau^v q^(sv)/[v]^s and
    c_m = q^((t-1)m)/[m]^t the triangle is sum_{m=2}^{w} c_m D_m, where
    D_m = sum_{u+v=m} a_u b_v, |a_u| <= K(r), |b_v| <= K(s) and
    0 < c_m <= K(t) q^(-m) (_kbound).  With E = 2^-p:

    * a and b are read as p-bit fixed-point integers A, B from the q-term
      table (_stream_terms), so |A E - a| <= 3E/4 and |B E - b| <= 3E/4.
    * c is read from the q-term table too (as e = t - 1 <= x = t), as
      pc-bit fixed-point integers C with |C 2^-pc - c| <= 3/4 2^-pc, where
      pc = p + bitlen(ceil(w^2 (K(r) + 1)(K(s) + 1))) rounded up to whole
      STREAM_GUARD steps.
    * A and B are packed into one Python int each, one slot per index, and
      multiplied once.  A slot holds 2p + bitlen(w ceil(K(r) K(s))) + 2
      bits, more than twice any |sum_{u+v=m} A_u B_v|, so adding 2^(width-1)
      to every slot unpacks the signed diagonals without borrows.  Each
      D'_m = E^2 sum A_u B_v is exact and |D'_m - D_m| <=
      (m-1) E (3/4 (K(r) + K(s)) + E).
    * The integer dot product of the diagonals with C is exact at 2p + pc
      bits and is rounded once to prec.  As |D'_m| <= (m-1)(K(r) + 1)(K(s) + 1),
      the error of c adds at most 3/4 (m-1)(K(r) + 1)(K(s) + 1) 2^-pc per
      diagonal, 3/8 w(w-1)(K(r) + 1)(K(s) + 1) 2^-pc <= 3/8 E in all.

    Hence |value - T_w| <= E (K(r) + K(s) + 1) sum_{m>=2} (m-1) c_m
    + 3/8 w(w-1)(K(r) + 1)(K(s) + 1) 2^-pc + 2^(1-prec) |value|, and the sum
    is at most K(t) sum_{m>=2} m q^(-m) = _linear_geometric_tail(K(t), 1/q, 1).
    Any p >= prec + bitlen(ceil((K(r) + K(s) + 1) * that)) puts the first
    term below 2^-prec; p is that rounded up to whole STREAM_GUARD steps
    past prec, so calls with other (r, s, t) share table entries.
    """
    prec = mp.prec
    qm = qp.to_mpf()
    kr, ks = _kbound(r, qm), _kbound(s, qm)
    c_mass = _linear_geometric_tail(_kbound(t, qm), 1 / qm, 1)
    p = prec + _step_bits((kr + ks + 1) * c_mass)
    pc = p + _step_bits(w * w * (kr + 1) * (ks + 1))
    a = _stream_terms(qp, p, r, r, sigma, w - 1)
    b = _stream_terms(qp, p, s, s, tau, w - 1)
    c = _stream_terms(qp, pc, t - 1, t, 1, w)[1:]
    width = 2 * p + (w * int(mp.ceil(kr * ks))).bit_length() + 2
    diags = _kronecker_diagonals(a, b, width)
    value = _fixed_mpf(sum(map(mul, diags, c)), 2 * p + pc)
    rounding = (mp.ldexp((kr + ks + 1) * c_mass, -p)
                + mp.ldexp(3 * w * (w - 1) * (kr + 1) * (ks + 1) / 8, -pc))
    return value, rounding


def _kronecker_diagonals(a: list[int], b: list[int], width: int) -> list[int]:
    """Diagonal sums sum_{i+j=k} a_i b_j for k < len(a) = len(b) by one
    big-integer product (Kronecker substitution).  Every |sum| must stay
    below 2^(width-1), counting the diagonals past len(a) too."""
    nbytes = -(-width // 8)
    half = 1 << (8 * nbytes - 1)
    n = len(a)
    bias = int.from_bytes(half.to_bytes(nbytes, "little") * n, "little")

    def pack(xs):  # slot k holds x_k + half, which lies in [0, 2 half) as |x_k| < half
        raw = b"".join((x + half).to_bytes(nbytes, "little") for x in xs)
        return int.from_bytes(raw, "little") - bias

    low = (pack(a) * pack(b) + bias) & ((1 << (8 * nbytes * n)) - 1)
    raw = low.to_bytes(nbytes * n, "little")
    return [int.from_bytes(raw[k * nbytes:(k + 1) * nbytes], "little") - half for k in range(n)]


def _signed_diagonals(a: np.ndarray, b: np.ndarray, sigma: int, tau: int):
    """Diagonal sums sum_{u+v=w} sigma^u tau^v a_u b_v by one fft convolution,
    for w = 2 .. 2n with a[0], b[0] at u = v = 1.  Negates a and b in place.

    Returns (w, sums) as float64 arrays.
    """
    if sigma == -1:
        a[::2] = -a[::2]  # odd u get the minus sign
    if tau == -1:
        b[::2] = -b[::2]
    n = len(a)
    m = 2 * n
    conv = np.fft.irfft(np.fft.rfft(a, m) * np.fft.rfft(b, m), m)[: 2 * n - 1]
    return np.arange(2, 2 * n + 1, dtype=np.float64), conv


def _tornheim_q_float64(r, s, t, sigma: int, tau: int, qf: float, w: int):
    """The triangle u + v <= w of tornheim_q_info, vectorized in float64.

    Returns (value, rounding), where rounding is an a-priori bound on the
    float64 error.  Each diagonal of the fft convolution is off by at most
    16 eps (log2(n) + 1) |a|_2 |b|_2 for an fft of length n (the form of
    Percival's bound, its constant rounded up), and the exp/log inputs
    carry a relative error of at most eps (|r| + |s| + 2|t| + 1)
    (4 w (1 + ln q) + 2 |ln(q - 1)| + 8), which also covers float(q) and
    the final sum; every diagonal sum of |a_u b_v| is at most |a|_2 |b|_2.
    Both terms are weighted by sum_m c_m and doubled for the second-order
    terms.
    """
    lnq = math.log(qf)
    rf, sf, tf = float(_xm(r)), float(_xm(s)), float(_xm(t))
    # Rescaled split: a_u = q^(ru)/[u]^r and b_v = q^(sv)/[v]^s stay O(1),
    # while the shifted factor q^((t-1)(u+v)) joins the diagonal weight,
    # keeping the fft inputs balanced (raw arrays can grow like q^((t-1)u),
    # which would sink small convolution bins in rounding noise).
    u = np.arange(1, w, dtype=np.float64)
    log_qint_u = np.log(np.expm1(u * lnq)) - math.log(qf - 1)
    a = np.exp(rf * (u * lnq - log_qint_u))
    b = np.exp(sf * (u * lnq - log_qint_u))
    norms = float(np.linalg.norm(a) * np.linalg.norm(b))
    wvals, conv = _signed_diagonals(a, b, sigma, tau)
    log_qint_w = np.log(np.expm1(wvals * lnq)) - math.log(qf - 1)
    cw = np.exp((tf - 1) * wvals * lnq - tf * log_qint_w)
    keep = wvals <= w
    eps = float(np.finfo(np.float64).eps)
    fft = 16 * eps * (math.log2(2 * len(a)) + 1)
    inputs = eps * (abs(rf) + abs(sf) + 2 * abs(tf) + 1) * (
        4 * w * (1 + lnq) + 2 * abs(math.log(qf - 1)) + 8)
    rounding = 2 * (fft + inputs) * norms * float(np.sum(cw[keep]))
    return float(np.sum(conv[keep] * cw[keep])), rounding


def tornheim_q(
    r, s, t, sigma: int = 1, tau: int = 1, q=None, prec: PrecisionConfig | None = None,
) -> mpf:
    return tornheim_q_info(r, s, t, sigma, tau, q, prec).value


# ----------------------------------------------------------------------
# classical side: Borwein's alternating series and the split at 1/2
# ----------------------------------------------------------------------

def _rdiv(a: int, b: int) -> int:
    """a / b rounded to the nearest integer (b > 0), off by at most 1/2."""
    return (2 * a + b) // (2 * b)


def classical_zeta(s, sign: int = 1, prec: PrecisionConfig | None = None) -> mpf:
    """zeta(s; sign) = sum_{n>=1} sign^n / n^s  (note: the sign=-1 case is the
    negated eta function).

    sign=+1 needs s > 1; sign=-1 needs s >= 1, with zeta(1; -1) = -log 2.
    Raises PrecisionError when the a-priori cutoff exceeds max_terms or the
    proven bound misses the goal (see _zeta_memo).
    """
    _sign_ok(sign)
    prec = _as_prec(prec)
    if sign == 1 and not s > 1:
        raise DivergenceError(f"classical_zeta: zeta(s) needs s > 1, got {s}")
    if sign == -1 and not s >= 1:
        raise DomainError(f"classical_zeta: zeta(s; -1) needs s >= 1, got {s}")
    return _zeta_memo(s, sign, prec)


@lru_cache(maxsize=MEMO_SIZE)
def _zeta_memo(s, sign: int, prec: PrecisionConfig) -> mpf:
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
        n = max(1, int(mp.ceil(mp.log(4 / (goal * abs(divisor))) / mp.log(3 + mp.sqrt(8)))))
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
        value = _fixed_mpf(total // d[n], bits) / divisor
        truncation = 1 / (d[n] * abs(divisor))
        rounding = (mp.ldexp(mpf(3 * n + 4) / 4, -bits)
                    + mp.ldexp(abs(value), 3 - mp.prec)) / abs(divisor)
        _bound("classical_zeta", value, truncation, rounding, goal)
        return value


def _as_signed(x) -> SignedIndex:
    if isinstance(x, SignedIndex):
        return x
    if isinstance(x, tuple):
        return SignedIndex(x[0], x[1])
    return SignedIndex(x, 1)


def classical_double_euler(first, second, prec: PrecisionConfig | None = None) -> mpf:
    """zeta(s1, s2; g1, g2) = sum_{m>n>=1} g1^m g2^n / (m^s1 n^s2).

    Arguments are SignedIndex (or plain ints, meaning sign +1).  Convergence
    preconditions: s1 >= 2 when g1 = +1, s1 >= 1 when g1 = -1, s2 >= 1.
    Summed by the split of its iterated integral at 1/2 (_double_memo); raises
    PrecisionError when the cutoff exceeds max_terms or the bound the goal.
    """
    s1 = _as_signed(first)
    s2 = _as_signed(second)
    prec = _as_prec(prec)
    if not isinstance(s1.value, int) or not isinstance(s2.value, int):
        raise DomainError("classical_double_euler: indices must be integers")
    check_convergent("classical_double_euler:", s1.value, s1.sign, s2.value, ("s1", "s2"))
    return _double_memo(s1.value, s1.sign, s2.value, s2.sign, prec)


def _half_values(letters, n: int, bits: int) -> list[int]:
    """I(0 -> 1/2; word) for the words built by applying letters one at a
    time to the constant 1, the empty word first, each as an int V with
    value V 2^-(bits+n).

    A word's power series sum_k f_k x^k (f_0 = 0 unless the word is empty)
    is kept to k <= n as bits-bit fixed-point ints.  Letter c != 0 is
    dt/(c - t): h_k = (f_k + h_(k-1))/c, then f'_(k+1) = h_k/(k+1); letter 0
    is dt/t: f'_k = f_k/k.  With every |c| >= 1, each |f_k| <= 1, so the
    series at 1/2 is within 2^-n of its part k <= n.  Each letter adds at
    most 3/2 units to the error of every coefficient (c = +-1 divides
    exactly, c = 2 rounds h_k), so a word of j letters evaluates within
    2^-n + 3j/2 2^-bits.
    """
    f = [1 << bits] + [0] * n
    values = [f[0] << n]
    for c in letters:
        if c == 0:
            f = [0] + [_rdiv(fk, k) for k, fk in enumerate(f[1:], 1)]
        else:
            h, g = 0, [0]
            for k, fk in enumerate(f[:-1]):
                h = (fk + h) * c if c in (1, -1) else _rdiv(fk + h, c)
                g.append(_rdiv(h, k + 1))
            f = g
        values.append(sum(fk << (n - k) for k, fk in enumerate(f)))
    return values


@lru_cache(maxsize=MEMO_SIZE)
def _double_memo(a1: int, g1: int, a2: int, g2: int, prec: PrecisionConfig) -> mpf:
    """zeta(a1, a2; g1, g2) = I(0 -> 1; w), w = w_1..w_L = 0^(a1-1) g1 0^(a2-1)
    g1g2 in the letters of _half_values, split at 1/2 (Borwein, Bradley,
    Broadhurst and Lisonek 2001): zeta = sum_{j<=L} A_j B_j with
    B_j = I(0 -> 1/2; w_(j+1)..w_L) and A_j = I(1/2 -> 1; w_1..w_j).  Reversing
    the path and putting t = 1 - u gives A_j = (-1)^(j + #{i <= j: w_i in
    {0, 1}}) I(0 -> 1/2; w_j'..w_1'), where 0' = 1 and c' = 1 - c.  Every
    letter c != 0 has |c| >= 1, so |A_j|, |B_j| <= 1, each is within
    delta = 2^-N + 3L/2 2^-B of its computed value, and the exact sum of the
    products is within 3 (L+1) delta: truncation 3 (L+1) 2^-N and rounding
    9/2 L (L+1) 2^-B at B = prec + STREAM_GUARD bits, then rounded once.
    """
    word = [0] * (a1 - 1) + [g1] + [0] * (a2 - 1) + [g1 * g2]
    size = len(word)
    with mp.workdps(prec.working_dps):
        goal = prec.goal()
        n = _ceil_bits(6 * (size + 1) / goal)
        _budget(n, prec, "classical_double_euler")
        bits = mp.prec + STREAM_GUARD
        tails = _half_values(reversed(word), n, bits)
        heads = _half_values([1 if c == 0 else 1 - c for c in word], n, bits)
        signs = accumulate((1 if c in (0, 1) else -1 for c in word), mul, initial=1)
        total = sum(g * a * b for g, a, b in zip(signs, heads, reversed(tails)))
        value = _fixed_mpf(total, 2 * (bits + n))
        truncation = mp.ldexp(mpf(3 * (size + 1)), -n)
        rounding = mp.ldexp(mpf(9 * size * (size + 1)) / 2, -bits)
        _bound("classical_double_euler", value, truncation, rounding, goal)
        return value


# ----------------------------------------------------------------------
# classical Tornheim values
# ----------------------------------------------------------------------

def tornheim_classical(r: int, s: int, t: int, variant: str = "T",
                       prec: PrecisionConfig | None = None) -> mpf:
    """Numeric value of the classical series T/S/R(r,s,t) via its depth-2
    reduction (the production route; the raw double sum converges too slowly)."""
    prec = _as_prec(prec)
    terms = corollary1_reduce(r, s, t, variant)
    with mp.workdps(prec.working_dps):
        total = mpf(0)
        for coeff, outer, inner in terms:
            total += _xm(coeff) * classical_double_euler(outer, inner, prec)
        return total


def tornheim_classical_naive(r: int, s: int, t: int, variant: str = "T",
                             window: int = 200_000) -> float:
    """Direct triangular-window double sum in float64 (fft convolution).

    Low-precision sanity oracle only: truncation error decays slowly
    (roughly log(W)/W at weight 3), so expect ~1e-4 at the default window.
    """
    if variant not in VARIANT_SIGNS:
        raise DomainError(f"unknown variant {variant!r}")
    u = np.arange(1, window, dtype=np.float64)
    w, conv = _signed_diagonals(u ** (-float(r)), u ** (-float(s)), *VARIANT_SIGNS[variant])
    keep = w <= window
    return float(np.sum(conv[keep] * w[keep] ** (-float(t))))


# ----------------------------------------------------------------------
# reduction evaluation
# ----------------------------------------------------------------------

def evaluate_reduction(reduction, q, prec: PrecisionConfig | None = None) -> mpf:
    """Numeric value of a Reduction's right-hand side at a given q."""
    qp = _as_q(q)
    prec = _as_prec(prec)
    with mp.workdps(prec.working_dps):
        total = mpf(0)
        for coeff, kind in reduction.terms:
            if not isinstance(kind, (DoubleQZeta, PhiTerm, QSquaredZeta)):
                raise DomainError(f"evaluate_reduction: unknown term kind {kind!r}")
            total += _xm(coeff) * _qterm_memo(kind, qp, prec)
        return total


@lru_cache(maxsize=MEMO_SIZE)
def _qterm_memo(kind, qp: QParam, prec: PrecisionConfig) -> mpf:
    """One reduction term, its (1-q) and (1+q) factors included."""
    with mp.workdps(prec.working_dps):
        qm = qp.to_mpf()
        if isinstance(kind, DoubleQZeta):
            val = q_zeta2(kind.outer.value, kind.outer.sign,
                          kind.inner.value, kind.inner.sign, qp, prec)
        elif isinstance(kind, PhiTerm):
            val = phi_q(kind.index.value, kind.index.sign, qp, prec)
        else:
            val = q_zeta1(kind.index, 1, qp.squared(), prec)
        val *= (1 - qm) ** kind.one_minus_q_pow
        if isinstance(kind, QSquaredZeta):
            val *= _pow(1 + qm, kind.one_plus_q_pow)
        return val


def memo_stats() -> dict:
    """Hits, misses and size of each value memo (_zeta_memo, _double_memo,
    _qterm_memo), and for the q-term tables (_tables) their number, the terms
    stored, the budget, and their hits and misses."""
    stats = {}
    for memo in (_zeta_memo, _double_memo, _qterm_memo):
        info = memo.cache_info()
        stats[memo.__name__.strip("_")] = {
            "hits": info.hits, "misses": info.misses, "size": info.currsize}
    stats["tables"] = _tables.stats()
    return stats


def clear_memos() -> None:
    """Empty every memo and table and reset their counts."""
    for memo in (_zeta_memo, _double_memo, _qterm_memo):
        memo.cache_clear()
    _tables.clear()
