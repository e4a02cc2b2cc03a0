"""Tests for the numeric engines: q-series, classical zeta, double eulers."""
from __future__ import annotations

import hashlib
import math
import random
import sys
import time
from fractions import Fraction
from itertools import accumulate, product
from operator import floordiv, lshift, mul, neg, rshift

import mpmath
import numpy as np  # the _brute_double oracle only
import pytest
from mpmath import mp, mpf

from tornheim import numeric
from tornheim.closedform import double_euler_closed, tornheim_closed
from tornheim.errors import DivergenceError, DomainError, PrecisionError
from tornheim.exact import MEMO_SIZE, SignedIndex, bernoulli
from tornheim.numeric import (
    PrecisionConfig,
    QParam,
    classical_double_euler,
    classical_zeta,
    evaluate_reduction,
    phi_q,
    phi_q_info,
    q_int,
    q_zeta1,
    q_zeta1_info,
    q_zeta2,
    q_zeta2_info,
    tornheim_classical,
    tornheim_q,
    tornheim_q_info,
)
from tornheim.reduction import (
    VARIANT_SIGNS,
    DoubleQZeta,
    PhiTerm,
    QSquaredZeta,
    corollary1_reduce,
    lemma1_expand,
    theorem1_reduce,
)

F = Fraction
P30 = PrecisionConfig(digits=30)
SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


# ---------------------------------------------------------------- config

def test_precision_config_validation():
    with pytest.raises(DomainError):
        PrecisionConfig(digits=9)
    with pytest.raises(DomainError):
        PrecisionConfig(max_terms=99)
    with pytest.raises(DomainError):
        PrecisionConfig(tail_goal=-1.0)
    assert PrecisionConfig().working_dps == 45


def test_precision_config_rejects_an_infinite_tail_goal():
    # an infinite goal would plan no terms: the kernels would shift by a
    # negative count, and classical_double_euler would return 0.0
    for goal in (float("inf"), mpf("inf")):
        with pytest.raises(DomainError, match="tail_goal must be finite"):
            PrecisionConfig(tail_goal=goal)
    with pytest.raises(DomainError, match="tail_goal must be positive"):
        PrecisionConfig(tail_goal=float("nan"))
    assert PrecisionConfig(tail_goal=1e300).goal() == mpf(1e300)


def test_precision_config_rejects_a_field_of_the_wrong_type():
    # compared alone, the first three would escape as TypeError, and 30.5
    # digits would run at 45.5 working digits
    cases = [({"digits": "30"}, "digits must be an integer, got '30'"),
             ({"max_terms": None}, "max_terms must be an integer, got None"),
             ({"tail_goal": "1e-5"}, "tail_goal must be a number, got '1e-5'"),
             ({"digits": 30.5}, "digits must be an integer, got 30.5")]
    for fields, message in cases:
        with pytest.raises(DomainError) as info:
            PrecisionConfig(**fields)
        assert str(info.value) == f"PrecisionConfig: {message}"


def test_precision_config_refuses_digits_mpmath_cannot_hold():
    # mp.workdps would overflow converting 10**400 + 15 digits to bits
    with pytest.raises(DomainError, match="PrecisionConfig: digits 1000+ is past what mpmath holds"):
        PrecisionConfig(digits=10 ** 400)


def test_an_exponent_past_the_float_range_exceeds_max_terms():
    # the cutoff planners' float log2 of q^(10**400) overflows; the cutoff
    # is then estimated in mpf and refused by the budget, as for 10**20
    big = 10 ** 400
    for call, args, name in [(q_zeta1, (big, 1, 2), "q_zeta1"),
                             (q_zeta2, (3, 1, big, 1, 2), "q_zeta2"),
                             (phi_q, (big, 1, 2), "phi_q"),
                             (tornheim_q, (big, 1, 2, 1, 1, 2), "tornheim_q"),
                             (tornheim_q, (1, 1, big, 1, 1, 2), "tornheim_q")]:
        with pytest.raises(PrecisionError, match=f"^{name}: tail goal needs [0-9]{{398,}} terms, "
                                                 "exceeding max_terms=2000000$"):
            call(*args)


@pytest.mark.parametrize("q", [F(10 ** 17 + 1, 10 ** 17), F(10 ** 15 + 1, 10 ** 15),
                               1.0000000000000002, F(10 ** 12 + 1, 10 ** 12)])
def test_a_q_just_above_one_exceeds_max_terms_at_once(q):
    # log2 q as exp + bc + log2(man 2^-bc) cancels to 0, or to a few bits, as
    # q -> 1: the planners divided by zero, or stepped one term at a time
    # from a far estimate.  _log2 reads it from q - 1, so each kernel plans
    # the least cutoff at once and the budget refuses it.
    with mp.workdps(40):
        qm = mpf(F(q).numerator) / F(q).denominator
        assert abs(numeric._log2(qm) / mp.log(qm, 2) - 1) < 1e-15
        assert abs(numeric._log2(1 / qm) / mp.log(1 / qm, 2) - 1) < 1e-15
        goal = mpf(10) ** -35
        n = numeric._geometric_n(mpf(7), qm, goal)
        assert 7 * qm ** -n <= goal < 7 * qm ** -(n - 1)
    for call, args, name in [(q_zeta1, (2, 1, q), "q_zeta1"),
                             (q_zeta2, (2, 1, 1, 1, q), "q_zeta2"),
                             (phi_q, (2, -1, q), "phi_q"),
                             (tornheim_q, (1, 1, 2, 1, 1, q), "tornheim_q"),
                             (tornheim_q, (2, 1, F(1, 2), -1, -1, q), "tornheim_q")]:
        start = time.perf_counter()
        with pytest.raises(PrecisionError, match=f"^{name}: tail goal needs [0-9]+ terms, "
                                                 "exceeding max_terms=2000000$"):
            call(*args, P30)
        assert time.perf_counter() - start < 2, (name, q)


def test_a_cutoff_past_2_to_the_50_is_the_least_one():
    # the float estimate cannot count single terms there; 10**30 stepped
    # one term at a time from it would not end
    with mp.workdps(45):
        c, goal = mp.ldexp(1, 10 ** 30), mpf(10) ** -35
        n = numeric._geometric_n(c, mpf(2), goal)
        assert c * mpf(2) ** -n <= goal < c * mpf(2) ** -(n - 1)
        assert n == 10 ** 30 + 117


def test_equal_precision_configs_hash_equal_and_share_memo_entries():
    first, second = PrecisionConfig(digits=12), PrecisionConfig(12, 2_000_000, None)
    assert first is not second and first == second and hash(first) == hash(second)
    assert hash(first) == hash((12, 2_000_000, None))
    assert PrecisionConfig(digits=12, tail_goal=1e-9) != first
    numeric.clear_memos()
    info = q_zeta1_info(3, 1, 2, first)
    assert q_zeta1_info(3, 1, 2, second) == info
    assert q_zeta1_info(3, -1, 2, second).terms == info.terms
    # one series and one parse of q = 2: the first call misses both, and the
    # other two hit both
    series, q_parses = 1, 1
    assert numeric.memo_stats()["memo"] == {
        "hits": 2 * (series + q_parses), "misses": series + q_parses, "size": series + q_parses}


def test_qparam_validation():
    with pytest.raises(DomainError):
        QParam(1)
    with pytest.raises(DomainError):
        QParam(F(1, 2))
    assert QParam(F(3, 2)).squared().value == F(9, 4)
    # malformed q at the API is a DomainError naming q, before any kernel runs
    for q in ("x", "1/0", "", float("inf"), float("nan"), "1", None):
        with pytest.raises(DomainError, match="q"):
            q_zeta1_info(3, 1, q)
    # one QParam per input and its type: 2 and 2.0 keep their own str()
    assert numeric._as_q("3/2") is numeric._as_q("3/2") == QParam(F(3, 2))
    assert numeric._as_q(F(3, 2)).squared() is numeric._as_q(F(3, 2)).squared()
    assert (str(numeric._as_q(2)), str(numeric._as_q(2.0)), str(numeric._as_q("2"))) == (
        "2", "2.0", "2")
    assert hash(QParam(F(3, 2))) == hash(F(3, 2))


# ---------------------------------------------------------------- q_int

def test_q_int_values():
    assert q_int(1, 3) == 1
    assert q_int(3, 2) == 7
    assert q_int(4, 2) == 15
    assert q_int(0, 2) == 0


def test_q_int_even_index_factorization():
    # [2m]_q = (q+1) [m]_{q^2}
    with mp.workdps(50):
        for q in (F(3, 2), F(2), F(3)):
            for m in range(1, 51):
                lhs = q_int(2 * m, q)
                rhs = (QParam(q).to_mpf() + 1) * q_int(m, q * q)
                assert abs(lhs - rhs) < mpf(10) ** -38 * lhs


# ---------------------------------------------------------------- q_zeta1

def test_q_zeta1_geometric_cases():
    # s = 0 collapses to a geometric series: sum sign^n q^(-n)
    with mp.workdps(50):
        assert abs(q_zeta1(0, 1, 2, P30) - 1) < mpf(10) ** -33
        assert abs(q_zeta1(0, -1, 2, P30) - (-mpf(1) / 3)) < mpf(10) ** -33


def test_q_zeta1_against_direct_oracle():
    with mp.workdps(50):
        for s, sign, q in [(2, 1, F(2)), (1, 1, F(2)), (3, -1, F(3, 2)), (F(5, 2), -1, F(3))]:
            qm = mpf(F(q).numerator) / F(q).denominator
            sm = mpf(F(s).numerator) / F(s).denominator
            oracle = mpf(0)
            for n in range(1, 400):
                qint = (qm ** n - 1) / (qm - 1)
                oracle += mpf(sign) ** n * qm ** ((sm - 1) * n) / qint ** sm
            got = q_zeta1(s, sign, q, P30)
            assert abs(got - oracle) < mpf(10) ** -30


def test_q_side_exponents_are_exact_rationals_of_bounded_denominator():
    # a float exponent counts as its binary value: 2.5 is 5/2, 2.3 is not 23/10
    assert q_zeta1(2.5, 1, 2, P30) == q_zeta1(F(5, 2), 1, 2, P30)
    assert tornheim_q(1.5, 1, 0.5, 1, 1, 2, P30) == tornheim_q(F(3, 2), 1, F(1, 2), 1, 1, 2, P30)
    q_zeta1(F(17, 8), 1, 2, P30)  # the largest denominator taken
    for call in (lambda: q_zeta1(2.3, 1, 2, P30), lambda: q_zeta1(F(19, 9), 1, 2, P30),
                 lambda: phi_q(F(2001, 1000), 1, 2, P30), lambda: q_zeta2(2, 1, 0.1, 1, 2, P30),
                 lambda: tornheim_q(1, 2, 0.1, 1, 1, 2, P30)):
        with pytest.raises(DomainError, match="denominator"):
            call()


def test_q_zeta1_tail_bound_is_honest():
    info = q_zeta1_info(2, 1, 2, P30)
    more = q_zeta1(2, 1, 2, PrecisionConfig(digits=40))
    assert abs(info.value - more) <= info.tail_bound


def test_q_zeta1_budget_enforced():
    with pytest.raises(PrecisionError):
        q_zeta1(2, 1, F(101, 100), PrecisionConfig(digits=30, max_terms=100))


# ---------------------------------------------------------------- q_zeta2

def test_q_zeta2_against_exchange_order_oracle():
    with mp.workdps(50):
        cases = [(2, 1, 1, -1), (1, -1, 1, -1), (3, 1, 2, 1), (F(5, 2), 1, 1, -1)]
        qm = mpf(2)
        for s1, g1, s2, g2 in cases:
            s1m, s2m = mpf(F(s1).numerator) / F(s1).denominator, mpf(F(s2).numerator) / F(s2).denominator
            oracle = mpf(0)
            for m in range(2, 220):
                qim = (qm ** m - 1) / (qm - 1)
                outer = mpf(g1) ** m * qm ** ((s1m - 1) * m) / qim ** s1m
                inner = mpf(0)
                for n in range(1, m):
                    qin = (qm ** n - 1) / (qm - 1)
                    inner += mpf(g2) ** n * qm ** ((s2m - 1) * n) / qin ** s2m
                oracle += outer * inner
            got = q_zeta2(s1, g1, s2, g2, 2, P30)
            assert abs(got - oracle) < mpf(10) ** -30


def test_q_zeta2_empty_truncation_is_zero():
    # a huge tail goal is met by the empty partial sum
    loose = PrecisionConfig(digits=10, tail_goal=1e6)
    assert q_zeta2(2, 1, 1, 1, 2, loose) == 0


# ---------------------------------------------------------------- phi_q

def test_phi_q_first_term_vanishes():
    with mp.workdps(50):
        # direct oracle starting at n = 2
        qm = mpf(2)
        for s, sign in [(2, 1), (3, -1)]:
            oracle = mpf(0)
            for n in range(2, 400):
                qint = (qm ** n - 1) / (qm - 1)
                oracle += (n - 1) * mpf(sign) ** n * qm ** ((s - 1) * n) / qint ** s
            assert abs(phi_q(s, sign, 2, P30) - oracle) < mpf(10) ** -30


def test_phi_q_tail_bound_is_honest():
    info = phi_q_info(2, 1, 2, P30)
    more = phi_q(2, 1, 2, PrecisionConfig(digits=40))
    assert abs(info.value - more) <= info.tail_bound


# ---------------------------------------------------------------- q-kernel bounds

def test_q_kernels_tail_bound_is_honest():
    # at 120 digits rounding outweighs truncation, so the bound must cover both
    cases = [(q_zeta1_info, (3, 1), 2), (q_zeta1_info, (F(5, 2), -1), F(3, 2)),
             (q_zeta2_info, (2, 1, 1, -1), 2), (q_zeta2_info, (F(7, 3), -1, 3, 1), 3),
             (phi_q_info, (3, -1), 2), (phi_q_info, (2, 1), F(6, 5))]
    precs = [PrecisionConfig(digits=d) for d in (12, 30, 60, 120)]
    for kernel, args, q in cases:
        for prec in precs:
            info = kernel(*args, q=q, prec=prec)
            ref = kernel(*args, q=q, prec=PrecisionConfig(digits=prec.digits + 30)).value
            with mp.workdps(prec.digits + 45):
                assert abs(info.value - ref) <= info.tail_bound <= prec.goal(), (kernel, args, q, prec)
    # a goal below the working precision cannot be met: raise, not under-report
    fine = PrecisionConfig(digits=10, tail_goal=1e-40)
    for kernel, args in [(q_zeta1_info, (3, 1)), (q_zeta2_info, (2, 1, 1, 1)), (phi_q_info, (2, 1))]:
        with pytest.raises(PrecisionError, match="rounding"):
            kernel(*args, q=2, prec=fine)


def test_q_term_table_meets_its_contract_when_extended():
    bits = 97  # no kernel asks for this width, so every stream starts empty
    # (-1, 0) holds the powers q^-k of tornheim_q's Lambert sum, and the pairs
    # with x - e = 1 have the shape of q_zeta1's terms; x = 7/3 and 2/5 take
    # the integer Newton root
    pairs = [(F(3, 2), F(5, 2)), (2, 2), (-2, -1),
             (-1, 0), (F(-1, 2), F(1, 2)), (1, 2), (F(4, 3), F(7, 3)), (F(-3, 5), F(2, 5))]
    # 1 - q^-k cancels most at q = 1001/1000; the float 1.1 is a ratio of 52-bit ints
    for q in (F(101, 100), F(3, 2), F(3), F(1001, 1000), 1.1):
        qp = QParam(q)
        for e, x in pairs:
            short = numeric._stream_terms(qp, bits, e, x, 40)
            terms = numeric._stream_terms(qp, bits, e, x, 200)
            assert len(numeric._tables.lists[qp, bits, e, x]) == 200
            assert short == terms[:40]
            with mp.workprec(bits + 200):
                qm, em, xm = (mpf(v.numerator) / v.denominator for v in (F(q), F(e), F(x)))
                for k, f in enumerate(terms, 1):
                    exact = qm ** (em * k) / ((qm ** k - 1) / (qm - 1)) ** xm
                    assert abs(f - mp.ldexp(exact, bits)) <= 0.75, (q, e, x, k)
    with pytest.raises(ValueError, match="x - e"):
        numeric._stream_terms(QParam(2), bits, 0, 2, 10)


def test_q_term_table_meets_its_contract_at_large_exponents():
    # |m| = 2000 squarings and products in fixed point, not a 2000-fold int
    bits = 97
    for q in (F(11, 10), F(3, 2)):
        qp = QParam(q)
        for e, x in [(999, 1000), (F(-2003, 2), F(-2001, 2))]:
            terms = numeric._stream_terms(qp, bits, e, x, 30)
            with mp.workprec(bits + 5000):  # entries reach 2^3600 at q = 11/10
                qm, em, xm = (mpf(v.numerator) / v.denominator for v in (F(q), F(e), F(x)))
                for k, f in enumerate(terms, 1):
                    exact = qm ** (em * k) / ((qm ** k - 1) / (qm - 1)) ** xm
                    assert abs(f - mp.ldexp(exact, bits)) <= 0.75, (q, e, x, k)


def test_fixed_point_power_meets_its_count():
    g = 64
    ws = [1, 3 << 60, (1 << 64) - 1, 1 << 64, (1 << 64) + 12345, 5 << 63]
    for m in (0, 1, 2, 3, 7, 8, 100, 1001):
        for w, v in zip(ws, numeric._fixed_pows(ws, m, g), strict=True):
            with mp.workprec(g * m + 200):
                exact = mp.ldexp(mpf(w) ** m, g - g * m)
                assert abs(v - exact) <= 3 * m * max(1, mp.ldexp(exact, -g)), (w, m)


def test_integer_root_is_the_floor_root():
    for d in (1, 2, 3, 5, 7):
        for n in [1, 2, 7, 8, 9, 2 ** 64 - 1, 3 ** 200, 3 ** 200 - 1, 10 ** 150 + 12345]:
            r = numeric._iroot(n, d)
            assert r ** d <= n < (r + 1) ** d, (n, d)
            # Newton from any start at or above the root lands on it too
            assert numeric._iroot(n, d, r) == numeric._iroot(n, d, 2 * r + 7) == r


def test_fixed_rational_power_is_within_two_units():
    # (q-1)^t, the factor of tornheim_q's Lambert sum; the float 1.1 is a
    # ratio of 52-bit ints
    for v in (F(1, 10), F(1, 2), F(2), F(1, 1000), F(1.1) - 1):
        for y in (F(-7, 3), F(-1), F(-1, 2), F(0), F(1, 2), F(2), F(9, 2), F(17, 8)):
            for bits in (24, 64, 185):
                got = numeric._fixed_rational_power(v, y, bits)
                with mp.workprec(bits + 200):
                    exact = mp.ldexp(mp.power(mpf(v.numerator) / v.denominator,
                                              mpf(y.numerator) / y.denominator), bits)
                    assert abs(got - exact) <= 2, (v, y, bits)


def test_q_term_table_grown_in_pieces_equals_one_fill(monkeypatch):
    monkeypatch.setattr(numeric, "_tables", numeric._TableMemo(numeric.TABLE_BUDGET))
    qp, bits = QParam(F(1001, 1000)), 97
    # each piece resumes the recurrence from the last P_k kept with the
    # table; at x = 0 the entry is q^-k itself, where a restart from
    # 2^G b^k // a^k instead would move some entries by one unit.  The pairs
    # take the square root (d = 2) with m = 5, 1 and 3, the Newton root
    # (d = 5) with m = 2, m = 0, and negative x.
    pairs = [(F(3, 2), F(5, 2)), (F(-3, 2), F(-1, 2)), (F(-5, 2), F(-3, 2)),
             (F(-3, 5), F(2, 5)), (-3, -2), (-1, 0)]
    for e, x in pairs:
        for n in (1, 2, 1000, 1001, 5200, 6000):
            pieces = numeric._stream_terms(qp, bits, e, x, n)
        numeric._tables.clear()
        assert pieces == numeric._stream_terms(qp, bits, e, x, 6000), (e, x)


def test_tables_evict_least_recently_used_within_budget(monkeypatch):
    monkeypatch.setattr(numeric, "_tables", numeric._TableMemo(300))
    qp, bits = QParam(F(7, 5)), 97
    keys = [(qp, bits, e, e + 1) for e in (1, 2, 3)]
    first = numeric._stream_terms(qp, bits, 1, 2, 120)
    numeric._stream_terms(qp, bits, 2, 3, 120)
    numeric._stream_terms(qp, bits, 1, 2, 10)  # the first is now the most recently used
    numeric._stream_terms(qp, bits, 3, 4, 120)
    assert list(numeric._tables.lists) == [keys[0], keys[2]]
    stats = numeric.memo_stats()["tables"]
    assert stats.pop("bytes") > 0
    assert stats == {"tables": 2, "terms": 240, "budget": 300, "hits": 1, "misses": 3}
    # longer than the whole budget: returned in full, not kept, the others stay
    long = numeric._stream_terms(qp, bits, 1, 2, 400)
    assert list(numeric._tables.lists) == [keys[2]]
    assert numeric.memo_stats()["tables"]["terms"] == 120
    monkeypatch.setattr(numeric, "_tables", numeric._TableMemo(numeric.TABLE_BUDGET))
    assert long == numeric._stream_terms(qp, bits, 1, 2, 400)
    assert long[:120] == first


def test_tables_stay_within_budget_near_q_one(monkeypatch):
    monkeypatch.setattr(numeric, "_tables", numeric._TableMemo(numeric.TABLE_BUDGET))
    q = F(1001, 1000)
    first = q_zeta1_info(F(5, 2), 1, q, P30)
    second = q_zeta1_info(F(5, 2), 1, q, PrecisionConfig(digits=12))
    tables = numeric.memo_stats()["tables"]
    assert tables["terms"] <= tables["budget"] < first.terms + second.terms


def _stream_oracle(q, x, n, dps):
    """q^((x-1)k) / [k]^x for k = 1..n, each [k] taken from q^k directly."""
    with mp.workdps(dps):
        qm, xm = mpf(q.numerator) / q.denominator, mpf(x.numerator) / x.denominator
        return [qm ** ((xm - 1) * k) / ((qm ** k - 1) / (qm - 1)) ** xm for k in range(1, n + 1)]


@pytest.mark.parametrize("q, prec, extra", [
    (F(101, 100), PrecisionConfig(digits=12, tail_goal=1e-9), ()),
    (F(6, 5), P30, ()),
    (F(3), P30, (F(9), F(17, 2))),
])
def test_q_kernels_against_prefix_sum_oracle(q, prec, extra):
    exponents = [F(5, 2), F(7, 3), F(0), F(-1), *extra]
    dps = prec.digits + 30
    with mp.workdps(dps):
        qm, eps = mpf(q.numerator) / q.denominator, prec.goal() * mpf(10) ** -6
        # past n the terms of every series below sum to at most eps, so each
        # oracle is within eps of its series
        k = max(numeric._kbound(x, qm) for x in exponents) ** 2 / (qm - 1) ** 3
        n = 16
        while k * n * n * qm ** -n > eps:
            n += n // 16
    streams = {x: _stream_oracle(q, x, n, dps) for x in exponents}
    signed = lambda x, g: [f if g == 1 or k % 2 else -f for k, f in enumerate(streams[x])]
    checks = []
    for i, x in enumerate(exponents):
        g = (1, -1)[i % 2]
        with mp.workdps(dps):
            checks.append((q_zeta1_info(x, g, q, prec), mp.fsum(signed(x, g))))
            checks.append((phi_q_info(x, -g, q, prec),
                           mp.fsum(k * f for k, f in enumerate(signed(x, -g)))))
        for j, y in enumerate(exponents):
            g1, g2 = (1, -1)[i % 2], (1, -1)[(i + j) % 2]
            with mp.workdps(dps):
                prefixes = accumulate(signed(y, g2))
                oracle = mp.fsum(f * p for f, p in zip(signed(x, g1)[1:], prefixes))
            checks.append((q_zeta2_info(x, g1, y, g2, q, prec), oracle))
    with mp.workdps(dps):
        for info, oracle in checks:
            assert abs(info.value - oracle) <= info.tail_bound + eps, (info, oracle)


# ---------------------------------------------------------------- tornheim_q

def test_tornheim_q_against_brute_oracle():
    with mp.workdps(50):
        qm = mpf(2)
        r, s, t = 2, 1, 2
        oracle = mpf(0)
        for u in range(1, 130):
            for v in range(1, 130):
                qu = (qm ** u - 1) / (qm - 1)
                qv = (qm ** v - 1) / (qm - 1)
                quv = (qm ** (u + v) - 1) / (qm - 1)
                oracle += qm ** ((r + t - 1) * u + (s + t - 1) * v) / (qu ** r * qv ** s * quv ** t)
        assert abs(tornheim_q(r, s, t, 1, 1, 2, P30) - oracle) < mpf(10) ** -30


def _brute_tornheim_q(r, s, t, sigma, tau, qm, n):
    """The defining double sum over u, v < n, one term at a time."""
    tm = mpf(t.numerator) / t.denominator if isinstance(t, F) else mpf(t)
    qint = [None] + [(qm ** k - 1) / (qm - 1) for k in range(1, 2 * n)]
    a = [None] + [mpf(sigma) ** u * qm ** ((r + tm - 1) * u) / qint[u] ** r for u in range(1, n)]
    b = [None] + [mpf(tau) ** v * qm ** ((s + tm - 1) * v) / qint[v] ** s for v in range(1, n)]
    c = [None, None] + [1 / qint[m] ** tm for m in range(2, 2 * n)]
    return sum((a[u] * b[v] * c[u + v] for u in range(1, n) for v in range(1, n)), mpf(0))


def test_tornheim_q_signed_against_brute_oracle():
    # q = 3 covers every sign pair, whose signs alternate the factors of each
    # dot product A_j and B_j, at t = -1, whose Lambert weights end after
    # j = 1, and at t = 7/3, whose weights grow
    cases = [(1, 2, 1, -1, 1, F(3, 2), 220)]
    cases += [(2, 1, t, sigma, tau, 3, 100)
              for t in (-1, F(7, 3)) for sigma in (1, -1) for tau in (1, -1)]
    for r, s, t, sigma, tau, q, n in cases:
        with mp.workdps(50):
            oracle = _brute_tornheim_q(r, s, t, sigma, tau, mpf(F(q).numerator) / F(q).denominator, n)
            got = tornheim_q(r, s, t, sigma, tau, q, P30)
            assert abs(got - oracle) < mpf(10) ** -28, (r, s, t, sigma, tau, q)


def test_tornheim_q_symmetry_is_bit_exact():
    a = tornheim_q(2, 1, 1, -1, 1, 2, P30)
    b = tornheim_q(1, 2, 1, 1, -1, 2, P30)
    assert a == b
    # both orders share one memo entry, so each side is computed from
    # empty memos here: the Lambert sum, at a coarse and a fine goal, must
    # give the swapped call the identical value, bound and term count
    coarse = PrecisionConfig(digits=10, tail_goal=1e-7, max_terms=10 ** 9)
    pairs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    for q, prec in ((F(3, 2), coarse), (F(11, 10), coarse), (F(3, 2), P30)):
        for r in range(1, 4):
            for s in range(1, 4):
                for t in (0, F(1, 2), 2):
                    for sigma, tau in pairs:
                        numeric.clear_memos()
                        a = tornheim_q_info(r, s, t, sigma, tau, q, prec)
                        numeric.clear_memos()
                        b = tornheim_q_info(s, r, t, tau, sigma, q, prec)
                        assert a == b, (r, s, t, sigma, tau, q, prec)


def _theorem1_value(r, s, t, sigma, tau, q, prec):
    """T[r,s,t; sigma,tau] from its Theorem 1 reduction: an oracle that never
    calls tornheim_q.  (-1, +1) is R with the two slots swapped."""
    if (sigma, tau) == (-1, 1):
        r, s, sigma, tau = s, r, tau, sigma
    variant = next(v for v, signs in VARIANT_SIGNS.items() if signs == (sigma, tau))
    return evaluate_reduction(theorem1_reduce(r, s, t, variant), q, prec)


def test_tornheim_q_tail_bound_is_honest():
    # the bound must cover truncation and rounding at every precision
    cases = [((2, 1, F(1, 2), -1, 1), 2), ((3, 2, 2, 1, 1), 2),
             ((1, 2, -1, -1, -1), F(3, 2)), ((2, 3, F(7, 3), 1, -1), 3)]
    precs = [PrecisionConfig(digits=d) for d in (12, 30, 60, 120)]
    checks = [(args, q, prec) for args, q in cases for prec in precs]
    # a coarse goal on a large value (about 5.7e6)
    checks.append(((4, 4, 4, 1, 1), 5, PrecisionConfig(digits=10, tail_goal=1e-10)))
    # the coarse goal of the q -> 1 study: near q = 1 the Lambert sum runs to
    # its largest js (about 1,890 at q = 101/100)
    coarse = PrecisionConfig(digits=10, tail_goal=1e-7, max_terms=10 ** 9)
    checks += [((r, s, t, sigma, tau), q, coarse) for q in (F(6, 5), F(11, 10), F(101, 100))
               for r, s, t in ((2, 1, 2), (1, 2, F(1, 2)), (2, 2, 1))
               for sigma in (1, -1) for tau in (1, -1)]
    # near q = 1 the Lambert sum reads the most powers q^-k (912 here), and its
    # rounding allowance grows with their number
    checks.append(((2, 1, F(1, 2), 1, -1), F(11, 10), PrecisionConfig(digits=30)))
    # at t = 100 the weights grow so fast that every j < n - 1 is kept, and
    # the cut of the A_j alone bounds what is dropped
    checks.append(((2, 1, 100, 1, 1), F(11, 10), PrecisionConfig(digits=30)))
    for args, q, prec in checks:
        info = tornheim_q_info(*args, q=q, prec=prec)
        oracle = _theorem1_value(*args, q, PrecisionConfig(digits=prec.digits + 30))
        with mp.workdps(prec.digits + 45):
            assert abs(info.value - oracle) <= info.tail_bound <= prec.goal(), (args, q, prec)
    # a goal below the working precision cannot be met: raise, not under-report
    with pytest.raises(PrecisionError, match="rounding"):
        tornheim_q_info(2, 1, 1, q=2, prec=PrecisionConfig(digits=10, tail_goal=1e-40))


def test_tornheim_q_bound_covers_every_weight_sign_and_precision():
    # t < 0 gives negative weights beta_j, t = 0 and -1 end the Lambert sum
    # after one and two terms, and t = 9/2 has the fastest-growing weights.
    # max_terms counts the triangle u + v <= W, which q = 11/10 exceeds at 120
    # digits and up, so it is lifted here.
    ts = (-1, F(-1, 2), 0, F(1, 2), 1, 2, F(7, 3), F(9, 2))
    pairs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    qs = (F(11, 10), F(3, 2), 2, 3, 5)
    digits = (12, 30, 60, 120, 250)
    rng = random.Random(13)
    cases = rng.sample([(t, g, q, d) for t in ts for g in pairs for q in qs for d in digits], 40)
    for i, values in enumerate((ts, pairs, qs, digits)):
        assert {case[i] for case in cases} == set(values)
    for t, (sigma, tau), q, d in cases:
        r, s = rng.randint(1, 3), rng.randint(1, 3)
        prec = PrecisionConfig(digits=d, max_terms=10 ** 9)
        info = tornheim_q_info(r, s, t, sigma, tau, q, prec)
        # at q = 5 and t = 9/2 a q_zeta1 term of the reduction reaches 1e11,
        # where an absolute goal of 10^-(digits+5) is below its working precision
        fine = PrecisionConfig(digits=d + 40, tail_goal=float(f"1e-{d + 20}"))
        oracle = _theorem1_value(r, s, t, sigma, tau, q, fine)
        with mp.workdps(d + 55):
            error = abs(info.value - oracle)
            assert error <= info.tail_bound <= prec.goal(), (r, s, t, sigma, tau, q, d)


def _exact_lambert_sum(r, s, t, sigma, tau, q, n):
    """sum_{j < n-1} beta_j A_j B_j in Fractions, each A_j and B_j cut after
    ceil(n/(j+1)) - 1 terms, as tornheim_q_info plans them."""
    q = F(q)
    qint = [None] + [(q ** k - 1) / (q - 1) for k in range(1, n)]
    a = [sigma ** u * q ** (r * u) / qint[u] ** r for u in range(1, n)]
    b = [tau ** v * q ** (s * v) / qint[v] ** s for v in range(1, n)]
    total, beta = F(0), F(1)
    for j in range(n - 1):
        powers = [q ** (-(j + 1) * u) for u in range(1, -(-n // (j + 1)))]
        total += beta * sum(map(mul, a, powers)) * sum(map(mul, b, powers))
        beta *= (F(t) + j) / (j + 1)
    return total


def test_lambert_sum_meets_its_rounding_count():
    # integer r and s keep every entry an exact rational; narrow tables make
    # the rounding large enough to see.  Each of the four sign-pair totals of
    # the sum alone is held to the count of _lambert_rounding, and of the
    # kernel's C S', with c = (q-1)^t as C, to (c + 2E) R + 2E M
    # (tornheim_q_info).
    rng = random.Random(7)
    worst = [0, 0]
    for _ in range(24):
        r, s = rng.randint(0, 3), rng.randint(0, 3)
        t = rng.choice((-1, F(-1, 2), 0, F(1, 2), 1, 2, F(7, 3), F(9, 2)))
        q = rng.choice((F(11, 10), F(3, 2), 2, 3))
        n, bits = rng.randint(8, 60), rng.choice((24, 40, 64))
        qp = QParam(q)
        sums = numeric._lambert_sum(r, s, t, qp, n, n - 1, bits)
        kernels = numeric._tornheim_q_lambert(r, s, t, qp, n, n - 1, bits)
        with mp.workdps(60):
            qm, tm = (mpf(F(v).numerator) / F(v).denominator for v in (q, t))
            kr, ks, lam = numeric._kbound(r, qm), numeric._kbound(s, qm), 1 - 1 / qm
            gamma_t = lam ** (-abs(tm) - 1) / qm
            rounding = numeric._lambert_rounding(
                (kr + 1) * (ks + 1), n - 1 + 1 / (qm - 1), lam ** -2 / qm + gamma_t, n, t, bits)
            c, e = (qm - 1) ** tm, mp.ldexp(1, -bits)
            value = lambda f: mpf(f.numerator) / f.denominator
            for sigma, tau in SIGN_PAIRS:
                exact = _exact_lambert_sum(r, s, t, sigma, tau, q, n)
                got = F(numeric._at(sums, sigma, tau), 2 ** (5 * bits))
                kernel = F(numeric._at(kernels, sigma, tau), 2 ** (6 * bits))
                shares = (abs(value(got - exact)) / rounding,
                          abs(value(kernel) - c * value(exact))
                          / ((c + 2 * e) * rounding + 2 * e * kr * ks * gamma_t / (qm - 1)))
                assert max(shares) <= 1, (r, s, t, sigma, tau, q, n, bits, shares)
                worst = [max(w, share) for w, share in zip(worst, shares)]
    assert min(worst) > 0.001  # the cases do round


def _signed(terms, sign):
    """sign^k F_k for the entries F_1, F_2, ...: the per-sign copy of a
    q-term table that the sums once read."""
    return [-f if sign == -1 and k % 2 else f for k, f in enumerate(terms, 1)]


@pytest.mark.parametrize("q", [F(3, 2), 2, F(11, 10), 1.1])
def test_sign_free_totals_equal_the_signed_reference_sums(q):
    # each kernel sums its unsigned entries once, split by parity, for every
    # sign; the reference sums the signed entries once per sign, as the
    # kernels did before.  The float 1.1 is a ratio of 52-bit ints.
    qp, bits, n = QParam(q), 64, 37
    exponents = (F(5, 2), 2, 0, -1, F(1, 2))
    table = {x: numeric._stream_terms(qp, bits, x - 1, x, n) for x in exponents}
    for x in exponents:
        zeta1, phi = numeric._q_zeta1_sums(x, qp, n, bits), numeric._phi_q_sums(x, qp, n, bits)
        for sign in (1, -1):
            signed = _signed(table[x], sign)
            assert numeric._at(zeta1, sign) == sum(signed), (x, sign)
            assert numeric._at(phi, sign) == sum(map(mul, range(n), signed)), (x, sign)
        for y in exponents:
            zeta2 = numeric._q_zeta2_sums(x, y, qp, n, bits)
            for g1, g2 in SIGN_PAIRS:
                prefixes = accumulate(_signed(table[y], g2))
                reference = sum(map(mul, _signed(table[x], g1)[1:], prefixes))
                assert numeric._at(zeta2, g1, g2) == reference, (x, y, g1, g2)
    # the Lambert sum over n - 1 powers, len(x) odd and even, with js on
    # both sides of len(x) // 2, where the cut U_j = 1 starts, and n = 2
    for n in (2, 36, 37):
        powers = numeric._stream_terms(qp, bits, -1, 0, n - 1)
        edge = (n - 1) // 2
        cuts = sorted({min(js, n - 1) for js in (edge - 1, edge, edge + 1, n - 1, 5)} - {-1})
        for r, s in ((1, 1), (2, 1), (1, 3), (F(1, 2), F(1, 2)), (0, F(5, 2))):
            for t in (0, 1, 2, F(1, 2), -1):
                for js in cuts:
                    totals = numeric._tornheim_q_lambert(r, s, t, qp, n, js, bits)
                    c = numeric._fixed_rational_power(F(qp.value) - 1, F(t), bits)
                    for sigma, tau in SIGN_PAIRS:
                        a = _signed(numeric._stream_terms(qp, bits, r, r, n - 1), sigma)
                        b = _signed(numeric._stream_terms(qp, bits, s, s, n - 1), tau)
                        reference = 0
                        for j, beta in zip(range(js), numeric._lambert_weights(t, bits)):
                            xs = powers[j::j + 1]
                            reference += beta * sum(map(mul, a, xs)) * sum(map(mul, b, xs))
                        assert numeric._at(totals, sigma, tau) == c * reference, (
                            n, r, s, t, js, sigma, tau)


def test_each_q_sum_runs_once_per_sign_free_key(monkeypatch):
    # T, S and R of the criterion-4 grid at one q: 144 tornheim_q sums on 40
    # keys (r <= s, t), and in the reduction terms 208 q_zeta2 sums on 52
    # keys (s1, s2), 32 phi_q sums on 16 keys (s) and 16 q_zeta1 sums.  Each
    # sign-free key is summed once, for all its sign pairs, and every series
    # keeps one entry, plan and totals together.  The memo also keeps the
    # 192 reductions (T/S/R, r, s, t), their 16 expansions (r, s) and the
    # parses of q and q^2.
    calls = dict.fromkeys(("_lambert_sum", "_q_zeta2_sums", "_phi_q_sums"), 0)
    for name in calls:
        def counted(*args, _name=name, _kernel=getattr(numeric, name)):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(numeric, name, counted)
    numeric.clear_memos()
    for v in "TSR":
        for r in range(1, 5):
            for s in range(1, 5):
                for t in (0, 1, 2, F(1, 2)):
                    tornheim_q_info(r, s, t, *VARIANT_SIGNS[v], F(3, 2), P30)
                    evaluate_reduction(theorem1_reduce(r, s, t, v), F(3, 2), P30)
    assert calls == {"_lambert_sum": 40, "_q_zeta2_sums": 52, "_phi_q_sums": 16}
    tornheim, series = 40, 52 + 16 + 16
    reductions, expansions, q_parses = 3 * 4 * 4 * 4, 4 * 4, 2
    assert numeric.memo_stats()["memo"]["misses"] == (
        tornheim + series + reductions + expansions + q_parses)
    numeric.clear_memos()  # the entries above are keyed on the counting wrappers


def _settled(series):
    """Each sign's SumInfo of series, in _at order, as (value, tail_bound,
    terms) with the mpfs as their exact tuples, or its PrecisionError
    message."""
    answers = []
    for signs in product((1, -1), repeat=len(series.totals).bit_length() - 1):
        try:
            info = series.info(*signs)
        except PrecisionError as exc:
            answers.append(str(exc))
        else:
            answers.append((info.value._mpf_, info.tail_bound._mpf_, info.terms))
    return answers


Q_GRID_SERIES_SHA256 = "04e3b9def523dc02fe442b0324126e18d81211c246a50b67c1ee4afceabaf542"
Q_GRID = [(q, v, r, s, t, prec)
          for qs, indices, prec in (
              (("3/2", "2", "3"), range(1, 5), P30),
              (("6/5", "11/10", "101/100"), range(1, 3),
               PrecisionConfig(digits=10, tail_goal=1e-7, max_terms=10 ** 9)))
          for q in qs for v in "TSR" for r in indices for s in indices
          for t in (0, 1, 2, F(1, 2))]


def _q_grid_digest(monkeypatch, cases) -> str:
    """SHA-256 over every _Series (totals, scale and each sign's settled
    answer) that the cases (q, variant, r, s, t, prec), run from
    clear_memos() in that order, read, both sides of every case, in key
    order.  The q parses that numeric looks up in the same memo are not
    recorded."""
    records = {}
    memo = numeric.memo
    def recording(kernel, *args):
        series = memo(kernel, *args)
        if isinstance(series, numeric._Series):
            records[(kernel.__name__, *args)] = series
        return series
    numeric.clear_memos()
    monkeypatch.setattr(numeric, "memo", recording)
    for q, v, r, s, t, prec in cases:
        tornheim_q_info(r, s, t, *VARIANT_SIGNS[v], q, prec)
        evaluate_reduction(theorem1_reduce(r, s, t, v), q, prec)
    monkeypatch.setattr(numeric, "memo", memo)
    digest = hashlib.sha256()
    for key in sorted(records, key=repr):
        series = records[key]
        digest.update(repr((key, series.totals, series.scale, _settled(series))).encode())
    assert len(records) == 372 + 126
    return digest.hexdigest()


def test_q_series_totals_on_the_bench_grids_are_pinned(monkeypatch):
    """The criterion-4 grid at 30 digits and the q -> 1 grid (q = 6/5,
    11/10, 101/100 at digits 10, goal 1e-7), hashed by _q_grid_digest: a
    faster table fill or Lambert sum must leave every bit as it is."""
    assert _q_grid_digest(monkeypatch, Q_GRID) == Q_GRID_SERIES_SHA256


def test_lambert_column_tables_give_the_pinned_grid_in_any_order(monkeypatch):
    """Both bench q grids from clear_memos() with t ascending, t descending
    and in a seeded shuffle of the cases, and under a table budget small
    enough to drop column tables and q-term tables mid-grid: each run
    hashes to Q_GRID_SERIES_SHA256, whatever cut and columns each column
    table held when a series read it."""
    monkeypatch.setattr(numeric, "_tables", numeric._TableMemo(numeric.TABLE_BUDGET))
    shuffled = list(Q_GRID)
    random.Random(34).shuffle(shuffled)
    orders = [sorted(Q_GRID, key=lambda case: case[4]),
              sorted(Q_GRID, key=lambda case: -case[4]), shuffled]
    for order in orders:
        assert _q_grid_digest(monkeypatch, order) == Q_GRID_SERIES_SHA256
    full = numeric.memo_stats()["tables"]
    small = numeric._TableMemo(4000)  # one q = 101/100 column table, not two
    monkeypatch.setattr(numeric, "_tables", small)
    missed, take = [], small.take

    def counted_take(key):
        if key not in small.lists:
            missed.append(key)
        return take(key)

    monkeypatch.setattr(small, "take", counted_take)
    assert _q_grid_digest(monkeypatch, shuffled) == Q_GRID_SERIES_SHA256
    columns = [key for key in missed if key[-1] == "E+-O"]
    entries = [key for key in missed if key[-1] != "E+-O"]
    # some column table and some q-term table were dropped and built again
    assert len(columns) > len(set(columns)) and len(entries) > len(set(entries))
    assert small.stored <= 4000 and small.misses > full["misses"]


def _columns_reference(a: list, x: list, cut: int, head: int) -> list:
    """E_j + O_j and E_j - O_j, interleaved, for j < head, straight from
    their definition: the a_u x_(j+1)u over even and over odd u with
    (j+1) u <= cut, for a_u = a[u-1] and x_k = x[k-1]."""
    columns = []
    for j in range(head):
        parts = [sum(a[u - 1] * x[(j + 1) * u - 1] for u in range(start, cut // (j + 1) + 1, 2))
                 for start in (2, 1)]
        columns += [parts[0] + parts[1], parts[0] - parts[1]]
    return columns


def test_lambert_columns_read_across_cuts(monkeypatch):
    """One (q, bits, r) column table read at cut n - 1, then below and
    above it (n - 3 and n + 5), and with a head longer than the stored one
    below and above the stored cut.  Each read keeps the one stored table
    (the divisor pairs of the k between the cuts are added or taken off,
    and the columns past it are built), and its columns equal their
    definition over fresh q-term lists.  The Lambert totals at each cut
    equal those a series gets from empty tables."""
    qp, bits, n, t = QParam(F(11, 10)), 64, 240, F(1, 2)
    reads = [(n, 40), (n - 3, 40), (n + 5, 40), (n - 3, 90), (n + 5, 110), (n, 119)]
    top = max(m for m, _ in reads)
    monkeypatch.setattr(numeric, "_tables", numeric._TableMemo(numeric.TABLE_BUDGET))
    fresh = {r: numeric._stream_terms(qp, bits, r, r, top) for r in (2, F(1, 2))}
    powers = numeric._stream_terms(qp, bits, -1, 0, top)
    totals = {}
    for m, _ in reads:
        numeric.clear_memos()
        totals[m] = numeric._lambert_sum(2, F(1, 2), t, qp, m, m - 1, bits)
    for r, s in ((2, F(1, 2)), (F(1, 2), F(1, 2))):
        numeric.clear_memos()
        stored = None
        for m, head in reads:
            table = numeric._lambert_columns(qp, bits, r, m - 1, head)
            assert stored is None or table is stored, (r, m, head)  # not built anew
            stored = table
            assert table.state == m - 1
            assert table[:2 * head] == _columns_reference(fresh[r], powers, m - 1, head), (r, m)
            if s != r:
                assert numeric._lambert_sum(r, s, t, qp, m, m - 1, bits) == totals[m], m
                # the sum read columns up to (m - 1) // 2: the table holds them now
                assert len(table) >= 2 * ((m - 1) // 2)


def test_each_sign_is_settled_once_when_its_series_is_built(monkeypatch):
    """The first public call builds the _Series and rounds each of its
    signs once; a second call returns the identical SumInfo and rounds
    nothing."""
    rounded, rounding = [], numeric._rounded
    monkeypatch.setattr(numeric, "_rounded", lambda *args: rounded.append(args) or rounding(*args))
    numeric.clear_memos()
    calls = [(lambda: q_zeta1_info(3, -1, 2, P30), 2),
             (lambda: q_zeta2_info(3, 1, 2, -1, 2, P30), 4),
             (lambda: phi_q_info(2, -1, 2, P30), 2),
             (lambda: tornheim_q_info(1, 2, 1, 1, -1, 2, P30), 4),
             (lambda: numeric.memo(numeric._double_sum, 3, -1, 2, 1, P30).info(), 1)]
    for call, signs in calls:
        del rounded[:]
        first = call()
        assert len(rounded) == signs
        assert call() is first
        assert len(rounded) == signs
    numeric.clear_memos()


def test_lambert_weights_are_the_binomial_series_within_their_count():
    bits, y = 40, F(1, 3)
    for t in (-1, F(-1, 2), 0, F(1, 2), 1, 2, F(7, 3), F(9, 2), F(-7, 3)):
        beta, gamma, total, slack = F(1), F(1), F(0), F(0)
        for j, weight in zip(range(120), numeric._lambert_weights(t, bits)):
            assert abs(weight - beta * 2 ** bits) <= j * max(1, gamma), (t, j)
            total += weight * y ** j
            slack += j * max(1, gamma) * y ** j
            beta *= (t + j) / F(j + 1)
            gamma *= (abs(F(t)) + j) / F(j + 1)
        with mp.workdps(50):
            # sum_j beta_j y^j = (1 - y)^-t; the terms past j = 120 are below 1e-45
            tm = mpf(F(t).numerator) / F(t).denominator
            got = mp.ldexp(mpf(total.numerator) / total.denominator, -bits)
            allowance = mp.ldexp(mpf(slack.numerator) / slack.denominator, -bits)
            assert abs(got - (1 - mpf(1) / 3) ** -tm) <= allowance + 1e-45, t


@pytest.mark.parametrize("digits", [30, 120])
def test_tornheim_q_with_empty_outer_exponents(digits):
    # at r = s = 0 every a_u and b_v is 1, so the value rests on the Lambert
    # weights beta_j and the powers q^-k of the q-term table alone
    prec = PrecisionConfig(digits=digits)
    info = tornheim_q_info(0, 0, 0, q=3, prec=prec)
    with mp.workdps(digits + 45):
        assert abs(info.value - mpf(1) / 4) <= info.tail_bound  # 1/(q-1)^2
    for t in (1, F(1, 2)):
        info = tornheim_q_info(0, 0, t, q=3, prec=prec)
        with mp.workdps(digits + 60):
            # the triangle u + v < 3 (digits + 60): its m - 1 terms on the
            # diagonal u + v = m are equal, and the rest is below 10^-(digits+60)
            tm = mpf(t.numerator) / t.denominator if isinstance(t, F) else mpf(t)
            oracle = mp.fsum((m - 1) * mpf(3) ** ((tm - 1) * m) / ((mpf(3) ** m - 1) / 2) ** tm
                             for m in range(2, 3 * (digits + 60)))
            assert abs(info.value - oracle) <= info.tail_bound, (t, digits)


def test_tornheim_q_coarse_goal_matches_fine():
    coarse = PrecisionConfig(digits=10, tail_goal=1e-8)
    fine = PrecisionConfig(digits=20)
    a = tornheim_q(2, 1, 2, 1, 1, F(3, 2), coarse)
    b = tornheim_q(2, 1, 2, 1, 1, F(3, 2), fine)
    assert abs(a - b) < 1e-7


# ---------------------------------------------------------------- classical zeta

def test_classical_zeta_against_oracles():
    p40 = PrecisionConfig(digits=40)
    with mp.workdps(60):
        assert abs(classical_zeta(2, 1, p40) - mp.pi ** 2 / 6) < mpf(10) ** -40
        for s in (3, 5, 11, 2.5):
            assert abs(classical_zeta(s, 1, p40) - mpmath.zeta(s)) < mpf(10) ** -40
        # alternating: zeta(s;-1) = (2^(1-s)-1) zeta(s)
        for s in (1.5, 2, 7):
            oracle = (2 ** (1 - mpf(s)) - 1) * mpmath.zeta(s)
            assert abs(classical_zeta(s, -1, p40) - oracle) < mpf(10) ** -40
        assert abs(classical_zeta(1, -1, p40) + mp.log(2)) < mpf(10) ** -40


def test_classical_zeta_domain_errors():
    with pytest.raises(DivergenceError):
        classical_zeta(1, 1)
    with pytest.raises(DivergenceError):
        classical_zeta(0.5, 1)
    with pytest.raises(DomainError):
        classical_zeta(0.5, -1)


def test_memos_are_bounded_count_hits_and_skip_rejected_input():
    memo = numeric.memo
    assert memo.cache_info().maxsize == MEMO_SIZE
    prec = PrecisionConfig(digits=12)
    red = theorem1_reduce(1, 2, 1, "S")
    evaluate_reduction(red, "7/3", prec)
    hits = memo.cache_info().hits
    evaluate_reduction(red, "7/3", prec)
    # one series per term and the parse of "7/3" (its square is kept on it)
    assert memo.cache_info().hits == hits + len(red.terms) + 1
    classical_double_euler(3, 1, prec)
    hits = memo.cache_info().hits
    classical_double_euler(3, 1, prec)
    assert memo.cache_info().hits == hits + 1
    # the q-term table: one table per (q, bits, e, x), signs applied by the sums
    assert numeric.memo_stats()["tables"]["budget"] == numeric.TABLE_BUDGET
    before = numeric.memo_stats()["tables"]
    q_zeta1_info(F(5, 2), 1, "13/7", prec)  # a miss
    q_zeta1_info(F(5, 2), -1, "13/7", prec)  # its memo entry holds both signs: no read
    # tornheim_q at r = s reads one column table for A_j and B_j, a miss,
    # built from the table of a_u and that of the powers q^-k, two more
    # misses; its tail then reads the powers and a_1 from them, two hits
    tornheim_q_info(3, 3, 1, 1, -1, "13/7", prec)
    after = numeric.memo_stats()["tables"]
    assert (after["hits"] - before["hits"], after["misses"] - before["misses"]) == (2, 4)
    before = numeric.memo_stats()
    with pytest.raises(DivergenceError):
        classical_zeta(1, 1, prec)
    with pytest.raises(DivergenceError):
        classical_double_euler(1, 1, prec)
    with pytest.raises(DomainError):
        q_zeta1_info(2, 0, 2, prec)
    assert numeric.memo_stats() == before
    # a q that _qparam refuses inside memo counts a miss and stores nothing
    with pytest.raises(DomainError):
        q_zeta2_info(2, 1, 1, 1, 1, prec)
    after = numeric.memo_stats()
    assert after["memo"] == {**before["memo"], "misses": before["memo"]["misses"] + 1}
    assert after["tables"] == before["tables"]
    # a call the budget rejects inside memo counts a miss and stores nothing;
    # q_int puts the two parses of q, 101/100 and "101/100", in memo first
    q_int(2, F(101, 100))
    q_int(2, "101/100")
    size = numeric.memo_stats()["memo"]["size"]
    misses = numeric.memo_stats()["memo"]["misses"]
    with pytest.raises(PrecisionError):
        classical_zeta(3, 1, PrecisionConfig(digits=250, max_terms=100))
    with pytest.raises(PrecisionError):
        phi_q_info(2, 1, F(101, 100), PrecisionConfig(digits=30, max_terms=100))
    with pytest.raises(PrecisionError):
        tornheim_q_info(2, 1, 1, 1, 1, "101/100", PrecisionConfig(digits=30, max_terms=100))
    assert numeric.memo_stats()["memo"]["size"] == size
    # one miss each: the _zeta_sum entry and the phi_q and tornheim_q series,
    # whose plans raise before anything is summed
    assert numeric.memo_stats()["memo"]["misses"] == misses + 3


def test_clear_memos_empties_every_memo():
    # every memoized public function, in an order in which each one's own
    # lookups are the only ones it has not met before: bernoulli(2) reads
    # B_0 and B_1, theorem1_reduce and corollary1_reduce read lemma1_expand,
    # double_euler_closed(2, 1) reads B_2, q_int parses the string q and the
    # q-kernel then reads that parse
    prec = PrecisionConfig(digits=12)
    calls = [(bernoulli, (0,)), (bernoulli, (1,)), (bernoulli, (2,)),
             (lemma1_expand, (2, 1)), (theorem1_reduce, (2, 1, 1, "R")),
             (corollary1_reduce, (2, 1, 1, "R")), (double_euler_closed, (2, 1)),
             (q_int, (2, "3/2", prec)), (q_zeta1_info, (3, 1, "3/2", prec)),
             (classical_zeta, (3, 1, prec)), (classical_double_euler, (3, 1, prec))]
    warm = [fn(*args) for fn, args in calls]
    assert numeric.memo_stats()["memo"]["size"] > 0
    numeric.clear_memos()
    stats = numeric.memo_stats()
    assert stats["memo"] == {"hits": 0, "misses": 0, "size": 0}
    assert (stats["tables"]["tables"], stats["tables"]["terms"]) == (0, 0)
    for (fn, args), value in zip(calls, warm):
        misses = numeric.memo_stats()["memo"]["misses"]
        assert fn(*args) == value, (fn.__name__, args)
        assert numeric.memo_stats()["memo"]["misses"] == misses + 1, (fn.__name__, args)
    assert numeric.memo_stats()["memo"]["size"] == len(calls)  # one entry per miss


def test_q_memo_hands_every_call_its_own_entry():
    # the calls differ in one argument at a time: the signs (T, S, R), an
    # exponent, q (and so q^2) and the precision; a memo key that
    # dropped any of them would hand one call the entry of another
    cases = [(q, prec, v, t) for q in (F(3, 2), 2)
             for prec in (PrecisionConfig(digits=12), P30) for v in "TSR" for t in (1, 2)]
    calls = [(tornheim_q_info, (2, 1, t, *VARIANT_SIGNS[v], q, prec)) for q, prec, v, t in cases]
    calls += [(evaluate_reduction, (theorem1_reduce(2, 1, t, v), q, prec))
              for q, prec, v, t in cases]
    numeric.clear_memos()
    warm = [fn(*args) for fn, args in calls]
    misses = numeric.memo_stats()["memo"]["misses"]
    assert [fn(*args) for fn, args in calls] == warm
    assert numeric.memo_stats()["memo"]["misses"] == misses  # the repeats were hits
    for (fn, args), value in zip(calls, warm):
        numeric.clear_memos()
        assert fn(*args) == value, (fn.__name__, args)
    # each kernel's plan and integer totals are keyed without the signs: T, S
    # and R of one (r, s, t, q, prec) share one entry (and r, s in either
    # order), and the public q_zeta1, q_zeta2 and phi_q calls store one entry
    # each, plan and totals together
    prec12 = PrecisionConfig(digits=12)
    numeric.clear_memos()
    misses = lambda: numeric.memo_stats()["memo"]["misses"]
    for v in "TSR":
        tornheim_q_info(2, 1, 1, *VARIANT_SIGNS[v], F(3, 2), prec12)
    tornheim_q_info(1, 2, 1, -1, 1, F(3, 2), prec12)
    # one series entry for all four calls (the swapped R is R's), and the
    # parse of q = 3/2
    assert misses() == 1 + 1
    for g1 in (1, -1):
        q_zeta1_info(F(5, 2), g1, 2, prec12)
        phi_q_info(F(5, 2), g1, 2, prec12)
        for g2 in (1, -1):
            q_zeta2_info(3, g1, F(1, 2), g2, 2, prec12)
    assert misses() == 2 + 1 + 1 + 1 + 1  # the parse of q = 2, q_zeta1, phi_q and q_zeta2
    # a change in r, s, t, q or digits is a new entry; q is given as a
    # QParam, which is not parsed, so each change is one series entry
    q32, q2, q3 = QParam(F(3, 2)), QParam(2), QParam(3)
    for r, s, t, q, prec in [(3, 1, 1, q32, prec12), (2, 2, 1, q32, prec12),
                             (2, 1, 2, q32, prec12), (2, 1, 1, q2, prec12),
                             (2, 1, 1, q32, P30)]:
        before = misses()
        warm = tornheim_q_info(r, s, t, 1, -1, q, prec)
        assert misses() == before + 1, (r, s, t, q, prec)
        numeric.clear_memos()
        assert tornheim_q_info(r, s, t, 1, -1, q, prec) == warm
    for args in [(F(7, 2), 1, F(1, 2), 1, q2), (3, 1, 1, 1, q2), (3, 1, F(1, 2), 1, q3)]:
        for prec in (prec12, P30):
            before = misses()
            warm = q_zeta2_info(*args, prec)
            assert misses() == before + 1, (args, prec)
            numeric.clear_memos()
            assert q_zeta2_info(*args, prec) == warm


@pytest.mark.parametrize("digits", [12, 30, 120, 400, 1000])
def test_cutoff_planners_return_the_least_n_that_meets_the_mpf_inequality(digits):
    """_geometric_n decides in float log2, and _linear_cutoff walks its steps
    of an eighth the same way; both must agree with the mpf inequality at
    working precision, also for goals below the float range (digits >= 400)
    and at constructed near-ties of relative +-1e-12, which the float alone
    cannot decide."""
    prec = PrecisionConfig(digits=digits)
    with mp.workdps(prec.working_dps):
        goal = prec.goal()
        geometric = lambda c, qm, g, n: c * qm ** -n <= g
        linear = lambda k, x, g, n: numeric._linear_geometric_tail(k, x, n) <= g
        for q in (F(1001, 1000), F(101, 100), F(11, 10), F(3, 2), 2, 3, mpf(3) + mp.sqrt(8)):
            qm = q if isinstance(q, mpf) else mpf(F(q).numerator) / F(q).denominator
            for c in (mpf(1) / 3, mpf(7), mpf(10) ** 40):
                n = numeric._geometric_n(c, qm, goal)
                assert geometric(c, qm, goal, n), (q, c)
                assert n == 1 or not geometric(c, qm, goal, n - 1), (q, c)
                for rel in (-1e-12, 0, 1e-12):
                    tied = c * qm ** -n * (1 + mpf(rel))
                    assert numeric._geometric_n(c, qm, tied) == (n + 1 if rel < 0 else n)
                x = 1 / qm
                steps = [n]
                while not linear(c, x, goal, steps[-1]):
                    steps.append(steps[-1] + max(1, steps[-1] // 8))
                assert numeric._linear_cutoff(c, x, n, goal) == steps[-1], (q, c)
                for m in steps:
                    for rel in (-1e-12, 0, 1e-12):
                        tied = numeric._linear_geometric_tail(c, x, m) * (1 + mpf(rel))
                        cut = numeric._linear_cutoff(c, x, n, tied)
                        assert cut == (m + max(1, m // 8) if rel < 0 else m), (q, c, m, rel)


@pytest.mark.parametrize("digits", [12, 30, 60, 120, 250])
def test_classical_zeta_meets_goal_against_mpmath(digits):
    prec = PrecisionConfig(digits=digits)
    for s in (F(3, 2), F(5, 2), 3):
        with mp.workdps(digits + 40):
            sm = mpf(F(s).numerator) / F(s).denominator
            plain = mpmath.zeta(sm)
            oracles = {1: plain, -1: (2 ** (1 - sm) - 1) * plain}
        for sign, oracle in oracles.items():
            got = classical_zeta(s, sign, prec)
            with mp.workdps(digits + 40):
                assert abs(got - oracle) <= prec.goal(), (s, sign)


def test_classical_routes_raise_when_the_cutoff_exceeds_max_terms():
    prec = PrecisionConfig(digits=250, max_terms=100)
    with pytest.raises(PrecisionError, match="classical_zeta.*max_terms=100"):
        classical_zeta(3, 1, prec)
    with pytest.raises(PrecisionError, match="classical_double_euler.*max_terms=100"):
        classical_double_euler(4, 2, prec)


def test_classical_zeta_digit_doubling_stable():
    a = classical_zeta(3, 1, PrecisionConfig(digits=30))
    b = classical_zeta(3, 1, PrecisionConfig(digits=60))
    assert abs(a - b) < mpf(10) ** -34


# ---------------------------------------------------------------- double eulers

def _brute_double(s1, g1, s2, g2, n=2_000_000):
    """float64 prefix-sum oracle; alternating outer gets last-two averaging."""
    m = np.arange(1, n + 1, dtype=np.float64)
    sign1 = np.ones(n) if g1 == 1 else np.where(m % 2 == 0, 1.0, -1.0)
    sign2 = np.ones(n) if g2 == 1 else np.where(m % 2 == 0, 1.0, -1.0)
    a = sign1 * m ** (-float(s1))
    b = sign2 * m ** (-float(s2))
    pref = np.cumsum(b)
    terms = a[1:] * pref[:-1]
    total = float(np.sum(terms))
    if g1 == -1:
        return total - float(terms[-1]) / 2  # average of the last two partials
    return total


@pytest.mark.parametrize(
    "s1, g1, s2, g2, tol",
    [
        (2, 1, 1, 1, 2e-5),  # oracle truncation ~ log(N)/N dominates
        (3, 1, 2, 1, 1e-10),
        (2, -1, 1, -1, 1e-10),
        (2, 1, 1, -1, 1e-6),
        (2, -1, 1, 1, 1e-10),
        (1, -1, 1, 1, 1e-10),
        (4, 1, 1, -1, 1e-10),
        (3, -1, 3, -1, 1e-10),
    ],
)
def test_double_euler_against_brute_oracle(s1, g1, s2, g2, tol):
    got = classical_double_euler(SignedIndex(s1, g1), SignedIndex(s2, g2), P30)
    assert abs(float(got) - _brute_double(s1, g1, s2, g2)) < tol


def test_double_euler_known_constants():
    with mp.workdps(50):
        z3 = mpmath.zeta(3)
        cases = {
            (2, 1, 1, 1): z3,
            (2, -1, 1, -1): mp.pi ** 2 / 4 * mp.log(2) - mpf(13) / 8 * z3,
            (2, 1, 1, -1): z3 - mp.pi ** 2 / 4 * mp.log(2),
            (2, -1, 1, 1): z3 / 8,
            (1, -1, 1, 1): mp.log(2) ** 2 / 2,
        }
        for (s1, g1, s2, g2), expected in cases.items():
            got = classical_double_euler(SignedIndex(s1, g1), SignedIndex(s2, g2), P30)
            assert abs(got - expected) < mpf(10) ** -33


def test_double_euler_meets_goal_at_high_precision():
    """The known constants of all four sign pairs within the goal at 12, 30,
    60, 120 and 250 digits."""
    for digits in (12, 30, 60, 120, 250):
        prec = PrecisionConfig(digits=digits)
        with mp.workdps(digits + 40):
            z3, pi2, log2 = mpmath.zeta(3), mp.pi ** 2, mp.log(2)
            cases = {
                (2, 1, 1, 1): z3,
                (2, -1, 1, -1): pi2 / 4 * log2 - mpf(13) / 8 * z3,
                (2, 1, 1, -1): z3 - pi2 / 4 * log2,
                (2, -1, 1, 1): z3 / 8,
                (1, -1, 1, 1): log2 ** 2 / 2,
            }
        for (s1, g1, s2, g2), expected in cases.items():
            got = classical_double_euler(SignedIndex(s1, g1), SignedIndex(s2, g2), prec)
            with mp.workdps(digits + 40):
                err = abs(got - expected)
            assert err <= prec.goal(), (digits, s1, g1, s2, g2, err)


def _mpmath_value(expr):
    """A ZetaExpression at the current precision, its zeta(odd) by mpmath.zeta."""
    total = mpf(0)
    for mono, coeff in expr.terms():
        val = mpf(F(coeff).numerator) / F(coeff).denominator
        val *= mp.pi ** mono.pi_exponent * mp.log(2) ** mono.log2_exponent
        for k in mono.odd_zeta_factors:
            val *= mpmath.zeta(k)
        total += val
    return total


@pytest.mark.parametrize("digits", [12, 30, 60, 120, 250])
def test_classical_bounds_cover_the_truth(digits):
    """Each classical SumInfo from memo (a double's through its _Series):
    |value - oracle| <= tail_bound <= goal, with mpmath.zeta, and for the
    doubles their odd-weight closed form, as the oracle; the public calls
    return the same value."""
    prec = PrecisionConfig(digits=digits)
    for s in (3, 5, 11):
        with mp.workdps(digits + 40):
            plain = mpmath.zeta(s)
            oracles = {1: plain, -1: (2 ** (1 - mpf(s)) - 1) * plain}
        for sign, oracle in oracles.items():
            info = numeric.memo(numeric._zeta_sum, s, sign, prec)
            assert classical_zeta(s, sign, prec) == info.value
            with mp.workdps(digits + 40):
                assert abs(info.value - oracle) <= info.tail_bound <= prec.goal(), (s, sign)
    for a1, a2 in ((2, 1), (3, 2), (2, 3), (4, 3), (6, 5)):
        for g1 in (1, -1):
            for g2 in (1, -1):
                info = numeric.memo(numeric._double_sum, a1, g1, a2, g2, prec).info()
                got = classical_double_euler(SignedIndex(a1, g1), SignedIndex(a2, g2), prec)
                assert got == info.value
                with mp.workdps(digits + 40):
                    oracle = _mpmath_value(double_euler_closed(a1, a2, g1, g2))
                    assert abs(info.value - oracle) <= info.tail_bound <= prec.goal(), (
                        a1, g1, a2, g2)


def _half_series_exact(letters, n):
    """Each prefix word's power series cut at k <= n, summed at x = 1/2 in
    exact rationals from its coefficients f_k."""
    f = [F(1)] + [F(0)] * n
    values = [F(1)]
    for c in letters:
        if c == 0:
            f = [F(0)] + [fk / k for k, fk in enumerate(f[1:], 1)]
        else:
            h, g = F(0), [F(0)]
            for k, fk in enumerate(f[:-1]):
                h = (fk + h) / c
                g.append(h / (k + 1))
            f = g
        values.append(sum(fk / 2 ** k for k, fk in enumerate(f)))
    return values


@pytest.mark.parametrize("n,bits", [(6, 20), (40, 64), (40, 200), (130, 160)])
def test_half_values_meet_their_rounding_count(n, bits):
    """Every prefix of a word of j letters lies within 2j (n+1) units of
    2^-bits of its truncated series at 1/2, the count _double_sum's
    rounding allowance is built from."""
    words = [
        [2, 0, 0, -1, 0, 1, 2, 0, -1, -1, 0, 1],
        [-1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 1, 0, 0],  # the tails of zeta(3, 4)
        [1, 1, 2, 1, 2],  # the heads of zeta(3, 2; -1, +1)
        [2, 2, 2, 2, -1, -1, -1, -1],
    ]
    for word in words:
        got = numeric._half_values(word, n, bits)
        for j, (v, exact) in enumerate(zip(got, _half_series_exact(word, n))):
            err = abs(F(v, 2 ** bits) - exact) * 2 ** bits
            assert err <= 2 * j * (n + 1), (word, j, float(err))


def test_double_sum_bound_covers_its_rounding_at_few_bits(monkeypatch):
    """_double_sum at B = 53 bits (a guard of -100 at 30 digits) against the
    exact sum of its series cut at N terms: the two differ by rounding alone,
    which must lie within tail_bound less the truncation 3 (L+1) 2^-N, and
    is far above the final rounding, so this fails without the allowance."""
    monkeypatch.setattr(numeric, "STREAM_GUARD", -100)
    prec = PrecisionConfig(digits=30, tail_goal=1e-9)
    for a1, g1, a2, g2 in ((3, 1, 2, 1), (2, -1, 1, -1), (3, -1, 2, 1), (1, -1, 3, 1)):
        info = numeric._double_sum(a1, g1, a2, g2, prec).info()  # not through memo
        word = [0] * (a1 - 1) + [g1] + [0] * (a2 - 1) + [g1 * g2]
        n, size = info.terms, len(word)
        tails = _half_series_exact(list(reversed(word)), n)
        heads = _half_series_exact([1 if c == 0 else 1 - c for c in word], n)
        signs = accumulate((1 if c in (0, 1) else -1 for c in word), mul, initial=1)
        exact = sum(g * a * b for g, a, b in zip(signs, heads, reversed(tails)))
        with mp.workdps(60):
            error = abs(info.value - mpf(exact.numerator) / exact.denominator)
            rounding = info.tail_bound - 3 * (size + 1) * mp.ldexp(1, -n)
            assert error <= rounding, (a1, g1, a2, g2, error, rounding)
            assert error > mp.ldexp(abs(info.value), -100), (a1, g1, a2, g2)


def _half_values_letter_by_letter(letters, n, bits):
    """_half_values with no word read from _tables: each letter applied in
    turn to the terms at 1/2 of the word before it, from the constant 1."""
    return [sum(t) for t in _words_letter_by_letter(letters, n, bits)]


def _words_letter_by_letter(letters, n, bits):
    """The terms 0..n at 1/2 of each word of _half_values_letter_by_letter."""
    t = [1 << bits] + [0] * n
    words = [t]
    for c in letters:
        if c == 0:
            t = [0, *map(floordiv, t[1:], range(1, n + 1))]
        else:
            e = abs(c)
            u = list(map(lshift, t[:-1], range(0, e * n, e)))
            if c == -1:
                u[1::2] = map(neg, u[1::2])
            u = list(accumulate(u))
            if c == -1:
                u[::2] = map(neg, u[::2])
            t = [0, *map(floordiv, map(rshift, u, range(e, e * (n + 1), e)), range(1, n + 1))]
        words.append(t)
    return words


def _double_sum_width(size, prec):
    """The cutoff n and the width bits _double_sum takes for a word of size letters."""
    with mp.workdps(prec.working_dps):
        return numeric._ceil_bits(6 * (size + 1) / prec.goal()), mp.prec + numeric.STREAM_GUARD


@pytest.mark.parametrize("digits", [12, 30, 60, 120, 250])
def test_split_values_equal_the_words_built_letter_by_letter(monkeypatch, digits):
    """The heads and tails _double_sum reads, whose leading runs come from
    _tables, against the same words built letter by letter, for every
    a1 + a2 <= 16 and sign pair at the (n, bits) of its precision: with the
    calls in ascending n from clear_memos() (stored words grow), then in
    descending n (stored words are cut)."""
    monkeypatch.setattr(numeric, "_tables", numeric._TableMemo(numeric.TABLE_BUDGET))
    prec = PrecisionConfig(digits=digits)
    want = {}
    for a1 in range(1, 16):
        for a2 in range(1, 17 - a1):
            for g1 in (1, -1):
                for g2 in (1, -1):
                    word = [0] * (a1 - 1) + [g1] + [0] * (a2 - 1) + [g1 * g2]
                    n, bits = _double_sum_width(len(word), prec)
                    heads = [1 if c == 0 else 1 - c for c in word]
                    want[(tuple(word), a1, n, bits)] = (
                        _half_values_letter_by_letter(heads, n, bits),
                        _half_values_letter_by_letter(reversed(word), n, bits))
    ascending = sorted(want, key=lambda key: key[2])
    assert len({key[2] for key in ascending}) >= 2
    numeric.clear_memos()
    for order in (ascending, ascending[::-1]):
        for word, a1, n, bits in order:
            got = numeric._split_values(list(word), a1, n, bits)
            assert got == want[(word, a1, n, bits)], (word, n, bits)


CLASSICAL_GRID_DOUBLES_SHA256 = "bbec225b4980a6fed52ee7eec429419574904789c18ad62f8906c83c998a7455"


def test_double_sum_on_the_classical_grid_is_pinned():
    """Every SumInfo of a _double_sum _Series (value, tail_bound, terms)
    over the doubles of the odd-weight grid r, s, t <= 5 at 30, 60 and 120
    digits, hashed: the words shared through _tables leave every bit as it
    was when each double built its own."""
    doubles = sorted({(a.value, a.sign, b.value, b.sign)
                      for r in range(1, 6) for s in range(1, 6) for t in range(1, 6)
                      if (r + s + t) % 2 == 1 for v in "TSR"
                      for _, a, b in corollary1_reduce(r, s, t, v)})
    digest = hashlib.sha256()
    for digits in (30, 60, 120):
        prec = PrecisionConfig(digits=digits)
        for key in doubles:
            info = numeric._double_sum(*key, prec).info()
            parts = []
            for x in (info.value, info.tail_bound):
                sign, man, exp, bc = x._mpf_
                parts.append(f"{sign} {int(man)} {exp} {bc}")
            digest.update(f"{key} {digits}: {' | '.join(parts)} | {info.terms}\n".encode())
    assert len(doubles) == 116
    assert digest.hexdigest() == CLASSICAL_GRID_DOUBLES_SHA256


def _classical_grid_doubles() -> list:
    """The (a1, g1, a2, g2) of the doubles of the odd-weight grid r, s, t <= 5."""
    return sorted({(a.value, a.sign, b.value, b.sign)
                   for r in range(1, 6) for s in range(1, 6) for t in range(1, 6)
                   if (r + s + t) % 2 == 1 for v in "TSR"
                   for _, a, b in corollary1_reduce(r, s, t, v)})


def _classical_grid_digest(infos: dict) -> str:
    """SHA-256 over the SumInfo (value, tail_bound, terms) of each double
    of _classical_grid_doubles() at 30, 60 and 120 digits, in that order."""
    digest = hashlib.sha256()
    for digits in (30, 60, 120):
        for key in _classical_grid_doubles():
            info = infos[key, digits]
            parts = []
            for x in (info.value, info.tail_bound):
                sign, man, exp, bc = x._mpf_
                parts.append(f"{sign} {int(man)} {exp} {bc}")
            digest.update(f"{key} {digits}: {' | '.join(parts)} | {info.terms}\n".encode())
    return digest.hexdigest()


def _classical_grid_infos(order) -> dict:
    """The SumInfo of each (double, digits) of order, built in that order
    (not through memo)."""
    return {(key, digits): numeric._double_sum(*key, PrecisionConfig(digits=digits)).info()
            for key, digits in order}


def test_tails_families_give_the_pinned_grid_in_any_order(monkeypatch):
    """The 116 doubles at 30, 60 and 120 digits, from clear_memos(), with
    a1 ascending, a1 descending and in a seeded shuffle, and under a table
    budget small enough to evict families mid-grid: each run hashes to
    CLASSICAL_GRID_DOUBLES_SHA256, whatever each family held when a double
    read it."""
    monkeypatch.setattr(numeric, "_tables", numeric._TableMemo(numeric.TABLE_BUDGET))
    grid = [(key, digits) for digits in (30, 60, 120) for key in _classical_grid_doubles()]
    shuffled = list(grid)
    random.Random(32).shuffle(shuffled)
    orders = [sorted(grid, key=lambda case: case[0][0]),
              sorted(grid, key=lambda case: -case[0][0]), shuffled]
    for order in orders:
        numeric.clear_memos()
        assert _classical_grid_digest(_classical_grid_infos(order)) == CLASSICAL_GRID_DOUBLES_SHA256
    full = numeric.memo_stats()["tables"]
    small = numeric._TableMemo(2000)
    monkeypatch.setattr(numeric, "_tables", small)
    missed, take = [], small.take

    def counted_take(key):
        if key not in small.lists:
            missed.append(key)
        return take(key)

    monkeypatch.setattr(small, "take", counted_take)
    assert _classical_grid_digest(_classical_grid_infos(shuffled)) == CLASSICAL_GRID_DOUBLES_SHA256
    families = [key for key in missed if key[-1] == "0^i"]
    assert len(families) > len(set(families))  # some family was dropped and built again
    assert small.stored <= 2000 and small.misses > full["misses"]


def test_tails_family_reads_grows_and_rebuilds_across_cutoffs(monkeypatch):
    """One tails family asked at cutoffs that jump past its window both
    ways: a cutoff n within FAMILY_WINDOW below its N is read from the
    window, a larger one grows the family in k, a smaller one rebuilds it
    at n.  Every heads and tails list equals the words built letter by
    letter at that n."""
    tables = numeric._TableMemo(numeric.TABLE_BUDGET)
    monkeypatch.setattr(numeric, "_tables", tables)
    bits, window = 100, numeric.FAMILY_WINDOW
    key = (bits, (-1, 0, 1), "0^i")  # the tails of zeta(a1, 2; +1, -1)
    # (n, a1, the family's N after the call)
    calls = [(60, 2, 60), (200, 3, 200), (60, 4, 60), (63, 2, 63), (63 - window, 5, 63),
             (62 - window, 5, 62 - window), (300, 2, 300), (62 - window, 2, 62 - window),
             (300, 6, 300)]
    for n, a1, top in calls:
        word = [0] * (a1 - 1) + [1, 0, -1]
        heads = [1 if c == 0 else 1 - c for c in word]
        got = numeric._split_values(word, a1, n, bits)
        assert got == (_half_values_letter_by_letter(heads, n, bits),
                       _half_values_letter_by_letter(reversed(word), n, bits)), (n, a1)
        frontier, kept = tables.lists[key].state
        assert len(frontier) - 1 == top and len(tables.lists[key]) >= a1, (n, a1)
        terms = _words_letter_by_letter([-1, 0, 1], top, bits)[-1]
        assert kept == terms[-window:], (n, a1)


def test_shared_half_series_words_are_tables(monkeypatch):
    """The leading runs of the heads (1^(a1-1)) and tails (g1g2 0^(a2-1)) are
    tables of _tables, one per (bits, word), and the tails' words after
    them one family per (bits, g1g2 0^(a2-1) g1), its frontier and window
    counted with it: all reported by memo_stats() and emptied by
    clear_memos()."""
    monkeypatch.setattr(numeric, "_tables", numeric._TableMemo(numeric.TABLE_BUDGET))
    prec = PrecisionConfig(digits=12)
    numeric.clear_memos()
    classical_double_euler(SignedIndex(3, 1), SignedIndex(2, -1), prec)
    n, bits = _double_sum_width(5, prec)
    words, families = {(1,), (1, 1), (-1,), (-1, 0)}, {(-1, 0, 1)}

    def keys():
        return {(bits, w) for w in words} | {(bits, w, "0^i") for w in families}

    assert set(numeric._tables.lists) == keys()
    stats = numeric.memo_stats()["tables"]
    assert stats.pop("bytes") > 0
    # the family: the a1 = 3 words, the frontier (terms 0..n of -1 0 1 0 0)
    # and the window
    family = 3 + (n + 1) + numeric.FAMILY_WINDOW
    assert stats == {"tables": 5, "terms": 4 * n + family, "budget": numeric.TABLE_BUDGET,
                     "hits": 0, "misses": 5}
    # zeta(3, 3; -1, -1): the heads' run is read again, and the tails' run
    # 1 0 0 starts with the heads' word 1
    classical_double_euler(SignedIndex(3, -1), SignedIndex(3, -1), prec)
    words |= {(1, 0), (1, 0, 0)}
    families |= {(1, 0, 0, -1)}
    assert set(numeric._tables.lists) == keys()
    numeric.clear_memos()
    assert numeric.memo_stats()["tables"] == {
        "tables": 0, "terms": 0, "budget": numeric.TABLE_BUDGET, "hits": 0, "misses": 0,
        "bytes": 0}


def test_table_bytes_count_every_stored_int_and_grow_with_precision(monkeypatch):
    """memo_stats()["tables"]["bytes"] is sys.getsizeof over each stored
    list and every int in it, frontiers and windows included; "terms"
    counts those ints, within the budget.  The classical grid's doubles
    keep more bytes at 120 digits than at 30."""
    monkeypatch.setattr(numeric, "_tables", numeric._TableMemo(numeric.TABLE_BUDGET))
    held = {}
    for digits in (30, 120):
        numeric.clear_memos()
        prec = PrecisionConfig(digits=digits)
        for a1, g1, a2, g2 in _classical_grid_doubles():
            classical_double_euler(SignedIndex(a1, g1), SignedIndex(a2, g2), prec)
        stats = numeric.memo_stats()["tables"]
        lists = [x for key, table in numeric._tables.lists.items()
                 for x in ((table, *table.state) if key[-1] == "0^i" else (table,))]
        assert stats["terms"] == sum(map(len, lists)) <= numeric.TABLE_BUDGET
        assert stats["bytes"] == sum(sys.getsizeof(x) + sum(map(sys.getsizeof, x)) for x in lists)
        held[digits] = stats["bytes"]
    assert held[120] > held[30] > 0


def test_letters_floor_their_exact_quotients_from_any_start():
    """_letter against exact rationals: term k+1 of letter c != 0 is
    floor(floor(S_k/(2c)^(k+1))/(k+1)), S_k = sum_(i<=k) t_i (2c)^i, and of
    letter 0 floor(t_k/k), from every start, on terms of both signs."""
    rng = random.Random(31)
    n, bits = 40, 30
    t = [1 << bits] + [rng.randrange(-(1 << bits), 1 << bits) >> rng.randrange(bits) for _ in range(n)]
    for c in (0, 1, 2, -1):
        if c:
            exact = [0] + [math.floor(math.floor(F(sum(t[i] * (2 * c) ** i for i in range(k + 1)),
                                                  (2 * c) ** (k + 1))) / (k + 1))
                           for k in range(n)]
        else:
            exact = [0] + [t[k] // k for k in range(1, n + 1)]
        for start in range(n):
            assert numeric._letter(t, c, start, n) == exact[start + 1:], (c, start)


def test_shared_words_are_stored_as_running_sums_and_grow_in_pieces(monkeypatch):
    """Each shared word is kept as the running sums of its terms, the same
    whether its table was filled at once or grown from a shorter call, and a
    longer table serves a shorter n bit for bit."""
    tables = numeric._TableMemo(numeric.TABLE_BUDGET)
    monkeypatch.setattr(numeric, "_tables", tables)
    bits, word = 90, [1, 1, 1, 2, 1, 0]  # the heads of zeta(4, 2; -1, -1)
    for n in (30, 50, 80, 50):
        got = numeric._half_values(word, n, bits, 3)
        assert got == _half_values_letter_by_letter(word, n, bits), n
    terms = _words_letter_by_letter(word, 80, bits)
    for j in range(1, 4):
        assert tables.lists[bits, tuple(word[:j])] == list(accumulate(terms[j][1:])), j
        assert tables.lists[bits, tuple(word[:j])].state == sum(terms[j]), j
    grown = dict(tables.lists)
    tables.clear()
    numeric._half_values(word, 80, bits, 3)
    assert tables.lists == grown


def test_half_series_words_are_read_at_their_own_bits(monkeypatch):
    """A _double_sum at a forced small width (the STREAM_GUARD of
    test_double_sum_bound_covers_its_rounding_at_few_bits) reads only the
    words stored at that width, not those of the same word at full width."""
    tables = numeric._TableMemo(numeric.TABLE_BUDGET)
    monkeypatch.setattr(numeric, "_tables", tables)
    prec = PrecisionConfig(digits=30, tail_goal=1e-9)
    wide = numeric._double_sum(3, -1, 2, 1, prec).info()
    read, take = [], tables.take
    monkeypatch.setattr(tables, "take", lambda key: read.append(key) or take(key))
    monkeypatch.setattr(numeric, "STREAM_GUARD", -100)
    narrow = numeric._double_sum(3, -1, 2, 1, prec).info()
    assert read and {key[0] for key in read} == {53}
    assert any(key[-1] == "0^i" for key in read)  # the tails family
    assert narrow.tail_bound > wide.tail_bound


def test_q_grid_then_classical_grid_share_the_table_budget(monkeypatch):
    """The criterion-4 q grid and then the classical grid in one session
    keep _tables within TABLE_BUDGET, and a budget small enough to evict
    tables mid-grid gives the same results."""
    def session():
        numeric.clear_memos()
        values = []
        for q in ("3/2", "2", "3"):
            for v in "TSR":
                for r in range(1, 5):
                    for s in range(1, 5):
                        for t in (0, 1, 2, F(1, 2)):
                            values.append(tornheim_q_info(r, s, t, *VARIANT_SIGNS[v], q, P30))
                            values.append(evaluate_reduction(theorem1_reduce(r, s, t, v), q, P30))
        for digits in (30, 60, 120):
            prec = PrecisionConfig(digits=digits)
            for r in range(1, 6):
                for s in range(1, 6):
                    for t in range(1, 6):
                        if (r + s + t) % 2 == 1:
                            for v in "TSR":
                                values.append(tornheim_classical(r, s, t, v, prec))
        return values, numeric.memo_stats()["tables"]

    monkeypatch.setattr(numeric, "_tables", numeric._TableMemo(numeric.TABLE_BUDGET))
    full, stats = session()
    assert stats["terms"] <= stats["budget"] == numeric.TABLE_BUDGET
    kinds = {type(key[0]) for key in numeric._tables.lists}
    assert kinds == {QParam, int}  # q-term tables and half-series words
    monkeypatch.setattr(numeric, "_tables", numeric._TableMemo(1000))
    evicted, small = session()
    assert small["terms"] <= 1000 and small["misses"] > stats["misses"]
    assert evicted == full


def test_double_euler_stuffle_product():
    # zeta(a;x) zeta(b;y) = zeta(a,b;x,y) + zeta(b,a;y,x) + zeta(a+b;xy)
    p = PrecisionConfig(digits=30)
    for (a, x), (b, y) in [((2, 1), (3, 1)), ((2, -1), (3, -1)), ((3, -1), (2, 1))]:
        with mp.workdps(50):
            lhs = classical_zeta(a, x, p) * classical_zeta(b, y, p)
            rhs = (
                classical_double_euler(SignedIndex(a, x), SignedIndex(b, y), p)
                + classical_double_euler(SignedIndex(b, y), SignedIndex(a, x), p)
                + classical_zeta(a + b, x * y, p)
            )
            assert abs(lhs - rhs) < mpf(10) ** -30


STUFFLE_ARGS = [((a, x), (w - a, y)) for w in range(2, 9) for a in range(1, w)
                for x in (1, -1) for y in (1, -1)
                if not (a == 1 and x == 1) and not (w - a == 1 and y == 1)]


@pytest.mark.parametrize("digits", [12, 30, 60, 120, 250])
def test_double_euler_stuffle_product_meets_goal(digits):
    """zeta(a;x) zeta(b;y) = zeta(a,b;x,y) + zeta(b,a;y,x) + zeta(a+b;xy) for
    all four sign pairs and weights a + b <= 8, even ones included.  Depth 1
    and depth 2 are summed by different algorithms."""
    p = PrecisionConfig(digits=digits)
    for (a, x), (b, y) in STUFFLE_ARGS:
        with mp.workdps(p.working_dps):
            lhs = classical_zeta(a, x, p) * classical_zeta(b, y, p)
            rhs = (classical_double_euler(SignedIndex(a, x), SignedIndex(b, y), p)
                   + classical_double_euler(SignedIndex(b, y), SignedIndex(a, x), p)
                   + classical_zeta(a + b, x * y, p))
            assert abs(lhs - rhs) <= p.goal(), ((a, x), (b, y))


def test_double_euler_preconditions():
    with pytest.raises(DivergenceError):
        classical_double_euler(SignedIndex(1, 1), SignedIndex(1, 1))
    with pytest.raises(DivergenceError):
        classical_double_euler(SignedIndex(2, 1), SignedIndex(0, 1))
    with pytest.raises(DomainError):
        classical_double_euler(SignedIndex(F(5, 2), 1), SignedIndex(1, 1))


def test_double_euler_digit_doubling_stable():
    a = classical_double_euler(SignedIndex(14, -1), SignedIndex(1, 1), PrecisionConfig(digits=30))
    b = classical_double_euler(SignedIndex(14, -1), SignedIndex(1, 1), PrecisionConfig(digits=55))
    assert abs(a - b) < mpf(10) ** -33


# ---------------------------------------------------------------- classical tornheim

def test_tornheim_classical_known_value():
    # the fully alternating weight-3 case equals zeta(3)/4
    with mp.workdps(50):
        got = tornheim_classical(1, 1, 1, "S", P30)
        assert abs(got - mpmath.zeta(3) / 4) < mpf(10) ** -30


@pytest.mark.parametrize("digits", [30, 60, 120])
def test_tornheim_classical_lies_within_its_terms_bounds(digits):
    """On the odd-weight grid r, s, t <= 5, T/S/R: |tornheim_classical -
    oracle| <= sum |c_i| bound_i + 2^(1-prec) |value|, with bound_i the
    tail_bound of each corollary1_reduce term's _double_sum and prec the
    working bits; the oracle is the closed form by mpmath.zeta."""
    prec = PrecisionConfig(digits=digits)
    for r in range(1, 6):
        for s in range(1, 6):
            for t in range(1, 6):
                if (r + s + t) % 2 == 0:
                    continue
                for v in "TSR":
                    value = tornheim_classical(r, s, t, v, prec)
                    with mp.workdps(prec.working_dps):
                        bound = mp.ldexp(abs(value), 1 - mp.prec)
                        for c, a, b in corollary1_reduce(r, s, t, v):
                            info = numeric.memo(numeric._double_sum, a.value, a.sign,
                                                b.value, b.sign, prec).info()
                            bound += abs(c) * info.tail_bound
                    with mp.workdps(digits + 40):
                        oracle = _mpmath_value(tornheim_closed(r, s, t, v).expression)
                        assert abs(value - oracle) <= bound, (r, s, t, v)


def test_q_to_1_continuity_at_212():
    target = float(tornheim_classical(2, 1, 2, "T", P30))
    coarse = PrecisionConfig(digits=10, tail_goal=1e-7, max_terms=10 ** 9)
    devs = []
    for q in (1.1, 1.01, 1.001):
        val = tornheim_q(2, 1, 2, 1, 1, q, coarse)
        devs.append(abs(float(val) - target))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 5e-3


# ---------------------------------------------------------------- reductions

def test_evaluate_reduction_matches_lhs_T111():
    red = theorem1_reduce(1, 1, 1, "T")
    lhs = tornheim_q(1, 1, 1, 1, 1, 2, P30)
    rhs = evaluate_reduction(red, 2, P30)
    assert abs(lhs - rhs) < mpf(10) ** -30


def test_evaluate_reduction_matches_lhs_R111():
    # exercises the plus sign on the q^2-zeta correction family
    red = theorem1_reduce(1, 1, 1, "R")
    lhs = tornheim_q(1, 1, 1, 1, -1, 2, P30)
    rhs = evaluate_reduction(red, 2, P30)
    assert abs(lhs - rhs) < mpf(10) ** -30


def test_evaluate_reduction_fractional_t():
    red = theorem1_reduce(1, 2, F(1, 2), "S")
    lhs = tornheim_q(1, 2, F(1, 2), -1, -1, F(3, 2), P30)
    rhs = evaluate_reduction(red, F(3, 2), P30)
    assert abs(lhs - rhs) < mpf(10) ** -30


def test_evaluate_reduction_at_a_float_q_uses_its_exact_square():
    # the q^2 term of R[1,2,2] must see the square of the float 1.1, not 1.1 * 1.1
    assert QParam(1.1).squared() == QParam(F(1.1) ** 2) != QParam(1.1 * 1.1)
    lhs = tornheim_q_info(1, 2, 2, 1, -1, 1.1, P30)
    rhs = evaluate_reduction(theorem1_reduce(1, 2, 2, "R"), 1.1, P30)
    assert abs(lhs.value - rhs) < 1e-27


def _term_info(kind, q, prec):
    """The public SumInfo of the series of a reduction term at q."""
    if isinstance(kind, DoubleQZeta):
        a, b = kind.outer, kind.inner
        return q_zeta2_info(a.value, a.sign, b.value, b.sign, q, prec)
    if isinstance(kind, PhiTerm):
        return phi_q_info(kind.index.value, kind.index.sign, q, prec)
    return q_zeta1_info(kind.index, 1, F(q) ** 2, prec)


@pytest.mark.parametrize("prec", [P30, PrecisionConfig(digits=10, tail_goal=1e-40)])
def test_evaluate_reduction_raises_when_a_term_misses_its_goal(prec):
    # at q = 10 the terms of T[5,5,5] reach 1e10 and more, so rounding one
    # to working precision alone exceeds the goal; the exact combine must
    # raise as the first such term's own SumInfo does, not return a value
    red = theorem1_reduce(5, 5, 5, "T")
    with pytest.raises(PrecisionError, match="q_zeta2.*rounding") as raised:
        evaluate_reduction(red, 10, prec)
    for _, kind in red.terms:
        try:
            _term_info(kind, 10, prec)
        except PrecisionError as exc:
            assert str(exc) == str(raised.value)
            break
    else:
        pytest.fail("no term of T[5,5,5] misses its goal")


@pytest.mark.parametrize("digits", [12, 30])
def test_evaluate_reduction_is_within_the_weighted_bounds_of_its_terms(digits):
    # |value - truth| <= sum_i |c_i| |1-q|^a_i |1+q|^p_i tail_bound_i
    # + 2^(1-prec) |value|, with each tail_bound_i from the term's public
    # *_info call and the same reduction at digits + 30 as the truth
    prec, fine = PrecisionConfig(digits=digits), PrecisionConfig(digits=digits + 30)
    with mp.workdps(prec.working_dps):
        bits = mp.prec
    worst = 0
    for q in ("3/2", "2", "3", "11/10"):
        for v in "TSR":
            for r in range(1, 5):
                for s in range(1, 5):
                    for t in (0, 1, 2, F(1, 2)):
                        red = theorem1_reduce(r, s, t, v)
                        value = evaluate_reduction(red, q, prec)
                        truth = evaluate_reduction(red, q, fine)
                        with mp.workdps(digits + 45):
                            qm = mpf(F(q).numerator) / F(q).denominator
                            bound = mp.ldexp(abs(value), 1 - bits)
                            for c, kind in red.terms:
                                weight = abs(mpf(c.numerator) / c.denominator)
                                weight *= abs(1 - qm) ** kind.one_minus_q_pow
                                if isinstance(kind, QSquaredZeta):
                                    p = F(kind.one_plus_q_pow)
                                    weight *= mp.power(1 + qm, mpf(p.numerator) / p.denominator)
                                bound += weight * _term_info(kind, q, prec).tail_bound
                            error = abs(value - truth)
                            assert error <= bound, (q, v, r, s, t, error, bound)
                            worst = max(worst, error / bound)
    assert worst > 0  # the cases do round
