"""The four workloads: case plans drawn from a seed, and per-case run and check.

A plan is an endless sequence of sweeps.  A sweep is one invocation as a
user would make it: a list of cases of plain JSON values, run back to back
in one fresh interpreter, so the package's memos start empty and fill as the
sweep goes.  Cases come in blocks and a run stops only at a block boundary.
Planning imports nothing from the package, so the parent process stays
light; running and checking import it inside the sweep process.

Stratification keeps the cost mix of every block fixed: the seed only picks
which grid points fill each stratum, and in which order they run.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction

VARIANTS = ("T", "S", "R")


def _points(rng: random.Random, pool: list):
    """Endless draw without replacement: a fresh permutation per pass."""
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


def _stratified_sweeps(seed, name: str, strata: dict):
    """Sweeps made of blocks that hold one point of every stratum, in a
    shuffled order.  A run stops only at a block boundary, so any prefix it
    measures has the same cost mix."""
    rng = random.Random(f"{name}/{seed}")
    draws = {key: _points(rng, pool) for key, pool in strata.items()}
    blocks = min(len(pool) for pool in strata.values())
    while True:
        sweep = []
        for _ in range(blocks):
            block = [[*key, *next(draws[key])] for key in strata]
            rng.shuffle(block)
            sweep.extend(block)
        yield sweep, len(strata)


def _full_grid_sweeps(seed, name: str, grid: list, tier=None):
    """Sweeps that each run the whole grid as one block, in a seeded order.
    With a tier key, tiers run in ascending order and the seed shuffles the
    cases within each tier only."""
    rng = random.Random(f"{name}/{seed}")
    while True:
        sweep = [list(case) for case in grid]
        rng.shuffle(sweep)
        if tier is not None:
            sweep.sort(key=tier)
        yield sweep, len(sweep)


def _rational(text: str):
    frac = Fraction(text)
    return int(frac) if frac.denominator == 1 else frac


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------

Q_SWEEP_QS = ("3/2", "2", "3")
Q_TS = ("0", "1", "2", "1/2")
Q_LIMIT_QS = ("6/5", "11/10", "101/100")
ODD_WEIGHT_MAX = 15
CLASSICAL_DIGITS = (30, 60, 120)


def plan_q_sweep(seed):
    """Criterion-4 grid at 30 digits; a block holds one point per (q, t)."""
    points = [(v, r, s) for v in VARIANTS for r in range(1, 5) for s in range(1, 5)]
    strata = {(q, t): points for q in Q_SWEEP_QS for t in Q_TS}
    yield from _stratified_sweeps(seed, "q_sweep", strata)


def plan_q_limit(seed):
    """Coarse goal on the ladder q = 6/5, 11/10, 101/100, one whole grid per
    sweep.  Two cheap rungs for each costly one put p50 in the cheap mode
    and p90 in the costly one.  Whole sweeps keep the memo hits, and with
    them the total cost, the same for every seed; walking the grid by
    increasing (r, s) keeps which cases fill the memo, and so the latency
    percentiles, nearly the same too."""
    grid = [(q, v, r, s, t) for q in Q_LIMIT_QS for v in VARIANTS
            for r in range(1, 3) for s in range(1, 3) for t in Q_TS]
    yield from _full_grid_sweeps(seed, "q_limit", grid, tier=lambda case: case[2:4])


def odd_weight_triples(max_weight: int) -> list:
    return [(r, s, w - r - s) for w in range(3, max_weight + 1, 2)
            for r in range(1, w - 1) for s in range(1, w - r) if w - r - s >= 1]


def plan_closed_table(seed):
    """Every row of `table --weight 15`, one whole table per sweep."""
    grid = [(v, r, s, t) for r, s, t in odd_weight_triples(ODD_WEIGHT_MAX) for v in VARIANTS]
    yield from _full_grid_sweeps(seed, "closed_table", grid)


def classical_grid() -> list:
    triples = [(r, s, t) for r in range(1, 6) for s in range(1, 6) for t in range(1, 6)
               if (r + s + t) % 2 == 1]
    return [(v, r, s, t, d) for r, s, t in triples for v in VARIANTS for d in CLASSICAL_DIGITS]


def plan_classical_check(seed):
    """The whole odd-weight grid at 30, 60 and 120 digits per sweep, so the
    known 60/120-digit misses are counted in full on every run."""
    yield from _full_grid_sweeps(seed, "classical_check", classical_grid())


PLANS = {
    "q_sweep": plan_q_sweep,
    "q_limit": plan_q_limit,
    "closed_table": plan_closed_table,
    "classical_check": plan_classical_check,
}


# ----------------------------------------------------------------------
# running and checking (inside the sweep process)
# ----------------------------------------------------------------------

class CaseRunner:
    """Runs and checks the cases of one workload.

    Program calls go through module attributes, so tracing wrappers
    installed on those modules see them.  check() returns (ok, detail,
    known_defect); known_defect marks a miss recorded as a known defect
    of the program (counted as failed, but not a broken benchmark).
    """

    def __init__(self, workload: str) -> None:
        from mpmath import mp, mpf

        from tornheim import closedform, exact, numeric, reduction

        self.mp, self.mpf = mp, mpf
        self.closedform, self.exact = closedform, exact
        self.numeric, self.reduction = numeric, reduction
        self.workload = workload
        self.prec30 = numeric.PrecisionConfig(digits=30)
        self.coarse = numeric.PrecisionConfig(digits=10, tail_goal=1e-7, max_terms=10 ** 9)
        self._oracle_zeta: dict = {}
        self.execute = getattr(self, f"_run_{workload}")
        self.check = getattr(self, f"_check_{workload}")

    # -- q_sweep / q_limit -------------------------------------------------

    def _q_pair(self, q, t, variant, r, s, prec):
        sigma, tau = self.reduction.VARIANT_SIGNS[variant]
        t = _rational(t)
        lhs = self.numeric.tornheim_q_info(r, s, t, sigma, tau, q, prec).value
        red = self.reduction.theorem1_reduce(r, s, t, variant)
        rhs = self.numeric.evaluate_reduction(red, q, prec)
        return lhs, rhs

    def _q_check(self, pair, prec, tol):
        with self.mp.workdps(prec.working_dps):
            resid = abs(pair[0] - pair[1])
            return resid <= tol, f"residual {self.mp.nstr(resid, 3)}", False

    def _run_q_sweep(self, case):
        q, t, variant, r, s = case
        return self._q_pair(q, t, variant, r, s, self.prec30)

    def _check_q_sweep(self, case, pair):
        return self._q_check(pair, self.prec30, self.mpf(10) ** -27)

    def _run_q_limit(self, case):
        q, variant, r, s, t = case
        return self._q_pair(q, t, variant, r, s, self.coarse)

    def _check_q_limit(self, case, pair):
        return self._q_check(pair, self.coarse, 2 * self.mpf(self.coarse.tail_goal))

    # -- closed_table --------------------------------------------------------

    def _run_closed_table(self, case):
        variant, r, s, t = case
        expr = self.closedform.tornheim_closed(r, s, t, variant).expression
        text = expr.render()
        back = self.exact.expression_from_json(
            json.loads(json.dumps(self.exact.expression_to_json(expr))))
        return expr, text, back

    def _check_closed_table(self, case, out):
        variant, r, s, t = case
        expr, text, back = out
        bad = [m.render() for m, _ in expr.terms() if m.weight != r + s + t]
        if bad:
            return False, f"monomials off weight {r + s + t}: {bad}", False
        if back != expr:
            return False, "JSON round trip changed the expression", False
        known = self.closedform.KNOWN_VALUES.get((variant, r, s, t))
        if known is not None and known != expr:
            return False, f"differs from reference value {known.render()}", False
        return True, "reference" if known is not None else "", False

    # -- classical_check -----------------------------------------------------

    def _run_classical_check(self, case):
        variant, r, s, t, digits = case
        prec = self.numeric.PrecisionConfig(digits=digits)
        expr = self.closedform.tornheim_closed(r, s, t, variant).expression
        closed = self.exact.expr_numeric(expr, prec)
        direct = self.numeric.tornheim_classical(r, s, t, variant, prec)
        return expr, closed, direct

    def oracle(self, expr, dps: int):
        """The closed form evaluated with mpmath.zeta, pi and log 2."""
        mp = self.mp
        with mp.workdps(dps):
            total = self.mpf(0)
            for mono, coeff in expr.terms():
                val = self.mpf(coeff.numerator) / coeff.denominator
                val *= mp.pi ** mono.pi_exponent * mp.log(2) ** mono.log2_exponent
                for k in mono.odd_zeta_factors:
                    if (k, dps) not in self._oracle_zeta:
                        self._oracle_zeta[(k, dps)] = mp.zeta(k)
                    val *= self._oracle_zeta[(k, dps)]
                total += val
            return total

    def _check_classical_check(self, case, out):
        digits = case[-1]
        expr, closed, direct = out
        dps = digits + 20
        ref = self.oracle(expr, dps)
        with self.mp.workdps(dps):
            tol = self.mpf(10) ** -digits * max(1, abs(ref))
            err_closed, err_direct = abs(closed - ref), abs(direct - ref)
            detail = (f"closed {self.mp.nstr(err_closed, 3)}, "
                      f"numeric {self.mp.nstr(err_direct, 3)}, goal {self.mp.nstr(tol, 3)}")
            closed_ok, direct_ok = err_closed <= tol, err_direct <= tol
        # The numeric route misses its goal from 60 digits on: a recorded
        # defect of the program, counted in failed, not a benchmark fault.
        known = closed_ok and not direct_ok and digits >= 60
        return closed_ok and direct_ok, detail, known
