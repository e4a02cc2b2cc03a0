"""One sweep in a fresh interpreter.

Reads a JSON request on stdin, imports the package from the checkout's src/
(the import time is the set-up sample), runs the cases back to back, checks
each, and prints one JSON line for the parent on stdout.

Request keys: workload, cases, block, budget_s, min_cases, wall_s,
trace (bool) and spans_path (where a traced sweep writes its spans).
A request with only {"probe": true} imports and reports the set-up time.

Between cases, after every CALIBRATE_EVERY_S of case time, the sweep times
calibration_loop(), a fixed piece of work that uses no package code; the
parent uses those times to factor the shared machine's speed out of the
case times it reports.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
CALIBRATE_EVERY_S = 0.4


def calibration_loop() -> float:
    """Time a fixed mix of interpreter work like the workloads' own: mpf
    multiply-adds at 45 digits, Fraction sums and dict stores."""
    from fractions import Fraction

    from mpmath import mp, mpf

    t0 = time.perf_counter()
    with mp.workdps(45):
        x, acc, step = mpf(1) / 3, mpf(0), mpf("1.0001")
        for _ in range(1500):
            acc += x * x
            x *= step
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i + 7)
    table = {}
    for i in range(3000):
        table[(i & 63, i % 7)] = i * i
    return time.perf_counter() - t0


def run_cases(cases, block, execute, check, budget_s=None, min_cases=0,
              wall_s=None, tracer=None, clock=time.perf_counter, before_case=None):
    """Run cases block by block; a case that raises or misses its check is
    recorded as failed and the sweep goes on.

    Stops at a block boundary once budget_s of case time is spent and at
    least min_cases ran, or once wall_s of wall time has passed.
    before_case(case index, case time used so far) runs outside the timed
    region.
    """
    results = []
    used = 0.0
    start = clock()
    for index, case in enumerate(cases):
        if index % block == 0 and index and (
            (budget_s is not None and used >= budget_s and len(results) >= min_cases)
            or (wall_s is not None and clock() - start >= wall_s)
        ):
            break
        if before_case is not None:
            before_case(index, used)
        if tracer is not None:
            tracer.case = index
            span = tracer.open("case")
        error = None
        t0 = clock()
        try:
            out = execute(case)
        except Exception:  # the sweep must go on; the failure is recorded
            error = traceback.format_exc(limit=-3)
        elapsed = clock() - t0
        if tracer is not None:
            tracer.close(span)
        used += elapsed
        known = False
        if error is None:
            try:
                ok, detail, known = check(case, out)
            except Exception:
                ok, detail = False, "check raised: " + traceback.format_exc(limit=-3)
        else:
            ok, detail = False, "raised: " + error
        results.append({"case": case, "s": elapsed, "ok": bool(ok),
                        "known_defect": bool(known) and not ok, "detail": detail})
    return results


def _environment() -> dict:
    import mpmath
    import numpy

    return {
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def main() -> int:
    request = json.load(sys.stdin)
    sys.path.insert(0, str(SRC_DIR))
    t0 = time.perf_counter()
    import tornheim
    import tornheim.cli  # noqa: F401  (the CLI import is part of set-up)
    setup_s = time.perf_counter() - t0
    if Path(tornheim.__file__).resolve().parent != SRC_DIR / "tornheim":
        print(f"imported tornheim from {tornheim.__file__}, not from {SRC_DIR}", file=sys.stderr)
        return 3
    reply = {"setup_s": setup_s}
    if not request.get("probe"):
        from spans import Tracer
        from workloads import CaseRunner

        runner = CaseRunner(request["workload"])
        tracer = None
        if request["trace"]:
            tracer = Tracer()
            tracer.install()
        calibrations = reply["calibrations"] = []  # [index of the next case, seconds]

        def calibrate(index: int, used: float) -> None:
            if used >= CALIBRATE_EVERY_S * len(calibrations):
                calibrations.append([index, calibration_loop()])

        reply["cases"] = run_cases(
            request["cases"], request["block"], runner.execute, runner.check,
            request.get("budget_s"), request.get("min_cases", 0),
            request.get("wall_s"), tracer, before_case=calibrate)
        if tracer is not None:
            tracer.uninstall()
            reply["layers"] = tracer.layer_totals()
            tracer.dump(request["spans_path"])
        reply["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reply["env"] = _environment()
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
