"""Benchmark runner: run one workload for a time budget and print its metrics.

    python3 bench/run.py --workload q_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  One client in a closed loop: sweeps run
one after another, each in a fresh interpreter (bench/worker.py), so the
package's memos start empty and fill as the sweep goes.  Cases run back to
back until --seconds of case time is spent and at least MIN_CASES cases ran.

Case times are reported at a reference machine speed: each sweep also times
a fixed calibration loop between cases, and each case time is scaled by
CALIBRATION_REF_S over the median of the calibration samples taken nearest
to it.  The summary lines give the raw figures too.  setup_s is plain wall
time.

--trace 0 prints the end-to-end metrics.  --trace 1 replays every sweep
a second time with timing wrappers on the package's public functions and
prints the per-layer metrics, including the tracing overhead.  The last line
of standard output is one JSON object; the lines before it are a readable
summary with sample counts and the environment record.  Everything is also
written to .bench_out/ in the checkout, spans included.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
from workloads import PLANS  # noqa: E402

MIN_CASES = 100  # so that p90 has ten samples above it
SETUP_PROBES = 5  # extra fresh imports per run, for the set-up median
WALL_LIMIT_S = 170  # no new sweep starts after this much wall time
TRACE_PHASE_SHARE = 0.4  # share of WALL_LIMIT_S an untraced phase may use when tracing
# Median time of worker.calibration_loop() on the machine the bounds were
# set on.  A case time is scaled by CALIBRATION_REF_S over the median of the
# calibration samples taken nearest to it, so a shared machine's swings in
# speed cancel out of it.
CALIBRATION_REF_S = 0.013
CALIBRATION_WINDOW = 5

END_TO_END = (
    ("cases_per_s", "1/s"),
    ("case_p50_ms", "ms"),
    ("case_p90_ms", "ms"),
    ("pass_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

LAYER_QUANTITIES = {
    "numeric.tornheim_q_info": ("calls", "self_s", "terms"),
    "numeric.q_zeta2_info": ("calls", "self_s", "terms"),
    "numeric.phi_q_info": ("calls", "self_s", "terms"),
    "numeric.q_zeta1_info": ("calls", "self_s", "terms"),
    "numeric.evaluate_reduction": ("calls", "self_s", "term_repeat_frac"),
    "exact.ZetaExpression": ("ops", "self_s"),
    "closedform.double_euler_closed": ("calls", "self_s", "repeat_frac"),
    "closedform.tornheim_closed": ("calls", "self_s"),
    "numeric.classical_double_euler": ("calls", "self_s", "repeat_frac"),
    "numeric.classical_zeta": ("calls", "self_s", "repeat_frac"),
    "numeric.tornheim_classical": ("calls", "self_s"),
    "exact.expr_numeric": ("calls", "self_s"),
    "reduction.theorem1_reduce": ("calls", "self_s", "terms"),
    "reduction.corollary1_reduce": ("calls", "self_s"),
    "case": ("self_s",),
}
QUANTITY_UNITS = {
    "calls": "calls/case", "ops": "ops/case", "self_s": "s/case", "terms": "terms/case",
    "repeat_frac": "frac", "term_repeat_frac": "frac",
}


def per_layer_names() -> list[tuple[str, str]]:
    names = [(f"{layer}.{q}", QUANTITY_UNITS[q])
             for layer, quantities in LAYER_QUANTITIES.items() for q in quantities]
    return names + [("trace.overhead_frac", "frac")]


class WorkerError(RuntimeError):
    pass


def call_worker(request: dict, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")  # same set and dict orders, same work
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py")], input=json.dumps(request),
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"sweep process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"sweep process exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_record() -> dict:
    """A digest of src/, and the git commit when the checkout is a clone."""
    digest = hashlib.sha256()
    for path in sorted(SRC_DIR.rglob("*.py")):
        digest.update(str(path.relative_to(SRC_DIR)).encode())
        digest.update(path.read_bytes())
    git = ROOT / ".git"
    head = (git / "HEAD").read_text().strip() if (git / "HEAD").is_file() else ""
    if head.startswith("ref: ") and (git / head[5:]).is_file():
        head = (git / head[5:]).read_text().strip()
    return {"src_sha256": digest.hexdigest(),
            "git_sha": head if head and not head.startswith("ref: ") else None}


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def to_reference_speed(reply: dict) -> None:
    """Give each case of a sweep its time at the reference machine speed,
    "ref_s": its time scaled by CALIBRATION_REF_S over the median of the
    CALIBRATION_WINDOW calibration samples taken nearest to it."""
    samples = reply["calibrations"]
    for index, case in enumerate(reply["cases"]):
        nearest = sorted(samples, key=lambda sample: abs(sample[0] - index))[:CALIBRATION_WINDOW]
        case["ref_s"] = case["s"] * CALIBRATION_REF_S / statistics.median(s for _, s in nearest)


def end_to_end_metrics(cases: list[dict], setup_s: float, rss: list[float],
                       key: str = "s") -> dict:
    times = [c[key] for c in cases]
    failed = sum(not c["ok"] for c in cases)
    return {
        "cases_per_s": len(times) / sum(times),
        "case_p50_ms": statistics.median(times) * 1e3,
        "case_p90_ms": percentile(times, 90) * 1e3,
        "pass_frac": (len(cases) - failed) / len(cases),
        "peak_rss_mb": max(rss),
        "setup_s": setup_s,
    }


def per_layer_metrics(layers: list[dict], cases: int, scale: float, overhead: float) -> dict:
    """Counts and self times per case, pooled over the traced sweeps."""
    totals: dict[str, dict] = {}
    for sweep in layers:
        for name, entry in sweep.items():
            into = totals.setdefault(name, {})
            for key, value in entry.items():
                if isinstance(value, list):
                    old = into.get(key, [0, 0])
                    into[key] = [old[0] + value[0], old[1] + value[1]]
                else:
                    into[key] = into.get(key, 0) + value
    out = {}
    for layer, quantities in LAYER_QUANTITIES.items():
        entry = totals.get(layer, {})
        for q in quantities:
            if q.endswith("repeat_frac"):
                repeats, observed = entry.get(q[: -len("_frac")], [0, 0])
                value = repeats / observed if observed else 0.0
            else:
                value = entry.get("calls" if q == "ops" else q, 0) / cases
                value *= scale if q == "self_s" else 1
            out[f"{layer}.{q}"] = value
    out["trace.overhead_frac"] = overhead
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    remaining = lambda: WALL_LIMIT_S - (time.perf_counter() - started)
    OUT_DIR.mkdir(exist_ok=True)
    imports = [call_worker({"probe": True}, remaining()) for _ in range(SETUP_PROBES)]
    plan = PLANS[workload](seed)
    phase_limit = WALL_LIMIT_S * (TRACE_PHASE_SHARE if trace else 1)
    plain, traced, layers, rss, env = [], [], [], [], None
    used = 0.0
    sweep_index = 0
    while (used < seconds or len(plain) < MIN_CASES) and time.perf_counter() - started < phase_limit:
        cases, block = next(plan)
        reply = call_worker({
            "workload": workload, "cases": cases, "block": block, "trace": False,
            "budget_s": seconds - used, "min_cases": MIN_CASES - len(plain),
            "wall_s": phase_limit - (time.perf_counter() - started),
        }, remaining())
        to_reference_speed(reply)
        ran = reply["cases"]
        plain.extend(ran)
        used += sum(c["s"] for c in ran)
        imports.append(reply)
        rss.append(reply["peak_rss_mb"])
        env = env or reply["env"]
        if trace:
            reply = call_worker({
                "workload": workload, "cases": [c["case"] for c in ran], "block": len(ran),
                "trace": True,
                "spans_path": str(OUT_DIR / f"spans-{workload}-seed{seed}-sweep{sweep_index}.json.gz"),
            }, remaining())
            to_reference_speed(reply)
            traced.extend(reply["cases"])
            layers.append(reply["layers"])
        sweep_index += 1
    if not plain:
        raise WorkerError("no case ran within the wall-time limit")
    everything = plain + traced
    failed = [c for c in everything if not c["ok"]]
    setup_s = statistics.median(r["setup_s"] for r in imports)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": {**env, **source_record()},
        "sweeps": sweep_index,
        "samples": {"cases": len(plain), "setup": len(imports), "sweeps": len(rss)},
        "speed_scale": sum(c["ref_s"] for c in plain) / sum(c["s"] for c in plain),
        "failed_frac": sum(not c["ok"] for c in plain) / len(plain),
        "end_to_end": end_to_end_metrics(plain, setup_s, rss, "ref_s"),
        "end_to_end_raw": end_to_end_metrics(plain, setup_s, rss),
        "correct": all(c["known_defect"] for c in failed),
        "attempted": len(everything),
        "failed": len(failed),
        "cases": plain,
        "traced_cases": traced,
    }
    if trace:
        traced_ref = sum(c["ref_s"] for c in traced)
        overhead = traced_ref / sum(c["ref_s"] for c in plain) - 1
        result["per_layer"] = per_layer_metrics(
            layers, len(traced), traced_ref / sum(c["s"] for c in traced), overhead)
    return result


def summary_lines(result: dict) -> list[str]:
    n = result["samples"]
    m, raw = result["end_to_end"], result["end_to_end_raw"]
    failed_plain = sum(not c["ok"] for c in result["cases"])
    above = sum(c["s"] * 1e3 > raw["case_p90_ms"] for c in result["cases"])
    lines = [
        "env " + json.dumps(result["env"], sort_keys=True),
        f"{result['workload']} seed={result['seed']} trace={result['trace']}: "
        f"{n['cases']} timed cases in {n['sweeps']} sweeps; times at reference speed, "
        f"case time scaled by {result['speed_scale']:.4f} on the whole",
        f"  cases_per_s  {m['cases_per_s']:.4f} 1/s  (raw {raw['cases_per_s']:.4f}; n={n['cases']} cases)",
        f"  case_p50_ms  {m['case_p50_ms']:.4f} ms  (raw {raw['case_p50_ms']:.4f}; n={n['cases']})",
        f"  case_p90_ms  {m['case_p90_ms']:.4f} ms  (raw {raw['case_p90_ms']:.4f}; "
        f"n={n['cases']}, {above} above)",
        f"  failed_frac  {result['failed_frac']:.4f}  ({failed_plain} of {n['cases']})",
        f"  pass_frac    {m['pass_frac']:.4f}  (1 - failed_frac)",
        f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MB  (max of {n['sweeps']} sweeps)",
        f"  setup_s      {m['setup_s']:.4f} s  (wall time, median of {n['setup']} imports)",
    ]
    for name, value in result.get("per_layer", {}).items():
        lines.append(f"  {name}  {value:.6g}")
    shown = [c for c in result["cases"] + result["traced_cases"] if not c["ok"]][:5]
    for c in shown:
        tag = "known defect" if c["known_defect"] else "FAILED"
        lines.append(f"  {tag}: {c['case']} {c['detail'].strip().splitlines()[-1]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "tornheim" / "__init__.py").is_file():
        print(f"no package source at {SRC_DIR}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, default=str))
    for line in summary_lines(result):
        print(line)
    if args.trace:
        units = dict(per_layer_names())
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["per_layer"].items()}
    else:
        units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["end_to_end"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
