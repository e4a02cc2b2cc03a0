"""Command-line front end: eval, reduce, verify, table.

Subcommands
  eval    evaluate a series (T, S, R, zeta2, qzeta); exact closed form plus
          numeric value where one exists, numeric-only otherwise
  reduce  print a depth-reduction as a term list (q-analog by default,
          --classical for the depth-2 limit)
  verify  run an identity sweep with one pass/fail line per case
  table   enumerate all odd-weight closed forms up to a weight bound

Exit codes: 0 success, 1 stdout closed early (e.g. piped into head),
2 argument or domain error, 3 verification failure, 4 precision failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from mpmath import mp, mpf, nstr

from .closedform import (
    KNOWN_VALUES,
    closed_form_table,
    double_euler_closed,
    result_to_json,
    tornheim_closed,
)
from .errors import DomainError, PrecisionError, TornheimError
from .exact import SignedIndex, as_rational, expr_numeric, expression_from_json, expression_to_json
from .numeric import (
    PrecisionConfig,
    _xm,
    classical_double_euler,
    classical_zeta,
    evaluate_reduction,
    q_zeta1,
    q_zeta1_info,
    q_zeta2_info,
    tornheim_classical,
    tornheim_classical_naive,
    tornheim_q_info,
)
from .reduction import (
    VARIANT_SIGNS,
    corollary1_reduce,
    reduction_to_json,
    theorem1_reduce,
    verify_lemma1,
)

__all__ = ["main", "build_parser"]


# ----------------------------------------------------------------------
# argument helpers
# ----------------------------------------------------------------------

def _signs(text: str, count: int) -> tuple[int, ...]:
    # p/m come from the escaping in main(); users may also type them directly
    text = str(text).replace("p", "+").replace("m", "-")
    if len(text) != count or any(c not in "+-" for c in text):
        raise DomainError(
            f"--signs wants {count} characters from '+-', got {text!r} "
            "(write --signs=-+ when the first sign is minus)"
        )
    return tuple(1 if c == "+" else -1 for c in text)


def _tolerance(args, default):
    """The parsed --tolerance as an mpf at the current precision, else default."""
    if args.tolerance is None:
        return default
    return _xm(args.tolerance)


def _fmt_bound(x) -> str:
    return nstr(x, 3)


def _require_ints(label: str, *values) -> None:
    bad = [v for v in values if not isinstance(v, int)]
    if bad:
        raise DomainError(f"{label} needs integer indices, got {bad}")


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------

def _map_tornheim_signs(series: str, signs) -> tuple[str, bool]:
    """Resolve (series, --signs) to a canonical variant.

    Returns (variant, swap): swap means the first two indices trade places,
    using the reflection T[r-,s,t] = T[s,r-,t].
    """
    if signs is None:
        return series, False
    if series != "T":
        raise DomainError("--signs combines with series T only; S and R fix their signs")
    table = {(1, 1): ("T", False), (-1, -1): ("S", False),
             (1, -1): ("R", False), (-1, 1): ("R", True)}
    return table[_signs(signs, 2)]


def cmd_eval(args) -> int:
    if args.max_terms is not None:
        prec = PrecisionConfig(digits=args.digits, max_terms=args.max_terms)
    else:
        prec = PrecisionConfig(digits=args.digits)
    out: dict = {"command": "eval", "series": args.series, "digits": args.digits}
    q = None if args.q is None else as_rational(args.q)

    if args.series in ("T", "S", "R"):
        if len(args.indices) != 3:
            raise DomainError(f"series {args.series} wants three indices r s t")
        r, s, t = (as_rational(x) for x in args.indices)
        variant, swap = _map_tornheim_signs(args.series, args.signs)
        if swap:
            r, s = s, r
        label = f"{variant}[{r},{s},{t}]"
        out.update(series=variant, indices=[str(r), str(s), str(t)])
        if q is not None:
            info = tornheim_q_info(r, s, t, *VARIANT_SIGNS[variant], q=q, prec=prec)
            return _emit_numeric(args, out, label, info, q)
        _require_ints("classical evaluation", r, s, t)
        if (r + s + t) % 2 == 1:
            result = tornheim_closed(r, s, t, variant)
            return _emit_closed(args, out, label, result.expression, prec,
                                provenance=result_to_json(result)["provenance"])
        note = f"no closed form, numeric only (even weight {r + s + t})"
        with mp.workdps(prec.working_dps):
            value = tornheim_classical(r, s, t, variant, prec)
        return _emit_plain_numeric(args, out, label, value, note)

    if args.series == "zeta2":
        if len(args.indices) != 2:
            raise DomainError("series zeta2 wants two indices")
        s1, s2 = (as_rational(x) for x in args.indices)
        g1, g2 = _signs(args.signs, 2) if args.signs else (1, 1)
        first, second = SignedIndex(s1, g1), SignedIndex(s2, g2)
        label = f"zeta[{first},{second}]"
        out.update(indices=[str(s1), str(s2)], signs=[g1, g2])
        if q is not None:
            info = q_zeta2_info(s1, g1, s2, g2, q=q, prec=prec)
            return _emit_numeric(args, out, f"zq[{first},{second}]", info, q)
        _require_ints("classical evaluation", s1, s2)
        if (s1 + s2) % 2 == 1:
            expr = double_euler_closed(s1, s2, g1, g2)
            return _emit_closed(args, out, label, expr, prec)
        note = f"no closed form, numeric only (even weight {s1 + s2})"
        with mp.workdps(prec.working_dps):
            value = classical_double_euler(first, second, prec)
        return _emit_plain_numeric(args, out, label, value, note)

    # qzeta
    if len(args.indices) != 1:
        raise DomainError("series qzeta wants one index")
    if q is None:
        raise DomainError("series qzeta requires --q")
    s = as_rational(args.indices[0])
    (g,) = _signs(args.signs, 1) if args.signs else (1,)
    out.update(indices=[str(s)], signs=[g])
    info = q_zeta1_info(s, g, q=q, prec=prec)
    return _emit_numeric(args, out, f"zq[{SignedIndex(s, g)}]", info, q)


def _emit_closed(args, out, label, expr, prec, provenance=None) -> int:
    with mp.workdps(prec.working_dps):
        value = expr_numeric(expr, prec)
        rendered_value = nstr(value, args.digits)
    if args.format == "json":
        out.update(route="closed-form", expression=expression_to_json(expr),
                   value=rendered_value, tail_bound=None)
        if provenance is not None:
            out["provenance"] = provenance
        _print_json(out)
    else:
        print(f"{label} = {expr.render()} ≈ {rendered_value}")
    return 0


def _emit_numeric(args, out, label, info, q) -> int:
    rendered = nstr(info.value, args.digits)
    if args.format == "json":
        out.update(route="numeric", q=str(q), expression=None,
                   value=rendered, tail_bound=_fmt_bound(info.tail_bound),
                   terms=info.terms)
        _print_json(out)
    else:
        print(f"{label}, q = {q} ≈ {rendered}")
        print(f"tail bound <= {_fmt_bound(info.tail_bound)} after {info.terms} terms")
    return 0


def _emit_plain_numeric(args, out, label, value, note) -> int:
    rendered = nstr(value, args.digits)
    if args.format == "json":
        out.update(route="numeric", q=None, expression=None, value=rendered,
                   tail_bound=None, note=note)
        _print_json(out)
    else:
        print(note)
        print(f"{label} ≈ {rendered}")
    return 0


# ----------------------------------------------------------------------
# reduce
# ----------------------------------------------------------------------

def cmd_reduce(args) -> int:
    r, s, t = as_rational(args.r), as_rational(args.s), as_rational(args.t)
    _require_ints("reduction", r, s)
    if args.classical:
        _require_ints("classical reduction", t)
        terms = corollary1_reduce(r, s, t, args.variant)
        if args.format == "json":
            _print_json({
                "variant": args.variant, "r": r, "s": s, "t": t,
                "terms": [
                    {"coeff": str(c), "outer": o.to_json(), "inner": i.to_json()}
                    for c, o, i in terms
                ],
            })
        else:
            body = " + ".join(
                (f"{c}*" if c != 1 else "") + f"zeta[{o},{i}]" for c, o, i in terms
            )
            print(f"{args.variant}[{r},{s},{t}] = {body}")
        return 0
    red = theorem1_reduce(r, s, t, args.variant)
    if args.format == "json":
        _print_json(reduction_to_json(red))
    else:
        print(red.render())
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _sweep(family: str, rows) -> int:
    """Print a PASS/FAIL line per (ok, detail) row and the summary; exit 3 on
    any failure.  Rows are all computed before anything is printed."""
    rows = list(rows)
    for ok, detail in rows:
        print(f"{'PASS' if ok else 'FAIL'} {family} {detail}")
    passed = sum(ok for ok, _ in rows)
    print(f"{family}: {passed}/{len(rows)} cases passed")
    return 0 if passed == len(rows) else 3


def _verify_lemma1(args):
    bound = args.max or 4
    uv = bound + 1
    for q in args.q or ["3/2", "2", "7/2"]:
        for r in range(1, bound + 1):
            for s in range(1, bound + 1):
                ok = all(
                    verify_lemma1(r, s, u, v, q)
                    for u in range(1, uv + 1)
                    for v in range(1, uv + 1)
                )
                yield ok, f"r={r} s={s} q={q} exact on {uv * uv} points"


def _verify_theorem1(args):
    bound = args.max or 3
    prec = PrecisionConfig(digits=args.digits)
    tol = _tolerance(args, mpf(10) ** -27)
    with mp.workdps(prec.working_dps):
        for q in args.q or ["3/2", "2", "3"]:
            for variant in ("T", "S", "R"):
                sigma, tau = VARIANT_SIGNS[variant]
                for r in range(1, bound + 1):
                    for s in range(1, bound + 1):
                        for t in (0, 1, 2, Fraction(1, 2)):
                            lhs = tornheim_q_info(r, s, t, sigma, tau, q, prec).value
                            rhs = evaluate_reduction(theorem1_reduce(r, s, t, variant), q, prec)
                            resid = abs(lhs - rhs)
                            yield (resid <= tol,
                                   f"{variant}[{r},{s},{t}] q={q} residual {_fmt_bound(resid)}")


def _verify_corollary1(args):
    """Depth-2 reduction against a direct float64 double sum.

    The direct sum truncates slowly, so this is a coarse cross-check; the
    sharp one is the closed-form route in verify table.
    """
    bound = args.max or 2
    tol = float(_tolerance(args, 2e-3))
    prec = PrecisionConfig(digits=20)
    for variant in ("T", "S", "R"):
        for r in range(1, bound + 1):
            for s in range(1, bound + 1):
                for t in range(1, bound + 1):
                    direct = tornheim_classical_naive(r, s, t, variant)
                    with mp.workdps(prec.working_dps):
                        reduced = float(tornheim_classical(r, s, t, variant, prec))
                    resid = abs(direct - reduced)
                    yield resid <= tol, f"{variant}[{r},{s},{t}] |direct - reduced| {resid:.2e}"


def _verify_corollary2(args):
    bound = args.max or 4
    prec = PrecisionConfig(digits=args.digits)
    tol = _tolerance(args, mpf(10) ** -27)
    with mp.workdps(prec.working_dps):
        for q in args.q or ["3/2", "2"]:
            for variant in ("T", "S", "R"):
                sigma, tau = VARIANT_SIGNS[variant]
                for r in range(1, bound + 1):
                    for s in range(1, bound + 1):
                        lhs = q_zeta1(r, sigma, q, prec) * q_zeta1(s, tau, q, prec)
                        rhs = evaluate_reduction(theorem1_reduce(r, s, 0, variant), q, prec)
                        resid = abs(lhs - rhs)
                        yield (resid <= tol,
                               f"zq[{SignedIndex(r, sigma)}]*zq[{SignedIndex(s, tau)}] "
                               f"q={q} residual {_fmt_bound(resid)}")


def _verify_corollary3(args):
    bound = args.max or 5
    prec = PrecisionConfig(digits=args.digits)
    tol = _tolerance(args, mpf(10) ** -24)
    with mp.workdps(prec.working_dps):
        for variant in ("T", "S", "R"):
            sigma, tau = VARIANT_SIGNS[variant]
            rlo = 2 if sigma == 1 else 1
            slo = 2 if tau == 1 else 1
            for r in range(rlo, bound + 1):
                for s in range(slo, bound + 1):
                    lhs = classical_zeta(r, sigma, prec) * classical_zeta(s, tau, prec)
                    terms = corollary1_reduce(r, s, 0, variant)
                    rhs = sum(
                        c * classical_double_euler(o, i, prec) for c, o, i in terms
                    )
                    resid = abs(lhs - rhs)
                    yield (resid <= tol,
                           f"zeta[{SignedIndex(r, sigma)}]*zeta[{SignedIndex(s, tau)}] "
                           f"residual {_fmt_bound(resid)}")


def _verify_table(args):
    prec = PrecisionConfig(digits=args.digits)
    tol = _tolerance(args, mpf(10) ** -24)
    for (variant, r, s, t), want in sorted(KNOWN_VALUES.items()):
        got = tornheim_closed(r, s, t, variant).expression
        exact_ok = got == want
        with mp.workdps(prec.working_dps):
            resid = abs(expr_numeric(got, prec) - tornheim_classical(r, s, t, variant, prec))
        yield (exact_ok and resid <= tol,
               f"{variant}[{r},{s},{t}] exact={'yes' if exact_ok else 'NO'} "
               f"numeric residual {_fmt_bound(resid)}")


def _verify_expr(args) -> int:
    if len(args.params) != 4:
        raise DomainError("verify expr wants: expr SERIES R S T --expression ...")
    series = args.params[0]
    r, s, t = (as_rational(x) for x in args.params[1:])
    _require_ints("verify expr", r, s, t)
    if args.expression is not None:
        blob = args.expression
    elif args.expression_file is not None:
        try:
            with open(args.expression_file, "r", encoding="utf-8") as fh:
                blob = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(f"cannot read expression file {args.expression_file!r}: {exc}")
    else:
        raise DomainError("verify expr needs --expression or --expression-file")
    try:
        expr = expression_from_json(json.loads(blob))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DomainError(f"cannot parse expression JSON: {exc}")
    prec = PrecisionConfig(digits=args.digits)
    tol = _tolerance(args, mpf(10) ** (-(args.digits - 3)))
    with mp.workdps(prec.working_dps):
        claimed = expr_numeric(expr, prec)
        reference = tornheim_classical(r, s, t, series, prec)
        resid = abs(claimed - reference)
    ok = resid <= tol
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} expr {series}[{r},{s},{t}]")
    print(f"  claimed   {nstr(claimed, args.digits)}")
    print(f"  reference {nstr(reference, args.digits)}")
    print(f"  |difference| {_fmt_bound(resid)} (tolerance {_fmt_bound(tol)})")
    return 0 if ok else 3


_SWEEPS = {
    "lemma1": _verify_lemma1,
    "theorem1": _verify_theorem1,
    "corollary1": _verify_corollary1,
    "corollary2": _verify_corollary2,
    "corollary3": _verify_corollary3,
    "table": _verify_table,
}


def cmd_verify(args) -> int:
    if args.max is not None and args.max < 1:
        raise DomainError(f"--max must be >= 1, got {args.max}")
    if args.q:
        args.q = [as_rational(q) for q in args.q]
    args.tolerance = as_rational(args.tolerance) if args.tolerance else None
    if args.family == "expr":
        return _verify_expr(args)
    return _sweep(args.family, _SWEEPS[args.family](args))


# ----------------------------------------------------------------------
# table
# ----------------------------------------------------------------------

def cmd_table(args) -> int:
    rows = closed_form_table(args.weight)
    if args.format == "json":
        _print_json([
            {"series": v, "r": r, "s": s, "t": t,
             "expression": expression_to_json(e)}
            for v, r, s, t, e in rows
        ])
        return 0
    for v, r, s, t, e in rows:
        print(f"{v}[{r},{s},{t}] = {e.render()}")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tornheim",
        description="Evaluate and verify Tornheim double series and their q-analogs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a series")
    p_eval.add_argument("series", choices=["T", "S", "R", "zeta2", "qzeta"])
    p_eval.add_argument("indices", nargs="+", help="r s t / s1 s2 / s")
    p_eval.add_argument("--q", help="base of the q-analog, rational > 1")
    p_eval.add_argument("--digits", type=int, default=30)
    p_eval.add_argument("--max-terms", type=int, dest="max_terms",
                        help="summation budget before a precision failure")
    p_eval.add_argument("--signs", help="one of +-/-+/++/-- per index slot; "
                                        "use --signs=-+ when leading with minus")
    p_eval.add_argument("--format", choices=["human", "json"], default="human")
    p_eval.set_defaults(func=cmd_eval)

    p_red = sub.add_parser("reduce", help="print a reduction as a term list")
    p_red.add_argument("variant", choices=["T", "S", "R"])
    p_red.add_argument("r")
    p_red.add_argument("s")
    p_red.add_argument("t", help="integer or rational like 1/2")
    p_red.add_argument("--classical", action="store_true",
                       help="depth-2 limit instead of the q-analog reduction")
    p_red.add_argument("--format", choices=["human", "json"], default="human")
    p_red.set_defaults(func=cmd_reduce)

    p_ver = sub.add_parser("verify", help="run an identity sweep")
    p_ver.add_argument("family", choices=sorted([*_SWEEPS, "expr"]))
    p_ver.add_argument("params", nargs="*",
                       help="for expr: SERIES R S T")
    p_ver.add_argument("--max", type=int, help="index sweep bound")
    p_ver.add_argument("--q", action="append",
                       help="q value, repeatable; family default otherwise")
    p_ver.add_argument("--digits", type=int, default=30)
    p_ver.add_argument("--tolerance", help="override the family tolerance")
    p_ver.add_argument("--expression", help="expression JSON (verify expr)")
    p_ver.add_argument("--expression-file", help="path to expression JSON")
    p_ver.set_defaults(func=cmd_verify)

    p_tab = sub.add_parser("table", help="odd-weight closed forms up to a bound")
    p_tab.add_argument("--weight", type=int, required=True,
                       help="odd total weight bound, at most 15")
    p_tab.add_argument("--format", choices=["human", "json"], default="human")
    p_tab.set_defaults(func=cmd_table)

    return parser


def _protect_sign_values(argv: list[str]) -> list[str]:
    """Escape --signs=... values: argparse eats a bare '--' even after '='."""
    prefix = "--signs="
    return [
        prefix + tok[len(prefix):].replace("+", "p").replace("-", "m")
        if tok.startswith(prefix) else tok
        for tok in argv
    ]


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_protect_sign_values(argv))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; send what is still buffered to devnull so
        # the flush at exit cannot fail again (Python's signal module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except TornheimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
