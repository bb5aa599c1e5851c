"""Command-line front door: list the identity catalog, run verification
suites, and evaluate individual series/integrals from JSON parameter files.

Exit codes: 0 = everything passed, 1 = at least one check failed (verify)
or the series did not converge within its shell cap (eval, which still prints
the capped value), 2 = configuration or evaluation error (bad flags, unknown
id, no checks selected, bad params, --shells for an integral target, an --out
file that cannot be written; verify opens it, emptied, before any check runs).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace

from .errors import QHyperError
from .identities import catalog, default_context, run_suite
from .jackson import BalancedParams, JPParams, jp_integral, rp_integral
from .qcore import QContext
from .series import (KajiharaParams, QALParams, SeriesResult, W_normalized, kajihara_W, phi_D,
                     rphis, vwp_W)


def _parse_q(text):
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"--q expects RE or RE,IM, got {text!r}")


def _parse_seeds(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        a, b = int(lo), int(hi)
        if b < a:
            raise ValueError(f"--seeds range is empty: {text!r}")
        return list(range(a, b + 1))
    return [int(text)]


def _parse_m(text):
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _context(args):
    """The QContext of --q, --shells and, for eval, --tol as rel_tol."""
    q = _parse_q(args.q)
    if abs(q) >= 1.0:
        raise ValueError(f"--q needs |q| < 1, got |q| = {abs(q):.6g}")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ValueError(f"--tol needs a finite number > 0, got {args.tol}")
    ctx = replace(default_context(), q=q)
    if args.shells is not None:
        ctx = replace(ctx, series_shell_cap=args.shells)
    if args.command == "eval" and args.tol is not None:
        ctx = replace(ctx, rel_tol=args.tol)
    return ctx


def _write(text, out):
    """Write text to the file out, or to stdout if out is empty; False if out cannot be written."""
    if not out:
        sys.stdout.write(text)
        return True
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _format_json(rows):
    return json.dumps(rows, indent=2) + "\n"


def _format_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "seed", "M", "q_re", "q_im", "rel_error", "pass", "reason"])
    for row in rows:
        rel = row["rel_error"]
        writer.writerow([
            row["id"], row["seed"], row["M"],
            repr(row["q"][0]), repr(row["q"][1]),
            "" if rel is None else repr(rel),
            "true" if row["pass"] else "false",
            row.get("reason", ""),
        ])
    return buf.getvalue()


def _summary_line(rows):
    npass = sum(1 for r in rows if r["pass"])
    nfail = len(rows) - npass
    worst = max((r["rel_error"] for r in rows if r["rel_error"] is not None), default=float("nan"))
    return f"{npass} pass / {nfail} fail / worst rel_error {worst:.3e}"


def _format_human(rows):
    lines = [f"{'id':<24} {'M':>2} {'seed':>4} {'rel_error':>12}  status"]
    for row in rows:
        rel = row["rel_error"]
        rel_text = f"{rel:.3e}" if rel is not None else "---"
        status = "pass" if row["pass"] else "FAIL"
        if row.get("reason"):
            status += f"  {row['reason']}"
        lines.append(f"{row['id']:<24} {row['M']:>2} {row['seed']:>4} {rel_text:>12}  {status}")
    lines.append(_summary_line(rows))
    return "\n".join(lines) + "\n"


_FORMATTERS = {"json": _format_json, "csv": _format_csv, "human": _format_human}


def cmd_list():
    cases = catalog()
    lines = []
    for cid in sorted(cases):
        case = cases[cid]
        m_text = ",".join(str(m) for m in case.M_range)
        lines.append(f"{cid:<24} {case.kind:<9} M={m_text:<6} {case.note}")
    return "\n".join(lines) + "\n"


def cmd_verify(args, ctx: QContext) -> int:
    known = catalog()
    try:
        seeds, Ms = _parse_seeds(args.seeds), _parse_m(args.m)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ids = [tok for tok in args.ids.split(",") if tok.strip()]
    ids = sorted(known) if ids == ["all"] else ids
    for cid in ids:
        if cid not in known:
            print(f"error: unknown identity id: {cid}", file=sys.stderr)
            return 2
    if args.out and not _write("", args.out):  # fail before the checks run
        return 2
    try:
        reports = run_suite(ids, seeds, Ms, ctx)
    except (QHyperError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not reports:  # an empty selection is a configuration error, not a pass
        print("error: no checks selected", file=sys.stderr)
        return 2
    if args.tol is not None:
        for rep in reports:
            rep.passed = math.isfinite(rep.rel_error) and rep.rel_error <= args.tol
    rows = [r.to_dict() for r in reports]
    if not _write(_FORMATTERS[args.format](rows), args.out):
        return 2
    if args.out:
        print(_summary_line(rows))
    return 0 if all(r["pass"] for r in rows) else 1


# eval target -> (schema: field -> "complex" | "complex_list" | "int",
#                 evaluator(params, ctx) -> SeriesResult or complex)
_EVAL = {
    "kajihara_W": ({"x": "complex_list", "a": "complex", "u": "complex_list",
                    "v": "complex_list", "z": "complex"},
                   lambda p, ctx: kajihara_W(KajiharaParams(**p), ctx)),
    "phi_D": ({"A": "complex", "B": "complex_list", "C": "complex", "x": "complex_list"},
              lambda p, ctx: phi_D(QALParams(**p), ctx)),
    "rp_integral": ({"a": "complex_list", "b": "complex_list", "i": "int", "j": "int"},
                    lambda p, ctx: rp_integral(BalancedParams(a=p["a"], b=p["b"]),
                                               p["i"], p["j"], ctx)),
    "jp_integral": ({"alpha_power": "complex", "A": "complex", "B": "complex",
                     "a": "complex_list", "b": "complex_list", "tau": "complex", "x": "complex"},
                    lambda p, ctx: jp_integral(
                        JPParams(alpha_power=p["alpha_power"], A=p["A"], B=p["B"],
                                 a=p["a"], b=p["b"], tau=p["tau"]), p["x"], ctx)),
    "rphis": ({"upper": "complex_list", "lower": "complex_list", "z": "complex"},
              lambda p, ctx: rphis(list(p["upper"]), list(p["lower"]), p["z"], ctx)),
    "vwp_W": ({"a": "complex", "b": "complex_list", "z": "complex"},
              lambda p, ctx: vwp_W(p["a"], list(p["b"]), p["z"], ctx)),
    "W_normalized": ({"a": "complex_list", "b": "complex_list"},
                     lambda p, ctx: W_normalized(BalancedParams(**p), ctx)),
}


# targets that are Jackson lattice sums: they stop at 4 * infinite_product_cutoff
# points, and the series shell cap (--shells) does not reach them
_INTEGRALS = ("rp_integral", "jp_integral")


class SchemaError(ValueError):
    pass


def _as_complex(raw, name):
    parts = raw if isinstance(raw, list) and len(raw) == 2 else (raw, 0.0)
    # JSON true/false load as bool, which Python counts as an int
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        return complex(*parts)
    raise SchemaError(f"field '{name}': expected a number or [re, im]")


def _coerce_params(schema, raw):
    if not isinstance(raw, dict):
        raise SchemaError("params file must hold a JSON object")
    for name in schema:
        if name not in raw:
            raise SchemaError(f"missing required field '{name}'")
    for name in raw:
        if name not in schema:
            raise SchemaError(f"unknown field '{name}'")
    out = {}
    for name, kind in schema.items():
        val = raw[name]
        if kind == "int":
            if not isinstance(val, int) or isinstance(val, bool):
                raise SchemaError(f"field '{name}': expected an integer")
            out[name] = val
        elif kind == "complex":
            out[name] = _as_complex(val, name)
        else:
            if not isinstance(val, list):
                raise SchemaError(f"field '{name}': expected a list")
            out[name] = tuple(_as_complex(v, f"{name}[{k}]") for k, v in enumerate(val))
    return out


def cmd_eval(args, ctx: QContext) -> int:
    if args.target not in _EVAL:
        known = ", ".join(sorted(_EVAL))
        print(f"error: unknown eval target: {args.target} (expected one of {known})",
              file=sys.stderr)
        return 2
    if args.shells is not None and args.target in _INTEGRALS:
        print(f"error: --shells applies to series targets only, not {args.target}",
              file=sys.stderr)
        return 2
    schema, evaluate = _EVAL[args.target]
    try:
        with open(args.params) as fh:
            raw = json.load(fh)
        params = _coerce_params(schema, raw)
    except (OSError, json.JSONDecodeError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        res = evaluate(params, ctx)
    except (QHyperError, ValueError, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    # integrals return a bare value, and raise where they do not converge
    if isinstance(res, SeriesResult):
        value, shells, converged = res.value, res.shells_used, res.converged
    else:
        value, shells, converged = res, None, True
    if args.format == "json":
        payload = {"value": [value.real, value.imag]}
        if shells is not None:
            payload["shells_used"] = shells
        payload["converged"] = bool(converged)
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"value = {value.real:.15g} {value.imag:+.15g}j"]
        if shells is not None:
            lines.append(f"shells_used = {shells}")
        lines.append(f"converged = {'true' if converged else 'false'}")
        text = "\n".join(lines) + "\n"
    if not _write(text, args.out):
        return 2
    return 0 if converged else 1


def _add_context_flags(sub, tol_help, shells_help, formats, out_help):
    sub.add_argument("--q", default="0.5", help="base q as RE or RE,IM (|q| < 1)")
    sub.add_argument("--tol", type=float, default=None, help=tol_help)
    sub.add_argument("--shells", type=int, default=None, help=shells_help)
    sub.add_argument("--out", default=None, help=out_help)
    sub.add_argument("--format", default="human", choices=formats)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qhyper",
        description="evaluate q-hypergeometric series/integrals and verify the identity catalog",
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="print the identity catalog")

    ver = subparsers.add_parser("verify", help="run identity checks and report pass/fail")
    ver.add_argument("--ids", default="all", help='comma-separated identity ids, or "all"')
    ver.add_argument("--seeds", default="0..2", help="seed range A..B (inclusive) or a single seed")
    ver.add_argument("--m", default="1,2,3", help="comma-separated list of M values")
    _add_context_flags(
        ver, "pass/fail threshold on every check's rel_error, in place of each case's tolerance",
        "override the series shell cap (default 400)", ("json", "csv", "human"),
        "write the report here instead of stdout; stdout then gets the summary line")

    ev = subparsers.add_parser("eval", help="evaluate one function from a JSON params file")
    ev.add_argument("target", help=", ".join(sorted(_EVAL)))
    ev.add_argument("params", help="path to a JSON object; complex numbers as [re, im]")
    _add_context_flags(
        ev, "truncation threshold rel_tol: how small a shell or lattice term must be "
        "to count as negligible (default 1e-13)",
        "override the series shell cap (default 400); series targets only: "
        f"{', '.join(_INTEGRALS)} refuse it", ("json", "human"),
        "write the result here instead of stdout")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "list":
        sys.stdout.write(cmd_list())
        return 0
    try:
        ctx = _context(args)
    except (QHyperError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return cmd_verify(args, ctx) if args.command == "verify" else cmd_eval(args, ctx)


if __name__ == "__main__":
    sys.exit(main())
