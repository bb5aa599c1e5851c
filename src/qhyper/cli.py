"""Command-line front door: list the identity catalog, run verification
suites, and evaluate individual series/integrals from JSON parameter files.

Exit codes: 0 = everything passed, 1 = at least one check failed,
2 = configuration or evaluation error (bad flags, unknown id, no checks
selected, bad params).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field, replace

from .errors import QHyperError
from .identities import catalog, default_context, run_suite
from .jackson import BalancedParams, JPParams, jp_integral, rp_integral
from .qcore import QContext
from .series import KajiharaParams, QALParams, W_normalized, kajihara_W, phi_D, rphis, vwp_W


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


@dataclass
class RunConfig:
    """Everything a verify run needs; round-trips through to_args()."""

    ids: list = field(default_factory=lambda: ["all"])
    seeds: list = field(default_factory=lambda: [0, 1, 2])
    M_values: list = field(default_factory=lambda: [1, 2, 3])
    q: complex = 0.5 + 0.0j
    tol: float = None
    shells: int = None
    out: str = None
    format: str = "human"

    def to_args(self):
        args = ["--ids", ",".join(self.ids)]
        args += ["--seeds", f"{min(self.seeds)}..{max(self.seeds)}"]
        args += ["--m", ",".join(str(m) for m in self.M_values)]
        args += ["--q", f"{self.q.real:.17g},{self.q.imag:.17g}"]
        if self.tol is not None:
            args += ["--tol", f"{self.tol:.17g}"]
        if self.shells is not None:
            args += ["--shells", str(self.shells)]
        if self.out is not None:
            args += ["--out", self.out]
        args += ["--format", self.format]
        return args


def _config_from_args(args):
    return RunConfig(
        ids=[tok for tok in args.ids.split(",") if tok.strip()],
        seeds=_parse_seeds(args.seeds),
        M_values=_parse_m(args.m),
        q=_parse_q(args.q),
        tol=args.tol,
        shells=args.shells,
        out=args.out,
        format=args.format,
    )


def _context_for(cfg):
    ctx = default_context()
    ctx = replace(ctx, q=cfg.q)
    if cfg.shells is not None:
        ctx = replace(ctx, series_shell_cap=cfg.shells)
    return ctx


def _add_run_flags(sub):
    sub.add_argument("--seeds", default="0..2", help="seed range A..B (inclusive) or a single seed")
    sub.add_argument("--m", default="1,2,3", help="comma-separated list of M values")
    sub.add_argument("--q", default="0.5", help="base q as RE or RE,IM (|q| < 1)")
    sub.add_argument("--tol", type=float, default=None,
                     help="override the pass/fail tolerance of every case")
    sub.add_argument("--shells", type=int, default=None, help="override the series shell cap")
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")
    sub.add_argument("--format", default="human", choices=("json", "csv", "human"))


def _rows(reports):
    return [r.to_dict() for r in reports]


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


def cmd_verify(cfg: RunConfig) -> int:
    known = catalog()
    ids = sorted(known) if cfg.ids == ["all"] else cfg.ids
    for cid in ids:
        if cid not in known:
            print(f"error: unknown identity id: {cid}", file=sys.stderr)
            return 2
    try:
        ctx = _context_for(cfg)
        reports = run_suite(ids, cfg.seeds, cfg.M_values, ctx)
    except (QHyperError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not reports:  # an empty selection is a configuration error, not a pass
        print("error: no checks selected", file=sys.stderr)
        return 2
    if cfg.tol is not None:
        for rep in reports:
            rep.passed = math.isfinite(rep.rel_error) and rep.rel_error <= cfg.tol
    rows = _rows(reports)
    text = _FORMATTERS[cfg.format](rows)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
        print(_summary_line(rows))
    else:
        sys.stdout.write(text)
    return 0 if all(r["pass"] for r in rows) else 1


# eval target schemas: field -> "complex" | "complex_list" | "int"
_EVAL_SCHEMAS = {
    "kajihara_W": {"x": "complex_list", "a": "complex", "u": "complex_list",
                   "v": "complex_list", "z": "complex"},
    "phi_D": {"A": "complex", "B": "complex_list", "C": "complex", "x": "complex_list"},
    "rp_integral": {"a": "complex_list", "b": "complex_list", "i": "int", "j": "int"},
    "jp_integral": {"alpha_power": "complex", "A": "complex", "B": "complex",
                    "a": "complex_list", "b": "complex_list", "tau": "complex", "x": "complex"},
    "rphis": {"upper": "complex_list", "lower": "complex_list", "z": "complex"},
    "vwp_W": {"a": "complex", "b": "complex_list", "z": "complex"},
    "W_normalized": {"a": "complex_list", "b": "complex_list"},
}


class SchemaError(ValueError):
    pass


def _as_complex(raw, name):
    if isinstance(raw, (int, float)):
        return complex(raw, 0.0)
    if (isinstance(raw, list) and len(raw) == 2
            and all(isinstance(v, (int, float)) for v in raw)):
        return complex(raw[0], raw[1])
    raise SchemaError(f"field '{name}': expected a number or [re, im]")


def _coerce_params(target, raw):
    schema = _EVAL_SCHEMAS[target]
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


def _run_eval(target, p, ctx):
    """Returns (value, shells_used, converged); shells is None for integrals."""
    if target == "kajihara_W":
        res = kajihara_W(KajiharaParams(x=p["x"], a=p["a"], u=p["u"], v=p["v"], z=p["z"]), ctx)
    elif target == "phi_D":
        res = phi_D(QALParams(A=p["A"], B=p["B"], C=p["C"], x=p["x"]), ctx)
    elif target == "rphis":
        res = rphis(list(p["upper"]), list(p["lower"]), p["z"], ctx)
    elif target == "vwp_W":
        res = vwp_W(p["a"], list(p["b"]), p["z"], ctx)
    elif target == "W_normalized":
        res = W_normalized(BalancedParams(a=p["a"], b=p["b"]), ctx)
    elif target == "rp_integral":
        val = rp_integral(BalancedParams(a=p["a"], b=p["b"]), p["i"], p["j"], ctx)
        return val, None, True
    elif target == "jp_integral":
        jp = JPParams(alpha_power=p["alpha_power"], A=p["A"], B=p["B"],
                      a=p["a"], b=p["b"], tau=p["tau"])
        return jp_integral(jp, p["x"], ctx), None, True
    else:
        raise SchemaError(f"unknown eval target: {target}")
    return res.value, res.shells_used, res.converged


def cmd_eval(target, params_path, cfg: RunConfig) -> int:
    if target not in _EVAL_SCHEMAS:
        known = ", ".join(sorted(_EVAL_SCHEMAS))
        print(f"error: unknown eval target: {target} (expected one of {known})", file=sys.stderr)
        return 2
    try:
        with open(params_path) as fh:
            raw = json.load(fh)
        params = _coerce_params(target, raw)
    except (OSError, json.JSONDecodeError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        ctx = _context_for(cfg)
        if cfg.tol is not None:
            ctx = replace(ctx, rel_tol=cfg.tol)
        value, shells, converged = _run_eval(target, params, ctx)
    except (QHyperError, ValueError, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    payload = {"value": [value.real, value.imag]}
    if shells is not None:
        payload["shells_used"] = shells
    payload["converged"] = bool(converged)
    if cfg.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"value = {value.real:.15g} {value.imag:+.15g}j"]
        if shells is not None:
            lines.append(f"shells_used = {shells}")
        lines.append(f"converged = {'true' if converged else 'false'}")
        text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qhyper",
        description="evaluate q-hypergeometric series/integrals and verify the identity catalog",
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="print the identity catalog")

    ver = subparsers.add_parser("verify", help="run identity checks and report pass/fail")
    ver.add_argument("--ids", default="all", help='comma-separated identity ids, or "all"')
    _add_run_flags(ver)

    ev = subparsers.add_parser("eval", help="evaluate one function from a JSON params file")
    ev.add_argument("target", help=", ".join(sorted(_EVAL_SCHEMAS)))
    ev.add_argument("params", help="path to a JSON object; complex numbers as [re, im]")
    _add_run_flags(ev)

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "list":
        sys.stdout.write(cmd_list())
        return 0
    try:
        cfg = _config_from_args(args if args.command == "verify" else _with_ids(args))
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if abs(cfg.q) >= 1.0:
        print(f"error: --q needs |q| < 1, got |q| = {abs(cfg.q):.6g}", file=sys.stderr)
        return 2
    if cfg.tol is not None and not (math.isfinite(cfg.tol) and cfg.tol > 0.0):
        print(f"error: --tol needs a finite number > 0, got {cfg.tol}", file=sys.stderr)
        return 2
    if args.command == "verify":
        return cmd_verify(cfg)
    return cmd_eval(args.target, args.params, cfg)


def _with_ids(args):
    # eval shares the run flags but has no --ids
    args.ids = "all"
    return args


if __name__ == "__main__":
    sys.exit(main())
