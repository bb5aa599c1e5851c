"""Benchmark of the qhyper identity catalog, run through ``qhyper.identities.check``.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ``src/``.
The seed picks the grid of (case id, M, catalog seed, q) points (see
``workloads.py``).  A run sets up, then checks every grid point once per pass
for as many whole passes as fit in ``--seconds`` (at least one).  Every pass
after the first must reproduce the first pass's report rows exactly.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` checks every point
twice per pass, untraced and traced by ``tracing.py``, and prints the
per-layer metrics; the spans of the first traced pass go to ``perfbench/out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import os

# one thread: BLAS pools would only add noise to these tiny matrices
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, make_grid  # noqa: E402

SETUP_REPEATS = 7
# a fresh interpreter doing what `qhyper verify` does before its first check
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import qhyper.cli; "
    "from qhyper.qcore import QContext; QContext(q=0.5); print('ready', flush=True)"
)


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def measure_setup():
    """Median wall time from process start to a usable QContext, over fresh
    interpreters (imports are cached within one process, so each sample
    needs its own)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)],
                                stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != b"ready" or code != 0:
            raise BenchError(f"set-up process failed (exit code {code})")
        samples.append(t1 - t0)
    return statistics.median(samples)


def import_package():
    sys.path.insert(0, str(SRC))
    import qhyper.identities
    import qhyper.operators

    if Path(qhyper.__file__).resolve().parent != SRC / "qhyper":
        raise BenchError(f"imported qhyper from {qhyper.__file__}, not from {SRC}")
    return qhyper


def check_one(check, point, ctx, tracer=None):
    """(report row, (lhs, rhs), seconds) of one grid point, traced or not."""
    cid, M, cseed, q = point
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rep = check(cid, cseed, M, ctx)
        else:
            with tracer:
                rep = tracer.call("identities", "check", check, cid, cseed, M, ctx)
        row, values = rep.to_dict(), (rep.lhs, rep.rhs)
    except Exception as exc:  # an error that escapes check() is a failed check
        row = {"id": cid, "seed": cseed, "M": M, "q": [q, 0.0], "rel_error": None,
               "pass": False, "reason": f"escaped check(): {type(exc).__name__}: {exc}"}
        values = (None, None)
    return row, values, time.perf_counter() - t0


def run_pass(pkg, grid, contexts, tracer=None):
    """Check every grid point once; returns {"rows", "values", "times", "wall"}.

    With a tracer, every point is also checked traced, right before or after
    its untraced check (alternating), so that drifts in host speed cancel in
    the tracing overhead; the traced results come back as a second pass.
    """
    check = pkg.identities.check
    plain = {"rows": [], "values": [], "times": []}
    traced = {"rows": [], "values": [], "times": []}
    gc.collect()
    start = time.perf_counter()
    for i, point in enumerate(grid):
        sides = [(plain, None)] if tracer is None else [(plain, None), (traced, tracer)]
        for side, tr in sides if i % 2 == 0 else sides[::-1]:
            row, values, seconds = check_one(check, point, contexts[point[3]], tr)
            side["rows"].append(row)
            side["values"].append(values)
            side["times"].append(seconds)
    plain["wall"] = time.perf_counter() - start
    if tracer is None:
        return plain
    for side in (plain, traced):
        side["wall"] = sum(side["times"])
    return plain, traced


def compare_rows(first, other, label):
    if first != other:
        bad = next((pair for pair in zip(first, other) if pair[0] != pair[1]), None)
        raise BenchError(f"{label} differs from the first pass: {bad or 'row counts differ'}")


def load_refs():
    """Reference records keyed by grid point, from every refs file."""
    refs = {}
    for path in sorted((HERE / "refs").glob("*.json")):
        for rec in json.loads(path.read_text()):
            refs[(rec["id"], rec["M"], rec["seed"], rec["q"])] = rec
    return refs


def compare_refs(pkg, grid, first, refs):
    """Compare a pass with the reference records of its points.

    Returns (worst relative drift of any lhs or rhs, points compared, values
    that drifted by more than their case's tolerance, points whose check
    passed at the reference commit and fails now).
    """
    cases = pkg.identities.catalog()
    worst, compared, beyond, regressed = 0.0, 0, [], []
    for point, row, values in zip(grid, first["rows"], first["values"]):
        rec = refs.get(point)
        if rec is None:
            continue
        compared += 1
        if rec["pass"] and not row["pass"]:
            regressed.append(point)
        if "lhs" not in rec or None in values:
            continue
        ref = (complex(*rec["lhs"]), complex(*rec["rhs"]))
        drift = max(abs(v - r) / max(abs(r), 1e-300) for v, r in zip(values, ref))
        worst = max(worst, drift)
        if drift > cases[point[0]].tolerance:
            beyond.append((point, drift))
    return worst, compared, beyond, regressed


def end_to_end(grid, passes, setup_s, failed):
    """Metrics of untraced passes: medians over passes, per check then over the grid."""
    per_point = [statistics.median(p["times"][i] for p in passes) for i in range(len(grid))]
    pass_s = statistics.median(p["wall"] for p in passes)
    return {
        "setup_s": (setup_s, "s"),
        "checks_per_s": (len(grid) / pass_s, "1/s"),
        "check_p50_ms": (1e3 * statistics.median(per_point), "ms"),
        "check_p95_ms": (1e3 * statistics.quantiles(per_point, n=20, method="inclusive")[18],
                         "ms"),
        "pass_frac": (1.0 - failed / len(grid), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(summaries, plain_s, traced_s, drift):
    """Metrics of traced passes: counts from the first, times as medians."""
    first = summaries[0]

    def med(get):
        return statistics.median(get(s) for s in summaries)

    def layer_self(layer):
        return med(lambda s: s["self_s"].get(layer, 0.0))

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer in ("series", "jackson", "operators", "qcore", "identities"):
        out[f"{layer}.self_s"] = (layer_self(layer), "s")
    for layer in ("series", "jackson", "qcore"):
        out[f"{layer}.calls"] = (first["calls"].get(layer, 0), "count")
    out["series.shells"] = (first["series_shells"], "count")
    for m in ("M1", "M2", "M3"):
        terms = first["dim_terms"].get(m, 0)
        dim_s = med(lambda s: s["dim_self_s"].get(m, 0.0))
        out[f"series.terms.{m}"] = (terms, "count")
        out[f"series.terms_per_s.{m}"] = (ratio(terms, dim_s), "1/s")
        out[f"series.ms_per_call.{m}"] = (1e3 * ratio(dim_s, first["dim_calls"].get(m, 0)), "ms")
    out["series.converged_frac"] = (ratio(first["series_converged"], first["series_results"]),
                                    "ratio")
    out["series.raised"] = (first["raised"].get("series", 0), "count")
    out["jackson.ms_per_call"] = (1e3 * ratio(layer_self("jackson"),
                                              first["calls"].get("jackson", 0)), "ms")
    out["jackson.raised"] = (first["raised"].get("jackson", 0), "count")
    counts = first["counts"]
    out["operators.residual_calls"] = (int(counts.get("residual_calls", 0)), "count")
    lookups, misses = first["memo_lookups"], int(counts.get("memo_misses", 0))
    out["operators.memo_lookups"] = (lookups, "count")
    out["operators.memo_misses"] = (misses, "count")
    out["operators.memo_hit_frac"] = (ratio(lookups - misses, lookups), "ratio")
    out["identities.draws"] = (int(counts.get("draws", 0)), "count")
    out["identities.draw_s"] = (med(lambda s: s["counts"].get("draw_s", 0.0)), "s")
    out["identities.ref_drift"] = (drift, "rel")
    total_self = med(lambda s: sum(s["self_s"].values()))
    traced = statistics.median(traced_s)
    out["trace.overhead_frac"] = (traced / statistics.median(plain_s) - 1.0, "ratio")
    out["trace.coverage"] = (total_self / traced, "ratio")
    return out


def run(workload, seed, seconds, trace):
    if not (SRC / "qhyper" / "identities.py").is_file():
        raise BenchError(f"no qhyper sources under {SRC}")
    setup_s = None if trace else measure_setup()
    pkg = import_package()

    cases = pkg.identities.catalog()
    grid = make_grid(WORKLOADS[workload], seed, cases)
    contexts = {q: pkg.qcore.QContext(q=complex(q)) for q in {p[3] for p in grid}}
    refs = load_refs()

    deadline = time.perf_counter() + seconds
    plain, traced, summaries = [], [], []
    tracer_out = None
    while True:
        if trace:
            tracer = Tracer(pkg)
            p, t = run_pass(pkg, grid, contexts, tracer)
            compare_rows(p["rows"], t["rows"], f"traced pass {len(traced) + 1}")
            summary = tracer.summary(pkg.errors.QHyperError)
            if summaries:
                for key in ("calls", "series_shells", "dim_terms", "memo_lookups"):
                    if summary[key] != summaries[0][key]:
                        raise BenchError(f"traced pass {len(traced) + 1}: {key} differs")
            else:
                tracer_out = tracer
            summaries.append(summary)
            traced.append(t)
        else:
            p = run_pass(pkg, grid, contexts)
        plain.append(p)
        if len(plain) > 1:
            compare_rows(plain[0]["rows"], p["rows"], f"pass {len(plain)}")
        # start another pass only if it is expected to end by the deadline
        if time.perf_counter() + p["wall"] + (t["wall"] if trace else 0.0) > deadline:
            break

    first = plain[0]
    rechecked = 0
    if len(plain) == 1 and not trace:
        # one pass fitted: re-check the M = 1 points of the first catalog seed,
        # which cover every case id of the grid
        m1 = [i for i, point in enumerate(grid) if point[1] == 1]
        lowest = min(grid[i][2] for i in m1)
        idx = [i for i in m1 if grid[i][2] == lowest]
        again = run_pass(pkg, [grid[i] for i in idx], contexts)
        compare_rows([first["rows"][i] for i in idx], again["rows"], "re-check")
        rechecked = len(idx)

    failed_rows = [row for row in first["rows"] if not row["pass"]]
    drift, compared, beyond, regressed = compare_refs(pkg, grid, first, refs)

    print(f"workload {workload}  seed {seed}  grid {len(grid)} checks")
    print(f"passes: {len(plain)} untraced {[round(p['wall'], 3) for p in plain]} s, "
          f"{len(traced)} traced {[round(t['wall'], 3) for t in traced]} s; "
          f"re-checked {rechecked} points; all repeats identical")
    print(f"check time samples: {len(grid)} grid points "
          f"(median over {len(plain)} untraced passes each)")
    print(f"failed checks: {len(failed_rows)} of {len(grid)}")
    for row in failed_rows:
        print(f"  FAIL {json.dumps(row)}")
    print(f"reference records: {compared} points compared, worst value drift {drift:.3e}, "
          f"{len(beyond)} values beyond their case tolerance, "
          f"{len(regressed)} checks that passed there and fail now")
    for point, d in beyond:
        print(f"  DRIFT {point} {d:.3e}")
    for point in regressed:
        print(f"  REGRESSED {point}")

    if trace:
        metrics = per_layer(summaries, [p["wall"] for p in plain],
                            [t["wall"] for t in traced], drift)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer_out.write(out_dir / f"spans_{workload}_{seed}.jsonl")
    else:
        metrics = end_to_end(grid, plain, setup_s, len(failed_rows))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    return {
        "correct": not regressed,
        "attempted": len(grid),
        "failed": len(failed_rows),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
