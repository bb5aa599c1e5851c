"""Write the reference values that ``run.py`` reports ``identities.ref_drift`` against.

    python3 perfbench/make_refs.py [workload ...]

For every point of a workload's seed-0 grid, stores whether its check passed
and, for equality and limit checks, the lhs and rhs, as computed by the
checked-out package, in ``perfbench/refs/<workload>.json``.  The committed files were made at the
commit that added the benchmark; regenerate them only on purpose, since later
changes are meant to be measured against them.
"""
from __future__ import annotations

import json
import sys

from run import HERE, import_package, run_pass
from workloads import WORKLOADS, make_grid


def main(names):
    pkg = import_package()
    cases = pkg.identities.catalog()
    for name in names or sorted(WORKLOADS):
        grid = make_grid(WORKLOADS[name], 0, cases)
        contexts = {q: pkg.qcore.QContext(q=complex(q)) for q in {p[3] for p in grid}}
        result = run_pass(pkg, grid, contexts)
        out = []
        for (cid, M, seed, q), row, (lhs, rhs) in zip(grid, result["rows"], result["values"]):
            rec = {"id": cid, "M": M, "seed": seed, "q": q, "pass": row["pass"]}
            if cases[cid].kind in ("equality", "limit") and None not in (lhs, rhs):
                rec["lhs"], rec["rhs"] = [lhs.real, lhs.imag], [rhs.real, rhs.imag]
            out.append(rec)
        path = HERE / "refs" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text("[\n" + ",\n".join(json.dumps(rec) for rec in out) + "\n]\n")
        print(f"{path.name}: {len(out)} points, {sum('lhs' in r for r in out)} with values")


if __name__ == "__main__":
    main(sys.argv[1:])
