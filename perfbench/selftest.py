"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/selftest.py

The repeat test runs every workload traced twice, two processes at a time;
it takes about three minutes on two cores.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, make_grid  # noqa: E402

PKG = run.import_package()
CASES = PKG.identities.catalog()
DEFAULT_CHECKS = {"catalog": 225, "lattice": 380, "series_small": 1260}
COUNT_METRICS = (
    "series.calls", "series.shells", "series.terms.M1", "series.terms.M2", "series.terms.M3",
    "jackson.calls", "qcore.calls", "operators.residual_calls", "operators.memo_lookups",
    "operators.memo_misses", "identities.draws",
)


def _bench(workload, seed):
    """Start one traced run of the benchmark command."""
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, cwd=HERE.parent)


def _result(proc):
    out, _ = proc.communicate(timeout=600)
    assert proc.returncode == 0, out[-2000:]
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_grid_size_and_seed(workload):
    grid = make_grid(WORKLOADS[workload], 0, CASES)
    assert len(grid) == DEFAULT_CHECKS[workload]
    assert make_grid(WORKLOADS[workload], 0, CASES) == grid
    other = make_grid(WORKLOADS[workload], 1, CASES)
    assert len(other) == len(grid) and set(other) != set(grid)


def test_catalog_default_seed_is_verify_all():
    # `qhyper verify --ids all`: seeds 0..2, M 1..3, q = 0.5, in run_suite's order
    expected = [(c, M, s, 0.5) for c in sorted(CASES) for M in (1, 2, 3)
                if M in CASES[c].M_range for s in (0, 1, 2)]
    assert make_grid(WORKLOADS["catalog"], 0, CASES) == expected


def test_known_q07_failure_stays_in_lattice_grid():
    assert ("qrp.system", 2, 1, 0.7) in make_grid(WORKLOADS["lattice"], 0, CASES)


def test_refs_cover_every_default_point():
    refs = run.load_refs()
    for name in WORKLOADS:
        grid = make_grid(WORKLOADS[name], 0, CASES)
        assert all(p in refs for p in grid), name
        valued = [p for p in grid if CASES[p[0]].kind in ("equality", "limit")]
        assert valued and all("lhs" in refs[p] for p in valued if refs[p]["pass"]), name


def test_escaped_exception_counts_as_failed_check():
    def broken(*args):
        raise TypeError("boom")

    row, values, seconds = run.check_one(broken, ("heine.m1", 1, 0, 0.5), None)
    assert row["pass"] is False and "TypeError" in row["reason"]
    assert values == (None, None) and seconds >= 0.0


def test_changed_row_is_an_error():
    rows = [{"id": "a", "pass": True}]
    run.compare_rows(rows, [dict(rows[0])], "same")
    with pytest.raises(run.BenchError):
        run.compare_rows(rows, [{"id": "a", "pass": False}], "changed")


def test_self_time_within_wall_time():
    grid = make_grid(WORKLOADS["lattice"], 0, CASES)[::19]
    contexts = {q: PKG.qcore.QContext(q=complex(q)) for q in (0.5, 0.7)}
    tracer = Tracer(PKG)
    plain, traced = run.run_pass(PKG, grid, contexts, tracer)
    assert traced["rows"] == plain["rows"]
    own = tracer.self_times()
    assert min(own) > -1e-6
    layers = tracer.summary(PKG.errors.QHyperError)["self_s"]
    assert sum(layers.values()) <= traced["wall"]
    assert layers.get("jackson", 0.0) > 0.0 and layers.get("operators", 0.0) > 0.0
    # every wrapper is gone again after the traced checks
    assert PKG.identities.rp_integral is PKG.jackson.rp_integral


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_between_runs(workload):
    first, second = _bench(workload, 0), _bench(workload, 0)
    a, b = _result(first), _result(second)
    assert a["attempted"] == b["attempted"] == DEFAULT_CHECKS[workload]
    assert a["failed"] == b["failed"] and a["correct"] and b["correct"]
    for name in COUNT_METRICS:
        assert a["metrics"][name] == b["metrics"][name], name
    assert 0.0 < a["metrics"]["trace.coverage"]["value"] <= 1.0
