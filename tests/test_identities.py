"""Tests for the identity catalog: every case verifies on a few seeds, the
samplers respect their own admissibility predicates, perturbed parameters
break every equality, and reruns are bit-for-bit deterministic."""

import cmath
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import qhyper
from qhyper import identities
from qhyper.errors import QHyperError, SamplerExhausted
from qhyper.identities import (
    CheckReport,
    IdentityCase,
    catalog,
    check,
    default_context,
    lookup,
    perturb_params,
    rel_error,
    run_suite,
    sample_balanced,
)
from qhyper.jackson import BalancedParams, rp_integral
from qhyper.operators import LatticeFunction, build_EM_hat, residual
from qhyper.qcore import QContext, qpoch_infinite
from qhyper.identities import _clear, _phi_lattice, _rng_for

CTX = default_context()

ALL_IDS = sorted(catalog())


def test_catalog_size_and_ids():
    assert len(ALL_IDS) == 33
    assert "bailey.integral" in ALL_IDS
    assert lookup("bailey.integral").M_range == (1,)


def test_lookup_unknown():
    with pytest.raises(ValueError, match="unknown identity id: nope.nope"):
        lookup("nope.nope")


@pytest.mark.parametrize("case_id", ALL_IDS)
def test_every_case_passes(case_id):
    case = lookup(case_id)
    for M in case.M_range:
        for seed in (0, 1):
            rep = check(case_id, seed, M, CTX)
            assert rep.passed, (case_id, M, seed, rep.rel_error, rep.reason)


def test_terminating_cases_tight():
    # terminating sums must agree essentially to machine precision
    for case_id in ("kajihara.transform", "kajihara.WM3"):
        case = lookup(case_id)
        assert case.tolerance <= 1e-12
        for M in case.M_range:
            for seed in range(6):
                rep = check(case_id, seed, M, CTX)
                assert rep.passed and rep.rel_error <= 1e-12, (case_id, M, seed)


@pytest.mark.parametrize("case_id", ALL_IDS)
def test_sampler_output_is_admissible(case_id):
    case = lookup(case_id)
    for M in case.M_range:
        for seed in range(100):
            params = case.sampler(seed, M, CTX)
            assert case.admissible(params, CTX), (case_id, M, seed)


def test_sampler_deterministic():
    case = lookup("thm31.integral")
    p1 = case.sampler(7, 2, CTX)
    p2 = case.sampler(7, 2, CTX)
    assert p1 == p2


def test_sampler_seed_is_sha256_of_point():
    digest = hashlib.sha256(b"thm31.integral:7:2").digest()
    ref = random.Random(int.from_bytes(digest[:8], "big"))
    assert _rng_for("thm31.integral", 7, 2).random() == ref.random()


def test_perturbation_breaks_every_equality():
    # scaling one parameter by 1% must leave a visible mismatch (or blow up)
    for case_id in ALL_IDS:
        case = lookup(case_id)
        if case.kind != "equality":
            continue
        M = case.M_range[0]
        params = case.sampler(0, M, CTX)
        lhs = case.lhs(params, CTX)
        bad = perturb_params(params)
        try:
            rhs = case.rhs(bad, CTX)
        except (QHyperError, ArithmeticError, ValueError):
            continue  # blowing up counts as detecting the perturbation
        # a tuple rhs holds several values that must each equal lhs
        for i, value in enumerate(rhs if isinstance(rhs, tuple) else (rhs,)):
            assert rel_error(lhs, value) > 10 * case.tolerance, (case_id, i)


def test_qrp_negative_control():
    # breaking the balance by 10% must leave a residual far above tolerance
    bp = sample_balanced(3, 1, CTX)
    broken = BalancedParams(a=(bp.a[0] * 1.1,) + bp.a[1:], b=bp.b)
    f = _phi_lattice(broken, 2, 4, CTX)
    assert residual(build_EM_hat(broken), f, [{}])[1] > 1e-2


def test_sample_balanced_contract():
    for seed in range(50):
        for M in (1, 2):
            bp = sample_balanced(seed, M, CTX)
            prod_a = math.prod(bp.a)
            prod_b = math.prod(bp.b)
            assert abs(prod_a - CTX.q ** 2 * prod_b) <= 1e-12 * abs(prod_a)
            assert abs(bp.a[M] / bp.b[M + 2]) < 1
            for i in range(M + 3):
                for j in range(i + 1, M + 3):
                    assert abs(bp.a[i] / bp.a[j] - 1) > 0.03


def test_sample_balanced_exhausts():
    with pytest.raises(SamplerExhausted):
        sample_balanced(0, 1, CTX, zmax=1e-9)


def test_case_sampler_exhausts():
    case = lookup("bailey.integral")
    impossible = IdentityCase(
        id="bailey.integral",
        kind="equality",
        M_range=(1,),
        tolerance=1e-8,
        propose=case.propose,
        admissible=lambda p, ctx: False,
        lhs=case.lhs,
        rhs=case.rhs,
    )
    with pytest.raises(SamplerExhausted):
        impossible.sampler(0, 1, CTX)


def test_check_captures_failures():
    # a starved shell budget must come back as a failed report, not an exception
    bad_ctx = QContext(q=0.99 + 0j, series_shell_cap=5)
    rep = check("qal.phiD", 0, 1, bad_ctx)
    assert not rep.passed
    assert rep.reason is not None
    assert not math.isfinite(rep.rel_error)


@pytest.mark.parametrize(
    "case_id, field",
    [("qal.phiD", "function"), ("heine.m1", "lhs")],
)
def test_check_reports_nonfinite(monkeypatch, case_id, field):
    # a nan lattice function (residual case) or a nan side (equality case)
    # must fail with a NonFinite reason, not pass or fail silently
    nan = complex("nan")
    stubs = {
        "function": lambda p, ctx: [LatticeFunction(base={"q": ctx.q, "x1": p["x"][0]},
                                                    eval=lambda off: nan)],
        "lhs": lambda p, ctx: nan,
    }
    case = replace(lookup(case_id), **{field: stubs[field]})
    monkeypatch.setitem(identities._CATALOG, case_id, case)
    rep = check(case_id, 0, 1, CTX)
    assert not rep.passed
    assert rep.reason is not None and rep.reason.startswith("NonFinite"), rep.reason
    assert not math.isfinite(rep.rel_error)


def test_check_rejects_bad_M():
    with pytest.raises(ValueError):
        check("bailey.integral", 0, 2, CTX)


def test_report_dict_schema():
    rep = check("heine.m1", 0, 1, CTX)
    d = rep.to_dict()
    assert d["id"] == "heine.m1" and d["seed"] == 0 and d["M"] == 1
    assert d["q"] == [0.5, 0.0]
    assert d["pass"] is True
    assert isinstance(d["rel_error"], float)
    assert "reason" not in d
    assert "wall_ms" not in d and "wall_time" not in d


def test_run_suite_grid_and_order():
    ids = ["thm31.series", "bailey.integral"]
    reports = run_suite(ids, seeds=[1, 0], Ms=[2, 1, 3], ctx=CTX)
    # bailey only exists at M=1; thm31.series at M=1,2,3
    keys = [(r.id, r.M, r.seed) for r in reports]
    assert keys == sorted(keys)
    assert [k for k in keys if k[0] == "bailey.integral"] == [
        ("bailey.integral", 1, 0),
        ("bailey.integral", 1, 1),
    ]
    assert len([k for k in keys if k[0] == "thm31.series"]) == 6
    assert all(r.passed for r in reports)


def test_run_suite_empty():
    assert run_suite([], seeds=[0], Ms=[1], ctx=CTX) == []


def test_run_suite_rerun_identical():
    reports1 = run_suite(["heine.m1", "phi.cocycle"], [0, 1], [1], CTX)
    reports2 = run_suite(["heine.m1", "phi.cocycle"], [0, 1], [1], CTX)
    assert [r.to_dict() for r in reports1] == [r.to_dict() for r in reports2]
    assert [r.rel_error for r in reports1] == [r.rel_error for r in reports2]


# the cases whose checks evaluate builder-made operators
OPERATOR_IDS = ("EM.constant", "EM.annihilate", "qrp.system", "qrp.kajihara_solution",
                "degene.system", "degene.solutions", "degene.implies_qal", "qal.phiD",
                "qal.solutions")


def test_operator_reports_do_not_depend_on_earlier_checks():
    """Operators are shared by lattice shape within a process: the operator
    cases report the same in a fresh interpreter as after the whole catalog."""
    code = ("import json, sys; from qhyper.identities import run_suite; "
            "print(json.dumps([r.to_dict() for r in run_suite(sys.argv[1].split(','), [0], [1, 2])]))")
    env = dict(os.environ, PYTHONPATH=str(Path(qhyper.__file__).resolve().parents[1]))
    fresh = subprocess.run([sys.executable, "-c", code, ",".join(OPERATOR_IDS)], env=env,
                           capture_output=True, text=True, check=True, timeout=300)
    run_suite(ALL_IDS, [0], [1, 2, 3], CTX)
    after = [r.to_dict() for r in run_suite(OPERATOR_IDS, [0], [1, 2], CTX)]
    assert len(after) == 18
    assert json.loads(fresh.stdout) == json.loads(json.dumps(after))


def test_cross_route_integral_vs_W():
    # the anchored integral evaluated directly and through the normalized W
    case = lookup("W.integral")
    for seed in range(3):
        p = case.sampler(seed, 2, CTX)
        bp = BalancedParams(a=p["a"], b=p["b"])
        direct = rp_integral(bp, bp.M + 2, bp.M + 3, CTX)
        via_W = case.lhs(p, CTX) * CTX.q * (1 - CTX.q) * qpoch_infinite(CTX.q, CTX)
        assert rel_error(direct, via_W) <= 1e-7


def test_independence_detects_duplicates():
    from qhyper.operators import independence_check

    case = lookup("qrp.independence")
    p = case.sampler(0, 2, CTX)
    assert independence_check(BalancedParams(a=p["a"], b=p["b"]), CTX)
    rest = list(p["a"][1:])
    rest[1] = rest[0]  # duplicated column
    dup_a = (p["a"][0],) + tuple(rest)
    dup_b = (p["b"][0],) + tuple(rest)
    assert not independence_check(BalancedParams(a=dup_a, b=dup_b), CTX)


def test_complex_q_pass():
    import cmath

    ctx = QContext(q=0.6 * cmath.exp(0.5j))
    for case_id in ("kajihara.transform", "thm31.series", "qal.phiD", "W.symmetry"):
        rep = check(case_id, 0, 1, ctx)
        assert rep.passed, (case_id, rep.rel_error, rep.reason)


def _loop_clear(val, ctx, lo=-8, hi=12, margin=0.035):
    """The lattice clearance one m at a time: the reference of _clear."""
    v = complex(val)
    qm = ctx.q ** lo
    for _ in range(lo, hi + 1):
        if abs(v * qm - 1.0) < margin:
            return False
        qm *= ctx.q
    return True


@pytest.mark.parametrize("q", (0.5, 0.9, -0.5, 0.6 * cmath.exp(0.5j), 0.99, 0.95j))
def test_clear_matches_loop(q):
    # values at |v q^m - 1| within 1e-9 relative of the margin, on either
    # side, and random ones; the windows and margins the samplers use
    ctx = QContext(q=q)
    rng = random.Random(31)
    for lo, hi, margin in ((-8, 12, 0.035), (-8, 12, 0.05), (-8, 12, 0.08), (0, 12, 0.08),
                           (1, 12, 0.035)):
        values = [0.0, complex(math.nan, 0.0), complex(math.inf, 0.0), q ** -(lo - 1),
                  q ** -(hi + 1)]
        for _ in range(400):
            m = rng.randrange(lo - 1, hi + 2)
            edge = margin * (1.0 + rng.choice((-1e-9, 1e-9)) * rng.random())
            values.append(q ** -m * (1.0 + cmath.rect(edge, rng.uniform(0.0, 2 * math.pi))))
            values.append(cmath.rect(10.0 ** rng.uniform(-3, 3), rng.uniform(0.0, 2 * math.pi)))
        decisions = [_clear(v, ctx, lo, hi, margin) for v in values]
        assert decisions == [_loop_clear(v, ctx, lo, hi, margin) for v in values]
        assert True in decisions and False in decisions
