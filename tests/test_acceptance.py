"""Acceptance suite: one test per headline claim, at the stated tolerances.

Default base q = 0.5 plus one full pass at a complex q with |q| = 0.6.
Each test prints as its own pass/fail line under pytest -v.
"""

import cmath
import itertools
import json
import math
import time

from qhyper.identities import (
    _bp_guard_integral,
    _deglim_rhs,
    _em_const_lhs,
    _em_const_rhs,
    _kajitrans_admissible,
    _kajitrans_lhs,
    _kajitrans_rhs,
    _phi_lattice,
    _qrp_admissible,
    _rng_for,
    _serlim_rhs,
    _unit,
    catalog,
    check,
    default_context,
    lookup,
    rel_error,
    run_suite,
    sample_balanced,
)
from qhyper.jackson import BalancedParams, rp_integral
from qhyper.operators import (
    LatticeFunction,
    build_EM,
    build_EM_hat,
    build_JP_general,
    build_scaling_relation,
    build_three_term,
    const_op,
    independence_check,
    op_add,
    op_apply,
    op_multiply,
    residual,
    shift_op,
)
from qhyper.qcore import QContext, principal_power, theta
from qhyper.series import KajiharaParams, kajihara_W

CTX = default_context()
Q = CTX.q
SEEDS = range(10)


def test_c01_terminating_kajihara_duality_exact():
    # terminating duality between an M-fold and an N-fold sum, machine precision
    start = time.monotonic()
    case = lookup("kajihara.transform")
    for M in (1, 2):
        for N in (1, 2):
            for n in range(4):
                for seed in SEEDS:
                    rng = _rng_for(f"acc1:{N}:{n}", seed, M)
                    for _ in range(1000):
                        xs = tuple(_unit(rng) for _ in range(M))
                        ys = tuple(_unit(rng) for _ in range(N))
                        bs = tuple(_unit(rng) for _ in range(M + N + 2))
                        a, c = _unit(rng), _unit(rng)
                        mu = (a ** (N + 2) * Q ** (N + 1) * math.prod(ys)
                              / (c ** (N + 1) * math.prod(bs) * math.prod(xs)))
                        p = {"x": xs, "y": ys, "b": bs, "a": a, "c": c,
                             "mu": mu, "n": n, "N": N}
                        if _kajitrans_admissible(p, CTX):
                            break
                    else:
                        raise AssertionError("no admissible draw")
                    rel = rel_error(_kajitrans_lhs(p, CTX), _kajitrans_rhs(p, CTX))
                    assert rel <= 1e-12, (M, N, n, seed, rel)
    assert time.monotonic() - start < 5.0
    assert case.tolerance <= 1e-12


def test_c02_integral_to_kajihara_both_forms():
    # series form and integral form of the W <-> Jackson-integral transform;
    # at M=1 the integral form is the classical Bailey evaluation, checked
    # through its own catalog entry
    start = time.monotonic()
    for cid in ("thm31.series", "thm31.integral"):
        for M in (1, 2, 3):
            for seed in SEEDS:
                rep = check(cid, seed, M, CTX)
                assert rep.passed and rep.rel_error <= 1e-8, (cid, M, seed, rep.reason)
    for seed in SEEDS:
        rep = check("bailey.integral", seed, 1, CTX)
        assert rep.passed and rep.rel_error <= 1e-8, (seed, rep.reason)
    assert time.monotonic() - start < 60.0


def test_c03_qrp_system_annihilates_phi_all_pairs():
    # hat operator, all six three-term relations, and the scaling relation
    # kill every phi_{i,j}; breaking the balance must light up the residual
    case = lookup("qrp.system")
    for M in (1, 2):
        for seed in SEEDS:
            rng = _rng_for("acc3", seed, M)
            for _ in range(2000):
                p = case.propose(rng, M, CTX)
                bp = BalancedParams(a=p["a"], b=p["b"])
                if _qrp_admissible(p, CTX) and _bp_guard_integral(
                        bp, CTX, list(range(2, M + 4))):
                    break
            else:
                raise AssertionError("no admissible draw")
            k, l = p["k"], p["l"]
            ops = [build_EM_hat(bp), build_scaling_relation(bp)]
            ops += [build_three_term(kind, k, l if kind in (1, 3, 5, 6) else None, bp)
                    for kind in range(1, 7)]
            for i, j in itertools.combinations(range(2, M + 4), 2):
                f = _phi_lattice(bp, i, j, CTX)
                for op in ops:
                    _, relr = residual(op, f, [{}])
                    assert relr <= 1e-6, (M, seed, i, j, op.name, relr)
    # negative control: 10% balance break
    for M in (1, 2):
        bp = sample_balanced(3, M, CTX)
        broken = BalancedParams(a=(bp.a[0] * 1.1,) + bp.a[1:], b=bp.b)
        f = _phi_lattice(broken, 2, M + 3, CTX)
        _, relr = residual(build_EM_hat(broken), f, [{}])
        assert relr > 1e-2, (M, relr)


def test_c04_inhomogeneous_constant_every_anchor():
    # E_M sends each single-anchored bilateral integral to the same constant
    # -prod_{i<M}(B - A q^i) q (1-q) x^{M+1}, for every lattice anchor
    # including q/(A x)
    case = lookup("EM.constant")
    for M in (1, 2):
        for seed in SEEDS:
            p = case.draw(_rng_for("EM.constant", seed, M), M, CTX)
            for anchor in range(M + 3):
                p2 = dict(p, anchor=anchor)
                rel = rel_error(_em_const_lhs(p2, CTX), _em_const_rhs(p2, CTX))
                assert rel <= 1e-7, (M, seed, anchor, rel)


def test_c05_jp_operator_factorization_action():
    # the full Jordan-Pochhammer-type operator equals
    # (B - A q^{-1} T)(1 - q^{-1-M} T) E_M as an action on lattice functions
    import random as _random
    for M in (1, 2, 3):
        rng = _random.Random(M)
        A, B, x0 = _unit(rng), _unit(rng), _unit(rng)
        a = [_unit(rng) for _ in range(M + 1)]
        b = [_unit(rng) for _ in range(M + 2)]
        a = a + [Q ** 2 * B * math.prod(b) / (A * math.prod(a))]
        JP = build_JP_general(M, Q, A, B, a, b)
        left = op_multiply(
            op_add(const_op(B), shift_op({"x": 1}, coeff=lambda pt: -A / pt["q"])),
            op_add(const_op(1.0),
                   shift_op({"x": 1}, coeff=lambda pt, _M=M: -pt["q"] ** float(-1 - _M))),
        )
        fact = op_multiply(left, build_EM(M, A, B, a, b))
        for trial in range(10):
            vals = {}

            def ev(off, _vals=vals, _rng=rng):
                key = tuple(sorted(off.items()))
                if key not in _vals:
                    _vals[key] = complex(_rng.uniform(-1, 1), _rng.uniform(-1, 1))
                return _vals[key]

            f = LatticeFunction(base={"x": x0, "q": Q}, eval=ev)
            va = op_apply(JP, f, {})
            vb = op_apply(fact, f, {})
            assert rel_error(va, vb) <= 1e-10, (M, trial)


def test_c06_telescoping_closed_form_and_independence():
    # at the telescoping specialization phi has a rational closed form; the
    # Wronskian-style witness matrix is regular for honest draws and singular
    # once two parameter columns coincide
    for M in (1, 2):
        for seed in SEEDS:
            rep = check("phi.closed_form", seed, M, CTX)
            assert rep.passed and rep.rel_error <= 1e-10, (M, seed, rep.reason)
            rep = check("qrp.independence", seed, M, CTX)
            assert rep.passed, (M, seed, rep.reason)
    case = lookup("qrp.independence")
    for M in (1, 2):
        p = case.draw(_rng_for("qrp.independence", 0, M), M, CTX)
        rest = list(p["a"][1:])
        rest[1] = rest[0]  # duplicated column
        dup = BalancedParams(a=(p["a"][0],) + tuple(rest), b=(p["b"][0],) + tuple(rest))
        assert not independence_check(dup, CTX), M


def test_c07_bilateral_residue_limit():
    # Richardson-extrapolated (1-z) psi at z -> 1 matches the Pochhammer ratio
    for M in (1, 2):
        for seed in range(5):
            rep = check("psi.limit", seed, M, CTX)
            assert rep.passed and rep.rel_error <= 1e-4, (M, seed, rep.reason)


def _deglim_staged(p, n, ctx):
    a, b, lam, j, scale = p["a"], p["b"], p["lam"], p["j"], p["scale"]
    M = len(a) - 2
    qlam = principal_power(ctx.q, lam)
    aM3 = scale * ctx.q ** float(-n)
    bM3 = qlam * aM3
    bp = BalancedParams(a=a + (aM3,), b=b + (bM3,))
    c0 = (principal_power(ctx.q / a[j - 1], lam)
          * theta(bM3 * ctx.q / a[j - 1], ctx) / theta(aM3 * ctx.q / a[j - 1], ctx))
    return c0 * rp_integral(bp, M + 3, j, ctx)


def _serlim_staged(p, n, ctx):
    a, b, lam, scale = p["a"], p["b"], p["lam"], p["scale"]
    M = len(a) - 2
    qlam = principal_power(ctx.q, lam)
    aM3 = scale * ctx.q ** float(-n)
    bM3 = qlam * aM3
    return kajihara_W(
        KajiharaParams(
            x=a[:M],
            a=ctx.q * bM3 / (a[M + 1] * aM3),
            u=tuple(1 / bj for bj in b),
            v=(ctx.q * bM3 / a[M + 1], ctx.q * bM3 / aM3),
            z=a[M] / bM3,
        ),
        ctx,
    ).require()


def test_c08_degeneration_suite():
    # the degenerate system annihilates both the integrals and the three
    # series families; the staged limits converge at first order in q
    for cid in ("degene.system", "degene.solutions"):
        for M in (1, 2):
            for seed in SEEDS:
                rep = check(cid, seed, M, CTX)
                assert rep.passed and rep.rel_error <= 1e-6, (cid, M, seed, rep.reason)
    for cid, staged, rhs_fn in (
            ("degene.integral_limit", _deglim_staged, _deglim_rhs),
            ("degene.series_limit", _serlim_staged, _serlim_rhs)):
        case = lookup(cid)
        for M in (1, 2):
            for seed in range(2):
                p = case.draw(_rng_for(cid, seed, M), M, CTX)
                limit = rhs_fn(p, CTX)
                es = [abs(staged(p, n, CTX) - limit) / max(abs(limit), 1e-30)
                      for n in range(5, 9)]
                rates = [math.log(es[k] / es[k + 1]) / math.log(1 / abs(Q))
                         for k in range(len(es) - 1)]
                mean_rate = sum(rates) / len(rates)
                assert mean_rate >= 0.9, (cid, M, seed, rates)


def test_c09_q_appell_lauricella_suite():
    # system solutions, connection transforms, the Andrews form, the
    # Milne-type sum, and the (M+1)phi_M generalizations
    for cid, tol in (("qal.phiD", 1e-7), ("qal.solutions", 1e-7)):
        for M in (1, 2, 3):
            for seed in SEEDS:
                rep = check(cid, seed, M, CTX)
                assert rep.passed and rep.rel_error <= tol, (cid, M, seed, rep.reason)
    for cid in ("qal.transforms", "qal.andrews", "qal.kajihara_phiD",
                "mp1phim.euler", "mp1phim.jackson"):
        for M in (1, 2, 3):
            for seed in SEEDS:
                rep = check(cid, seed, M, CTX)
                assert rep.passed and rep.rel_error <= 1e-8, (cid, M, seed, rep.reason)
    # M = 1 reductions: both classical transform variants, plus the one-variable
    # Euler/Jackson specializations
    heine = lookup("heine.m1")
    for seed in SEEDS:
        for variant in (0, 1):
            rng = _rng_for(f"acc9:{variant}", seed, 1)
            for _ in range(1000):
                p = dict(heine.propose(rng, 1, CTX), variant=variant)
                if heine.admissible(p, CTX):
                    break
            else:
                raise AssertionError("no admissible draw")
            rel = rel_error(heine.lhs(p, CTX), heine.rhs(p, CTX))
            assert rel <= 1e-10, (seed, variant, rel)
        for cid in ("mp1phim.euler", "mp1phim.jackson"):
            rep = check(cid, seed, 1, CTX)
            assert rep.passed and rep.rel_error <= 1e-10, (cid, seed, rep.reason)


def test_c10_full_verify_run_deterministic(tmp_path):
    # the whole catalog at default seeds: zero failures, byte-identical rerun,
    # comfortably inside a ten-minute budget
    from qhyper.cli import main
    start = time.monotonic()
    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for path in paths:
        rc = main(["verify", "--ids", "all", "--format", "json", "--out", str(path)])
        assert rc == 0
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, elapsed
    assert paths[0].read_bytes() == paths[1].read_bytes()
    rows = json.loads(paths[0].read_text())
    assert all(row["pass"] for row in rows)
    assert len(rows) >= 33 * 3  # every case, every admissible M, seeds 0..2


def test_c11_complex_q_pass():
    # one full catalog pass at complex q with |q| = 0.6
    ctx = QContext(q=0.6 * cmath.exp(0.5j))
    reports = run_suite(sorted(catalog()), [0, 1], [1, 2, 3], ctx)
    bad = [r for r in reports if not r.passed]
    assert not bad, [(r.id, r.M, r.seed, r.reason) for r in bad]
