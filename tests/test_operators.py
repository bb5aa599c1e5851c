import cmath
import itertools
import math
import random
import struct

import numpy as np
import pytest

from qhyper.qcore import QContext, elem_sym, principal_power
from qhyper.errors import DomainError, NonFinite
from qhyper import operators
from qhyper.jackson import (
    BalancedParams,
    JPParams,
    degene_integral,
    jackson_bilateral,
    jp_integral,
    rp_integral,
    rp_integrand,
)
from qhyper.operators import (
    LatticeFunction,
    build_EM,
    build_EM_hat,
    build_EM_hat_dprime,
    build_EM_hat_prime,
    build_JP_general,
    build_degene_system,
    build_qal_system,
    build_scaling_relation,
    build_three_term,
    const_op,
    independence_check,
    op_add,
    op_apply,
    op_multiply,
    op_product,
    op_scale,
    point_at,
    residual,
    shift_op,
)
from qhyper.series import QALParams, phi_D, qal_solution

CTX = QContext(q=0.5 + 0j)
Q = CTX.q


def rel(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1e-30)


def rand_unit(rng, lo=0.3, hi=0.85):
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi))


def sample_balanced(rng, M, zmax=0.75):
    # draw a_1..a_{M+3}, b_1..b_{M+2} and solve the balance for b_{M+3}
    while True:
        a = [rand_unit(rng) for _ in range(M + 3)]
        b = [rand_unit(rng) for _ in range(M + 2)]
        blast = math.prod(a) / (Q ** 2 * math.prod(b))
        if not (0.05 < abs(blast) < 20):
            continue
        if abs(a[M] / blast) > zmax:
            continue
        bp = BalancedParams(a=tuple(a), b=tuple(b + [blast]))
        try:
            bp.check(CTX)
        except DomainError:
            continue
        return bp


def phi_lattice(bp, i, j):
    """phi_{i,j} as a function on the integer shift lattice of all 2(M+3) params."""
    M = bp.M
    base = {"q": Q}
    for n, v in enumerate(bp.a, start=1):
        base[f"a{n}"] = v
    for n, v in enumerate(bp.b, start=1):
        base[f"b{n}"] = v

    def ev(off):
        a = [base[f"a{n}"] * Q ** off.get(f"a{n}", 0) for n in range(1, M + 4)]
        b = [base[f"b{n}"] * Q ** off.get(f"b{n}", 0) for n in range(1, M + 4)]
        return rp_integral(BalancedParams(a=tuple(a), b=tuple(b)), i, j, CTX)

    return LatticeFunction.cached(base, ev)


def random_lattice_fn(rng, base):
    vals = {}

    def ev(off):
        key = tuple(sorted(off.items()))
        if key not in vals:
            vals[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return vals[key]

    return LatticeFunction(base=base, eval=ev)


# ------------------------------------------------------------ algebra basics


def test_identity_and_single_shift():
    f = LatticeFunction(base={"x": 0.7 + 0.1j, "q": Q}, eval=lambda off: (0.7 + 0.1j) * Q ** off.get("x", 0))
    ident = const_op(1.0)
    assert op_apply(ident, f, {}) == f.eval({})
    T = shift_op({"x": 1})
    assert rel(op_apply(T, f, {}), Q * (0.7 + 0.1j)) < 1e-15


def test_shift_coefficient_commutation():
    # T_x . (coeff x) = (q x) . T_x
    T = shift_op({"x": 1})
    cx = const_op(lambda pt: pt["x"])
    left = op_multiply(T, cx)
    right = op_multiply(const_op(lambda pt: pt["q"] * pt["x"]), T)
    for fn in (lambda off: 1.0, lambda off: (0.4 + 0.2j) * Q ** off.get("x", 0)):
        f = LatticeFunction(base={"x": 0.4 + 0.2j, "q": Q}, eval=fn)
        for off in ({}, {"x": 2}, {"x": -1}):
            assert op_apply(left, f, off) == op_apply(right, f, off)


def test_normalization_merges_duplicate_shifts():
    T = shift_op({"x": 1})
    twice = op_add(T, T)
    assert len(twice.terms) == 1
    f = LatticeFunction(base={"x": 0.3, "q": Q}, eval=lambda off: 0.3 * Q ** off.get("x", 0))
    assert rel(op_apply(twice, f, {}), 2 * 0.3 * Q) < 1e-15


def test_associativity():
    rng = random.Random(41)
    P = shift_op({"a1": 1}, coeff=lambda pt: pt["a1"] + 2 * pt["b1"])
    R = op_add(const_op(1.5), shift_op({"b1": -1}, coeff=lambda pt: pt["a1"] * pt["b1"]))
    S = shift_op({"a1": -1, "b1": 2}, coeff=lambda pt: 1 / (1 + pt["b1"]))
    left = op_multiply(op_multiply(P, R), S)
    right = op_multiply(P, op_multiply(R, S))
    for _ in range(5):
        f = random_lattice_fn(rng, {"q": Q, "a1": rand_unit(rng), "b1": rand_unit(rng)})
        for off in ({}, {"a1": 1}, {"a1": -2, "b1": 3}):
            va, vb = op_apply(left, f, off), op_apply(right, f, off)
            assert abs(va - vb) <= 1e-12 * max(abs(va), 1.0)


def test_residual_trivials():
    f = LatticeFunction(base={"x": 0.5, "q": Q}, eval=lambda off: 1.0)
    zero = op_add(const_op(1.0), const_op(-1.0))
    raw, relr = residual(zero, f, [{}])
    assert raw == 0.0 and relr == 0.0
    one_minus_T = op_add(const_op(1.0), op_scale(shift_op({"x": 1}), -1.0))
    raw, relr = residual(one_minus_T, f, [{}, {"x": 2}])
    assert raw == 0.0 and relr == 0.0


@pytest.mark.parametrize(
    "value, coeff",
    [(complex("nan"), 1.0), (complex("inf"), 1.0), (1.0, complex("inf"))],
    ids=["nan_value", "inf_value", "inf_coeff"],
)
def test_residual_rejects_nonfinite(value, coeff):
    # a nan value would drop out of max(), and an inf one would make the
    # scale inf and the relative residual 0: either way it must raise
    f = LatticeFunction(base={"x": 0.5, "q": Q}, eval=lambda off: 1.0 if off else value)
    op = op_add(const_op(coeff), op_scale(shift_op({"x": 1}), -1.0))
    with pytest.raises(NonFinite):
        residual(op, f, [{}])


# ------------------------------------------------------- JP factorizations


def test_jp_general_factorization():
    # with q^alpha = q and the balance, the full JP operator factors as
    # (B - A q^{-1} T)(1 - q^{-1-M} T) E_M
    rng = random.Random(19)
    for M in (1, 2, 3):
        A, B, x0 = rand_unit(rng), rand_unit(rng), rand_unit(rng)
        a = [rand_unit(rng) for _ in range(M + 1)]
        b = [rand_unit(rng) for _ in range(M + 2)]
        a = a + [Q ** 2 * B * math.prod(b) / (A * math.prod(a))]
        JP = build_JP_general(M, Q, A, B, a, b)
        EM = build_EM(M, A, B, a, b)
        left = op_multiply(
            op_add(const_op(B), shift_op({"x": 1}, coeff=lambda pt: -A / pt["q"])),
            op_add(const_op(1.0), shift_op({"x": 1}, coeff=lambda pt, _M=M: -pt["q"] ** float(-1 - _M))),
        )
        fact = op_multiply(left, EM)
        for _ in range(10):
            f = random_lattice_fn(rng, {"x": x0, "q": Q})
            va = op_apply(JP, f, {})
            vb = op_apply(fact, f, {})
            assert rel(va, vb) <= 1e-10


def test_EM_hat_equals_B_times_EM():
    # on the sub-lattice a_1 = A x, b_1 = B x the hat operator acts as B . E_M
    rng = random.Random(7)
    for M in (1, 2, 3):
        A, B, x0 = rand_unit(rng), rand_unit(rng), rand_unit(rng)
        a = [rand_unit(rng) for _ in range(M + 2)]
        b = [rand_unit(rng) for _ in range(M + 2)]
        EM = build_EM(M, A, B, a, b)
        EMh = build_EM_hat(BalancedParams(a=tuple([A * x0] + a), b=tuple([B * x0] + b)))
        base = {"q": Q, "a1": A * x0, "b1": B * x0}
        for i, v in enumerate(a, start=2):
            base[f"a{i}"] = v
        for i, v in enumerate(b, start=2):
            base[f"b{i}"] = v
        for _ in range(10):
            f = random_lattice_fn(rng, {"x": x0, "q": Q})

            def emb(off, _f=f):
                assert off.get("a1", 0) == off.get("b1", 0)
                return _f.eval({"x": off.get("a1", 0)})

            F = LatticeFunction(base=base, eval=emb)
            lhs = op_apply(EMh, F, {})
            rhs = B * op_apply(EM, f, {"x": 0})
            assert rel(lhs, rhs) <= 1e-10


# ----------------------------------------------------- E_M on JP integrals


def _em_setup(rng, M):
    while True:
        A, B, x0 = rand_unit(rng), rand_unit(rng), rand_unit(rng)
        a = [rand_unit(rng) for _ in range(M + 1)]
        b = [rand_unit(rng) for _ in range(M + 2)]
        a_last = Q ** 2 * B * math.prod(b) / (A * math.prod(a))
        if 0.1 < abs(a_last) < 3.0:
            return A, B, x0, a + [a_last], b


def _em_solution(A, B, x0, a, b, tau):
    # x |-> int_0^{tau*infty} (Axt)/(Bxt) prod (a_i t)/(b_i t) d_q t on the x-lattice
    def ev(off):
        n = off.get("x", 0)
        bp = BalancedParams(a=tuple([A * x0 * Q ** n] + a), b=tuple([B * x0 * Q ** n] + b))
        return jackson_bilateral(tau, rp_integrand(bp, CTX), CTX)

    return LatticeFunction.cached({"x": x0, "q": Q}, ev)


def test_EM_constant_all_anchors():
    rng = random.Random(11)
    for M in (1, 2):
        A, B, x0, a, b = _em_setup(rng, M)
        EM = build_EM(M, A, B, a, b)
        target = -math.prod(B - A * Q ** i for i in range(M)) * Q * (1 - Q)
        for tau in [Q / ai for ai in a] + [Q / (A * x0)]:
            f = _em_solution(A, B, x0, a, b, tau)
            for n in (0, 1):
                got = op_apply(EM, f, {"x": n})
                want = target * (x0 * Q ** n) ** (M + 1)
                assert rel(got, want) <= 1e-7


def test_EM_annihilates_endpoint_differences():
    rng = random.Random(13)
    M = 1
    A, B, x0, a, b = _em_setup(rng, M)
    EM = build_EM(M, A, B, a, b)
    taus = [Q / ai for ai in a]
    f1 = _em_solution(A, B, x0, a, b, taus[0])
    f2 = _em_solution(A, B, x0, a, b, taus[1])
    diff = LatticeFunction.cached(
        {"x": x0, "q": Q}, lambda off: f1.eval(off) - f2.eval(off)
    )
    raw, relr = residual(EM, diff, [{}])
    assert relr <= 1e-8


# ------------------------------------------------------------- q-RP system


def test_three_term_integrand_identity():
    # each relation annihilates the integrand pointwise in t (rational identity)
    rng = random.Random(29)
    for M in (1, 2):
        bp = sample_balanced(rng, M)
        t = rand_unit(rng, 0.2, 0.6)
        base = {"q": Q}
        for n, v in enumerate(bp.a, start=1):
            base[f"a{n}"] = v
        for n, v in enumerate(bp.b, start=1):
            base[f"b{n}"] = v

        def ev(off):
            a = [base[f"a{n}"] * Q ** off.get(f"a{n}", 0) for n in range(1, M + 4)]
            b = [base[f"b{n}"] * Q ** off.get(f"b{n}", 0) for n in range(1, M + 4)]
            return rp_integrand(BalancedParams(a=tuple(a), b=tuple(b)), CTX)(t)

        f = LatticeFunction.cached(base, ev)
        for kind in (1, 3, 5, 6):
            op = build_three_term(kind, 2, 3, bp)
            assert residual(op, f, [{}])[1] <= 1e-12
        for kind in (2, 4):
            op = build_three_term(kind, 2, None, bp)
            assert residual(op, f, [{}])[1] <= 1e-12


def test_qrp_system_annihilates_phi():
    rng = random.Random(3)
    for M, pairs in ((1, None), (2, [(2, 5), (3, 4)])):
        bp = sample_balanced(rng, M)
        all_pairs = list(itertools.combinations(range(2, M + 4), 2))
        use = all_pairs if pairs is None else pairs
        ops = [build_EM_hat(bp), build_scaling_relation(bp)]
        for kind in (1, 3, 5, 6):
            for k in range(2, M + 4):
                for l in range(2, M + 4):
                    if k != l:
                        ops.append(build_three_term(kind, k, l, bp))
        for kind in (2, 4):
            for k in range(2, M + 4):
                ops.append(build_three_term(kind, k, None, bp))
        for (i, j) in use:
            f = phi_lattice(bp, i, j)
            for op in ops:
                assert residual(op, f, [{}])[1] <= 1e-6, (M, i, j, op.name)


def test_qrp_negative_control():
    # breaking the balance by 10% must produce a visible residual
    rng = random.Random(31)
    M = 1
    bp = sample_balanced(rng, M)
    broken = BalancedParams(a=tuple([bp.a[0] * 1.1] + list(bp.a[1:])), b=bp.b)
    f = phi_lattice(broken, 2, 4)
    op = build_EM_hat(broken)
    assert residual(op, f, [{}])[1] > 1e-2


def test_three_term_index_errors():
    rng = random.Random(37)
    bp = sample_balanced(rng, 1)
    with pytest.raises(IndexError):
        build_three_term(1, 1, 3, bp)  # k below range
    with pytest.raises(IndexError):
        build_three_term(1, 2, 2, bp)  # k == l
    with pytest.raises(IndexError):
        build_three_term(3, 2, 9, bp)  # l above range for M=1
    with pytest.raises(IndexError):
        build_three_term(7, 2, 3, bp)  # no such kind


def test_scaling_relation_on_constant():
    rng = random.Random(43)
    bp = sample_balanced(rng, 1)
    op = build_scaling_relation(bp)
    base = {"q": Q}
    for n, v in enumerate(bp.a, start=1):
        base[f"a{n}"] = v
    for n, v in enumerate(bp.b, start=1):
        base[f"b{n}"] = v
    one = LatticeFunction(base=base, eval=lambda off: 1.0)
    # constants are not solutions: residual value is q - 1
    assert rel(op_apply(op, one, {}), Q - 1.0) < 1e-15


def test_balance_preserved_by_relation_shifts():
    rng = random.Random(47)
    bp = sample_balanced(rng, 2)
    qprod = lambda a, b: math.prod(a) / (Q ** 2 * math.prod(b))
    assert abs(qprod(bp.a, bp.b) - 1) < 1e-12
    # T_{a_1}T_{b_1}, T_{a_2}T_{a_3}^{-1}, T_{b_2}T_{b_3}^{-1}, T_{a_2}T_{b_3}
    a, b = list(bp.a), list(bp.b)
    a[0] *= Q
    b[0] *= Q
    assert abs(qprod(a, b) - 1) < 1e-12
    a, b = list(bp.a), list(bp.b)
    a[1] *= Q
    a[2] /= Q
    assert abs(qprod(a, b) - 1) < 1e-12
    a, b = list(bp.a), list(bp.b)
    a[1] *= Q
    b[2] *= Q
    assert abs(qprod(a, b) - 1) < 1e-12


# ------------------------------------------------------------ staged limits


def test_staged_limit_to_prime():
    # (1/a_{M+3}) Ehat_M -> Ehat'_M as a_{M+3} -> inf with b_{M+3} = q^lambda a_{M+3}
    rng = random.Random(53)
    qlam = principal_power(Q, 0.37)
    for M in (1, 2):
        base_small = {"q": Q}
        for i in range(1, M + 3):
            base_small[f"a{i}"] = rand_unit(rng)
            base_small[f"b{i}"] = rand_unit(rng)
        f = random_lattice_fn(rng, base_small)
        Ep = build_EM_hat_prime(M, qlam)
        ref = op_apply(Ep, f, {})
        errs = []
        for t in (2, 3, 4, 5):
            R = 10.0 ** t
            big = dict(base_small)
            big[f"a{M + 3}"] = R
            big[f"b{M + 3}"] = qlam * R
            bp = BalancedParams(
                a=tuple(big[f"a{i}"] for i in range(1, M + 4)),
                b=tuple(big[f"b{i}"] for i in range(1, M + 4)),
            )
            Eh = op_scale(build_EM_hat(bp), 1.0 / R)
            F = LatticeFunction(base=big, eval=f.eval)
            errs.append(abs(op_apply(Eh, F, {}) - ref) / max(abs(ref), 1e-30))
        slope = np.polyfit([t * math.log(10) for t in (2, 3, 4, 5)], [math.log(e) for e in errs], 1)[0]
        assert -slope >= 0.9  # empirical rate ~ 1/a_{M+3}


def test_staged_limit_to_double_prime():
    # Ehat'_M -> b_1 Ehat''_M as a_{M+2} -> 0 along the balanced ray b_{M+2} = q^beta a_{M+2}
    rng = random.Random(59)
    qlam = principal_power(Q, 0.37)
    for M in (1, 2):
        base = {"q": Q}
        for i in range(1, M + 2):
            base[f"a{i}"] = rand_unit(rng)
            base[f"b{i}"] = rand_unit(rng)
        f = random_lattice_fn(rng, base)
        qbeta = math.prod(base[f"a{i}"] for i in range(1, M + 2)) / (
            qlam * Q ** 2 * math.prod(base[f"b{i}"] for i in range(1, M + 2))
        )
        Ep = build_EM_hat_prime(M, qlam)
        Edp = build_EM_hat_dprime(M, qlam)
        ref = base["b1"] * op_apply(Edp, f, {})
        errs = []
        for t in (2, 3, 4, 5):
            eps = 10.0 ** (-t)
            mid = dict(base)
            mid[f"a{M + 2}"] = eps
            mid[f"b{M + 2}"] = qbeta * eps
            F = LatticeFunction(base=mid, eval=f.eval)
            errs.append(abs(op_apply(Ep, F, {}) - ref) / max(abs(ref), 1e-30))
        slope = np.polyfit([-t * math.log(10) for t in (2, 3, 4, 5)], [math.log(e) for e in errs], 1)[0]
        assert slope >= 0.9  # empirical rate ~ a_{M+2}


# --------------------------------------------------------- degenerate system


def test_degene_system_annihilates_integral():
    rng = random.Random(61)
    lam = 0.41
    qlam = principal_power(Q, lam)
    for M in (1, 2):
        a0 = [rand_unit(rng) for _ in range(M + 1)]
        b0 = [rand_unit(rng) for _ in range(M + 1)]
        ops = build_degene_system(M, qlam)
        assert len(ops) == 1 + 4 * M * (M - 1) + 1
        for j in (1, M + 1):
            base = {"q": Q}
            for i, v in enumerate(a0, 1):
                base[f"a{i}"] = v
            for i, v in enumerate(b0, 1):
                base[f"b{i}"] = v
            tp0 = principal_power(Q / a0[j - 1], lam)

            def ev(off, _j=j, _tp0=tp0):
                a = [a0[i] * Q ** off.get(f"a{i + 1}", 0) for i in range(M + 1)]
                b = [b0[i] * Q ** off.get(f"b{i + 1}", 0) for i in range(M + 1)]
                nj = off.get(f"a{_j}", 0)
                return degene_integral(_j, a, b, qlam, CTX, tau_power=_tp0 * qlam ** (-nj))

            f = LatticeFunction.cached(base, ev)
            for op in ops:
                assert residual(op, f, [{}])[1] <= 1e-6, (M, j, op.name)


# --------------------------------------------------------------- qAL system


def _qal_draw(rng, M):
    while True:
        A = rand_unit(rng, 0.2, 0.5)
        C = rand_unit(rng, 0.4, 0.9)
        Bs = [rand_unit(rng, 0.5, 0.9) for _ in range(M)]
        xs = [rand_unit(rng, 0.2, 0.6) for _ in range(M)]
        Bprod = math.prod(Bs)
        if abs(Q * Bprod / C) < 0.9 and abs(C / Bprod) < 0.6 and abs(A / Bprod) < 0.6:
            return QALParams(A=A, B=tuple(Bs), C=C, x=tuple(xs))


def test_qal_system_annihilates_solutions():
    rng = random.Random(67)
    for M in (1, 2):
        p = _qal_draw(rng, M)
        ops = build_qal_system(M, p)
        assert len(ops) == M * (M - 1) // 2 + M
        base = {"q": Q}
        for i, v in enumerate(p.x, 1):
            base[f"x{i}"] = v

        def shifted(off):
            return tuple(p.x[i] * Q ** off.get(f"x{i + 1}", 0) for i in range(M))

        fD = LatticeFunction.cached(
            base, lambda off: phi_D(QALParams(A=p.A, B=p.B, C=p.C, x=shifted(off)), CTX).value
        )
        for op in ops:
            assert residual(op, fD, [{}])[1] <= 1e-7, op.name

        def ev_int(off):
            xq = shifted(off)
            jp = JPParams(
                alpha_power=p.A,
                A=Q,
                B=p.C / p.A,
                a=tuple(p.B[i] * xq[i] for i in range(M)),
                b=xq,
                tau=1.0,
            )
            return jp_integral(jp, 1.0, CTX)

        fI = LatticeFunction.cached(base, ev_int)
        for op in ops:
            assert residual(op, fI, [{}])[1] <= 1e-7, op.name

        for fam in (1, 2, 3):
            fS = LatticeFunction.cached(
                base,
                lambda off, _f=fam: qal_solution(
                    _f, QALParams(A=p.A, B=p.B, C=p.C, x=shifted(off)), CTX
                ).value,
            )
            for op in ops:
                assert residual(op, fS, [{}])[1] <= 1e-6, (op.name, fam)


# ------------------------------------------------------------- independence


def test_independence_random_draw():
    rng = random.Random(71)
    for M in (1, 2):
        bp = sample_balanced(rng, M)
        assert independence_check(bp, CTX)


def test_independence_duplicated_column_fails():
    rng = random.Random(73)
    M = 2
    x = rand_unit(rng)
    rest = [rand_unit(rng) for _ in range(M + 2)]
    rest[1] = rest[0]  # duplicated parameter makes two phi columns coincide
    bp = BalancedParams(a=tuple([Q ** 2 * x] + rest), b=tuple([x] + rest))
    assert not independence_check(bp, CTX)


def test_independence_closed_form():
    # a_i = b_i (i >= 2), b_1 = x, a_1 = q^2 x: the integrand telescopes and
    # phi_{i,M+3} = q (a_i - a_{M+3}) / ((a_i - xq)(a_{M+3} - xq))
    rng = random.Random(79)
    for M in (1, 2):
        x = rand_unit(rng)
        rest = [rand_unit(rng) for _ in range(M + 2)]
        bp = BalancedParams(a=tuple([Q ** 2 * x] + rest), b=tuple([x] + rest))
        for i in range(2, M + 3):
            got = rp_integral(bp, i, M + 3, CTX)
            ai, aM3 = rest[i - 2], rest[-1]
            want = Q * (ai - aM3) / ((ai - x * Q) * (aM3 - x * Q))
            assert rel(got, want) <= 1e-10
        assert independence_check(bp, CTX)


def test_independence_entries_are_rp_integrals(monkeypatch):
    # each row sums its shared endpoint q/a_{M+3} once; every entry is still
    # rp_integral(shifted, i, M + 3) bit for bit
    mats = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda m: mats.append(m.copy()) or det(m))
    rng = random.Random(83)
    for q in (0.5, 0.7, -0.5, 0.6 * cmath.exp(0.5j)):
        ctx = QContext(q=q)
        for M in (1, 2):
            a = tuple(rand_unit(rng) for _ in range(M + 3))
            b = tuple(rand_unit(rng) for _ in range(M + 2))
            bp = BalancedParams(a=a, b=b + (math.prod(a) / (ctx.q ** 2 * math.prod(b)),))
            independence_check(bp, ctx)
            mat = mats.pop()
            for n in range(M + 1):
                shift = ctx.q ** n
                shifted = BalancedParams(a=(bp.a[0] * shift,) + bp.a[1:],
                                         b=(bp.b[0] * shift,) + bp.b[1:])
                for col, i in enumerate(range(2, M + 3)):
                    assert _bits(mat[n, col]) == _bits(rp_integral(shifted, i, M + 3, ctx))


# ------------------------------------------------ builders vs the old builders
#
# Each builder used to carry its own copies of the factor chains, powers and
# elementary symmetric functions, and each three-term relation was written out
# by hand.  Those builders are the references of the shared term sum and
# three-term helper: same shifts in the same order, coefficients equal bit for
# bit.  Kind 6 and degene6 come out exactly negated (anti-cyclic in the old
# form), which leaves every residual unchanged.


def _old_build_EM(M, A, B, a, b):
    A, B = complex(A), complex(B)
    Tinv = shift_op({"x": -1})
    I = const_op(1.0)

    def BA_prod(count):
        return op_product(
            op_add(const_op(B), shift_op({"x": 1}, coeff=lambda pt, _i=i: -A * pt["q"] ** _i))
            for i in range(count)
        )

    def Q_prod(count):
        return op_product(
            op_add(I, shift_op({"x": 1}, coeff=lambda pt, _i=i: -pt["q"] ** float(-_i)))
            for i in range(count)
        )

    def xpow(n):
        return const_op(lambda pt, _n=n: pt["x"] ** _n)

    pieces = [op_product([xpow(M + 2), Tinv, BA_prod(M + 1)])]
    for k in range(1, M + 2):
        eka = elem_sym(k, a)
        ekb = elem_sym(k, b)
        bracket = op_add(op_scale(Tinv, eka), const_op(lambda pt, _e=ekb: -pt["q"] * _e))
        piece = op_product([xpow(M + 2 - k), bracket, BA_prod(M + 1 - k), Q_prod(k - 1)])
        pieces.append(op_scale(piece, (-1.0) ** k))
    last = op_product([const_op(math.prod(a) / B), Tinv, Q_prod(M + 1)])
    pieces.append(op_scale(last, (-1.0) ** M))
    return op_add(*pieces, name=f"E_{M}")


def _old_build_JP_general(M, qalpha, A, B, a, b):
    A, B, qalpha = complex(A), complex(B), complex(qalpha)
    Tinv = shift_op({"x": -1})
    I = const_op(1.0)

    def BA_prod(count):
        return op_product(
            op_add(const_op(B), shift_op({"x": 1}, coeff=lambda pt, _i=i: -A * pt["q"] ** _i))
            for i in range(count)
        )

    def Q_prod(count):
        return op_product(
            op_add(I, shift_op({"x": 1}, coeff=lambda pt, _i=i: -pt["q"] ** float(-_i)))
            for i in range(count)
        )

    def xpow(n):
        return const_op(lambda pt, _n=n: pt["x"] ** _n)

    pieces = []
    for k in range(M + 3):
        eka = elem_sym(k, a)
        ekb = elem_sym(k, b)
        bracket = op_add(op_scale(Tinv, eka), const_op(-qalpha * ekb))
        piece = op_product([xpow(M + 2 - k), bracket, BA_prod(M + 2 - k), Q_prod(k)])
        pieces.append(op_scale(piece, (-1.0) ** k))
    return op_add(*pieces, name=f"JP_{M}")


def _old_names(prefix, n):
    return [f"{prefix}{i}" for i in range(1, n + 1)]


def _old_hat_parts():
    Tinv = shift_op({"a1": -1, "b1": -1})
    I = const_op(1.0)

    def AB_prod(count):
        return op_product(
            op_add(
                I,
                shift_op(
                    {"a1": 1, "b1": 1},
                    coeff=lambda pt, _i=i: -pt["a1"] * pt["q"] ** _i / pt["b1"],
                ),
            )
            for i in range(count)
        )

    def Q_prod(count):
        return op_product(
            op_add(I, shift_op({"a1": 1, "b1": 1}, coeff=lambda pt, _i=i: -pt["q"] ** float(-_i)))
            for i in range(count)
        )

    def b1pow(n):
        return const_op(lambda pt, _n=n: pt["b1"] ** _n)

    def ek(k, names):
        return lambda pt, _k=k, _ns=tuple(names): elem_sym(_k, [pt[n] for n in _ns])

    return Tinv, AB_prod, Q_prod, b1pow, ek


def _old_build_EM_hat(bp):
    M = bp.M
    an = _old_names("a", M + 3)
    bn = _old_names("b", M + 3)
    Tinv, AB_prod, Q_prod, b1pow, ek_hat = _old_hat_parts()
    pieces = [op_product([b1pow(M + 2), Tinv, AB_prod(M + 1)])]
    for k in range(1, M + 2):
        bracket = op_add(
            op_scale(Tinv, ek_hat(k, an[1:])),
            const_op(lambda pt, _e=ek_hat(k, bn[1:]): -pt["q"] * _e(pt)),
        )
        piece = op_product([b1pow(M + 2 - k), bracket, AB_prod(M + 1 - k), Q_prod(k - 1)])
        pieces.append(op_scale(piece, (-1.0) ** k))
    aprod = const_op(lambda pt: math.prod(pt[n] for n in an[1:]))
    last = op_product([aprod, Tinv, Q_prod(M + 1)])
    pieces.append(op_scale(last, (-1.0) ** M))
    return op_add(*pieces, name=f"Ehat_{M}")


def _old_build_EM_hat_prime(M, qlambda):
    an = _old_names("a", M + 2)
    bn = _old_names("b", M + 2)
    Tinv, AB_prod, Q_prod, b1pow, ek = _old_hat_parts()
    qlp1 = complex(qlambda)
    pieces = []
    for k in range(1, M + 2):
        bracket = op_add(
            op_scale(Tinv, ek(k - 1, an[1:])),
            const_op(lambda pt, _e=ek(k - 1, bn[1:]): -qlp1 * pt["q"] * _e(pt)),
        )
        piece = op_product([b1pow(M + 2 - k), bracket, AB_prod(M + 1 - k), Q_prod(k - 1)])
        pieces.append(op_scale(piece, (-1.0) ** k))
    aprod = const_op(lambda pt: math.prod(pt[n] for n in an[1:]))
    last = op_product([aprod, Tinv, Q_prod(M + 1)])
    pieces.append(op_scale(last, (-1.0) ** M))
    return op_add(*pieces, name=f"Ehat'_{M}")


def _old_build_EM_hat_dprime(M, qlambda):
    an = _old_names("a", M + 1)
    bn = _old_names("b", M + 1)
    Tinv, AB_prod, Q_prod, b1pow, ek = _old_hat_parts()
    qlp1 = complex(qlambda)
    pieces = []
    for k in range(1, M + 2):
        bracket = op_add(
            op_scale(Tinv, ek(k - 1, an[1:])),
            const_op(lambda pt, _e=ek(k - 1, bn[1:]): -qlp1 * pt["q"] * _e(pt)),
        )
        piece = op_product([b1pow(M + 1 - k), bracket, AB_prod(M + 1 - k), Q_prod(k - 1)])
        pieces.append(op_scale(piece, (-1.0) ** k))
    return op_add(*pieces, name=f"Ehat''_{M}")


def _old_build_three_term(kind, k, l, bp):
    ak, al = f"a{k}", f"a{l}" if l else None
    bk, bl = f"b{k}", f"b{l}" if l else None
    name = f"3term{kind}[{k},{l}]" if kind in (1, 3, 5, 6) else f"3term{kind}[{k}]"
    if kind == 1:
        return op_add(
            shift_op({ak: 1, al: -1}, coeff=lambda pt: pt["a1"] - pt[ak] * pt["q"]),
            shift_op({ak: 1, "a1": -1}, coeff=lambda pt: -(pt[al] - pt[ak] * pt["q"])),
            const_op(lambda pt: pt[al] - pt["a1"]),
            name=name,
        )
    if kind == 2:
        return op_add(
            shift_op({"a1": 1, ak: -1}, coeff=lambda pt: pt["b1"] - pt["a1"]),
            shift_op({"a1": 1, "b1": 1}, coeff=lambda pt: -(pt[ak] / pt["q"] - pt["a1"])),
            const_op(lambda pt: pt[ak] / pt["q"] - pt["b1"]),
            name=name,
        )
    if kind == 3:
        return op_add(
            shift_op({bk: 1, bl: -1}, coeff=lambda pt: pt["b1"] - pt[bl] / pt["q"]),
            shift_op({"b1": 1, bl: -1}, coeff=lambda pt: -(pt[bk] - pt[bl] / pt["q"])),
            const_op(lambda pt: pt[bk] - pt["b1"]),
            name=name,
        )
    if kind == 4:
        return op_add(
            shift_op({bk: 1, "b1": -1}, coeff=lambda pt: pt["a1"] - pt["b1"]),
            shift_op({"a1": -1, "b1": -1}, coeff=lambda pt: -(pt[bk] * pt["q"] - pt["b1"])),
            const_op(lambda pt: pt[bk] * pt["q"] - pt["a1"]),
            name=name,
        )
    if kind == 5:
        return op_add(
            shift_op({ak: 1, bl: 1}, coeff=lambda pt: pt["b1"] - pt[ak]),
            shift_op({ak: 1, "b1": 1}, coeff=lambda pt: -(pt[bl] - pt[ak])),
            const_op(lambda pt: pt[bl] - pt["b1"]),
            name=name,
        )
    assert kind == 6
    return op_add(
        shift_op({ak: -1, bl: -1}, coeff=lambda pt: pt[bl] - pt["a1"]),
        shift_op({"a1": -1, bl: -1}, coeff=lambda pt: -(pt[bl] - pt[ak])),
        const_op(lambda pt: pt["a1"] - pt[ak]),
        name=name,
    )


def _old_build_scaling_relation(bp):
    shifts = {n: 1 for n in _old_names("a", bp.M + 3) + _old_names("b", bp.M + 3)}
    return op_add(shift_op(shifts, coeff=lambda pt: pt["q"]), const_op(-1.0), name="scaling")


def _old_build_degene_system(M, qlambda):
    ops = [_old_build_EM_hat_dprime(M, qlambda)]
    rng = range(2, M + 2)
    for k in rng:
        for l in rng:
            if k == l:
                continue
            ak, al = f"a{k}", f"a{l}"
            bk, bl = f"b{k}", f"b{l}"
            ops.append(op_add(
                shift_op({al: -1}, coeff=lambda pt, _ak=ak: pt["a1"] - pt[_ak]),
                shift_op({"a1": -1}, coeff=lambda pt, _ak=ak, _al=al: -(pt[_al] - pt[_ak])),
                shift_op({ak: -1}, coeff=lambda pt, _al=al: pt[_al] - pt["a1"]),
                name=f"degene1[{k},{l}]",
            ))
            ops.append(op_add(
                shift_op({bk: 1}, coeff=lambda pt, _bl=bl: pt["b1"] - pt[_bl]),
                shift_op({"b1": 1}, coeff=lambda pt, _bk=bk, _bl=bl: -(pt[_bk] - pt[_bl])),
                shift_op({bl: 1}, coeff=lambda pt, _bk=bk: pt[_bk] - pt["b1"]),
                name=f"degene4[{k},{l}]",
            ))
            ops.append(op_add(
                shift_op({bl: 1}, coeff=lambda pt, _ak=ak: pt["b1"] - pt[_ak] / pt["q"]),
                shift_op(
                    {"b1": 1},
                    coeff=lambda pt, _ak=ak, _bl=bl: -(pt[_bl] - pt[_ak] / pt["q"]),
                ),
                shift_op({ak: -1}, coeff=lambda pt, _bl=bl: pt[_bl] - pt["b1"]),
                name=f"degene5[{k},{l}]",
            ))
            ops.append(op_add(
                shift_op({ak: -1}, coeff=lambda pt, _bl=bl: pt["q"] * pt[_bl] - pt["a1"]),
                shift_op(
                    {"a1": -1},
                    coeff=lambda pt, _ak=ak, _bl=bl: -(pt["q"] * pt[_bl] - pt[_ak]),
                ),
                shift_op({bl: 1}, coeff=lambda pt, _ak=ak: pt["a1"] - pt[_ak]),
                name=f"degene6[{k},{l}]",
            ))
    shifts = {n: 1 for n in _old_names("a", M + 1) + _old_names("b", M + 1)}
    qlp1 = complex(qlambda)
    ops.append(op_add(
        shift_op(shifts, coeff=lambda pt: qlp1 * pt["q"]), const_op(-1.0), name="degene-scaling"
    ))
    return ops


def _bits(v):
    v = complex(v)
    return struct.pack("<dd", v.real, v.imag)


def _seeded_lattice_fn(seed, base):
    """A memoized function whose value at each offset is drawn from (seed, offset)."""
    def ev(off):
        r = random.Random(f"{seed}:{sorted(off.items())}")
        return complex(r.uniform(-1, 1), r.uniform(-1, 1))

    return LatticeFunction.cached(base, ev)


def _builder_pairs(rng, M, q):
    """(new operator, old operator) for every builder at one seeded draw."""
    A, B, qal = rand_unit(rng), rand_unit(rng), rand_unit(rng)
    a = [rand_unit(rng) for _ in range(M + 2)]
    b = [rand_unit(rng) for _ in range(M + 2)]
    bp = BalancedParams(a=tuple(rand_unit(rng) for _ in range(M + 3)),
                        b=tuple(rand_unit(rng) for _ in range(M + 3)))
    qlam = rand_unit(rng, 0.2, 0.9)
    pairs = [
        (build_EM(M, A, B, a, b), _old_build_EM(M, A, B, a, b)),
        (build_JP_general(M, qal, A, B, a, b), _old_build_JP_general(M, qal, A, B, a, b)),
        (build_EM_hat(bp), _old_build_EM_hat(bp)),
        (build_EM_hat_prime(M, qlam), _old_build_EM_hat_prime(M, qlam)),
        (build_EM_hat_dprime(M, qlam), _old_build_EM_hat_dprime(M, qlam)),
        (build_scaling_relation(bp), _old_build_scaling_relation(bp)),
    ]
    hi = M + 3
    for kind in (1, 3, 5, 6):
        for k, l in itertools.permutations(range(2, hi + 1), 2):
            pairs.append((build_three_term(kind, k, l, bp), _old_build_three_term(kind, k, l, bp)))
    for kind in (2, 4):
        for k in range(2, hi + 1):
            pairs.append((build_three_term(kind, k, None, bp),
                          _old_build_three_term(kind, k, None, bp)))
    new_deg, old_deg = build_degene_system(M, qlam), _old_build_degene_system(M, qlam)
    assert len(new_deg) == len(old_deg)
    pairs.extend(zip(new_deg, old_deg))
    return pairs


@pytest.mark.parametrize("q", [0.5, 0.7, -0.5, 0.6 * cmath.exp(0.5j)])
def test_builders_match_old_builders(q):
    q = complex(q)
    rng = random.Random(f"builders:{q}")
    terms = 0
    for M in (1, 2, 3):
        pairs = _builder_pairs(rng, M, q)
        base = {"q": q, "x": rand_unit(rng)}
        for n in range(1, M + 4):
            base[f"a{n}"], base[f"b{n}"] = rand_unit(rng), rand_unit(rng)
        points = [base, point_at(base, {"x": 2, "a1": -1, "b1": 1, "a2": 3, "b3": -2})]
        offsets = [{}, {"x": 1, "a1": 1, "b1": 1}, {"a2": -1, "b2": 2}]
        for seed, (new, old) in enumerate(pairs):
            assert new.name == old.name
            assert [t.shifts for t in new.terms] == [t.shifts for t in old.terms], new.name
            negated = new.name.startswith(("3term6", "degene6"))
            for pt in points:
                bound = {**pt, **dict(new.consts)}  # the builder's constants, as op_apply adds them
                for tn, to in zip(new.terms, old.terms):
                    ref = -to.coeff(pt) if negated else to.coeff(pt)
                    assert _bits(tn.coeff(bound)) == _bits(ref), (new.name, tn.shifts)
            f = _seeded_lattice_fn(seed, base)
            assert residual(new, f, offsets) == residual(old, f, offsets), new.name
            terms += len(new.terms)
    assert terms > 700  # 714 terms over M = 1..3


def test_shift_op_and_point_at_reject_q_shifts():
    with pytest.raises(DomainError):
        shift_op({"q": 1})
    with pytest.raises(DomainError):
        shift_op({"x": 1, "q": -2}, coeff=lambda pt: pt["x"])
    with pytest.raises(DomainError):
        point_at({"q": Q, "x": 0.3}, {"q": 1})
    f = LatticeFunction(base={"q": Q, "x": 0.3}, eval=lambda off: 1.0)
    with pytest.raises(DomainError):
        op_apply(const_op(1.0), f, {"q": 1})


def test_builder_length_errors():
    a, b = [0.3, 0.4, 0.5], [0.6, 0.7, 0.8]
    with pytest.raises(DomainError):
        build_EM(2, 0.5, 0.6, a, b)  # M + 2 = 4 entries needed
    with pytest.raises(DomainError):
        build_EM(1, 0.5, 0.6, a, b[:2])
    with pytest.raises(DomainError):
        build_JP_general(2, Q, 0.5, 0.6, a, b)
    with pytest.raises(DomainError):
        build_JP_general(1, Q, 0.5, 0.6, a[:2], b)
    p = QALParams(A=0.3, B=(0.6, 0.7), C=0.5, x=(0.3, 0.4))
    with pytest.raises(DomainError):
        build_qal_system(3, p)
    with pytest.raises(DomainError):
        build_qal_system(2, QALParams(A=0.3, B=(0.6, 0.7), C=0.5, x=(0.3,)))


def test_missing_parameter_raises_domain_error():
    # an operator of shape M = 2 probing a function whose point has M = 1 parameters
    rng = random.Random("missing")
    bp = BalancedParams(a=tuple(rand_unit(rng) for _ in range(5)),
                        b=tuple(rand_unit(rng) for _ in range(5)))
    base = {"q": Q}
    for n in range(1, 5):
        base[f"a{n}"], base[f"b{n}"] = rand_unit(rng), rand_unit(rng)
    f = _seeded_lattice_fn(0, base)
    op = build_EM_hat(bp)
    with pytest.raises(DomainError, match=r"Ehat_2: .* 'a5'"):
        residual(op, f, [{}])
    with pytest.raises(DomainError, match=r"Ehat_2: .* 'a5'"):
        op_apply(op, f, {})
    with pytest.raises(DomainError, match=r"scaling: .* 'a9'"):
        residual(build_scaling_relation(bp), f, [{"a9": 1}])
    with pytest.raises(DomainError, match=r"point_at: .* 'x'"):
        point_at(base, {"x": 1})
    # a shifted coefficient of a composed operator reads the missing parameter too
    composed = op_multiply(shift_op({"a1": 1}), const_op(lambda pt: pt["a5"]), name="T a5")
    with pytest.raises(DomainError, match=r"T a5: .* 'a5'"):
        residual(composed, f, [{}])


def _clear_shape_caches():
    for obj in vars(operators).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def _constant_builders(rng, M):
    """(name, build) for each builder that takes constants; build(c) returns
    a list of operators for the draw c, and each call of draw() gives new c."""
    def draw():
        return {"A": rand_unit(rng), "B": rand_unit(rng), "qal": rand_unit(rng),
                "a": [rand_unit(rng) for _ in range(M + 2)],
                "b": [rand_unit(rng) for _ in range(M + 2)], "qlam": rand_unit(rng, 0.2, 0.9),
                "qalp": QALParams(A=rand_unit(rng), B=tuple(rand_unit(rng) for _ in range(M)),
                                  C=rand_unit(rng), x=(0.3,) * M)}

    builders = [
        ("build_EM", lambda c: [build_EM(M, c["A"], c["B"], c["a"], c["b"])]),
        ("build_JP_general",
         lambda c: [build_JP_general(M, c["qal"], c["A"], c["B"], c["a"], c["b"])]),
        ("build_EM_hat_prime", lambda c: [build_EM_hat_prime(M, c["qlam"])]),
        ("build_EM_hat_dprime", lambda c: [build_EM_hat_dprime(M, c["qlam"])]),
        ("build_degene_system", lambda c: build_degene_system(M, c["qlam"])),
        ("build_qal_system", lambda c: build_qal_system(M, c["qalp"])),
    ]
    return draw, builders


def _evaluations(ops, f, offsets):
    return [(_bits(op_apply(op, f, {})), residual(op, f, offsets)) for op in ops]


@pytest.mark.parametrize("M", [1, 2])
def test_builder_shapes_bind_no_constant(M):
    """A shape is built once and shared by every draw: evaluating op(c1) after
    op(c2) was built and evaluated gives the bits op(c1) gives alone, and
    op(c2) built on the shape cached by c1 gives the bits of op(c2) built on
    a fresh shape."""
    rng = random.Random(f"shapes:{M}")
    draw, builders = _constant_builders(rng, M)
    base = {"q": Q}
    for n in range(1, M + 4):
        base[f"a{n}"], base[f"b{n}"], base[f"x{n}"] = rand_unit(rng), rand_unit(rng), rand_unit(rng)
    base["x"] = rand_unit(rng)
    f = _seeded_lattice_fn(M, base)
    offsets = [{}, {"x": 1, "a1": 1, "b1": 1, "x1": -1}]
    try:
        for name, build in builders:
            c1, c2 = draw(), draw()
            alone = []
            for c in (c1, c2):
                _clear_shape_caches()
                alone.append(_evaluations(build(c), f, offsets))
            assert alone[0] != alone[1], name
            _clear_shape_caches()
            ops1 = build(c1)
            first = _evaluations(ops1, f, offsets)
            ops2 = build(c2)
            assert all(o2.terms is o1.terms for o1, o2 in zip(ops1, ops2)), name
            assert _evaluations(ops2, f, offsets) == alone[1], name
            assert _evaluations(ops1, f, offsets) == first == alone[0], name
            assert all(o.terms is o1.terms for o, o1 in zip(build(c1), ops1)), name
    finally:
        _clear_shape_caches()


def test_composition_keeps_each_operands_constants():
    """Operands that bind one constant name to different values compose as
    the same operators with their constants captured (the old builders)."""
    rng = random.Random("compose")
    M = 1
    A1, B1, A2, B2 = (rand_unit(rng) for _ in range(4))
    a1, b1, a2, b2 = ([rand_unit(rng) for _ in range(M + 2)] for _ in range(4))
    new1, new2 = build_EM(M, A1, B1, a1, b1), build_EM(M, A2, B2, a2, b2)
    old1, old2 = _old_build_EM(M, A1, B1, a1, b1), _old_build_EM(M, A2, B2, a2, b2)
    f = _seeded_lattice_fn(7, {"q": Q, "x": rand_unit(rng)})
    offsets = [{}, {"x": 2}]
    pairs = [
        (op_multiply(new1, new2), op_multiply(old1, old2)),
        (op_multiply(new2, op_scale(new1, 0.5)), op_multiply(old2, op_scale(old1, 0.5))),
        (op_add(new1, new2, new1), op_add(old1, old2, old1)),
        (op_product([new1, shift_op({"x": 1}), new1]), op_product([old1, shift_op({"x": 1}), old1])),
    ]
    for new, old in pairs:
        assert residual(new, f, offsets) == residual(old, f, offsets)
        assert _bits(op_apply(new, f, {"x": 1})) == _bits(op_apply(old, f, {"x": 1}))
