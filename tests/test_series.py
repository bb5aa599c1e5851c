"""Series-layer tests.

Frozen reference values come from mpmath at 40 digits: mp.qhyper for the
r_phi_s cases, and direct high-precision sums for the very-well-poised and
bilateral cases (which were also checked there against their classical product
forms — 6W5 summation and Ramanujan's 1psi1).
"""
import cmath
import functools
import math
import random

import numpy as np
import pytest

from qhyper import identities, series
from qhyper.errors import DomainError, NonFinite, PoleHit, TermEvaluationError
from qhyper.jackson import BalancedParams
from qhyper.qcore import QContext, principal_power, qpoch_finite, qpoch_infinite
from qhyper.series import (
    Factor,
    KajiharaParams,
    QALParams,
    ShellSpec,
    W_normalized,
    bilateral_psi,
    degene_solution,
    kajihara_W,
    phi_D,
    qal_solution,
    rphis,
    sum_shells,
    terminating_order,
    vwp_W,
)

CTX = QContext(q=0.5)


def rel(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1e-30)


# ---------------------------------------------------------------- sum_shells


def test_sum_shells_geometric_2d():
    # sum x^l1 y^l2 = 1/((1-x)(1-y))
    x, y = 0.4, 0.3 + 0.2j

    def term(l):
        return x ** l[0] * y ** l[1]

    res = sum_shells(term, 2, CTX)
    exact = 1.0 / ((1 - x) * (1 - y))
    assert res.converged
    assert rel(res.value, exact) < 1e-12
    assert res.last_shell_magnitude <= CTX.rel_tol * max(1.0, abs(res.value))


def test_sum_shells_order_independence():
    # shell order must agree with plain lexicographic summation
    x, y = 0.35, -0.45 + 0.1j

    def term(l):
        return x ** l[0] * y ** l[1] / (1 + l[0] + l[1])

    res = sum_shells(term, 2, CTX)
    lex = sum(
        term((l1, l2)) for l1 in range(120) for l2 in range(120)
    )
    assert rel(res.value, lex) < 1e-12


@pytest.mark.filterwarnings("error")
def test_sum_shells_term_failure():
    def term(l):
        if l[0] == 3:
            raise ZeroDivisionError("boom")
        return 0.5 ** l[0]

    with pytest.raises(TermEvaluationError):
        sum_shells(term, 1, CTX)


@pytest.mark.filterwarnings("error")
def test_sum_shells_nonfinite():
    def term(l):
        return float("inf") if l[0] == 2 else 1.0

    with pytest.raises(NonFinite):
        sum_shells(term, 1, CTX)


def test_sum_shells_no_convergence_flag():
    res = sum_shells(lambda l: 1.0, 1, CTX, shell_cap=20)
    assert not res.converged
    assert res.shells_used == 21


def _per_shell_sum(term, M, ctx, shell_cap=None, exact=False):
    """Reference for sum_shells: the stall rule one shell at a time, fed the
    same shell sums one by one.  A block that raises at shell k yields shells
    0..k-1 first, so the flattened stream raises exactly where a per-shell
    generator would."""
    cap = ctx.series_shell_cap if shell_cap is None else shell_cap
    if isinstance(term, ShellSpec):
        blocks = series._spec_shells(term, M, ctx.q, cap)
    else:
        blocks = series._callable_shells(term, M)
    shells = (shell for block in blocks for shell in block.tolist())
    partial = 0.0 + 0.0j
    stall = 0
    last_mag = 0.0
    used = 0
    converged = False
    for s, shell in zip(range(cap + 1), shells):
        partial += shell
        if not (math.isfinite(partial.real) and math.isfinite(partial.imag)):
            raise NonFinite(f"non-finite partial sum at shell {s}")
        last_mag = abs(shell)
        used = s + 1
        if last_mag <= ctx.rel_tol * max(1.0, abs(partial)):
            stall += 1
            if stall >= ctx.stall_window:
                converged = True
                break
        else:
            stall = 0
    if exact:
        converged = True
    return series.SeriesResult(partial, used, converged, last_mag)


def _outcome(fn, term, M, ctx, **kwargs):
    """Every field of a sum_shells result bit for bit, or the exception's
    type and message."""
    try:
        res = fn(term, M, ctx, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    v, mag = res.value, res.last_shell_magnitude
    return (type(v), v.real.hex(), v.imag.hex(), type(res.shells_used), res.shells_used,
            res.converged, type(mag), mag.hex())


def _same_as_per_shell(term, M, ctx, **kwargs):
    ref = _outcome(_per_shell_sum, term, M, ctx, **kwargs)
    assert _outcome(sum_shells, term, M, ctx, **kwargs) == ref
    return ref


def _random_spec(rng, M):
    def unit(lo=0.2, hi=0.8):
        return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))

    shell = Factor(w=unit(0.3, 0.75), e=rng.choice((0, 0, 1)), a=(unit(),), b=(unit(),))
    dirs = ()
    if rng.random() < 0.7:
        dirs = tuple(Factor(w=unit(0.2, 0.6), a=(unit(),), b=(unit(),)) for _ in range(M))
    y = tuple(unit() for _ in range(M)) if M > 1 and rng.random() < 0.5 else ()
    mu = tuple(unit() for _ in range(M)) if rng.random() < 0.5 else ()
    return ShellSpec(shell, dirs, y, mu)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q", [0.5, 0.7, -0.5, 0.6 * cmath.exp(0.5j)])
def test_block_stall_rule_matches_per_shell_loop(q):
    rng = random.Random(17)
    for M in (1, 2, 3):
        for window in (1, 3, 5):
            ctx = QContext(q=q, stall_window=window)
            for _ in range(3):
                spec = _random_spec(rng, M)
                _same_as_per_shell(spec, M, ctx)
                cap = rng.randrange(3, 40)
                _same_as_per_shell(spec, M, ctx, shell_cap=cap, exact=rng.random() < 0.5)
            w = [cmath.rect(rng.uniform(0.15, 0.4), rng.uniform(-3, 3)) for _ in range(M)]

            def term(l, w=w):
                return math.prod(wi ** li for wi, li in zip(w, l)) / (1 + sum(l))

            _same_as_per_shell(term, M, ctx)


def _first_block_end(M):
    """The first shell of the second block of an M-fold spec's shells."""
    s, count = 0, 0
    while count < series._BLOCK_MIN_TERMS:
        count += math.comb(s + M - 1, M - 1)
        s += 1
    return s


@pytest.mark.filterwarnings("error")
def test_block_stall_rule_edge_cases():
    q = CTX.q
    # shells vanish past the shell factor's cap c, and the stall of 3 ends
    # at c + 3: for c = B - 3 and B - 2 the run straddles the boundary B
    # between the first two blocks (shell 128 at M = 1 and shell 16 at M = 2
    # for a first block of 128 terms)
    b1, b2 = _first_block_end(1), _first_block_end(2)
    for M, caps in ((1, range(b1 - 5, b1 + 1)), (2, range(b2 - 5, b2))):
        for c in caps:
            out = _same_as_per_shell(ShellSpec(Factor(w=0.9, cap=c)), M, CTX)
            assert out[4:6] == (c + 4, True)
    # an exact cap that ends mid-block, where the next block is never pulled:
    # the callable raises past the cap
    spec = ShellSpec(Factor(w=0.3, a=(q ** -40,), b=(0.5,)))
    assert _same_as_per_shell(spec, 1, CTX, shell_cap=40, exact=True)[4:6] == (41, True)
    for M, cap in ((1, 40), (2, 10), (3, 6)):

        def capped(l, cap=cap):
            if sum(l) > cap:
                raise ZeroDivisionError("past the cap")
            return 0.9 ** sum(l)

        assert _same_as_per_shell(capped, M, CTX, shell_cap=cap, exact=True)[4] == cap + 1
    # about 23 500 shells at M = 1, as the z = 1 - 2^-10 point of psi.limit sums
    deep = QContext(q=q, series_shell_cap=60000)
    out = _same_as_per_shell(ShellSpec(Factor(w=1 - 2 ** -10, a=(0.3,), b=(0.6,))), 1, deep)
    assert out[4] > 20000 and out[5]
    # errors: a zero denominator at shell 3 and at shell 35 (mid-block), a
    # normalization that divides by zero, an overflowing term at shell 35,
    # and partial sums of finite shells that overflow (across shells, and
    # within shell 1)
    for spec, M, exc, msg in (
        (ShellSpec(Factor(w=0.3, b=(q ** -2,))), 1, TermEvaluationError, "l=(3,)"),
        (ShellSpec(Factor(w=2.0 ** 34, b=(q ** -34,))), 1, TermEvaluationError, "l=(35,)"),
        (ShellSpec(Factor(w=0.3), y=(0.4, 0.4)), 2, TermEvaluationError, "l=(0, 0)"),
        (ShellSpec(Factor(w=1e9)), 1, NonFinite, "l=(35,)"),
        (ShellSpec(Factor(a=(-2.6e13,))), 1, NonFinite, "partial sum at shell 84"),
        (ShellSpec(Factor(w=1.5e308, b=(0.0,))), 2, NonFinite, "partial sum at shell 1"),
    ):
        kind, message = _same_as_per_shell(spec, M, CTX)
        assert kind is exc and msg in message
    for term, exc in ((lambda l: 1e308, NonFinite), (lambda l: 1 / (3 - l[0]), TermEvaluationError)):
        assert _same_as_per_shell(term, 1, CTX)[0] is exc


_SCHEDULE_QS = [0.5, 0.7, -0.5, 0.6 * cmath.exp(0.5j), 0.3 + 0.6j]


def _random_factor(rng, q):
    def unit(lo=0.2, hi=0.9):
        return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))

    a = tuple(unit() for _ in range(rng.randrange(3)))
    b = [unit() for _ in range(rng.randrange(3))]
    if rng.random() < 0.3:
        b.append(q ** -rng.randrange(1, 40))  # (q^-k; q)_n = 0 from n = k + 1
    cap = rng.randrange(60) if rng.random() < 0.3 else None
    return Factor(w=unit(0.3, 1.5), e=rng.choice((0, 1, 2)), a=a, b=tuple(b), cap=cap)


def _bits(vals):
    return vals.view(np.uint64).tolist()


@pytest.mark.parametrize("q", _SCHEDULE_QS)
def test_tables_do_not_depend_on_the_extension_schedule(q):
    # tables grown in random steps equal tables grown in one extension, bit
    # for bit, zero denominators and caps included
    rng = random.Random(23)
    with np.errstate(all="ignore"):
        for _ in range(20):
            factors = [_random_factor(rng, q) for _ in range(rng.randint(1, 4))]
            total = rng.randrange(40, 300)
            whole = series._Tables(factors, q)
            whole.upto(total)
            grown = series._Tables(factors, q)
            n = 1
            while n < total:
                n = min(n + rng.choice((1, 1, 2, 2, 3, rng.randint(1, 60))), total)
                grown.upto(n)
            assert _bits(grown.vals[:, :total]) == _bits(whole.vals[:, :total])
            assert grown.bad == whole.bad


def _deep_spec(rng, M):
    """A spec whose terms decay slowly enough that an M = 3 sum reaches
    shells of more than 2048 terms, which make blocks of one or two shells."""
    def unit(lo, hi):
        return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))

    dirs = tuple(Factor(w=unit(0.68, 0.72), a=(unit(0.2, 0.8),), b=(unit(0.2, 0.8),))
                 for _ in range(M))
    return ShellSpec(Factor(w=unit(0.95, 1.0), a=(unit(0.2, 0.8),)), dirs,
                     mu=tuple(unit(0.2, 0.8) for _ in range(M)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q", _SCHEDULE_QS)
def test_sums_do_not_depend_on_the_block_schedule(q, monkeypatch):
    rng = random.Random(41)
    ctx = QContext(q=q)
    cases = []
    for M in (1, 2, 3):
        for _ in range(3):
            spec = _random_spec(rng, M)
            cases += [(spec, M, {}), (spec, M, {"shell_cap": rng.randrange(3, 40), "exact": True})]
    cases += [(_deep_spec(rng, 3), 3, {"shell_cap": rng.randrange(70, 100)}) for _ in range(2)]
    cases += [
        (ShellSpec(Factor(w=0.3, b=(q ** -2,))), 1, {}),
        (ShellSpec(Factor(w=2.0 ** 34, b=(q ** -34,))), 1, {}),
        (ShellSpec(Factor(w=1e9)), 1, {}),
        (ShellSpec(Factor(w=0.3), dirs=(Factor(w=0.2), Factor(w=0.2, b=(q ** -9,)))), 2, {}),
    ]
    outcomes = []
    for lo, hi in ((1, 4096), (32, 4096), (128, 4096), (128, 16384)):
        with monkeypatch.context() as mp:
            mp.setattr(series, "_BLOCK_MIN_TERMS", lo)
            mp.setattr(series, "_BLOCK_MAX_TERMS", hi)
            outcomes.append([_outcome(sum_shells, spec, M, ctx, **kw) for spec, M, kw in cases])
    assert any(out[4] > 64 for out in outcomes[0][-6:-4])  # the deep M = 3 sums
    for other in outcomes[1:]:
        assert other == outcomes[0]


def test_terminating_order():
    assert terminating_order(1.0, CTX) == 0
    assert terminating_order(4.0, CTX) == 2
    assert terminating_order(4.0 * (1 + 1e-15), CTX) == 2
    assert terminating_order(0.37, CTX) is None
    ctx = QContext(q=0.55 + 0.2j)
    assert terminating_order(ctx.q ** -3, ctx) == 3


def _loop_terminating_order(a, ctx, nmax=None):
    """The order one n at a time, |a - q^-n| <= 1e-12 |q^-n| with q^-n
    divided out in order: the reference of terminating_order."""
    if a == 0:
        return None
    if nmax is None:
        nmax = ctx.series_shell_cap
    qn = 1.0 + 0.0j
    mag = abs(complex(a))
    for n in range(nmax + 1):
        if abs(qn) * (1.0 - 1e-12) > mag:
            return None
        if abs(a - qn) <= 1e-12 * abs(qn):
            return n
        qn /= ctx.q
    return None


@pytest.mark.parametrize("q", (0.5, 0.9, -0.5, 0.6 * cmath.exp(0.5j)))
def test_terminating_order_matches_loop(q):
    # values at |a q^n - 1| = 1e-12 +- 1e-13 for every n of the range and one
    # past each end (1e-9 of the tolerance is below the rounding of a q^n),
    # 0, NaN, inf and random values
    ctx = QContext(q=q)
    rng = random.Random(37)
    for nmax in (None, 40):
        top = ctx.series_shell_cap if nmax is None else nmax
        values = [0.0, complex(math.nan, 0.0), complex(math.inf, 0.0)]
        for n in range(-1, top + 2):
            for edge in (1e-12 - 1e-13, 1e-12 + 1e-13):
                values.append(q ** -n * (1.0 + cmath.rect(edge, rng.uniform(0.0, 2 * math.pi))))
            values.append(cmath.rect(10.0 ** rng.uniform(-3, 3), rng.uniform(0.0, 2 * math.pi)))
        orders = [terminating_order(v, ctx, nmax) for v in values]
        assert orders == [_loop_terminating_order(v, ctx, nmax) for v in values]
        assert set(orders) == {None, *range(top + 1)}


# --------------------------------------------------------------------- rphis


def test_rphis_matches_mpmath():
    # mp.qhyper([0.3+0.1j, 0.45], [0.7], 0.5, 0.4+0.2j)
    res = rphis([0.3 + 0.1j, 0.45], [0.7], 0.4 + 0.2j, CTX)
    assert res.converged
    assert rel(res.value, 2.667455771083574961215 + 1.41469592675061968525j) < 1e-13
    # r < s+1 picks up the (-1)^l q^C(l,2) factor: mp.qhyper([0.3],[0.7,0.2+0.1j],0.5,0.9+0.3j)
    res = rphis([0.3], [0.7, 0.2 + 0.1j], 0.9 + 0.3j, CTX)
    assert rel(res.value, 7.744855476832628731241 + 4.405905904350936287444j) < 1e-13


def test_rphis_q_binomial_theorem():
    a, z = 0.6, 0.3 + 0.4j
    res = rphis([a], [], z, CTX)
    prod = qpoch_infinite(a * z, CTX) / qpoch_infinite(z, CTX)
    assert rel(res.value, prod) < 1e-12
    assert rel(res.value, 1.076923687342232736846 + 0.4821694858855006503386j) < 1e-13


def test_rphis_terminating_exact():
    # upper parameter q^{-3}: exact sum over l = 0..3
    a = CTX.q ** -3
    res = rphis([a, 0.4], [0.6], 2.5, CTX)  # |z| > 1 fine when terminating
    brute = sum(
        qpoch_finite(a, l, CTX)
        * qpoch_finite(0.4, l, CTX)
        / (qpoch_finite(CTX.q, l, CTX) * qpoch_finite(0.6, l, CTX))
        * 2.5 ** l
        for l in range(4)
    )
    assert res.converged
    assert res.shells_used == 4
    assert rel(res.value, brute) < 1e-14


def test_rphis_domain_errors():
    with pytest.raises(DomainError):
        rphis([0.3, 0.4], [0.5], 1.2, CTX)  # r = s+1 needs |z| < 1
    with pytest.raises(DomainError):
        rphis([0.3, 0.4, 0.5], [0.6], 0.5, CTX)  # r > s+1, not terminating


# --------------------------------------------------------------------- vwp_W


def test_vwp_terminating_6W5():
    # 6W5(a; b, c, q^-n; a q^(n+1)/(bc)), n = 5 — classical summation value
    a, b, c, n = 0.4, 0.3 + 0.2j, 0.25, 5
    z = a * CTX.q ** (n + 1) / (b * c)
    res = vwp_W(a, [b, c, CTX.q ** -n], z, CTX)
    assert res.converged and res.shells_used == n + 1
    ref = -7.416534687553795834051 - 3.288380099845067997934j
    assert rel(res.value, ref) < 1e-13
    prod = (
        qpoch_finite(a * CTX.q, n, CTX)
        * qpoch_finite(a * CTX.q / (b * c), n, CTX)
        / (qpoch_finite(a * CTX.q / b, n, CTX) * qpoch_finite(a * CTX.q / c, n, CTX))
    )
    assert rel(res.value, prod) < 1e-13


def test_vwp_nonterminating_6W5():
    a, b, c, d = 0.3, 0.8, 0.7 + 0.2j, 0.6
    z = a * CTX.q / (b * c * d)
    res = vwp_W(a, [b, c, d], z, CTX)
    ref = 1.027729261667075008115 - 0.05093351621151036134397j
    assert res.converged
    assert rel(res.value, ref) < 1e-12


def test_vwp_domain_error():
    with pytest.raises(DomainError):
        vwp_W(0.3, [0.4, 0.5, 0.6], 1.1, CTX)


# -------------------------------------------------------------- bilateral_psi


def test_bilateral_ramanujan_1psi1():
    a, b, z = 0.8, 0.3, 0.55 + 0.1j
    res = bilateral_psi([a], [b], z, CTX)
    ref = -0.23772526133357175283 + 0.5374904587636668481336j
    assert res.converged
    assert rel(res.value, ref) < 1e-12


def test_bilateral_annulus_enforced():
    with pytest.raises(DomainError):
        bilateral_psi([0.8], [0.3], 0.2, CTX)  # |b/a| = 0.375 > |z|
    with pytest.raises(DomainError):
        bilateral_psi([0.8], [0.3], 1.1, CTX)


def test_bilateral_one_sided_when_lower_is_q():
    # lower parameter q makes (q/d)_m = (1)_m = 0: negative side vanishes,
    # and the annulus requirement is waived
    a, z = 0.7, 0.4
    res = bilateral_psi([a], [CTX.q], z, CTX)
    one_sided = rphis([a], [], z, CTX)  # (q)_l denominator built in
    assert rel(res.value, one_sided.value) < 1e-13


# ----------------------------------------------------------------- kajihara_W


def test_kajihara_M1_is_vwp():
    # W^{1,N} is a (2N+4)W(2N+3) in disguise
    rng = random.Random(11)
    for N in (1, 2):
        x = 0.7 + 0.1j
        a = 0.5 + 0.2j
        u = tuple(cmath.rect(rng.uniform(0.3, 0.8), rng.uniform(0, 6.28)) for _ in range(1 + N))
        v = tuple(cmath.rect(rng.uniform(0.3, 0.8), rng.uniform(0, 6.28)) for _ in range(N))
        z = 0.4 - 0.1j
        res = kajihara_W(KajiharaParams(x=(x,), a=a, u=u, v=v, z=z), CTX)
        rest = [x * uj for uj in u] + list(v)
        ref = vwp_W(a * x, rest, z, CTX)
        assert rel(res.value, ref.value) < 1e-12


def test_kajihara_symmetric_in_x():
    p = KajiharaParams(
        x=(0.6, 0.35 + 0.15j),
        a=0.45,
        u=(0.3, 0.7, 0.52 - 0.2j),
        v=(0.65 + 0.1j,),
        z=0.38,
    )
    q = KajiharaParams(x=(p.x[1], p.x[0]), a=p.a, u=p.u, v=p.v, z=p.z)
    assert rel(kajihara_W(p, CTX).value, kajihara_W(q, CTX).value) < 1e-12


def test_kajihara_terminating_cap():
    n = 4
    p = KajiharaParams(
        x=(0.6, 0.35),
        a=0.45,
        u=(0.3, 0.7, 0.5),
        v=(CTX.q ** -n,),
        z=2.0,  # |z| >= 1 is fine when the series terminates
    )
    res = kajihara_W(p, CTX)
    assert res.converged
    assert res.shells_used == n + 1


def test_kajihara_divergence_guard():
    p = KajiharaParams(x=(0.6,), a=0.45, u=(0.3, 0.7), v=(0.4,), z=1.05)
    with pytest.raises(DomainError):
        kajihara_W(p, CTX)


# ------------------------------------------------- duality transformations


def _rand_unit(rng, lo=0.3, hi=0.85):
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi))


def _kajitrans_sides(M, N, n, rng, ctx):
    q = ctx.q
    xs = tuple(_rand_unit(rng) for _ in range(M))
    ys = tuple(_rand_unit(rng) for _ in range(N))
    bs = tuple(_rand_unit(rng) for _ in range(M + N + 2))
    a = _rand_unit(rng)
    c = _rand_unit(rng)
    mu = (
        a ** (N + 2)
        * q ** (N + 1)
        * math.prod(ys)
        / (c ** (N + 1) * math.prod(bs) * math.prod(xs))
    )
    lhs = kajihara_W(
        KajiharaParams(
            x=xs,
            a=a,
            u=bs,
            v=tuple(c / yk for yk in ys) + (mu * c * q ** n, q ** float(-n)),
            z=q,
        ),
        ctx,
    )
    pref = 1.0 + 0.0j
    for xi in xs:
        pref *= qpoch_finite(a * q * xi, n, ctx) / qpoch_finite(mu * c / (a * xi), n, ctx)
    for bj in bs:
        pref *= qpoch_finite(mu * c * bj / a, n, ctx) / qpoch_finite(a * q / bj, n, ctx)
    for yk in ys:
        pref *= qpoch_finite(c / yk, n, ctx) / qpoch_finite(mu * q * yk, n, ctx)
    rhs = kajihara_W(
        KajiharaParams(
            x=ys,
            a=mu,
            u=tuple(a * q / (c * bj) for bj in bs),
            v=tuple(mu * c / (a * xi) for xi in xs) + (mu * c * q ** n, q ** float(-n)),
            z=q,
        ),
        ctx,
    )
    return lhs.value, pref * rhs.value


def test_kajihara_transformation():
    rng = random.Random(2024)
    combos = [(M, N, n) for M in (1, 2) for N in (1, 2) for n in range(4)]
    draws = 0
    for M, N, n in combos:
        lhs, rhs = _kajitrans_sides(M, N, n, rng, CTX)
        assert rel(lhs, rhs) < 1e-10, (M, N, n)
        draws += 1
    # a few extra draws at the largest shape to reach 20 total
    while draws < 20:
        lhs, rhs = _kajitrans_sides(2, 2, 3, rng, CTX)
        assert rel(lhs, rhs) < 1e-10
        draws += 1


def test_W_M3_to_vwp():
    # W^{M,3} with v = (c, mu c q^k, q^-k) collapses to a single 2M+8 W 2M+7
    rng = random.Random(77)
    q = CTX.q
    for M in (1, 2):
        for k in (1, 2):
            xs = tuple(_rand_unit(rng) for _ in range(M))
            bs = tuple(_rand_unit(rng) for _ in range(M + 3))
            a = _rand_unit(rng)
            c = _rand_unit(rng)
            mu = a ** 3 * q ** 2 / (c ** 2 * math.prod(bs) * math.prod(xs))
            lhs = kajihara_W(
                KajiharaParams(
                    x=xs,
                    a=a,
                    u=bs,
                    v=(c, mu * c * q ** k, q ** float(-k)),
                    z=q,
                ),
                CTX,
            )
            pref = qpoch_finite(c, k, CTX) / qpoch_finite(mu * q, k, CTX)
            for xi in xs:
                pref *= qpoch_finite(a * q * xi, k, CTX) / qpoch_finite(mu * c / (a * xi), k, CTX)
            for bj in bs:
                pref *= qpoch_finite(mu * c * bj / a, k, CTX) / qpoch_finite(a * q / bj, k, CTX)
            rest = (
                [mu * c / (a * xi) for xi in xs]
                + [a * q / (c * bj) for bj in bs]
                + [mu * c * q ** k, q ** float(-k)]
            )
            rhs = vwp_W(mu, rest, q, CTX)
            assert rel(lhs.value, pref * rhs.value) < 1e-10, (M, k)


# --------------------------------------------------------------------- phi_D


def test_phi_D_brute_force():
    p = QALParams(A=0.3 + 0.1j, B=(0.2, 0.5), C=0.6, x=(0.45, -0.3 + 0.2j))
    res = phi_D(p, CTX)
    brute = 0.0 + 0.0j
    for l1 in range(80):
        for l2 in range(80):
            s = l1 + l2
            brute += (
                qpoch_finite(p.A, s, CTX)
                / qpoch_finite(p.C, s, CTX)
                * qpoch_finite(p.B[0], l1, CTX)
                / qpoch_finite(CTX.q, l1, CTX)
                * qpoch_finite(p.B[1], l2, CTX)
                / qpoch_finite(CTX.q, l2, CTX)
                * p.x[0] ** l1
                * p.x[1] ** l2
            )
    assert res.converged
    assert rel(res.value, brute) < 1e-12


def test_phi_D_small_x_limit():
    p = QALParams(A=0.4, B=(0.3, 0.6), C=0.7, x=(1e-4, 1e-4))
    res = phi_D(p, CTX)
    assert abs(res.value - 1.0) < 1e-3


def test_phi_D_domain():
    with pytest.raises(DomainError):
        phi_D(QALParams(A=0.3, B=(0.2,), C=0.6, x=(1.0,)), CTX)


# ------------------------------------------------------- solution families


def test_qal_family2_domain():
    p = QALParams(A=0.3, B=(0.4, 0.5), C=0.6, x=(0.2, 0.3))
    # |C/(B1 B2)| = 3 >= 1
    with pytest.raises(DomainError):
        qal_solution(2, p, CTX)


def test_qal_families_converge():
    p = QALParams(A=0.35 + 0.1j, B=(0.6, 0.7), C=0.25, x=(0.3, 0.25 - 0.1j))
    for fam in (1, 2, 3):
        res = qal_solution(fam, p, CTX)
        assert res.converged, fam
        assert res.value != 0



# A prefactor factor 1 - c q^j within 1e-12 of zero is a pole, on it or off it
# by rounding: the prefactor's denominator (1; q)_inf at q = 0.5 raises PoleHit
# instead of dividing by zero or returning about 1e12 times the sum.
@pytest.mark.parametrize("scale", [1.0, 1.0 + 5e-13])
def test_prefactor_pole_raises_polehit(scale):
    # (q b_1/a_3)_inf with b_1 = 2 a_3 (b_4 keeps the balance)
    a, b = (0.4, 0.3, 0.5, 0.6), [2 * 0.5 * scale, 0.35, 0.45]
    b.append(math.prod(a) / (0.25 * math.prod(b)))
    with pytest.raises(PoleHit):
        W_normalized(BalancedParams(a=a, b=tuple(b)), CTX)
    # (x_1)_inf with x_1 = 1
    with pytest.raises(PoleHit):
        qal_solution(2, QALParams(A=0.3, B=(0.8, 0.9), C=0.5, x=(scale, 0.4)), CTX)
    # (q b_1/a_2)_inf with b_1 = 2 a_2
    with pytest.raises(PoleHit):
        degene_solution(2, (0.6, 0.7), (2 * 0.7 * scale, 0.3), 0.5, CTX)


# ------------------------------------------- ShellSpec engine vs scalar terms
#
# Every family builds a ShellSpec and hands it to sum_shells.  Each test below
# records those calls and sums the same term, written out as a plain scalar
# callable over qpoch_finite, through the callable path of sum_shells.  The
# two must stop at the same shell and agree to 1e-13 of sum |t| (1e-13
# relative, scaled by the cancellation ratio sum |t| / |sum t|).

QS = [0.5, -0.45, 0.6 * cmath.exp(0.5j)]


def _vander(ys, l, q):
    num = den = 1.0 + 0.0j
    for i in range(len(ys)):
        for j in range(i + 1, len(ys)):
            num *= ys[i] * q ** l[i] - ys[j] * q ** l[j]
            den *= ys[i] - ys[j]
    return num / den


def _spec_calls(monkeypatch, fn, *args):
    """(M, shell_cap, exact, result) of every sum_shells call fn makes."""
    calls = []
    real = series.sum_shells

    def record(term, M, ctx, shell_cap=None, exact=False):
        assert isinstance(term, ShellSpec)
        res = real(term, M, ctx, shell_cap=shell_cap, exact=exact)
        calls.append((M, shell_cap, exact, res))
        return res

    with monkeypatch.context() as mp:
        mp.setattr(series, "sum_shells", record)
        fn(*args)
    return calls


def _assert_matches(call, term, ctx):
    M, cap, exact, res = call
    memo = {}

    def cached(l):
        if l not in memo:
            memo[l] = term(l)
        return memo[l]

    ref = sum_shells(cached, M, ctx, shell_cap=cap, exact=exact)
    assert (res.shells_used, res.converged) == (ref.shells_used, ref.converged)
    abs_sum = sum(abs(t) for t in memo.values())  # every term of the consumed shells
    assert abs(res.value - ref.value) <= 1e-13 * abs_sum


def _check_family(monkeypatch, ctx, fn, args, terms):
    calls = _spec_calls(monkeypatch, fn, *args, ctx)
    assert len(calls) == len(terms)
    for call, term in zip(calls, terms):
        _assert_matches(call, term, ctx)


def _poch(ctx):
    @functools.lru_cache(maxsize=None)
    def P(a, n):
        return qpoch_finite(a, n, ctx)

    return P


@pytest.mark.parametrize("q", QS)
def test_spec_rphis_vwp_psi(q, monkeypatch):
    ctx = QContext(q=q)
    P = _poch(ctx)
    rng = random.Random(31)
    for upper, lower, z in [
        ([_rand_unit(rng), _rand_unit(rng)], [_rand_unit(rng)], _rand_unit(rng, 0.3, 0.6)),
        ([_rand_unit(rng)], [_rand_unit(rng), _rand_unit(rng)], _rand_unit(rng, 0.5, 2.0)),
        ([q**-4, _rand_unit(rng), _rand_unit(rng)], [_rand_unit(rng)], _rand_unit(rng, 0.5, 2.0)),
    ]:
        excess = 1 + len(lower) - len(upper)

        def term(l, upper=upper, lower=lower, z=z, excess=excess):
            n = l[0]
            t = math.prod(P(u, n) for u in upper) / (P(q, n) * math.prod(P(d, n) for d in lower))
            return t * z ** n * ((-1) ** n * q ** (n * (n - 1) // 2)) ** excess

        _check_family(monkeypatch, ctx, rphis, (upper, lower, z), [term])

    for rest in ([_rand_unit(rng) for _ in range(3)], [_rand_unit(rng), _rand_unit(rng), q ** -3]):
        a1, z = _rand_unit(rng), _rand_unit(rng, 0.2, 0.5)

        def term(l, a1=a1, rest=rest, z=z):
            n = l[0]
            t = (1 - a1 * q ** (2 * n)) / (1 - a1) * P(a1, n) * z ** n
            t *= math.prod(P(c, n) for c in rest)
            return t / (P(q, n) * math.prod(P(q * a1 / c, n) for c in rest))

        _check_family(monkeypatch, ctx, vwp_W, (a1, rest, z), [term])

    # both halves non-terminating, then a negative half that terminates at m = 3
    for upper, lower in [
        ([_rand_unit(rng, 0.75, 0.9) for _ in range(2)], [_rand_unit(rng, 0.25, 0.4)] * 2),
        ([_rand_unit(rng, 0.75, 0.9)], [q ** 4]),
    ]:
        z = _rand_unit(rng, 0.55, 0.65)

        def pos(l, upper=upper, lower=lower, z=z):
            n = l[0]
            return math.prod(P(c, n) for c in upper) / math.prod(P(d, n) for d in lower) * z ** n

        def neg(l, upper=upper, lower=lower, z=z):
            m = -(l[0] + 1)  # (c)_m with negative index
            return math.prod(P(c, m) for c in upper) / math.prod(P(d, m) for d in lower) * z ** m

        _check_family(monkeypatch, ctx, bilateral_psi, (upper, lower, z), [pos, neg])


def _kajihara_term(p, ctx, dir_caps):
    P = _poch(ctx)
    q = ctx.q
    M = len(p.x)

    def term(l):
        if any(c is not None and li > c for li, c in zip(l, dir_caps)):
            return 0.0
        s = sum(l)
        t = p.z ** s * _vander(p.x, l, q)
        t *= math.prod(P(v, s) for v in p.v) / math.prod(P(p.a * q / u, s) for u in p.u)
        for i in range(M):
            xi, li = p.x[i], l[i]
            t *= (1 - p.a * xi * q ** (s + li)) / (1 - p.a * xi) * P(p.a * xi, s)
            t *= math.prod(P(xi * u, li) for u in p.u)
            t /= math.prod(P(q * xi / xj, li) for xj in p.x)
            t /= math.prod(P(p.a * q * xi / v, li) for v in p.v)
        return t

    return term


@pytest.mark.parametrize("q", QS)
def test_spec_kajihara(q, monkeypatch):
    ctx = QContext(q=q)
    rng = random.Random(5)
    for M in (1, 2, 3):
        p = KajiharaParams(
            x=tuple(_rand_unit(rng) for _ in range(M)),
            a=_rand_unit(rng),
            u=tuple(_rand_unit(rng) for _ in range(M + 2)),
            v=(_rand_unit(rng), _rand_unit(rng)),
            z=_rand_unit(rng, 0.1, 0.2),
        )
        _check_family(monkeypatch, ctx, kajihara_W, (p,), [_kajihara_term(p, ctx, [None] * M)])
        # terminating through direction caps: x_i u_i = q^-n_i
        caps = [2, 3, 1][:M]
        u = tuple(q ** -n / xi for n, xi in zip(caps, p.x)) + p.u[M:]
        pt = KajiharaParams(x=p.x, a=p.a, u=u, v=p.v, z=_rand_unit(rng, 0.8, 1.5))
        calls = _spec_calls(monkeypatch, kajihara_W, pt, ctx)
        assert calls[0][1:3] == (sum(caps), True)
        _assert_matches(calls[0], _kajihara_term(pt, ctx, caps), ctx)


@pytest.mark.parametrize("q", QS)
def test_spec_phi_D_and_qal(q, monkeypatch):
    ctx = QContext(q=q)
    P = _poch(ctx)
    sampler = identities.catalog()["qal.solutions"]
    for M in (1, 2, 3):
        B, x = (0.2, 0.5, -0.4)[:M], (0.35, -0.3 + 0.2j, 0.25j)[:M]
        p = QALParams(A=0.3 + 0.1j, B=B, C=0.6, x=x)

        def phid(l, p=p):
            s = sum(l)
            t = P(p.A, s) / P(p.C, s)
            for bi, xi, li in zip(p.B, p.x, l):
                t *= P(bi, li) / P(q, li) * xi ** li
            return t

        _check_family(monkeypatch, ctx, phi_D, (p,), [phid])

        d = sampler.sampler(0, M, ctx)
        A, C, Bs, xs = d["A"], d["C"], d["B"], d["x"]
        Bprod = math.prod(Bs)
        ys = [b * x for b, x in zip(Bs, xs)]

        def common(l):
            t = _vander(ys, l, q)
            for i, li in enumerate(l):
                t *= math.prod(P(ys[i] / xj, li) for xj in xs)
                t /= P(ys[i], li) * math.prod(P(q * ys[i] / yj, li) for yj in ys)
            return t

        def fam1(l):
            s = sum(l)
            t = q ** (s * (s - 1) // 2) * common(l) * P(A, s) / P(C, s)
            for i, li in enumerate(l):
                mu = A * ys[i] / q
                t *= (1 - mu * q ** (s + li)) / (1 - mu) * P(mu, s) / P(A * xs[i], s)
                t *= P(A * ys[i] / C, li) * (Bs[i] * C * xs[i] / Bprod) ** li
                t *= q ** (li * (li - 1) // 2)
            return t

        def fam2(l):
            t = (C / Bprod) ** sum(l) * common(l)
            return t * math.prod(P(A * ys[i] / C, li) for i, li in enumerate(l))

        def fam3(l):
            s = sum(l)
            t = (-A / Bprod) ** s * common(l) * P(C / A, s) / P(C, s)
            return t * math.prod(ys[i] ** li * q ** (li * (li - 1) // 2) for i, li in enumerate(l))

        for k, term in ((1, fam1), (2, fam2), (3, fam3)):
            _check_family(monkeypatch, ctx, lambda *args, k=k: qal_solution(k, *args),
                          (QALParams(A=A, B=Bs, C=C, x=xs),), [term])


@pytest.mark.parametrize("q", QS)
def test_spec_degene(q, monkeypatch):
    ctx = QContext(q=q)
    P = _poch(ctx)
    sampler = identities.catalog()["degene.solutions"]
    for M in (1, 2, 3):
        d = sampler.sampler(0, M, ctx)
        a, b = d["a"], d["b"]
        qlam = principal_power(q, d["lam"])
        qlp1, qlp2 = qlam * q, qlam * q * q
        aM1, bM1 = a[M], b[M]
        qbeta = math.prod(a) / (qlp2 * math.prod(b))

        def dirs(l, nb, w, e):
            t = _vander(a[:M], l, q)
            for i, li in enumerate(l):
                t *= math.prod(P(a[i] / bj, li) for bj in b[:nb]) * w[i] ** li
                t *= q ** (e * li * (li - 1) // 2) / math.prod(P(q * a[i] / aj, li) for aj in a)
            return t

        def fam1(l):
            s = sum(l)
            t = (q / aM1) ** s * q ** (s * (s - 1) // 2) * P(qlp1, s)
            t /= math.prod(P(qlp2 * bj / aM1, s) for bj in b)
            for i, li in enumerate(l):
                mu = qlp1 * a[i] / aM1
                t *= (1 - mu * q ** (s + li)) / (1 - mu) * P(mu, s)
            return t * dirs(l, M + 1, [ai / qbeta for ai in a], 1)

        def fam2(l):
            return (1 / qbeta) ** sum(l) * dirs(l, M + 1, [1.0] * M, 0)

        def fam3(l):
            s = sum(l)
            t = (1 / bM1) ** s * P(q * bM1 / aM1, s) / P(qlp2 * bM1 / aM1, s)
            return t * dirs(l, M, [-ai / qbeta for ai in a], 1)

        for k, term in ((1, fam1), (2, fam2), (3, fam3)):
            _check_family(monkeypatch, ctx, lambda *args, k=k: degene_solution(k, *args),
                          (a, b, qlam), [term])


@pytest.mark.parametrize("q", QS)
def test_spec_catalog_sums(q, monkeypatch):
    # the shell sums the identity catalog builds itself
    ctx = QContext(q=q)
    P = _poch(ctx)
    cases = identities.catalog()

    def kphid(p):
        a, b, c, u, xs = p["a"], p["b"], p["c"], p["u"], p["x"]

        def term(l):
            t = u ** sum(l) * _vander(xs, l, q)
            for i, li in enumerate(l):
                t *= P(b * xs[i] / xs[-1], li) / P(c * xs[i] / xs[-1], li)
                for aj, xj in zip(a, xs):
                    t *= P(aj * xs[i] / xj, li) / P(q * xs[i] / xj, li)
            return t

        return "lhs", term

    def gen(p, second):
        a, b, x = p["a"], p["b"], p["x"]
        M = len(b)

        def term(l):
            s = sum(l)
            if second:
                z = -math.prod(a) * x / (a[M] * math.prod(b))
                t = z ** s * P(a[M], s) / P(a[M] * x, s)
            else:
                t = (math.prod(a) * x / math.prod(b)) ** s
            t *= _vander(b, l, q)
            for i, li in enumerate(l):
                t /= P(b[i], li) * math.prod(P(q * b[i] / bj, li) for bj in b)
                t *= math.prod(P(b[i] / aj, li) for aj in (a[:M] if second else a))
                if second:
                    t *= b[i] ** li * q ** (li * (li - 1) // 2)
            return t

        return "lhs", term

    def serlim(p):
        a, b = p["a"], p["b"]
        M = len(a) - 2
        qlp1 = principal_power(q, p["lam"]) * q
        aM2 = a[M + 1]
        kappa = qlp1 / aM2

        def term(l):
            s = sum(l)
            t = (-q * a[M] / aM2) ** s * q ** (s * (s - 1) // 2) * _vander(a[:M], l, q)
            t *= P(qlp1, s) / math.prod(P(qlp1 * q * bj / aM2, s) for bj in b)
            for i, li in enumerate(l):
                mu = kappa * a[i]
                t *= (1 - mu * q ** (s + li)) / (1 - mu) * P(mu, s)
                t *= math.prod(P(a[i] / bj, li) for bj in b) / P(q * a[i] / aM2, li)
                t /= math.prod(P(q * a[i] / aj, li) for aj in a[:M])
            return t

        return "rhs", term

    for cid, Ms, build in (
        ("qal.kajihara_phiD", (1, 2, 3), kphid),
        ("mp1phim.euler", (1, 2, 3), lambda p: gen(p, False)),
        ("mp1phim.jackson", (1, 2, 3), lambda p: gen(p, True)),
        ("degene.series_limit", (1, 2), serlim),
    ):
        for M in Ms:
            p = cases[cid].sampler(0, M, ctx)
            side, term = build(p)
            calls = []
            real = identities.sum_shells

            def record(spec, M, ctx, shell_cap=None, exact=False):
                assert isinstance(spec, ShellSpec)
                calls.append((M, shell_cap, exact, real(spec, M, ctx, shell_cap, exact)))
                return calls[-1][3]

            with monkeypatch.context() as mp:
                mp.setattr(identities, "sum_shells", record)
                getattr(cases[cid], side)(p, ctx)
            assert len(calls) == 1, cid
            _assert_matches(calls[0], term, ctx)


# ----------------------------------------------------- ShellSpec error paths


@pytest.mark.filterwarnings("error")
def test_spec_shells_past_the_stop_never_raise():
    q = CTX.q
    # terms vanish from n = 2 on, so the sum stops at shell 4; the block it
    # came from also holds n = 9, where (q^-8; q)_n divides by zero, and
    # shells where w^n overflows
    for spec in (
        ShellSpec(Factor(a=(q ** -1,), b=(q ** -8,))),
        ShellSpec(Factor(w=1e200, a=(q ** -1,))),
        ShellSpec(Factor(a=(q ** -1,)), dirs=(Factor(b=(q ** -6,)), Factor(w=0.3))),
    ):
        M = max(1, len(spec.dirs))
        res = sum_shells(spec, M, CTX)
        assert res.converged and res.shells_used == 5


@pytest.mark.filterwarnings("error")
def test_spec_zero_denominator_raises_term_error():
    q = CTX.q
    for spec, M in (
        (ShellSpec(Factor(w=0.3, b=(q ** -2,))), 1),  # (q^-2; q)_3 = 0
        (ShellSpec(Factor(w=0.3), dirs=(Factor(w=0.2), Factor(w=0.2, b=(q ** -1,)))), 2),
        (ShellSpec(Factor(w=0.3), y=(0.4, 0.4)), 2),  # Delta(y) = 0
        (ShellSpec(Factor(w=0.3), mu=(1.0,)), 1),  # 1 - mu = 0
    ):
        with pytest.raises(TermEvaluationError):
            sum_shells(spec, M, CTX)
    # past its cap a direction factor is zero, even where (q^-1; q)_l = 0
    spec = ShellSpec(Factor(w=0.3), dirs=(Factor(b=(q ** -1,), cap=1), Factor(w=0.2)))
    res = sum_shells(spec, 2, CTX)
    assert res.converged
    assert rel(res.value, (1 + 0.3 / (1 - 1 / q)) / (1 - 0.3 * 0.2)) < 1e-14


@pytest.mark.filterwarnings("error")
def test_spec_nonfinite_raises():
    with pytest.raises(NonFinite, match="term"):
        sum_shells(ShellSpec(Factor(w=1e200)), 1, CTX)  # w^2 overflows
    with pytest.raises(NonFinite, match="partial"):
        # two finite terms of 1.5e308 in shell 1 overflow the shell sum
        sum_shells(ShellSpec(Factor(w=1.5e308, b=(0.0,))), 2, CTX)
