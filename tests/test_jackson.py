"""Jackson-integral tests: exact small cases, lattice structure, and the
integral representation of the symmetrized W."""
import cmath
import math
import random
import struct

import pytest

from qhyper.errors import DomainError, NoConvergence, NonFinite, PoleHit, QHyperError
from qhyper.qcore import QContext, qpoch_infinite
from qhyper.jackson import (
    BalancedParams,
    JPParams,
    degene_integral,
    jackson_0_to,
    jackson_between,
    jackson_bilateral,
    jp_integral,
    principal_power,
    q_exponent,
    rp_integral,
    rp_integrand,
)
from qhyper.series import W_normalized

CTX = QContext(q=0.5)


def rel(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1e-30)


def _rand_unit(rng, lo=0.3, hi=0.9):
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi))


def sample_balanced(rng, M, ctx, zmax=0.75):
    """Random balanced a, b with the last b solved from the constraint."""
    while True:
        a = [_rand_unit(rng) for _ in range(M + 3)]
        b = [_rand_unit(rng) for _ in range(M + 2)]
        blast = math.prod(a) / (ctx.q ** 2 * math.prod(b))
        if not 0.05 < abs(blast) < 20:
            continue
        if abs(a[M] / blast) >= zmax:
            continue
        bp = BalancedParams(a=tuple(a), b=tuple(b) + (blast,))
        try:
            bp.check(ctx)
        except DomainError:
            continue
        return bp


# ------------------------------------------------------------ plain lattices


def test_constant_integrand():
    assert rel(jackson_0_to(0.7, lambda t: 1.0, CTX), 0.7) < 1e-12


def test_linear_integrand():
    # int_0^tau t d_q t = tau^2/(1+q)
    val = jackson_0_to(0.5, lambda t: t, CTX)
    assert rel(val, 0.25 / 1.5) < 1e-12


def test_zero_endpoint():
    assert jackson_0_to(0.0, lambda t: 1.0, CTX) == 0.0


def test_helper_q_integral():
    # int_0^1 (qt)_inf/(qBt/A t)... = (1-q)/(1 - qB/A) at A=1, B=0.35
    A, B = 1.0, 0.35

    def f(t):
        return qpoch_infinite(CTX.q * t, CTX) / qpoch_infinite(CTX.q * B * t / A, CTX)

    val = jackson_0_to(1.0, f, CTX)
    assert rel(val, (1 - CTX.q) / (1 - CTX.q * B / A)) < 1e-10


def test_bilateral_matches_geometric_series():
    # f(t) = t decays both ways on the weighted lattice:
    # (1-q) sum_n (tau q^n)^2 diverges for n -> -inf, so use f with decay:
    # f(t) = 1/((t)(1 + t^2))-style checks are awkward; instead compare the
    # bilateral sum of a two-sided summable integrand against mpmath-style
    # brute force on the same lattice.
    tau = 0.6

    def f(t):
        return 1.0 / ((1 + 4 * t * t) * (1 + t))

    val = jackson_bilateral(tau, f, CTX)
    brute = 0.0
    for n in range(-200, 400):
        t = tau * CTX.q ** n
        if abs(t) > 1e300:
            continue
        brute += f(t) * t
    brute *= 1 - CTX.q
    assert rel(val, brute) < 1e-10


def test_no_convergence_raises():
    # f(t) t -> 1 as |t| grows, so the negative side never stalls; a small
    # cutoff keeps the lattice inside double range so the cap is what trips
    ctx = QContext(q=0.5, infinite_product_cutoff=100)
    with pytest.raises(NoConvergence):
        jackson_bilateral(0.5, lambda t: 1.0 / (1.0 + t), ctx)


def test_lattice_shift_law():
    # int_0^{tau inf} f(q^i t) d_q t = q^{-i} int_0^{tau inf} f(t) d_q t
    tau = 0.45

    def f(t):
        return 1.0 / ((1 + 2 * t * t) * (1 + 0.5 * t))

    base = jackson_bilateral(tau, f, CTX)
    for i in (-2, -1, 1, 2):
        shifted = jackson_bilateral(tau, lambda t: f(CTX.q ** i * t), CTX)
        assert rel(shifted, CTX.q ** float(-i) * base) < 1e-11, i


# --------------------------------------------------------------- rp_integral


def test_balanced_check():
    rng = random.Random(1)
    bp = sample_balanced(rng, 1, CTX)
    bp.check(CTX)  # passes
    bad = BalancedParams(a=bp.a, b=tuple(1.1 * x for x in bp.b))
    with pytest.raises(DomainError):
        bad.check(CTX)
    lat = BalancedParams(a=(0.5, 0.25) + bp.a[2:], b=bp.b)
    with pytest.raises(DomainError):
        lat.check(CTX)


def test_rp_integrand_zero_snap():
    rng = random.Random(2)
    bp = sample_balanced(rng, 1, CTX)
    psi = rp_integrand(bp, CTX)
    # at t = q^0 / a_2 = (q/a_2) q^{-1}, the (a_2 t)_inf factor vanishes
    t = 1.0 / bp.a[1]
    assert psi(t) == 0.0


def test_rp_integral_antisymmetric_and_cocycle():
    rng = random.Random(3)
    bp = sample_balanced(rng, 2, CTX)
    v12 = rp_integral(bp, 1, 2, CTX)
    v21 = rp_integral(bp, 2, 1, CTX)
    assert rel(v12, -v21) < 1e-14
    assert rp_integral(bp, 2, 2, CTX) == 0.0
    cyc = v12 + rp_integral(bp, 2, 3, CTX) + rp_integral(bp, 3, 1, CTX)
    scale = max(abs(v12), 1.0)
    assert abs(cyc) <= 1e-11 * scale


def test_W_equals_normalized_integral():
    # the symmetrized W equals 1/(q(1-q)(q)_inf) int_{q/a_{M+2}}^{q/a_{M+3}} psi
    rng = random.Random(42)
    norm = CTX.q * (1 - CTX.q) * qpoch_infinite(CTX.q, CTX)
    checked = 0
    for M in (1, 2, 3):
        for _ in range(25 if M < 3 else 5):
            bp = sample_balanced(rng, M, CTX)
            W = W_normalized(bp, CTX)
            integ = rp_integral(bp, M + 2, M + 3, CTX) / norm
            assert rel(W.value, integ) < 1e-7, (M, bp)
            checked += 1
    assert checked >= 25


def test_W_symmetry_in_a_and_b():
    rng = random.Random(9)
    bp = sample_balanced(rng, 2, CTX, zmax=0.6)
    base = W_normalized(bp, CTX).value
    # swap a_1 <-> a_{M+1} (both in the symmetric group of the first M+1)
    a2 = list(bp.a)
    a2[0], a2[2] = a2[2], a2[0]
    swapped = W_normalized(BalancedParams(a=tuple(a2), b=bp.b), CTX).value
    assert rel(base, swapped) < 1e-10
    # swap b_1 <-> b_2
    b2 = list(bp.b)
    b2[0], b2[1] = b2[1], b2[0]
    swapped_b = W_normalized(BalancedParams(a=bp.a, b=tuple(b2)), CTX).value
    assert rel(base, swapped_b) < 1e-10


# ------------------------------------------------------------- jp / degene


def test_jp_integral_alpha_one_reduces_to_plain():
    # alpha = 1: weight is exactly t, same as jackson_bilateral of the product
    rng = random.Random(4)
    # magnitudes chosen so |q^-1 A prod(a)/(B prod(b))| < 1 for every draw
    a = tuple(_rand_unit(rng, 0.2, 0.4) for _ in range(3))
    b = tuple(_rand_unit(rng, 0.6, 0.9) for _ in range(3))
    A, B, x = 0.9, 0.8, 0.8
    # tau = q/(A x) makes the negative side vanish identically
    p = JPParams(alpha_power=CTX.q, A=A, B=B, a=a, b=b, tau=CTX.q / (A * x))
    val = jp_integral(p, x, CTX)

    def f(t):
        out = qpoch_infinite(A * x * t, CTX) / qpoch_infinite(B * x * t, CTX)
        for ak in a:
            out *= qpoch_infinite(ak * t, CTX)
        for bk in b:
            out /= qpoch_infinite(bk * t, CTX)
        return out

    ref = jackson_0_to(p.tau, f, CTX)  # negative side vanishes at this tau
    assert rel(val, ref) < 1e-11


def test_jp_integral_domain_checks():
    p = JPParams(alpha_power=1.2, A=0.5, B=0.4, a=(0.3,), b=(0.2,), tau=1.0)
    with pytest.raises(DomainError):
        jp_integral(p, 0.5, CTX)


def test_degene_integral_lambda_zero():
    # lambda = 0: plain one-sided integral from 0 to q/a_j
    rng = random.Random(6)
    a = tuple(_rand_unit(rng) for _ in range(2))
    b = tuple(_rand_unit(rng, 0.2, 0.5) for _ in range(2))
    val = degene_integral(1, a, b, 1.0, CTX)

    def f(t):
        out = 1.0
        for ak in a:
            out *= qpoch_infinite(ak * t, CTX)
        for bk in b:
            out /= qpoch_infinite(bk * t, CTX)
        return out

    ref = jackson_0_to(CTX.q / a[0], f, CTX)
    assert rel(val, ref) < 1e-11


def test_degene_integral_fractional_lambda_scaling():
    # under a_j -> q a_j the integral picks up exactly tau -> tau/q... check
    # the lattice-propagation contract: passing tau_power shifted by q^-lambda
    # equals recomputing at the shifted parameter on the principal branch only
    # when the branch does not wrap; here both are computed explicitly.
    rng = random.Random(8)
    a = tuple(_rand_unit(rng) for _ in range(2))
    b = tuple(_rand_unit(rng, 0.2, 0.5) for _ in range(2))
    qlam = 0.7 + 0.2j
    lam = q_exponent(qlam, CTX)
    tau = CTX.q / a[0]
    base_pow = principal_power(tau, lam)
    v1 = degene_integral(1, a, b, qlam, CTX, tau_power=base_pow)
    v2 = degene_integral(1, a, b, qlam, CTX)
    assert rel(v1, v2) < 1e-13


def test_pole_hit():
    # denominator b_1 t = q^{-n} on the integration lattice forces PoleHit
    a = (0.4, 0.5, 0.3, 0.25)
    tau = CTX.q / a[0]
    b1 = 1.0 / tau  # b_1 * tau = 1 exactly
    b = (b1, 0.3, 0.2, 0.4 * 0.5 * 0.3 * 0.25 / (CTX.q ** 2 * b1 * 0.3 * 0.2))
    bp = BalancedParams(a=a, b=b)
    psi = rp_integrand(bp, CTX)
    with pytest.raises(PoleHit):
        psi(tau)


# ------------------------------------------------- lattice sums vs the old loops
#
# jackson_0_to, the two halves of jackson_bilateral and of jp_integral, and
# degene_integral each had a stall loop of their own, and jp_integral and
# degene_integral their own integrands.  Those loops are the references of
# the one lattice sum; their integrands call qpoch_infinite's zero and pole
# modes, which test_qcore checks bit for bit against the old product loops.


def _num(arg, ctx):
    return qpoch_infinite(arg, ctx, "zero")


def _den(arg, ctx):
    return qpoch_infinite(arg, ctx, "pole")


def _old_check_finite(v, where):
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise NonFinite(f"non-finite value in {where}")


def _old_jackson_0_to(tau, f, ctx):
    if tau == 0:
        return 0.0 + 0.0j
    cap = 4 * ctx.infinite_product_cutoff
    total = 0.0 + 0.0j
    t = complex(tau)
    stall = 0
    for _ in range(cap):
        term = complex(f(t)) * t
        _old_check_finite(term, "jackson_0_to")
        total += term
        if abs(term) <= ctx.rel_tol * max(1.0, abs(total)):
            stall += 1
            if stall >= ctx.stall_window:
                return (1.0 - ctx.q) * total
        else:
            stall = 0
        t *= ctx.q
    raise NoConvergence("jackson_0_to")


def _old_jackson_bilateral(tau, f, ctx):
    if tau == 0:
        raise DomainError("bilateral lattice needs tau != 0")
    cap = 4 * ctx.infinite_product_cutoff
    total = 0.0 + 0.0j
    t = complex(tau)
    stall = 0
    done = False
    for _ in range(cap):
        term = complex(f(t)) * t
        _old_check_finite(term, "jackson_bilateral")
        total += term
        if abs(term) <= ctx.rel_tol * max(1.0, abs(total)):
            stall += 1
            if stall >= ctx.stall_window:
                done = True
                break
        else:
            stall = 0
        t *= ctx.q
    if not done:
        raise NoConvergence("jackson_bilateral (n >= 0)")
    t = complex(tau) / ctx.q
    stall = 0
    for _ in range(cap):
        term = complex(f(t)) * t
        _old_check_finite(term, "jackson_bilateral")
        total += term
        if abs(term) <= ctx.rel_tol * max(1.0, abs(total)):
            stall += 1
            if stall >= ctx.stall_window:
                return (1.0 - ctx.q) * total
        else:
            stall = 0
        t /= ctx.q
    raise NoConvergence("jackson_bilateral (n < 0)")


def _old_jp_integral(p, x, ctx, tau_power=None):
    tau = complex(p.tau)
    if tau_power is None:
        alpha = q_exponent(p.alpha_power, ctx)
        tau_power = principal_power(tau, alpha - 1)
    a = tuple(complex(v) for v in p.a)
    b = tuple(complex(v) for v in p.b)
    Ax = p.A * x
    Bx = p.B * x

    def F(t):
        val = _num(Ax * t, ctx)
        if val == 0:
            return 0.0 + 0.0j
        for ak in a:
            num = _num(ak * t, ctx)
            if num == 0:
                return 0.0 + 0.0j
            val *= num
        val /= _den(Bx * t, ctx)
        for bk in b:
            val /= _den(bk * t, ctx)
        return val

    cap = 4 * ctx.infinite_product_cutoff
    total = 0.0 + 0.0j
    t = tau
    w = tau * tau_power
    stall = 0
    done = False
    for _ in range(cap):
        term = w * F(t)
        _old_check_finite(term, "jp_integral")
        total += term
        if abs(term) <= ctx.rel_tol * max(1.0, abs(total)):
            stall += 1
            if stall >= ctx.stall_window:
                done = True
                break
        else:
            stall = 0
        t *= ctx.q
        w *= p.alpha_power
    if not done:
        raise NoConvergence("jp_integral (n >= 0)")
    t = tau / ctx.q
    w = tau * tau_power / p.alpha_power
    stall = 0
    for _ in range(cap):
        term = w * F(t)
        _old_check_finite(term, "jp_integral")
        total += term
        if abs(term) <= ctx.rel_tol * max(1.0, abs(total)):
            stall += 1
            if stall >= ctx.stall_window:
                return (1.0 - ctx.q) * total
        else:
            stall = 0
        t /= ctx.q
        w /= p.alpha_power
    raise NoConvergence("jp_integral (n < 0)")


def _old_degene_integral(j, a, b, qlambda, ctx, tau_power=None):
    a = tuple(complex(v) for v in a)
    b = tuple(complex(v) for v in b)
    qlp1 = qlambda * ctx.q
    tau = ctx.q / a[j - 1]
    if tau_power is None:
        lam = q_exponent(qlambda, ctx)
        tau_power = principal_power(tau, lam)

    def F(t):
        val = 1.0 + 0.0j
        for ak in a:
            num = _num(ak * t, ctx)
            if num == 0:
                return 0.0 + 0.0j
            val *= num
        for bk in b:
            val /= _den(bk * t, ctx)
        return val

    cap = 4 * ctx.infinite_product_cutoff
    total = 0.0 + 0.0j
    t = tau
    w = tau * tau_power
    stall = 0
    for _ in range(cap):
        term = w * F(t)
        _old_check_finite(term, "degene_integral")
        total += term
        if abs(term) <= ctx.rel_tol * max(1.0, abs(total)):
            stall += 1
            if stall >= ctx.stall_window:
                return (1.0 - ctx.q) * total
        else:
            stall = 0
        t *= ctx.q
        w *= qlp1
    raise NoConvergence("degene_integral")


def _bits(v):
    """v bit for bit, every NaN alike."""
    return tuple("nan" if math.isnan(x) else struct.pack("<d", x) for x in (v.real, v.imag))


def _outcome(fn, *args, **kwargs):
    """The bits of what fn returns, or the type of the error it raises."""
    try:
        return _bits(fn(*args, **kwargs))
    except QHyperError as exc:
        return type(exc)


LATTICE_QS = (0.5, 0.7, -0.5, 0.6 * cmath.exp(0.5j))


@pytest.mark.parametrize("q", LATTICE_QS)
def test_lattice_sums_match_old_loops(q):
    ctx = QContext(q=q)
    rng = random.Random(100 + LATTICE_QS.index(q))
    outcomes = set()
    for M in (1, 2, 3):
        for _ in range(2):
            bp = sample_balanced(rng, M, ctx)
            psi = rp_integrand(bp, ctx)
            for tau in (ctx.q / bp.a[0], ctx.q / bp.a[-1], _rand_unit(rng, 0.5, 1.5)):
                for new, old in ((jackson_0_to, _old_jackson_0_to),
                                 (jackson_bilateral, _old_jackson_bilateral)):
                    ref = _outcome(old, tau, psi, ctx)
                    assert _outcome(new, tau, psi, ctx) == ref, (new.__name__, M, tau)
                    outcomes.add(ref if isinstance(ref, type) else "value")
    for n in (1, 2, 3):
        a = tuple(_rand_unit(rng, 0.2, 0.9) for _ in range(n))
        b = tuple(_rand_unit(rng, 0.2, 0.9) for _ in range(n))
        A, B = _rand_unit(rng, 0.3, 0.9), _rand_unit(rng, 0.3, 0.9)
        x = _rand_unit(rng, 0.5, 1.0)
        alpha_power = _rand_unit(rng, 0.3, 0.9)
        # the bilateral sum converges only for |A prod(a)| < |q^alpha B prod(b)|
        B = B * 10.0 * abs(A * math.prod(a) / (alpha_power * B * math.prod(b)))
        for tau in (ctx.q / (A * x), _rand_unit(rng, 0.5, 1.5)):
            p = JPParams(alpha_power=alpha_power, A=A, B=B, a=a, b=b, tau=tau)
            ref = _outcome(_old_jp_integral, p, x, ctx)
            assert _outcome(jp_integral, p, x, ctx) == ref, (n, tau)
            outcomes.add(ref if isinstance(ref, type) else "value")
        qlam = _rand_unit(rng, 0.3, 0.95)
        for j in range(1, n + 1):
            ref = _outcome(_old_degene_integral, j, a, b, qlam, ctx)
            assert _outcome(degene_integral, j, a, b, qlam, ctx) == ref, (n, j)
            outcomes.add(ref if isinstance(ref, type) else "value")
    assert "value" in outcomes


def _side_raises(err, side, new, old, *args):
    """new and old both raise err; the new message names the side."""
    with pytest.raises(err):
        old(*args)
    with pytest.raises(err) as info:
        new(*args)
    assert side in str(info.value)


def test_lattice_sum_errors_match_old_loops():
    ctx = QContext(q=0.7)
    # the n >= 0 half: f(t) t does not decay
    _side_raises(NoConvergence, "jackson_0_to", jackson_0_to, _old_jackson_0_to,
                 0.5, lambda t: 1.0 / t, ctx)
    _side_raises(NoConvergence, "(n >= 0)", jackson_bilateral, _old_jackson_bilateral,
                 0.5, lambda t: 1.0 / t, ctx)
    # the n < 0 half: f(t) t tends to 1
    _side_raises(NoConvergence, "(n < 0)", jackson_bilateral, _old_jackson_bilateral,
                 0.5, lambda t: 1.0 / (1.0 + t), ctx)
    # q^alpha = 0.999: the n >= 0 weights decay too slowly for 1200 points
    slow = JPParams(alpha_power=0.999, A=0.0, B=1.0, a=(), b=(), tau=1.0)
    _side_raises(NoConvergence, "(n >= 0)", jp_integral, _old_jp_integral, slow, 1e-250, ctx)
    # with every product 1 the n < 0 weights grow as 0.9^-n
    grow = JPParams(alpha_power=0.9, A=0.0, B=1.0, a=(), b=(), tau=1.0)
    _side_raises(NoConvergence, "(n < 0)", jp_integral, _old_jp_integral, grow, 1e-250, ctx)
    # ... and as 0.5^-n they overflow
    burst = JPParams(alpha_power=0.5, A=0.0, B=1.0, a=(), b=(), tau=1.0)
    _side_raises(NonFinite, "jp_integral", jp_integral, _old_jp_integral, burst, 1e-250, ctx)
    # q^(lambda + 1) = 0.999
    _side_raises(NoConvergence, "degene_integral", degene_integral, _old_degene_integral,
                 1, (0.5,), (0.3,), 0.999 / ctx.q, ctx)
    inf_below = lambda t: math.inf if abs(t) < 1e-3 else 1.0  # noqa: E731
    _side_raises(NonFinite, "jackson_0_to", jackson_0_to, _old_jackson_0_to, 0.5, inf_below, ctx)
    inf_above = lambda t: math.inf if abs(t) > 1e3 else 1.0 / (1.0 + t * t)  # noqa: E731
    _side_raises(NonFinite, "jackson_bilateral", jackson_bilateral, _old_jackson_bilateral,
                 0.5, inf_above, ctx)


def test_bilateral_negative_half_stalls_against_carried_total():
    # the n >= 0 half sums to about 2e3 and the n < 0 half to about 1; the
    # n < 0 half stops once its terms are negligible against the whole sum,
    # long before they would be against its own
    K = 1e6
    seen = []

    def f(t):
        seen.append(t)
        return K / (1.0 + K * t * t)

    val = jackson_bilateral(1.0, f, CTX)
    points, seen[:] = seen[:], []
    assert _bits(val) == _bits(_old_jackson_bilateral(1.0, f, CTX))
    assert points == seen
    neg_terms = [f(t) * t for t in points if abs(t) > 1.0]
    assert abs(neg_terms[-1]) > CTX.rel_tol * max(1.0, abs(sum(neg_terms)))
