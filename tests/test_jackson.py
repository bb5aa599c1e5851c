"""Jackson-integral tests: exact small cases, lattice structure, and the
integral representation of the symmetrized W."""
import cmath
import math
import random
import struct

import pytest

from qhyper.errors import DomainError, NoConvergence, NonFinite, PoleHit, QHyperError
from qhyper.qcore import QContext, principal_power, q_exponent, qpoch_infinite
from qhyper.jackson import (
    BalancedParams,
    JPParams,
    degene_integral,
    jackson_0_to,
    jackson_between,
    jackson_bilateral,
    jp_integral,
    rp_integral,
    rp_integrand,
)
from qhyper import jackson
from qhyper.jackson import _Ratio
from qhyper.series import W_normalized

from old_loops import old_ratio

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


def _loop_genericity(bp, ctx):
    """BalancedParams.check's genericity test one power at a time,
    |a_i/a_j - q^k| <= 1e-6 |q^k| for k < 64: its reference."""
    n = len(bp.a)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            r = bp.a[i] / bp.a[j]
            qm = 1.0 + 0.0j
            for _ in range(64):
                if abs(r - qm) <= 1e-6 * abs(qm):
                    raise DomainError(f"a_{i + 1}/a_{j + 1} lies on the q-lattice")
                qm *= ctx.q
                if abs(qm) < 1e-12 * abs(r):
                    break


def _check_outcome(check, bp, ctx):
    try:
        check(bp, ctx)
    except DomainError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("q", (0.5, 0.9, -0.5, 0.6 * cmath.exp(0.5j)))
def test_balanced_check_matches_loop(q):
    # balanced data with a_i/a_j at |a_i/a_j q^-k - 1| = 1e-6 +- 1e-11 for
    # every k in [-64, 64] (one past each end both ways; a pair and its
    # reverse differ by |delta|^2 = 1e-12 there), and with a NaN or an inf
    # entry (ratios NaN, inf and 0): the same DomainError naming the same
    # pair, or none
    ctx = QContext(q=q)
    rng = random.Random(43)
    cases = [[0.4, complex(math.nan, 0.0), 0.5, 0.6], [0.4, complex(math.inf, 0.0), 0.5, 0.6]]
    for k in range(-64, 65):
        for edge in (1e-6 - 1e-11, 1e-6 + 1e-11):
            a = [_rand_unit(rng) for _ in range(rng.randrange(4, 7))]
            i, j = rng.sample(range(len(a)), 2)
            a[i] = a[j] * q ** k * (1.0 + cmath.rect(edge, rng.uniform(0.0, 2 * math.pi)))
            cases.append(a)
    outcomes = []
    for a in cases:
        b = [_rand_unit(rng) for _ in a[1:]]
        bp = BalancedParams(a=tuple(a), b=(*b, math.prod(a) / (q * q * math.prod(b))))
        outcomes.append(_check_outcome(BalancedParams.check, bp, ctx))
        assert outcomes[-1] == _check_outcome(_loop_genericity, bp, ctx), a
    assert None in outcomes and len(set(outcomes)) > 10


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


_ZERO_AT_ENDPOINT = {
    "rp_integral a_i": lambda: rp_integral(
        BalancedParams(a=(0.0, 0.5, 0.6, 0.7), b=(0.3, 0.4, 0.5, 0.6)), 1, 2, CTX),
    "rp_integral a_j": lambda: rp_integral(
        BalancedParams(a=(0.4, 0.5, 0.6, 0.0), b=(0.3, 0.4, 0.5, 0.6)), 1, 4, CTX),
    "degene_integral a_j": lambda: degene_integral(2, (0.5, 0.0), (0.3, 0.4), 0.5, CTX),
    "jp_integral B": lambda: jp_integral(
        JPParams(alpha_power=0.5, A=0.5, B=0.0, a=(0.3,), b=(0.2,), tau=1.0), 0.5, CTX),
    "jp_integral b": lambda: jp_integral(
        JPParams(alpha_power=0.5, A=0.5, B=0.4, a=(0.3,), b=(0.0,), tau=1.0), 0.5, CTX),
}


@pytest.mark.parametrize("case", sorted(_ZERO_AT_ENDPOINT))
def test_zero_endpoint_parameter_raises_domain_error(case):
    # each divided by zero before its first lattice point
    with pytest.raises(DomainError):
        _ZERO_AT_ENDPOINT[case]()


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
# the one lattice sum; their integrands are the old product loops
# (old_loops), the reference of the ratio kernel in test_qcore.
# They evaluate the integrand directly at every lattice point, where the one
# lattice sum steps it from point to point and evaluates it by the ratio
# kernel, so values agree to the stepping's and the kernel's rounding: within
# 2e-14 sum |terms|.


def _old_ratio(num, den, ctx):
    """The old direct integrand: every numerator product multiplied out
    before any denominator divides."""
    return lambda t: old_ratio([c * t for c in num], [c * t for c in den], ctx)


def _old_check_finite(v, where):
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise NonFinite(f"non-finite value in {where}")


def _record(terms, term, ctx):
    if terms is not None:
        terms.append((1.0 - ctx.q) * term)


def _old_jackson_0_to(tau, f, ctx, terms=None):
    if tau == 0:
        return 0.0 + 0.0j
    cap = 4 * ctx.infinite_product_cutoff
    total = 0.0 + 0.0j
    t = complex(tau)
    stall = 0
    for _ in range(cap):
        term = complex(f(t)) * t
        _old_check_finite(term, "jackson_0_to")
        _record(terms, term, ctx)
        total += term
        if abs(term) <= ctx.rel_tol * max(1.0, abs(total)):
            stall += 1
            if stall >= ctx.stall_window:
                return (1.0 - ctx.q) * total
        else:
            stall = 0
        t *= ctx.q
    raise NoConvergence("jackson_0_to")


def _old_jackson_bilateral(tau, f, ctx, terms=None):
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
        _record(terms, term, ctx)
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
        _old_check_finite(term, "jackson_bilateral (n < 0)")
        _record(terms, term, ctx)
        total += term
        if abs(term) <= ctx.rel_tol * max(1.0, abs(total)):
            stall += 1
            if stall >= ctx.stall_window:
                return (1.0 - ctx.q) * total
        else:
            stall = 0
        t /= ctx.q
    raise NoConvergence("jackson_bilateral (n < 0)")


def _old_jp_integral(p, x, ctx, tau_power=None, terms=None):
    tau = complex(p.tau)
    if tau_power is None:
        alpha = q_exponent(p.alpha_power, ctx)
        tau_power = principal_power(tau, alpha - 1)
    F = _old_ratio((p.A * x,) + tuple(complex(v) for v in p.a),
                   (p.B * x,) + tuple(complex(v) for v in p.b), ctx)

    cap = 4 * ctx.infinite_product_cutoff
    total = 0.0 + 0.0j
    t = tau
    w = tau * tau_power
    stall = 0
    done = False
    for _ in range(cap):
        term = w * F(t)
        _old_check_finite(term, "jp_integral")
        _record(terms, term, ctx)
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
        _old_check_finite(term, "jp_integral (n < 0)")
        _record(terms, term, ctx)
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


def _old_degene_integral(j, a, b, qlambda, ctx, tau_power=None, terms=None):
    a = tuple(complex(v) for v in a)
    b = tuple(complex(v) for v in b)
    qlp1 = qlambda * ctx.q
    tau = ctx.q / a[j - 1]
    if tau_power is None:
        lam = q_exponent(qlambda, ctx)
        tau_power = principal_power(tau, lam)

    F = _old_ratio(a, b, ctx)
    cap = 4 * ctx.infinite_product_cutoff
    total = 0.0 + 0.0j
    t = tau
    w = tau * tau_power
    stall = 0
    for _ in range(cap):
        term = w * F(t)
        _old_check_finite(term, "degene_integral")
        _record(terms, term, ctx)
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
    """What fn returns, or the type of the error it raises."""
    try:
        return fn(*args, **kwargs)
    except QHyperError as exc:
        return type(exc)


def _match_old(new, old, *args):
    """new raises what old raises, or returns old's value within 2e-14 times
    the sum of |terms| that old added up; "value" or the error type.  old
    evaluates a _Ratio argument by the old direct integrand.

    Where old raised NonFinite on the n < 0 half of a bilateral sum, new may
    return a finite value instead ("mended"): there the old numerator products
    overflow together while psi(t) t is small, and the ratio kernel divides
    factor column by factor column (its values are checked against the mpmath
    shadow below)."""
    terms = []
    old_args = [_old_ratio(a.num, a.den, a.ctx) if isinstance(a, _Ratio) else a for a in args]
    try:
        ref = old(*old_args, terms=terms)
    except QHyperError as exc:
        ref, why = type(exc), str(exc)
    got = _outcome(new, *args)
    if isinstance(ref, type):
        if ref is NonFinite and "(n < 0)" in why and not isinstance(got, type):
            assert cmath.isfinite(got), (new.__name__, got)
            return "mended"
        assert got is ref, (new.__name__, ref, got)
        return ref
    assert not isinstance(got, type), (new.__name__, got)
    assert abs(got - ref) <= 2e-14 * sum(map(abs, terms)), (new.__name__, got, ref)
    return "value"


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
                    outcomes.add(_match_old(new, old, tau, psi, ctx))
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
            outcomes.add(_match_old(jp_integral, _old_jp_integral, p, x, ctx))
        qlam = _rand_unit(rng, 0.3, 0.95)
        for j in range(1, n + 1):
            outcomes.add(_match_old(degene_integral, _old_degene_integral, j, a, b, qlam, ctx))
    assert {"value", "mended"} <= outcomes


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


def test_overflowing_totals_raise():
    # finite terms whose running total overflows: in the walk one point at a
    # time (the n < 0 half here) and in the numpy tail (degene_integral)
    with pytest.raises(NonFinite, match=r"jackson_bilateral \(n < 0\)"):
        jackson_bilateral(1.0, lambda t: 1.7e308 / t if abs(t) >= 1 else 0.0, CTX)
    data = (1, (0.4, 0.3), (0.2, 0.35), 0.9, CTX)
    with pytest.raises(NonFinite, match="degene_integral"):
        degene_integral(*data, tau_power=1.2e308)
    # a little lower the sum is finite, but the tail's rounding budget
    # overflows: no warning (an error under the suite's filterwarnings), and
    # the value scales with tau_power
    big = degene_integral(*data, tau_power=3e307)
    one = degene_integral(*data, tau_power=1.0)
    assert abs(big / 3e307 - one) <= 1e-15 * abs(one)


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


# ------------------------------------------------ the stepped integrand
#
# A _Ratio integrand is stepped from one lattice point to the next and
# evaluated directly (by the kernel) at the first point, after a zero, where a
# step factor 1 - c t comes within 1/2 of 0, and where a stepped term would
# overdraw the rounding budget sum m |term| <= 7 sum |term| (m the steps since
# the last direct point).


class _Spy(_Ratio):
    """A _Ratio that records the points where it is evaluated directly."""

    __slots__ = ("seen",)

    def __init__(self, num, den, ctx):
        super().__init__(num, den, ctx)
        self.seen = []

    def __call__(self, t):
        self.seen.append(t)
        return super().__call__(t)


def _lattice(tau, ctx, n):
    """tau q^k for k = 0..n-1, multiplied out as the lattice sum does."""
    out, t = [], complex(tau)
    for _ in range(n):
        out.append(t)
        t *= ctx.q
    return out


def _check_budget(seen, tau, ctx, terms):
    """The direct points seen of a one-sided sum from tau keep the rounding
    budget: the first point is direct, sum m_k |term_k| <= 7 sum |term_k| over
    every prefix, with m_k the steps from the last direct point to point k, and
    fewer points are direct than the ceil(n / 8) of re-anchoring at every 8th
    point.  terms are the reference's, which differ from the stepped ones by
    rounding: hence the 1e-12 relative slack."""
    points = _lattice(tau, ctx, len(terms))
    direct = {points.index(t) for t in seen}
    assert len(direct) == len(seen) and seen[0] == points[0]
    assert len(seen) < -(-len(terms) // 8)
    m, drift, mass = 0, 0.0, 0.0
    for k, term in enumerate(terms):
        m = 0 if k in direct else m + 1
        drift += m * abs(term)
        mass += abs(term)
        assert drift <= 7 * mass * (1 + 1e-12), k


def test_direct_evaluation_within_rounding_budget():
    ctx = QContext(q=0.5)
    rng = random.Random(11)
    bp = sample_balanced(rng, 2, ctx)
    spy = _Spy(tuple(map(complex, bp.a)), tuple(map(complex, bp.b)), ctx)
    tau = _rand_unit(rng, 0.5, 1.0)
    terms = []
    ref = _old_jackson_0_to(tau, rp_integrand(bp, ctx), ctx, terms=terms)
    val = jackson_0_to(tau, spy, ctx)
    assert abs(val - ref) <= 2e-14 * sum(map(abs, terms))
    assert len(terms) > 40
    _check_budget(spy.seen, tau, ctx, terms)
    # the terms decay about as 2^-n, so sum m |term| stays near 2 sum |term|
    # and the first point carries the whole sum
    assert len(spy.seen) == 1
    # an integrand built for another q is evaluated at every point
    other = _Spy(spy.num, spy.den, QContext(q=0.7))
    jackson_0_to(tau, other, ctx)
    assert other.seen == _lattice(tau, ctx, len(terms))


def _nearly(c):
    """c moved by 3e-15: within the kernel's 1e-12 snap of a lattice zero or
    pole, but not exactly on it, so that 1 - c t is not rounded to 0."""
    return c * (1 + 3e-15)


# numerators (3.3 t; q)_inf that grow like exp(log(t)^2 / (2 log 2)) on the
# n < 0 side: past a zero at t = tau q^-3, psi without that zero reaches
# |psi(t) t| = 1e4 at once and 7e33 five points later, so a term that were
# not exactly 0 there would be far beyond the 2e-14 sum |terms| bound
_GROW = (3.3, 3.3, 0.3)
_SMALL = (0.01, 0.02, 0.03, 0.04)


def test_step_onto_negative_half_zero_gives_exact_zero():
    ctx = QContext(q=0.5)
    tau = 0.7 + 0.2j
    spy = _Spy((_nearly(ctx.q ** 3 / tau),) + _GROW, _SMALL, ctx)
    terms = []
    ref = _old_jackson_bilateral(tau, spy, ctx, terms=terms)
    spy.seen.clear()
    val = jackson_bilateral(tau, spy, ctx)
    assert terms[-3:] == [0, 0, 0]
    assert abs(val - ref) <= 2e-14 * sum(map(abs, terms))
    # the zero was evaluated directly, and the half ends there: the points
    # after it are zeros of the same numerator row
    zero = tau / ctx.q / ctx.q / ctx.q
    assert spy.seen[-1] == zero


def test_step_onto_negative_half_pole_raises():
    ctx = QContext(q=0.5)
    tau = 0.7 + 0.2j
    spy = _Spy((0.2,) + _GROW, (_nearly(ctx.q ** 3 / tau),) + _SMALL, ctx)
    with pytest.raises(PoleHit):
        _old_jackson_bilateral(tau, spy, ctx)
    # the n >= 0 half alone is finite
    assert math.isfinite(abs(jackson_0_to(tau, spy, ctx)))
    spy.seen.clear()
    with pytest.raises(PoleHit):
        jackson_bilateral(tau, spy, ctx)
    # raised where the step lands on the pole, not at a later direct point
    assert spy.seen[-1] == tau / ctx.q / ctx.q / ctx.q


@pytest.mark.parametrize("q", LATTICE_QS)
def test_sum_starting_on_a_zero(q):
    # a_1 tau = q^-1: the first two points are zeros, the rest are not
    ctx = QContext(q=q)
    rng = random.Random(12)
    bp = sample_balanced(rng, 1, ctx)
    tau = _nearly(1.0 / (ctx.q * bp.a[0]))
    spy = _Spy(tuple(map(complex, bp.a)), tuple(map(complex, bp.b)), ctx)
    terms = []
    ref = _old_jackson_0_to(tau, spy, ctx, terms=terms)
    spy.seen.clear()
    val = jackson_0_to(tau, spy, ctx)
    assert terms[:2] == [0, 0] and terms[2] != 0
    assert abs(val) > 1e-3
    assert abs(val - ref) <= 2e-14 * sum(map(abs, terms))
    assert spy.seen[:3] == _lattice(tau, ctx, 3)


def test_sum_starting_on_stall_window_zeros():
    # (q^-m t; q)_inf vanishes at t = q^n for n <= m: the first m + 1 >=
    # stall_window points are exact zeros, which must not stall the sum at 0
    # (mpmath at 30 digits: 5/78, 5/158 and 5/318)
    for m, ref in ((2, 5 / 78), (3, 5 / 158), (4, 5 / 318)):
        assert abs(jackson_0_to(1.0, _Ratio((CTX.q ** -m,), (0.2,), CTX), CTX) - ref) <= 1e-13
    # from q / a_1, where a_3 q / a_1 = q^-2 (mpmath at 30 digits)
    bp = BalancedParams(a=(0.45, 0.3, 3.6, 0.25), b=(0.2, 0.33, 0.75, 9.818181818181818))
    assert abs(rp_integral(bp, 2, 1, CTX) - 0.5252374104837152) <= 1e-13
    # any callable: zero at t = 1, 1/2, 1/4, then t^2 (the sum is 1/96)
    assert abs(jackson_0_to(1.0, lambda t: 0.0 if abs(t) > 0.2 else t, CTX) - 1 / 96) <= 1e-13
    # a sum that stays 0 never stalls
    with pytest.raises(NoConvergence):
        jackson_0_to(1.0, lambda t: 0.0, CTX)


def _long_lattices(q):
    """(ctx, spy, tau) for two integrands of 6 + 6 products at |q| = 0.9, each
    summed over several hundred lattice points from tau."""
    ctx = QContext(q=q, infinite_product_cutoff=600)
    rng = random.Random(13)
    for _ in range(2):
        spy = _Spy(tuple(_rand_unit(rng, 0.05, 0.4) for _ in range(6)),
                   tuple(_rand_unit(rng, 0.05, 0.4) for _ in range(6)), ctx)
        yield ctx, spy, _rand_unit(rng, 0.5, 1.0)


@pytest.mark.parametrize("q", (0.9, 0.9 * cmath.exp(0.3j), -0.9))
def test_long_lattice_stays_within_bound(q):
    # 249 to 287 points each: the budget re-anchors at 1 to 9 of them, where
    # re-anchoring at every 8th point took 32 to 36
    for ctx, spy, tau in _long_lattices(q):
        terms = []
        ref = _old_jackson_0_to(tau, spy, ctx, terms=terms)
        assert len(terms) > 200
        spy.seen.clear()
        assert abs(jackson_0_to(tau, spy, ctx) - ref) <= 2e-14 * sum(map(abs, terms))
        _check_budget(spy.seen, tau, ctx, terms)


def test_steps_stop_where_the_kernel_would_raise():
    # at q = 0.9 with a cap of 300 factors, (c t; q)_inf raises NoConvergence
    # once |c t| reaches about 0.53: at the second point of the n < 0 half,
    # where -0.45 t = 0.56.  That point is evaluated directly; a stepped value
    # there (about 7e-24) would stall the sum under this rel_tol instead.
    ctx = QContext(q=0.9, rel_tol=1e-22, stall_window=1)
    psi = _Ratio((0.4,) * 5, (-0.45,) * 5, ctx)
    for fn in (_old_jackson_bilateral, jackson_bilateral):
        with pytest.raises(NoConvergence, match="needs more than 300 factors"):
            fn(1.0, psi, ctx)


# ------------------------------------------------ the numpy tail
#
# Once |c t| <= 0.49 for every coefficient c, no step factor can come within
# 1/2 of zero, and the rest of the n >= 0 walk is taken in numpy blocks.  The
# reference is the walk one point at a time, as the scalar loop takes it.


def _scalar_walk(tau, psi, ctx):
    """(1 - q) sum_{n >= 0} psi(tau q^n) tau q^n, the _Ratio psi stepped one
    point at a time within the rounding budget and called directly where
    jackson_0_to calls it (points with a step factor below 1/2 included)."""
    t = w = complex(tau)
    total, val, m, mass, drift, stall = 0j, None, 0, 0.0, 0.0, 0
    for _ in range(4 * ctx.infinite_product_cutoff):
        if val is None:
            val, m = complex(psi(t)), 0
        term = val * w
        total += term
        size = abs(term)
        mass += size
        drift += m * size
        if size <= ctx.rel_tol * max(1.0, abs(total)):
            stall += 1
            if stall >= ctx.stall_window:
                return (1.0 - ctx.q) * total
        else:
            stall = 0
        m += 1
        r = None
        if val != 0 and abs(t) < psi.reach:
            up = math.prod(1.0 - c * t for c in psi.den)
            down = math.prod(1.0 - c * t for c in psi.num)
            if min(abs(1.0 - c * t) for c in psi.num + psi.den) >= 0.5:
                r = up / down
        t *= ctx.q
        w *= ctx.q
        if r is not None:
            size = abs(val * r * w)
            val = val * r if drift + m * size <= 7 * (mass + size) else None
        else:
            val = None
    raise NoConvergence("the scalar walk did not stall")


def _tail_cases(q):
    """(ctx, spy, tau): balanced integrands from q / a_1 and from a random
    point at |q| < 0.9, and _long_lattices at |q| = 0.9.  At |q| = 0.5 the
    first case's terms fall below the stall floor while |c t| > 0.49 still,
    so its first block carries a stall run."""
    if abs(q) == 0.9:
        yield from _long_lattices(q)
        return
    ctx = QContext(q=q)
    yield ctx, _Spy((1e13,), (1.1e13,), ctx), 1.0
    rng = random.Random(14)
    for M in (1, 2, 3):
        bp = sample_balanced(rng, M, ctx)
        spy = _Spy(tuple(map(complex, bp.a)), tuple(map(complex, bp.b)), ctx)
        for tau in (ctx.q / bp.a[0], _rand_unit(rng, 0.5, 1.5)):
            yield ctx, spy, tau


@pytest.mark.parametrize("q", LATTICE_QS + (0.9,))
def test_tail_matches_scalar_walk(q, monkeypatch):
    # the blocks take the same points directly as the walk one point at a
    # time, and the sums agree to rounding; the grid has blocks that stall
    # the sum at once and, at q = 0.9, blocks cut short by the budget
    ends, real = [], jackson._tail

    def tail(*args):
        total, state = real(*args)
        ends.append("stall" if state is None else "budget" if state[3] is None else "room")
        return total, state

    monkeypatch.setattr(jackson, "_tail", tail)
    for ctx, spy, tau in _tail_cases(q):
        spy.seen.clear()
        ref = _scalar_walk(tau, spy, ctx)
        direct, spy.seen[:] = spy.seen[:], []
        terms = []
        _old_jackson_0_to(tau, spy, ctx, terms=terms)
        spy.seen.clear()
        ends.append("sum")
        got = jackson_0_to(tau, spy, ctx)
        assert spy.seen == direct
        assert abs(got - ref) <= 2e-14 * sum(map(abs, terms)), (got, ref)
    sums = " ".join(ends).split("sum")[1:]
    # a sum that reaches the tail stalls in a block
    assert all(s.split()[-1:] in ([], ["stall"]) for s in sums)
    # the first block of a sum that stalls there, or one cut short by the budget
    assert any(s.split() == ["stall"] for s in sums)
    assert ("budget" in ends) == (abs(q) == 0.9)


def test_terminated_negative_half_makes_one_kernel_call():
    # tau = q / a_1, as in the anchored bilateral integrals of EM: the first
    # point of the n < 0 half, 1 / a_1, is a lattice zero of (a_1 t; q)_inf,
    # and so is every point after it
    ctx = QContext(q=0.7)
    bp = sample_balanced(random.Random(15), 2, ctx)
    spy = _Spy(tuple(map(complex, bp.a)), tuple(map(complex, bp.b)), ctx)
    tau = ctx.q / bp.a[0]
    terms = []
    ref = _old_jackson_bilateral(tau, spy, ctx, terms=terms)
    spy.seen.clear()
    val = jackson_bilateral(tau, spy, ctx)
    assert abs(val - ref) <= 2e-14 * sum(map(abs, terms))
    assert [t for t in spy.seen if abs(t) > abs(tau)] == [tau / ctx.q]
    # after a zero total, zeros are not negligible: the half walks on to the
    # first kernel that needs more than its factor cap, as the rule would
    with pytest.raises(NoConvergence, match="factors"):
        jackson._lattice_sum(tau / ctx.q, 1.0, ctx.q, spy, ctx, 0j, "n < 0", divide=True)


# ------------------------------------------------------ mpmath shadow
#
# The four lattice sums again at 30 digits with mpmath: the same lattice
# points and the same stall rule, every (c t; q)_inf taken from its factors
# 1 - c t q^j, a numerator factor within 1e-12 of 0 read as an exact zero.
# Each sum is taken twice over.  Keeping the factors the double kernel keeps
# (|c t q^j| >= 1e-14), the doubles agree to 2e-14 sum |terms|.  Keeping every
# factor down to |c t q^j| < 1e-20, the doubles also carry the kernel's own
# truncation, at most 1e-14 / (1 - |q|) for each of the K products.

_MP_TAILS = (1e-14, 1e-20)


class _MpPoch:
    """(x q^n; q)_inf at n = 0, 1, 2, ... (at) and n = 0, -1, -2, ... (back),
    each the product of its own factors 1 - x q^j, j >= n, |x q^j| >= tail:
    a pair, one for each tail of _MP_TAILS."""

    def __init__(self, mp, x, q, zero_snap):
        self.mp, self.q, self.zero_snap = mp, q, zero_snap
        size, rate = abs(complex(x)), -math.log(abs(complex(q)))

        def count(tail):  # the number of j with |x q^j| >= tail
            return max(0, math.floor(math.log(size / tail) / rate) + 1) if size else 0

        factors, y = [], x
        for j in range(count(_MP_TAILS[1])):
            factors.append(self._factor(1 - y, size * math.exp(-rate * j)))
            y *= q
        self.short = count(_MP_TAILS[0])
        self.suffix = [mp.mpc(1)] * (len(factors) + 1)
        for j in range(len(factors) - 1, -1, -1):
            self.suffix[j] = factors[j] * self.suffix[j + 1]
        self.prefix = [self.suffix[0]]
        self.y, self.size, self.rate = x, size, rate

    def _factor(self, f, size):
        """1 - y for |y| = size; 0 within 1e-12 of a numerator zero."""
        if 0.5 <= size <= 2 and abs(f) < 1e-12:
            assert self.zero_snap, "the shadow met a pole"
            return self.mp.mpc(0)
        return f

    def at(self, n):
        if n >= len(self.suffix):
            return self.mp.mpc(1), self.mp.mpc(1)
        return self.suffix[n] / self.suffix[max(n, self.short)], self.suffix[n]

    def back(self, m):
        while len(self.prefix) <= m:
            self.y /= self.q
            size = self.size * math.exp(self.rate * len(self.prefix))
            self.prefix.append(self._factor(1 - self.y, size) * self.prefix[-1])
        return self.prefix[m] / self.suffix[self.short], self.prefix[m]


def _mp_lattice_sum(mp, t, w, wstep, num, den, ctx, totals, divide, terms):
    """totals + sum_n psi(t q^{+-n}) w wstep^{+-n} for each tail of _MP_TAILS,
    over the points where the second stalls under the double code's rule; the
    (1 - q) term of the second is appended to terms."""
    q = mp.mpc(ctx.q)
    nums = [_MpPoch(mp, mp.mpc(c) * t, q, True) for c in num]
    dens = [_MpPoch(mp, mp.mpc(c) * t, q, False) for c in den]
    stall = 0
    totals = list(totals)
    for n in range(4 * ctx.infinite_product_cutoff):
        kept = exact = mp.mpc(1)
        for P in nums:
            a, b = P.back(n) if divide else P.at(n)
            kept, exact = kept * a, exact * b
        for P in dens:
            a, b = P.back(n) if divide else P.at(n)
            kept, exact = kept / a, exact / b
        term = exact * w
        terms.append((1 - q) * term)
        totals[0] += kept * w
        totals[1] += term
        if abs(complex(term)) <= ctx.rel_tol * max(1.0, abs(complex(totals[1]))):
            stall += 1
            if stall >= ctx.stall_window:
                return totals
        else:
            stall = 0
        w = w / wstep if divide else w * wstep
    raise AssertionError("the shadow did not stall")


def _mp_one_sided(mp, t, w, wstep, num, den, ctx, terms):
    totals = _mp_lattice_sum(mp, t, w, wstep, num, den, ctx, (0, 0), False, terms)
    return [(1 - mp.mpc(ctx.q)) * v for v in totals]


def _mp_bilateral(mp, t, w, wstep, num, den, ctx, terms):
    q = mp.mpc(ctx.q)
    totals = _mp_lattice_sum(mp, t, w, wstep, num, den, ctx, (0, 0), False, terms)
    totals = _mp_lattice_sum(mp, t / q, w / wstep, wstep, num, den, ctx, totals, True, terms)
    return [(1 - q) * v for v in totals]


def _shadow_cases(rng, ctx):
    """(label, number of products, double value or error type, shadow), where
    shadow(mp, terms) is the pair of 30-digit values, one for each tail."""
    q = ctx.q
    for M in (1, 2, 3):
        bp = sample_balanced(rng, M, ctx)
        psi = rp_integrand(bp, ctx)
        for tau in (q / bp.a[0], _rand_unit(rng, 0.5, 1.5)):
            def one(mp, terms, tau=tau, bp=bp):
                t = mp.mpc(tau)
                return _mp_one_sided(mp, t, t, mp.mpc(q), bp.a, bp.b, ctx, terms)

            def both(mp, terms, tau=tau, bp=bp):
                t = mp.mpc(tau)
                return _mp_bilateral(mp, t, t, mp.mpc(q), bp.a, bp.b, ctx, terms)

            K = 2 * M + 6
            yield "jackson_0_to", K, _outcome(jackson_0_to, tau, psi, ctx), one
            yield "jackson_bilateral", K, _outcome(jackson_bilateral, tau, psi, ctx), both
    for n in (1, 2, 3):
        a = tuple(_rand_unit(rng, 0.2, 0.9) for _ in range(n))
        b = tuple(_rand_unit(rng, 0.2, 0.9) for _ in range(n))
        A, B = _rand_unit(rng, 0.3, 0.9), _rand_unit(rng, 0.3, 0.9)
        x = _rand_unit(rng, 0.5, 1.0)
        alpha_power = _rand_unit(rng, 0.3, 0.9)
        B = B * 10.0 * abs(A * math.prod(a) / (alpha_power * B * math.prod(b)))
        for tau in (q / (A * x), _rand_unit(rng, 0.5, 1.5)):
            p = JPParams(alpha_power=alpha_power, A=A, B=B, a=a, b=b, tau=tau)

            def jp(mp, terms, p=p, x=x):
                t, ap = mp.mpc(p.tau), mp.mpc(p.alpha_power)
                alpha = mp.log(ap) / mp.log(mp.mpc(q))
                return _mp_bilateral(mp, t, t * mp.exp((alpha - 1) * mp.log(t)), ap,
                                     (p.A * x,) + p.a, (p.B * x,) + p.b, ctx, terms)

            yield "jp_integral", 2 * n + 2, _outcome(jp_integral, p, x, ctx), jp
        qlam = _rand_unit(rng, 0.3, 0.95)
        for j in range(1, n + 1):
            def degene(mp, terms, a=a, b=b, qlam=qlam, j=j):
                t = mp.mpc(q) / mp.mpc(a[j - 1])
                lam = mp.log(mp.mpc(qlam)) / mp.log(mp.mpc(q))
                return _mp_one_sided(mp, t, t * mp.exp(lam * mp.log(t)), mp.mpc(qlam) * q,
                                     a, b, ctx, terms)

            yield "degene_integral", 2 * n, _outcome(degene_integral, j, a, b, qlam, ctx), degene


@pytest.mark.parametrize("q", LATTICE_QS)
def test_lattice_sums_match_mpmath_shadow(q):
    import mpmath

    ctx = QContext(q=q)
    compared = set()
    with mpmath.workdps(30):
        for label, K, got, shadow in _shadow_cases(random.Random(200 + LATTICE_QS.index(q)), ctx):
            assert not isinstance(got, type), (label, got)
            terms = []
            kept, exact = shadow(mpmath.mp, terms)
            mass = float(sum(abs(t) for t in terms))
            assert float(abs(got - kept)) <= 2e-14 * mass, (label, got, complex(kept))
            tol = 2e-14 + K * 1e-14 / (1 - abs(q))
            assert float(abs(got - exact)) <= tol * mass, (label, got, complex(exact))
            compared.add(label)
    assert compared == {"jackson_0_to", "jackson_bilateral", "jp_integral", "degene_integral"}


def test_long_lattices_match_mpmath_shadow():
    import mpmath

    with mpmath.workdps(30):
        for ctx, spy, tau in _long_lattices(0.9):
            got = jackson_0_to(tau, spy, ctx)
            terms = []
            t = mpmath.mpc(tau)
            kept, exact = _mp_one_sided(mpmath.mp, t, t, mpmath.mpc(ctx.q), spy.num, spy.den,
                                        ctx, terms)
            assert len(terms) > 200
            mass = float(sum(abs(x) for x in terms))
            assert float(abs(got - kept)) <= 2e-14 * mass, (got, complex(kept))
            tol = 2e-14 + 12 * 1e-14 / (1 - abs(ctx.q))
            assert float(abs(got - exact)) <= tol * mass, (got, complex(exact))
