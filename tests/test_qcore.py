"""Unit tests for the q-calculus primitives.

Reference values were computed independently with mpmath at 30 digits
(mp.qp for q-shifted factorials); they are frozen here so the tests do not
depend on mpmath at runtime.
"""
import cmath
import math
import random
import struct
import sys

import pytest
from hypothesis import given, settings, strategies as st

from qhyper.errors import DivisionByZero, DomainError, NoConvergence, PoleHit
from qhyper.qcore import QContext, elem_sym, qpoch_finite, qpoch_infinite, theta

CTX = QContext(q=0.5)


def test_qpoch_finite_empty_and_single():
    assert qpoch_finite(0.7, 0, CTX) == 1.0
    assert abs(qpoch_finite(0.7, 1, CTX) - 0.3) < 1e-15


def test_qpoch_finite_matches_mpmath():
    # mpmath: qp(0.3, 0.5, 4) = 0.5297359375 (exact in binary for these inputs)
    assert abs(qpoch_finite(0.3, 4, CTX) - 0.5297359375) < 1e-15
    # complex a and q: qp(0.4+0.25j, 0.55+0.2j, 6)
    ctx = QContext(q=0.55 + 0.2j)
    ref = 0.31502189263417577751 - 0.46880986040836835304j
    assert abs(qpoch_finite(0.4 + 0.25j, 6, ctx) - ref) < 1e-14


def test_qpoch_infinite_matches_mpmath():
    # the product stops once |a q^j| < 1e-14, leaving a tail of that order, so 1e-13 here
    assert abs(qpoch_infinite(0.3, CTX) - 0.51011782663398757183) < 1e-13
    ctx = QContext(q=0.55 + 0.2j)
    ref = 0.32600941808664581893 - 0.48792596132805105238j
    assert abs(qpoch_infinite(0.4 + 0.25j, ctx) - ref) < 1e-13


def test_qpoch_infinite_rejects_unknown_mode():
    with pytest.raises(DomainError):
        qpoch_infinite(0.3, CTX, "Zero")


def test_qpoch_finite_vs_infinite_ratio():
    # (a)_l == (a)_inf / (a q^l)_inf
    for l in range(9):
        fin = qpoch_finite(0.3, l, CTX)
        ratio = qpoch_infinite(0.3, CTX) / qpoch_infinite(0.3 * CTX.q ** l, CTX)
        assert abs(fin - ratio) <= 1e-12 * abs(fin)


# ----------------------------------------- (a; q)_inf against the old loops
#
# The package once had three (a; q)_inf loops, each testing every factor: a
# plain one stopping at 64 ulps, and for Jackson integrands a numerator and a
# denominator loop stopping at 1e-14 that read a factor within 1e-12 of zero
# as a lattice zero (return 0) or a pole (raise PoleHit).  They are the
# references of the one kernel that replaced them.

_ULPS64 = 64.0 * sys.float_info.epsilon


def _old_qpoch_infinite(a, ctx):
    prod = 1.0 + 0.0j
    aq = complex(a)
    for _ in range(ctx.infinite_product_cutoff):
        if abs(aq) < _ULPS64:
            break
        prod *= 1.0 - aq
        aq *= ctx.q
    else:
        if abs(aq) >= _ULPS64:
            raise NoConvergence("tail")
    return prod


def _old_poch_inf_num(arg, ctx):
    prod = 1.0 + 0.0j
    aq = complex(arg)
    for _ in range(ctx.infinite_product_cutoff):
        if abs(aq) < 1e-14:
            break
        f = 1.0 - aq
        if abs(f) < 1e-12:
            return 0.0 + 0.0j
        prod *= f
        aq *= ctx.q
    else:
        if abs(aq) >= 1e-14:
            raise NoConvergence("tail")
    return prod


def _old_poch_inf_den(arg, ctx):
    prod = 1.0 + 0.0j
    aq = complex(arg)
    for _ in range(ctx.infinite_product_cutoff):
        if abs(aq) < 1e-14:
            break
        f = 1.0 - aq
        if abs(f) < 1e-12:
            raise PoleHit("pole")
        prod *= f
        aq *= ctx.q
    else:
        if abs(aq) >= 1e-14:
            raise NoConvergence("tail")
    return prod


def _outcome(fn, *args):
    """The value fn returns, or the type of the error it raises."""
    try:
        return fn(*args)
    except (NoConvergence, PoleHit) as exc:
        return type(exc)


def _bits(v):
    """v bit for bit, every NaN alike."""
    return tuple("nan" if math.isnan(x) else struct.pack("<d", x) for x in (v.real, v.imag))


KERNEL_QS = (0.5, 0.7, -0.5, 0.3, 0.6 * cmath.exp(0.5j), 0.9, 0.95j)


def _kernel_args(rng, q, count):
    """|a| log-uniform in [1e-16, 1e12] (a tenth of them real), and a tenth on
    the lattice q^-k (1 + delta), |delta| <= 2e-12, where one factor comes
    within 1e-12 of zero or just misses it."""
    args = [0.0, complex(math.nan, 0.0), 1.0, 1.0 / q, q ** -3]
    while len(args) < count:
        u = rng.random()
        if u < 0.1:
            delta = cmath.rect(rng.uniform(0.0, 2e-12), rng.uniform(0.0, 2 * math.pi))
            args.append(q ** -rng.randrange(80) * (1.0 + delta))
        elif u < 0.2:
            args.append(rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-16, 12))
        else:
            args.append(cmath.rect(10.0 ** rng.uniform(-16, 12), rng.uniform(0.0, 2 * math.pi)))
    return args


@pytest.mark.parametrize("q", KERNEL_QS)
def test_qpoch_infinite_matches_old_loops(q):
    # zero and pole modes: bit for bit, same errors.  Plain mode: the cutoff
    # moved from 64 ulps to 1e-14, which adds the factors with |a q^j| between
    # the two (one at |q| <= 0.7, up to 7 at |q| = 0.95), each moving the
    # value by less than 2e-14; NoConvergence is newly raised only where
    # |a| |q|^cutoff lies between the two cutoffs
    extra = 1 + int(math.log(1e-14 / _ULPS64) / math.log(abs(q)))
    args = _kernel_args(random.Random(KERNEL_QS.index(q)), q, 1500)
    for cutoff in (300, 60):
        ctx = QContext(q=q, infinite_product_cutoff=cutoff)
        for a in args:
            for vanish, old in (("zero", _old_poch_inf_num), ("pole", _old_poch_inf_den)):
                new, ref = _outcome(qpoch_infinite, a, ctx, vanish), _outcome(old, a, ctx)
                if isinstance(ref, complex) and isinstance(new, complex):
                    assert _bits(new) == _bits(ref), (vanish, cutoff, a, new, ref)
                else:
                    assert new is ref, (vanish, cutoff, a, new, ref)
            new, ref = _outcome(qpoch_infinite, a, ctx), _outcome(_old_qpoch_infinite, a, ctx)
            if isinstance(ref, complex) and isinstance(new, complex):
                if cmath.isfinite(ref):
                    assert abs(new - ref) <= extra * 2e-14 * abs(ref), (cutoff, a, new, ref)
                else:
                    assert _bits(new) == _bits(ref), (cutoff, a, new, ref)
            elif new is not ref:
                assert new is NoConvergence and isinstance(ref, complex), (cutoff, a, new, ref)
                assert 0.99e-14 <= abs(a) * abs(q) ** cutoff < 1.01 * _ULPS64, (cutoff, a)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    re=st.floats(-0.9, 0.9),
    im=st.floats(-0.9, 0.9),
    l=st.integers(0, 12),
)
def test_qpoch_recurrence(re, im, l):
    a = complex(re, im)
    lhs = qpoch_finite(a, l + 1, CTX)
    rhs = qpoch_finite(a, l, CTX) * (1 - a * CTX.q ** l)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_qpoch_negative_index_inverts():
    a = 0.37 + 0.21j
    for l in range(1, 7):
        prod = qpoch_finite(a, l, CTX) * qpoch_finite(a * CTX.q ** l, -l, CTX)
        assert abs(prod - 1.0) < 1e-13


def test_qpoch_negative_index_pole():
    # (q)_{-1} = 1/(1; q)_1 = 1/0
    with pytest.raises(DivisionByZero):
        qpoch_finite(CTX.q, -1, CTX)


def test_theta_matches_mpmath():
    ctx = QContext(q=0.3)
    ref = 0.11468463637254275034 + 0.051063456061467354509j
    assert abs(theta(0.4 + 0.1j, ctx) - ref) < 1e-14


def test_theta_quasi_periodicity():
    ctx = QContext(q=0.3)
    rng = random.Random(7)
    for _ in range(50):
        z = cmath.rect(rng.uniform(0.3, 2.0), rng.uniform(0, 2 * math.pi))
        lhs = theta(ctx.q * z, ctx)
        rhs = (-1.0 / z) * theta(z, ctx)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))
        # inversion symmetry theta(x) = theta(q/x)
        assert abs(theta(z, ctx) - theta(ctx.q / z, ctx)) <= 1e-11 * max(1.0, abs(theta(z, ctx)))


def test_theta_down_shift():
    # theta(x/q) = -(x/q) theta(x), a consequence of the quasi-periodicity
    ctx = QContext(q=0.4)
    x = 0.7 + 0.3j
    lhs = theta(x / ctx.q, ctx)
    rhs = -(x / ctx.q) * theta(x, ctx)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_theta_zero_rejected():
    with pytest.raises(DomainError):
        theta(0.0, CTX)


def test_elem_sym_small_cases():
    assert elem_sym(2, [1, 2, 3]) == 11
    assert elem_sym(0, [5, 6]) == 1
    assert elem_sym(3, [5, 6]) == 0
    assert elem_sym(2, [5, 6]) == 30


def test_elem_sym_generating_function():
    rng = random.Random(3)
    xs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(6)]
    for t in (0.3, -0.7, 0.5 + 0.2j, 1.1, -0.25j):
        direct = 1.0
        for x in xs:
            direct *= 1 + t * x
        series = sum(elem_sym(k, xs) * t ** k for k in range(len(xs) + 1))
        assert abs(direct - series) <= 1e-12 * max(1.0, abs(direct))


def test_qcontext_rejects_bad_q():
    with pytest.raises(DomainError):
        QContext(q=1.0)
    with pytest.raises(DomainError):
        QContext(q=0.0)
    with pytest.raises(DomainError):
        QContext(q=0.5, rel_tol=0.0)
