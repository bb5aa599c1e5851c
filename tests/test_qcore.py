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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhyper.errors import DivisionByZero, DomainError, NoConvergence, NonFinite, PoleHit
from qhyper.qcore import QContext, elem_sym, qpoch_finite, qpoch_infinite, qpoch_ratio, theta
from qhyper.qcore import _lattice_index, _stall_block, _stall_step

from old_loops import old_poch_inf_den, old_poch_inf_num, old_ratio

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


def test_qpoch_finite_vs_infinite_ratio():
    # (a)_l == (a)_inf / (a q^l)_inf
    for l in range(9):
        fin = qpoch_finite(0.3, l, CTX)
        ratio = qpoch_infinite(0.3, CTX) / qpoch_infinite(0.3 * CTX.q ** l, CTX)
        assert abs(fin - ratio) <= 1e-12 * abs(fin)


# ----------------------------------------- (a; q)_inf against the old loops
#
# The numerator and denominator product loops of old_loops test every factor
# and read one within 1e-12 of zero as a lattice zero (return 0) or a pole
# (raise PoleHit).  They are the references of the one kernel that replaced
# them; qpoch_infinite is its numerator row.


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


def _loop_tolerance(a, ctx):
    """_ratio_tolerance of one product, with the rounding of y = a q^j itself:
    the loop forms y by j multiplications by q and the kernel from a table of
    powers, so the two differ by up to about 2j eps relative (j up to 80 on
    the lattice arguments here), and the factor 1 - y carries that relative
    to |1 - y|."""
    tol, y, j = 0.0, complex(a), 0
    while abs(y) >= 1e-14:
        tol += 4 * _EPS * (1 + j * abs(y) / abs(1 - y))
        y *= ctx.q
        j += 1
    return tol


@pytest.mark.parametrize("q", KERNEL_QS)
def test_qpoch_infinite_matches_old_loops(q):
    # the same outcome (a value, an exact 0, NaN or the same error) as the
    # numerator loop, and values to the rounding of the two.  Where the loop's
    # product overflows for a finite argument, the kernel must match the same
    # factors taken in mpmath, and read NaN only for a value past the range
    args = _kernel_args(random.Random(KERNEL_QS.index(q)), q, 1500)
    for cutoff in (300, 60):
        ctx = QContext(q=q, infinite_product_cutoff=cutoff)
        for a in args:
            new, ref = _outcome(qpoch_infinite, a, ctx), _outcome(old_poch_inf_num, a, ctx)
            if isinstance(ref, type) or isinstance(new, type):
                assert new is ref, (cutoff, a, new, ref)
            elif cmath.isnan(ref) and cmath.isfinite(a):
                ref = _mp_ratio([a], [], ctx)[0]
                if cmath.isfinite(ref):
                    assert abs(new - ref) <= _loop_tolerance(a, ctx) * abs(ref), (cutoff, a, new, ref)
                else:
                    assert cmath.isnan(new), (cutoff, a, new, ref)
            elif cmath.isnan(ref) or ref == 0:
                assert _bits(new) == _bits(ref), (cutoff, a, new, ref)
            else:
                assert abs(new - ref) <= _loop_tolerance(a, ctx) * abs(ref), (cutoff, a, new, ref)


def test_product_that_overflows_on_its_way_to_a_finite_value():
    # the running product over the factors peaks at 1.1e311 before the factor
    # 1 - a q^45 (about 1.6e-12) brings it back; mpmath at 30 digits
    a = 2.0 ** 45 * (1 + 1.6e-12)
    assert abs(qpoch_infinite(a, CTX) / 4.91290727669283120496737107524e298 - 1) < 1e-13


def test_vanishing_factor_reads_as_exact_zero():
    # one factor 1 - a q^j is within 1e-12 of zero (1e-13 and 3e-13 here): the
    # product is an exact lattice zero, as in a numerator of the kernel
    ctx = QContext(q=0.7)
    for x in (ctx.q ** -3 * (1 + 1e-13), ctx.q ** -2 * (1 + 3e-13)):
        assert qpoch_infinite(x, ctx) == 0
        assert theta(x, ctx) == 0
        assert theta(ctx.q / x, ctx) == 0


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


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-13, 0.0])
def test_qcontext_rejects_rel_tol_that_is_not_finite_and_positive(tol):
    with pytest.raises(DomainError, match="rel_tol"):
        QContext(q=0.5, rel_tol=tol)


# ------------------------------------------- the ratio kernel vs the old loops
#
# qpoch_ratio takes the factors of every product in one grid; its reference
# is the ratio of the old loops' products, rows in order, numerators first.

RATIO_QS = (0.5, 0.7, -0.5, 0.6 * cmath.exp(0.5j))
_EPS = sys.float_info.epsilon


def _ratio_args(rng, ctx, count):
    """Arguments of every kind the rules tell apart: 0, NaN, inf, |a| < 1e-14,
    past the factor cap, on the lattice q^-k (1 + delta), k < 80, with
    |delta| <= 2e-12 (a vanishing factor, or just not), and |a| log-uniform in
    [1e-16, 1e3]."""
    q, cutoff = ctx.q, ctx.infinite_product_cutoff
    out = []
    for _ in range(count):
        u, phase = rng.random(), cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
        if u < 0.03:
            out.append(0.0)
        elif u < 0.05:
            out.append(complex(math.nan, 0.0))
        elif u < 0.07:
            out.append(complex(math.inf, 0.0))
        elif u < 0.10:
            out.append(rng.uniform(0.01, 0.99) * 1e-14 * phase)
        elif u < 0.12:
            out.append(2e-14 * abs(q) ** -cutoff * phase)
        elif u < 0.22:
            out.append(q ** -rng.randrange(80) * (1.0 + rng.uniform(0.0, 2e-12) * phase))
        else:
            out.append(10.0 ** rng.uniform(-16, 3) * phase)
    return out


def _ratio_tolerance(args, ctx):
    """_loop_tolerance summed over the products: a few eps for each kept
    factor 1 - y, y = c q^j, growing with j as the two kernels' roundings of y
    drift apart, and scaled by the factor's condition |y| / |1 - y|."""
    return sum(_loop_tolerance(c, ctx) for c in args)


def _mp_ratio(num, den, ctx):
    """old_ratio's factors, each rounded as the old loops round it, taken in
    mpmath column by column as the kernel takes them: the value, and the
    largest modulus of the running product over the columns."""
    import mpmath

    with mpmath.workdps(30):
        cols = []
        for k, c in enumerate(num + den):
            aq, j = complex(c), 0
            while abs(aq) >= 1e-14:
                if j == len(cols):
                    cols.append(mpmath.mpc(1))
                cols[j] = cols[j] * (1.0 - aq) if k < len(num) else cols[j] / (1.0 - aq)
                aq *= ctx.q
                j += 1
        val, peak = mpmath.mpc(1), 1.0
        for col in cols:
            val *= col
            peak = max(peak, abs(val))
        return complex(val), peak


@pytest.mark.parametrize("q", RATIO_QS)
def test_qpoch_ratio_matches_products(q):
    ctx = QContext(q=q, infinite_product_cutoff=120)
    rng = random.Random(400 + RATIO_QS.index(q))
    seen = set()
    for _ in range(600):
        num = _ratio_args(rng, ctx, rng.randrange(7))
        den = _ratio_args(rng, ctx, rng.randrange(7))
        ref, got = _outcome(old_ratio, num, den, ctx), _outcome(qpoch_ratio, num, den, ctx)
        if (not isinstance(ref, type) and not cmath.isfinite(ref)
                and all(cmath.isfinite(c) for c in num + den)):
            # the old loops' products overflowed (|c| up to |q|^-79), where the
            # kernel divides column by column: the same factors in mpmath.  A
            # finite kernel value needs a finite reference, and the kernel
            # returns a non-finite one only where its running product over the
            # columns leaves the double range (as it does for a value past it)
            ref, peak = _mp_ratio(num, den, ctx)
            if cmath.isfinite(got):
                assert cmath.isfinite(ref), (num, den, got, ref)
                seen.add("overflow")
            else:
                assert peak > sys.float_info.max, (num, den, got, ref)
                seen.add("past range")
                continue
        if isinstance(ref, type) or isinstance(got, type):
            assert got is ref, (num, den, got, ref)
            seen.add(ref)
        elif cmath.isnan(ref):
            assert cmath.isnan(got), (num, den, got)
            seen.add("nan")
        elif ref == 0:
            assert got == 0, (num, den, got)
            seen.add(0)
        else:
            assert abs(got - ref) <= _ratio_tolerance(num + den, ctx) * abs(ref), (num, den, got, ref)
            seen.add("value")
    assert seen - {"overflow", "past range"} == {NoConvergence, PoleHit, "nan", 0, "value"}
    # |q|^-79 = 1.7e12 at q = 0.7: no product overflows there
    assert ("overflow" in seen) == ("past range" in seen) == (abs(q) != 0.7)


def test_qpoch_ratio_empty_rows_and_order():
    ctx = QContext(q=0.5, infinite_product_cutoff=60)
    big = 1e-14 * 2.0 ** 61  # past the cap
    assert qpoch_ratio([], [], ctx) == 1.0
    assert qpoch_ratio([1e-15], [0.0], ctx) == 1.0
    assert abs(qpoch_ratio([0.3], [], ctx) - old_poch_inf_num(0.3, ctx)) <= 4e-15
    assert abs(qpoch_ratio([], [0.3], ctx) * old_poch_inf_den(0.3, ctx) - 1) <= 4e-15
    # the first row with an event decides, numerators first
    assert qpoch_ratio([4.0, big], [1.0], ctx) == 0
    with pytest.raises(NoConvergence, match="more than 60 factors"):
        qpoch_ratio([big, 4.0], [1.0], ctx)
    with pytest.raises(PoleHit):
        qpoch_ratio([0.3, complex(math.nan, 0.0)], [2.0, big], ctx)
    with pytest.raises(NoConvergence):
        qpoch_ratio([0.3], [big, 2.0], ctx)
    # 2^15 needs 62 factors, and its 16th vanishes: that wins over its own
    # row's NoConvergence
    assert qpoch_ratio([2.0 ** 15], [], ctx) == 0
    with pytest.raises(PoleHit):
        qpoch_ratio([0.3], [2.0 ** 15], ctx)
    assert cmath.isnan(qpoch_ratio([complex(math.inf, 0.0)], [0.3], ctx))
    assert qpoch_ratio([complex(math.nan, 0.0), 1.0], [0.3], ctx) == 0


# ------------------------------------------------------- the q-lattice test


@pytest.mark.parametrize("q", (0.5, -0.5, 0.6 * cmath.exp(0.5j), 0.99, 0.95j))
def test_lattice_index_is_the_first_hit_of_a_scan(q):
    # values within 1e-9 relative of each tolerance at every m of the range
    # and one past each end; at q = 0.99 and tol 0.25 the window holds 100 m
    ctx = QContext(q=q)
    rng = random.Random(47)
    for lo, hi, tol in ((0, 400, 1e-12), (-63, 0, 1e-6), (-8, 12, 0.08), (-20, 30, 0.25)):
        values = [0.0, complex(math.nan, 0.0), complex(math.inf, 0.0), 1e-300, 1e300]
        for m in range(lo - 1, hi + 2):
            edge = tol * (1.0 + rng.choice((-1e-9, 1e-9)))
            values.append(q ** -m * (1.0 + cmath.rect(edge, rng.uniform(0.0, 2 * math.pi))))
        for x in values:
            scan = next((m for m in range(lo, hi + 1) if abs(x * q ** m - 1.0) < tol), None)
            assert _lattice_index(x, ctx, lo, hi, tol) == scan, (x, lo, hi, tol)


# ------------------------------------------------------------ the stall rule
#
# The block form (shell sums, the numpy tail of the lattice sums) and the
# one-term form (the scalar head of the lattice sums) must stop at the same
# term with the same total, or raise the same NonFinite.


def _stall_terms(rng, count):
    """Terms of every kind the rule tells apart: sizable, near the floor
    rel_tol max(1, |total|) for totals of order 1, on the floor rel_tol for
    |total| <= 1, exact zeros, subnormal, finite terms whose sum overflows,
    NaN and inf."""
    out = []
    for _ in range(count):
        u, phase = rng.random(), cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
        if u < 0.25:
            out.append(10.0 ** rng.uniform(-3, 0.5) * phase)
        elif u < 0.35:
            out.append(QContext().rel_tol * rng.choice((1, -1, 1j, -1j)))
        elif u < 0.6:
            out.append(10.0 ** rng.uniform(-14, -12) * phase)
        elif u < 0.8:
            out.append(0j)
        elif u < 0.85:
            out.append(1e-310 * phase)
        elif u < 0.93:
            out.append(1.2e308 * rng.choice((1, -1, 1j)))
        elif u < 0.96:
            out.append(complex(math.nan, 0.0))
        else:
            out.append(complex(rng.choice((1, -1)) * math.inf, 0.0))
    return out


def _stall_outcome(fn):
    try:
        n, total, size, run = fn()
    except NonFinite as exc:
        return str(exc)
    return n, _bits(total), size.hex(), run


def _by_steps(terms, ctx):
    total, run = 0j, 0
    for n, term in enumerate(terms):
        total, size, run = _stall_step(term, total, run, ctx, "term {}", n)
        if run >= ctx.stall_window:
            break
    return n + 1, total, size, run


def _by_blocks(terms, cuts, ctx, carried):
    """_stall_block over terms cut into blocks at cuts; carried records a stop
    in a block that a run carried into."""
    total, run, used = 0j, 0, 0
    for lo, hi in zip((0, *cuts), (*cuts, len(terms))):
        before = run
        block = np.array(terms[lo:hi], dtype=complex)
        n, total, size, run = _stall_block(block, total, run, ctx, "term {}", lo)
        used += n
        if run >= ctx.stall_window:
            if before:
                carried.append(lo)
            break
    return used, total, size, run


def test_stall_block_and_step_agree():
    rng = random.Random(31)
    seen = set()
    for window in (1, 2, 3, 4):
        ctx = QContext(stall_window=window)
        for _ in range(400):
            terms = _stall_terms(rng, rng.randint(1, 40))
            cuts = tuple(sorted(rng.sample(range(1, len(terms)), rng.randint(0, len(terms) - 1))))
            carried = []
            ref = _stall_outcome(lambda: _by_steps(terms, ctx))
            assert _stall_outcome(lambda: _by_blocks(terms, cuts, ctx, carried)) == ref, (
                window, terms, cuts)
            if isinstance(ref, str):
                # an overflow when every term so far is finite
                k = int(ref.rsplit(" ", 1)[1])
                seen.add("overflow" if all(map(cmath.isfinite, terms[:k + 1])) else "NonFinite")
            else:
                seen.add("stop" if ref[3] >= window else "end")
                seen.update(["carried"] if carried else [])
            # stall_window exact zeros first: never negligible at a zero total
            seen.update(["zero-led"] if not any(terms[:window]) else [])
    assert seen == {"NonFinite", "overflow", "stop", "end", "carried", "zero-led"}
