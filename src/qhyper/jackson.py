"""Jackson (q-)integrals on geometric lattices, and the balanced integrands.

The two parameter bundles:

  BalancedParams — a_1..a_{M+3}, b_1..b_{M+3} with a_1...a_{M+3} =
      q^2 b_1...b_{M+3}; integrand psi(t) = prod (a_k t)_inf/(b_k t)_inf.
  JPParams — Jordan-Pochhammer-type data with a fractional power t^(alpha-1),
      fixed through q^alpha = alpha_power.

Fractional powers never get evaluated pointwise on the lattice: the base value
tau^(alpha-1) is fixed once (principal branch unless the caller passes it in),
and lattice steps multiply by exact integer powers of q^alpha.

Every lattice sum here (one-sided, each half of a bilateral sum, the
Jordan-Pochhammer and the degenerate integral) is one walk, ``_lattice_sum``,
that stops by qcore's stall rule.  Every integrand of this module is a
``_Ratio`` of infinite products, evaluated directly by qcore's ratio kernel (``qpoch_ratio``): one
grid of factors, divided column by column, where an exact lattice zero of a
numerator returns 0 and a vanishing denominator factor raises PoleHit, rows
taken in order, numerators first.  Along its lattice a ``_Ratio`` is stepped
from one point to the next,

  psi(t q) = psi(t) prod_k (1 - den_k t) / prod_k (1 - num_k t),

and evaluated directly at the first point, after a zero value, wherever a
step factor comes within 1/2 of zero or the kernel may need more than its
factor cap, and wherever a stepped value would overdraw the rounding budget
_STEP_BUDGET; so every exact zero, pole, NoConvergence and NaN is still
decided by the direct evaluation.  Any other callable is evaluated at every
point.

Two ends of a walk need no per-point work:

- The numpy tail.  On the n >= 0 side |t| only shrinks, so once |c t| <=
  0.49 for every coefficient no step factor comes within 1/2 of zero again.
  From there the walk is one numpy block (``_tail``): the step ratios, their
  multiply.accumulate, S and D, each accumulated in the scalar walk's order,
  and the stall rule over the block.  The first point whose stepped value
  would overdraw the budget is evaluated directly, and the walk resumes there
  with a new block.
- The terminated n < 0 half.  There |t| grows, and a numerator row that has
  a factor 1 - c t q^j within the kernel's snap of zero at t has the same
  factor 1 - c (t / q) q^(j + 1) at t / q: once the kernel returns an exact 0,
  every later point is a zero of that row, found before any later row (rows
  are settled in order) and before any row's cap while |t| < reach.  At a
  nonzero total the half ends at its first zero, with the total the stall
  rule would return.

The budget: a term stepped m times since the last direct evaluation carries
about m (K + 1) eps of rounding for the K products of its integrand.  Each
half of a lattice sum keeps D = sum m |term| and S = sum |term| over its terms
so far, and steps to the next point only while D + m |term| <=
_STEP_BUDGET (S + |term|) with that point's stepped term counted in; so D <=
_STEP_BUDGET S throughout, and the stepping error of the sum stays below
about _STEP_BUDGET (K + 1) eps sum |terms|.  Once the terms decay, late points
cost the budget little: a sum whose terms decay fast is stepped from its first
point to its last.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence
from .qcore import QContext, principal_power, q_exponent
# private names: the products and the stall rule are part of this layer's
# per-point work, and per-layer tracing wraps only the public names one module
# imports from another
from .qcore import _TAIL, _lattice_index, _ratio, _stall_block, _stall_floor, _stall_step


@dataclass(frozen=True)
class BalancedParams:
    """Balanced parameter lists a, b of length M+3 each.

    The balance constraint and the genericity condition (no a_i/a_j on the
    q-lattice) are checked by .check(ctx), which nothing in the library
    calls: the catalog samplers solve b_{M+3} from the balance and apply
    their own admissibility guards, and evaluation routines trust their input
    so that deliberately broken parameters (for negative controls) can still
    be evaluated.
    """

    a: tuple
    b: tuple

    @property
    def M(self) -> int:
        return len(self.a) - 3

    def check(self, ctx: QContext, tol: float = 1e-10):
        """DomainError unless len(a) == len(b) >= 4, no a_k is 0, the balance holds
        within tol, and qcore's lattice test (tol 1e-6) finds no a_i/a_j = q^k, 0 <= k < 64."""
        if len(self.a) != len(self.b):
            raise DomainError("BalancedParams needs len(a) == len(b)")
        if self.M < 1:
            raise DomainError("BalancedParams needs at least 4 entries (M >= 1)")
        if any(ak == 0 for ak in self.a):
            raise DomainError("BalancedParams needs all a_k != 0")
        pa = math.prod(self.a)
        pb = ctx.q * ctx.q * math.prod(self.b)
        if abs(pa - pb) > tol * max(abs(pa), abs(pb)):
            raise DomainError(
                f"balance violated: |prod(a) - q^2 prod(b)| / scale = "
                f"{abs(pa - pb) / max(abs(pa), abs(pb))}"
            )
        for i, ai in enumerate(self.a):
            for j, aj in enumerate(self.a):
                if i != j and _lattice_index(ai / aj, ctx, -63, 0, 1e-6) is not None:
                    raise DomainError(f"a_{i + 1}/a_{j + 1} lies on the q-lattice")


@dataclass(frozen=True)
class JPParams:
    """Jordan-Pochhammer-type integrand data.

    alpha_power = q^alpha; A, B scale the x-dependent factor; a, b hold
    a_2..a_{M+3}, b_2..b_{M+3}; tau is the lattice base point.
    """

    alpha_power: complex
    A: complex
    B: complex
    a: tuple
    b: tuple
    tau: complex


class _Ratio:
    """The integrand t -> prod_k (num_k t; q)_inf / prod_k (den_k t; q)_inf.

    A call is qcore's ratio kernel at the arguments c t, over a coefficient
    array held here; _lattice_sum also reads num and den to step it along a
    lattice of base q.  reach is the |t| from which some (c t; q)_inf
    may need more than infinite_product_cutoff factors, so that the direct
    evaluation raises NoConvergence (halved, so that rounding in c t cannot
    cross it).  Below |t| = tail_from, |c t| <= 0.49 for every coefficient,
    so no step factor 1 - c t comes within 1/2 of zero."""

    __slots__ = ("num", "den", "ctx", "reach", "tail_from", "_coef")

    def __init__(self, num, den, ctx: QContext):
        self.num = num
        self.den = den
        self.ctx = ctx
        self._coef = np.array([*num, *den], dtype=complex)
        sizes = [abs(c) for c in num + den]
        size = max(sizes, default=0.0)
        log_reach = math.log(_TAIL / 2) - ctx.infinite_product_cutoff * math.log(abs(ctx.q))
        self.reach = math.exp(min(log_reach - math.log(size), 700.0)) if size else math.inf
        self.tail_from = 0.49 / size if size else math.inf

    def __call__(self, t):
        return _ratio(self._coef, t, len(self.num), self.ctx)


# A stepped value carries the rounding of every step since its last direct
# evaluation, about (2M + 7) eps a step for the 2M + 6 factors of W^{M,2}'s
# integrand.  A budget of D <= 7 S (module docstring) bounds the stepping error
# of a sum by about 7 (2M + 7) eps sum |terms| <= 1.1e-14 sum |terms| for
# M <= 3, the size of the 1e-14 truncation of each direct (a; q)_inf, and the
# worst case of re-anchoring at every 8th point (m <= 7).
_STEP_BUDGET = 7


def _step_ratio(num, den, s):
    """prod_k (1 - num_k s) / prod_k (1 - den_k s), or None when a factor has
    modulus below 1/2 (or is NaN): s may sit on a zero or a pole, and the
    factor has lost digits to cancellation."""
    up, down = 1.0 + 0.0j, 1.0 + 0.0j
    for c in num:
        x = 1.0 - c * s
        if not abs(x) >= 0.5:
            return None
        up *= x
    for c in den:
        x = 1.0 - c * s
        if not abs(x) >= 0.5:
            return None
        down *= x
    return up / down


def _tail(f, t, w, wstep, val, m, total, mass, drift, stall, n, room, at):
    """The next k points of the n >= 0 walk of _lattice_sum from t, its point
    n, in one numpy block (module docstring): val is the _Ratio f at t, m its
    steps since a direct evaluation, room the points left before the cap, and k
    enough points for the terms to fall from |val w| to the stall floor at
    the rate |wstep|, with a quarter to spare; at names the points in
    NonFinite errors, as in _stall_block.  Returns (total, None) once
    the sum stalls; otherwise (total, state), the walk's state at the first
    point whose stepped value would overdraw the budget (val None: evaluate
    it directly), or at point k."""
    ctx = f.ctx
    k = ctx.stall_window
    size, rate = abs(val * w), abs(wstep)
    floor = _stall_floor(total, ctx)
    if floor < size < math.inf and 0 < rate < 1:
        k += 2 + math.ceil(1.25 * math.log(size / floor) / -math.log(rate))
    k = min(k, room)
    with np.errstate(all="ignore"):  # overflow shows as a non-finite total
        walk = np.empty((2, k + 1), dtype=complex)
        walk[:, 0] = t, w
        walk[0, 1:] = ctx.q
        walk[1, 1:] = wstep
        ts, ws = np.multiply.accumulate(walk, axis=1)
        # psi(t q) = psi(t) prod (1 - den_k t) / prod (1 - num_k t), a column per t
        grid = f._coef[:, None] * ts[:k]
        np.subtract(1.0, grid, out=grid)
        split = len(f.num)
        vals = np.empty(k + 1, dtype=complex)
        vals[0] = val
        np.divide(np.multiply.reduce(grid[split:]), np.multiply.reduce(grid[:split]),
                  out=vals[1:])
        np.multiply.accumulate(vals, out=vals)
        terms = vals * ws
        sizes = np.hypot(terms.real, terms.imag)
        budget = np.empty((2, k + 2))
        budget[:, 0] = mass, drift
        budget[0, 1:] = sizes
        np.multiply(np.arange(m, m + k + 1), sizes, out=budget[1, 1:])
        masses, drifts = np.add.accumulate(budget, axis=1)[:, 1:]
        # point i >= 1 is stepped only within the budget (a NaN goes to the kernel)
        within = drifts[1:] <= _STEP_BUDGET * masses[1:]
    over = k + 1 if within.all() else 1 + int(within.argmin())
    h = min(over, k)
    _, total, _, stall = _stall_block(terms[:h], total, stall, ctx, at, n)
    if stall >= ctx.stall_window:
        return total, None
    val = complex(vals[h]) if over > k else None
    return total, (h, complex(ts[h]), complex(ws[h]), val, m + h,
                   float(masses[h - 1]), float(drifts[h - 1]), stall)


def _lattice_sum(t, w, wstep, f, ctx: QContext, total, where, divide=False):
    """total + sum_{n >= 0} f(t_n) w_n with t_n = t q^n, w_n = w wstep^n.

    With divide set, each step divides by q and wstep instead (the n < 0
    half of a bilateral lattice).  The sum stops by qcore's stall rule, its
    running total starting at the total passed in, so the second half of a
    bilateral sum stalls against the whole sum; 4 * infinite_product_cutoff
    points without a stall raise NoConvergence.

    A _Ratio of base q is stepped from each point to the next while the
    rounding budget allows: with m the steps since the last direct evaluation
    and S = sum |term| so far, the sum keeps D = sum m |term| <=
    _STEP_BUDGET S (see the module docstring for the points evaluated
    directly, the numpy tail and the terminated n < 0 half); anything else
    is called at every point.
    """
    cap = 4 * ctx.infinite_product_cutoff
    at = f"point {{}} of {where}"  # where a non-finite total is reported
    stall = 0
    q = ctx.q
    stepped = isinstance(f, _Ratio) and f.ctx.q == q
    if stepped:
        up, down = (f.num, f.den) if divide else (f.den, f.num)
    val = None  # f(t), when the previous point stepped to it
    m = 0  # steps since the last direct evaluation
    mass = drift = 0.0  # S = sum |term| and D = sum m |term|
    n = 0  # points summed
    while n < cap:
        if val is None:
            val = complex(f(t))
            m = 0
        if stepped and not divide and val != 0 and abs(t) <= f.tail_from and abs(t) < f.reach:
            total, state = _tail(f, t, w, wstep, val, m, total, mass, drift, stall, n, cap - n,
                                 at)
            if state is None:
                return total
            h, t, w, val, m, mass, drift, stall = state
            n += h
            continue
        total, size, stall = _stall_step(val * w, total, stall, ctx, at, n)
        mass += size
        drift += m * size
        if stall >= ctx.stall_window:
            return total
        n += 1
        if divide and m == 0 and val == 0 and stepped:
            # a numerator row's lattice zero: at each later point of the n < 0
            # half it is the same factor one column on, and below reach no
            # row can raise first, so at a nonzero total it stalls on them
            rest = ctx.stall_window - stall
            last = t / q ** rest, w / wstep ** rest
            if total and n + rest <= cap and abs(last[0]) < f.reach and cmath.isfinite(last[1]):
                return total
        m += 1
        if divide:
            t /= q
            w /= wstep
        # psi(t q) = psi(t) prod (1 - den_k t) / prod (1 - num_k t) from the old
        # point; psi(t / q) = psi(t) prod (1 - num_k t / q) / prod (1 - den_k t / q)
        # at the new one
        r = None
        if stepped and val != 0 and abs(t) < f.reach:
            r = _step_ratio(up, down, t)
        if not divide:
            t *= q
            w *= wstep
        if r is None:
            val = None
        else:
            # step only within the rounding budget (a NaN goes to the kernel)
            size = abs(val * r * w)
            val = val * r if drift + m * size <= _STEP_BUDGET * (mass + size) else None
    raise NoConvergence(f"{where} did not stall within {cap} lattice points")


def _bilateral_sum(tau, w, wstep, f, ctx: QContext, where):
    """(1-q) sum_{n in Z} f(tau q^n) w wstep^n, the n >= 0 half first."""
    q = ctx.q
    total = _lattice_sum(tau, w, wstep, f, ctx, 0.0 + 0.0j, f"{where} (n >= 0)")
    total = _lattice_sum(tau / q, w / wstep, wstep, f, ctx, total, f"{where} (n < 0)",
                         divide=True)
    return (1.0 - q) * total


def jackson_0_to(tau, f, ctx: QContext) -> complex:
    """(1-q) sum_{n>=0} f(tau q^n) tau q^n, with stall-based truncation."""
    if tau == 0:
        return 0.0 + 0.0j
    t = complex(tau)
    return (1.0 - ctx.q) * _lattice_sum(t, t, ctx.q, f, ctx, 0.0 + 0.0j, "jackson_0_to")


def jackson_bilateral(tau, f, ctx: QContext) -> complex:
    """(1-q) sum_{n in Z} f(tau q^n) tau q^n over the full bilateral lattice."""
    if tau == 0:
        raise DomainError("bilateral lattice needs tau != 0")
    t = complex(tau)
    return _bilateral_sum(t, t, ctx.q, f, ctx, "jackson_bilateral")


def jackson_between(tau1, tau2, f, ctx: QContext) -> complex:
    """int_tau1^tau2 = int_0^tau2 - int_0^tau1 on the respective lattices."""
    return jackson_0_to(tau2, f, ctx) - jackson_0_to(tau1, f, ctx)


def rp_integrand(bp: BalancedParams, ctx: QContext):
    """psi(t) = prod_k (a_k t)_inf / (b_k t)_inf with exact lattice zeros and
    PoleHit on denominator zeros."""
    return _Ratio(tuple(complex(v) for v in bp.a), tuple(complex(v) for v in bp.b), ctx)


def rp_integral(bp: BalancedParams, i: int, j: int, ctx: QContext) -> complex:
    """phi_{i,j} = int_{q/a_i}^{q/a_j} psi(t) d_q t  (1-based endpoint indices)."""
    n = len(bp.a)
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError(f"endpoint indices must lie in 1..{n}")
    if i == j:
        return 0.0 + 0.0j
    if bp.a[i - 1] == 0 or bp.a[j - 1] == 0:
        raise DomainError("rp_integral needs a_i != 0 and a_j != 0 (endpoints q/a_i, q/a_j)")
    psi = rp_integrand(bp, ctx)
    return jackson_between(ctx.q / bp.a[i - 1], ctx.q / bp.a[j - 1], psi, ctx)


def jp_integral(p: JPParams, x, ctx: QContext) -> complex:
    """Bilateral integral int_0^{tau inf} t^(alpha-1) (Axt)/(Bxt) prod (a_i t)/(b_i t) d_q t,
    each (..) an infinite q-factorial.

    The measure contributes one more power of t, so the lattice weight at
    t = tau q^n is tau^alpha q^(n alpha) = tau^alpha alpha_power^n: one
    fractional base value on the principal branch, then exact integer powers
    of q^alpha.
    """
    if abs(p.alpha_power) >= 1:
        raise DomainError("jp_integral needs |q^alpha| < 1")
    scale = p.alpha_power * p.B * math.prod(p.b)
    if scale == 0:
        raise DomainError("jp_integral needs q^alpha != 0 and B prod(b) != 0")
    growth = p.A * math.prod(p.a) / scale
    if abs(growth) >= 1:
        raise DomainError(
            f"bilateral convergence violated: |q^-alpha A prod(a)/(B prod(b))| = {abs(growth)}"
        )
    tau = complex(p.tau)
    if tau == 0:
        raise DomainError("jp_integral needs tau != 0")

    F = _Ratio((p.A * x,) + tuple(complex(v) for v in p.a),
               (p.B * x,) + tuple(complex(v) for v in p.b), ctx)
    w = tau * principal_power(tau, q_exponent(p.alpha_power, ctx) - 1)  # tau^alpha
    return _bilateral_sum(tau, w, p.alpha_power, F, ctx, "jp_integral")


def degene_integral(j: int, a, b, qlambda, ctx: QContext, tau_power=None) -> complex:
    """int_0^{q/a_j} t^lambda prod_i (a_i t)_inf/(b_i t)_inf d_q t (1-based j).

    Needs |q^(lambda+1)| < 1.  tau_power overrides tau^lambda for lattice
    propagation; default is the principal branch.
    """
    a = tuple(complex(v) for v in a)
    b = tuple(complex(v) for v in b)
    if not 1 <= j <= len(a):
        raise DomainError(f"endpoint index must lie in 1..{len(a)}")
    qlp1 = qlambda * ctx.q
    if abs(qlp1) >= 1:
        raise DomainError(f"degene_integral needs |q^(lambda+1)| < 1, got {abs(qlp1)}")
    if a[j - 1] == 0:
        raise DomainError("degene_integral needs a_j != 0 (endpoint q/a_j)")
    tau = ctx.q / a[j - 1]
    if tau_power is None:
        lam = q_exponent(qlambda, ctx)
        tau_power = principal_power(tau, lam)

    F = _Ratio(a, b, ctx)
    w = tau * tau_power  # tau^(lambda+1), then times q^(n(lambda+1))
    return (1.0 - ctx.q) * _lattice_sum(tau, w, qlp1, F, ctx, 0.0 + 0.0j,
                                        "degene_integral")
