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
Jordan-Pochhammer and the degenerate integral) is one stall loop,
``_lattice_sum``.  Every integrand of this module is a ``_Ratio`` of infinite
products, evaluated directly by qcore's ratio kernel (``qpoch_ratio``): one
grid of factors, divided column by column, where an exact lattice zero of a
numerator returns 0 and a vanishing denominator factor raises PoleHit, rows
taken in order, numerators first.  Along its lattice a ``_Ratio`` is stepped
from one point to the next,

  psi(t q) = psi(t) prod_k (1 - den_k t) / prod_k (1 - num_k t),

and evaluated directly at the first point, at least every _ANCHOR_EVERY
points, after a zero value, and wherever a step factor comes within 1/2 of
zero or the kernel may need more than its factor cap; so every exact zero,
pole, NoConvergence and NaN is still decided by the direct evaluation.  Any
other callable is evaluated at every point.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence, NonFinite
# private names: the products are part of this layer's per-point work, and
# per-layer tracing wraps only the public names one module imports from another
from .qcore import _TAIL, QContext, _ratio


@dataclass(frozen=True)
class BalancedParams:
    """Balanced parameter lists a, b of length M+3 each.

    The balance constraint and the genericity condition (no a_i/a_j on the
    q-lattice) are checked by .check(ctx), which samplers call; evaluation
    routines trust their input so that deliberately broken parameters (for
    negative controls) can still be evaluated.
    """

    a: tuple
    b: tuple

    @property
    def M(self) -> int:
        return len(self.a) - 3

    def check(self, ctx: QContext, tol: float = 1e-10):
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
        n = len(self.a)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                r = self.a[i] / self.a[j]
                qm = 1.0 + 0.0j
                for _ in range(64):
                    if abs(r - qm) <= 1e-6 * abs(qm):
                        raise DomainError(f"a_{i + 1}/a_{j + 1} lies on the q-lattice")
                    qm *= ctx.q
                    if abs(qm) < 1e-12 * abs(r):
                        break


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


def principal_power(base, exponent):
    """base**exponent on the principal branch (base != 0)."""
    return cmath.exp(exponent * cmath.log(base))


def q_exponent(value, ctx: QContext):
    """The principal solution s of q^s = value."""
    return cmath.log(value) / cmath.log(ctx.q)


class _Ratio:
    """The integrand t -> prod_k (num_k t; q)_inf / prod_k (den_k t; q)_inf.

    A call is qcore's ratio kernel at the arguments c t, over a coefficient
    array held here; _lattice_sum also reads num and den to step it along a
    lattice of base q.  reach is the |t| from which some (c t; q)_inf
    may need more than infinite_product_cutoff factors, so that the direct
    evaluation raises NoConvergence (halved, so that rounding in c t cannot
    cross it)."""

    __slots__ = ("num", "den", "ctx", "reach", "_coef")

    def __init__(self, num, den, ctx: QContext):
        self.num = num
        self.den = den
        self.ctx = ctx
        self._coef = np.array([*num, *den], dtype=complex)
        size = max(map(abs, num + den), default=0.0)
        log_reach = math.log(_TAIL / 2) - ctx.infinite_product_cutoff * math.log(abs(ctx.q))
        self.reach = math.exp(min(log_reach - math.log(size), 700.0)) if size else math.inf

    def __call__(self, t):
        return _ratio(self._coef, t, len(self.num), self.ctx)


# A stepped value carries the rounding of every step since its last direct
# evaluation, about (2M + 7) eps a step for the 2M + 6 factors of W^{M,2}'s
# integrand.  Re-anchoring at least every 8 points keeps that below
# 8 (2M + 7) eps <= 1.2e-14 for M <= 3, the size of the 1e-14 truncation of
# each direct (a; q)_inf.
_ANCHOR_EVERY = 8


def _step_ratio(num, den, s):
    """prod_k (1 - num_k s) / prod_k (1 - den_k s), or None when a factor has
    modulus below 1/2 (or is NaN): s may sit on a zero or a pole, and the
    factor has lost digits to cancellation."""
    up = 1.0 + 0.0j
    for c in num:
        x = 1.0 - c * s
        if not abs(x) >= 0.5:
            return None
        up *= x
    down = 1.0 + 0.0j
    for c in den:
        x = 1.0 - c * s
        if not abs(x) >= 0.5:
            return None
        down *= x
    return up / down


def _lattice_sum(t, step, w, wstep, f, ctx: QContext, total, where, divide=False):
    """total + sum_{n >= 0} f(t_n) w_n with t_n = t step^n, w_n = w wstep^n.

    With divide set, each step divides by step and wstep instead (the n < 0
    half of a bilateral lattice).  The sum stops once stall_window consecutive
    terms are each at most rel_tol * max(1, |running total|); the running
    total starts at the total passed in, so the second half of a bilateral sum
    stalls against the whole sum.  A non-finite term raises NonFinite, and
    4 * infinite_product_cutoff points without a stall raise NoConvergence.

    A _Ratio of base step is stepped from each point to the next (see the
    module docstring for the points evaluated directly); anything else is
    called at every point.
    """
    cap = 4 * ctx.infinite_product_cutoff
    stall = 0
    stepped = isinstance(f, _Ratio) and f.ctx.q == step
    if stepped:
        up, down = (f.num, f.den) if divide else (f.den, f.num)
    val = None  # f(t), when the previous point stepped to it
    since = 0  # points since the last direct evaluation
    for _ in range(cap):
        if val is None:
            val = complex(f(t))
            since = 0
        term = val * w
        if not (math.isfinite(term.real) and math.isfinite(term.imag)):
            raise NonFinite(f"non-finite value in {where}")
        total += term
        if abs(term) <= ctx.rel_tol * max(1.0, abs(total)):
            stall += 1
            if stall >= ctx.stall_window:
                return total
        else:
            stall = 0
        since += 1
        if divide:
            t /= step
            w /= wstep
        # psi(t q) = psi(t) prod (1 - den_k t) / prod (1 - num_k t) from the old
        # point; psi(t / q) = psi(t) prod (1 - num_k t / q) / prod (1 - den_k t / q)
        # at the new one
        r = None
        if stepped and val != 0 and since < _ANCHOR_EVERY and abs(t) < f.reach:
            r = _step_ratio(up, down, t)
        val = None if r is None else val * r
        if not divide:
            t *= step
            w *= wstep
    raise NoConvergence(f"{where} did not stall within {cap} lattice points")


def jackson_0_to(tau, f, ctx: QContext) -> complex:
    """(1-q) sum_{n>=0} f(tau q^n) tau q^n, with stall-based truncation."""
    if tau == 0:
        return 0.0 + 0.0j
    t = complex(tau)
    return (1.0 - ctx.q) * _lattice_sum(t, ctx.q, t, ctx.q, f, ctx, 0.0 + 0.0j, "jackson_0_to")


def jackson_bilateral(tau, f, ctx: QContext) -> complex:
    """(1-q) sum_{n in Z} f(tau q^n) tau q^n over the full bilateral lattice."""
    if tau == 0:
        raise DomainError("bilateral lattice needs tau != 0")
    q = ctx.q
    t = complex(tau)
    total = _lattice_sum(t, q, t, q, f, ctx, 0.0 + 0.0j, "jackson_bilateral (n >= 0)")
    t = t / q
    total = _lattice_sum(t, q, t, q, f, ctx, total, "jackson_bilateral (n < 0)", divide=True)
    return (1.0 - q) * total


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


def jp_integral(p: JPParams, x, ctx: QContext, tau_power=None) -> complex:
    """Bilateral integral int_0^{tau inf} t^(alpha-1) (Axt)/(Bxt) prod (a_i t)/(b_i t) d_q t,
    each (..) an infinite q-factorial.

    The measure contributes one more power of t, so the lattice weight at
    t = tau q^n is tau^alpha q^(n alpha) = (tau * tau_power) * alpha_power^n —
    one fractional base value, then exact integer powers of q^alpha.
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
    if tau_power is None:
        alpha = q_exponent(p.alpha_power, ctx)
        tau_power = principal_power(tau, alpha - 1)

    F = _Ratio((p.A * x,) + tuple(complex(v) for v in p.a),
               (p.B * x,) + tuple(complex(v) for v in p.b), ctx)
    q = ctx.q
    w = tau * tau_power
    total = _lattice_sum(tau, q, w, p.alpha_power, F, ctx, 0.0 + 0.0j, "jp_integral (n >= 0)")
    total = _lattice_sum(tau / q, q, w / p.alpha_power, p.alpha_power, F, ctx, total,
                         "jp_integral (n < 0)", divide=True)
    return (1.0 - q) * total


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
    return (1.0 - ctx.q) * _lattice_sum(tau, ctx.q, w, qlp1, F, ctx, 0.0 + 0.0j,
                                        "degene_integral")
