"""Core q-calculus primitives: q-shifted factorials, theta, elementary symmetrics.

All evaluation happens in complex double precision with a base |q| < 1.  The
QContext bundles q together with the truncation knobs every summation in the
package shares, so numerical policy lives in one place.  Every (a; q)_inf in
the package, Jackson integrands included, is the one product of
``qpoch_infinite``; how a vanishing factor is read (plain, an exact zero, a
pole) is an explicit argument of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivisionByZero, DomainError, NoConvergence, PoleHit

# (a; q)_inf keeps the factors with |a q^j| >= _TAIL; each factor dropped is
# within 1e-14 of 1, and together they move the product by < 1e-14 / (1 - |q|).
_TAIL = 1e-14
_LOG_TAIL = math.log(_TAIL)
# A factor 1 - a q^j within _SNAP of 0 is a lattice zero or pole.  That needs
# |a q^j| within _SNAP of 1, so only factors with |a q^j| in [1/2, 2] are tested.
_SNAP = 1e-12
_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class QContext:
    """Base q plus shared truncation policy.

    infinite_product_cutoff: hard cap on factors of (a; q)_inf
    series_shell_cap:        hard cap on the shell degree |l| of a multiple sum
    rel_tol:                 relative threshold for "this term is negligible"
    stall_window:            consecutive negligible shells needed to stop
    """

    q: complex = 0.5 + 0.0j
    infinite_product_cutoff: int = 300
    series_shell_cap: int = 400
    rel_tol: float = 1e-13
    stall_window: int = 3

    def __post_init__(self):
        qm = abs(self.q)
        if not 0.0 < qm < 1.0:
            raise DomainError(f"need 0 < |q| < 1, got |q| = {qm}")
        if self.infinite_product_cutoff <= 0 or self.series_shell_cap <= 0:
            raise DomainError("cutoffs must be positive")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            # a NaN threshold marks no shell negligible, and +inf marks every one
            raise DomainError(f"rel_tol must be finite and positive, got {self.rel_tol}")
        if self.stall_window <= 0:
            raise DomainError("stall_window must be positive")


def qpoch_finite(a: complex, l: int, ctx: QContext) -> complex:
    """(a; q)_l for integer l of either sign.

    Negative index follows the standard inversion (a)_{-m} = 1/(a q^{-m}; q)_m,
    which raises DivisionByZero when the inverted product vanishes.
    """
    if l >= 0:
        prod = 1.0 + 0.0j
        aq = complex(a)
        for _ in range(l):
            prod *= 1.0 - aq
            aq *= ctx.q
        return prod
    denom = qpoch_finite(a * ctx.q ** l, -l, ctx)
    if denom == 0:
        raise DivisionByZero(f"(a; q)_{l} undefined: inverted factor vanishes (a={a})")
    return 1.0 / denom


def qpoch_infinite(a: complex, ctx: QContext, vanish: str | None = None) -> complex:
    """(a; q)_inf: the product of 1 - a q^j over every j with |a q^j| >= 1e-14.

    The factor count n is fixed from log|a| and log|q| before the product
    starts.  At most ctx.infinite_product_cutoff factors are multiplied, and
    NoConvergence is raised when n exceeds that cap (|q| too close to 1 or
    |a| too large for it).  vanish says what a factor within 1e-12 of zero
    means, and is tested only on the factors that can come that close:

      None    nothing special: the plain product
      "zero"  an exact lattice zero: return 0 (a numerator)
      "pole"  a pole: raise PoleHit (a denominator)

    A zero or a pole within the first cutoff factors wins over NoConvergence.
    A NaN or infinite argument gives NaN.
    """
    if vanish is not None and vanish != "zero" and vanish != "pole":
        raise DomainError(f"vanish must be None, 'zero' or 'pole', got {vanish!r}")
    aq = complex(a)
    size = abs(aq)
    if size < _TAIL:
        return 1.0 + 0.0j
    if not size < math.inf:  # NaN or inf in, NaN out
        return complex(math.nan, math.nan)
    q = ctx.q
    rate = -math.log(abs(q))
    loga = math.log(size)
    cutoff = ctx.infinite_product_cutoff
    x = (loga - _LOG_TAIL) / rate
    n = int(x) + 1 if x < cutoff else cutoff + 1
    stop = min(n, cutoff)
    prod = 1.0 + 0.0j
    hi = 0
    if vanish is not None and size >= 0.5:
        # only the factors with |a q^j| in [1/2, 2] are tested
        lo = min(stop, max(0, math.ceil((loga - _LOG2) / rate)))
        hi = min(stop, math.floor((loga + _LOG2) / rate) + 1)
        for _ in range(lo):
            prod *= 1.0 - aq
            aq *= q
        for _ in range(lo, hi):
            f = 1.0 - aq
            if abs(f) < _SNAP:
                if vanish == "zero":
                    return 0.0 + 0.0j
                raise PoleHit(f"denominator factor vanishes at argument {a}")
            prod *= f
            aq *= q
    for _ in range(hi, stop):
        prod *= 1.0 - aq
        aq *= q
    if n > cutoff:
        raise NoConvergence(
            f"(a; q)_inf needs more than {cutoff} factors for |a| = {size:.1e} "
            f"(|q| too close to 1)"
        )
    return prod


def theta(x: complex, ctx: QContext) -> complex:
    """Modified theta function theta(x; q) = (x; q)_inf (q/x; q)_inf."""
    if x == 0:
        raise DomainError("theta(x) needs x != 0")
    return qpoch_infinite(x, ctx) * qpoch_infinite(ctx.q / x, ctx)


def elem_sym(k: int, xs) -> complex:
    """Elementary symmetric polynomial e_k(xs) via the stable one-pass recurrence."""
    xs = list(xs)
    if k < 0 or k > len(xs):
        return 0.0 + 0.0j
    if k == 0:
        return 1.0 + 0.0j
    e = [1.0 + 0.0j] + [0.0 + 0.0j] * k
    for n, x in enumerate(xs, start=1):
        for j in range(min(n, k), 0, -1):
            e[j] = e[j] + x * e[j - 1]
    return e[k]
