"""Core q-calculus primitives: q-shifted factorials, theta, elementary symmetrics.

All evaluation happens in complex double precision with a base |q| < 1.  The
QContext bundles q together with the truncation knobs every summation in the
package shares, so numerical policy lives in one place.  There are two
(a; q)_inf kernels with one set of rules (which factors are kept, the factor
cap, the snap of a vanishing factor).  A product or ratio of two or more
products (every Jackson integrand and every prefactor) is one ``qpoch_ratio``
call, from one numpy grid of factors divided column by column so that no
single product is ever formed; a factor within 1e-12 of zero reads as an
exact zero in a numerator and as a pole (PoleHit) in a denominator.
``qpoch_infinite`` multiplies out a product that stands alone (theta,
(q; q)_inf) in a loop, with the reading of a vanishing factor (plain, an
exact zero, a pole) an explicit argument.
"""
from __future__ import annotations

import functools
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


def _factor_count(loga, rate, cutoff):
    """How many factors 1 - a q^j of (a; q)_inf are kept, for log|a| = loga >=
    log(_TAIL) and rate = -log|q|: those with |a q^j| >= _TAIL, or cutoff + 1
    when that is more than the cap."""
    x = (loga - _LOG_TAIL) / rate
    return int(x) + 1 if x < cutoff else cutoff + 1


def _snap_window(loga, rate, stop):
    """The range of j < stop whose factor 1 - a q^j can come within _SNAP of 0:
    those with |a q^j| in [1/2, 2], for log|a| = loga (empty when |a| < 1/2)."""
    if loga < -_LOG2:
        return 0, 0
    lo = min(stop, max(0, math.ceil((loga - _LOG2) / rate)))
    hi = min(stop, math.floor((loga + _LOG2) / rate) + 1)
    return lo, hi


def _too_many(size, cutoff):
    return NoConvergence(
        f"(a; q)_inf needs more than {cutoff} factors for |a| = {size:.1e} "
        f"(|q| too close to 1)"
    )


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
    n = _factor_count(loga, rate, cutoff)
    stop = min(n, cutoff)
    prod = 1.0 + 0.0j
    hi = 0
    if vanish is not None:
        lo, hi = _snap_window(loga, rate, stop)
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
        raise _too_many(size, cutoff)
    return prod


# The ratio kernel imports numpy where it runs.  qcore is the package's first
# module, and numpy loaded before the larger modules are compiled (when no
# bytecode cache is written) raises the peak memory of `import qhyper.cli`
# from about 31 MB to 35 MB.


@functools.lru_cache(maxsize=8)
def _powers(q, cutoff):
    """-log|q|, and q^j for j < cutoff as an array and as a list, and the
    column indices j."""
    import numpy as np

    row = np.full(cutoff, q, dtype=complex)
    row[0] = 1.0
    row = np.multiply.accumulate(row)
    return -math.log(abs(q)), row, row.tolist(), np.arange(cutoff)


def qpoch_ratio(num, den, ctx: QContext) -> complex:
    """prod_k (num_k; q)_inf / prod_k (den_k; q)_inf.

    Each product keeps the factors qpoch_infinite keeps, under the same cap,
    and a vanishing factor reads as in its "zero" mode for a numerator and its
    "pole" mode for a denominator.  Rows are taken in order, numerators first,
    as a loop of qpoch_infinite calls would: the first row with a vanishing
    factor returns 0 (a numerator) or raises PoleHit (a denominator), and the
    first row past the cap raises NoConvergence, whichever comes first (a
    vanishing factor within the cap wins over its own row's NoConvergence).
    Otherwise a NaN or infinite argument gives NaN.
    """
    import numpy as np

    return _ratio(np.array([*num, *den], dtype=complex), 1.0, len(num), ctx)


def _ratio(coef, t, split, ctx: QContext) -> complex:
    """qpoch_ratio at the arguments coef * t, coef[:split] the numerators.

    The factors 1 - c_k t q^j form one grid, a row per argument and a column
    per j, each row padded with 1 past its last kept factor, and the value is
    prod_j [prod_k num_kj / prod_k den_kj]: no single product is formed, so
    none overflows on its own (|c t| large on the n < 0 half of a bilateral
    lattice).  The rows' factor counts and vanishing factors are settled
    first, row by row, with qpoch_infinite's rules.
    """
    import numpy as np

    cutoff = ctx.infinite_product_cutoff
    rate, powers, power_list, cols = _powers(ctx.q, cutoff)
    with np.errstate(over="ignore", invalid="ignore"):
        args = coef * t
        stops = []
        nan = False
        for k, a in enumerate(args.tolist()):
            size = abs(a)
            n = 0
            if not size < math.inf:  # NaN or inf
                nan = True
            elif size >= _TAIL:
                loga = math.log(size)
                n = _factor_count(loga, rate, cutoff)
                lo, hi = _snap_window(loga, rate, min(n, cutoff))
                for j in range(lo, hi):
                    if abs(1.0 - a * power_list[j]) < _SNAP:
                        if k < split:
                            return 0.0 + 0.0j
                        raise PoleHit(f"denominator factor vanishes at argument {a}")
                if n > cutoff:
                    raise _too_many(size, cutoff)
            stops.append(n)
        width = max(stops, default=0)
        grid = np.where(cols[:width] < np.array(stops)[:, None],
                        1.0 - args[:, None] * powers[:width], 1.0)
        val = complex((grid[:split].prod(axis=0) / grid[split:].prod(axis=0)).prod())
    return complex(math.nan, math.nan) if nan else val


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
