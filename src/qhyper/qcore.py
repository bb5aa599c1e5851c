"""Core q-calculus primitives: q-shifted factorials, theta, elementary symmetrics.

All evaluation happens in complex double precision with a base |q| < 1.  The
QContext bundles q together with the truncation knobs every summation in the
package shares, so numerical policy lives in one place.

Every infinite sum of the package (the shell sums of series and the lattice
sums of jackson) is truncated by one stall rule: a term is negligible when
|term| <= rel_tol * max(1, |running total|); the sum stops at the end of the
first run of stall_window negligible terms; and a non-finite running total
raises NonFinite.  ``_stall_block`` applies it to a numpy block of terms,
carrying the total and the open run from block to block, and ``_stall_step``
to one term; both stop at the same term with the same total.

Every (a; q)_inf factor is formed by one kernel, ``qpoch_ratio``: a product
or ratio of products (every Jackson integrand and every prefactor) is one
call, from one numpy grid of factors divided column by column so that no
single product is ever formed; a factor within 1e-12 of zero reads as an
exact zero in a numerator and as a pole (PoleHit) in a denominator.
``qpoch_infinite`` is one numerator row of it, and ``theta`` two.  The tests
keep the product loops the kernel replaced as its reference.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .errors import DivisionByZero, DomainError, NoConvergence, NonFinite, PoleHit

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
    stall_window:            consecutive negligible terms needed to stop
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


def _stall_block(terms, total, run, ctx: QContext, where, start):
    """The stall rule over a numpy block of terms, after a running total and
    a run of negligible terms carried in: (n, total, size, run), the n terms
    summed, the total after them, |term| of the last and the run it ends.
    The sum stopped if run reaches ctx.stall_window; otherwise n =
    len(terms).  Totals are added in order and sizes taken by np.hypot, so
    both are bitwise _stall_step's (np.abs may round otherwise).  A
    non-finite total raises NonFinite at where.format(start + its index).
    """
    import numpy as np

    window = ctx.stall_window
    with np.errstate(all="ignore"):
        totals = terms.copy()
        totals[0] += total
        np.add.accumulate(totals, out=totals)
        sizes = np.hypot(terms.real, terms.imag)
        small = sizes <= ctx.rel_tol * np.maximum(1.0, np.hypot(totals.real, totals.imag))
    # one byte per term, 1 where it is negligible, after the run carried in
    flags = b"\x01" * run + small.tobytes()
    hit = flags.find(b"\x01" * window)
    end = hit + window - 1 - run if hit >= 0 else len(terms) - 1
    total = complex(totals[end])
    if not cmath.isfinite(total):
        # a non-finite part stays so under addition: the first one raises
        first = int(np.isfinite(totals).argmin())
        raise NonFinite(f"non-finite partial sum at {where.format(start + first)}")
    run = window if hit >= 0 else len(flags) - len(flags.rstrip(b"\x01"))
    return end + 1, total, float(sizes[end]), run


def _stall_step(term, total, run, ctx: QContext, where, n):
    """_stall_block for the one term n: (total, size, run)."""
    total += term
    if not cmath.isfinite(total):
        raise NonFinite(f"non-finite partial sum at {where.format(n)}")
    size = abs(term)
    return total, size, run + 1 if size <= ctx.rel_tol * max(1.0, abs(total)) else 0


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


# The ratio kernel imports numpy where it runs.  qcore is the package's first
# module, and numpy loaded before the larger modules are compiled (when no
# bytecode cache is written) raises the peak memory of `import qhyper.cli`
# from about 31 MB to 35 MB.


@functools.lru_cache(maxsize=8)
def _powers(q, cutoff):
    """-log|q|, and q^j for j < cutoff as an array and as a list."""
    import numpy as np

    row = np.full(cutoff, q, dtype=complex)
    row[0] = 1.0
    row = np.multiply.accumulate(row)
    return -math.log(abs(q)), row, row.tolist()


def qpoch_ratio(num, den, ctx: QContext) -> complex:
    """prod_k (num_k; q)_inf / prod_k (den_k; q)_inf.

    Each product keeps the factors 1 - c q^j with |c q^j| >= 1e-14; the count
    is fixed from log|c| and log|q|, and a product that needs more than
    ctx.infinite_product_cutoff factors raises NoConvergence (|q| too close to
    1 or |c| too large for it).  Rows are taken in order, numerators first:
    the first row with a factor within 1e-12 of zero returns 0 (a numerator)
    or raises PoleHit (a denominator), and the first row past the cap raises
    NoConvergence, whichever comes first (a vanishing factor within the cap
    wins over its own row's NoConvergence).  Otherwise a NaN or infinite
    argument gives NaN.
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
    first, row by row; only a row with |c t| >= 1/2 has factors with
    |c t q^j| in [1/2, 2] to test, but every row is held to the cap.
    """
    import numpy as np

    cutoff = ctx.infinite_product_cutoff
    rate, powers, power_list = _powers(ctx.q, cutoff)
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
                n = int((loga - _LOG_TAIL) / rate) + 1
                if size >= 0.5:
                    # only the factors with |a q^j| in [1/2, 2] can vanish
                    lo = max(0, math.ceil((loga - _LOG2) / rate))
                    hi = min(n, cutoff, math.floor((loga + _LOG2) / rate) + 1)
                    for j in range(lo, hi):
                        if abs(1.0 - a * power_list[j]) < _SNAP:
                            if k < split:
                                return 0.0 + 0.0j
                            raise PoleHit(f"denominator factor vanishes at argument {a}")
                if n > cutoff:
                    raise NoConvergence(f"(a; q)_inf needs more than {cutoff} factors for "
                                        f"|a| = {size:.1e} (|q| too close to 1)")
            stops.append(n)
        width = max(stops, default=0)
        grid = 1.0 - args[:, None] * powers[:width]
        for k, n in enumerate(stops):
            if n < width:
                grid[k, n:] = 1.0
        prod = np.multiply.reduce
        val = complex(prod(prod(grid[:split]) / prod(grid[split:])))
    return complex(math.nan, math.nan) if nan else val


def qpoch_infinite(a: complex, ctx: QContext) -> complex:
    """(a; q)_inf, one numerator row of the ratio kernel: a factor within
    1e-12 of zero makes it exactly 0."""
    return qpoch_ratio([a], [], ctx)


def theta(x: complex, ctx: QContext) -> complex:
    """Modified theta function theta(x; q) = (x; q)_inf (q/x; q)_inf, two
    numerator rows of the ratio kernel."""
    if x == 0:
        raise DomainError("theta(x) needs x != 0")
    return qpoch_ratio([x, ctx.q / x], [], ctx)


def principal_power(base, exponent):
    """base**exponent on the principal branch (base != 0)."""
    return cmath.exp(exponent * cmath.log(base))


def q_exponent(value, ctx: QContext):
    """The principal solution s of q^s = value."""
    return cmath.log(value) / cmath.log(ctx.q)


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
