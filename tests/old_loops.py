"""The (a; q)_inf product loops that qcore's ratio kernel replaced, kept as
the kernel's reference.

Each multiplies out 1 - a q^j one factor at a time while |a q^j| >= 1e-14,
at most infinite_product_cutoff factors, and raises NoConvergence past that
cap.  A factor within 1e-12 of zero is an exact lattice zero in a numerator
(the product is 0) and a pole in a denominator (PoleHit).
"""
from qhyper.errors import NoConvergence, PoleHit


def old_poch_inf_num(arg, ctx):
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


def old_poch_inf_den(arg, ctx):
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


def old_ratio(num, den, ctx):
    """prod (num_k; q)_inf / prod (den_k; q)_inf by the loops, rows in order:
    every numerator product multiplied out before any denominator divides."""
    val = 1.0 + 0.0j
    for c in num:
        p = old_poch_inf_num(c, ctx)
        if p == 0:
            return 0.0 + 0.0j
        val *= p
    for c in den:
        val /= old_poch_inf_den(c, ctx)
    return val
