"""Multiple basic/bilateral hypergeometric series summed by total-degree shells.

Everything here is a sum over multi-indices l in Z_{>=0}^M, evaluated shell by
shell (|l| = 0, 1, 2, ...) so that truncation decisions depend only on the
total degree, never on the enumeration order inside a shell.

Every series in the package has terms of one shape, described by a ShellSpec:
a factor in the shell degree s = |l|, the Vandermonde ratio
Delta(y q^l)/Delta(y), optional very-well-poised factors and one factor per
direction l_i.  sum_shells evaluates a spec a block of shells at a time as
numpy arrays: each factor is a table over its index, extended incrementally
by the recurrence of its q-shifted factorials, and the terms of a block are
gathered from the tables through cached composition arrays.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence, NonFinite, TermEvaluationError
from .qcore import QContext, qpoch_infinite

_TERMINATE_TOL = 1e-12
# A block of shells holds at least this many terms; the target doubles from
# block to block up to the maximum, so short sums stay cheap and deep sums run
# in large blocks.
_BLOCK_MIN_TERMS = 32
_BLOCK_MAX_TERMS = 4096


@dataclass
class SeriesResult:
    value: complex
    shells_used: int
    converged: bool
    last_shell_magnitude: float

    def require(self):
        """Value, but only if the shell sum actually stalled."""
        if not self.converged:
            raise NoConvergence(
                f"series did not stall within {self.shells_used} shells "
                f"(last shell magnitude {self.last_shell_magnitude:.3e})"
            )
        return self.value


@dataclass(frozen=True)
class KajiharaParams:
    """Arguments of the duality-type series W^{M,N}: x has M entries, u has
    M+N, v has N; a and z are scalars."""

    x: tuple
    a: complex
    u: tuple
    v: tuple
    z: complex


@dataclass(frozen=True)
class QALParams:
    """q-Appell-Lauricella data: scalars A, C and per-variable B_i, x_i."""

    A: complex
    B: tuple
    C: complex
    x: tuple


@dataclass(frozen=True)
class Factor:
    """w^n q^(e C(n,2)) prod_k (a_k; q)_n / prod_k (b_k; q)_n in one index n.

    With a cap the factor is identically zero for n > cap (a numerator
    (q^-cap; q)_n that the caller knows about).
    """

    w: complex = 1.0
    e: int = 0
    a: tuple = ()
    b: tuple = ()
    cap: int | None = None


@dataclass(frozen=True)
class ShellSpec:
    """Term of an M-fold shell sum, s = |l|:

        shell(s + offset) * Delta(y q^l) / Delta(y)
            * prod_i (1 - mu_i q^(s + l_i)) / (1 - mu_i) * prod_i dirs[i](l_i)

    An empty y drops the Vandermonde ratio, an empty mu the very-well-poised
    factors and an empty dirs the per-direction factors.  offset shifts the
    shell factor's index (the negative half of a bilateral series starts at
    degree 1).
    """

    shell: Factor = Factor()
    dirs: tuple = ()
    y: tuple = ()
    mu: tuple = ()
    offset: int = 0


class _Tables:
    """Values of several Factors at n = 0, 1, ..., grown together on demand.

    vals[f, n] is factor f at n.  An extension continues, from the carried
    last values, the recurrences of the q-shifted factorials:
    a q^n = (a q^(n-1)) q and (a; q)_(n+1) = (a; q)_n (1 - a q^n), with w^n
    and q^(e C(n,2)) stepped the same way, so nothing is ever recomputed.
    All factors share one grid of rows that step by a constant ratio: per
    factor a numerator segment (w, then q^(e n) if e, then a_k q^n) and a
    denominator segment (a row of ones, then b_k q^n).  bad[f] is the first
    n at which factor f divided by a vanishing factor.
    """

    __slots__ = ("vals", "n", "bad", "_cap", "_row", "_ratio", "_poch", "_segs")

    def __init__(self, factors, q):
        q = complex(q)
        row, ratio, poch, segs = [], [], [], []

        def add(start, step):
            row.append(start)
            ratio.append(step)

        for f in factors:
            segs.append(len(row))  # numerator: w^n, q^(e n), then 1 - a_k q^n
            add(f.w, 1.0)
            if f.e:
                add(1.0, q ** f.e)
            poch += range(len(row), len(row) + len(f.a))
            for c in f.a:
                add(c, q)
            segs.append(len(row))  # denominator: a row of ones, then 1 - b_k q^n
            add(1.0, 1.0)
            poch += range(len(row), len(row) + len(f.b))
            for c in f.b:
                add(c, q)
        self._row = np.array(row, complex)  # value of each row at the last step
        self._ratio = np.array(ratio, complex)
        self._poch = np.array(poch, np.intp)  # rows that enter as 1 - a q^n
        self._segs = np.array(segs, np.intp)
        self._cap = [f.cap for f in factors]
        self.vals = np.ones((len(factors), 1), complex)
        self.n = 1
        self.bad = [math.inf] * len(factors)

    def upto(self, n):
        """The tables, valid at least at indices 0..n-1."""
        if n > self.n:
            self._extend(n)
        return self.vals

    def _extend(self, n):
        lo, count = self.n, n - self.n  # steps lo-1 .. n-2 give vals[:, lo:n]
        if n > self.vals.shape[1]:
            grown = np.empty((len(self.vals), max(n, 2 * self.vals.shape[1])), complex)
            grown[:, :lo] = self.vals[:, :lo]
            self.vals = grown
        grid = np.empty((len(self._row), count), complex)
        grid[:, 0] = self._row
        grid[:, 1:] = self._ratio[:, None]
        np.cumprod(grid, axis=1, out=grid)
        self._row = grid[:, -1] * self._ratio
        grid[self._poch] = 1.0 - grid[self._poch]
        prods = np.multiply.reduceat(grid, self._segs, axis=0)
        den = prods[1::2]
        if not den.all():
            for f, j in zip(*np.nonzero(den == 0)):
                cap = self._cap[f]
                if cap is None or lo + j <= cap:
                    self.bad[f] = min(self.bad[f], lo + int(j))
        steps = np.empty((len(self.vals), count + 1), complex)
        steps[:, 0] = self.vals[:, lo - 1]
        np.divide(prods[0::2], den, out=steps[:, 1:])
        np.cumprod(steps, axis=1, out=steps)
        self.vals[:, lo:n] = steps[:, 1:]
        for f, cap in enumerate(self._cap):
            if cap is not None and cap + 1 < n:
                self.vals[f, max(cap + 1, lo):n] = 0.0
        self.n = n


@functools.lru_cache(maxsize=1024)
def _compositions(M, s):
    """All l in Z_{>=0}^M with |l| = s as an int16 array, one row per l, in
    lexicographic order."""
    if M == 1:
        comps = np.array([[s]], np.int16)
    else:
        comps = np.concatenate([
            np.column_stack((np.full(math.comb(s - h + M - 2, M - 2), h, np.int16),
                             _compositions(M - 1, s - h)))
            for h in range(s + 1)
        ])
    comps.flags.writeable = False
    return comps


def terminating_order(a, ctx: QContext, nmax=None):
    """Smallest n with a ~= q^{-n} (relative tolerance 1e-12), or None."""
    if a == 0:
        return None
    if nmax is None:
        nmax = ctx.series_shell_cap
    qn = 1.0 + 0.0j
    mag = abs(complex(a))
    for n in range(nmax + 1):
        # |q^-n| grows monotonically; once it clears |a| no later n can match
        # (and q^-n would eventually overflow to inf, matching anything).
        if abs(qn) * (1.0 - _TERMINATE_TOL) > mag:
            return None
        if abs(a - qn) <= _TERMINATE_TOL * abs(qn):
            return n
        qn /= ctx.q
    return None


def sum_shells(term, M: int, ctx: QContext, shell_cap=None, exact=False) -> SeriesResult:
    """Sum term(l) over l in Z_{>=0}^M by shells of constant |l|.

    term is a ShellSpec or a callable taking the tuple l.  Stops after
    ctx.stall_window consecutive shells whose magnitude is below
    ctx.rel_tol * max(1, |partial|), or at the cap.  With exact=True the cap
    is a known terminating degree and the truncated sum is the exact value.
    Shells computed ahead of the stop are never checked and never raise.
    """
    cap = ctx.series_shell_cap if shell_cap is None else shell_cap
    if isinstance(term, ShellSpec):
        shells = _spec_shells(term, M, ctx.q, cap)
    else:
        shells = _callable_shells(term, M)
    partial = 0.0 + 0.0j
    stall = 0
    last_mag = 0.0
    used = 0
    converged = False
    for s, shell in zip(range(cap + 1), shells):
        partial += shell
        if not (math.isfinite(partial.real) and math.isfinite(partial.imag)):
            raise NonFinite(f"non-finite partial sum at shell {s}")
        last_mag = abs(shell)
        used = s + 1
        if last_mag <= ctx.rel_tol * max(1.0, abs(partial)):
            stall += 1
            if stall >= ctx.stall_window:
                converged = True
                break
        else:
            stall = 0
    if exact:
        converged = True
    return SeriesResult(partial, used, converged, last_mag)


def _callable_shells(term, M):
    s = 0
    while True:
        shell = 0.0 + 0.0j
        for l in _compositions(M, s).tolist():
            l = tuple(l)
            try:
                t = complex(term(l))
            except (ZeroDivisionError, OverflowError, ValueError) as exc:
                raise TermEvaluationError(f"term failed at l={l}: {exc}") from exc
            if not (math.isfinite(t.real) and math.isfinite(t.imag)):
                raise NonFinite(f"non-finite term at l={l}")
            shell += t
        yield shell
        s += 1


def _spec_shells(spec: ShellSpec, M, q, cap):
    """Shell sums of a spec, computed a block of shells at a time."""
    for part in (spec.dirs, spec.y, spec.mu):
        if part and len(part) != M:
            raise DomainError(f"ShellSpec parts must have M = {M} entries, got {len(part)}")
    y = [complex(t) for t in spec.y] if M > 1 else []
    mu = [complex(t) for t in spec.mu]
    factors = [spec.shell, *spec.dirs]
    if y or mu:
        factors.append(Factor(w=q))  # q^n, for q^(l_i) and q^(s + l_i)
    reach = 2 if y or mu else 1
    tables = _Tables(factors, q)
    scale = 1.0 + 0.0j
    if y:
        scale *= _delta(y)
    for m in mu:
        scale *= 1.0 - m
    zero_den = scale == 0
    if not zero_den:
        scale = 1.0 / scale
    s0, target = 0, _BLOCK_MIN_TERMS
    while s0 <= cap:
        s1, count = s0, 0
        while count < target and s1 <= cap:
            count += math.comb(s1 + M - 1, M - 1)
            s1 += 1
        if M == 1:
            S = np.arange(s0, s1)
            L = S[:, None]
            starts = np.arange(s1 - s0)
        else:
            blocks = [_compositions(M, s) for s in range(s0, s1)]
            L = np.concatenate(blocks)
            sizes = [len(b) for b in blocks]
            S = np.repeat(np.arange(s0, s1), sizes)
            starts = np.cumsum([0] + sizes[:-1])
        with np.errstate(all="ignore"):
            vals = tables.upto(max(s1 + spec.offset, reach * s1))
            t = vals[0][S + spec.offset]
            for i in range(len(spec.dirs)):
                t *= vals[1 + i][L[:, i]]
            if y:
                Y = [y[i] * vals[-1][L[:, i]] for i in range(M)]
                for i in range(M):
                    for j in range(i + 1, M):
                        t *= Y[i] - Y[j]
            for i, m in enumerate(mu):
                t *= 1.0 - m * vals[-1][S + L[:, i]]
            sums = np.add.reduceat(t, starts) * scale
        finite = np.isfinite(sums)
        for k, value in enumerate(sums.tolist()):
            if zero_den or not finite[k]:
                lo = starts[k]
                hi = starts[k + 1] if k + 1 < len(starts) else len(t)
                _raise_bad_term(t[lo:hi], L[lo:hi], s0 + k + spec.offset, tables.bad, zero_den)
            yield value
        s0 = s1
        target = min(2 * target, _BLOCK_MAX_TERMS)


def _raise_bad_term(terms, ls, shell_index, bad, zero_den):
    """Raise for the first bad term of a shell whose sum is not finite.

    bad holds the first index at which each table divided by zero: the shell
    factor's, then one per direction (a trailing q^n table never does).
    """
    nonfinite = np.flatnonzero(~np.isfinite(terms))
    if not len(nonfinite) and not zero_den:
        return  # finite terms whose sum overflowed: the partial-sum check raises
    l = tuple(ls[nonfinite[0] if len(nonfinite) else 0].tolist())
    if zero_den or any(b <= n for b, n in zip(bad, (shell_index,) + l)):
        raise TermEvaluationError(f"term failed at l={l}: zero denominator")
    raise NonFinite(f"non-finite term at l={l}")


def _delta(xs):
    prod = 1.0 + 0.0j
    n = len(xs)
    for i in range(n):
        for j in range(i + 1, n):
            prod *= xs[i] - xs[j]
    return prod


def _sum_spec(spec, M, ctx, cap):
    """Sum a spec, exactly up to a terminating degree cap when one is known."""
    if cap is not None:
        return sum_shells(spec, M, ctx, shell_cap=cap, exact=True)
    return sum_shells(spec, M, ctx)


def _min_order(params, ctx):
    """Smallest terminating order among params, or None."""
    orders = [terminating_order(c, ctx) for c in params]
    orders = [n for n in orders if n is not None]
    return min(orders) if orders else None


def rphis(upper, lower, z, ctx: QContext) -> SeriesResult:
    """r_phi_s basic hypergeometric series with the ((-1)^l q^C(l,2))^{1+s-r} factor."""
    upper = tuple(complex(u) for u in upper)
    lower = tuple(complex(d) for d in lower)
    excess = 1 + len(lower) - len(upper)
    nterm = _min_order(upper, ctx)
    if nterm is None:
        if excess < 0:
            raise DomainError("r > s+1 series diverges unless terminating")
        if excess == 0 and abs(z) >= 1:
            raise DomainError(f"need |z| < 1 for r = s+1, got {abs(z)}")
    w = -complex(z) if excess % 2 else complex(z)
    spec = ShellSpec(Factor(w=w, e=excess, a=upper, b=(ctx.q,) + lower))
    return _sum_spec(spec, 1, ctx, nterm)


def vwp_W(a1, rest, z, ctx: QContext) -> SeriesResult:
    """Very-well-poised (r+1)W_r(a1; rest...; z) with len(rest) = r - 2."""
    a1 = complex(a1)
    rest = tuple(complex(c) for c in rest)
    if a1 == 1.0:
        raise DomainError("vwp_W needs a1 != 1")
    nterm = _min_order((a1,) + rest, ctx)
    if nterm is None and abs(z) >= 1:
        raise DomainError(f"need |z| < 1 for non-terminating vwp_W, got {abs(z)}")
    q = ctx.q
    shell = Factor(w=z, a=(a1,) + rest, b=(q,) + tuple(q * a1 / c for c in rest))
    return _sum_spec(ShellSpec(shell, mu=(a1,)), 1, ctx, nterm)


def bilateral_psi(upper, lower, z, ctx: QContext) -> SeriesResult:
    """Bilateral series sum_{l in Z} prod(upper)_l / prod(lower)_l * z^l.

    The negative half is rewritten as a series in (prod(lower)/(prod(upper) z))
    via (c)_{-m}/(d)_{-m} = (d/c)^m (q/d)_m/(q/c)_m.  The annulus condition
    |prod(lower)/prod(upper)| < |z| < 1 is enforced per side unless that side
    terminates identically.
    """
    upper = tuple(complex(c) for c in upper)
    lower = tuple(complex(d) for d in lower)
    if len(upper) != len(lower):
        raise DomainError("bilateral_psi needs equal parameter counts")
    z = complex(z)
    q = ctx.q
    cprod = math.prod(abs(c) for c in upper)
    dprod = math.prod(abs(d) for d in lower)
    pos_term = _min_order(upper, ctx)
    neg_term = _min_order([q / d for d in lower if d != 0], ctx)
    if pos_term is None and abs(z) >= 1:
        raise DomainError(f"bilateral_psi needs |z| < 1, got {abs(z)}")
    if neg_term is None and cprod > 0 and dprod / cprod >= abs(z):
        raise DomainError(
            f"bilateral_psi annulus violated: |prod(lower)/prod(upper)| = "
            f"{dprod / cprod} >= |z| = {abs(z)}"
        )

    rp = _sum_spec(ShellSpec(Factor(w=z, a=upper, b=lower)), 1, ctx, pos_term)
    if neg_term == 0:
        # (q/d)_m vanishes for every m >= 1
        rn = SeriesResult(0.0 + 0.0j, 0, True, 0.0)
    else:
        w = 1.0 + 0.0j
        for c, d in zip(upper, lower):
            w *= d / c
        w /= z
        # the negative side starts at l = -1: shell s holds m = s + 1
        neg = Factor(w=w, a=tuple(q / d for d in lower), b=tuple(q / c for c in upper))
        neg_cap = None if neg_term is None else neg_term - 1
        rn = _sum_spec(ShellSpec(neg, offset=1), 1, ctx, neg_cap)
    return SeriesResult(
        rp.value + rn.value,
        rp.shells_used + rn.shells_used,
        rp.converged and rn.converged,
        max(rp.last_shell_magnitude, rn.last_shell_magnitude),
    )


def kajihara_W(p: KajiharaParams, ctx: QContext) -> SeriesResult:
    """The M-fold series W^{M,N}(x; a; u; v; z) (duality-type very-well-poised sum)."""
    M = len(p.x)
    N = len(p.v)
    if len(p.u) != M + N:
        raise DomainError(f"u must have M+N = {M + N} entries, got {len(p.u)}")
    q = ctx.q
    x = [complex(v) for v in p.x]
    a = complex(p.a)
    u = [complex(v) for v in p.u]
    v = tuple(complex(t) for t in p.v)
    z = complex(p.z)

    # per-direction termination from (x_i u_j)_{l_i}
    dir_caps = [_min_order([xi * uj for uj in u], ctx) for xi in x]
    cap = _min_order(v, ctx)
    if all(c is not None for c in dir_caps):
        total = sum(dir_caps)
        cap = total if cap is None else min(cap, total)
    if cap is None and abs(z) >= 1:
        raise DomainError(f"kajihara_W needs |z| < 1 or termination, got |z| = {abs(z)}")

    for xi in x:
        if abs(1.0 - a * xi) == 0:
            raise DomainError("kajihara_W pole: a x_i = 1")

    spec = ShellSpec(
        Factor(w=z, a=v + tuple(a * xi for xi in x), b=tuple(a * q / uj for uj in u)),
        dirs=tuple(
            Factor(
                a=tuple(xi * uj for uj in u),
                b=tuple(q * xi / xj for xj in x) + tuple(a * q * xi / vk for vk in v),
                cap=ci,
            )
            for xi, ci in zip(x, dir_caps)
        ),
        y=tuple(x),
        mu=tuple(a * xi for xi in x),
    )
    return _sum_spec(spec, M, ctx, cap)


def W_normalized(bp, ctx: QContext) -> SeriesResult:
    """Symmetrized W[{a}; {b}]: prefactor times W^{M,2} in the balanced data.

    Symmetric in a_1..a_{M+1} and in b_1..b_{M+3}; equals the normalized
    Jackson integral of prod (a_k t)_inf/(b_k t)_inf between q/a_{M+2} and
    q/a_{M+3}.
    """
    M = bp.M
    a = [complex(t) for t in bp.a]
    b = [complex(t) for t in bp.b]
    q = ctx.q
    aM2, aM3 = a[M + 1], a[M + 2]
    bM3 = b[M + 2]
    z = a[M] / bM3
    if abs(z) >= 1:
        raise DomainError(f"W_normalized needs |a_(M+1)/b_(M+3)| < 1, got {abs(z)}")
    if aM3 == aM2:
        raise DomainError("W_normalized needs a_(M+2) != a_(M+3)")
    inner = kajihara_W(
        KajiharaParams(
            x=tuple(a[:M]),
            a=q * bM3 / (aM2 * aM3),
            u=tuple(1.0 / bj for bj in b[: M + 2]),
            v=(q * bM3 / aM2, q * bM3 / aM3),
            z=z,
        ),
        ctx,
    )
    pref = 1.0 + 0.0j
    for ai in a[:M]:
        pref *= qpoch_infinite(q * ai / aM2, ctx) * qpoch_infinite(q * ai / aM3, ctx)
        pref /= qpoch_infinite(q * q * ai * bM3 / (aM2 * aM3), ctx)
    for bj in b[: M + 2]:
        pref *= qpoch_infinite(q * q * bj * bM3 / (aM2 * aM3), ctx)
    for bj in b:
        pref /= qpoch_infinite(q * bj / aM2, ctx) * qpoch_infinite(q * bj / aM3, ctx)
    pref *= qpoch_infinite(z, ctx)
    pref *= qpoch_infinite(aM2 / aM3, ctx) * qpoch_infinite(aM3 / aM2, ctx)
    pref /= aM3 - aM2
    return SeriesResult(
        pref * inner.value, inner.shells_used, inner.converged, inner.last_shell_magnitude
    )


def phi_D(p: QALParams, ctx: QContext) -> SeriesResult:
    """q-Appell-Lauricella phi_D series, |x_i| < 1."""
    M = len(p.x)
    if len(p.B) != M:
        raise DomainError("phi_D needs len(B) == len(x)")
    for xi in p.x:
        if abs(xi) >= 1:
            raise DomainError(f"phi_D needs |x_i| < 1, got {abs(xi)}")
    spec = ShellSpec(
        Factor(a=(p.A,), b=(p.C,)),
        dirs=tuple(Factor(w=xi, a=(bi,), b=(ctx.q,)) for bi, xi in zip(p.B, p.x)),
    )
    return sum_shells(spec, M, ctx)


def qal_solution(k: int, p: QALParams, ctx: QContext) -> SeriesResult:
    """Solution family k in {1,2,3} of the q-Appell-Lauricella system.

    Family 1 converges everywhere (doubly q-exponential decay), family 2 needs
    |C/(B_1...B_M)| < 1, family 3 converges everywhere.
    """
    M = len(p.x)
    q = ctx.q
    A, C = complex(p.A), complex(p.C)
    Bs = [complex(b) for b in p.B]
    xs = [complex(t) for t in p.x]
    Bprod = math.prod(Bs)
    ys = [Bs[i] * xs[i] for i in range(M)]

    def dirs(w, e=0, extra=None):
        """Per-direction factors w_i^l q^(e C(l,2)) prod_j (y_i/x_j)_l (extra_i)_l
        / ((y_i)_l prod_j (q y_i/y_j)_l), without (extra_i)_l when extra is None."""
        return tuple(
            Factor(
                w=w[i],
                e=e,
                a=tuple(yi / xj for xj in xs) + (() if extra is None else (extra[i],)),
                b=(yi,) + tuple(q * yi / yj for yj in ys),
            )
            for i, yi in enumerate(ys)
        )

    ayc = [A * yi / C for yi in ys]
    pref = 1.0 + 0.0j
    if k == 1:
        for i in range(M):
            pref *= qpoch_infinite(A * xs[i], ctx) * qpoch_infinite(ys[i], ctx)
            pref /= qpoch_infinite(A * ys[i], ctx) * qpoch_infinite(xs[i], ctx)
        mu = tuple(A * yi / q for yi in ys)
        spec = ShellSpec(
            Factor(e=1, a=(A,) + mu, b=(C,) + tuple(A * xi for xi in xs)),
            dirs=dirs([Bs[i] * C * xs[i] / Bprod for i in range(M)], 1, ayc),
            y=tuple(ys),
            mu=mu,
        )
    elif k == 2:
        w = C / Bprod
        if abs(w) >= 1:
            raise DomainError(f"family 2 needs |C/B| < 1, got {abs(w)}")
        for i in range(M):
            pref *= qpoch_infinite(ys[i], ctx) / qpoch_infinite(xs[i], ctx)
        spec = ShellSpec(Factor(w=w), dirs=dirs([1.0] * M, 0, ayc), y=tuple(ys))
    elif k == 3:
        for i in range(M):
            pref *= qpoch_infinite(ys[i], ctx) / qpoch_infinite(xs[i], ctx)
        spec = ShellSpec(Factor(w=-A / Bprod, a=(C / A,), b=(C,)), dirs=dirs(ys, 1), y=tuple(ys))
    else:
        raise DomainError(f"unknown qAL solution family {k}")
    res = sum_shells(spec, M, ctx)
    return SeriesResult(pref * res.value, res.shells_used, res.converged, res.last_shell_magnitude)


def degene_solution(k: int, a, b, qlambda, ctx: QContext, aM1_power=None) -> SeriesResult:
    """Solution family k in {1,2,3} of the degenerate system, parameters
    a_1..a_{M+1}, b_1..b_{M+1} and q^lambda = qlambda.

    The prefactor (1/a_{M+1})^(lambda+1) is a fractional power; by default it
    is fixed by the principal branch.  Lattice wrappers that shift a_{M+1} by
    q^n pass aM1_power explicitly (base value times (q^(lambda+1))^(-n)) so
    the whole solution stays on one branch.
    """
    a = [complex(t) for t in a]
    b = [complex(t) for t in b]
    if len(a) != len(b):
        raise DomainError("degene_solution needs len(a) == len(b)")
    M = len(a) - 1
    q = ctx.q
    qlp1 = qlambda * q
    qlp2 = qlambda * q * q
    aM1 = a[M]
    qbeta = math.prod(a) / (qlp2 * math.prod(b))
    if aM1_power is None:
        lam1 = cmath.log(qlp1) / cmath.log(q)
        aM1_power = cmath.exp(-lam1 * cmath.log(aM1))

    def dirs(nb, w, e=0):
        """Per-direction factors w_i^l q^(e C(l,2)) prod_{j<nb} (a_i/b_j)_l
        / prod_{j<=M} (q a_i/a_j)_l."""
        return tuple(
            Factor(
                w=w[i],
                e=e,
                a=tuple(a[i] / bj for bj in b[:nb]),
                b=tuple(q * a[i] / aj for aj in a),
            )
            for i in range(M)
        )

    pref = aM1_power
    for i in range(M):
        pref *= qpoch_infinite(q * a[i] / aM1, ctx)
    if k == 1:
        for i in range(M):
            pref /= qpoch_infinite(qlp2 * a[i] / aM1, ctx)
        for j in range(M + 1):
            pref *= qpoch_infinite(qlp2 * b[j] / aM1, ctx)
            pref /= qpoch_infinite(q * b[j] / aM1, ctx)
        mu = tuple(qlp1 * ai / aM1 for ai in a[:M])
        spec = ShellSpec(
            Factor(w=q / aM1, e=1, a=(qlp1,) + mu, b=tuple(qlp2 * bj / aM1 for bj in b)),
            dirs=dirs(M + 1, [ai / qbeta for ai in a[:M]], 1),
            y=tuple(a[:M]),
            mu=mu,
        )
    elif k == 2:
        w = 1.0 / qbeta
        if abs(w) >= 1:
            raise DomainError(f"family 2 needs |q^-beta| < 1, got {abs(w)}")
        for j in range(M + 1):
            pref /= qpoch_infinite(q * b[j] / aM1, ctx)
        spec = ShellSpec(Factor(w=w), dirs=dirs(M + 1, [1.0] * M), y=tuple(a[:M]))
    elif k == 3:
        bM1 = b[M]
        pref *= qpoch_infinite(qlp2 * bM1 / aM1, ctx) / qpoch_infinite(qlp1, ctx)
        for j in range(M + 1):
            pref /= qpoch_infinite(q * b[j] / aM1, ctx)
        spec = ShellSpec(
            Factor(w=1.0 / bM1, a=(q * bM1 / aM1,), b=(qlp2 * bM1 / aM1,)),
            dirs=dirs(M, [-ai / qbeta for ai in a[:M]], 1),  # b_{M+1} excluded
            y=tuple(a[:M]),
        )
    else:
        raise DomainError(f"unknown degenerate solution family {k}")
    res = sum_shells(spec, M, ctx)
    return SeriesResult(pref * res.value, res.shells_used, res.converged, res.last_shell_magnitude)
