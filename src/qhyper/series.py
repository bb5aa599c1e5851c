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
gathered from the tables through cached composition arrays (sliced, at
M = 1).  The first block holds at least _BLOCK_MIN_TERMS = 128 terms, so most
short sums take one block and one table extension.

No value depends on how the shells are cut into blocks.  The tables equal,
bit for bit, tables grown in one extension (see _Tables), and the products
that make the terms are taken out of place: numpy rounds an in-place complex
product of one-element arrays otherwise than the same product inside a
longer array, so the term of a one-term block would differ.

Shell sums stop by qcore's stall rule, applied a block of shells at a time
(qcore._stall_block), so a sum stops exactly where a loop over single shells
would.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NoConvergence, NonFinite, TermEvaluationError
from .qcore import QContext, principal_power, q_exponent, qpoch_ratio
# private, so that per-layer tracing (which wraps the public names one module
# imports from another) counts the stall rule and lattice test as this layer's work
from .qcore import _SNAP, _lattice_index, _stall_block

# A block of shells holds at least this many terms; the target doubles from
# block to block up to the maximum, so short sums take one block and deep sums
# run in large blocks.
_BLOCK_MIN_TERMS = 128
_BLOCK_MAX_TERMS = 4096
# The shortest table extension: see _Tables.
_MIN_STEPS = 3


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

    The values do not depend on how the tables are extended: grown in steps
    of any sizes they equal, bit for bit, tables grown in one extension.
    Every value of a row comes from one running product (a cumprod along the
    row): a later extension starts its grid at the last value kept and drops
    that column from the products, because the next start taken as a
    separate elementwise product can round otherwise.  No extension is
    shorter than _MIN_STEPS, because a complex cumprod over an axis of width
    2 can round differently from a longer one.
    """

    __slots__ = ("vals", "n", "bad", "_caps", "_row", "_ratio", "_poch", "_segs")

    def __init__(self, factors, q):
        q = complex(q)
        row, ratio, poch, segs = [], [], [], []
        for f in factors:
            # numerator: w^n, q^(e n), then 1 - a_k q^n; denominator: a row of
            # ones, then 1 - b_k q^n
            lead, step = ([f.w, 1.0], [1.0, q ** f.e]) if f.e else ([f.w], [1.0])
            segs += (len(row), len(row) + len(lead) + len(f.a))
            row += lead + [*f.a, 1.0, *f.b]
            ratio += step + [q] * len(f.a) + [1.0] + [q] * len(f.b)
            poch += [False] * len(lead) + [True] * len(f.a) + [False] + [True] * len(f.b)
        self._row = np.array(row, complex)  # each row's start, then its last value
        self._ratio = np.array(ratio, complex)[:, None]
        self._poch = np.array(poch)[:, None]  # rows that enter as 1 - a q^n
        self._segs = np.array(segs, np.intp)
        self._caps = {i: f.cap for i, f in enumerate(factors) if f.cap is not None}
        self.vals = np.ones((len(factors), 1), complex)
        self.n = 1
        self.bad = [math.inf] * len(factors)

    def upto(self, n):
        """The tables, valid at least at indices 0..n-1."""
        if n > self.n:
            self._extend(max(n, self.n + _MIN_STEPS))
        return self.vals

    def _extend(self, n):
        lo, count = self.n, n - self.n  # steps lo-1 .. n-2 give vals[:, lo:n]
        if n > self.vals.shape[1]:
            grown = np.empty((len(self.vals), max(n, 2 * self.vals.shape[1])), complex)
            grown[:, :lo] = self.vals[:, :lo]
            self.vals = grown
        carry = int(lo > 1)  # a later grid starts at the last step kept
        grid = np.empty((len(self._row), carry + count), complex)
        grid[:, 0] = self._row
        grid[:, 1:] = self._ratio
        np.multiply.accumulate(grid, axis=1, out=grid)
        self._row = grid[:, -1].copy()
        np.subtract(1.0, grid, out=grid, where=self._poch)
        prods = np.multiply.reduceat(grid, self._segs, axis=0)[:, carry:]
        den = prods[1::2]
        if not den.all():
            for f, j in zip(*np.nonzero(den == 0)):
                cap = self._caps.get(int(f))
                if cap is None or lo + j <= cap:
                    self.bad[f] = min(self.bad[f], lo + int(j))
        steps = np.empty((len(self.vals), count + 1), complex)
        steps[:, 0] = self.vals[:, lo - 1]
        np.divide(prods[0::2], den, out=steps[:, 1:])
        np.multiply.accumulate(steps, axis=1, out=steps)
        self.vals[:, lo:n] = steps[:, 1:]
        for f, cap in self._caps.items():
            if cap + 1 < n:
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
    """Smallest n in [0, nmax] (default ctx.series_shell_cap) with a = q^{-n}
    by qcore's lattice test within the kernel's exact-zero snap _SNAP, or None."""
    return _lattice_index(a, ctx, 0, ctx.series_shell_cap if nmax is None else nmax, _SNAP)


def sum_shells(term, M: int, ctx: QContext, shell_cap=None, exact=False) -> SeriesResult:
    """Sum term(l) over l in Z_{>=0}^M by shells of constant |l|.

    term is a ShellSpec or a callable taking the tuple l.  Each shell sum is
    one term of qcore's stall rule, read a block at a time (a spec's blocks,
    or one shell per block for a callable); the sum stops there or at the
    cap.  With exact=True the cap is a known terminating degree and the
    truncated sum is the exact value.  No block is pulled past the stop or
    the cap, so shells ahead of them never raise.
    """
    if M < 1:
        raise DomainError(f"a shell sum needs M >= 1 summation indices, got M = {M}")
    cap = ctx.series_shell_cap if shell_cap is None else shell_cap
    if isinstance(term, ShellSpec):
        blocks = _spec_shells(term, M, ctx.q, cap)
    else:
        blocks = _callable_shells(term, M)
    partial, stall, last_mag, used = 0.0 + 0.0j, 0, 0.0, 0
    while used <= cap and stall < ctx.stall_window:
        n, partial, last_mag, stall = _stall_block(next(blocks), partial, stall, ctx, "shell {}",
                                                  used)
        used += n
    return SeriesResult(partial, used, exact or stall >= ctx.stall_window, last_mag)


def _callable_shells(term, M):
    """Shell sums of a callable term(l), one shell per block."""
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
        yield np.array([shell])
        s += 1


@functools.lru_cache(maxsize=256)
def _block_index(M, s0, s1):
    """Index arrays of the terms of shells s0..s1-1 for M >= 2: one int16
    row with the shell of each term and one per column of l (the width
    _compositions stores l in), and where each shell starts."""
    blocks = [_compositions(M, s) for s in range(s0, s1)]
    sizes = [len(b) for b in blocks]
    rows = np.vstack((np.repeat(np.arange(s0, s1, dtype=np.int16), sizes),
                      np.concatenate(blocks).T))
    starts = np.cumsum([0] + sizes[:-1])
    rows.flags.writeable = starts.flags.writeable = False
    return rows, starts


def _spec_shells(spec: ShellSpec, M, q, cap):
    """Shell sums of a spec, one array per block of shells.

    A block whose shell k raises yields its shells before k, then raises when
    the next block is asked for.
    """
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
    off = spec.offset
    s0, target = 0, _BLOCK_MIN_TERMS
    while s0 <= cap:
        if M == 1:
            s1 = min(s0 + target, cap + 1)
        else:
            s1, count = s0, 0
            while count < target and s1 <= cap:
                count += math.comb(s1 + M - 1, M - 1)
                s1 += 1
            rows, starts = _block_index(M, s0, s1)
            S, *cols = rows.astype(np.intp)  # one cast, not one per gather
        with np.errstate(all="ignore"):
            vals = tables.upto(max(s1 + off, reach * s1))
            if M == 1:  # one term per shell: slices of the tables, no gathers or reduceat
                t = vals[0, s0 + off:s1 + off]
                if spec.dirs:
                    t = t * vals[1, s0:s1]
                if mu:
                    t = t * (1.0 - mu[0] * vals[-1, 2 * s0:2 * s1:2])
                sums = t * scale
            else:
                t = vals[0][S + off]
                for i in range(len(spec.dirs)):
                    t = t * vals[1 + i][cols[i]]
                if y:
                    Y = [y[i] * vals[-1][cols[i]] for i in range(M)]
                    for i in range(M):
                        for j in range(i + 1, M):
                            t = t * (Y[i] - Y[j])
                for i, m in enumerate(mu):
                    t = t * (1.0 - m * vals[-1][S + cols[i]])
                sums = np.add.reduceat(t, starts) * scale
        if zero_den or not np.isfinite(sums).all():
            if M == 1:
                cols, starts = (np.arange(s0, s1),), np.arange(s1 - s0)
            k, err = _first_error(sums, t, cols, starts, s0 + off, tables.bad, zero_den)
            if err is not None:
                if k:
                    yield sums[:k]
                raise err
        yield sums
        s0 = s1
        target = min(2 * target, _BLOCK_MAX_TERMS)


def _first_error(sums, terms, cols, starts, shell0, bad, zero_den):
    """(k, error) for the first shell k of a block that raises, or (None,
    None).  A shell raises for its first non-finite term, or for any term
    when the normalization divides by zero; a shell whose terms are finite
    but whose sum overflowed does not (the partial-sum check of sum_shells
    raises for it).

    shell0 is the shell factor's index at the block's first shell, cols are
    the columns of l over the block's terms, and bad holds the first index at
    which each table divided by zero: the shell factor's, then one per
    direction (a trailing q^n table never does).
    """
    for k in [0] if zero_den else np.flatnonzero(~np.isfinite(sums)).tolist():
        hi = starts[k + 1] if k + 1 < len(starts) else len(terms)
        nonfinite = np.flatnonzero(~np.isfinite(terms[starts[k]:hi]))
        if not len(nonfinite) and not zero_den:
            continue
        first = starts[k] + (nonfinite[0] if len(nonfinite) else 0)
        l = tuple(int(c[first]) for c in cols)
        if zero_den or any(b <= n for b, n in zip(bad, (shell0 + k,) + l)):
            return k, TermEvaluationError(f"term failed at l={l}: zero denominator")
        return k, NonFinite(f"non-finite term at l={l}")
    return None, None


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
        if 0 in upper + lower:
            raise DomainError("bilateral_psi's negative side needs every parameter nonzero")
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


def wm2_params(a, b, ctx: QContext) -> KajiharaParams:
    """Theorem 3.1's data map: the arguments of W^{M,2} in the balanced data
    a_1..a_{M+3}, b_1..b_{M+3},

        x = (a_1, .., a_M),  a = q b_{M+3}/(a_{M+2} a_{M+3}),
        u = (1/b_1, .., 1/b_{M+2}),  v = (q b_{M+3}/a_{M+2}, q b_{M+3}/a_{M+3}),
        z = a_{M+1}/b_{M+3}.
    """
    M = len(a) - 3
    q = ctx.q
    aM2, aM3, bM3 = a[M + 1], a[M + 2], b[M + 2]
    return KajiharaParams(
        x=tuple(a[:M]),
        a=q * bM3 / (aM2 * aM3),
        u=tuple(1.0 / bj for bj in b[: M + 2]),
        v=(q * bM3 / aM2, q * bM3 / aM3),
        z=a[M] / bM3,
    )


def W_normalized(bp, ctx: QContext) -> SeriesResult:
    """Symmetrized W[{a}; {b}]: prefactor times W^{M,2} in the balanced data.

    Symmetric in a_1..a_{M+1} and in b_1..b_{M+3}; equals the normalized
    Jackson integral of prod (a_k t)_inf/(b_k t)_inf between q/a_{M+2} and
    q/a_{M+3}.
    """
    M = bp.M
    if len(bp.b) != len(bp.a) or M < 1:
        raise DomainError(f"W_normalized needs len(a) == len(b) >= 4, got {len(bp.a)} a's "
                          f"and {len(bp.b)} b's")
    a = [complex(t) for t in bp.a]
    b = [complex(t) for t in bp.b]
    q = ctx.q
    aM2, aM3, bM3 = a[M + 1], a[M + 2], b[M + 2]
    kp = wm2_params(a, b, ctx)
    if abs(kp.z) >= 1:
        raise DomainError(f"W_normalized needs |a_(M+1)/b_(M+3)| < 1, got {abs(kp.z)}")
    if aM3 == aM2:
        raise DomainError("W_normalized needs a_(M+2) != a_(M+3)")
    inner = kajihara_W(kp, ctx)
    num = [q * ai / aM2 for ai in a[:M]] + [q * ai / aM3 for ai in a[:M]]
    num += [q * q * bj * bM3 / (aM2 * aM3) for bj in b[: M + 2]]
    num += [kp.z, aM2 / aM3, aM3 / aM2]
    den = [q * q * ai * bM3 / (aM2 * aM3) for ai in a[:M]]
    den += [q * bj / aM2 for bj in b] + [q * bj / aM3 for bj in b]
    pref = qpoch_ratio(num, den, ctx) / (aM3 - aM2)
    return replace(inner, value=pref * inner.value)


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
    num, den = ys, xs  # prod (y_i)_inf / (x_i)_inf, and more for family 1
    if k == 1:
        num, den = num + [A * xi for xi in xs], den + [A * yi for yi in ys]
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
        spec = ShellSpec(Factor(w=w), dirs=dirs([1.0] * M, 0, ayc), y=tuple(ys))
    elif k == 3:
        spec = ShellSpec(Factor(w=-A / Bprod, a=(C / A,), b=(C,)), dirs=dirs(ys, 1), y=tuple(ys))
    else:
        raise DomainError(f"unknown qAL solution family {k}")
    pref = qpoch_ratio(num, den, ctx)
    res = sum_shells(spec, M, ctx)
    return replace(res, value=pref * res.value)


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
        aM1_power = principal_power(aM1, -q_exponent(qlp1, ctx))

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

    # prod (q a_i/a_{M+1})_inf / prod_j (q b_j/a_{M+1})_inf, and more for
    # families 1 and 3
    num = [q * a[i] / aM1 for i in range(M)]
    den = [q * bj / aM1 for bj in b]
    if k == 1:
        num += [qlp2 * bj / aM1 for bj in b]
        den += [qlp2 * a[i] / aM1 for i in range(M)]
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
        spec = ShellSpec(Factor(w=w), dirs=dirs(M + 1, [1.0] * M), y=tuple(a[:M]))
    elif k == 3:
        bM1 = b[M]
        num.append(qlp2 * bM1 / aM1)
        den.append(qlp1)
        spec = ShellSpec(
            Factor(w=1.0 / bM1, a=(q * bM1 / aM1,), b=(qlp2 * bM1 / aM1,)),
            dirs=dirs(M, [-ai / qbeta for ai in a[:M]], 1),  # b_{M+1} excluded
            y=tuple(a[:M]),
        )
    else:
        raise DomainError(f"unknown degenerate solution family {k}")
    pref = aM1_power * qpoch_ratio(num, den, ctx)
    res = sum_shells(spec, M, ctx)
    return replace(res, value=pref * res.value)
