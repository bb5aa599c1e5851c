"""Catalog of machine-checkable identities.

Every identity the library claims is one row of the table in ``_CATALOG``:
an IdentityCase holding its id, kind, M range, tolerance, a seeded proposal
``propose(rng, M, ctx)``, an admissibility predicate
``admissible(params, ctx)``, two evaluators and a one-line note.

- An equality or a limit is evaluated by ``lhs(params, ctx)`` and
  ``rhs(params, ctx)``.  ``rhs`` returns one value or a tuple of values, each
  of which must equal lhs; check() compares them value by value and reports
  the worst, the first with the largest rel_error.
- A residual case is evaluated by ``operator(params, ctx)``, a list of
  difference operators, and ``function(params, ctx)``, the lattice functions
  they must annihilate; the worst relative residual is reported.
- Two cases keep their own ``evaluate(params, ctx) -> (lhs, rhs, error)``:
  ``qrp.independence``, a rank test with no two sides, and ``phi.cocycle``,
  whose error is scaled by the largest of its three integrals.

check() runs one (case, seed, M) triple and returns a CheckReport;
run_suite() sweeps a Cartesian grid deterministically, so a rerun with the
same arguments reproduces the same reports bit for bit.

Tolerance tiers: 1e-12 terminating sums, 1e-8 convergent series/integrals,
1e-6 operator residuals, 1e-4 limits (1e-3 for the large-parameter
degenerations, which are checked at a single finite lattice point).
"""

import cmath
import itertools
import math
import random
import time
from dataclasses import dataclass, field, replace

try:
    # CPython's own SHA-256, as the random module does for SHA-512: hashlib
    # would map OpenSSL (about 3.5 MB resident) for one digest per draw
    from _sha256 import sha256
except ImportError:  # renamed _sha2 in Python 3.12
    from hashlib import sha256

from .errors import NonFinite, QHyperError, SamplerExhausted
from .qcore import QContext, qpoch_finite, qpoch_infinite, qpoch_ratio, theta
from .jackson import (
    BalancedParams,
    JPParams,
    degene_integral,
    jackson_between,
    jackson_bilateral,
    jp_integral,
    principal_power,
    rp_integral,
    rp_integrand,
)
from .operators import (
    LatticeFunction,
    build_EM,
    build_EM_hat,
    build_degene_system,
    build_qal_system,
    build_scaling_relation,
    build_three_term,
    independence_check,
    op_apply,
    point_at,
    residual,
)
from .series import (
    Factor,
    KajiharaParams,
    QALParams,
    ShellSpec,
    W_normalized,
    _delta,
    bilateral_psi,
    degene_solution,
    kajihara_W,
    phi_D,
    qal_solution,
    rphis,
    sum_shells,
    vwp_W,
)

DEFAULT_Q = 0.5 + 0.0j


def default_context():
    return QContext(q=DEFAULT_Q)


# --------------------------------------------------------------- plumbing


def _rng_for(case_id, seed, M):
    digest = sha256(f"{case_id}:{seed}:{M}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _unit(rng, lo=0.3, hi=0.85):
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi))


def _clear(val, ctx, lo=-8, hi=12, margin=0.035):
    """True when val stays away from every q^{-m}, m in [lo, hi].

    Division by (val; q)_l or (val; q)_inf is then well conditioned, and the
    clearance survives the q-shifts a difference operator applies.
    """
    v = complex(val)
    qm = ctx.q ** lo
    for _ in range(lo, hi + 1):
        if abs(v * qm - 1.0) < margin:
            return False
        qm *= ctx.q
    return True


def _all_clear(vals, ctx, **kw):
    return all(_clear(v, ctx, **kw) for v in vals)


def _pairs_clear(xs, ctx, margin=0.035):
    """x_i/x_j clear of the q-lattice for every i < j.

    Only that orientation is tested: the window of _clear is asymmetric, so
    x_j/x_i would be a different test.
    """
    return all(_clear(u / v, ctx, margin=margin) for u, v in itertools.combinations(xs, 2))


def _ratios(xs):
    """x_i/x_j over the ordered pairs i != j."""
    return [u / v for u, v in itertools.permutations(xs, 2)]


def _in_band(v):
    """The modulus window 0.1 < |v| < 3 of a solved balanced parameter."""
    return 0.1 < abs(v) < 3.0


def rel_error(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)


def perturb_params(params, factor=1.01):
    """Scale the first complex entry (in sorted key order) by `factor`.

    Used by the negative-control tests: re-evaluating one side of an identity
    on the perturbed point must leave a visible discrepancy.
    """
    out = dict(params)
    for k in sorted(out):
        v = out[k]
        if isinstance(v, complex):
            out[k] = v * factor
            return out
        if isinstance(v, tuple) and v and isinstance(v[0], complex):
            out[k] = (v[0] * factor,) + v[1:]
            return out
    raise ValueError("no complex parameter to perturb")


@dataclass(frozen=True)
class IdentityCase:
    id: str
    kind: str  # equality | residual | limit | independence
    M_range: tuple
    tolerance: float
    propose: object  # propose(rng, M, ctx) -> params dict or None
    admissible: object  # admissible(params, ctx) -> bool
    lhs: object = None  # lhs(params, ctx) -> complex
    rhs: object = None  # rhs(params, ctx) -> complex, or a tuple of values each equal to lhs
    note: str = ""
    operator: object = None  # operator(params, ctx) -> [ShiftOperator]
    function: object = None  # function(params, ctx) -> [LatticeFunction]
    evaluate: object = None  # evaluate(params, ctx) -> (lhs, rhs, rel)

    def draw(self, rng, M, ctx):
        for _ in range(1000):
            p = self.propose(rng, M, ctx)
            if p is not None and self.admissible(p, ctx):
                return p
        raise SamplerExhausted(f"{self.id}: no admissible draw in 1000 attempts")

    def sampler(self, seed, M, ctx=None):
        ctx = ctx or default_context()
        return self.draw(_rng_for(self.id, seed, M), M, ctx)


@dataclass
class CheckReport:
    id: str
    seed: int
    M: int
    q: complex
    params: dict = field(default_factory=dict)
    lhs: complex = None
    rhs: complex = None
    residual: float = None
    rel_error: float = math.inf
    passed: bool = False
    reason: str = None
    wall_time: float = 0.0

    def to_dict(self):
        d = {
            "id": self.id,
            "seed": self.seed,
            "M": self.M,
            "q": [self.q.real, self.q.imag],
            "rel_error": self.rel_error if math.isfinite(self.rel_error) else None,
            "pass": self.passed,
        }
        if self.reason is not None:
            d["reason"] = self.reason
        return d


# ------------------------------------------------------- balanced parameters


def _balanced(rng, M, ctx, lo=0.3, hi=0.85):
    """a_1..a_{M+3} (the first M+1 with |a_i| in [lo, hi]) and b_1..b_{M+2},
    with b_{M+3} solved from the balance prod(a) = q^2 prod(b)."""
    a = [_unit(rng, lo, hi) for _ in range(M + 1)] + [_unit(rng), _unit(rng)]
    b = [_unit(rng) for _ in range(M + 2)]
    return tuple(a), tuple(b) + (math.prod(a) / (ctx.q ** 2 * math.prod(b)),)


def _balanced_propose(rng, M, ctx):
    a, b = _balanced(rng, M, ctx)
    return {"a": a, "b": b}


def sample_balanced(seed, M, ctx=None, zmax=0.75):
    """Draw a_1..a_{M+3}, b_1..b_{M+2} and solve the balance for b_{M+3}."""
    ctx = ctx or default_context()
    rng = _rng_for("sample_balanced", seed, M)
    for _ in range(1000):
        a, b = _balanced(rng, M, ctx)
        # distinct a's: the anchors q/a_i must be separated and the series
        # denominators (q a_i/a_j)_l must stay clear of zero
        if _in_band(b[-1]) and abs(a[M] / b[-1]) <= zmax and _pairs_clear(a, ctx):
            return BalancedParams(a=a, b=b)
    raise SamplerExhausted("no balanced draw in 1000 attempts")


def _bp_guard_integral(bp, ctx, anchors):
    # poles of the integrand on the anchored lattices: (b_k t) must never hit
    # q^{-m} at t = q^{1+n}/a_i (shifted relations move n by +-1 as well)
    return _all_clear([bk / bp.a[i - 1] for i in anchors for bk in bp.b], ctx)


def _wnorm_atoms(a, b, ctx):
    """Arguments that the normalized W in the balanced data (a; b) divides
    by, each of which must stay off the q-lattice."""
    M = len(a) - 3
    alpha = ctx.q * b[M + 2] / (a[M + 1] * a[M + 2])
    atoms = [alpha * ai for ai in a[:M]] + [alpha * bj * ctx.q for bj in b]
    for den in a[M + 1:]:
        atoms += [v / den for v in a[:M] + b]
    return atoms


def _wnorm_guard(a, b, ctx, zmax=0.7):
    """Evaluability of the normalized W in the balanced data (a; b)."""
    M = len(a) - 3
    return (
        abs(a[M] / b[M + 2]) <= zmax
        and _all_clear(_wnorm_atoms(a, b, ctx), ctx)
        and _clear(a[M + 1] / a[M + 2], ctx, margin=0.08)
    )


def _wnorm_admissible(p, ctx, zmax=0.7):
    a, b = p["a"], p["b"]
    return _in_band(b[-1]) and _pairs_clear(a, ctx) and _wnorm_guard(a, b, ctx, zmax)


def _wnorm(a, b, ctx):
    return W_normalized(BalancedParams(a=a, b=b), ctx).require()


def _ab_lattice(a, b, ctx, fn):
    """fn(a', b', off) as a memoized function on the lattice of a_1.., b_1..,
    where a', b' are a, b shifted by the offsets off."""
    an = [f"a{n}" for n in range(1, len(a) + 1)]
    bn = [f"b{n}" for n in range(1, len(b) + 1)]
    base = {"q": ctx.q, **dict(zip(an, a)), **dict(zip(bn, b))}

    def ev(off):
        pt = point_at(base, off)
        return fn([pt[n] for n in an], [pt[n] for n in bn], off)

    return LatticeFunction.cached(base, ev)


def _phi_lattice(bp, i, j, ctx):
    """phi_{i,j} = int_{q/a_i}^{q/a_j} as a function on the parameter lattice."""
    return _ab_lattice(bp.a, bp.b, ctx, lambda a, b, off: rp_integral(
        BalancedParams(a=tuple(a), b=tuple(b)), i, j, ctx))


# ---------------------------------------------------------------- sections
# very-well-poised 8W7: integral form and the two-4phi3 expansion


def _bailey_propose(rng, M, ctx):
    a = _unit(rng, 0.4, 0.9)
    b = _unit(rng, 0.4, 0.9)
    c = _unit(rng, 0.3, 0.8)
    e, f, g, h = (_unit(rng, 0.35, 0.8) for _ in range(4))
    d = a * b * e * f * g * h / c
    return {"a": a, "b": b, "c": c, "d": d, "e": e, "f": f, "g": g, "h": h}


def _bailey_admissible(p, ctx):
    a, b, c, d, e, f, g, h = (p[k] for k in "abcdefgh")
    q = ctx.q
    if abs(a * h) > 0.8 or abs(d) > 2.5:
        return False
    if abs(a / b - 1) < 0.1:
        return False
    a1 = b * c * d / (h * q)
    atoms = [a1, b * c * d / h]
    atoms += [a1 * q / v for v in (b * e, b * f, b * g, c / h, d / h)]
    return _all_clear(atoms, ctx)


def _bailey_lhs(p, ctx):
    a, b, c, d, e, f, g, h = (p[k] for k in "abcdefgh")
    q = ctx.q
    # balanced: (q/a)(q/b) c d = q^2 e f g h
    integrand = rp_integrand(BalancedParams(a=(q / a, q / b, c, d), b=(e, f, g, h)), ctx)
    return jackson_between(a, b, integrand, ctx)


def _bailey_rhs(p, ctx):
    a, b, c, d, e, f, g, h = (p[k] for k in "abcdefgh")
    q = ctx.q
    pref = (
        b
        * (1 - q)
        * qpoch_ratio(
            [q, b * q / a, a / b, c * d / (e * h), c * d / (f * h), c * d / (g * h), b * c, b * d],
            [a * e, a * f, a * g, b * e, b * f, b * g, b * h, b * c * d / h],
            ctx,
        )
    )
    w = vwp_W(b * c * d / (h * q), [b * e, b * f, b * g, c / h, d / h], a * h, ctx)
    return pref * w.require()


def _two43_propose(rng, M, ctx):
    q = ctx.q
    b, c, d, e, f = (_unit(rng, 0.35, 0.9) for _ in range(5))
    z = _unit(rng, 0.25, 0.7)
    a = cmath.sqrt(z * b * c * d * e * f) / q
    return {"a": a, "b": b, "c": c, "d": d, "e": e, "f": f}


def _two43_admissible(p, ctx):
    a, b, c, d, e, f = (p[k] for k in "abcdef")
    q = ctx.q
    z = a * a * q * q / (b * c * d * e * f)
    if abs(z) > 0.8 or not (0.05 < abs(a) < 5):
        return False
    atoms = [a, z]
    atoms += [a * q / v for v in (b, c, d, e, f)]
    atoms += [d * e * f / a, d * e * f / (a * q), a * q * q / (d * e * f)]
    atoms += [a * a * q * q / (b * d * e * f), a * a * q * q / (c * d * e * f)]
    return _all_clear(atoms, ctx)


def _two43_lhs(p, ctx):
    a, b, c, d, e, f = (p[k] for k in "abcdef")
    q = ctx.q
    z = a * a * q * q / (b * c * d * e * f)
    return vwp_W(a, [b, c, d, e, f], z, ctx).require()


def _two43_rhs(p, ctx):
    a, b, c, d, e, f = (p[k] for k in "abcdef")
    q = ctx.q
    z = a * a * q * q / (b * c * d * e * f)
    t1 = qpoch_ratio(
        [a * q, a * q / (d * e), a * q / (d * f), a * q / (e * f)],
        [a * q / d, a * q / e, a * q / f, a * q / (d * e * f)],
        ctx,
    ) * rphis([a * q / (b * c), d, e, f], [a * q / b, a * q / c, d * e * f / a], q, ctx).require()
    t2 = qpoch_ratio(
        [a * q, a * q / (b * c), d, e, f,
         a * a * q * q / (b * d * e * f), a * a * q * q / (c * d * e * f)],
        [a * q / b, a * q / c, a * q / d, a * q / e, a * q / f, z, d * e * f / (a * q)],
        ctx,
    ) * rphis(
        [a * q / (d * e), a * q / (d * f), a * q / (e * f), z],
        [a * a * q * q / (b * d * e * f), a * a * q * q / (c * d * e * f), a * q * q / (d * e * f)],
        q,
        ctx,
    ).require()
    return t1 + t2


# ------------------------------------------------------- duality transforms


def _kaji_cancel(kp, n, ctx):
    """Cancellation ratio sum|t| / |sum t| of a terminating duality-type sum.

    The terminating tolerance is machine-precision-tight, so draws whose
    alternating terms nearly cancel must be rejected by the samplers.
    """
    M = len(kp.x)
    total = 0.0 + 0.0j
    abs_total = 0.0
    for l in itertools.product(range(n + 1), repeat=M):
        s = sum(l)
        if s > n:
            continue
        t = kp.z ** s
        if M > 1:
            t *= _delta([kp.x[i] * ctx.q ** l[i] for i in range(M)]) / _delta(list(kp.x))
        for i in range(M):
            li = l[i]
            xi = kp.x[i]
            t *= (1 - kp.a * xi * ctx.q ** (s + li)) / (1 - kp.a * xi)
            t *= qpoch_finite(kp.a * xi, s, ctx)
            for u in kp.u:
                t *= qpoch_finite(xi * u, li, ctx)
            for xj in kp.x:
                t /= qpoch_finite(ctx.q * xi / xj, li, ctx)
            for vk in kp.v:
                t /= qpoch_finite(kp.a * ctx.q * xi / vk, li, ctx)
        for vk in kp.v:
            t *= qpoch_finite(vk, s, ctx)
        for u in kp.u:
            t /= qpoch_finite(kp.a * ctx.q / u, s, ctx)
        total += t
        abs_total += abs(t)
    return abs_total / max(abs(total), 1e-300)


def _vwp_cancel(a, bs, z, n, ctx):
    total = 0.0 + 0.0j
    abs_total = 0.0
    for k in range(n + 1):
        t = (1 - a * ctx.q ** (2 * k)) / (1 - a) * z ** k
        t *= qpoch_finite(a, k, ctx) / qpoch_finite(ctx.q, k, ctx)
        for b in bs:
            t *= qpoch_finite(b, k, ctx) / qpoch_finite(a * ctx.q / b, k, ctx)
        total += t
        abs_total += abs(t)
    return abs_total / max(abs(total), 1e-300)


def _kajitrans_propose(rng, M, ctx):
    q = ctx.q
    N = rng.randint(1, 2)
    n = rng.randint(0, 3)
    xs = tuple(_unit(rng) for _ in range(M))
    ys = tuple(_unit(rng) for _ in range(N))
    bs = tuple(_unit(rng) for _ in range(M + N + 2))
    a = _unit(rng)
    c = _unit(rng)
    mu = a ** (N + 2) * q ** (N + 1) * math.prod(ys) / (
        c ** (N + 1) * math.prod(bs) * math.prod(xs))
    return {"x": xs, "y": ys, "b": bs, "a": a, "c": c, "mu": mu, "n": n, "N": N}


def _kajitrans_sides(p, ctx):
    """The KajiharaParams of the M-fold and of the N-fold side."""
    q = ctx.q
    xs, ys, bs, a, c, mu, n = p["x"], p["y"], p["b"], p["a"], p["c"], p["mu"], p["n"]
    tail = (mu * c * q ** n, q ** float(-n))
    return (
        KajiharaParams(x=xs, a=a, u=bs, v=tuple(c / yk for yk in ys) + tail, z=q),
        KajiharaParams(
            x=ys,
            a=mu,
            u=tuple(a * q / (c * bj) for bj in bs),
            v=tuple(mu * c / (a * xi) for xi in xs) + tail,
            z=q,
        ),
    )


def _kajitrans_admissible(p, ctx):
    q = ctx.q
    xs, ys, bs, a, c, mu, n = p["x"], p["y"], p["b"], p["a"], p["c"], p["mu"], p["n"]
    if not (0.02 < abs(mu) < 50):
        return False
    atoms = [a * xi for xi in xs] + [mu * yk for yk in ys] + _ratios(xs) + _ratios(ys)
    for xi in xs:
        atoms += [a * q * xi * yk / c for yk in ys]
        atoms += [a * q * xi / (mu * c * q ** n), mu * c / (a * xi)]
    for bj in bs:
        atoms += [a * q / bj, mu * c * bj / a]
    for yk in ys:
        atoms += [mu * q * yk, q ** (1 - n) * yk / c, mu * q * yk * q ** n]
    return _all_clear(atoms, ctx) and all(
        _kaji_cancel(kp, n, ctx) < 150 for kp in _kajitrans_sides(p, ctx))


def _kajitrans_lhs(p, ctx):
    return kajihara_W(_kajitrans_sides(p, ctx)[0], ctx).require()


def _kajitrans_rhs(p, ctx):
    q = ctx.q
    xs, ys, bs, a, c, mu, n = p["x"], p["y"], p["b"], p["a"], p["c"], p["mu"], p["n"]
    pref = 1.0 + 0.0j
    for xi in xs:
        pref *= qpoch_finite(a * q * xi, n, ctx) / qpoch_finite(mu * c / (a * xi), n, ctx)
    for bj in bs:
        pref *= qpoch_finite(mu * c * bj / a, n, ctx) / qpoch_finite(a * q / bj, n, ctx)
    for yk in ys:
        pref *= qpoch_finite(c / yk, n, ctx) / qpoch_finite(mu * q * yk, n, ctx)
    return pref * kajihara_W(_kajitrans_sides(p, ctx)[1], ctx).require()


def _wm3_propose(rng, M, ctx):
    q = ctx.q
    k = rng.randint(1, 2)
    xs = tuple(_unit(rng) for _ in range(M))
    bs = tuple(_unit(rng) for _ in range(M + 3))
    a = _unit(rng)
    c = _unit(rng)
    mu = a ** 3 * q ** 2 / (c ** 2 * math.prod(bs) * math.prod(xs))
    return {"x": xs, "b": bs, "a": a, "c": c, "mu": mu, "k": k}


def _wm3_sides(p, ctx):
    """The W^{M,3} data of the lhs and the very-well-poised parameters of the rhs."""
    q = ctx.q
    xs, bs, a, c, mu, k = p["x"], p["b"], p["a"], p["c"], p["mu"], p["k"]
    kp = KajiharaParams(x=xs, a=a, u=bs, v=(c, mu * c * q ** k, q ** float(-k)), z=q)
    rest = (
        [mu * c / (a * xi) for xi in xs]
        + [a * q / (c * bj) for bj in bs]
        + [mu * c * q ** k, q ** float(-k)]
    )
    return kp, rest


def _wm3_admissible(p, ctx):
    q = ctx.q
    xs, bs, a, c, mu, k = p["x"], p["b"], p["a"], p["c"], p["mu"], p["k"]
    if not (0.02 < abs(mu) < 50):
        return False
    atoms = [mu] + [a * xi for xi in xs] + _ratios(xs)
    for xi in xs:
        atoms += [a * q * xi / c, a * q * xi / (mu * c * q ** k), mu * c / (a * xi)]
        atoms += [mu * q * a * xi / (mu * c)]  # = q a x_i / c, lower row of the W
    for bj in bs:
        atoms += [a * q / bj, mu * c * bj / a]
    atoms += [mu * q / (mu * c * q ** k), mu * q * q ** k]
    if not _all_clear(atoms, ctx):
        return False
    kp, rest = _wm3_sides(p, ctx)
    return _kaji_cancel(kp, k, ctx) < 150 and _vwp_cancel(mu, rest, q, k, ctx) < 150


def _wm3_lhs(p, ctx):
    return kajihara_W(_wm3_sides(p, ctx)[0], ctx).require()


def _wm3_rhs(p, ctx):
    q = ctx.q
    xs, bs, a, c, mu, k = p["x"], p["b"], p["a"], p["c"], p["mu"], p["k"]
    pref = qpoch_finite(c, k, ctx) / qpoch_finite(mu * q, k, ctx)
    for xi in xs:
        pref *= qpoch_finite(a * q * xi, k, ctx) / qpoch_finite(mu * c / (a * xi), k, ctx)
    for bj in bs:
        pref *= qpoch_finite(mu * c * bj / a, k, ctx) / qpoch_finite(a * q / bj, k, ctx)
    return pref * vwp_W(mu, _wm3_sides(p, ctx)[1], q, ctx).require()


# ------------------------------------------- W^{M,2} sum and integral forms


def _wm2_propose(rng, M, ctx, c_lo=0.35, c_hi=0.85, d_lo=0.2, d_hi=0.6):
    # |a| is solved so that the balanced b_1 keeps a moderate modulus no
    # matter how small the product of the other draws gets at larger M
    q = ctx.q
    xs = tuple(_unit(rng) for _ in range(M))
    c1 = _unit(rng, c_lo, c_hi)
    c2 = _unit(rng, c_lo, c_hi)
    brest = [_unit(rng) for _ in range(M + 1)]
    d = _unit(rng, d_lo, d_hi)
    denom = c1 * c2 * d * math.prod(brest) * math.prod(xs)
    amod = math.sqrt(rng.uniform(0.3, 1.2) * abs(denom)) / abs(q)
    a = cmath.rect(amod, rng.uniform(0, 2 * math.pi))
    b1 = a * a * q * q / denom
    return {"x": xs, "a": a, "b": (b1,) + tuple(brest), "c1": c1, "c2": c2, "d": d}


def _wm2_base_ok(p, ctx):
    q = ctx.q
    xs, a, bs, c1, c2, d = p["x"], p["a"], p["b"], p["c1"], p["c2"], p["d"]
    if not (0.001 < abs(bs[0]) < 5.0):
        return False
    if abs(d) > 0.65:
        return False
    atoms = [d, c2 / c1] + [a * xi for xi in xs] + _ratios(xs)
    for xi in xs:
        atoms += [a * q * xi / c1, a * q * xi / c2]
    atoms += [a * q / bj for bj in bs]
    return _all_clear(atoms, ctx)


def _thm31s_admissible(p, ctx):
    if not _wm2_base_ok(p, ctx):
        return False
    q = ctx.q
    xs, a, bs, c1, c2, d = p["x"], p["a"], p["b"], p["c1"], p["c2"], p["d"]
    atoms = []
    for u, v in ((c1, c2), (c2, c1)):
        atoms += [q * u / v, u * d]
        atoms += [a * q * xi / v for xi in xs]
        atoms += [a * q / (u * bj) for bj in bs]
    return _all_clear(atoms, ctx)


def _wm2_lhs(p, ctx):
    xs, a, bs, c1, c2, d = p["x"], p["a"], p["b"], p["c1"], p["c2"], p["d"]
    return kajihara_W(KajiharaParams(x=xs, a=a, u=bs, v=(c1, c2), z=d), ctx).require()


def _thm31s_rhs(p, ctx):
    q = ctx.q
    xs, a, bs, c1, c2, d = p["x"], p["a"], p["b"], p["c1"], p["c2"], p["d"]

    def half(u, v):
        pref = qpoch_ratio([u * d, v], [d, v / u], ctx)
        for xi in xs:
            pref *= qpoch_infinite(a * q * xi, ctx) / qpoch_infinite(a * q * xi / u, ctx)
        for bj in bs:
            pref *= qpoch_infinite(a * q / (u * bj), ctx) / qpoch_infinite(a * q / bj, ctx)
        upper = [u] + [a * q / (v * bj) for bj in bs]
        lower = [q * u / v, u * d] + [a * q * xi / v for xi in xs]
        return pref * rphis(upper, lower, q, ctx).require()

    return half(c1, c2) + half(c2, c1)


def _thm31i_admissible(p, ctx):
    a, b = p["a"], p["b"]
    M = len(a) - 3
    if not _in_band(b[M + 2]) or abs(a[M] / b[M + 2]) > 0.65:
        return False
    atoms = _wnorm_atoms(a, b, ctx) + [a[M + 1] / a[M + 2]] + _ratios(a[:M])
    return _all_clear(atoms, ctx, margin=0.05)


def _thm31i_lhs(p, ctx):
    bp = BalancedParams(a=p["a"], b=p["b"])
    M = bp.M
    return rp_integral(bp, M + 2, M + 3, ctx)


def _thm31i_rhs(p, ctx):
    q = ctx.q
    a, b = p["a"], p["b"]
    M = len(a) - 3
    aM2, aM3, bM3 = a[M + 1], a[M + 2], b[M + 2]
    alpha = q * bM3 / (aM2 * aM3)
    pref = qpoch_ratio(
        [q, a[M] / bM3, aM2 / aM3, aM3 / aM2], [], ctx
    ) * (1 - q) * q / (aM3 - aM2)
    for i in range(M):
        pref *= qpoch_ratio([q * a[i] / aM2, q * a[i] / aM3], [q * alpha * a[i]], ctx)
    for j in range(M + 2):
        pref *= qpoch_infinite(q * alpha * b[j], ctx)
    for j in range(M + 3):
        pref /= qpoch_infinite(q * b[j] / aM2, ctx) * qpoch_infinite(q * b[j] / aM3, ctx)
    return pref * _wm2_integral_form(a[: M + 2], b[: M + 2], aM3, bM3, ctx)


def _wm2_integral_form(a, b, aM3, bM3, ctx):
    """W^{M,2} in the integral data a_1..a_{M+2}, a_{M+3}; b_1..b_{M+2}, b_{M+3}."""
    q = ctx.q
    M = len(a) - 2
    return kajihara_W(
        KajiharaParams(
            x=a[:M],
            a=q * bM3 / (a[M + 1] * aM3),
            u=tuple(1 / bj for bj in b),
            v=(q * bM3 / a[M + 1], q * bM3 / aM3),
            z=a[M] / bM3,
        ),
        ctx,
    ).require()


# ------------------------------------------ W^{M,2} symmetries (d balanced)


def _cor33a_admissible(p, ctx):
    if not _wm2_base_ok(p, ctx):
        return False
    q = ctx.q
    xs, a, c1, c2, d = p["x"], p["a"], p["c1"], p["c2"], p["d"]
    x1 = xs[0]
    z2 = a * q * x1 / (c1 * c2)
    if abs(z2) > 0.7:
        return False
    if abs(c1 * c2 * d / (a * q)) > 5.0:
        return False
    xnew = (c1 * c2 * d / (a * q),) + xs[1:]
    atoms = [c1 * c2 * d, c1 * d, c2 * d] + [a * xi for xi in xnew] + _ratios(xnew)
    for xi in xnew:
        atoms += [a * q * xi / c1, a * q * xi / c2]
    return _all_clear(atoms, ctx)


def _cor33a_rhs(p, ctx):
    q = ctx.q
    xs, a, bs, c1, c2, d = p["x"], p["a"], p["b"], p["c1"], p["c2"], p["d"]
    x1 = xs[0]
    pref = qpoch_ratio(
        [c1 * d, c2 * d, a * q * x1, a * q * x1 / (c1 * c2)],
        [d, c1 * c2 * d, a * q * x1 / c1, a * q * x1 / c2],
        ctx,
    )
    w = kajihara_W(
        KajiharaParams(
            x=(c1 * c2 * d / (a * q),) + xs[1:],
            a=a,
            u=bs,
            v=(c1, c2),
            z=a * q * x1 / (c1 * c2),
        ),
        ctx,
    ).require()
    return pref * w


def _cor33b_propose(rng, M, ctx):
    # the transformed argument c1 c2 b1 d/(aq) = aq/(prod(brest) prod(xs))
    # is independent of d and b1, so |a| is solved from a drawn target
    q = ctx.q
    xs = tuple(_unit(rng) for _ in range(M))
    c1 = _unit(rng, 0.35, 0.85)
    c2 = _unit(rng, 0.35, 0.85)
    brest = [_unit(rng) for _ in range(M + 1)]
    d = _unit(rng, 0.2, 0.6)
    z2 = _unit(rng, 0.2, 0.65)
    a = z2 * math.prod(brest) * math.prod(xs) / q
    b1 = a * a * q * q / (c1 * c2 * d * math.prod(brest) * math.prod(xs))
    return {"x": xs, "a": a, "b": (b1,) + tuple(brest), "c1": c1, "c2": c2, "d": d}


def _cor33b_admissible(p, ctx):
    if not _wm2_base_ok(p, ctx):
        return False
    q = ctx.q
    xs, a, bs, c1, c2, d = p["x"], p["a"], p["b"], p["c1"], p["c2"], p["d"]
    b1 = bs[0]
    z2 = c1 * c2 * b1 * d / (a * q)
    if abs(z2) > 0.7:
        return False
    anew = a * a * q / (c1 * c2 * b1)
    unew = (a * q / (c1 * c2),) + bs[1:]
    atoms = [anew * xi for xi in xs]
    for xi in xs:
        atoms += [anew * q * xi / (a * q / (c1 * b1)), anew * q * xi / (a * q / (c2 * b1))]
        atoms += [anew * q * xi]
    atoms += [anew * q / uj for uj in unew]
    return _all_clear(atoms, ctx)


def _cor33b_rhs(p, ctx):
    q = ctx.q
    xs, a, bs, c1, c2, d = p["x"], p["a"], p["b"], p["c1"], p["c2"], p["d"]
    b1 = bs[0]
    pref = qpoch_infinite(c1 * c2 * b1 * d / (a * q), ctx) / qpoch_infinite(d, ctx)
    for xi in xs:
        pref *= qpoch_infinite(a * q * xi, ctx) / qpoch_infinite(
            a * a * q * q * xi / (c1 * c2 * b1), ctx
        )
    for bj in bs[1:]:
        pref *= qpoch_infinite(a * a * q * q / (c1 * c2 * b1 * bj), ctx) / qpoch_infinite(
            a * q / bj, ctx
        )
    w = kajihara_W(
        KajiharaParams(
            x=xs,
            a=a * a * q / (c1 * c2 * b1),
            u=(a * q / (c1 * c2),) + bs[1:],
            v=(a * q / (c1 * b1), a * q / (c2 * b1)),
            z=c1 * c2 * b1 * d / (a * q),
        ),
        ctx,
    ).require()
    return pref * w


def _cor33t_propose(rng, M, ctx):
    c_lo = max(0.65, min(0.88, abs(ctx.q) / 0.78))
    return _wm2_propose(rng, M, ctx, c_lo=c_lo, c_hi=0.9, d_lo=0.25, d_hi=0.6)


def _cor33t_admissible(p, ctx):
    if not _wm2_base_ok(p, ctx):
        return False
    q = ctx.q
    xs, a, bs, c1, c2, d = p["x"], p["a"], p["b"], p["c1"], p["c2"], p["d"]
    if abs(c1 / c2 - 1) < 0.15 or abs(d / q - 1) < 0.15:
        return False
    if max(abs(q / c1), abs(q / c2)) > 0.8:
        return False
    atoms = [q / d]
    for u, v in ((c1, c2), (c2, c1)):
        anew = a * q / (u * d)
        atoms += [v * d]
        atoms += [anew * xi for xi in xs]
        for xi in xs:
            atoms += [a * q * xi / v, a * q * q * xi / (u * d), a * q * q * xi / (u * v * d)]
        for bj in bs:
            atoms += [a * q / (v * bj), a * q * q / (u * d * bj), a * q * q / (u * v * d * bj)]
    return _all_clear(atoms, ctx)


def _cor33t_rhs(p, ctx):
    q = ctx.q
    xs, a, bs, c1, c2, d = p["x"], p["a"], p["b"], p["c1"], p["c2"], p["d"]

    def half(u, v):
        pref = qpoch_ratio([u, q / u, v * d, q / (v * d)], [d, q / d, u / v, q * v / u], ctx)
        for xi in xs:
            pref *= qpoch_ratio(
                [a * q * xi, a * q * q * xi / (u * v * d)],
                [a * q * xi / v, a * q * q * xi / (u * d)],
                ctx,
            )
        for bj in bs:
            pref *= qpoch_ratio(
                [a * q / (v * bj), a * q * q / (u * d * bj)],
                [a * q / bj, a * q * q / (u * v * d * bj)],
                ctx,
            )
        w = kajihara_W(
            KajiharaParams(x=xs, a=a * q / (u * d), u=bs, v=(v, q / d), z=q / u), ctx
        ).require()
        return pref * w

    return half(c1, c2) + half(c2, c1)


# ------------------------------------------------ 8W7 two-term transformation


def _w87_propose(rng, M, ctx):
    q = ctx.q
    a = _unit(rng, 0.5, 0.9)
    e = _unit(rng, 0.5, 0.9)
    z2 = _unit(rng, 0.25, 0.75)
    f = a * q / (e * z2)
    b, c = _unit(rng, 0.4, 0.9), _unit(rng, 0.4, 0.9)
    z1 = _unit(rng, 0.25, 0.75)
    d = a * a * q * q / (b * c * e * f * z1)
    return {"a": a, "b": b, "c": c, "d": d, "e": e, "f": f}


def _w87_admissible(p, ctx):
    a, b, c, d, e, f = (p[k] for k in "abcdef")
    q = ctx.q
    if not (0.3 < abs(f) < 2.0 and 0.2 < abs(d) < 2.5):
        return False
    z1 = a * a * q * q / (b * c * d * e * f)
    z2 = a * q / (e * f)
    if abs(z1) > 0.8 or abs(z2) > 0.8:
        return False
    lam = q * a * a / (b * c * d)
    if not (0.05 < abs(lam) < 20):
        return False
    atoms = [a, lam, lam * q, lam * q / (e * f)]
    atoms += [a * q / v for v in (b, c, d, e, f)]
    atoms += [lam * q / e, lam * q / f]
    return _all_clear(atoms, ctx)


def _w87_lhs(p, ctx):
    a, b, c, d, e, f = (p[k] for k in "abcdef")
    q = ctx.q
    z1 = a * a * q * q / (b * c * d * e * f)
    return vwp_W(a, [b, c, d, e, f], z1, ctx).require()


def _w87_rhs(p, ctx):
    a, b, c, d, e, f = (p[k] for k in "abcdef")
    q = ctx.q
    lam = q * a * a / (b * c * d)
    pref = qpoch_ratio(
        [a * q, a * q / (e * f), lam * q / e, lam * q / f],
        [a * q / e, a * q / f, lam * q, lam * q / (e * f)],
        ctx,
    )
    w = vwp_W(lam, [lam * b / a, lam * c / a, lam * d / a, e, f], a * q / (e * f), ctx)
    return pref * w.require()


# ------------------------------------- normalized W: symmetry, integral form


def _wsym_propose(rng, M, ctx):
    a, b = _balanced(rng, M, ctx, 0.25, 0.6)
    i = rng.randint(1, M)  # a_i <-> a_{M+1}
    k = rng.randint(1, M + 2)  # b_k <-> b_{M+3}
    return {"a": a, "b": b, "i": i, "k": k}


def _swap(tup, i, j):
    out = list(tup)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def _wsym_variants(p):
    """(a, b) with a_i <-> a_{M+1}, and (a, b) with b_k <-> b_{M+3}."""
    a, b = p["a"], p["b"]
    M = len(a) - 3
    return (_swap(a, p["i"] - 1, M), b), (a, _swap(b, p["k"] - 1, M + 2))


def _wsym_admissible(p, ctx):
    return _wnorm_admissible(p, ctx) and all(
        _wnorm_guard(a, b, ctx) for a, b in _wsym_variants(p))


def _wnorm_lhs(p, ctx):
    return _wnorm(p["a"], p["b"], ctx)


def _wsym_rhs(p, ctx):
    return tuple(_wnorm(a, b, ctx) for a, b in _wsym_variants(p))


def _wint_rhs(p, ctx):
    q = ctx.q
    return _thm31i_lhs(p, ctx) / (q * (1 - q) * qpoch_infinite(q, ctx))


# ----------------------------------- Jordan-Pochhammer operator E_M anchors


def _em_propose(rng, M, ctx):
    q = ctx.q
    A, B, x0 = _unit(rng), _unit(rng), _unit(rng)
    a = [_unit(rng) for _ in range(M + 1)]
    b = [_unit(rng) for _ in range(M + 2)]
    a_last = q ** 2 * B * math.prod(b) / (A * math.prod(a))
    anchor = rng.randrange(M + 3)  # 0..M+1 -> q/a_i, M+2 -> q/(A x0)
    anchor2 = rng.randrange(M + 2)
    return {
        "A": A,
        "B": B,
        "x0": x0,
        "a": tuple(a) + (a_last,),
        "b": tuple(b),
        "anchor": anchor,
        "anchor2": anchor2,
    }


def _em_admissible(p, ctx):
    q = ctx.q
    A, B, x0, a, b = p["A"], p["B"], p["x0"], p["a"], p["b"]
    M = len(a) - 2
    if not _in_band(a[-1]):
        return False
    if any(abs(B - A * q ** i) < 0.05 * max(abs(A), abs(B)) for i in range(M)):
        return False
    # bilateral lattices: every anchor/denominator ratio must stay off the
    # two-sided power lattice (x-shifts move a_1 = A x, b_1 = B x by q^{+-1})
    return _all_clear([bk / ai for bk in b + (B * x0,) for ai in a + (A * x0,)], ctx)


def _em_taus(p, ctx):
    return [ctx.q / ai for ai in p["a"]] + [ctx.q / (p["A"] * p["x0"])]


def _em_function(p, ctx, tau):
    q = ctx.q
    A, B, x0, a, b = p["A"], p["B"], p["x0"], p["a"], p["b"]

    def ev(off):
        n = off.get("x", 0)
        bp = BalancedParams(
            a=tuple([A * x0 * q ** n] + list(a)), b=tuple([B * x0 * q ** n] + list(b))
        )
        return jackson_bilateral(tau, rp_integrand(bp, ctx), ctx)

    return LatticeFunction.cached({"x": x0, "q": q}, ev)


def _em_operator(p, ctx):
    return [build_EM(len(p["a"]) - 2, p["A"], p["B"], list(p["a"]), list(p["b"]))]


def _em_const_lhs(p, ctx):
    tau = _em_taus(p, ctx)[p["anchor"]]
    return op_apply(_em_operator(p, ctx)[0], _em_function(p, ctx, tau), {})


def _em_const_rhs(p, ctx):
    q = ctx.q
    M = len(p["a"]) - 2
    return (
        -math.prod(p["B"] - p["A"] * q ** i for i in range(M))
        * q
        * (1 - q)
        * p["x0"] ** (M + 1)
    )


def _em_ann_function(p, ctx):
    taus = _em_taus(p, ctx)
    i = p["anchor"]
    j = p["anchor2"]
    if j >= i:
        j += 1  # distinct anchor pair
    f1 = _em_function(p, ctx, taus[i])
    f2 = _em_function(p, ctx, taus[j])
    diff = LatticeFunction.cached(
        {"x": p["x0"], "q": ctx.q}, lambda off: f1.eval(off) - f2.eval(off)
    )
    return [diff]


# --------------------------------------------------- q-RP parameter system


def _relation_draw(rng, M):
    """A three-term relation: its kind 1..6 and parameter indices k != l."""
    kind = rng.randint(1, 6)
    k = rng.randint(2, M + 3)
    return {"kind": kind, "k": k, "l": rng.choice([t for t in range(2, M + 4) if t != k])}


def _qrp_propose(rng, M, ctx):
    a, b = _balanced(rng, M, ctx)
    pair = rng.sample(range(2, M + 4), 2)
    return {"a": a, "b": b, "i": min(pair), "j": max(pair), **_relation_draw(rng, M)}


def _qrp_admissible(p, ctx):
    a, b = p["a"], p["b"]
    return (
        _in_band(b[-1])
        and _pairs_clear(a, ctx, margin=0.05)
        and _bp_guard_integral(BalancedParams(a=a, b=b), ctx, [p["i"], p["j"]])
    )


def _qrp_ops(p, ctx):
    bp = BalancedParams(a=p["a"], b=p["b"])
    kind, k, l = p["kind"], p["k"], p["l"]
    ops = [build_EM_hat(bp), build_scaling_relation(bp)]
    ops.append(build_three_term(kind, k, l if kind in (1, 3, 5, 6) else None, bp))
    return ops


def _qrp_function(p, ctx):
    bp = BalancedParams(a=p["a"], b=p["b"])
    return [_phi_lattice(bp, p["i"], p["j"], ctx)]


def _qrpk_propose(rng, M, ctx):
    a, b = _balanced(rng, M, ctx)
    return {"a": a, "b": b, **_relation_draw(rng, M)}


def _qrpk_admissible(p, ctx):
    return _wnorm_admissible(p, ctx, zmax=0.72 * abs(ctx.q))


def _qrpk_function(p, ctx):
    return [_ab_lattice(p["a"], p["b"], ctx, lambda a, b, off: _wnorm(tuple(a), tuple(b), ctx))]


def _qrpi_propose(rng, M, ctx):
    # telescoping data a_i = b_i (i >= 2), b_1 = x, a_1 = q^2 x: the witness
    # matrix of the Wronskian-style probe is well conditioned there
    q = ctx.q
    x = _unit(rng)
    rest = tuple(_unit(rng) for _ in range(M + 2))
    return {"a": (q * q * x,) + rest, "b": (x,) + rest}


def _qrpi_admissible(p, ctx):
    q = ctx.q
    x, rest = p["b"][0], p["a"][1:]
    if any(abs(u / v - 1) < 0.1 for u, v in itertools.combinations(rest, 2)):
        return False
    # the probe shifts x down the lattice; x q^{1+n} must avoid each anchor
    if not _all_clear([x * q / anchor for anchor in rest], ctx, lo=0, hi=12, margin=0.08):
        return False
    return _all_clear([bk / anchor for anchor in rest for bk in (x,) + rest], ctx, lo=1, hi=12)


def _qrpi_evaluate(p, ctx):
    ok = independence_check(BalancedParams(a=p["a"], b=p["b"]), ctx)
    return None, None, 0.0 if ok else 1.0


# --------------------------------------------------------- bilateral limit


def _psi_propose(rng, M, ctx):
    cs = tuple(_unit(rng, 0.45, 0.9) for _ in range(M + 2))
    ds = tuple(_unit(rng, 0.2, 0.6) for _ in range(M + 2))
    return {"c": cs, "d": ds}


def _psi_admissible(p, ctx):
    cs, ds = p["c"], p["d"]
    if abs(math.prod(ds) / math.prod(cs)) > 0.45:
        return False
    return _all_clear(cs + ds, ctx)


def _psi_lhs(p, ctx):
    ctx2 = replace(ctx, series_shell_cap=60000)
    cs, ds = p["c"], p["d"]
    col = []
    for k in range(4, 11):
        z = 1.0 - 2.0 ** (-k)
        col.append((1.0 - z) * bilateral_psi(list(cs), list(ds), z, ctx2).require())
    # Richardson in the step ratio 2: errors go like (1-z), (1-z)^2, ...
    for m in range(1, len(col)):
        nxt = []
        for i in range(len(col) - 1):
            nxt.append((2 ** m * col[i + 1] - col[i]) / (2 ** m - 1))
        col = nxt
    return col[0]


def _psi_rhs(p, ctx):
    return qpoch_ratio(list(p["c"]), list(p["d"]), ctx)


# --------------------------------------------------------- degenerate system


def _degene_propose(rng, M, ctx):
    lam = 0.25 + 0.5 * rng.random()
    a = tuple(_unit(rng) for _ in range(M + 1))
    b = tuple(_unit(rng) for _ in range(M + 1))
    j = rng.randint(1, M + 1)
    return {"a": a, "b": b, "lam": lam, "j": j}


def _degene_admissible(p, ctx):
    a, b = p["a"], p["b"]
    return (
        _pairs_clear(a, ctx)
        and _pairs_clear(b, ctx)
        and _all_clear([bk / ai for bk in b for ai in a], ctx)
    )


def _degene_ops(p, ctx):
    M = len(p["a"]) - 1
    qlam = principal_power(ctx.q, p["lam"])
    return build_degene_system(M, qlam)


def _degene_function(p, ctx):
    lam, j = p["lam"], p["j"]
    qlam = principal_power(ctx.q, lam)
    tp0 = principal_power(ctx.q / p["a"][j - 1], lam)

    def ev(a, b, off):
        nj = off.get(f"a{j}", 0)
        return degene_integral(j, a, b, qlam, ctx, tau_power=tp0 * qlam ** (-nj))

    return [_ab_lattice(p["a"], p["b"], ctx, ev)]


def _degsol_propose(rng, M, ctx):
    q = ctx.q
    lam = 0.25 + 0.5 * rng.random()
    qlam = principal_power(q, lam)
    qlp2 = qlam * q * q
    a = [_unit(rng) for _ in range(M + 1)]
    bh = [_unit(rng) for _ in range(M)]
    w = _unit(rng, 0.25, 0.8) * abs(q)
    b_last = w * math.prod(a) / (qlp2 * math.prod(bh))
    return {"a": tuple(a), "b": tuple(bh) + (b_last,), "lam": lam}


def _degsol_admissible(p, ctx):
    q = ctx.q
    a, b, lam = p["a"], p["b"], p["lam"]
    M = len(a) - 1
    if not (0.1 < abs(b[M]) < 2.5):
        return False
    qlam = principal_power(q, lam)
    w = qlam * q * q * math.prod(b) / math.prod(a)
    if abs(w) > 0.85 * abs(q):
        return False
    # fractional-power prefactor arguments must stay off the power lattice
    atoms = [bk / ai for bk in b for ai in a] + [qlam * v / a[M] for v in a[:M] + b]
    return _pairs_clear(a, ctx) and _all_clear(atoms, ctx)


def _degsol_function(p, ctx):
    q = ctx.q
    a0, b0, lam = list(p["a"]), list(p["b"]), p["lam"]
    M = len(a0) - 1
    qlam = principal_power(q, lam)
    qlp1 = qlam * q
    lam1 = cmath.log(qlp1) / cmath.log(q)
    base_pow = cmath.exp(-lam1 * cmath.log(a0[M]))

    def ev(a, b, off, fam):
        n = off.get(f"a{M + 1}", 0)
        return degene_solution(
            fam, a, b, qlam, ctx, aM1_power=base_pow * qlp1 ** (-n)
        ).require()

    return [_ab_lattice(a0, b0, ctx, lambda a, b, off, _f=fam: ev(a, b, off, _f))
            for fam in (1, 2, 3)]


# ----------------------------------------------------------- qAL system


def _qal_propose(rng, M, ctx, tC_lo=0.35, tC_hi=0.6):
    # C and A are drawn as ratios against prod(B): |C/prod(B)| is the series
    # ratio of solution family 2, so it is kept moderate for speed
    Bs = tuple(_unit(rng, 0.5, 0.9) for _ in range(M))
    Bprod = abs(math.prod(Bs))
    C = cmath.rect(rng.uniform(tC_lo, tC_hi) * Bprod, rng.uniform(0, 2 * math.pi))
    A = cmath.rect(rng.uniform(0.2, 0.55) * Bprod, rng.uniform(0, 2 * math.pi))
    x_hi = 0.45 if M <= 2 else 0.32  # keeps the M-fold sums quick
    xs = tuple(_unit(rng, 0.2, x_hi) for _ in range(M))
    return {"A": A, "B": Bs, "C": C, "x": xs}


def _qal_int_propose(rng, M, ctx):
    # the Jordan-Pochhammer-type integral additionally needs the bilateral
    # window |q prod(B)/C| < 1, which pushes |C/prod(B)| above |q|
    return _qal_propose(rng, M, ctx, tC_lo=max(0.6, abs(ctx.q) / 0.85), tC_hi=0.78)


def _qal_admissible(p, ctx):
    A, Bs, C, xs = p["A"], p["B"], p["C"], p["x"]
    M = len(xs)
    Bprod = math.prod(Bs)
    if not (abs(C / Bprod) < 0.9 and abs(A / Bprod) < 0.6):
        return False
    ys = [Bs[i] * xs[i] for i in range(M)]
    atoms = [C] + list(xs) + ys + _ratios(ys)
    atoms += [ys[i] / xs[j] for i in range(M) for j in range(M)]
    return _all_clear(atoms, ctx)


def _qal_int_admissible(p, ctx):
    if abs(ctx.q * math.prod(p["B"]) / p["C"]) >= 0.9:
        return False
    return _qal_admissible(p, ctx)


def _qal_params(p):
    return QALParams(A=p["A"], B=p["B"], C=p["C"], x=p["x"])


def _qal_ops(p, ctx):
    return build_qal_system(len(p["x"]), _qal_params(p))


def _qal_lattice(p, ctx, fn):
    """fn(QALParams at the shifted x) as a memoized function on the x-lattice."""
    names = [f"x{i}" for i in range(1, len(p["x"]) + 1)]

    def ev(off):
        xs = tuple(x * ctx.q ** off.get(n, 0) for n, x in zip(names, p["x"]))
        return fn(QALParams(A=p["A"], B=p["B"], C=p["C"], x=xs))

    return LatticeFunction.cached({"q": ctx.q, **dict(zip(names, p["x"]))}, ev)


def _qal_phiD_function(p, ctx):
    return [_qal_lattice(p, ctx, lambda qp: phi_D(qp, ctx).require())]


def _qal_sol_function(p, ctx):
    return [_qal_lattice(p, ctx, lambda qp, _f=fam: qal_solution(_f, qp, ctx).require())
            for fam in (1, 2, 3)]


def _qal_int_function(p, ctx):
    def jp(qp):
        return jp_integral(
            JPParams(
                alpha_power=qp.A,
                A=ctx.q,
                B=qp.C / qp.A,
                a=tuple(bi * xi for bi, xi in zip(qp.B, qp.x)),
                b=qp.x,
                tau=1.0,
            ),
            1.0,
            ctx,
        )

    return [_qal_lattice(p, ctx, jp)]


def _qal_trans_lhs(p, ctx):
    return phi_D(_qal_params(p), ctx).require()


def _qal_trans_rhs(p, ctx):
    C, Bprod = p["C"], math.prod(p["B"])
    s1 = qal_solution(1, _qal_params(p), ctx).require()
    s2 = qal_solution(2, _qal_params(p), ctx).require() * qpoch_infinite(
        C / Bprod, ctx
    ) / qpoch_infinite(C, ctx)
    s3 = qal_solution(3, _qal_params(p), ctx).require()
    return s1, s2, s3


def _andrews_rhs(p, ctx):
    A, Bs, C, xs = p["A"], p["B"], p["C"], p["x"]
    M = len(xs)
    pref = qpoch_infinite(A, ctx) / qpoch_infinite(C, ctx)
    for i in range(M):
        pref *= qpoch_infinite(Bs[i] * xs[i], ctx) / qpoch_infinite(xs[i], ctx)
    upper = [C / A] + list(xs)
    lower = [Bs[i] * xs[i] for i in range(M)]
    return pref * rphis(upper, lower, A, ctx).require()


# -------------------------------------- duality sum -> phi_D and m+1_phi_m


def _kphid_propose(rng, M, ctx):
    a = tuple(_unit(rng, 0.5, 0.9) for _ in range(M))
    c = _unit(rng, 0.2, 0.45)
    b = _unit(rng, 0.3, 0.8)
    u = _unit(rng, 0.2, 0.6)
    xs = tuple(_unit(rng, 0.3, 0.8) for _ in range(M))
    return {"a": a, "b": b, "c": c, "u": u, "x": xs}


def _kphid_admissible(p, ctx):
    a, b, c, u, xs = p["a"], p["b"], p["c"], p["u"], p["x"]
    M = len(xs)
    aprod = math.prod(a)
    xD = [(c / a[i]) * xs[i] / xs[M - 1] for i in range(M - 1)] + [c / a[M - 1]]
    if any(abs(t) > 0.85 for t in xD):
        return False
    if abs(aprod * b * u / c) > 3.0:
        return False
    ys = [a[i] * xD[i] for i in range(M)]  # = c x_i / x_M
    atoms = [aprod * u] + xD + ys + _ratios(ys) + _ratios(xs)
    atoms += [a[j] * xs[i] / xs[j] for i in range(M) for j in range(M)]
    atoms += [b * xs[i] / xs[M - 1] for i in range(M)]
    return _all_clear(atoms, ctx)


def _kphid_lhs(p, ctx):
    q = ctx.q
    a, b, c, u, xs = p["a"], p["b"], p["c"], p["u"], p["x"]
    M = len(xs)
    aprod = math.prod(a)
    xM = xs[M - 1]
    pref = qpoch_infinite(u, ctx) / qpoch_infinite(aprod * u, ctx)
    for i in range(M):
        pref *= qpoch_infinite(c * xs[i] / xM, ctx) / qpoch_infinite(
            (c / a[i]) * xs[i] / xM, ctx
        )
    spec = ShellSpec(
        Factor(w=u),
        dirs=tuple(
            Factor(
                a=(b * xi / xM,) + tuple(a[j] * xi / xs[j] for j in range(M)),
                b=(c * xi / xM,) + tuple(q * xi / xj for xj in xs),
            )
            for xi in xs
        ),
        y=tuple(xs),
    )
    return pref * sum_shells(spec, M, ctx).require()


def _kphid_rhs(p, ctx):
    a, b, c, u, xs = p["a"], p["b"], p["c"], p["u"], p["x"]
    M = len(xs)
    aprod = math.prod(a)
    xD = tuple((c / a[i]) * xs[i] / xs[M - 1] for i in range(M - 1)) + (c / a[M - 1],)
    return phi_D(
        QALParams(A=aprod * b * u / c, B=a, C=aprod * u, x=xD), ctx
    ).require()


def _gen_propose(rng, M, ctx):
    a = tuple(_unit(rng, 0.3, 0.9) for _ in range(M + 1))
    b = tuple(_unit(rng, 0.35, 0.85) for _ in range(M))
    x = _unit(rng, 0.25, 0.8)
    return {"a": a, "b": b, "x": x}


def _gen1_admissible(p, ctx):
    a, b, x = p["a"], p["b"], p["x"]
    z0 = math.prod(a) * x / math.prod(b)
    if abs(z0) > 0.6 or abs(x) > 0.85:
        return False
    return _all_clear(list(b) + [x] + _ratios(b), ctx)


def _gen1_lhs(p, ctx):
    q = ctx.q
    a, b, x = p["a"], p["b"], p["x"]
    M = len(b)
    z0 = math.prod(a) * x / math.prod(b)
    pref = qpoch_infinite(z0, ctx) / qpoch_infinite(x, ctx)
    spec = ShellSpec(
        Factor(w=z0),
        dirs=tuple(
            Factor(a=tuple(bi / aj for aj in a), b=(bi,) + tuple(q * bi / bj for bj in b))
            for bi in b
        ),
        y=tuple(b),
    )
    return pref * sum_shells(spec, M, ctx).require()


def _gen_rhs(p, ctx):
    return rphis(list(p["a"]), list(p["b"]), p["x"], ctx).require()


def _gen2_admissible(p, ctx):
    a, b, x = p["a"], p["b"], p["x"]
    M = len(b)
    z1 = math.prod(a[:M]) * x / math.prod(b)  # = A x / (a_{M+1} B)
    if abs(z1) > 0.85 or abs(x) > 0.85:
        return False
    return _all_clear(list(b) + [x, a[M] * x] + _ratios(b), ctx)


def _gen2_lhs(p, ctx):
    q = ctx.q
    a, b, x = p["a"], p["b"], p["x"]
    M = len(b)
    aM1 = a[M]
    z1 = -math.prod(a) * x / (aM1 * math.prod(b))
    pref = qpoch_infinite(aM1 * x, ctx) / qpoch_infinite(x, ctx)
    spec = ShellSpec(
        Factor(w=z1, a=(aM1,), b=(aM1 * x,)),
        dirs=tuple(
            Factor(
                w=bi,
                e=1,
                a=tuple(bi / aj for aj in a[:M]),
                b=(bi,) + tuple(q * bi / bj for bj in b),
            )
            for bi in b
        ),
        y=tuple(b),
    )
    return pref * sum_shells(spec, M, ctx).require()


def _heine_propose(rng, M, ctx):
    A = _unit(rng, 0.3, 0.9)
    B = _unit(rng, 0.3, 0.9)
    C = _unit(rng, 0.35, 0.9)
    x = _unit(rng, 0.25, 0.8)
    variant = rng.randrange(2)
    return {"A": A, "B": B, "C": C, "x": x, "variant": variant}


def _heine_admissible(p, ctx):
    A, B, C, x = p["A"], p["B"], p["C"], p["x"]
    if not _all_clear((C, B * x, x), ctx):
        return False
    if p["variant"] == 0:
        return abs(C / B) <= 0.85
    return abs(A * x) <= 2.0


def _heine_lhs(p, ctx):
    return rphis([p["A"], p["B"]], [p["C"]], p["x"], ctx).require()


def _heine_rhs(p, ctx):
    A, B, C, x = p["A"], p["B"], p["C"], p["x"]
    if p["variant"] == 0:
        pref = qpoch_ratio([C / B, B * x], [C, x], ctx)
        return pref * rphis([A * B * x / C, B], [B * x], C / B, ctx).require()
    pref = qpoch_ratio([B * x], [x], ctx)
    return pref * rphis([B, C / A], [C, B * x], A * x, ctx).require()


# ----------------------------------------------- anchored-integral structure


def _phicf_propose(rng, M, ctx):
    x = _unit(rng)
    rest = tuple(_unit(rng) for _ in range(M + 2))
    i = rng.randint(2, M + 2)
    return {"x": x, "rest": rest, "i": i}


def _phicf_admissible(p, ctx):
    q = ctx.q
    x, rest, i = p["x"], p["rest"], p["i"]
    ai, aM3 = rest[i - 2], rest[-1]
    if abs(ai - x * q) < 0.05 or abs(aM3 - x * q) < 0.05:
        return False
    if abs(ai / aM3 - 1) < 0.05:
        return False
    # unilateral lattices from the two anchors: poles sit at ratio = q^{-m}, m >= 1
    atoms = [bk / anchor for bk in (x,) + rest for anchor in (ai, aM3)]
    return _all_clear(atoms, ctx, lo=1, hi=12)


def _phicf_lhs(p, ctx):
    q = ctx.q
    x, rest, i = p["x"], p["rest"], p["i"]
    M = len(rest) - 2
    bp = BalancedParams(a=(q * q * x,) + rest, b=(x,) + rest)
    return rp_integral(bp, i, M + 3, ctx)


def _phicf_rhs(p, ctx):
    q = ctx.q
    x, rest, i = p["x"], p["rest"], p["i"]
    ai, aM3 = rest[i - 2], rest[-1]
    return q * (ai - aM3) / ((ai - x * q) * (aM3 - x * q))


def _phicc_propose(rng, M, ctx):
    a, b = _balanced(rng, M, ctx)
    return {"a": a, "b": b, "anchors": tuple(rng.sample(range(2, M + 4), 3))}


def _phicc_admissible(p, ctx):
    a, b = p["a"], p["b"]
    if not _in_band(b[-1]):
        return False
    i, j, k = p["anchors"]
    for u, v in ((i, j), (j, k), (i, k)):
        if abs(a[u - 1] / a[v - 1] - 1) < 0.05:
            return False
    return _bp_guard_integral(BalancedParams(a=a, b=b), ctx, list(p["anchors"]))


def _phicc_evaluate(p, ctx):
    bp = BalancedParams(a=p["a"], b=p["b"])
    i, j, k = p["anchors"]
    pij = rp_integral(bp, i, j, ctx)
    pjk = rp_integral(bp, j, k, ctx)
    pik = rp_integral(bp, i, k, ctx)
    lhs = pij + pjk
    scale = max(abs(pij), abs(pjk), abs(pik), 1e-30)
    return lhs, pik, abs(lhs - pik) / scale


def _phicc_lhs(p, ctx):
    bp = BalancedParams(a=p["a"], b=p["b"])
    i, j, k = p["anchors"]
    return rp_integral(bp, i, j, ctx) + rp_integral(bp, j, k, ctx)


def _phicc_rhs(p, ctx):
    i, _, k = p["anchors"]
    return rp_integral(BalancedParams(a=p["a"], b=p["b"]), i, k, ctx)


# ---------------------------------------------------- degeneration limits


def _far_pair(p, ctx):
    """a_{M+3} = scale q^{-n}, pushed out until |q|^n <= 1/2e4 (n >= 4), and
    b_{M+3} = q^lam a_{M+3}: the finite stand-in for the degeneration limit."""
    q = ctx.q
    n = max(4, math.ceil(math.log(2e4) / math.log(1.0 / abs(q))))
    aM3 = p["scale"] * q ** float(-n)
    return aM3, principal_power(q, p["lam"]) * aM3


def _deglim_propose(rng, M, ctx):
    q = ctx.q
    lam = 0.25 + 0.5 * rng.random()
    qlam = principal_power(q, lam)
    a = [_unit(rng, 0.35, 0.85) for _ in range(M + 2)]
    b = [_unit(rng, 0.35, 0.85) for _ in range(M + 1)]
    b_last = math.prod(a) / (qlam * q * q * math.prod(b))
    j = rng.randint(1, M + 2)
    scale = _unit(rng, 0.4, 0.8)
    return {
        "a": tuple(a),
        "b": tuple(b) + (b_last,),
        "lam": lam,
        "j": j,
        "scale": scale,
    }


def _deglim_admissible(p, ctx):
    q = ctx.q
    a, b, lam, j, scale = p["a"], p["b"], p["lam"], p["j"], p["scale"]
    M = len(a) - 2
    if not (0.1 < abs(b[M + 1]) < 2.5):
        return False
    qlam = principal_power(q, lam)
    aj = a[j - 1]
    return (
        _all_clear([bk / aj for bk in b], ctx, lo=1, hi=12)
        and _pairs_clear(a, ctx, margin=0.05)
        # theta-function arguments away from the power lattice
        and _all_clear([scale / aj, qlam * scale / aj], ctx, lo=-25, hi=25)
    )


def _deglim_lhs(p, ctx):
    q = ctx.q
    a, b, lam, j = p["a"], p["b"], p["lam"], p["j"]
    M = len(a) - 2
    aM3, bM3 = _far_pair(p, ctx)
    bp = BalancedParams(a=a + (aM3,), b=b + (bM3,))
    c0 = (
        principal_power(q / a[j - 1], lam)
        * theta(bM3 * q / a[j - 1], ctx)
        / theta(aM3 * q / a[j - 1], ctx)
    )
    return c0 * rp_integral(bp, M + 3, j, ctx)


def _deglim_rhs(p, ctx):
    q = ctx.q
    a, b, lam, j = p["a"], p["b"], p["lam"], p["j"]
    qlam = principal_power(q, lam)
    tp = principal_power(q / a[j - 1], lam)
    return degene_integral(j, list(a), list(b), qlam, ctx, tau_power=tp)


def _serlim_propose(rng, M, ctx):
    lam = 0.25 + 0.5 * rng.random()
    a = tuple(_unit(rng) for _ in range(M + 2))
    b = tuple(_unit(rng) for _ in range(M + 2))
    scale = _unit(rng, 0.4, 0.8)
    return {"a": a, "b": b, "lam": lam, "scale": scale}


def _serlim_admissible(p, ctx):
    q = ctx.q
    a, b, lam = p["a"], p["b"], p["lam"]
    M = len(a) - 2
    qlam = principal_power(q, lam)
    kappa = qlam * q / a[M + 1]
    atoms = _ratios(a[:M])
    for i in range(M):
        atoms += [kappa * a[i], a[i] / a[M + 1]]
    for bj in b:
        atoms += [qlam * q * q * bj / a[M + 1]]
        atoms += [a[i] / bj for i in range(M)]
    return _all_clear(atoms, ctx)


def _serlim_lhs(p, ctx):
    return _wm2_integral_form(p["a"], p["b"], *_far_pair(p, ctx), ctx)


def _serlim_rhs(p, ctx):
    q = ctx.q
    a, b, lam = p["a"], p["b"], p["lam"]
    M = len(a) - 2
    qlam = principal_power(q, lam)
    qlp1 = qlam * q
    aM2 = a[M + 1]
    kappa = qlp1 / aM2
    spec = ShellSpec(
        Factor(
            w=-q * a[M] / aM2,
            e=1,
            a=(qlp1,) + tuple(kappa * ai for ai in a[:M]),
            b=tuple(qlam * q * q * bj / aM2 for bj in b),
        ),
        dirs=tuple(
            Factor(
                a=tuple(a[i] / bj for bj in b),
                b=(q * a[i] / aM2,) + tuple(q * a[i] / a[j] for j in range(M)),
            )
            for i in range(M)
        ),
        y=tuple(a[:M]),
        mu=tuple(kappa * ai for ai in a[:M]),
    )
    return sum_shells(spec, M, ctx).require()


# ----------------------------------------------------------------- catalog


def _index(cases):
    out = {}
    for c in cases:
        if c.id in out:
            raise ValueError(f"duplicate case id {c.id}")
        out[c.id] = c
    return out


# one row per case: id, kind, M_range, tolerance; propose, admissible and the
# two evaluators (lhs, rhs, or operator=, function=); note
_CATALOG = _index([
    IdentityCase("bailey.integral", "equality", (1,), 1e-8,
                 _bailey_propose, _bailey_admissible, _bailey_lhs, _bailey_rhs,
                 "Jackson integral between a and b of a balanced 4x4 ratio equals a closed 8W7"),
    IdentityCase("bailey.two_4phi3", "equality", (1,), 1e-8,
                 _two43_propose, _two43_admissible, _two43_lhs, _two43_rhs,
                 "nonterminating 8W7 as a sum of two balanced 4phi3 series"),
    IdentityCase("kajihara.transform", "equality", (1, 2), 1e-12,
                 _kajitrans_propose, _kajitrans_admissible, _kajitrans_lhs, _kajitrans_rhs,
                 "terminating duality W^{M,N+2} <-> W^{N,M+2} with base q argument"),
    IdentityCase("kajihara.WM3", "equality", (1, 2), 1e-12,
                 _wm3_propose, _wm3_admissible, _wm3_lhs, _wm3_rhs,
                 "terminating W^{M,3} collapses to a single very-well-poised 2M+8 W 2M+7"),
    IdentityCase("thm31.series", "equality", (1, 2, 3), 1e-8,
                 _wm2_propose, _thm31s_admissible, _wm2_lhs, _thm31s_rhs,
                 "W^{M,2} at the balanced argument as two (M+3)phi(M+2) series"),
    IdentityCase("thm31.integral", "equality", (1, 2, 3), 1e-8,
                 _balanced_propose, _thm31i_admissible, _thm31i_lhs, _thm31i_rhs,
                 "Jackson integral between q/a_{M+2} and q/a_{M+3} as a W^{M,2} sum"),
    IdentityCase("cor33.sym_a", "equality", (1, 2, 3), 1e-8,
                 _wm2_propose, _cor33a_admissible, _wm2_lhs, _cor33a_rhs,
                 "W^{M,2} symmetry exchanging x_1 with the balanced argument"),
    IdentityCase("cor33.sym_b", "equality", (1, 2, 3), 1e-8,
                 _cor33b_propose, _cor33b_admissible, _wm2_lhs, _cor33b_rhs,
                 "W^{M,2} symmetry exchanging u_1 with the balanced argument"),
    IdentityCase("cor33.threeterm", "equality", (1, 2), 1e-8,
                 _cor33t_propose, _cor33t_admissible, _wm2_lhs, _cor33t_rhs,
                 "three-term relation connecting W^{M,2} at arguments d, q/c_1, q/c_2"),
    IdentityCase("w87.lambda", "equality", (1,), 1e-8,
                 _w87_propose, _w87_admissible, _w87_lhs, _w87_rhs,
                 "8W7 two-term transformation with lambda = q a^2/(bcd)"),
    IdentityCase("W.symmetry", "equality", (1, 2, 3), 1e-8,
                 _wsym_propose, _wsym_admissible, _wnorm_lhs, _wsym_rhs,
                 "normalized W is symmetric in a_1..a_{M+1} and in b_1..b_{M+3}"),
    IdentityCase("W.integral", "equality", (1, 2, 3), 1e-7,
                 _balanced_propose, _wnorm_admissible, _wnorm_lhs, _wint_rhs,
                 "normalized W equals the anchored Jackson integral over q(1-q)(q)_inf"),
    IdentityCase("EM.constant", "equality", (1, 2), 1e-7,
                 _em_propose, _em_admissible, _em_const_lhs, _em_const_rhs,
                 "E_M maps every anchored bilateral integral to the same constant"),
    IdentityCase("EM.annihilate", "residual", (1, 2), 1e-6,
                 _em_propose, _em_admissible, operator=_em_operator, function=_em_ann_function,
                 note="E_M annihilates differences of anchored bilateral integrals"),
    IdentityCase("qrp.system", "residual", (1, 2), 1e-6,
                 _qrp_propose, _qrp_admissible, operator=_qrp_ops, function=_qrp_function,
                 note="hatted E_M, three-term relations and scaling annihilate phi_{i,j}"),
    IdentityCase("qrp.kajihara_solution", "residual", (1, 2), 1e-6,
                 _qrpk_propose, _qrpk_admissible, operator=_qrp_ops, function=_qrpk_function,
                 note="the normalized W solves the same parameter-lattice system"),
    IdentityCase("qrp.independence", "independence", (1, 2), 0.5,
                 _qrpi_propose, _qrpi_admissible, evaluate=_qrpi_evaluate,
                 note="phi_{i,M+3}, i = 2..M+2, are independent over the T-constants"),
    IdentityCase("psi.limit", "limit", (1, 2), 1e-4,
                 _psi_propose, _psi_admissible, _psi_lhs, _psi_rhs,
                 "(1-z) times the bilateral (M+2)psi(M+2) tends to a Pochhammer ratio at z -> 1"),
    IdentityCase("degene.system", "residual", (1, 2), 1e-6,
                 _degene_propose, _degene_admissible, operator=_degene_ops,
                 function=_degene_function,
                 note="degenerate system annihilates the t^lambda-weighted anchored integrals"),
    IdentityCase("degene.solutions", "residual", (1, 2), 1e-6,
                 _degsol_propose, _degsol_admissible, operator=_degene_ops,
                 function=_degsol_function,
                 note="degenerate system annihilates all three explicit series families"),
    IdentityCase("degene.implies_qal", "residual", (1, 2), 1e-6,
                 _qal_int_propose, _qal_int_admissible, operator=_qal_ops,
                 function=_qal_int_function,
                 note="the specialized system annihilates the Jordan-Pochhammer-type integral"),
    IdentityCase("qal.phiD", "residual", (1, 2, 3), 1e-7,
                 _qal_propose, _qal_admissible, operator=_qal_ops, function=_qal_phiD_function,
                 note="q-Appell-Lauricella system annihilates phi_D on the x-lattice"),
    IdentityCase("qal.solutions", "residual", (1, 2, 3), 1e-6,
                 _qal_propose, _qal_admissible, operator=_qal_ops, function=_qal_sol_function,
                 note="q-Appell-Lauricella system annihilates the three solution families"),
    IdentityCase("qal.transforms", "equality", (1, 2, 3), 1e-8,
                 _qal_propose, _qal_admissible, _qal_trans_lhs, _qal_trans_rhs,
                 "each solution family matches phi_D after its connection prefactor"),
    IdentityCase("qal.andrews", "equality", (1, 2, 3), 1e-8,
                 _qal_propose, _qal_admissible, _qal_trans_lhs, _andrews_rhs,
                 "phi_D as an (M+1)phi_M with argument A"),
    IdentityCase("qal.kajihara_phiD", "equality", (1, 2, 3), 1e-8,
                 _kphid_propose, _kphid_admissible, _kphid_lhs, _kphid_rhs,
                 "duality-type multiple sum equals phi_D in transformed variables"),
    IdentityCase("mp1phim.euler", "equality", (1, 2, 3), 1e-8,
                 _gen_propose, _gen1_admissible, _gen1_lhs, _gen_rhs,
                 "multiple Euler-type sum collapses to (M+1)phi_M"),
    IdentityCase("mp1phim.jackson", "equality", (1, 2, 3), 1e-8,
                 _gen_propose, _gen2_admissible, _gen2_lhs, _gen_rhs,
                 "multiple Jackson-type sum with binomial weights collapses to (M+1)phi_M"),
    IdentityCase("heine.m1", "equality", (1,), 1e-10,
                 _heine_propose, _heine_admissible, _heine_lhs, _heine_rhs,
                 "M = 1 reductions: Heine-type 2phi1 and 2phi2 transformations"),
    IdentityCase("phi.closed_form", "equality", (1, 2), 1e-10,
                 _phicf_propose, _phicf_admissible, _phicf_lhs, _phicf_rhs,
                 "telescoping data a_i = b_i gives phi_{i,M+3} in closed rational form"),
    IdentityCase("phi.cocycle", "equality", (1, 2), 1e-9,
                 _phicc_propose, _phicc_admissible, _phicc_lhs, _phicc_rhs,
                 "anchored integrals are additive: phi_{i,j} + phi_{j,k} = phi_{i,k}",
                 evaluate=_phicc_evaluate),
    IdentityCase("degene.integral_limit", "limit", (1, 2), 1e-3,
                 _deglim_propose, _deglim_admissible, _deglim_lhs, _deglim_rhs,
                 "theta-weighted anchored integral tends to the t^lambda integral"),
    IdentityCase("degene.series_limit", "limit", (1, 2), 1e-3,
                 _serlim_propose, _serlim_admissible, _serlim_lhs, _serlim_rhs,
                 "W^{M,2} in the integral data tends to the degenerate multiple series"),
])


def catalog():
    return dict(_CATALOG)


def lookup(case_id):
    try:
        return _CATALOG[case_id]
    except KeyError:
        raise ValueError(f"unknown identity id: {case_id}") from None


def check(case_id, seed, M, ctx=None):
    case = lookup(case_id)
    ctx = ctx or default_context()
    if M not in case.M_range:
        raise ValueError(f"{case_id}: M={M} outside M_range {case.M_range}")
    report = CheckReport(id=case_id, seed=seed, M=M, q=complex(ctx.q))
    t0 = time.perf_counter()
    try:
        params = case.draw(_rng_for(case_id, seed, M), M, ctx)
        report.params = params
        if case.kind == "residual":
            ops = case.operator(params, ctx)
            fns = case.function(params, ctx)
            worst = 0.0
            for f in fns:
                for op in ops:
                    worst = max(worst, residual(op, f, [{}])[1])
            report.residual = worst
            report.rel_error = worst
        elif case.evaluate is not None:
            report.lhs, report.rhs, report.rel_error = case.evaluate(params, ctx)
        else:
            lhs = case.lhs(params, ctx)
            rhs = case.rhs(params, ctx)
            report.lhs = lhs
            report.rel_error, report.rhs = max(
                ((rel_error(lhs, r), r) for r in (rhs if isinstance(rhs, tuple) else (rhs,))),
                key=lambda t: t[0],
            )
        if not math.isfinite(report.rel_error):
            raise NonFinite(f"relative error is {report.rel_error}")
        report.passed = report.rel_error <= case.tolerance
    except (QHyperError, ArithmeticError, ValueError) as exc:
        report.reason = f"{type(exc).__name__}: {exc}"
        report.rel_error = math.inf
        report.passed = False
    report.wall_time = time.perf_counter() - t0
    return report


def run_suite(ids, seeds, Ms, ctx=None):
    ctx = ctx or default_context()
    reports = []
    for case_id in sorted(set(ids)):
        case = lookup(case_id)
        for M in sorted(set(Ms)):
            if M not in case.M_range:
                continue
            for seed in sorted(set(seeds)):
                reports.append(check(case_id, seed, M, ctx))
    reports.sort(key=lambda r: (r.id, r.M, r.seed))
    return reports
