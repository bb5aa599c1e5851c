"""q-difference operators on parameter lattices.

An operator is a sum of terms c(p) * T^s where s is an integer shift vector on
named parameters and the coefficient c is evaluated at the *unshifted* point p
(the shift applies to the function only).  Points are dicts name -> value that
always carry the entry 'q'; a lattice offset n on parameter v means v q^n, and
q itself is never shifted.  A coefficient is a callable of the point or a
constant.

An operator may also carry numeric constants, pairs (name, value) whose names
start with '_' (no lattice parameter does).  `op_apply` and `residual` add
them to the point once per evaluation, so a coefficient reads them like
parameters, and `op_add`, `op_scale` and `op_multiply` carry them into the
result.  An operand that binds a name already bound to another value keeps
its own constants, frozen into its coefficients.  A parameter or constant
missing from the point raises DomainError.

LatticeFunction pairs a base point with an evaluator over integer offsets, so
expensive function values (Jackson integrals, multiple series) can be memoized
per offset vector while operators probe them.

Every builder is a function of its lattice shape only: M, plus kind, k and l
for a three-term relation.  The symbolic work of a shape (its products of
factors, sums and groupings) runs once per process, on first use, and is
cached for up to 256 shapes per builder; the builder then binds the
constants of its call (A, B, e_k(a), e_k(b), q^lambda, ...) to the cached
terms.  A shape captures no constant, so every call of a builder returns the
same terms object for one shape.

The builders share a few pieces:

- `_factors(T, count, lead, coeff)` is prod_{i<count} (lead + coeff(pt, i) T),
  and `_q_factors(T, count)` is prod_{i<count} (1 - q^{-i} T);
- `_power(name, n)` is the coefficient pt[name]^n and `_esym(k, names)` the
  elementary symmetric function e_k of the named parameters;
- `_term_sum` is the alternating sum
  sum_k (-1)^k x^{d-k} [e_a T^{-1} + e_b] chain(n-k) prod_{i<k-lag} (1 - q^{-i} T)
  behind E_M, the full Jordan-Pochhammer operator, E_M-hat and its two
  degenerations E'_M-hat and E''_M-hat, each of which states only its lattice
  shift, its chain, its bracket (e_a, e_b) and its boundary pieces;
- `_three_term(name, (s1, v1), (s2, v2), (s3, v3))` is the contiguity relation
  sum_i (v_{i+1} - v_{i+2}) T^{s_i} (indices mod 3), whose coefficients sum to
  zero.  Every three-term relation and every two-index relation of the
  degenerate system is written this way.  Kind 6 and degene6 carry the
  overall sign this convention gives, the negative of their anti-cyclic form
  sum_i (v_{i+2} - v_{i+1}) T^{s_i}; an overall sign changes neither the
  solutions nor the residuals.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonFinite
from .qcore import QContext, elem_sym
from .jackson import BalancedParams, jackson_0_to, rp_integrand


@dataclass
class LatticeFunction:
    """base: parameter point (must include 'q'); eval: offsets dict -> complex."""

    base: dict
    eval: callable

    @classmethod
    def cached(cls, base, fn):
        memo = {}

        def ev(offsets):
            key = _shifts_tuple(offsets)
            if key not in memo:
                memo[key] = fn(offsets)
            return memo[key]

        return cls(base=base, eval=ev)


@dataclass(frozen=True)
class ShiftTerm:
    coeff: callable  # point dict -> complex
    shifts: tuple  # sorted ((name, k), ...) with k != 0


@dataclass(frozen=True)
class ShiftOperator:
    terms: tuple
    name: str = ""
    consts: tuple = ()  # ((name, value), ...) added to every point it is evaluated at


def _shifts_tuple(shifts: dict) -> tuple:
    return tuple(sorted((k, v) for k, v in shifts.items() if v))


def _no_q_shift(offsets: dict) -> None:
    if "q" in offsets:
        raise DomainError("q itself is never shifted")


def _missing(exc: KeyError, where: str) -> DomainError:
    return DomainError(f"{where}: the point has no parameter {exc.args[0]!r}")


def point_at(base: dict, offsets: dict) -> dict:
    return _point(base, offsets, "point_at")


def _point(base: dict, offsets: dict, where: str, consts: tuple = ()) -> dict:
    """base shifted by offsets, with the constants added."""
    _no_q_shift(offsets)
    try:
        pt = _shift_point(base, _shifts_tuple(offsets))
    except KeyError as exc:
        raise _missing(exc, where) from None
    pt.update(consts)
    return pt


def _shift_point(pt: dict, shifts: tuple) -> dict:
    out = dict(pt)
    q = pt["q"]
    for k, n in shifts:
        out[k] = pt[k] * q ** n
    return out


def _merge(offsets: dict, shifts: tuple) -> dict:
    out = dict(offsets)
    for k, n in shifts:
        out[k] = out.get(k, 0) + n
    return out


def _coeff_fn(c) -> callable:
    """A coefficient as a callable of the point: c itself, or the constant complex(c)."""
    return c if callable(c) else (lambda pt, _c=complex(c): _c)


def _bind(shape: ShiftOperator, consts: dict) -> ShiftOperator:
    """A cached shape with the constants of one builder call."""
    return ShiftOperator(terms=shape.terms, name=shape.name, consts=tuple(consts.items()))


def _frozen(op: ShiftOperator) -> ShiftOperator:
    """op with its constants read inside its coefficients instead of from the point."""
    own = dict(op.consts)
    terms = tuple(
        ShiftTerm(coeff=lambda pt, _f=t.coeff: _f({**pt, **own}), shifts=t.shifts)
        for t in op.terms
    )
    return ShiftOperator(terms=terms, name=op.name)


def _joined(ops) -> tuple:
    """(operands, constants) of a composition: the union of the operands'
    constants, where an operand that binds a name already bound to another
    value is frozen first."""
    consts = {}
    out = []
    for op in ops:
        if any(consts.get(k, v) is not v for k, v in op.consts):
            op = _frozen(op)
        consts.update(op.consts)
        out.append(op)
    return out, tuple(consts.items())


def const_op(c, name="") -> ShiftOperator:
    return shift_op({}, c, name)


def shift_op(shifts: dict, coeff=1.0, name="") -> ShiftOperator:
    _no_q_shift(shifts)
    term = ShiftTerm(coeff=_coeff_fn(coeff), shifts=_shifts_tuple(shifts))
    return ShiftOperator(terms=(term,), name=name)


def op_add(*ops, name="") -> ShiftOperator:
    ops, consts = _joined(ops)
    terms = []
    for op in ops:
        terms.extend(op.terms)
    return _normalize(ShiftOperator(terms=tuple(terms), name=name, consts=consts))


def op_scale(op: ShiftOperator, c, name="") -> ShiftOperator:
    c = _coeff_fn(c)
    terms = tuple(
        ShiftTerm(coeff=lambda pt, _f=t.coeff: c(pt) * _f(pt), shifts=t.shifts)
        for t in op.terms
    )
    return ShiftOperator(terms=terms, name=name or op.name, consts=op.consts)


def op_sub(op1: ShiftOperator, op2: ShiftOperator, name="") -> ShiftOperator:
    return op_add(op1, op_scale(op2, -1.0), name=name)


def op_multiply(op1: ShiftOperator, op2: ShiftOperator, name="") -> ShiftOperator:
    """The product op1 op2, which applies op2 first: every pair of terms gives

        (c1 T^{s1})(c2 T^{s2}) = c1 (c2 o T^{s1}) T^{s1+s2},

    where c2 o T^{s1} is c2 read at the point shifted by s1."""
    (op1, op2), consts = _joined((op1, op2))
    terms = []
    for t1 in op1.terms:
        for t2 in op2.terms:
            def coeff(pt, _c1=t1.coeff, _c2=t2.coeff, _s1=t1.shifts):
                return _c1(pt) * _c2(_shift_point(pt, _s1))

            merged = _merge(dict(t1.shifts), t2.shifts)
            terms.append(ShiftTerm(coeff=coeff, shifts=_shifts_tuple(merged)))
    return _normalize(ShiftOperator(terms=tuple(terms), name=name, consts=consts))


def op_product(ops, name="") -> ShiftOperator:
    out = const_op(1.0)
    for op in ops:
        out = op_multiply(out, op)
    return ShiftOperator(terms=out.terms, name=name, consts=out.consts)


def _normalize(op: ShiftOperator) -> ShiftOperator:
    groups = {}
    order = []
    for t in op.terms:
        if t.shifts not in groups:
            groups[t.shifts] = []
            order.append(t.shifts)
        groups[t.shifts].append(t.coeff)
    terms = []
    for s in order:
        fns = groups[s]
        if len(fns) == 1:
            terms.append(ShiftTerm(coeff=fns[0], shifts=s))
        else:
            terms.append(
                ShiftTerm(coeff=lambda pt, _fns=tuple(fns): sum(f(pt) for f in _fns), shifts=s)
            )
    return ShiftOperator(terms=tuple(terms), name=op.name, consts=op.consts)


def op_apply(op: ShiftOperator, f: LatticeFunction, offset: dict) -> complex:
    where = op.name or "operator"
    pt = _point(f.base, offset, where, op.consts)
    total = 0.0 + 0.0j
    for t in op.terms:
        try:
            c = t.coeff(pt)
        except KeyError as exc:
            raise _missing(exc, where) from None
        total += c * f.eval(_merge(offset, t.shifts))
    return total


def residual(op: ShiftOperator, f: LatticeFunction, offsets) -> tuple:
    """(raw, relative): worst |op f| over the offsets, against the natural scale
    max_offset sum_terms |coeff| |f(shifted)|.

    Raises NonFinite when a function value or a coefficient is inf or nan:
    neither the raw residual nor its scale would show it.
    """
    where = op.name or "operator"
    raw = 0.0
    scale = 0.0
    for off in offsets:
        pt = _point(f.base, off, where, op.consts)
        val = 0.0 + 0.0j
        sc = 0.0
        for t in op.terms:
            fv = f.eval(_merge(off, t.shifts))
            try:
                c = t.coeff(pt)
            except KeyError as exc:
                raise _missing(exc, where) from None
            if not (cmath.isfinite(fv) and cmath.isfinite(c)):
                raise NonFinite(f"{where}: f = {fv}, coefficient {c}")
            val += c * fv
            sc += abs(c) * abs(fv)
        raw = max(raw, abs(val))
        scale = max(scale, sc)
    if scale == 0.0:
        return raw, 0.0 if raw == 0.0 else math.inf
    return raw, raw / scale


# --------------------------------------------------------------------------
# operator builders
# --------------------------------------------------------------------------

_AB = {"a1": 1, "b1": 1}  # T = T_{a_1} T_{b_1} of the hat operators
# each builder caches up to 256 shapes; the catalog and the tests use under
# 180 three-term shapes (M = 1..3) and a few of every other builder
_shape = functools.lru_cache(maxsize=256)


def _names(prefix, n):
    return [f"{prefix}{i}" for i in range(1, n + 1)]


def _factors(T: dict, count: int, lead, coeff) -> ShiftOperator:
    """prod_{i<count} (lead + coeff(pt, i) T) for the shift T."""
    return op_product(
        op_add(const_op(lead), shift_op(T, coeff=lambda pt, _i=i: coeff(pt, _i)))
        for i in range(count)
    )


def _q_factors(T: dict, count: int) -> ShiftOperator:
    """prod_{i<count} (1 - q^{-i} T)."""
    return _factors(T, count, 1.0, lambda pt, i: -pt["q"] ** float(-i))


def _ab_chain(count: int) -> ShiftOperator:
    """prod_{i<count} (1 - (a_1 q^i / b_1) T)."""
    return _factors(_AB, count, 1.0, lambda pt, i: -pt["a1"] * pt["q"] ** i / pt["b1"])


def _x_chain(count: int) -> ShiftOperator:
    """prod_{i<count} (B - A q^i T_x), for the constants _A and _B."""
    return _factors({"x": 1}, count, _at("_B"), lambda pt, i: -pt["_A"] * pt["q"] ** i)


def _power(name: str, n: int) -> ShiftOperator:
    return const_op(lambda pt: pt[name] ** n)


def _esym(k: int, names) -> callable:
    names = tuple(names)
    return lambda pt: elem_sym(k, [pt[n] for n in names])


def _at(name: str) -> callable:
    return lambda pt: pt[name]


def _three_term(name: str, first, second, third) -> ShiftOperator:
    """sum_i (v_{i+1} - v_{i+2}) T^{s_i} over the three pairs (s_i, v_i), indices mod 3."""
    (s1, v1), (s2, v2), (s3, v3) = first, second, third
    return op_add(
        shift_op(s1, coeff=lambda pt: v2(pt) - v3(pt)),
        shift_op(s2, coeff=lambda pt: v3(pt) - v1(pt)),
        shift_op(s3, coeff=lambda pt: v1(pt) - v2(pt)),
        name=name,
    )


def _term_sum(x, T, d, n, ks, bracket, chain, lag=1, head=False, tail=None, name=""):
    """sum over k in ks of (-1)^k x^{d-k} [e_a T^{-1} + e_b] chain(n-k) Q(k-lag),
    where (e_a, e_b) = bracket(k) and Q(m) = prod_{i<m} (1 - q^{-i} T).

    head puts x^d T^{-1} chain(n) first; tail puts (-1)^{n-1} tail T^{-1} Q(n)
    last.
    """
    Tinv = shift_op({v: -1 for v in T})
    pieces = [op_product([_power(x, d), Tinv, chain(n)])] if head else []
    for k in ks:
        e_a, e_b = bracket(k)
        br = op_add(op_scale(Tinv, e_a), const_op(e_b))
        piece = op_product([_power(x, d - k), br, chain(n - k), _q_factors(T, k - lag)])
        pieces.append(op_scale(piece, (-1.0) ** k))
    if tail is not None:
        last = op_product([const_op(tail), Tinv, _q_factors(T, n)])
        pieces.append(op_scale(last, (-1.0) ** (n - 1)))
    return op_add(*pieces, name=name)


def _ab_lengths(M, a, b, builder):
    if len(a) != M + 2 or len(b) != M + 2:
        raise DomainError(f"{builder} needs M+2 entries in a and b")


def _x_consts(A, B, a, b, ks) -> dict:
    """_A, _B and, for k in ks, _ea{k} = e_k(a) and _eb{k} = e_k(b)."""
    consts = {"_A": complex(A), "_B": complex(B)}
    for k in ks:
        consts[f"_ea{k}"] = complex(elem_sym(k, a))
        consts[f"_eb{k}"] = elem_sym(k, b)
    return consts


@_shape
def _em_shape(M: int) -> ShiftOperator:
    def bracket(k):
        return _at(f"_ea{k}"), lambda pt, _e=f"_eb{k}": -pt["q"] * pt[_e]

    return _term_sum("x", {"x": 1}, M + 2, M + 1, range(1, M + 2), bracket, _x_chain,
                     head=True, tail=_at("_tail"), name=f"E_{M}")


def build_EM(M: int, A, B, a, b) -> ShiftOperator:
    """The order-(M+2) factor E_M of the Jordan-Pochhammer-type equation in x.

    A, B and the lists a = (a_2..a_{M+3}), b = (b_2..b_{M+3}) are numeric
    constants; the lattice variable is named 'x'.
    """
    _ab_lengths(M, a, b, "build_EM")
    consts = _x_consts(A, B, a, b, range(1, M + 2))
    consts["_tail"] = complex(math.prod(a) / consts["_B"])
    return _bind(_em_shape(M), consts)


@_shape
def _jp_shape(M: int) -> ShiftOperator:
    def bracket(k):
        return _at(f"_ea{k}"), lambda pt, _e=f"_eb{k}": -pt["_qalpha"] * pt[_e]

    return _term_sum("x", {"x": 1}, M + 2, M + 2, range(M + 3), bracket, _x_chain,
                     lag=0, name=f"JP_{M}")


def build_JP_general(M: int, qalpha, A, B, a, b) -> ShiftOperator:
    """Full Jordan-Pochhammer q-difference operator (rank M+3 in T_x):
    sum_{k=0}^{M+2} (-1)^k x^{M+2-k} [e_k(a) T^{-1} - q^alpha e_k(b)]
    prod_{i=0}^{M+1-k} (B - A q^i T) prod_{i=0}^{k-1} (1 - q^{-i} T).

    With q^alpha = q and the balance A a_2..a_{M+3} = q^2 B b_2..b_{M+3} this
    factors as (B - A q^{-1} T)(1 - q^{-1-M} T) E_M.
    """
    _ab_lengths(M, a, b, "build_JP_general")
    consts = _x_consts(A, B, a, b, range(M + 3))
    consts["_qalpha"] = complex(qalpha)
    return _bind(_jp_shape(M), consts)


@_shape
def _em_hat_shape(M: int) -> ShiftOperator:
    an, bn = _names("a", M + 3)[1:], _names("b", M + 3)[1:]

    def bracket(k):
        return _esym(k, an), lambda pt, _e=_esym(k, bn): -pt["q"] * _e(pt)

    return _term_sum("b1", _AB, M + 2, M + 1, range(1, M + 2), bracket, _ab_chain,
                     head=True, tail=lambda pt: math.prod(pt[n] for n in an),
                     name=f"Ehat_{M}")


def build_EM_hat(bp: BalancedParams) -> ShiftOperator:
    """E_M rewritten on the parameter lattice a_1..a_{M+3}, b_1..b_{M+3},
    where T = T_{a_1} T_{b_1} and every coefficient reads the (possibly
    shifted) parameter point."""
    return _em_hat_shape(bp.M)


@_shape
def _three_term_shape(kind: int, k: int, l, M: int) -> ShiftOperator:
    hi = M + 3
    if not 2 <= k <= hi:
        raise IndexError(f"k must lie in 2..{hi}")
    if kind in (1, 3, 5, 6):
        if l is None or not 2 <= l <= hi or l == k:
            raise IndexError(f"l must lie in 2..{hi} and differ from k")
        name = f"3term{kind}[{k},{l}]"
    else:
        name = f"3term{kind}[{k}]"
    ak, al, bk, bl = f"a{k}", f"a{l}", f"b{k}", f"b{l}"
    if kind == 1:
        return _three_term(name, ({ak: 1, al: -1}, _at(al)), ({ak: 1, "a1": -1}, _at("a1")),
                           ({}, lambda pt: pt[ak] * pt["q"]))
    if kind == 2:
        return _three_term(name, ({"a1": 1, ak: -1}, lambda pt: pt[ak] / pt["q"]),
                           ({"a1": 1, "b1": 1}, _at("b1")), ({}, _at("a1")))
    if kind == 3:
        return _three_term(name, ({bk: 1, bl: -1}, _at(bk)), ({"b1": 1, bl: -1}, _at("b1")),
                           ({}, lambda pt: pt[bl] / pt["q"]))
    if kind == 4:
        return _three_term(name, ({bk: 1, "b1": -1}, lambda pt: pt[bk] * pt["q"]),
                           ({"a1": -1, "b1": -1}, _at("a1")), ({}, _at("b1")))
    if kind == 5:
        return _three_term(name, ({ak: 1, bl: 1}, _at(bl)), ({ak: 1, "b1": 1}, _at("b1")),
                           ({}, _at(ak)))
    if kind == 6:
        return _three_term(name, ({ak: -1, bl: -1}, _at(ak)), ({"a1": -1, bl: -1}, _at("a1")),
                           ({}, _at(bl)))
    raise IndexError(f"unknown three-term kind {kind}")


def build_three_term(kind: int, k: int, l, bp: BalancedParams) -> ShiftOperator:
    """Three-term contiguity relations on the a/b lattice, kinds 1..6.

    k (and l where applicable) are 1-based parameter indices in 2..M+3; kinds
    2 and 4 involve only k, and l is ignored there.
    """
    return _three_term_shape(kind, k, l if kind in (1, 3, 5, 6) else None, bp.M)


def _scaling(n: int, coeff, name: str) -> ShiftOperator:
    """coeff T_{a_1}...T_{a_n} T_{b_1}...T_{b_n} - 1."""
    shifts = {v: 1 for v in _names("a", n) + _names("b", n)}
    return op_add(shift_op(shifts, coeff=coeff), const_op(-1.0), name=name)


@_shape
def _scaling_shape(M: int) -> ShiftOperator:
    return _scaling(M + 3, _at("q"), "scaling")


def build_scaling_relation(bp: BalancedParams) -> ShiftOperator:
    """q T_{a_1}...T_{a_{M+3}} T_{b_1}...T_{b_{M+3}} - 1."""
    return _scaling_shape(bp.M)


@_shape
def _hat_limit_shape(M: int, n: int, tail: bool, name: str) -> ShiftOperator:
    """sum_{k=1}^{M+1} (-1)^k b_1^{n-k} [e_{k-1}(a_2..a_n) T^{-1} - q^{lambda+1}
    e_{k-1}(b_2..b_n)] chain(M+1-k) Q(k-1), with the E_M-hat tail if asked;
    q^lambda is the constant _qlam."""
    an, bn = _names("a", n)[1:], _names("b", n)[1:]

    def bracket(k):
        return _esym(k - 1, an), lambda pt, _e=_esym(k - 1, bn): -pt["_qlam"] * pt["q"] * _e(pt)

    last = (lambda pt: math.prod(pt[v] for v in an)) if tail else None
    return _term_sum("b1", _AB, n, M + 1, range(1, M + 2), bracket, _ab_chain,
                     tail=last, name=name)


def build_EM_hat_prime(M: int, qlambda) -> ShiftOperator:
    """First degeneration of E_M-hat: the a_{M+3} -> infinity limit of
    (1/a_{M+3}) E_M-hat on the lattice a_1..a_{M+2}, b_1..b_{M+2}."""
    return _bind(_hat_limit_shape(M, M + 2, True, f"Ehat'_{M}"), {"_qlam": complex(qlambda)})


def build_EM_hat_dprime(M: int, qlambda) -> ShiftOperator:
    """Second degeneration: the a_{M+2} -> 0 limit of E'_M-hat divided by b_1,
    on the lattice a_1..a_{M+1}, b_1..b_{M+1}.  No trailing group survives."""
    return _bind(_hat_limit_shape(M, M + 1, False, f"Ehat''_{M}"), {"_qlam": complex(qlambda)})


def _degene_relations(k: int, l: int) -> list:
    """The four two-index relations of the degenerate system for the pair (k, l)."""
    ak, al, bk, bl = f"a{k}", f"a{l}", f"b{k}", f"b{l}"
    return [
        _three_term(f"degene1[{k},{l}]", ({al: -1}, _at(al)), ({"a1": -1}, _at("a1")),
                    ({ak: -1}, _at(ak))),
        _three_term(f"degene4[{k},{l}]", ({bk: 1}, _at(bk)), ({"b1": 1}, _at("b1")),
                    ({bl: 1}, _at(bl))),
        _three_term(f"degene5[{k},{l}]", ({bl: 1}, _at(bl)), ({"b1": 1}, _at("b1")),
                    ({ak: -1}, lambda pt: pt[ak] / pt["q"])),
        _three_term(f"degene6[{k},{l}]", ({ak: -1}, _at(ak)), ({"a1": -1}, _at("a1")),
                    ({bl: 1}, lambda pt: pt["q"] * pt[bl])),
    ]


@_shape
def _degene_shapes(M: int) -> tuple:
    """E''_M-hat, the two-index relations and the scaling of the degenerate
    system, for the constant _qlam = q^lambda."""
    ops = [_hat_limit_shape(M, M + 1, False, f"Ehat''_{M}")]
    for k, l in itertools.permutations(range(2, M + 2), 2):
        ops += _degene_relations(k, l)
    ops.append(_scaling(M + 1, lambda pt: pt["_qlam"] * pt["q"], "degene-scaling"))
    return tuple(ops)


def build_degene_system(M: int, qlambda) -> list:
    """All members of the degenerate system on a_1..a_{M+1}, b_1..b_{M+1}.

    For M = 1 the two-index families are empty (no pair 2 <= k != l <= M+1),
    leaving the degenerate equation and the scaling relation.
    """
    consts = {"_qlam": complex(qlambda)}
    return [_bind(op, consts) for op in _degene_shapes(M)]


@_shape
def _qal_shapes(M: int) -> tuple:
    """The q-Appell-Lauricella relations for the constants _A, _B{i} and _C."""
    I = const_op(1.0)
    ops = []
    T_all = shift_op({f"x{i}": 1 for i in range(1, M + 1)})

    def T(i):
        return shift_op({f"x{i}": 1})

    def xc(i):
        return const_op(_at(f"x{i}"))

    def TB(i):
        return op_scale(T(i), _at(f"_B{i}"))

    for i in range(1, M + 1):
        for j in range(i + 1, M + 1):
            lhs = op_product([xc(i), op_sub(I, T(j)), op_sub(I, TB(i))])
            rhs = op_product([xc(j), op_sub(I, T(i)), op_sub(I, TB(j))])
            ops.append(op_sub(lhs, rhs, name=f"qal1[{i},{j}]"))
    for i in range(1, M + 1):
        first = op_multiply(
            op_sub(I, T(i)),
            op_add(I, op_scale(T_all, lambda pt: -pt["_C"] / pt["q"])),
        )
        second = op_product([xc(i), op_sub(I, TB(i)), op_sub(I, op_scale(T_all, _at("_A")))])
        ops.append(op_sub(first, second, name=f"qal2[{i}]"))
    return tuple(ops)


def build_qal_system(M: int, p) -> list:
    """The q-Appell-Lauricella system on x_1..x_M: M(M-1)/2 mixed relations
    plus M principal ones.  p carries the constants A, B (per-variable), C."""
    Bs = [complex(b) for b in p.B]
    if len(Bs) != M or len(p.x) != M:
        raise DomainError("build_qal_system needs M entries in B and x")
    consts = {"_A": complex(p.A), "_C": complex(p.C)}
    consts.update((f"_B{i}", b) for i, b in enumerate(Bs, start=1))
    return [_bind(op, consts) for op in _qal_shapes(M)]


def independence_check(bp: BalancedParams, ctx: QContext) -> bool:
    """Wronskian-style test that phi_{i,M+3}, i = 2..M+2, are independent over
    the field of T-constants, probing with T = T_{a_1} T_{b_1}.

    Row n holds phi_{i,M+3} = J(q/a_{M+3}) - J(q/a_i) at the n-times shifted
    parameters, J = jackson_0_to of that row's integrand, as rp_integral
    takes it; the shared J(q/a_{M+3}) is summed once per row."""
    M = bp.M
    size = M + 1
    if any(v == 0 for v in bp.a[1:]):
        raise DomainError("independence_check needs a_2, ..., a_{M+3} != 0 (endpoints q/a_i)")
    mat = np.zeros((size, size), dtype=complex)
    for n in range(size):
        a = list(bp.a)
        b = list(bp.b)
        a[0] *= ctx.q ** n
        b[0] *= ctx.q ** n
        psi = rp_integrand(BalancedParams(a=tuple(a), b=tuple(b)), ctx)
        top = jackson_0_to(ctx.q / a[M + 2], psi, ctx)
        for col, i in enumerate(range(2, M + 3)):
            mat[n, col] = top - jackson_0_to(ctx.q / a[i - 1], psi, ctx)
    det = np.linalg.det(mat)
    scale = 1.0
    for n in range(size):
        scale *= np.linalg.norm(mat[n])
    return bool(abs(det) > 1e-8 * scale)
