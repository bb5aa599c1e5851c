"""Per-layer spans for the benchmark, installed from outside the package.

Every public function that one qhyper module imports from another is replaced,
in the importing module's namespace, by a wrapper that records a span
(name, layer, start, end, parent, root) in memory.  Two methods that sit on
layer boundaries without being imported by name get the same treatment:
``LatticeFunction.cached`` (memo lookups and misses) and ``IdentityCase.draw``
(the seeded rejection sampler).  The wrappers are in place only inside
``with tracer:``; leaving the block puts every original back, so untraced
checks run the unmodified package.

Calls inside one module (``rphis`` calling ``sum_shells``, ``jackson_between``
calling ``jackson_0_to``) are not wrapped: a span marks a crossing between
layers, and the callee's time lands in the caller's span of the same layer.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from math import comb

LAYERS = ("qcore", "series", "jackson", "operators", "identities")
# modules whose imported names are wrapped; cli is outside the check path
IMPORTERS = ("identities", "operators", "series", "jackson")


def _series_dim(name, sig, args, kwargs):
    """Summation dimension M of a series-layer call, or None when the call's
    arguments do not say (a name or signature this table does not know)."""
    try:
        bound = sig.bind(*args, **kwargs).arguments
        if name == "sum_shells":
            return int(bound["M"])
        if name in ("rphis", "vwp_W", "bilateral_psi"):
            return 1
        if name == "W_normalized":
            return bound["bp"].M
        if name == "degene_solution":
            return len(bound["a"]) - 1
        if name in ("kajihara_W", "phi_D", "qal_solution"):
            return len(bound["p"].x)
    except (TypeError, KeyError, AttributeError):
        pass
    return None


class Tracer:
    """Spans and counters of one traced pass; single-threaded by design."""

    def __init__(self, pkg):
        self.spans = []  # [name, layer, start, end, parent, root, error type]
        self.series = []  # (span index, dim, shells_used or None, converged or None)
        self.memo_lookups = 0
        self._stack = []
        self._wrappers = self._targets(pkg)
        self._originals = [(owner, attr, vars(owner)[attr])
                           for owner, attr, _ in self._wrappers]

    # -------------------------------------------------------------- recording

    def call(self, layer, name, fn, *args, **kwargs):
        spans = self.spans
        idx = len(spans)
        parent = self._stack[-1] if self._stack else -1
        root = spans[parent][5] if parent >= 0 else idx
        rec = [name, layer, 0.0, 0.0, parent, root, None]
        spans.append(rec)
        self._stack.append(idx)
        rec[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            rec[6] = type(exc)
            raise
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer, name, fn):
        tracer = self
        if layer == "series":
            sig = inspect.signature(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                dim = _series_dim(name, sig, args, kwargs)
                idx = len(tracer.spans)
                try:
                    res = tracer.call(layer, name, fn, *args, **kwargs)
                except BaseException:
                    tracer.series.append((idx, dim, None, None))
                    raise
                used = getattr(res, "shells_used", None)
                tracer.series.append((idx, dim, used, getattr(res, "converged", None)))
                return res
        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.call(layer, name, fn, *args, **kwargs)

        return wrapper

    # ----------------------------------------------------------- installation

    def _targets(self, pkg):
        """(owner, attribute, wrapper) for every boundary this tracer wraps.

        A boundary a later version of the package no longer has is skipped,
        and the metrics drawn from it read 0."""
        targets = []
        for mod_name in IMPORTERS:
            mod = getattr(pkg, mod_name)
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if obj.__module__.startswith("qhyper.") and layer != mod_name and layer in LAYERS:
                    targets.append((mod, attr, self._wrap(layer, attr, obj)))

        tracer = self
        lattice_cls = getattr(pkg.operators, "LatticeFunction", object)
        case_cls = getattr(pkg.identities, "IdentityCase", object)
        if isinstance(vars(lattice_cls).get("cached"), classmethod):
            orig_cached = vars(lattice_cls)["cached"].__func__

            def cached(cls, base, fn):
                def miss(offsets):
                    return tracer.call("identities", "lattice_eval", fn, offsets)

                lf = orig_cached(cls, base, miss)
                inner = lf.eval

                def lookup(offsets):
                    tracer.memo_lookups += 1
                    return inner(offsets)

                lf.eval = lookup
                return lf

            targets.append((lattice_cls, "cached", classmethod(cached)))
        if inspect.isfunction(vars(case_cls).get("draw")):
            targets.append((case_cls, "draw", self._wrap("identities", "draw", case_cls.draw)))
        return targets

    def __enter__(self):
        for owner, attr, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- summary

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        return own

    def summary(self, qhyper_error):
        """Layer counters and times of this pass (all plain numbers)."""
        own = self.self_times()
        self_s = defaultdict(float)
        calls = defaultdict(int)
        raised = defaultdict(int)
        counts = defaultdict(float)
        for s, t in zip(self.spans, own):
            name, layer = s[0], s[1]
            self_s[layer] += t
            if layer != "identities":  # check, draw and lattice_eval call no other layer
                calls[layer] += 1
            if name == "draw":
                counts["draws"] += 1
                counts["draw_s"] += s[3] - s[2]
            elif name == "lattice_eval":
                counts["memo_misses"] += 1
            elif name in ("residual", "op_apply"):
                counts["residual_calls"] += 1
            if s[6] is not None and issubclass(s[6], qhyper_error):
                raised[layer] += 1
        dim_self = defaultdict(float)
        dim_calls = defaultdict(int)
        dim_terms = defaultdict(int)
        shells = results = converged = 0
        for idx, dim, used, conv in self.series:
            key = f"M{dim}"  # "MNone" when the arguments did not tell
            dim_self[key] += own[idx]
            dim_calls[key] += 1
            if used is not None:
                results += 1
                shells += used
                converged += bool(conv)
                if dim is not None:
                    # compositions of every degree below shells_used: C(S + M - 1, M)
                    dim_terms[key] += comb(used + dim - 1, dim)
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "raised": dict(raised),
            "counts": dict(counts),
            "memo_lookups": self.memo_lookups,
            "series_shells": shells,
            "series_results": results,
            "series_converged": converged,
            "dim_self_s": dict(dim_self),
            "dim_calls": dict(dim_calls),
            "dim_terms": dict(dim_terms),
        }

    def write(self, path):
        """Spans as JSON lines (times in seconds relative to the first span)."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s[0], "layer": s[1], "start": s[2] - t0,
                       "end": s[3] - t0, "parent": s[4], "root": s[5]}
                if s[6] is not None:
                    rec["error"] = s[6].__name__
                fh.write(json.dumps(rec) + "\n")
