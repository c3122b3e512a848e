"""In-process span recorder for one traced CLI invocation.

The recorder wraps the public functions of every ``holoflat`` module from
outside the package: nothing under ``src/`` knows it is being traced.  A span
is ``[name, start, end, parent, attrs]``; spans stay in memory and are handed
to the caller when the invocation ends.  Self time is derived later, in the
parent process, by subtracting child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import types

import numpy as np

# Modules whose public functions are layers.  ``geometry`` is wrapped too, but
# the benchmark only counts its calls (one chart build per process dominates).
LAYER_MODULES = (
    "quadrature",
    "hilbert",
    "cylinder",
    "operators",
    "propagator",
    "validation",
    "io",
    "cli",
    "geometry",
)

# Bytes of the M x M temporaries the chunked step-matrix loop materialises
# per node pair: eleven complex128 arrays (K, K_H, delta*K_H, the ratio,
# four Cayley intermediates, the Cayley quotient, K*cayley, E*w), three
# float64 arrays (|K|, |K_H|, guard*|K_H|) and one bool mask.
STEP_BYTES_PER_PAIR = 11 * 16 + 3 * 8 + 1


class Recorder:
    """Stack-based span recorder; single-threaded, like the CLI."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1], None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if attrs:
            span[4] = attrs
        self._stack.pop()


def _bound_args(fn, args, kwargs) -> dict:
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return bound.arguments


def _size(x) -> int:
    return int(np.size(x))


class _Hooks:
    """Attributes recorded at specific layer boundaries (work counts)."""

    def __init__(self, quadrature_module):
        self._cache = getattr(quadrature_module, "_hermite_rule_cached", None)
        self._seen_orders: set = set()

    def hermite_misses(self):
        if self._cache is not None and hasattr(self._cache, "cache_info"):
            return self._cache.cache_info().misses
        return None

    def hermite_cold(self, before, order) -> bool:
        # Cold means an lru_cache miss; without that cache, the first call
        # for an order in this process is the cold one.
        after = self.hermite_misses()
        if before is not None and after is not None:
            return after > before
        key = int(order)
        cold = key not in self._seen_orders
        self._seen_orders.add(key)
        return cold


def _step_matrix_attrs(fn, args, kwargs) -> dict:
    a = _bound_args(fn, args, kwargs)
    kernel, rule = a.get("kernel"), a.get("rule")
    if kernel is None or rule is None:
        return {}
    nb = len(kernel.basis.labels)
    m = int(rule.order) ** int(rule.dims)
    pairs = m * m
    # Complex multiply-adds of the four matmuls per chunk (K, K_H, the step
    # applied to the basis, and the projection), at 8 real flops each.
    flops = 8 * (3 * pairs * nb + m * nb * nb)
    return {
        "nodes": m,
        "basis_size": nb,
        "node_pairs": pairs,
        "bytes": STEP_BYTES_PER_PAIR * pairs,
        "flops": flops,
    }


def _gram_attrs(fn, args, kwargs) -> dict:
    a = _bound_args(fn, args, kwargs)
    basis = a.get("basis")
    quad = bool(a.get("force_quadrature")) or getattr(basis, "closed_form_inner", 1) is None
    return {"quad": quad}


def _chart_key(chart, rule, extended):
    return (
        int(chart.n),
        chart.tangent_transform.tobytes(),
        tuple(chart.periods),
        int(rule.order),
        int(rule.dims),
        bool(extended),
    )


def install(rec: Recorder) -> None:
    """Replace every public ``holoflat`` function, in every module namespace
    that bound it, by a span-recording wrapper."""
    mods = {
        name: mod
        for name, mod in sys.modules.items()
        if isinstance(mod, types.ModuleType)
        and (name == "holoflat" or name.startswith("holoflat."))
    }
    hooks = _Hooks(mods.get("holoflat.quadrature"))
    wrappers: dict[int, object] = {}

    for short in LAYER_MODULES:
        mod = mods.get("holoflat." + short)
        if mod is None:
            continue
        public = getattr(mod, "__all__", None) or [a for a in vars(mod) if not a.startswith("_")]
        for attr in public:
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[id(fn)] = _wrap(rec, hooks, f"{short}.{attr}", fn)

    hilbert = mods.get("holoflat.hilbert")
    kernel_cls = getattr(hilbert, "KernelRep", None)
    for meth in ("eval", "eval_grid"):
        fn = getattr(kernel_cls, meth, None)
        if inspect.isfunction(fn):
            setattr(kernel_cls, meth, _wrap(rec, hooks, f"hilbert.KernelRep.{meth}", fn))

    for mod in mods.values():
        for attr, val in list(vars(mod).items()):
            w = wrappers.get(id(val))
            if w is not None:
                setattr(mod, attr, w)

    validation = mods.get("holoflat.validation")
    criteria = getattr(validation, "CRITERIA", None)
    if isinstance(criteria, tuple):
        validation.CRITERIA = tuple(_wrap_criterion(rec, fn) for fn in criteria)


def _wrap_criterion(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin("validation." + fn.__name__)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.end(idx)
            name = getattr(result, "name", None)
            if name:
                rec.spans[idx][0] = "validation." + name

    return wrapper


def _wrap(rec: Recorder, hooks: _Hooks, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        return _wrap_generator(rec, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = None
        misses = None
        if name.startswith("quadrature.hermite_rule"):
            misses = hooks.hermite_misses()
        elif name == "hilbert.gram_matrix":
            attrs = _gram_attrs(fn, args, kwargs)
        elif name == "propagator.step_matrix":
            attrs = _step_matrix_attrs(fn, args, kwargs)
        elif name == "hilbert.KernelRep.eval" and len(args) >= 3:
            attrs = {"values": int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)}
        elif name == "hilbert.KernelRep.eval_grid" and len(args) >= 3:
            attrs = {"values": _size(args[1]) * _size(args[2])}
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            if name.startswith("quadrature.hermite_rule"):
                order = _bound_args(fn, args, kwargs).get("order", 0)
                attrs = {"cold": hooks.hermite_cold(misses, order)}
            elif name == "io.write_output":
                attrs = _write_attrs(fn, args, kwargs)
            rec.end(idx, attrs)
        return result

    return wrapper


def _write_attrs(fn, args, kwargs) -> dict:
    output = _bound_args(fn, args, kwargs).get("output")
    if output and os.path.exists(output):
        return {"bytes": os.path.getsize(output)}
    return {}


def _wrap_generator(rec: Recorder, name: str, fn):
    # A generator's own work runs inside each resume, interleaved with its
    # consumer's; every resume is one span, the first one carries the counts.
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        key = None
        if name == "quadrature.tangent_blocks":
            a = _bound_args(fn, args, kwargs)
            if a.get("chart") is not None and a.get("rule") is not None:
                key = _chart_key(a["chart"], a["rule"], a.get("extended", False))
        gen = fn(*args, **kwargs)
        first = True
        while True:
            idx = rec.begin(name)
            attrs = {"call": 1, "grid": repr(key)} if first else {}
            first = False
            item = None
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                if isinstance(item, tuple) and len(item) == 2:
                    attrs["nodes"] = _size(item[1])
                rec.end(idx, attrs or None)
            yield item

    return wrapper
