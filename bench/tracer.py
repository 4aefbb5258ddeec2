"""Span tracer for the traced benchmark run.

It wraps every public function of the package's layer modules and records
one span per call: name, start, end, parent span, op id, whether it
raised, and a few counts read from the call's arguments or result.  Spans
stay in memory until the run ends.

The modules bind each other's functions with ``from .x import y`` (and
``attack`` does so inside function bodies), so a wrapper is installed in
every ``liftguard`` module namespace that holds the original function
object, not only in the defining module.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
from time import perf_counter

import numpy as np

LAYERS = ("cli", "model", "linalg", "zeros", "factor", "lift", "attack", "sim", "verify")

# Span field positions.
NAME, START, END, PARENT, OP, FAILED, INFO = range(7)


def _input_key(args, kwargs) -> str:
    """Digest of a call's arguments, reading array fields of objects."""
    h = hashlib.blake2b(digest_size=12)
    for a in args + tuple(kwargs.values()):
        for v in (vars(a).values() if hasattr(a, "__dict__") else (a,)):
            h.update(v.tobytes() if isinstance(v, np.ndarray) else repr(v).encode())
    return h.hexdigest()


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _sim_info(args, kwargs, result):
    # Only rows the engine materialized count: a lazily computed field is
    # absent from the instance dict until something reads it.
    rows = vars(result).get("y_intersample")
    return {"base_steps": _arg(args, kwargs, 0, "cfg").horizon,
            "intersample_rows": 0 if rows is None else len(rows)}


# Counts read at the layer boundary from (args, kwargs, result).
RESULT_PROBES = {
    "sim.run_single_rate": _sim_info,
    "sim.run_dual_rate": _sim_info,
    "sim.trace_to_csv": lambda a, k, r: {"csv_rows": len(_arg(a, k, 0, "trace").y)},
}
# Functions whose distinct inputs are counted; the key is taken before the
# call, so calls that raise count too.
KEYED = ("model.discretize", "lift.build_lifted")


def _probe(read) -> dict:
    """A probe that no longer fits the package must not change what the
    program does; its error is kept and reported after the run."""
    try:
        return read()
    except Exception as exc:
        return {"probe_error": f"{type(exc).__name__}: {exc}"}


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patched = []  # (namespace, attribute, original)
        self.functions = []  # qualified names of every wrapped function

    def _wrap(self, qualname, fn):
        spans, stack = self.spans, self._stack
        keyed = qualname in KEYED
        result_probe = RESULT_PROBES.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = _probe(lambda: {"key": _input_key(args, kwargs)}) if keyed else None
            span = [qualname, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, info]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if result_probe:
                span[INFO] = _probe(lambda: result_probe(args, kwargs, result))
            return result

        return wrapper

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"liftguard.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    qualname = f"{layer}.{name}"
                    wrappers[id(obj)] = (obj, self._wrap(qualname, obj))
                    self.functions.append(qualname)
        for modname, mod in list(sys.modules.items()):
            if modname != "liftguard" and not modname.startswith("liftguard."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        self.functions.sort()

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list:
    """Span duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def outermost(spans, index) -> bool:
    """True when no ancestor span has the same name (no double counting
    of inclusive time under recursion)."""
    name, parent = spans[index][NAME], spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return False
        parent = spans[parent][PARENT]
    return True
