"""Span tracing of the cryptoherm layers, installed from outside the package.

``Tracer.installed()`` wraps the public functions of each module and the
methods named below.  A function is rebound in every cryptoherm module that
holds it, so callers that imported it by name (``quasistationary`` importing
``biorthogonal_decompose``, ``metric`` and ``models`` importing ``invert``,
``cli`` importing the certifier and the metric builders) see the wrapper too.
The samplers are wrapped in ``quasistationary.SAMPLERS``, where ``qs_scan``
looks up the sampler name the CLI hands it.  Everything is restored on exit.

A span is (key, start, end, parent, op id), kept in flat arrays and written
out at the end.  A span's self time is its duration minus the durations of
its direct children; the benchmark opens one root span (key ``op``) per op,
so the self times of an op's spans partition its traced wall time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

import numpy as np

ROOT = "op"
SAMPLE = "quasistationary.sample"

#: (module, function, key); functions sharing a key share its self time
FUNCTIONS = (
    ("evolution", "propagate_pair", "evolution"),
    ("evolution", "propagate_naive", "evolution"),
    ("evolution", "evolution_operators", "evolution"),
    ("evolution", "crosscheck_pictures", "evolution"),
    ("evolution", "propagate_h", "evolution.propagate_h"),
    ("metric", "metric_from_spectral", "metric.metric_from_spectral"),
    ("metric", "hermitize", "metric.hermitize"),
    ("linalg", "biorthogonal_decompose", "linalg.biorthogonal_decompose"),
    ("linalg", "invert", "linalg.invert"),
    ("quasistationary", "qs_scan", "quasistationary.qs_scan"),
    ("quasistationary", "qs_certify", "quasistationary.qs_certify"),
    ("quasistationary", "qs_solve", "quasistationary.qs_solve"),
    ("models", "scenario_random", "models.scenario_random"),
    ("cli", "main", "cli.main"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run", "cli.run"),
)

#: (module, class, method, key)
METHODS = (
    ("evolution", "TaylorHamiltonian", "evaluate", "evolution.evaluate"),
    ("metric", "DysonFamily", "omega", "metric.omega"),
    ("metric", "DysonFamily", "omega_inv", "metric.omega_inv"),
    ("metric", "DysonFamily", "connection", "metric.connection"),
)

KEYS = tuple(
    dict.fromkeys([ROOT, SAMPLE] + [f[2] for f in FUNCTIONS] + [m[3] for m in METHODS])
)

#: states integrated per substep by each propagator
_STATES = {"propagate_pair": 2, "propagate_naive": 2, "evolution_operators": 2, "propagate_h": 1}


def _module(name: str):
    return importlib.import_module(f"cryptoherm.{name}")


class Tracer:
    """Records spans and counters while installed; one instance per traced phase."""

    def __init__(self):
        self._index = {key: i for i, key in enumerate(KEYS)}
        self.key = array("h")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op_id = -1
        self.counters: Counter = Counter()

    # -- spans ---------------------------------------------------------------

    def _enter(self, k: int) -> int:
        idx = len(self.key)
        self.key.append(k)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _exit(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int):
        self._op_id = op_id
        self._root = self._enter(self._index[ROOT])

    def end_op(self):
        self._exit(self._root)
        self._op_id = -1

    def wrap(self, fn, key: str, count=None):
        """``fn`` recording a span under ``key``; ``count(args, kwargs, result)``
        runs after the span closes (``result`` is None if ``fn`` raised)."""
        k = self._index[key]
        enter, exit_ = self._enter, self._exit

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(k)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                exit_(idx)
                if count is not None:
                    count(args, kwargs, result)

        return traced

    # -- counters ------------------------------------------------------------

    def _substep_counter(self, fn, states: int):
        signature = inspect.signature(fn)

        def count(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            grid = np.asarray(bound.arguments["grid"], dtype=float)
            per_state = int(np.rint(np.diff(grid) / bound.arguments["step"]).sum())
            self.counters["evolution.substeps"] += states * per_state

        return count

    def _certify_counter(self, args, kwargs, cert):
        self.counters["quasistationary.trials"] += 1
        if cert is not None and cert.status in ("compatible", "incompatible"):
            self.counters["quasistationary.decided"] += 1

    def _bytes_counter(self, args, kwargs, paths):
        self.counters["cli.bytes_written"] += sum(p.stat().st_size for p in paths or ())

    def _counter_for(self, name: str, fn):
        if name in _STATES:
            return self._substep_counter(fn, _STATES[name])
        if name == "qs_certify":
            return self._certify_counter
        if name == "run":
            return self._bytes_counter
        return None

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap the traced functions and methods; restore them on exit."""
        for name in {f[0] for f in FUNCTIONS} | {m[0] for m in METHODS}:
            _module(name)
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "cryptoherm"]
        undo = []
        try:
            for mod_name, fn_name, key in FUNCTIONS:
                original = getattr(_module(mod_name), fn_name)
                wrapper = self.wrap(original, key, self._counter_for(fn_name, original))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, attr, original))
                            setattr(module, attr, wrapper)
            for mod_name, cls_name, meth, key in METHODS:
                cls = getattr(_module(mod_name), cls_name)
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(original, key))
            samplers = _module("quasistationary").SAMPLERS
            originals = dict(samplers)
            for name, fn in originals.items():
                samplers[name] = self.wrap(fn, SAMPLE)
            try:
                yield self
            finally:
                samplers.update(originals)
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict:
        # copies, so that the record arrays stay appendable
        key = np.frombuffer(self.key, dtype=np.int16).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        duration = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=key.size)
        return {
            "key": key,
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": start,
            "end": end,
            "self": duration - child,
        }

    def totals(self, in_ops: bool = True) -> tuple[dict, dict]:
        """Self seconds and call counts per key, over spans inside ops
        (``in_ops``) or outside them."""
        a = self.arrays()
        sel = (a["op"] >= 0) if in_ops else (a["op"] < 0)
        n = len(KEYS)
        self_s = np.bincount(a["key"][sel], weights=a["self"][sel], minlength=n)
        calls = np.bincount(a["key"][sel], minlength=n)
        return (
            {k: float(self_s[i]) for i, k in enumerate(KEYS)},
            {k: int(calls[i]) for i, k in enumerate(KEYS)},
        )

    def op_wall_seconds(self) -> float:
        """Summed duration of the root spans."""
        a = self.arrays()
        root = a["key"] == self._index[ROOT]
        return float((a["end"][root] - a["start"][root]).sum())

    def save(self, path, **meta):
        a = self.arrays()
        np.savez_compressed(
            path,
            keys=np.array(KEYS),
            key=a["key"].astype(np.int16),
            parent=a["parent"],
            op=a["op"],
            start=a["start"],
            end=a["end"],
            **{k: np.array(v) for k, v in meta.items()},
        )
