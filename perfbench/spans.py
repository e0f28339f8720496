"""Spans around the public functions of each gencusp layer, recorded from
outside the library.

``Tracer.install`` rebinds each traced function, in every ``gencusp``
module namespace that holds it (``verify`` and ``cli`` bind many functions
directly, and module-internal calls go through the module's own globals), to
a wrapper that records a span: name, start, end, parent span and operation
id. Spans live in flat arrays while the run lasts and are written out once
at the end; self time is derived from them afterwards.
"""

import json
import os
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, function) pairs traced as spans; the span name is
# "<module>.<function>".
TRACED = [
    ("linalg", "expm"),
    ("linalg", "newton_to_elementary"),
    ("cusp_groups", "build_marked_cusp"),
    ("cusp_groups", "rho"),
    ("cusp_groups", "orbit_point"),
    ("invariants", "weights_of"),
    ("invariants", "complete_invariant"),
    ("invariants", "weight_data"),
    ("invariants", "are_conjugate"),
    ("invariants", "eta_distance"),
    ("invariants", "recover_psi_from_invariant"),
    ("invariants", "realize_weight_data"),
    ("invariants", "linear_sum_assignment"),
    ("shape", "shape_invariant"),
    ("shape", "fit_height_jet"),
    ("shape", "height_at"),
    ("shape", "cubic_from_weights"),
    ("shape", "sphere_local_maxima"),
    ("shape", "recover_cusp_from_shape"),
    ("dim3", "coords_from_shape"),
    ("dim3", "export_mesh_csv"),
    ("dim3", "export_mesh_obj"),
]


def _shape_invariant_name(args, kwargs):
    method = kwargs.get("method", args[1] if len(args) > 1 else "fit")
    return "shape.shape_invariant_%s" % method


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.op = array("l")
        self.raised = array("b")
        self.counters = {}
        self.op_id = -1
        self.enabled = True
        self._stack = []
        self._undo = []

    def _name_id(self, label):
        idx = self._name_ids.get(label)
        if idx is None:
            idx = self._name_ids[label] = len(self.names)
            self.names.append(label)
        return idx

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, label, fn, name_of=None, on_result=None):
        fixed = self._name_id(label) if name_of is None else None

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(fixed if name_of is None else self._name_id(name_of(args, kwargs)))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.raised.append(1)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                self.raised[idx] = 0
                return result
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                if on_result is not None and not self.raised[idx]:
                    on_result(self, args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def install(self, hooks=None):
        """Rebind every traced function in every loaded gencusp module;
        ``hooks`` maps a span name to an ``on_result(tracer, args, kwargs,
        result)`` callback."""
        hooks = hooks or {}
        mods = [m for k, m in sys.modules.items() if k == "gencusp" or k.startswith("gencusp.")]
        for mod_name, fn_name in TRACED:
            label = "%s.%s" % (mod_name, fn_name)
            orig = getattr(sys.modules["gencusp." + mod_name], fn_name)
            name_of = _shape_invariant_name if label == "shape.shape_invariant" else None
            wrapped = self.wrap(label, orig, name_of, hooks.get(label))
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
                        self._undo.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo = []

    def arrays(self):
        # copies: an array exporting its buffer could no longer grow
        return (
            np.array(self.start, dtype=float),
            np.array(self.end, dtype=float),
            np.array(self.parent, dtype=np.int64),
            np.array(self.name, dtype=np.int64),
            np.array(self.raised, dtype=np.int8),
        )

    def summary(self):
        """Per span name: calls, total seconds, self seconds, raised count."""
        start, end, parent, name, raised = self.arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=self_time, minlength=k)
        fails = np.bincount(name, weights=raised, minlength=k)
        return {
            label: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(selfs[i]),
                "raised": int(fails[i]),
            }
            for i, label in enumerate(self.names)
        }

    def write(self, path):
        """Spans as one .npz (times relative to the first span) plus the
        name table and counters."""
        start, end, parent, name, raised = self.arrays()
        t0 = float(start.min()) if len(start) else 0.0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            start=start - t0,
            end=end - t0,
            parent=parent,
            name=name,
            op=np.array(self.op, dtype=np.int64),
            raised=raised,
            names=np.array(json.dumps(self.names)),
            counters=np.array(json.dumps(self.counters)),
        )
