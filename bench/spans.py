"""In-memory span tracer for the traced benchmark run.

`Tracer.install()` wraps, from outside the library, every public function
of the seven equilib modules at each name it is bound to (so
`equilib.solvers.residual_report` and `equilib.cli.residual_report` both
record), the public methods of the force-law classes, and construction
(`__post_init__`) plus the public methods of the configuration classes.
A wrapper records a span only while `Tracer.active` is set, which the
worker sets around the timed library call alone, so warm-up and output
checks leave no spans.

Each span holds a name, a start, an end, its parent span and the op id.
Spans live in flat arrays (about 28 bytes each) and are analysed once
the run ends; the first pass's spans are then written out.  A layer's
self time is the duration of its spans minus the parts covered by their
child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = (
    "force_laws",
    "configurations",
    "residuals",
    "solvers",
    "certificates",
    "diagnostics",
    "cli",
)

ROOT = "bench.op"
_SCALAR_METHODS = {"force", "potential", "force_derivative"}
_ARRAY_METHODS = {"force_array", "potential_array", "force_derivative_array"}
_TAIL_CALLS = {"force_sum_arithmetic", "tail_force_bound"}
_TAIL_TIME = _TAIL_CALLS | {"arithmetic_sum"}
_CERTIFIED = {
    "residual_report",
    "side_forces",
    "circle_residual_report",
    "circle_pair_contribution",
    "side_force_components:certified",
}
_FAST = {"net_rightward_at", "side_force_components:fast"}
SOLVER_ENTRIES = {
    "solve_circle_equilibrium": "circle",
    "solve_zero_centered": "zero_centered",
    "solve_pinned_segment": "segment",
    "extend_right": "extend",
}
_CONFIG_CLASSES = ("LineConfig", "CircleConfig", "TailModel")


def _layer_of(fn) -> str | None:
    package, _, layer = fn.__module__.rpartition(".")
    return layer if package == "equilib" and layer in LAYERS else None


class Tracer:
    """Span recorder; one per traced worker process."""

    def __init__(self) -> None:
        self.active = False
        self.op_id = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.array_elems = 0
        self._wrapped: dict[int, object] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, call):
        """Run one timed op with spans on, under a `bench.op` root span."""
        self.op_id = op_id
        self.active = True
        idx = self._open(self._id(ROOT))
        try:
            return call()
        finally:
            self._close(idx)
            self.active = False

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        key = id(fn)
        if key in self._wrapped:
            return self._wrapped[key]
        tracer = self
        name_id = self._id(name)
        short = name.rpartition(".")[2]

        if short == "side_force_components":
            certified_id = self._id(name + ":certified")
            fast_id = self._id(name + ":fast")

            def pick(args, kwargs) -> int:
                certified = kwargs.get("certified", args[6] if len(args) > 6 else True)
                return certified_id if certified else fast_id

        else:

            def pick(args, kwargs) -> int:
                return name_id

        count_elems = short in _ARRAY_METHODS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if count_elems:
                tracer.array_elems += int(np.size(args[1]))
            idx = tracer._open(pick(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        self._wrapped[key] = wrapper
        return wrapper

    def _wrap_class(self, cls, layer: str, extra: tuple[str, ...] = ()) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(raw, name))

    def install(self) -> None:
        """Wrap the library's public surface; call once, before any op."""
        modules = [importlib.import_module(f"equilib.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("equilib"))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = _layer_of(obj)
                if layer is not None:
                    setattr(module, attr, self._wrap(obj, f"{layer}.{obj.__name__}"))
        force_laws = modules[0]
        for obj in list(vars(force_laws).values()):
            if inspect.isclass(obj) and issubclass(obj, force_laws.ForceLaw):
                self._wrap_class(obj, "force_laws")
        configurations = modules[1]
        for cls_name in _CONFIG_CLASSES:
            self._wrap_class(
                getattr(configurations, cls_name), "configurations", ("__post_init__",)
            )

    # -- analysis -----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def layers_seen(self) -> set[str]:
        used = set(np.unique(np.frombuffer(self.name, dtype=np.int32)).tolist())
        return {self.names[i].partition(".")[0] for i in used} & set(LAYERS)

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op span counts and self times, keyed by per-layer metric name."""
        n = len(self.start)
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - covered
        k = len(self.names)
        count_by = np.bincount(names, minlength=k)
        self_by = np.bincount(names, weights=self_s, minlength=k)

        def short(nm: str) -> str:
            return nm.rpartition(".")[2]

        def layer(nm: str) -> str:
            return nm.partition(".")[0]

        # A residuals evaluation counts once, at its outermost residuals span:
        # net_rightward_at -> side_force_components is one fast evaluation.
        is_residuals = np.array([layer(nm) == "residuals" for nm in self.names], dtype=bool)
        nested = has_parent & is_residuals[names[np.where(has_parent, parents, 0)]]
        outer_count_by = np.bincount(names[~nested], minlength=k)

        def total(select, counts=count_by) -> tuple[int, float]:
            ids = [i for i, nm in enumerate(self.names) if select(nm)]
            return int(counts[ids].sum()), float(self_by[ids].sum())

        scalar_calls, _ = total(
            lambda nm: layer(nm) == "force_laws" and nm.count(".") == 2
            and short(nm) in _SCALAR_METHODS
        )
        array_calls, _ = total(lambda nm: layer(nm) == "force_laws" and short(nm) in _ARRAY_METHODS)
        tail_calls, _ = total(lambda nm: layer(nm) == "force_laws" and short(nm) in _TAIL_CALLS)
        _, tail_s = total(lambda nm: layer(nm) == "force_laws" and short(nm) in _TAIL_TIME)
        out = {
            "force_laws.scalar_calls": scalar_calls,
            "force_laws.array_calls": array_calls,
            "force_laws.tail_sum_calls": tail_calls,
            "force_laws.tail_sum_s": tail_s,
        }
        for lay in ("force_laws", "configurations", "certificates", "diagnostics", "cli"):
            calls, secs = total(lambda nm, lay=lay: layer(nm) == lay)
            out[f"{lay}.self_s"] = secs
            if lay in ("configurations", "certificates", "cli"):
                out[f"{lay}.calls"] = calls
        for key, members in (("certified", _CERTIFIED), ("fast", _FAST)):
            calls, secs = total(
                lambda nm, m=members: layer(nm) == "residuals" and short(nm) in m,
                outer_count_by,
            )
            out[f"residuals.{key}_calls"] = calls
            out[f"residuals.{key}_s"] = secs
        # Solver and reconstruct phases: self time of every span of the layer
        # that runs inside the entry call (entries may nest public helpers).
        # Spans are numbered in start order, so a parent precedes its children.
        entry_of = {**{e: f"solvers.{kind}" for e, kind in SOLVER_ENTRIES.items()},
                    "reconstruct_left_tail": "diagnostics.reconstruct"}
        phase_s = dict.fromkeys(entry_of.values(), 0.0)
        phase_of: dict[int, str] = {}
        ids = [j for j, nm in enumerate(self.names) if layer(nm) in ("solvers", "diagnostics")]
        for i in np.nonzero(np.isin(names, ids))[0].tolist():
            key = entry_of.get(short(self.names[names[i]])) or phase_of.get(int(parents[i]))
            if key is not None:
                phase_of[i] = key
                phase_s[key] += float(self_s[i])
        out.update({f"{key}.s": secs for key, secs in phase_s.items()})
        per_op = {key: value / ops for key, value in out.items()}
        per_op["force_laws.array_elems_per_call"] = (
            self.array_elems / array_calls if array_calls else 0.0
        )
        return per_op

    def write(self, path, ops_per_pass: int) -> None:
        """Write the first pass's spans to an .npz file (later passes repeat it).

        Arrays `op`, `parent`, `name`, `start_s`, `end_s` are aligned by span
        index; `name` indexes `names`.  Read with `numpy.load(path)`.
        """
        op = np.frombuffer(self.op, dtype=np.int32)
        keep = int(np.searchsorted(op, ops_per_pass))
        np.savez(
            path,
            names=np.array(self.names),
            op=op[:keep],
            parent=np.frombuffer(self.parent, dtype=np.int32)[:keep],
            name=np.frombuffer(self.name, dtype=np.int32)[:keep],
            start_s=np.frombuffer(self.start)[:keep],
            end_s=np.frombuffer(self.end)[:keep],
        )
