"""Span tracing of mosaicdensity from outside the library.

``Tracer.install`` replaces the public functions of the traced modules
with wrappers that record one span per call: name, start, end and the
span that was open when the call began (its parent).  The library source
is not touched; the wrappers are swapped into every ``mosaicdensity``
module namespace that holds the original function object, so calls made
through ``from .module import name`` bindings are traced too.
``Tracer.uninstall`` puts the originals back.

Besides spans, the tracer keeps per-function counters: calls, failures
per exception class, and work counts (rows, cells, samples, points,
iterations) read from the arguments and results of selected functions.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

# Modules whose public functions are traced, with the prefix used in span
# names.  ``_kernels`` gets the prefix ``kernels`` because metric names
# must start with a letter or digit.
TRACED_MODULES = {
    "mosaicdensity.cli": "cli",
    "mosaicdensity.tiling": "tiling",
    "mosaicdensity.zonotope": "zonotope",
    "mosaicdensity._kernels": "kernels",
    "mosaicdensity.tetra": "tetra",
    "mosaicdensity.simplex": "simplex",
    "mosaicdensity.weights": "weights",
    "mosaicdensity.decomposable": "decomposable",
}

# The kernel module also exposes every kernel under ``*_numpy``/``*_jit``
# names; only the dispatching names that library code calls are traced.
KERNELS = (
    "volume_poly_many",
    "simplex_grid_scan",
    "pair_scalars_many",
    "type4_functional_many",
    "segment_ball_clip",
)

# Public methods traced in addition to module-level functions.
TRACED_METHODS = {"mosaicdensity.tiling": ("Lattice.points_in_ball",)}


def _rows(args, kwargs, out):
    return len(args[0])


def _grid_rows(args, kwargs, out):
    # simplex_grid_scan(lam, grid_n, budget) scans every composition of
    # grid_n into five parts
    return math.comb(int(args[1]) + 4, 4)


# span name -> (counter name, function of (args, kwargs, result) -> amount)
COUNTERS = {
    "tiling.skeleton_density": ("cells", lambda a, k, out: out.cells),
    "tiling.validate_tiling": ("samples", lambda a, k, out: out.covering_samples),
    "tiling.Lattice.points_in_ball": ("points", lambda a, k, out: len(out)),
    "weights.type4_sweep": ("samples", lambda a, k, out: out.samples),
    "weights.isotropic_position": ("iterations", lambda a, k, out: out.iterations),
    "kernels.simplex_grid_scan": ("rows", _grid_rows),
    **{f"kernels.{name}": ("rows", _rows) for name in KERNELS if name != "simplex_grid_scan"},
}


def _span_name(prefix: str, attr: str) -> str:
    # cli.cmd_tile -> cli.tile, matching the subcommand name
    if prefix == "cli" and attr.startswith("cmd_"):
        attr = attr[4:]
    return f"{prefix}.{attr}"


class Tracer:
    """Records spans and counters for the functions it wraps."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # each span: [name id, start, end, parent index or -1, outermost]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._depth: dict[int, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.failed: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        spans, stack, depth = self.spans, self._open, self._depth
        calls, failed, counts = self.calls, self.failed, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            idx = len(spans)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, depth[nid] == 0]
            spans.append(span)
            stack.append(idx)
            depth[nid] += 1
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                failed[name][type(exc).__name__] += 1
                raise
            else:
                span[2] = clock()
            finally:
                depth[nid] -= 1
                stack.pop()
            if counter is not None:
                counts[f"{name}.{counter[0]}"] += counter[1](args, kwargs, out)
            return out

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every namespace that binds it."""
        replacements: dict[int, tuple[object, object]] = {}
        for modname, prefix in TRACED_MODULES.items():
            mod = sys.modules[modname]
            if prefix == "kernels":
                attrs = KERNELS
            else:
                attrs = [
                    attr
                    for attr, obj in vars(mod).items()
                    if not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == modname
                ]
            for attr in attrs:
                orig = getattr(mod, attr)
                if id(orig) not in replacements:
                    replacements[id(orig)] = (orig, self._wrap(_span_name(prefix, attr), orig))
            for path in TRACED_METHODS.get(modname, ()):
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                orig = vars(cls)[meth]
                self._set(cls, meth, self._wrap(f"{prefix}.{path}", orig))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "mosaicdensity" or modname.startswith("mosaicdensity.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds and self seconds.

        Total time counts only outermost spans of a name, so a function
        that reaches itself again is not counted twice.  Self time is a
        span's duration minus the durations of its direct children.
        """
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {
            name: {"s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i, (nid, start, end, parent, outermost) in enumerate(self.spans):
            agg = out[self.names[nid]]
            dur = end - start
            agg["self_s"] += dur - child[i]
            if outermost:
                agg["s"] += dur
        return out

    def dump(self) -> dict:
        """Spans as plain lists, for writing out when the run ends."""
        return {
            "fields": ["name", "start_s", "end_s", "parent"],
            "names": self.names,
            "spans": [[nid, start, end, parent] for nid, start, end, parent, _ in self.spans],
        }
