"""Per-layer tracing of warpgeo from outside the package.

The tracer replaces functions and methods of the warpgeo modules with
wrappers, at every place a reference to them is bound: module namespaces
(``from .immersion import PointGeometry`` makes a second binding), module
level dicts such as ``expr._JET_FN``, and class dicts (``Jet.__rmul__`` is
the same function as ``Jet.__mul__``).  Nothing under ``src/`` is edited.

A span wrapper appends one span (name id, start, end, parent) to flat
arrays kept in memory; a count wrapper bumps a counter.  Self time is
computed once at the end: a span's duration minus the durations of the
spans whose parent it is.  ``Tracer.write`` saves the spans when the run
ends, so the traced phase does no I/O.

A target that no longer resolves (a function renamed or removed by a
refactor) is skipped, and the per-layer metrics fed only by skipped
targets are reported as None rather than as zero.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute path, kind).  The span or counter of a target is
# named "<module>.<attribute path>".  Dataclass-generated __init__ methods
# are not wrapped (cProfile cannot tell them apart); the user-written
# __post_init__ carries the work instead.
TARGETS = (
    ("jet", "Jet.__init__", "count"),
    ("jet", "Jet.d", "span"),
    ("jet", "Jet.trunc", "count"),
    ("jet", "_compose", "span"),
    ("jet", "jet_det", "span"),
    ("jet", "jet_mat_inverse", "span"),
    ("expr", "eval_jet", "span"),
    ("expr", "parse", "span"),
    ("expr", "eval_value", "span"),
    ("ambient", "AmbientChart.christoffel", "span"),
    ("ambient", "AmbientChart.metric_factor", "span"),
    ("ambient", "spaceform_curvature", "count"),
    ("ambient", "warped_curvature_full", "count"),
    ("immersion", "induced_metric_jets", "span"),
    ("biharmonic", "classify", "span"),
    ("biharmonic", "normal_residual", "span"),
    ("biharmonic", "tangential_residual", "span"),
    ("biharmonic", "parameter_scan", "span"),
    ("warped", "warped_report", "span"),
    ("warped", "inclusion_bitension", "span"),
    ("warped", "pairing", "span"),
    ("warped", "WarpedScene.warp_at", "count"),
    ("warped", "WarpedScene.__post_init__", "span"),
    ("warped", "ricci_warped_check", "span"),
    ("oracle", "tension_first_principles", "span"),
    ("oracle", "bitension_first_principles", "span"),
    ("oracle", "submanifold_bitension", "span"),
    ("oracle", "curvature_components", "span"),
    ("oracle", "christoffels_from_metric", "span"),
    ("scene", "scene_from_dict", "span"),
)
# Handled by dedicated wrappers below.
MUL_TARGET = ("jet", "Jet.__mul__")  # spans "jet.mul@<n_vars>x<order>", counter "jet.scale"
BUILD_TARGET = ("immersion", "PointGeometry.__init__")
VERIFY_FAMILY_PREFIX = "_checks_"

# Per-layer metrics: (metric prefix, span/counter names summed, fields).
LAYER_METRICS = (
    ("jet.mul", ("jet.mul@*",), ("calls", "self_s")),
    ("jet.scale", ("jet.scale",), ("calls",)),
    ("jet.new", ("jet.Jet.__init__",), ("calls",)),
    ("jet.univariate", ("jet._compose",), ("calls", "self_s")),
    ("jet.d", ("jet.Jet.d",), ("calls", "self_s")),
    ("jet.trunc", ("jet.Jet.trunc",), ("calls",)),
    ("jet.linalg", ("jet.jet_det", "jet.jet_mat_inverse"), ("calls", "self_s")),
    ("expr.eval_jet", ("expr.eval_jet",), ("calls", "self_s")),
    ("expr.parse", ("expr.parse",), ("calls", "self_s")),
    ("expr.eval_value", ("expr.eval_value",), ("calls", "self_s")),
    ("ambient.christoffel", ("ambient.AmbientChart.christoffel",), ("calls", "self_s")),
    ("ambient.metric_factor", ("ambient.AmbientChart.metric_factor",), ("calls", "self_s")),
    (
        "ambient.curvature",
        ("ambient.spaceform_curvature", "ambient.warped_curvature_full"),
        ("calls",),
    ),
    ("immersion.PointGeometry", ("immersion.PointGeometry.__init__",), ("builds", "self_s")),
    ("immersion.induced_metric_jets", ("immersion.induced_metric_jets",), ("calls", "self_s")),
    ("biharmonic.classify", ("biharmonic.classify",), ("calls", "self_s")),
    (
        "biharmonic.residuals",
        ("biharmonic.normal_residual", "biharmonic.tangential_residual"),
        ("calls", "self_s"),
    ),
    ("biharmonic.parameter_scan", ("biharmonic.parameter_scan",), ("calls", "self_s")),
    ("warped.warped_report", ("warped.warped_report",), ("calls", "self_s")),
    ("warped.inclusion_bitension", ("warped.inclusion_bitension",), ("calls", "self_s")),
    ("warped.pairing", ("warped.pairing",), ("calls", "self_s")),
    ("warped.warp_at", ("warped.WarpedScene.warp_at",), ("calls",)),
    ("warped.ricci_warped_check", ("warped.ricci_warped_check",), ("calls", "self_s")),
    ("warped.WarpedScene", ("warped.WarpedScene.__post_init__",), ("builds", "self_s")),
    (
        "oracle.tension_first_principles",
        ("oracle.tension_first_principles",),
        ("calls", "self_s"),
    ),
    (
        "oracle.bitension_first_principles",
        ("oracle.bitension_first_principles",),
        ("calls", "self_s"),
    ),
    ("oracle.submanifold_bitension", ("oracle.submanifold_bitension",), ("calls", "self_s")),
    ("oracle.curvature_components", ("oracle.curvature_components",), ("calls", "self_s")),
    (
        "oracle.christoffels_from_metric",
        ("oracle.christoffels_from_metric",),
        ("calls", "self_s"),
    ),
    ("scene.scene_from_dict", ("scene.scene_from_dict",), ("calls", "self_s")),
)
VERIFY_FAMILIES = (
    "example_sphere_slice",
    "example_cone",
    "tension_equivalence",
    "bitension_equivalence",
    "pairing",
    "power_family",
    "tangential_corollaries",
    "ricci",
)

_FIELD_UNITS = {"calls": "count", "builds": "count", "self_s": "s"}


def _resolve(module, path):
    """(owner, attribute, function) of a target, or None if the module or
    any attribute on the path is missing."""
    owner = sys.modules.get(f"warpgeo.{module}")
    *outer, attr = path.split(".")
    try:
        for part in outer:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except AttributeError:
        return None


def _build_key(value):
    """A hashable, exact key for one argument of a geometry build.  Arrays
    are keyed by shape, dtype and bytes (their repr rounds); containers
    element-wise; anything else by repr."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, value.dtype.str, value.tobytes())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_build_key(v) for v in value))
    return repr(value)


def _binding_sites(orig, owner, attr):
    """Every (container, key) that holds `orig`: the owner attribute,
    aliases in the owner's dict, the names of every warpgeo module and
    the values of their module-level dicts."""
    sites = [(owner, attr, "attr")]
    if isinstance(owner, type):
        for key, value in vars(owner).items():
            if value is orig and key != attr:
                sites.append((owner, key, "attr"))
        return sites
    for name, mod in sorted(sys.modules.items()):
        if name != "warpgeo" and not name.startswith("warpgeo."):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig and (mod, key) != (owner, attr):
                sites.append((mod, key, "attr"))
            elif isinstance(value, dict):
                for dkey, dvalue in value.items():
                    if dvalue is orig:
                        sites.append((value, dkey, "item"))
    return sites


class Tracer:
    """Spans and counters for one traced phase.  Not thread-safe: the
    benchmark drives warpgeo from a single thread."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts = []
        self._stack = [-1]
        self._undo = []
        self.fed_by = {}  # original function -> span/count names it feeds
        self.installed = set()  # span/count names of the targets wrapped
        self.build_keys = set()
        self.mul_shapes = {}  # span name -> (n_vars, order)

    # -- names and spans --------------------------------------------------

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.counts.append(0)
        return nid

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, such as the root span of
        one request."""
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        nid = self.name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    def _count_wrapper(self, name, fn):
        nid = self.name_id(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _mul_wrapper(self, fn, jet_cls):
        """Jet.__mul__ (and __rmul__): jet x jet products are spans named
        by jet shape, so computed flops and bytes can be summed per shape;
        jet x scalar is counted as jet.scale."""
        scale = self.name_id("jet.scale")
        counts = self.counts
        by_shape = {}
        open_, close = self._open, self._close

        def shape_id(key):
            name = f"jet.mul@{key[0]}x{key[1]}"
            self.mul_shapes[name] = key
            by_shape[key] = self.name_id(name)
            return by_shape[key]

        @functools.wraps(fn)
        def wrapper(self_, other):
            if not isinstance(other, jet_cls):
                counts[scale] += 1
                return fn(self_, other)
            key = (self_.n_vars, self_.order)
            nid = by_shape[key] if key in by_shape else shape_id(key)
            idx = open_(nid)
            try:
                return fn(self_, other)
            finally:
                close(idx)

        return wrapper, ["jet.scale", "jet.mul@*"]

    def _build_wrapper(self, name, fn):
        """PointGeometry.__init__: a span per build, plus the distinct
        argument lists (immersion, params, point, ...) for unique_ratio."""
        nid = self.name_id(name)
        keys = self.build_keys
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(self_, *args, **kwargs):
            keys.add((_build_key(args), _build_key(sorted(kwargs.items()))))
            idx = open_(nid)
            try:
                return fn(self_, *args, **kwargs)
            finally:
                close(idx)

        return wrapper

    def _patch(self, orig, owner, attr, wrapper, names):
        for container, key, how in _binding_sites(orig, owner, attr):
            if how == "attr":
                self._undo.append((setattr, container, key, orig))
                setattr(container, key, wrapper)
            else:
                self._undo.append((dict.__setitem__, container, key, orig))
                container[key] = wrapper
        self.fed_by[orig] = names
        self.installed.update(names)

    def install(self):
        """Wrap every target at every binding site.  Call after warpgeo
        is imported; `uninstall` restores the originals."""
        import warpgeo  # noqa: F401  (loads every submodule)

        for module, path, kind in TARGETS:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr, orig = found
            name = f"{module}.{path}"
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            self._patch(orig, owner, attr, make(name, orig), [name])
        found = _resolve(*MUL_TARGET)
        if found is not None:
            owner, attr, orig = found
            wrapper, names = self._mul_wrapper(orig, owner)
            self._patch(orig, owner, attr, wrapper, names)
        module, path = BUILD_TARGET
        found = _resolve(module, path)
        if found is not None:
            owner, attr, orig = found
            name = f"{module}.{path}"
            self._patch(orig, owner, attr, self._build_wrapper(name, orig), [name])
        verify = sys.modules.get("warpgeo.verify")
        for attr in sorted(vars(verify) if verify else ()):
            if attr.startswith(VERIFY_FAMILY_PREFIX):
                orig = getattr(verify, attr)
                name = f"verify.{attr}"
                self._patch(orig, verify, attr, self._span_wrapper(name, orig), [name])

    def uninstall(self):
        while self._undo:
            restore, container, key, orig = self._undo.pop()
            restore(container, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ----------------------------------------------------------

    def _arrays(self):
        """(name ids, parent indices, durations in ns) of every span."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.int64)
        return names, parents, np.frombuffer(self.span_end, dtype=np.int64) - start

    def totals(self):
        """{name: (calls, self seconds)} over spans and counters."""
        n = len(self.names)
        names, parents, dur = self._arrays()
        has_parent = parents >= 0
        child = np.bincount(
            parents[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_ns = dur - child
        span_calls = np.bincount(names, minlength=n)
        span_self = np.bincount(names, weights=self_ns, minlength=n)
        return {
            name: (int(span_calls[i]) + self.counts[i], float(span_self[i]) * 1e-9)
            for i, name in enumerate(self.names)
        }

    def child_count(self, name, parent_name):
        """Spans named `name` whose parent span is named `parent_name`."""
        if name not in self._ids or parent_name not in self._ids:
            return 0
        names, parents, _ = self._arrays()
        mine = (names == self._ids[name]) & (parents >= 0)
        return int(np.count_nonzero(names[parents[mine]] == self._ids[parent_name]))

    @staticmethod
    def _sum(totals, names):
        calls, self_s = 0, 0.0
        for name in names:
            if name.endswith("@*"):
                hits = [v for k, v in totals.items() if k.startswith(name[:-1])]
            else:
                hits = [totals.get(name, (0, 0.0))]
            calls += sum(c for c, _ in hits)
            self_s += sum(t for _, t in hits)
        return calls, self_s

    def calls_of(self, orig):
        """Calls recorded for one original function (for the cProfile
        cross-check): the sum over the names it feeds."""
        return self._sum(self.totals(), self.fed_by[orig])[0]

    def _mul_cost(self, totals, jet_space):
        """(computed flops, computed bytes) of the jet x jet products, or
        (None, None) if the jet space no longer has the expected shape."""
        flops = nbytes = 0
        try:
            for name, (n_vars, order) in self.mul_shapes.items():
                calls = totals[name][0]
                space = jet_space(n_vars, order)
                nnz, size = len(space.mul_ia), space.size
                flops += calls * 2 * nnz
                nbytes += calls * 8 * (3 * size + 5 * nnz)
        except (AttributeError, TypeError):
            return None, None
        return flops, nbytes

    def layer_metrics(self, jet_space):
        """Per-layer metrics by name, as {name: (value, unit)}; the value
        is None when no target feeding the metric could be wrapped.

        `jet_space(n_vars, order)` returns the jet space of that shape (or
        `jet_space` is None); the computed flops of one product are
        2 * len(mul_ia), and its computed bytes are the two operand and one
        result coefficient vectors plus the three int64 index tables and
        the two gathered operand vectors (all 8-byte elements)."""
        totals = self.totals()
        wrapped = self.installed.__contains__
        out = {}
        for prefix, names, fields in LAYER_METRICS:
            calls, self_s = self._sum(totals, names)
            found = any(map(wrapped, names))
            for field in fields:
                value = self_s if field == "self_s" else calls
                out[f"{prefix}.{field}"] = (value if found else None, _FIELD_UNITS[field])
        mul_found = wrapped("jet.mul@*") and jet_space is not None
        flops, nbytes = self._mul_cost(totals, jet_space) if mul_found else (None, None)
        out["jet.mul.flops_computed"] = (flops, "flop")
        out["jet.mul.bytes_computed"] = (nbytes, "B")
        builds = out["immersion.PointGeometry.builds"][0]
        out["immersion.PointGeometry.unique_ratio"] = (
            None if builds is None else len(self.build_keys) / builds if builds else 0.0,
            "ratio",
        )
        scan = ("biharmonic.normal_residual", "biharmonic.parameter_scan")
        out["biharmonic.scan.residual_evals"] = (
            self.child_count(*scan) if all(map(wrapped, scan)) else None,
            "count",
        )
        for family in VERIFY_FAMILIES:
            name = f"verify.{VERIFY_FAMILY_PREFIX}{family}"
            out[f"verify.{family}.s"] = (
                self.inclusive_s(name) if wrapped(name) else None,
                "s",
            )
        return out

    def inclusive_s(self, name):
        """Summed duration of the spans named `name`."""
        if name not in self._ids:
            return 0.0
        names, _, dur = self._arrays()
        return float(dur[names == self._ids[name]].sum()) * 1e-9

    def write(self, path):
        """Save every span (name id, parent index, start/end ns) and the
        name table as one compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )
