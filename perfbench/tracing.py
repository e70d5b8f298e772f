"""In-memory spans around calls into the emscat modules, and the per-layer
metrics derived from them.

Spans are recorded from outside the library: ``Tracer.install`` replaces each
public function or method listed in ``TARGETS`` by a wrapper in every loaded
``emscat`` module (and in the package namespace) that holds it, and
``Tracer.uninstall`` puts the originals back.  Untraced passes therefore run
the library exactly as shipped.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

#: (module, attribute, span name).  The layer is the span name up to the
#: first dot.  Methods are given as "Class.method".
TARGETS = [
    ("emscat.geometry", "mesh_sphere", "geometry.mesh"),
    ("emscat.geometry", "mesh_ellipsoid", "geometry.mesh"),
    ("emscat.geometry", "mesh_cube", "geometry.mesh"),
    ("emscat.one_body", "solve_current", "one_body.solve"),
    ("emscat.one_body", "assemble_one_body", "one_body.assemble"),
    ("emscat.one_body", "OneBodyOperator.matvec", "one_body.matvec"),
    ("emscat.one_body", "gamma_numeric", "one_body.gamma"),
    ("emscat.one_body", "field_e_exact", "one_body.field"),
    ("emscat.one_body", "field_e_asymptotic", "one_body.field"),
    ("emscat.linalg", "solve_gmres", "linalg.gmres"),
    ("emscat.many_body", "lattice_layout", "many_body.layout"),
    ("emscat.many_body", "layout_from_centers", "many_body.layout"),
    ("emscat.many_body", "solve_effective_field", "many_body.solve"),
    ("emscat.many_body", "assemble_many_body", "many_body.assemble"),
    ("emscat.many_body", "ManyBodyOperator.matvec", "many_body.matvec"),
    ("emscat.many_body", "effective_field_at_centers", "many_body.fields"),
    ("emscat.many_body", "error_estimate_many", "many_body.probe"),
    ("emscat.many_body", "field_e_many", "many_body.probe"),
    ("emscat.many_body", "field_h_many", "many_body.probe"),
    ("emscat.diagnostics", "validate_solution", "diagnostics.validate"),
    ("emscat.cli", "main", "cli.main"),
]

#: Layers that get a self-time metric; "bench" is the benchmark's own code
#: inside a case span (wave construction and the like).
LAYERS = ["geometry", "one_body", "linalg", "many_body", "diagnostics", "cli", "bench"]

MIB = 2.0**20


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    case: str
    pass_no: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "case": self.case, "pass": self.pass_no,
            **self.attrs,
        }


def operator_bytes(operator) -> int:
    """Computed size of an operator: the nbytes of every array it holds."""
    return sum(v.nbytes for v in vars(operator).values() if isinstance(v, np.ndarray))


def _count_assembly(span: Span, args, result) -> None:
    operator = result[0]
    span.attrs["pairs"] = (operator.shape[0] // 3) ** 2
    span.attrs["operator_bytes"] = operator_bytes(operator)


def _count_matvec(span: Span, args, result) -> None:
    span.attrs["operator_bytes"] = operator_bytes(args[0])


def _count_gmres(span: Span, args, result) -> None:
    span.attrs["iterations"] = result[1].iterations


COUNTERS = {
    "one_body.assemble": _count_assembly,
    "many_body.assemble": _count_assembly,
    "one_body.matvec": _count_matvec,
    "many_body.matvec": _count_matvec,
    "linalg.gmres": _count_gmres,
}


class Tracer:
    """Collects spans in memory; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.case = ""
        self.pass_no = 0

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent,
                    self.case, self.pass_no)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                counter(span, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a loaded emscat module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "emscat" or n.startswith("emscat."))]
        for module_name, attr, name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child_time = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return {s.id: s.duration - child_time[s.id] for s in spans}


def _total(spans, name):
    return sum(s.duration for s in spans if s.name == name)


def _matvec_metrics(spans, layer):
    """Median call time and computed GB/s on the largest operator of the pass."""
    calls = [s for s in spans if s.name == f"{layer}.matvec"]
    if not calls:
        return 0, 0.0, 0.0
    largest = max(s.attrs["operator_bytes"] for s in calls)
    median = statistics.median(
        s.duration for s in calls if s.attrs["operator_bytes"] == largest
    )
    return len(calls), median, largest / median / 1e9


def pass_metrics(spans: list[Span], table_ids: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (its spans only)."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    out["geometry.mesh_s"] = _total(spans, "geometry.mesh")
    out["kernels.pairs"] = sum(s.attrs.get("pairs", 0) for s in spans)
    for layer in ("one_body", "many_body"):
        assemblies = [s for s in spans if s.name == f"{layer}.assemble"]
        out[f"{layer}.assemble_s"] = sum(s.duration for s in assemblies)
        out[f"{layer}.operator_mb"] = max(
            (s.attrs["operator_bytes"] for s in assemblies), default=0) / MIB
        calls, median, gbps = _matvec_metrics(spans, layer)
        out[f"{layer}.matvec_s"] = median
        out[f"{layer}.matvec_calls"] = calls
        out[f"{layer}.matvec_gbps"] = gbps
    out["one_body.assemble_calls"] = sum(1 for s in spans if s.name == "one_body.assemble")
    out["one_body.gamma_s"] = _total(spans, "one_body.gamma")
    out["one_body.field_s"] = _total(spans, "one_body.field")
    out["diagnostics.validate_s"] = _total(spans, "diagnostics.validate")
    gmres = [s for s in spans if s.name == "linalg.gmres"]
    out["linalg.gmres_s"] = sum(s.duration for s in gmres)
    out["linalg.gmres_self_s"] = sum(selfs[s.id] for s in gmres)
    out["linalg.gmres_iters"] = sum(s.attrs["iterations"] for s in gmres)
    out["many_body.layout_s"] = _total(spans, "many_body.layout")
    out["many_body.fields_s"] = _total(spans, "many_body.fields")
    out["many_body.probe_s"] = _total(spans, "many_body.probe")
    for table in table_ids:
        out[f"cli.table_s.{table}"] = sum(
            s.duration for s in spans if s.name == "cli.main" and s.case == table)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(selfs[s.id] for s in spans if s.layer == layer)
    out["trace.spans"] = len(spans)
    return out


def span_cost(calls: int = 2000) -> float:
    """Measured seconds a wrapper adds to one call: the median over five
    batches of a wrapped no-op's time minus a bare no-op's, per call."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap("bench.noop", noop)
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
        tracer.spans.clear()
    return statistics.median(samples)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric ``<layer>.<metric>[.<qualifier>]``, from
    the suffix of ``<metric>``: ``cli.table_s.q-sphere`` is in seconds."""
    metric = name.split(".")[1]
    for suffix, unit in (("_s", "s"), ("_mb", "MiB"), ("_gbps", "GB/s"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"
