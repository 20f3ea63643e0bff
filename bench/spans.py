"""In-memory span tracer that wraps wptmod's public functions from outside.

Each wrapped function records a span (name, op id, parent span, start, end)
while the tracer is active.  Spans stay in flat arrays until the run ends;
per-layer totals (calls, busy time, self time) and exact counts are derived
from them afterwards.  Self time is a span's duration minus the time covered
by its direct children; spans nest strictly because the workloads run in one
thread.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array

from workloads import VERBS

# span name per wrapped (module, function); one span name may cover several
# functions of the same layer
TARGETS = (
    ("scenario", "parse_scenario", "scenario.parse"),
    ("scenario", "build_sweeps", "scenario.build_sweeps"),
    ("scenario", "generate_test_samples", "scenario.generate_samples"),
    ("magnetics", "mutual_inductance_neumann", "magnetics.coil_coupling"),
    ("magnetics", "mutual_inductance_coil_coil_closed", "magnetics.coil_coupling"),
    ("magnetics", "mutual_inductance_coil_plate", "magnetics.plate_coupling"),
    ("magnetics", "mutual_inductance_coil_plate_by_integration", "magnetics.plate_coupling"),
    ("eddy", "plate_impedance", "eddy.plate_impedance"),
    ("eddy", "load_materials", "eddy.load_materials"),
    ("circuit", "transmitter_voltages", "circuit.operating_point"),
    ("circuit", "input_power", "circuit.operating_point"),
    ("characteristics", "sweep_curve", "characteristics.sweep"),
    ("characteristics", "curves_to_csv", "characteristics.csv_write"),
    ("characteristics", "curves_from_csv", "characteristics.csv_read"),
    ("detection", "fit_thresholds", "detection.fit"),
    ("detection", "classify", "detection.classify"),
)

SPANS = (
    "cli.import_s",
    *(f"cli.verb_s.{verb}" for verb in VERBS),
    *dict.fromkeys(name for _, _, name in TARGETS),
)

# extra per-layer counts: name -> (unit, better)
COUNTS = {
    "eddy.load_materials.per_build_sweeps": ("calls/op", "lower"),
    "circuit.operating_point.points": ("count", "lower"),
    "characteristics.sweep.points": ("count", "lower"),
    "characteristics.csv_write.bytes": ("bytes", "lower"),
    "characteristics.csv_read.bytes": ("bytes", "lower"),
    "detection.decidable_ratio": ("frac", "higher"),
}

TRACE_TOTALS = {
    "trace.timed_s": ("s", "lower"),
    "trace.untraced_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def per_layer_schema() -> list[dict]:
    """The per-layer metric list, in BENCHMARK.json layout."""
    rows = []
    for span in SPANS:
        rows.append({"name": f"{span}.calls", "unit": "count", "better": "lower"})
        rows.append({"name": f"{span}.busy_s", "unit": "s", "better": "lower"})
        rows.append({"name": f"{span}.self_s", "unit": "s", "better": "lower"})
    for table in (COUNTS, TRACE_TOTALS):
        for name, (unit, better) in table.items():
            rows.append({"name": name, "unit": unit, "better": better})
    return rows


def _count(func_name: str, args, result) -> dict[str, int]:
    """Exact work counts attached to one call of a wrapped function."""
    if func_name == "transmitter_voltages":
        return {"circuit.operating_point.points": 1}
    if func_name == "sweep_curve":
        return {"characteristics.sweep.points": args[0].steps}
    if func_name == "curves_to_csv":
        return {"characteristics.csv_write.bytes": len(result.encode())}
    if func_name == "curves_from_csv":
        return {"characteristics.csv_read.bytes": len(args[0].encode())}
    if func_name == "classify":
        return {"detection.decidable": int(result.label.value != "indeterminate")}
    return {}


class Tracer:
    """Span recorder; records only while `active` is set."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.active = False
        self.current_op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[dict, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span regardless of `active` (used for imports and verbs)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            for key, n in _count(fn.__name__, args, result).items():
                self.counts[key] = self.counts.get(key, 0) + n
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every reference to a target inside the wptmod package.

        Modules that did `from .circuit import input_power` hold their own
        reference, so every wptmod module namespace is patched, not only the
        defining one.
        """
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "wptmod"]
        for mod_name, func_name, span in TARGETS:
            original = getattr(sys.modules[f"wptmod.{mod_name}"], func_name)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((vars(mod), attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._saved):
            namespace[attr] = value
        self._saved.clear()

    def summary(self) -> dict[str, float]:
        """calls / busy_s / self_s per span name plus the exact counts."""
        import numpy as np

        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        out: dict[str, float] = {}
        for span in SPANS:
            mask = nid == self._ids[span] if span in self._ids else np.zeros(len(dur), bool)
            out[f"{span}.calls"] = int(np.count_nonzero(mask))
            out[f"{span}.busy_s"] = float(dur[mask].sum())
            out[f"{span}.self_s"] = float(self_time[mask].sum())
        for key in COUNTS:
            out[key] = self.counts.get(key, 0)
        out["eddy.load_materials.per_build_sweeps"] = self._calls_within(
            "eddy.load_materials", "scenario.build_sweeps"
        )
        classified = out["detection.classify.calls"]
        decidable = self.counts.get("detection.decidable", 0)
        out["detection.decidable_ratio"] = decidable / classified if classified else 0.0
        return out

    def _calls_within(self, child: str, ancestor: str) -> float:
        """Calls of `child` under an `ancestor` span, per `ancestor` call."""
        if child not in self._ids or ancestor not in self._ids:
            return 0.0
        cid, aid = self._ids[child], self._ids[ancestor]
        n_anc = sum(1 for i in self.name_id if i == aid)
        inside = 0
        for idx, i in enumerate(self.name_id):
            if i != cid:
                continue
            p = self.parent[idx]
            while p >= 0 and self.name_id[p] != aid:
                p = self.parent[p]
            inside += p >= 0
        return inside / n_anc

    def save(self, path) -> None:
        """Write every span to a compressed .npz file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
