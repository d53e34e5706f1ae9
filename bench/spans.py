"""Span recorder for the traced run, and the wrappers that feed it.

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out when the run ends. Wrappers are installed from outside the
program: on each target function's defining module, and on every other
``rfad`` module that bound the same function with ``from ... import``.
Times come from ``time.perf_counter``, which on Linux reads
CLOCK_MONOTONIC, so spans recorded in child processes line up with the
parent's.

Nothing here imports numpy, so a traced CLI child pays for numpy only
when rfad itself imports it.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import sys
import time
from array import array
from contextlib import contextmanager


class Tracer:
    """Spans and counters of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def _name(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def name_id_of(self, name: str) -> int:
        """Index of ``name`` in ``names``, or -1 if no span has it."""
        return self._ids.get(name, -1)

    def count(self, name: str, n: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + n

    def to_json(self, marks: dict) -> dict:
        return {"names": self.names, "name_id": list(self.name_id),
                "start": list(self.start), "end": list(self.end),
                "parent": list(self.parent), "counters": self.counters,
                "marks": marks}

    def merge(self, payload: dict, parent: int) -> None:
        """Append a child process's spans below span ``parent``."""
        offset = len(self.start)
        names = payload["names"]
        for nid, start, end, par in zip(payload["name_id"], payload["start"],
                                        payload["end"], payload["parent"]):
            self.name_id.append(self._name(names[nid]))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent if par < 0 else par + offset)
        for key, n in payload["counters"].items():
            self.count(key, n)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for nid, start, end, par in zip(self.name_id, self.start, self.end,
                                            self.parent):
                fh.write(f"{self.names[nid]},{start!r},{end!r},{par}\n")


# ---------------------------------------------------------------------------
# counters taken at the wrapped boundaries
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _series_rows(series_set) -> int:
    return sum(len(s) for s in series_set.values())


def _file_rows_and_bytes(path):
    with open(path, "rb") as fh:
        data = fh.read()
    return {"readlog.rows_written": data.count(b"\n") - 1,
            "readlog.bytes_written": len(data)}


def _count_estimate(args, kwargs, result):
    series = _arg(args, kwargs, 0, "series")
    return {"signal.samples_estimated": min(_arg(args, kwargs, 1, "window"), len(series))}


def _count_fingerprint(args, kwargs, fp):
    return {"fingerprint.imputed": sum(bool(v) for v in fp.imputed.values()),
            "fingerprint.fingers": len(fp.imputed)}


# (module, attribute, span name, tag(args, kwargs) -> suffix, count(args, kwargs, result))
TARGETS = (
    ("rfad.config", "load_config", "config.load_config", None, None),
    ("rfad.config", "SessionConfig.class_means", "config.class_means", None, None),
    ("rfad.ic", "sensor_code", "ic.sensor_code", None, None),
    ("rfad.ic", "antenna_response", "ic.antenna_response", None, None),
    ("rfad.signal", "synthesize_series", "signal.synthesize_series", None,
     lambda a, k, r: {"signal.samples_synthesized": len(r)}),
    ("rfad.signal", "estimate_code", "signal.estimate_code", None, _count_estimate),
    ("rfad.signal", "minimum_samples", "signal.minimum_samples",
     lambda a, k: _arg(a, k, 3, "estimator", "mean"), None),
    ("rfad.signal", "dominant_frequency", "signal.dominant_frequency", None, None),
    ("rfad.readlog", "read_log", "readlog.read", None,
     lambda a, k, r: {"readlog.rows_read": len(r)}),
    ("rfad.readlog", "read_series", "readlog.read", None,
     lambda a, k, r: {"readlog.rows_read": _series_rows(r)}),
    ("rfad.readlog", "write_log", "readlog.write", None,
     lambda a, k, r: _file_rows_and_bytes(_arg(a, k, 1, "path"))),
    ("rfad.readlog", "write_series", "readlog.write", None,
     lambda a, k, r: _file_rows_and_bytes(_arg(a, k, 1, "path"))),
    ("rfad.readlog", "series_from_rows", "readlog.series_from_rows", None, None),
    ("rfad.readlog", "load_code_series", "readlog.load_code_series", None, None),
    ("rfad.fingerprint", "build_fingerprint", "fingerprint.build", None,
     _count_fingerprint),
    ("rfad.classify", "classify", "classify.classify", None, None),
    ("rfad.classify", "reliability_report", "classify.reliability_report", None, None),
    ("rfad.population", "simulate_hand", "population.simulate_hand", None, None),
    ("rfad.population", "generate_population", "population.generate_population",
     None, None),
    ("rfad.population", "save_records", "population.save_records", None, None),
    ("rfad.population", "monte_carlo_classification",
     "population.monte_carlo_classification", None, None),
    ("rfad.coupling", "power_wave_scattering", "coupling.power_wave_scattering",
     lambda a, k: f"n{_arg(a, k, 0, 'z').n_ports}", None),
    ("rfad.coupling", "load_impedance_matrix", "coupling.load_impedance_matrix",
     None, None),
    ("rfad.coupling", "save_impedance_matrix", "coupling.save_impedance_matrix",
     None, None),
    ("rfad.coupling", "normalize_coupling", "coupling.normalize_coupling", None, None),
    ("rfad.kiviat", "kiviat_svg", "kiviat.kiviat_svg", None, None),
    ("rfad.kiviat", "export_kiviat", "kiviat.export", None, None),
)


def _wrap(tracer: Tracer, fn, name, tag, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name if tag is None else f"{name}.{tag(args, kwargs)}")
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            for key, n in count(args, kwargs, result).items():
                tracer.count(key, n)
        return result
    return wrapper


class Instrumentation:
    """Installs and removes the span wrappers of ``TARGETS``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._seen: set[tuple] = set()
        self._wrappers: dict[int, tuple] = {}   # id(original) -> (original, wrapper)
        self._methods: list[tuple] = []         # (class, attribute, original)
        self._installed: list[tuple] = []       # (owner, attribute, original)

    def _find_targets(self) -> None:
        for modname, attr, name, tag, count in TARGETS:
            module = sys.modules.get(modname)
            if module is None or (modname, attr) in self._seen:
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = vars(owner).get(fn_name) if owner is not None else None
            if fn is None:   # module still initialising; a later install finds it
                continue
            self._seen.add((modname, attr))
            self._wrappers[id(fn)] = (fn, _wrap(self.tracer, fn, name, tag, count))
            if owner_name:
                self._methods.append((owner, fn_name, fn))

    def _replace(self, owner, key, original) -> None:
        setattr(owner, key, self._wrappers[id(original)][1])
        self._installed.append((owner, key, original))

    def install(self) -> None:
        """Wrap every target in every loaded rfad module (idempotent)."""
        self._find_targets()
        for owner, key, original in self._methods:
            if vars(owner).get(key) is original:
                self._replace(owner, key, original)
        for modname, module in list(sys.modules.items()):
            if modname != "rfad" and not modname.startswith("rfad."):
                continue
            for key, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._replace(module, key, value)

    def remove(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    def watch_imports(self) -> None:
        """Instrument rfad modules that load later (lazy imports)."""
        sys.meta_path.insert(0, _InstrumentingFinder(self))


class _InstrumentingFinder(importlib.abc.MetaPathFinder):
    def __init__(self, instrumentation: Instrumentation):
        self.instrumentation = instrumentation

    def find_spec(self, fullname, path, target=None):
        if fullname != "rfad" and not fullname.startswith("rfad."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_instrument(module):
            exec_module(module)
            self.instrumentation.install()
        spec.loader.exec_module = exec_and_instrument
        return spec
