"""Span tracer for the dyckpeaks benchmark, applied from outside the library.

``Tracer.install`` wraps the public functions of each layer module, a few
named private ones (the DP kernel and the ``verify`` check sections) and the
hot methods of the series and path classes. Every module-level name bound to
a wrapped function, in any loaded ``dyckpeaks`` module, is rebound to the
wrapper, so ``catalan_series`` imported into ``gfcount`` is traced exactly
like ``series.catalan_series``.

Each call becomes a span: name, start, end, parent span and operation id,
kept in flat arrays in memory and written out by ``dump`` when the traced
work ends. ``summarize`` turns spans into the per-layer metrics; a span's
self time is its duration minus the time covered by its child spans.

Counts marked "computed" (``series.*.coeff_ops``, ``paths.dp.steps``) are
derived from call arguments, not measured, so they repeat exactly.

Only the traced benchmark run imports this module.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from itertools import accumulate
from pathlib import Path

LAYERS = ("series", "chebyshev", "gfcount", "cfrac", "paths", "verify", "cli")

# Private functions traced in addition to every public function of a layer.
PRIVATE_FUNCTIONS = {"paths": ("_dp_distribution",)}
PRIVATE_PREFIXES = {"verify": ("_check_",)}

# Class methods traced, as (module, class, attributes).
METHODS = (
    ("series", "Series", ("__mul__", "reciprocal", "power")),
    ("series", "BivarSeries", ("__mul__", "reciprocal")),
    ("paths", "CountTable", ("sorted_items", "to_csv", "to_json", "check_sum_rule")),
)

VERIFY_SECTIONS = {
    "_check_three_way": "three_way",
    "_check_bijection": "bijection",
    "_check_lemma": "lemma",
    "_check_cfrac": "cfrac",
}  # every other verify._check_* section is a discrepancy check

_ARRAYS = (("name_id", "H"), ("parent", "i"), ("op", "i"), ("start", "d"), ("end", "d"))


def _mul_coeff_ops(a, b) -> int:
    """Nonzero coefficient products in the truncated product a*b."""
    if not hasattr(b, "coeffs"):
        return len(a.coeffs)
    order = min(a.order, b.order)
    nonzero_b = list(accumulate(1 if c else 0 for c in b.coeffs[: order + 1]))
    return sum(nonzero_b[order - i] for i, c in enumerate(a.coeffs[: order + 1]) if c)


def _reciprocal_coeff_ops(a) -> int:
    """Nonzero coefficient products in the recurrence for 1/a."""
    return sum(a.order - i + 1 for i in range(1, a.order + 1) if a.coeffs[i])


def _dp_steps(n, k, kind, cap) -> int:
    """(position, height) lattice points of a semilength-n DP times its
    occurrence buckets."""
    lattice = sum(min(pos, 2 * n - pos) // 2 + 1 for pos in range(2 * n + 1))
    return lattice * (cap + 1)


def _rv_levels(w, x_order, z_order) -> int:
    return w.depth


# Counters fed from call arguments, keyed by span name.
COUNTERS = {
    "series.Series.__mul__": ("series.mul.coeff_ops", _mul_coeff_ops),
    "series.Series.reciprocal": ("series.reciprocal.coeff_ops", _reciprocal_coeff_ops),
    "paths._dp_distribution": ("paths.dp.steps", _dp_steps),
    "cfrac.rv_cfrac": ("cfrac.levels", _rv_levels),
}

# Spans whose distinct arguments (per operation) are tracked.
DISTINCT = ("series.catalan_series", "chebyshev.r_series")


class Tracer:
    """Collects spans and counters for the operations it is told about."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("H")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: list[int] = []
        self.current_op = -1
        self.counts: Counter[str] = Counter()
        self._distinct: dict[str, set] = {name: set() for name in DISTINCT}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span."""
        nid = self._intern(name)
        names, parents, ops = self.name_id, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        seen = self._distinct.get(name)
        counts = self.counts

        def open_span(args, kwargs) -> int:
            if counter is not None:
                counts[counter[0]] += counter[1](*args, **kwargs)
            if seen is not None:
                seen.add((self.current_op, args, tuple(sorted(kwargs.items()))))
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def close_span(idx: int) -> None:
            ends[idx] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            items_key = f"{name}.items"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # One span per resumption, so consumer time between items is
                # not charged to the generator.
                gen = fn(*args, **kwargs)
                while True:
                    idx = open_span(args, kwargs)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    counts[items_key] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_span(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(idx)

        return wrapper

    def install(self) -> None:
        """Wrap every layer's traced callables and rebind all their names."""
        modules = {layer: importlib.import_module(f"dyckpeaks.{layer}") for layer in LAYERS}
        replacements: dict[int, object] = {}
        for layer, module in modules.items():
            prefixes = PRIVATE_PREFIXES.get(layer, ())
            private = PRIVATE_FUNCTIONS.get(layer, ())
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and attr not in private and not attr.startswith(prefixes):
                    continue
                replacements[id(value)] = self.wrap(f"{layer}.{attr}", value)
        for layer, cls_name, attrs in METHODS:
            cls = getattr(modules[layer], cls_name, None)
            for attr in attrs:
                original = vars(cls).get(attr) if cls is not None else None
                if original is None:  # gone from the library: nothing to trace
                    continue
                wrapper = self.wrap(f"{layer}.{cls_name}.{attr}", original)
                for alias, value in list(vars(cls).items()):
                    if value is original:  # e.g. __rmul__ = __mul__
                        setattr(cls, alias, wrapper)
        self._count_validations(modules["paths"].DyckPath)
        loaded = [m for name, m in list(sys.modules.items()) if name == "dyckpeaks" or name.startswith("dyckpeaks.")]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _count_validations(self, path_cls) -> None:
        original = path_cls.__post_init__
        counts = self.counts

        @functools.wraps(original)
        def post_init(path):
            counts["paths.dyckpath.validations"] += 1
            original(path)

        path_cls.__post_init__ = post_init

    def record(self) -> dict:
        """Everything ``summarize`` needs, in the form ``load`` returns."""
        return {
            "names": self.names,
            "spans": len(self.start),
            "counts": dict(self.counts),
            "distinct": {name: len(keys) for name, keys in self._distinct.items()},
            **{key: getattr(self, key) for key, _ in _ARRAYS},
        }

    def dump(self, prefix: Path) -> None:
        """Write the spans as ``<prefix>.json`` (header) and ``<prefix>.bin``."""
        record = self.record()
        header = {key: record[key] for key in ("names", "spans", "counts", "distinct")}
        prefix.with_suffix(".json").write_text(json.dumps(header))
        with open(prefix.with_suffix(".bin"), "wb") as out:
            for key, _ in _ARRAYS:
                record[key].tofile(out)


def load(prefix: Path) -> dict:
    """Read back what ``Tracer.dump`` wrote."""
    record = json.loads(prefix.with_suffix(".json").read_text())
    with open(prefix.with_suffix(".bin"), "rb") as src:
        for key, code in _ARRAYS:
            arr = array.array(code)
            arr.fromfile(src, record["spans"])
            record[key] = arr
    return record


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(traces: list[dict], op_wall_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of every traced operation.

    ``op_wall_s`` is the wall time of the traced operations as the benchmark
    measured them; ``trace.attributed_frac`` is the share of it covered by
    the self time of spans in named layers.
    """
    calls: Counter[str] = Counter()
    entries: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    incl_s: Counter[str] = Counter()
    build_tables_s = 0.0
    counts: Counter[str] = Counter()
    distinct: Counter[str] = Counter()
    spans = 0
    for trace in traces:
        names = trace["names"]
        span_name = [names[i] for i in trace["name_id"]]
        parent, start, end = trace["parent"], trace["start"], trace["end"]
        dur = array.array("d", (e - s for s, e in zip(start, end)))
        own = array.array("d", dur)
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= dur[i]
        for i, name in enumerate(span_name):
            p = parent[i]
            calls[name] += 1
            self_s[name] += own[i]
            incl_s[name] += dur[i]
            if p < 0 or _layer(span_name[p]) != _layer(name):
                entries[_layer(name)] += 1
                if name == "paths.build_table" and p >= 0 and _layer(span_name[p]) == "verify":
                    build_tables_s += dur[i]
        counts.update(trace["counts"])
        distinct.update(trace["distinct"])
        spans += trace["spans"]

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_s.items() if _layer(k) == layer)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sections = Counter()
    for name, value in incl_s.items():
        if name.startswith("verify._check_"):
            sections[VERIFY_SECTIONS.get(name.split(".", 1)[1], "discrepancy")] += value

    m = {
        "series.mul.calls": calls["series.Series.__mul__"],
        "series.mul.self_s": self_s["series.Series.__mul__"],
        "series.mul.coeff_ops": counts["series.mul.coeff_ops"],
        "series.reciprocal.calls": calls["series.Series.reciprocal"],
        "series.reciprocal.self_s": self_s["series.Series.reciprocal"],
        "series.reciprocal.coeff_ops": counts["series.reciprocal.coeff_ops"],
        "series.power.calls": calls["series.Series.power"],
        "series.power.self_s": self_s["series.Series.power"],
        "series.catalan.calls": calls["series.catalan_series"],
        "series.catalan.distinct_ratio": ratio(distinct["series.catalan_series"], calls["series.catalan_series"]),
        "series.catalan.self_s": self_s["series.catalan_series"],
        "series.bivar.self_s": self_s["series.BivarSeries.__mul__"] + self_s["series.BivarSeries.reciprocal"],
        "series.bivar.reciprocal.calls": calls["series.BivarSeries.reciprocal"],
        "chebyshev.r_series.calls": calls["chebyshev.r_series"],
        "chebyshev.r_series.distinct_ratio": ratio(distinct["chebyshev.r_series"], calls["chebyshev.r_series"]),
        "chebyshev.r_series.self_s": self_s["chebyshev.r_series"],
        "chebyshev.u_inv_sq.calls": calls["chebyshev.u_inv_sq_series"],
        "chebyshev.u_inv_sq.self_s": self_s["chebyshev.u_inv_sq_series"],
        "gfcount.calls": entries["gfcount"],
        "gfcount.self_s": layer_self("gfcount"),
        "cfrac.calls": entries["cfrac"],
        "cfrac.levels": counts["cfrac.levels"],
        "cfrac.self_s": layer_self("cfrac"),
        "paths.enum.paths": counts["paths.enumerate_paths.items"],
        "paths.enum.self_s": self_s["paths.enumerate_paths"],
        "paths.dyckpath.validations": counts["paths.dyckpath.validations"],
        "paths.statistics.calls": calls["paths.statistics"],
        "paths.statistics.self_s": self_s["paths.statistics"],
        "paths.psi.calls": calls["paths.psi"],
        "paths.psi.self_s": self_s["paths.psi"],
        "paths.dp.calls": calls["paths._dp_distribution"],
        "paths.dp.steps": counts["paths.dp.steps"],
        "paths.dp.self_s": self_s["paths._dp_distribution"],
    }
    for section in ("three_way", "bijection", "lemma", "cfrac", "discrepancy"):
        m[f"verify.section.{section}_s"] = sections[section]
    m["verify.build_tables_s"] = build_tables_s
    m["verify.self_s"] = layer_self("verify")
    m["cli.self_s"] = layer_self("cli")
    m["trace.spans"] = spans
    m["trace.attributed_frac"] = ratio(sum(layer_self(layer) for layer in LAYERS), op_wall_s)
    return m
