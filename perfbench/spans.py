"""Span tracing of y00sim's layers, installed from outside the package.

A layer is one module of ``y00sim``. The tracer replaces each traced name
where its caller looks it up (``scenario.srm_error``,
``detection.psd_matrix_sqrt``, ``kernels.srm_sample``,
``KeystreamGenerator.take``, ...) with a wrapper that records a span: name,
start, end, parent span and op id. A span is labelled by the module that
defines the function, so ``scenario.srm_error`` counts for ``detection``.
Spans are stored in flat arrays in memory and written out at the end.

A span's self time is its duration minus its child spans' durations;
calls run one at a time, so children never overlap. The self times of
one op's spans add up to the op's root span.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = (
    "cli", "scenario", "y00_cipher", "kernels", "detection",
    "coherent_algebra", "fiber_link", "overlap_coding",
)

ROOT_SPAN = "cli.main"

# Every per-layer metric of a traced run, with its unit. Seconds and counts
# are totals over the traced pass; trace.overhead is traced over untraced
# median op time, minus 1.
_COUNT = "count"
PER_LAYER_UNITS = {
    "y00_cipher.take_calls": _COUNT,
    "y00_cipher.keystream_bits": "bit",
    "y00_cipher.take_s": "s",
    "y00_cipher.keystream_bits_per_s": "bit/s",
    "y00_cipher.frames": _COUNT,
    "y00_cipher.frames_self_s": "s",
    "y00_cipher.bits_per_frame": "bit",
    "y00_cipher.self_s": "s",
    "scenario.self_s": "s",
    "scenario.mc_chunks": _COUNT,
    "kernels.busy_s": "s",
    "kernels.srm_sample_s": "s",
    "kernels.coded_errors_s": "s",
    "kernels.bob_errors_s": "s",
    "kernels.symbols_per_s": "1/s",
    "kernels.srm_cells": _COUNT,
    "detection.self_s": "s",
    "detection.srm_calls": _COUNT,
    "detection.helstrom_calls": _COUNT,
    "detection.minimax_pair_calls": _COUNT,
    "coherent_algebra.self_s": "s",
    "coherent_algebra.gram_calls": _COUNT,
    "coherent_algebra.gram_s": "s",
    "coherent_algebra.gram_cells": _COUNT,
    "coherent_algebra.sqrt_calls": _COUNT,
    "coherent_algebra.sqrt_s": "s",
    "coherent_algebra.eigh_n3": _COUNT,
    "coherent_algebra.fraction_s": "s",
    "fiber_link.calls": _COUNT,
    "fiber_link.busy_s": "s",
    "overlap_coding.busy_s": "s",
    "cli.parse_s": "s",
    "cli.render_s": "s",
    "cli.self_s": "s",
    "kernels.self_s": "s",
    "fiber_link.self_s": "s",
    "overlap_coding.self_s": "s",
    "op.traced_s": "s",
    "trace.overhead": "ratio",
}

# Private helpers traced for a count or a layer boundary. Other private
# names run inside their caller's span.
_PRIVATE = {"scenario": ("_chunk_rng", "_draw_code_ids", "_link_tables")}

# kernels.lfsr_fill is the keystream's inner loop: its time belongs to
# KeystreamGenerator.take, not to the Monte Carlo kernels.
_UNTRACED = {"kernels": ("lfsr_fill",)}


# Work counted per span, from the call's arguments.
_ITEMS = {
    "y00_cipher.take": lambda gen, n_bits: n_bits,
    "y00_cipher.draw_symbol_frames": lambda gen, m, assignment, count: count,
    "scenario._draw_code_ids": lambda gen, count: count,
    "coherent_algebra.gram_matrix": lambda ensemble: len(ensemble) ** 2,
    "coherent_algebra.psd_matrix_sqrt": lambda matrix: len(matrix) ** 3,
    "kernels.srm_sample": lambda cdf, level_idx, u, out: len(level_idx) * cdf.shape[1],
    "kernels.bob_errors": lambda level_idx, *rest: len(level_idx),
    "kernels.coded_errors": lambda basis, *rest: 3 * len(basis),
}


# Span labels that per-layer metrics read one by one (layer_totals and
# _ITEMS); every other metric sums whole layers.
COUNTED_LABELS = frozenset(_ITEMS) | {
    "y00_cipher.next_symbol_map", "scenario._chunk_rng",
    "detection.srm_error", "detection.srm_confusion",
    "detection.helstrom_mixed_pair", "detection.helstrom_pure_pair", "detection.minimax_pair",
    "coherent_algebra.lossy_shared_state", "coherent_algebra.entangled_fraction",
    "cli.parse", "cli.render",
}


class Tracer:
    """Records spans while installed; one op at a time, one thread."""

    def __init__(self):
        from y00sim import scenario, y00_cipher

        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.items = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op_id = -1

        self._patches = []  # (owner, attribute, original, wrapped)
        for layer in LAYERS:
            module = importlib.import_module(f"y00sim.{layer}")
            for name, value in vars(module).items():
                # Any callable but a class: a numba kernel is a dispatcher
                # object whose py_func carries the defining module.
                if not callable(value) or inspect.isclass(value):
                    continue
                defined_in = getattr(getattr(value, "py_func", value), "__module__", None) or ""
                if not defined_in.startswith("y00sim."):
                    continue
                if name.startswith("_") and name not in _PRIVATE.get(layer, ()):
                    continue
                if name in _UNTRACED.get(layer, ()) or (layer == "cli" and name == "main"):
                    continue
                self._patch(module, name, f"{defined_in.rsplit('.', 1)[1]}.{name}", value)
        self._patch(y00_cipher.KeystreamGenerator, "take", "y00_cipher.take")
        self._patch(scenario.TrialReport, "to_text", "cli.render")
        self._patch(scenario.AttackReport, "to_text", "cli.render")
        self._patch(scenario.ScenarioConfig, "from_file", "cli.parse")
        # Labels a per-layer metric reads that the program no longer has
        # (renamed or removed): their metrics read 0.
        self.missing = sorted(COUNTED_LABELS - set(self.names))

    def _patch(self, owner, attribute, label, original=None):
        """Trace ``owner.attribute``. A name the program no longer has is
        skipped and listed in ``missing``, instead of the traced op failing."""
        original = vars(owner).get(attribute) if original is None else original
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(label, original.__func__))
        elif callable(original):
            wrapped = self._wrap(label, original)
        else:
            return
        self._patches.append((owner, attribute, original, wrapped))

    def _name(self, label: str) -> int:
        if label not in self._name_ids:
            self._name_ids[label] = len(self.names)
            self.names.append(label)
        return self._name_ids[label]

    def _wrap(self, label: str, fn):
        nid = self._name(label)
        items = _ITEMS.get(label)
        stack = self._stack

        def count(args, kwargs) -> int:
            try:
                return int(items(*args, **kwargs)) if items else 0
            except (TypeError, AttributeError):  # the call's signature changed
                return 0

        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self._op_id)
            self.items.append(count(args, kwargs))
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        traced.__doc__ = fn.__doc__
        return traced

    @contextmanager
    def op_span(self, op_id: int, main):
        """Install the wrappers and yield ``main`` wrapped as the op's root span."""
        self._op_id = op_id
        for owner, attribute, _, wrapped in self._patches:
            setattr(owner, attribute, wrapped)
        try:
            yield self._wrap(ROOT_SPAN, main)
        finally:
            for owner, attribute, original, _ in self._patches:
                setattr(owner, attribute, original)
            self._op_id = -1
            del self._stack[1:]

    def take_op(self) -> dict[str, np.ndarray]:
        """Remove the recorded spans and return them as arrays.

        ``parent`` indexes into the returned arrays (-1 for a root span).
        """
        spans = {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "items": np.frombuffer(self.items, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }
        for column in (self.name_id, self.parent, self.op, self.items, self.start, self.end):
            del column[:]
        return spans


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    has_parent = parent >= 0
    children = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - children


def layer_totals(spans: dict[str, np.ndarray], names: list[str]) -> dict[str, float]:
    """Per-layer counts and seconds of a set of spans; totals add across ops."""
    label = np.array(names, dtype=str)[spans["name_id"]]
    layer = np.array([name.split(".", 1)[0] for name in names], dtype=str)[spans["name_id"]]
    duration = spans["end"] - spans["start"]
    own = self_times(spans["parent"], duration)
    items = spans["items"]
    parent_layer = np.where(spans["parent"] >= 0, layer[np.maximum(spans["parent"], 0)], "")

    def pick(*labels):
        assert set(labels) <= COUNTED_LABELS | {ROOT_SPAN}, labels
        return np.isin(label, labels)

    def busy(name):  # time with at least one span of the layer open
        return float(duration[(layer == name) & (parent_layer != name)].sum())

    take = pick("y00_cipher.take")
    totals = {f"{name}.self_s": float(own[layer == name].sum()) for name in LAYERS}
    gram = pick("coherent_algebra.gram_matrix")
    sqrt = pick("coherent_algebra.psd_matrix_sqrt")
    totals.update({
        "y00_cipher.take_calls": int(take.sum()),
        "y00_cipher.keystream_bits": int(items[take].sum()),
        "y00_cipher.take_s": float(duration[take].sum()),
        "y00_cipher.frames": int(items[pick("y00_cipher.draw_symbol_frames")].sum()),
        "y00_cipher.frames_self_s": float(
            own[pick("y00_cipher.draw_symbol_frames", "y00_cipher.next_symbol_map")].sum()
        ),
        "scenario.mc_chunks": int(pick("scenario._chunk_rng").sum()),
        "kernels.busy_s": busy("kernels"),
        "kernels.srm_sample_s": float(duration[pick("kernels.srm_sample")].sum()),
        "kernels.coded_errors_s": float(duration[pick("kernels.coded_errors")].sum()),
        "kernels.bob_errors_s": float(duration[pick("kernels.bob_errors")].sum()),
        "kernels.symbols": int(items[pick("kernels.bob_errors", "kernels.coded_errors")].sum()),
        "kernels.srm_cells": int(items[pick("kernels.srm_sample")].sum()),
        "detection.srm_calls": int(pick("detection.srm_error", "detection.srm_confusion").sum()),
        "detection.helstrom_calls": int(
            pick("detection.helstrom_mixed_pair", "detection.helstrom_pure_pair").sum()
        ),
        "detection.minimax_pair_calls": int(pick("detection.minimax_pair").sum()),
        "coherent_algebra.gram_calls": int(gram.sum()),
        "coherent_algebra.gram_s": float(duration[gram].sum()),
        "coherent_algebra.gram_cells": int(items[gram].sum()),
        "coherent_algebra.sqrt_calls": int(sqrt.sum()),
        "coherent_algebra.sqrt_s": float(duration[sqrt].sum()),
        "coherent_algebra.eigh_n3": int(items[sqrt].sum()),
        "coherent_algebra.fraction_s": float(duration[pick(
            "coherent_algebra.lossy_shared_state", "coherent_algebra.entangled_fraction"
        )].sum()),
        "fiber_link.calls": int((layer == "fiber_link").sum()),
        "fiber_link.busy_s": busy("fiber_link"),
        "overlap_coding.busy_s": busy("overlap_coding"),
        "cli.parse_s": float(duration[pick("cli.parse")].sum()),
        "cli.render_s": float(duration[pick("cli.render")].sum()),
        "op.traced_s": float(duration[pick(ROOT_SPAN)].sum()),
    })
    return totals


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """Totals plus the rates and ratios derived from them."""

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    metrics = dict(totals)
    symbols = metrics.pop("kernels.symbols")
    metrics["y00_cipher.keystream_bits_per_s"] = ratio(
        totals["y00_cipher.keystream_bits"], totals["y00_cipher.take_s"]
    )
    metrics["y00_cipher.bits_per_frame"] = ratio(
        totals["y00_cipher.keystream_bits"], totals["y00_cipher.frames"]
    )
    metrics["kernels.symbols_per_s"] = ratio(symbols, totals["kernels.busy_s"])
    return metrics
