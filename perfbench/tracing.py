"""Spans around the program's layers, as the calling modules bind them.

``training.py`` imports ``propagate_array`` by name, so a span on
``donn.propagation.propagate_array`` alone would never see a training
call. Each layer therefore lists the module attribute that its callers
look up at call time, and the tracer replaces that attribute with a
timing wrapper for the traced units only, restoring it afterwards.

A binding that no longer exists (a later change moved or inlined the
function) is reported as absent; it is never an error.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path

# layer -> bindings (module, attribute) its callers resolve at call time.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "encode": [("donn.training", "encode_batch")],
    "propagate": [("donn.training", "propagate_array"), ("donn.network", "propagate_array")],
    "adjoint": [("donn.training", "adjoint_propagate_array")],
    "modulate": [("donn.kernels", "apply_phase"), ("donn.kernels", "apply_phase_per_sample")],
    "detect": [("donn.kernels", "intensity"), ("donn.training", "batch_class_scores")],
    "phase_grad": [("donn.kernels", "phase_gradient")],
    "adam": [("donn.training", "adam_step")],
    "hologram": [("donn.hibl", "encode_hologram")],
    "reconstruct": [("donn.hibl", "reconstruct_phase")],
    "fabricate": [("donn.hibl", "fabricate")],
    "fidelity": [("donn.hibl", "fidelity_metrics")],
    "checkpoint_load": [("donn.dataio", "load_checkpoint")],
    "checkpoint_save": [("donn.dataio", "save_checkpoint")],
}


def _batch(values) -> int:
    return values.shape[0] if values.ndim == 3 else 1


# layer -> (counter name, work done by one call, from its arguments).
COUNTERS = {
    "propagate": ("fft.transforms", lambda args: 2 * _batch(args[0])),
    "adjoint": ("fft.transforms", lambda args: 2 * _batch(args[0])),
    "reconstruct": ("reconstruct.fft_pixels", lambda args: 2 * args[0].intensity.size),
}


def resolve(module: str, attr: str):
    """The function bound at ``module.attr``, or None when it is gone."""
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return None


def absent_bindings() -> list[str]:
    return [
        f"{module}.{attr}"
        for bindings in LAYERS.values()
        for module, attr in bindings
        if resolve(module, attr) is None
    ]


class Tracer:
    """In-memory spans ``(id, parent, layer, start, end, self_s)``.

    ``install`` puts the wrappers in place and ``uninstall`` restores the
    original bindings, so code outside ``install``/``uninstall`` runs the
    program untouched.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self._stack: list[list] = []
        self._saved: list[tuple] = []
        self._next_id = 0

    def _wrap(self, layer: str, fn):
        counter = COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]  # id, time covered by child spans
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent[1] += end - start
                self.spans.append(
                    (span_id, None if parent is None else parent[0], layer,
                     start, end, end - start - frame[1])
                )
                self.calls[layer] += 1
                if counter is not None:
                    self.counts[counter[0]] += counter[1](args)

        return traced

    def install(self) -> None:
        for layer, bindings in LAYERS.items():
            for module, attr in bindings:
                fn = resolve(module, attr)
                if fn is None:
                    continue
                mod = importlib.import_module(module)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(layer, fn))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def self_seconds(self) -> Counter:
        out: Counter = Counter()
        for _, _, layer, _, _, self_s in self.spans:
            out[layer] += self_s
        return out

    def top_level_seconds(self) -> float:
        """Time covered by spans that no other span encloses."""
        return sum(end - start for _, parent, _, start, end, _ in self.spans if parent is None)

    def returns(self, layer: str) -> list[float]:
        """End times of every span of ``layer``, earliest first."""
        return sorted(end for _, _, name, _, end, _ in self.spans if name == layer)

    def write(self, path: Path) -> None:
        """All spans, one JSON object a line, in the order they ended."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "layer", "start", "end", "self_s")
        path.write_text("".join(json.dumps(dict(zip(keys, span))) + "\n" for span in self.spans))
