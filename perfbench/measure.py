"""Measure one benchmark workload, in a process of its own.

``run.py`` generates the inputs and starts this script. The script times
its own cold set-up from the moment the parent started it, runs whole
timed units of the workload until ``--seconds`` have passed, checks the
outputs, and writes one JSON result to ``--result``.

Set-up covers ``import donn``, loading the IDX inputs through
``donn.dataio``, building the network and detector layout, warming the
transfer-function cache and one warm-up unit. The brief training that
makes the network for ``infer`` and ``realize`` comes after set-up and
before the timed units, so it is in neither. Only the standard library
is imported before ``import donn`` is timed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


class HostProbe:
    """A fixed numpy FFT pair that measures the host's current speed.

    The host's speed drifts by tens of percent in phases of a few
    seconds, and the drift spans whole runs. Each timed unit is divided
    by the mean of the probes taken just before and just after it, which
    cancels the drift; multiplying by the probe's typical time on the
    host the benchmark was defined on turns the ratio back into seconds.
    The probe is the benchmark's own code, so no change to the program
    can move it.

    The drift lives largely in memory bandwidth and page faulting, which
    depend on array size, so each workload names the stack shape that
    tracks it best (``Workload.probe``), allocated afresh as the
    program's arrays are. At most two stacks are alive at once, which
    stays below every workload's own peak memory.
    """

    def __init__(self, shape: tuple[int, int, int]):
        import numpy as np

        rng = np.random.default_rng(0)
        tile = (min(shape[0], 16), 91, 91)
        self.np = np
        self.reps = tuple(n // t for n, t in zip(shape, tile))
        self.tile = rng.standard_normal(tile) + 0j
        self.kernel = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, shape[1:]))

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        x = np.fft.fft2(np.tile(self.tile, self.reps))
        x *= self.kernel
        np.fft.ifft2(x)
        return time.perf_counter() - t0


def timed_units(wl, seconds: float, tracer, min_units: int) -> list[tuple]:
    """Whole units until ``seconds`` have passed, each between two probes.

    Returns ``(traced, start, end, probe before, probe after)`` per unit.
    In a traced run every second unit runs with the tracer's wrappers
    installed, so traced and untraced units see the same host speed and
    their difference is the tracing overhead.
    """
    probe = HostProbe(wl.probe[0])
    last_probe = probe()
    units = []
    deadline = time.perf_counter() + seconds
    i = 1
    while True:
        trace_this = tracer is not None and i % 2 == 0
        if trace_this:
            tracer.install()
        t0 = time.perf_counter()
        try:
            wl.unit(i)
        finally:
            t1 = time.perf_counter()
            if trace_this:
                tracer.uninstall()
        next_probe = probe()
        units.append((trace_this, t0, t1, last_probe, next_probe))
        last_probe = next_probe
        i += 1
        plain = sum(not u[0] for u in units)
        traced_enough = tracer is None or len(units) - plain >= min_units
        if time.perf_counter() >= deadline and plain >= min_units and traced_enough:
            return units


def corrected_seconds(units, nominal_s: float) -> float:
    """Median unit time at the host's nominal speed (see ``HostProbe``)."""
    return nominal_s * statistics.median(
        (t1 - t0) / (0.5 * (before + after)) for _, t0, t1, before, after in units
    )


def layer_metrics(wl, tracer, units, phases) -> dict:
    """Per-layer metrics from the traced units, each per timed unit."""
    traced = [u for u in units if u[0]]
    plain = [u for u in units if not u[0]]
    n = len(traced)
    self_s = tracer.self_seconds()
    adam_ends = tracer.returns("adam")
    steps = []
    for _, t0, t1, _, _ in traced:
        ends = [t for t in adam_ends if t0 <= t <= t1]
        steps += [b - a for a, b in zip(ends, ends[1:])]
    wall = sum(t1 - t0 for _, t0, t1, _, _ in traced)
    values = {
        "train.step_s": (statistics.median(steps) if steps else 0.0, "s"),
        "encode.calls": (tracer.calls["encode"] / n, "count"),
        "propagate.calls": (tracer.calls["propagate"] / n, "count"),
        "adjoint.calls": (tracer.calls["adjoint"] / n, "count"),
        "fft.transforms_per_sample": (tracer.counts["fft.transforms"] / (n * wl.unit_items), "count"),
        "reconstruct.fft_pixels": (tracer.counts["reconstruct.fft_pixels"] / n, "count"),
        "other.self_s": ((wall - tracer.top_level_seconds()) / n, "s"),
        "trace.overhead_pct": (
            100.0 * (corrected_seconds(traced, 1.0) / corrected_seconds(plain, 1.0) - 1.0), "%"
        ),
        "host.probe_s": (statistics.median(u[3] for u in units), "s"),
    }
    for layer in ("encode", "propagate", "adjoint", "modulate", "detect", "phase_grad", "adam", "hologram",
                  "reconstruct", "fabricate", "fidelity", "checkpoint_load", "checkpoint_save"):
        values[f"{layer}.self_s"] = (self_s[layer] / n, "s")
    for name in ("import_s", "data_load_s", "warmup_s"):
        values[name] = (phases[name], "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="one donn benchmark workload (started by run.py)")
    p.add_argument("--workload", required=True, choices=("train", "infer", "realize"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--data", required=True, help="JSON {split: [images path, labels path]}")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", help="where a traced run writes its spans, one JSON object a line")
    p.add_argument("--spawned-at", required=True, type=float, help="time.monotonic() when started")
    args = p.parse_args(argv)

    phases = {}
    t = time.monotonic()
    import donn  # noqa: F401  (timed: the first import of numpy, scipy and donn)

    phases["import_s"] = time.monotonic() - t
    from donn import dataio

    import workloads

    t = time.monotonic()
    data = {name: dataio.load_dataset(*paths, split=name) for name, paths in json.loads(args.data).items()}
    phases["data_load_s"] = time.monotonic() - t
    t = time.monotonic()
    wl = workloads.WORKLOADS[args.workload](args.seed, data, Path(args.work_dir))
    wl.build()
    wl.unit(0)
    phases["warmup_s"] = time.monotonic() - t
    setup_s = time.monotonic() - args.spawned_at

    wl.prepare()
    notes = []
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        notes += [f"absent layer binding: {b}" for b in tracing.absent_bindings()]
    units = timed_units(wl, args.seconds, tracer, min_units=2)
    failures = wl.check()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        metrics = {
            "unit_s": {"value": corrected_seconds(units, wl.probe[1]), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = layer_metrics(wl, tracer, units, phases)
        if args.spans:
            tracer.write(Path(args.spans))
            notes.append(f"spans written to {args.spans}")
    raw = [t1 - t0 for traced, t0, t1, _, _ in units if not traced]
    notes += [f"check failed: {f}" for f in failures]
    notes.append(
        f"{args.workload}: {len(units)} units of {wl.unit_items} items; untraced wall time per unit "
        f"median {statistics.median(raw):.4f} s, max {max(raw):.4f} s; host probe median "
        f"{statistics.median(u[3] for u in units):.4f} s; checks {json.dumps(wl.report)}"
    )
    result = {
        "correct": not failures,
        "attempted": len(units),
        "failed": 0,
        "metrics": metrics,
        "unit_items": wl.unit_items,
        "notes": notes,
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
