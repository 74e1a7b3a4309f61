"""The batched forward/adjoint engine: one pool job per chunk for a whole pass.

A pass is one :func:`donn.propagation.map_chunks` dispatch whose job takes a
``CHUNK_ROWS``-sample chunk through encoding, every layer and detection; in
training also the loss head and the adjoint, in slots the calling thread made.
The bytes do not depend on the chunking or the core count. Complex products
keep one operand order (``a*b`` and ``b*a`` can differ in the last bit):
``field * phasor`` for a mask shared by the batch, ``phasor * field`` for one
mask per sample, ``sensitivity * field`` for the adjoint seed and
``conj(adjoint) * post`` for the gradient. Noise is drawn and inputs are
checked (errors name the sample's index) for the whole batch before the
dispatch; the calling thread averages the losses. Each chunk adds its
gradient rows, one sample at a time, into one per-layer sum once the chunk
before it has, so the rows are added in sample order, from +0, as
``rows.sum(axis=0)`` adds them.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

import numpy as np

from .fields import check_images, encode_batch
from .propagation import CHUNK_ROWS, FFT_WORKERS, cached_transfer_function, map_chunks, spectral_chunk
from .readout import batch_class_scores, check_labels, softmax_cross_entropy


class StageClock(Counter):
    """Seconds per engine stage and, under ``"transforms"``, the FFTs run.

    A pass times each chunk in a clock of its own and adds them into the one it is given."""

    def start(self) -> None:
        self.mark = time.perf_counter()

    def tick(self, stage: str, transforms: int = 0) -> None:
        """Charge the time since the last tick or ``start`` to ``stage``."""
        now = time.perf_counter()
        self[stage] += now - self.mark
        self["transforms"] += transforms
        self.mark = now


def _dispatch(job, shape, slots: int, clock) -> None:
    """``map_chunks`` over ``job(rows, workers, slots, lap)``, ``lap`` the chunk's clock or None."""
    laps = None if clock is None else [StageClock() for _ in range(0, shape[0], CHUNK_ROWS)]

    def timed(rows, workers, buffer):
        lap = None if laps is None else laps[rows.start // CHUNK_ROWS]
        if lap is not None: lap.start()
        job(rows, workers, buffer, lap)

    map_chunks(timed, shape, slots)
    for lap in laps or ():
        clock.update(lap)


def modulate(field, mask, sign: float, out, scratch=None, rows=slice(None)):
    """``out = field * exp(j*sign*phase)`` on the chunk ``rows``; ``out`` may be ``field``.

    ``mask`` is ``exp(j*sign*phase)`` for one (ny, nx) phase, or the batch's (batch,
    ny, nx) phases, one per sample, whose phasor is built in ``scratch``."""
    if mask.ndim == 2:
        return np.multiply(field, mask, out=out)
    np.multiply(1j * sign, mask[rows], out=scratch)
    np.exp(scratch, out=scratch)
    return np.multiply(scratch, field, out=out)


def intensity(field, out, imag2):
    """Photodetector intensity ``|U|**2`` of a chunk into ``out``; ``imag2`` is float scratch."""
    np.square(field.real, out=out)
    np.square(field.imag, out=imag2)
    return np.add(out, imag2, out=out)


class Forward:
    """A batch's forward pass through a network, set up in the calling thread.

    ``inputs`` are (batch, h, w) images in [0, 1] to encode as ``encode`` says
    or, with ``encode=None``, (batch, ny, nx) fields, never written.
    ``phases[l]`` is layer l's phase or, under ``noise_sigma > 0``, a (batch,
    ny, nx) stack of Gaussian perturbations of it."""

    def __init__(self, net, inputs, encode=None, noise_sigma: float = 0.0, noise_rng=None):
        grid, d0 = net.grid, net.input_distance
        self.grid, self.encode = grid, encode
        self.inputs = inputs if encode is None else check_images(inputs)
        self.entry = cached_transfer_function(grid, d0) if d0 > 0.0 else None
        self.transfers = [cached_transfer_function(grid, d) for d in net.distances]
        self.phases = [layer.phase for layer in net.layers]
        if noise_sigma > 0.0:
            shape = (len(inputs),) + grid.shape
            self.phases = [p[None] + noise_sigma * noise_rng.standard_normal(shape) for p in self.phases]
        self.masks = [np.exp(1j * 1.0 * p) if p.ndim == 2 else p for p in self.phases]

    def run(self, work, rows=slice(None), kept=None, scratch=None, workers=FFT_WORKERS, lap=None):
        """Load batch rows ``rows`` into ``work`` and take them through every layer;
        ``kept[l]``, when given, receives the fields right after modulation l."""
        if self.encode is None:
            np.copyto(work, self.inputs[rows])
        else:
            encode_batch(self.inputs[rows], self.grid, self.encode, out=work)
        if lap is not None: lap.tick("encode")
        if self.entry is not None:
            spectral_chunk(work, self.entry.values, workers)
            if lap is not None: lap.tick("propagate", 2 * len(work))
        for l, (mask, tf) in enumerate(zip(self.masks, self.transfers)):
            post = work if kept is None else kept[l]
            modulate(work, mask, 1.0, post, scratch, rows)
            if lap is not None: lap.tick("modulate")
            if post is not work:
                work[...] = post
            spectral_chunk(work, tf.values, workers)
            if lap is not None: lap.tick("propagate", 2 * len(work))


def train_pass(
    net, inputs, labels, layout, temperature: float, normalize: bool,
    noise_sigma: float = 0.0, noise_rng=None, encode=None, clock: StageClock | None = None,
) -> tuple[float, list[np.ndarray], np.ndarray]:
    """Mean loss, mean per-layer phase gradients and raw class scores of a batch.

    ``inputs``, ``encode`` and the noise are as for :class:`Forward`.
    """
    b, depth = len(inputs), net.depth
    labels = check_labels(labels, layout.n_classes)
    if clock is not None: clock.start()
    forward = Forward(net, inputs, encode, noise_sigma, noise_rng)
    unmask = [np.exp(1j * -1.0 * p) if p.ndim == 2 else p for p in forward.phases]
    if clock is not None: clock.tick("setup")
    shape = (b,) + net.grid.shape
    losses, scores, total = np.empty(b), np.empty((b, layout.n_classes)), np.zeros((depth,) + net.grid.shape)
    turns = [threading.Event() for _ in range(0, b, CHUNK_ROWS)]  # turns[k]: chunk k has added its rows

    def pass_chunk(rows, workers, slots, lap):
        work, scratch, kept = slots[0], slots[1], slots[2:]
        forward.run(work, rows, kept, scratch, workers, lap)
        power = intensity(work, scratch.real, scratch.imag)
        if lap is not None: lap.tick("detect")
        scores[rows] = batch_class_scores(power, layout)
        losses[rows], dl_ds = softmax_cross_entropy(scores[rows], labels[rows], temperature, normalize)
        # Seed of the adjoint pass: dL/dU* = (dL/dI) * U at the detector plane.
        power[...] = 0.0  # from here on dL/dI
        for c, (x0, y0, x1, y1) in enumerate(layout.regions):
            power[:, y0 : y1 + 1, x0 : x1 + 1] = dl_ds[:, c, None, None]
        np.multiply(power, work, out=work)
        if lap is not None: lap.tick("loss")
        for l in range(depth - 1, -1, -1):
            spectral_chunk(work, forward.transfers[l].conjugate, workers)
            if lap is not None: lap.tick("adjoint", 2 * len(work))
            np.multiply(np.conj(work, out=scratch), kept[l], out=kept[l])
            if lap is not None: lap.tick("phase_grad")
            if l > 0:
                modulate(work, unmask[l], -1.0, work, scratch, rows)
                if lap is not None: lap.tick("modulate")

    def job(rows, workers, slots, lap):
        k = rows.start // CHUNK_ROWS
        try:
            pass_chunk(rows, workers, slots, lap)
            if k:
                turns[k - 1].wait()
            for layer_total, kept in zip(total, slots[2:]):  # kept: conj(adjoint) * post
                for row in kept.imag:
                    np.add(layer_total, row, out=layer_total)
            if lap is not None: lap.tick("phase_grad")
        except BaseException:
            for turn in turns:  # chunks this job will not run must not hold up the others
                turn.set()
            raise
        finally:
            turns[k].set()

    _dispatch(job, shape, depth + 2, clock)
    return float(losses.mean()), [-2.0 * t / b for t in total], scores


def eval_pass(net, inputs, encode=None, clock: StageClock | None = None) -> np.ndarray:
    """Detector intensities ``|U|**2`` of a batch, (batch, ny, nx); inputs as for :class:`Forward`."""
    forward = Forward(net, inputs, encode)
    out = np.empty((len(inputs),) + net.grid.shape)

    def job(rows, workers, slots, lap):
        forward.run(slots[0], rows, workers=workers, lap=lap)
        intensity(slots[0], out[rows], slots[0].imag)
        if lap is not None: lap.tick("detect")

    _dispatch(job, out.shape, 1, clock)
    return out
