"""Elementwise kernels of the batched engine, arrays shaped (batch, ny, nx).

The FFT stages of propagation live in :mod:`donn.propagation`. Kernels
run in chunks on its thread pool (:func:`donn.propagation.map_chunks`).
The phase gradient reduces over the batch in one fixed sample order, so
results are bit-reproducible whatever the core count.

Complex products keep one operand order at every array size (a*b and b*a
can differ in the last bit): the phasor or conjugate comes first, as
numpy's temporary elision ordered them for stacks of 256 KiB or more.
Below that size (one 91x91 sample) the order was the reverse, so fixing
it moved the gradients of a one-sample batch, as in
``training.loss_and_gradients``, by at most one ulp of the largest
gradient (3.5e-18 on gradients up to 2.1e-2); the loss did not move.
"""

from __future__ import annotations

import numpy as np

from .propagation import map_chunks


def apply_phase(field, phase, sign, out=None):
    """Multiply by ``exp(j*sign*phase)``.

    ``phase`` is one (ny, nx) mask shared by the batch, or one
    (batch, ny, nx) mask per sample under noise injection. ``out`` (which
    may be ``field``) receives the result.
    """
    if out is None:
        out = np.empty(field.shape, np.complex128)
    if phase.ndim == 2:
        phasor = np.exp(1j * sign * phase)
        map_chunks(lambda rows, *_: np.multiply(field[rows], phasor, out=out[rows]), field.shape)
        return out

    def modulate_each(rows, workers, phasor):
        np.multiply(1j * sign, phase[rows], out=phasor)
        np.exp(phasor, out=phasor)
        np.multiply(phasor, field[rows], out=out[rows])

    map_chunks(modulate_each, field.shape, np.complex128)
    return out


def intensity(field):
    """Photodetector intensity ``|U|**2``."""
    out = np.empty(field.shape)

    def detect(rows, workers, imag2):
        np.square(field[rows].real, out=out[rows])
        np.square(field[rows].imag, out=imag2)
        np.add(out[rows], imag2, out=out[rows])

    map_chunks(detect, field.shape, np.float64)
    return out


def phase_gradient(post_field, adjoint_field):
    """Batch-summed d(loss)/d(phase) from post-modulation and adjoint fields."""
    rows_stack = np.empty(post_field.shape)

    def gradient_rows(rows, workers, prod):
        np.conj(adjoint_field[rows], out=prod)
        np.multiply(prod, post_field[rows], out=prod)
        rows_stack[rows] = prod.imag

    map_chunks(gradient_rows, post_field.shape, np.complex128)
    return -2.0 * rows_stack.sum(axis=0)
