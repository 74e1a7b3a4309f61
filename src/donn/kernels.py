"""Elementwise kernels of the batched engine, arrays shaped (batch, ny, nx).

The FFT stages of propagation live in :mod:`donn.propagation`. The phase
gradient reduces over the batch in a fixed sample order, so results are
bit-reproducible.
"""

from __future__ import annotations

import numpy as np


def apply_phase(field, phase, sign):
    """Multiply by ``exp(j*sign*phase)``.

    ``phase`` is one (ny, nx) mask shared by the batch, or one
    (batch, ny, nx) mask per sample under noise injection.
    """
    return field * np.exp(1j * sign * phase)


def intensity(field):
    """Photodetector intensity ``|U|**2``."""
    return field.real**2 + field.imag**2


def phase_gradient(post_field, adjoint_field):
    """Batch-summed d(loss)/d(phase) from post-modulation and adjoint fields."""
    prod = post_field * np.conj(adjoint_field)
    return -2.0 * prod.imag.sum(axis=0)
