"""Free-space propagation by the angular spectrum method.

Propagation over a distance d is diagonal in the spatial-frequency
domain: transform, multiply by the free-space transfer function

    H(fx, fy, d) = exp(j 2 pi d sqrt(1/wavelength**2 - fx**2 - fy**2)),

and transform back. Frequencies with ``fx**2 + fy**2 > 1/wavelength**2``
are evanescent; there the square root is taken as ``+j*sqrt(...)`` so
they decay exponentially for d >= 0 instead of propagating. On the
propagating disc |H| = 1 exactly, so the operator is unitary there and
never adds power.

The matching adjoint (conjugated transfer function) is provided for
gradient computation; it is preferred over "propagate by -d", which
would amplify evanescent components exponentially.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np
import scipy.fft as _fft

from .fields import ComplexField, GridSpec, check_same_grid, frequency_coordinates

__all__ = [
    "TransferFunction",
    "transfer_function",
    "cached_transfer_function",
    "propagate",
    "adjoint_propagate",
    "bandlimit_to_propagating",
]


# Every FFT runs on all the cores this process may use; the result does
# not depend on the count.
FFT_WORKERS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)


def _spectral_multiply(values: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """Transform the last two axes, multiply by ``multiplier``, transform back.

    ``values`` is never written: the engine keeps post-modulation fields
    for the phase gradient. The one spectrum the forward transform
    allocates is multiplied in place and reused by the inverse.
    """
    spectrum = _fft.fft2(values, axes=(-2, -1), workers=FFT_WORKERS)
    spectrum *= multiplier
    return _fft.ifft2(spectrum, axes=(-2, -1), overwrite_x=True, workers=FFT_WORKERS)


@dataclass(frozen=True, eq=False)
class TransferFunction:
    """Spectral multipliers for one (grid, distance) pair, DFT ordering.

    ``values`` has unit modulus on propagating frequencies and real
    modulus <= 1 on evanescent ones when ``distance >= 0``; ``conjugate``
    holds ``np.conj(values)`` for the adjoint. Both are read-only.
    """

    grid: GridSpec
    distance: float
    values: np.ndarray
    conjugate: np.ndarray = dataclass_field(init=False, repr=False)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128)
        v.setflags(write=False)
        c = np.conj(v)
        c.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "conjugate", c)


def _squared_frequency_grid(grid: GridSpec) -> np.ndarray:
    fx, fy = frequency_coordinates(grid)
    return fx[None, :] ** 2 + fy[:, None] ** 2


def transfer_function(grid: GridSpec, distance: float) -> TransferFunction:
    """Build the free-space transfer function for one propagation distance.

    Propagating frequencies get the pure phase factor
    ``exp(j 2 pi d sqrt(1/lam**2 - f**2))``; evanescent ones get the real
    attenuation ``exp(-2 pi d sqrt(f**2 - 1/lam**2))``.
    """
    f2 = _squared_frequency_grid(grid)
    arg = 1.0 / grid.wavelength**2 - f2
    values = np.empty(grid.shape, dtype=np.complex128)
    prop = arg > 0.0
    values[prop] = np.exp(1j * 2.0 * np.pi * distance * np.sqrt(arg[prop]))
    values[~prop] = np.exp(-2.0 * np.pi * distance * np.sqrt(-arg[~prop]))
    return TransferFunction(grid, float(distance), values)


@lru_cache(maxsize=None)
def cached_transfer_function(grid: GridSpec, distance: float) -> TransferFunction:
    """Memoized :func:`transfer_function`; training reuses these heavily."""
    return transfer_function(grid, distance)


def propagate_array(values: np.ndarray, tf: TransferFunction) -> np.ndarray:
    """Angular-spectrum propagation of a stack of fields, shape (batch, ny, nx).

    Zero distance returns the input bit-for-bit up to FFT rounding.
    Boundary conditions are periodic, inherited from the DFT. Shapes are
    not validated; :func:`propagate` is the checked single-field view.
    """
    return _spectral_multiply(values, tf.values)


def adjoint_propagate_array(values: np.ndarray, tf: TransferFunction) -> np.ndarray:
    """Adjoint of :func:`propagate_array` for the same transfer function.

    Same FFT sandwich with the conjugated multipliers, satisfying
    ``<propagate_array(a), b> = <a, adjoint_propagate_array(b)>`` in the discrete
    complex inner product. On bandlimited fields it inverts propagation
    (unitarity on propagating modes).
    """
    return _spectral_multiply(values, tf.conjugate)


def propagate(field: ComplexField, tf: TransferFunction) -> ComplexField:
    """:func:`propagate_array` on one field, checking that the grids match."""
    check_same_grid(field, tf)
    return ComplexField(field.grid, propagate_array(field.values[None], tf)[0])


def adjoint_propagate(field: ComplexField, tf: TransferFunction) -> ComplexField:
    """:func:`adjoint_propagate_array` on one field, checking that the grids match."""
    check_same_grid(field, tf)
    return ComplexField(field.grid, adjoint_propagate_array(field.values[None], tf)[0])


def propagating_mask(grid: GridSpec) -> np.ndarray:
    """Boolean DFT-order mask of strictly propagating frequencies."""
    return _squared_frequency_grid(grid) < 1.0 / grid.wavelength**2


def bandlimit_to_propagating(field: ComplexField) -> ComplexField:
    """Project a field onto its propagating modes.

    Spectral components with ``fx**2 + fy**2 >= 1/wavelength**2`` are set
    to zero; the rest pass unchanged. Idempotent.
    """
    mask = propagating_mask(field.grid)
    return ComplexField(field.grid, _spectral_multiply(field.values, mask))
