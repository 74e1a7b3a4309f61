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
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np
import scipy.fft as _fft

from .fields import TWO_PI, ComplexField, GridSpec, check_same_grid, frequency_coordinates

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

# Engine stages run in chunks of CHUNK_ROWS samples on one pool of
# FFT_WORKERS threads, started on first use. A multiple of 8 rows starts
# every chunk at the same SIMD phase as the whole stack.
CHUNK_ROWS = 16


def _new_pool() -> None:
    global _POOL
    _POOL = ThreadPoolExecutor(FFT_WORKERS) if FFT_WORKERS > 1 else None


_new_pool()
if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=_new_pool)


def map_chunks(task, shape: tuple[int, ...], slots: int = 0) -> None:
    """Run ``task(rows, workers, buffer)`` over ``CHUNK_ROWS``-row slices of a stack.

    ``shape`` is the (batch, ny, nx) shape of the stack, split on its
    first axis, and ``workers`` the FFT worker count for a chunk. Arrays
    are allocated in the calling thread only: given ``slots``, each job
    reuses one (slots, rows, ny, nx) complex ``buffer`` for its
    temporaries. With one worker or one chunk, the chunks run in order in
    the calling thread, and the bytes are the same.
    """
    n, pool = shape[0], _POOL
    starts = range(0, n, CHUNK_ROWS)
    jobs = 1 if pool is None else min(FFT_WORKERS, len(starts))
    workers = FFT_WORKERS if jobs == 1 else 1
    buffers = None
    if slots:
        buffers = np.empty((jobs, slots, min(n, CHUNK_ROWS)) + tuple(shape[1:]), np.complex128)

    def run(job):
        for start in starts[job::jobs]:
            buffer = None if buffers is None else buffers[job][:, : n - start]
            task(slice(start, start + CHUNK_ROWS), workers, buffer)

    if jobs == 1:
        run(0)
        return
    futures = [pool.submit(run, job) for job in range(jobs)]
    wait(futures)
    for future in futures:
        future.result()


def spectral_chunk(chunk: np.ndarray, multiplier: np.ndarray, workers: int):
    """:func:`spectral_multiply` on one chunk, in place."""
    _fft.fft2(chunk, axes=(-2, -1), overwrite_x=True, workers=workers)
    np.multiply(chunk, multiplier, out=chunk)
    _fft.ifft2(chunk, axes=(-2, -1), overwrite_x=True, workers=workers)
    return chunk


def spectral_multiply(
    values: np.ndarray, multiplier: np.ndarray, out=None, stride: int = 1
) -> np.ndarray:
    """Transform the last two axes of a (batch, ny, nx) stack, multiply, transform back.

    This is the package's one FFT sandwich: propagation, its adjoint,
    bandlimiting and the HIBL readout all run through it. ``values`` is
    never written unless it is ``out``: the engine keeps
    post-modulation fields for the phase gradient. At ``stride = 1``
    each ``CHUNK_ROWS``-sample chunk is copied into ``out`` and
    transformed, multiplied and transformed back there, one pool job
    per chunk.

    ``stride = s > 1`` (dividing both grid axes) returns only the samples
    ``[:, s//2::s, s//2::s]`` of the result, as a new
    (batch, ny/s, nx/s) array, and ``out`` is left holding spent
    spectra. The forward transform runs as its two passes, which give
    the bytes of ``fft2``: the column pass over the whole stack, then the
    row pass in row chunks on the pool. Each pool job owns some coarse
    rows r and folds the multiplied spectrum rows ``r + a*ny/s`` onto
    them, one axis at a time: each axis is multiplied by the twiddle
    ``exp(2j*pi*k*(s//2)/n)`` that shifts the samples to index 0 and its
    ``s`` aliases of length ``n/s`` are summed. A band of rows where
    ``multiplier`` is all zero adds nothing, so its row pass is skipped. One
    (ny/s) x (nx/s) inverse transform, scaled by ``1/s**2``, then gives
    the samples.
    """
    batch, ny, nx = values.shape
    if stride < 1 or ny % stride or nx % stride:
        raise ValueError(f"stride {stride} must be >= 1 and divide the grid {(ny, nx)}")
    if out is None:
        out = np.empty(values.shape, np.complex128)
    if stride > 1:
        return _sampled_sandwich(values, multiplier, out, stride)

    def sandwich(rows, workers, _):
        chunk = out[rows]
        if out is not values:
            chunk[...] = values[rows]
        spectral_chunk(chunk, multiplier, workers)

    map_chunks(sandwich, values.shape)
    return out


def _sampled_sandwich(values, multiplier, out, stride: int) -> np.ndarray:
    """:func:`spectral_multiply` at ``stride > 1``."""
    batch, ny, nx = values.shape
    my, mx = ny // stride, nx // stride
    if out is not values:
        np.copyto(out, values)
    _fft.fft(out, axis=-2, overwrite_x=True, workers=FFT_WORKERS)
    live = multiplier.any(axis=-1)
    shift = TWO_PI * (stride // 2)
    twiddle_y = np.exp(1j * shift * np.arange(ny) / ny)[:, None]
    twiddle_x = np.exp(1j * shift * np.arange(nx) / nx)
    sampled = np.empty((batch, my, mx), np.complex128)

    def fold(rows, workers, _):  # coarse rows r, from spectrum rows r + a*my
        r = range(my)[rows]
        folded = None
        for a in range(stride):
            band = slice(r.start + a * my, r.stop + a * my)
            if not live[band].any():
                continue
            spectrum = out[:, band]
            _fft.fft(spectrum, axis=-1, overwrite_x=True, workers=workers)
            np.multiply(spectrum, multiplier[band], out=spectrum)
            np.multiply(spectrum, twiddle_y[band], out=spectrum)
            if folded is None:
                folded = spectrum
            else:
                np.add(folded, spectrum, out=folded)
        coarse = sampled[:, rows]
        if folded is None:
            coarse[...] = 0.0
            return
        np.multiply(folded, twiddle_x, out=folded)
        coarse[...] = folded[:, :, :mx]
        for a in range(1, stride):
            np.add(coarse, folded[:, :, a * mx : (a + 1) * mx], out=coarse)

    map_chunks(fold, (my,))
    _fft.ifft2(sampled, axes=(-2, -1), overwrite_x=True, workers=FFT_WORKERS)
    return np.multiply(sampled, 1.0 / stride**2, out=sampled)


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


def propagate_array(values: np.ndarray, tf: TransferFunction, out=None) -> np.ndarray:
    """Angular-spectrum propagation of a stack of fields, shape (batch, ny, nx).

    Zero distance returns the input bit-for-bit up to FFT rounding.
    Boundary conditions are periodic, inherited from the DFT. Shapes are
    not validated; :func:`propagate` is the checked single-field view.
    ``out`` (which may be ``values``) receives the result.
    """
    return spectral_multiply(values, tf.values, out)


def adjoint_propagate_array(values: np.ndarray, tf: TransferFunction, out=None) -> np.ndarray:
    """Adjoint of :func:`propagate_array` for the same transfer function.

    Same FFT sandwich with the conjugated multipliers, satisfying
    ``<propagate_array(a), b> = <a, adjoint_propagate_array(b)>`` in the discrete
    complex inner product. On bandlimited fields it inverts propagation
    (unitarity on propagating modes).
    """
    return spectral_multiply(values, tf.conjugate, out)


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
    return ComplexField(field.grid, spectral_multiply(field.values[None], mask)[0])
