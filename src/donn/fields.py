"""Sampled complex optical fields, grid geometry, and input encoding.

A field is a complex amplitude ``U(x, y)`` sampled on a regular grid of
square pixels; intensity is ``|U|**2``. Arrays are row-major with shape
``(ny, nx)``: axis 0 is y, axis 1 is x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GridSpec:
    """Sampling geometry and wavelength shared by every plane of a system.

    Attributes:
        nx: pixel count along x (array axis 1), at least 2.
        ny: pixel count along y (array axis 0), at least 2.
        pitch: pixel size in meters (square pixels).
        wavelength: illumination wavelength in meters.

    Two fields interoperate only when their grids compare equal.
    """

    nx: int
    ny: int
    pitch: float
    wavelength: float

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid must be at least 2x2, got {self.nx}x{self.ny}")
        if self.pitch <= 0:
            raise ValueError(f"pitch must be positive, got {self.pitch}")
        if self.wavelength <= 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape ``(ny, nx)``."""
        return (self.ny, self.nx)

    @property
    def npix(self) -> int:
        return self.nx * self.ny


# Defaults sized so a three-layer stack carries 3 * 91**2 = 24,843 phase
# values; pitch and wavelength are typical of visible-light modulators.
DEFAULT_GRID = GridSpec(nx=91, ny=91, pitch=8e-6, wavelength=532e-9)


class GridMismatchError(ValueError):
    """Raised when two objects defined on different grids are combined."""


def check_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(f"grid mismatch: {a.grid} vs {b.grid}")


@dataclass(frozen=True, eq=False)
class ComplexField:
    """A complex amplitude sampled on a :class:`GridSpec`.

    ``values`` has shape ``(ny, nx)``, dtype complex128, and is frozen
    after construction so fields can be shared across workers.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != self.grid.shape:
            raise ValueError(
                f"field shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(v.view(np.float64))):
            raise ValueError("field contains non-finite values")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def intensity(self) -> np.ndarray:
        """Pointwise ``|U|**2`` as a float array."""
        return self.values.real**2 + self.values.imag**2


@dataclass(frozen=True)
class EncodeSpec:
    """How an input image becomes a coherent field.

    Attributes:
        upsample: integer nearest-neighbor upsampling factor, at least 1.
        offset: ``(x0, y0)`` pixel position of the embedded image's corner,
            or None to center the footprint in the grid.
        phase: constant encoding phase in radians applied to every nonzero
            pixel (zero by default).
        target_power: total power the encoded field is normalized to.
    """

    upsample: int = 1
    offset: tuple[int, int] | None = None
    phase: float = 0.0
    target_power: float = 1.0

    def __post_init__(self):
        if self.upsample < 1:
            raise ValueError("upsample factor must be >= 1")
        if self.target_power <= 0:
            raise ValueError("target_power must be positive")


def check_images(images: np.ndarray) -> np.ndarray:
    """A (batch, h, w) stack of images in [0, 1] as float64; ValueError names a blank one."""
    imgs = np.asarray(images, dtype=np.float64)
    if imgs.ndim != 3:
        raise ValueError(f"expected (batch, h, w) images, got {imgs.shape}")
    if imgs.max() > 1.0 or imgs.min() < 0.0:
        raise ValueError("image values must lie in [0, 1]")
    blank = np.flatnonzero(~imgs.any(axis=(1, 2)))
    if blank.size:
        raise ValueError(f"degenerate input: zero total power in sample {blank[0]}")
    return imgs


def encode_batch(
    images: np.ndarray, grid: GridSpec, spec: EncodeSpec, out: np.ndarray | None = None
) -> np.ndarray:
    """Encode a stack of images in [0, 1] as power-normalized coherent fields.

    The amplitude at each embedded pixel is proportional to the square
    root of the pixel value (field amplitude encodes intensity), carries
    the constant encoding phase, and every field is scaled so its total
    power equals ``spec.target_power``. Pixels outside the image
    footprint are zero. Returns complex values shaped (batch, ny, nx),
    in ``out`` when it is given.

    Raises:
        ValueError: as :func:`check_images`, or if the upsampled
            footprint does not fit in the grid.
    """
    amp = np.sqrt(check_images(images))
    if spec.upsample > 1:
        amp = np.repeat(np.repeat(amp, spec.upsample, axis=1), spec.upsample, axis=2)
    b, h, w = amp.shape
    if spec.offset is None:
        x0 = (grid.nx - w) // 2
        y0 = (grid.ny - h) // 2
    else:
        x0, y0 = spec.offset
    if x0 < 0 or y0 < 0 or x0 + w > grid.nx or y0 + h > grid.ny:
        raise ValueError(
            f"image footprint {w}x{h} at offset ({x0}, {y0}) exceeds "
            f"grid {grid.nx}x{grid.ny}"
        )
    # no image is blank, so every power is positive: sqrt(x)**2 > 0 for x > 0
    power = np.einsum("bij,bij->b", amp, amp)
    out = np.empty((b, grid.ny, grid.nx), dtype=np.complex128) if out is None else out
    out[...] = 0.0
    window = out[:, y0 : y0 + h, x0 : x0 + w]
    np.multiply(amp, np.sqrt(spec.target_power / power)[:, None, None], out=window.real)
    window *= np.exp(1j * spec.phase)
    return out


def encode_input(image: np.ndarray, grid: GridSpec, spec: EncodeSpec) -> ComplexField:
    """Encode one (h, w) image in [0, 1]: :func:`encode_batch` on a batch of one."""
    return ComplexField(grid, encode_batch(np.asarray(image)[None], grid, spec)[0])


def total_power(field: ComplexField) -> float:
    """Discrete total power, the plain sum of ``|U|**2`` over all pixels.

    The pixel-area factor is deliberately omitted: power is used only for
    normalization and ratios, where it cancels.
    """
    return float(np.sum(field.intensity()))


def frequency_coordinates(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Spatial-frequency samples ``(fx, fy)`` in cycles/meter, DFT order.

    ``fx`` has length ``nx`` and ``fy`` length ``ny``; element 0 of each
    is exactly 0 and the ordering matches ``numpy.fft``.
    """
    return np.fft.fftfreq(grid.nx, grid.pitch), np.fft.fftfreq(grid.ny, grid.pitch)


def wrap_phase(phase: np.ndarray) -> np.ndarray:
    """Wrap angles to [0, 2*pi). Safe against the float edge at 2*pi."""
    out = np.mod(np.asarray(phase, dtype=np.float64), TWO_PI)
    # mod can round up to exactly 2*pi for tiny negative inputs
    if out.ndim == 0:
        return np.float64(0.0) if out >= TWO_PI else out
    out[out >= TWO_PI] = 0.0
    return out
