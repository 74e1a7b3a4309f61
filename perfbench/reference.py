"""An independent numpy model of the diffractive classifier.

Written from the physics, not from ``donn``: angular-spectrum
propagation with ``numpy.fft`` and a complex square root for the
evanescent band, square-root amplitude encoding, phase-only layers,
region sums of ``|U|**2``, and the temperature softmax cross-entropy on
sum-normalised scores. The benchmark's correctness checks compare the
program against it.
"""

from __future__ import annotations

import numpy as np


def transfer(nx: int, ny: int, pitch: float, wavelength: float, distance: float) -> np.ndarray:
    """``exp(j 2 pi d sqrt(1/wavelength^2 - fx^2 - fy^2))`` in DFT order."""
    fx = np.fft.fftfreq(nx, d=pitch)
    fy = np.fft.fftfreq(ny, d=pitch)
    kz = np.lib.scimath.sqrt(wavelength**-2 - fx[None, :] ** 2 - fy[:, None] ** 2)
    return np.exp(2j * np.pi * distance * kz)


def propagate(field: np.ndarray, h: np.ndarray) -> np.ndarray:
    return np.fft.ifft2(np.fft.fft2(field, axes=(-2, -1)) * h, axes=(-2, -1))


def encode(images_u8: np.ndarray, nx: int, ny: int, upsample: int = 3) -> np.ndarray:
    """Centred square-root amplitude of ``images/255``, unit total power each."""
    amp = np.sqrt(np.asarray(images_u8, dtype=np.float64) / 255.0)
    amp = np.kron(amp, np.ones((1, upsample, upsample)))
    b, h, w = amp.shape
    x0, y0 = (nx - w) // 2, (ny - h) // 2
    field = np.zeros((b, ny, nx), dtype=np.complex128)
    field[:, y0 : y0 + h, x0 : x0 + w] = amp
    power = (np.abs(field) ** 2).sum(axis=(1, 2))
    return field / np.sqrt(power)[:, None, None]


class Model:
    """Phase layers, each followed by free space, on one grid."""

    def __init__(self, phases, distances, pitch: float, wavelength: float):
        self.phases = [np.asarray(p, dtype=np.float64) for p in phases]
        ny, nx = self.phases[0].shape
        self.nx, self.ny = nx, ny
        self.h = [transfer(nx, ny, pitch, wavelength, d) for d in distances]

    def output(self, field: np.ndarray) -> np.ndarray:
        for phase, h in zip(self.phases, self.h):
            field = propagate(field * np.exp(1j * phase), h)
        return field

    def scores(self, images_u8: np.ndarray, regions) -> np.ndarray:
        """Detector energy per region, shape (batch, classes)."""
        intensity = np.abs(self.output(encode(images_u8, self.nx, self.ny))) ** 2
        return np.stack(
            [intensity[:, y0 : y1 + 1, x0 : x1 + 1].sum(axis=(1, 2)) for x0, y0, x1, y1 in regions],
            axis=1,
        )

    def loss(self, image_u8: np.ndarray, label: int, regions, temperature: float = 0.1) -> float:
        s = self.scores(image_u8[None], regions)[0]
        z = s / s.sum() / temperature
        z -= z.max()
        return float(np.log(np.exp(z).sum()) - z[label])


def beam_radius(intensity: np.ndarray, pitch: float) -> float:
    """1/e^2 radius of a Gaussian spot from its second moment, w^2 = 2<r^2>."""
    total = intensity.sum()
    y, x = np.indices(intensity.shape)
    cx = (intensity * x).sum() / total
    cy = (intensity * y).sum() / total
    r2 = ((x - cx) ** 2 + (y - cy) ** 2) * intensity
    return float(np.sqrt(2.0 * r2.sum() / total)) * pitch
