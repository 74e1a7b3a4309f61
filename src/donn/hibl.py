"""Holographic realization of learned phase profiles.

A trained layer is turned into a physically recordable object in three
steps: interfere an object beam carrying the phase with a tilted
reference beam and record the fringe intensity; read the phase back out
of the fringes by isolating one diffraction order in the spectrum
(off-axis carrier method); and pass the read-back phase through a
fabrication model (level quantization, phase noise). Inference on
the realized stack quantifies what the recording pipeline costs in
accuracy relative to the ideal masks.

The recorded intensity for object beam ``A_o * exp(j*phi)`` and
reference ``A_r * exp(j*theta_r)`` is

    H = A_o**2 + A_r**2 + 2*A_o*A_r*cos(phi - theta_r),

which bounds every sample to ``A_o**2 + A_r**2 +- 2*A_o*A_r``. The dc
term and the conjugate (twin) order are not subtracted before filtering;
the spectral window alone separates them, as a physical readout would.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import TWO_PI, GridSpec, frequency_coordinates, wrap_phase
from .network import OpticalNetwork, PhaseLayer
from .propagation import map_chunks, spectral_multiply


@dataclass(frozen=True)
class ReferenceSpec:
    """Recording geometry: uniform beam amplitudes and reference tilt.

    ``carrier`` is the reference-beam tilt ``(f_cx, f_cy)`` in
    cycles/meter, giving the reference phase
    ``theta_r(x, y) = 2*pi*(f_cx*x + f_cy*y)``. Amplitudes are uniform
    over the plane; each must satisfy the recording grid's Nyquist bound
    ``|f_c| <= 1/(2*pitch)`` per axis, checked where a grid is known.
    """

    object_amplitude: float = 1.0
    reference_amplitude: float = 1.0
    carrier: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.object_amplitude <= 0 or self.reference_amplitude <= 0:
            raise ValueError("beam amplitudes must be positive")

    @property
    def carrier_magnitude(self) -> float:
        return float(np.hypot(self.carrier[0], self.carrier[1]))

    @property
    def visibility(self) -> float:
        """Fringe contrast against the dc background, in [0, 1]."""
        a_o, a_r = self.object_amplitude, self.reference_amplitude
        return 2.0 * a_o * a_r / (a_o * a_o + a_r * a_r)

    def check_nyquist(self, grid: GridSpec) -> None:
        limit = 1.0 / (2.0 * grid.pitch)
        if abs(self.carrier[0]) > limit or abs(self.carrier[1]) > limit:
            raise ValueError(
                f"carrier {self.carrier} exceeds the grid Nyquist limit {limit}"
            )


@dataclass(frozen=True, eq=False)
class Hologram:
    """A recorded fringe-intensity pattern on its recording grid."""

    grid: GridSpec
    intensity: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.intensity, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(
                f"hologram shape {v.shape} does not match grid {self.grid.shape}"
            )
        if v.min() < 0.0:
            raise ValueError("hologram intensity must be nonnegative")
        v.setflags(write=False)
        object.__setattr__(self, "intensity", v)


@dataclass(frozen=True)
class FabricationModel:
    """Phase quantization and fabrication phase noise.

    ``quant_levels`` is the number of uniformly spaced phase levels in
    [0, 2*pi) (at least 2), or None for a continuous response.
    ``phase_noise_sigma`` is the standard deviation, in radians, of the
    Gaussian noise drawn from ``seed``.
    """

    quant_levels: int | None = None
    phase_noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.quant_levels is not None and self.quant_levels < 2:
            raise ValueError("quant_levels must be >= 2 (or None for continuous)")
        if self.phase_noise_sigma < 0:
            raise ValueError("phase_noise_sigma must be >= 0")


def carrier_phase_field(grid: GridSpec, ref: ReferenceSpec) -> np.ndarray:
    """Reference-beam phase sampled at pixel centers ``(ix, iy) * pitch``."""
    return _carrier_rows(grid, ref, slice(None), np.empty(grid.shape))


def _carrier_rows(grid: GridSpec, ref: ReferenceSpec, rows: slice, out: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of :func:`carrier_phase_field`, written into ``out``."""
    x = np.arange(grid.nx) * grid.pitch
    y = np.arange(grid.ny)[rows] * grid.pitch
    np.add(ref.carrier[0] * x[None, :], ref.carrier[1] * y[:, None], out=out)
    return np.multiply(TWO_PI, out, out=out)


def encode_hologram(layer: PhaseLayer, ref: ReferenceSpec) -> Hologram:
    """Record a phase profile as an off-axis interference pattern.

    The fringe runs in row chunks on the core pool of
    :mod:`donn.propagation`, each job building its own rows of the
    carrier phase; the bytes do not depend on the core count.
    """
    ref.check_nyquist(layer.grid)
    a_o, a_r = ref.object_amplitude, ref.reference_amplitude
    bias, gain = a_o * a_o + a_r * a_r, 2.0 * a_o * a_r
    h = np.empty(layer.grid.shape)

    def fringe(rows, workers, _):  # bias + gain * cos(phase - theta)
        chunk = _carrier_rows(layer.grid, ref, rows, h[rows])
        np.subtract(layer.phase[rows], chunk, out=chunk)
        np.cos(chunk, out=chunk)
        np.multiply(gain, chunk, out=chunk)
        np.add(bias, chunk, out=chunk)

    map_chunks(fringe, h.shape)
    return Hologram(layer.grid, h)


def circular_mean(phase: np.ndarray) -> float:
    """Mean angle of a phase array, in (-pi, pi]."""
    return float(np.angle(np.exp(1j * np.asarray(phase)).mean()))


def wrapped_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise angular distance ``min(|a-b|, 2*pi - |a-b|)``."""
    d = np.abs(np.asarray(a) - np.asarray(b)) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def reconstruct_phase(
    holo: Hologram,
    ref: ReferenceSpec,
    window_radius: float | None = None,
    reference_phase: np.ndarray | None = None,
    stride: int = 1,
) -> PhaseLayer:
    """Estimate the recorded phase by off-axis Fourier filtering.

    The intensity is demodulated by the known reference tilt, which moves
    the order carrying ``exp(+j*phi)`` to baseband, the dc term to the
    carrier offset, and the twin order to twice the offset. A disc of
    radius ``window_radius`` (cycles/meter; default, half the carrier
    offset) selects baseband, and the inverse transform's argument is the
    phase estimate. Valid when the carrier offset comfortably exceeds the
    fringe-term bandwidth of the recorded phase.

    The estimate's global offset is arbitrary; it is fixed by matching
    the circular mean of ``reference_phase`` when given, and set to zero
    circular mean otherwise. Both means are taken over the returned
    pixels.

    ``stride`` returns only the pixels at the centres ``[stride//2::stride]``
    of each ``stride`` x ``stride`` block, on a grid ``stride`` times
    coarser; 1 returns the whole estimate. ``reference_phase`` has that
    sampled shape. The filtered spectrum is folded onto the sampled
    pixels (:func:`donn.propagation.spectral_multiply` with ``stride``),
    so only one inverse transform of the coarse grid's size runs.

    The demodulation and the window are built in row chunks on the core
    pool of :mod:`donn.propagation`, straight into the batch of one that
    the transform takes; the bytes do not depend on the core count.

    Raises:
        ValueError: zero carrier (orders overlap, on-axis readout is
            not supported), a window radius beyond the carrier offset, a
            stride below 1 or not dividing the grid, or a
            ``reference_phase`` without the sampled shape.
    """
    fc = ref.carrier_magnitude
    if fc == 0.0:
        raise ValueError("on-axis hologram: diffraction orders overlap")
    if window_radius is None:
        window_radius = 0.5 * fc
    if window_radius <= 0.0 or window_radius > fc:
        raise ValueError(
            f"window radius {window_radius} outside (0, carrier offset {fc}]"
        )
    grid = holo.grid
    if stride < 1 or grid.nx % stride or grid.ny % stride:
        raise ValueError(f"stride {stride} must be >= 1 and divide the grid {grid.shape}")
    sampled = (grid.ny // stride, grid.nx // stride)
    if reference_phase is not None and np.shape(reference_phase) != sampled:
        raise ValueError(
            f"reference phase shape {np.shape(reference_phase)} is not the "
            f"sampled shape {sampled} at stride {stride}"
        )
    # demodulate: intensity * exp(1j*theta_r), with the carrier split by axis
    x = np.arange(grid.nx) * grid.pitch
    y = np.arange(grid.ny) * grid.pitch
    ex = np.exp(1j * TWO_PI * ref.carrier[0] * x)[None, :]
    ey = np.exp(1j * TWO_PI * ref.carrier[1] * y)[:, None]
    fx, fy = frequency_coordinates(grid)
    fx2 = fx[None, :] ** 2
    stack = np.empty((1,) + grid.shape, np.complex128)  # a batch of one
    window = np.empty(grid.shape, bool)

    def demodulate(rows, workers, _):  # and the window, a disc about baseband
        np.less_equal(fx2 + fy[rows, None] ** 2, window_radius**2, out=window[rows])
        baseband = stack[0, rows]
        np.multiply(holo.intensity[rows], ex, out=baseband)
        np.multiply(baseband, ey[rows], out=baseband)

    map_chunks(demodulate, grid.shape)
    phi = wrap_phase(np.angle(spectral_multiply(stack, window, out=stack, stride=stride)[0]))
    target = 0.0 if reference_phase is None else circular_mean(reference_phase)
    coarse = GridSpec(sampled[1], sampled[0], grid.pitch * stride, grid.wavelength)
    return PhaseLayer(coarse, wrap_phase(phi + (target - circular_mean(phi))))


def fabricate(layer: PhaseLayer, model: FabricationModel) -> PhaseLayer:
    """Map a read-back phase profile to a fabricated phase layer.

    Quantization snaps each value to the nearest of ``quant_levels``
    uniform levels with wrap-aware distance (never moving a value by
    more than pi/Q), then seeded Gaussian phase noise is added and the
    result wrapped to [0, 2*pi).
    """
    phase = layer.phase
    if model.quant_levels is not None:
        step = TWO_PI / model.quant_levels
        phase = (np.floor(phase / step + 0.5) % model.quant_levels) * step
    if model.phase_noise_sigma > 0.0:
        rng = np.random.default_rng(model.seed)
        phase = phase + model.phase_noise_sigma * rng.standard_normal(phase.shape)
    return PhaseLayer(layer.grid, wrap_phase(phase))


def recording_reference(
    grid: GridSpec,
    upsample: int = 8,
    object_amplitude: float = 1.0,
    reference_amplitude: float = 1.0,
) -> ReferenceSpec:
    """Reference beam for recording a layer at ``upsample`` x finer pitch.

    The carrier sits diagonally at half the recording grid's Nyquist
    frequency, far enough from both the dc term and the aliased twin to
    leave room for a wide reconstruction window.
    """
    if upsample < 1:
        raise ValueError("upsample must be >= 1")
    fine_pitch = grid.pitch / upsample
    f = 1.0 / (4.0 * fine_pitch)
    return ReferenceSpec(object_amplitude, reference_amplitude, (f, f))


def realize_network(
    net: OpticalNetwork,
    ref: ReferenceSpec,
    model: FabricationModel,
    record_upsample: int = 8,
    window_radius: float | None = None,
) -> OpticalNetwork:
    """Record, reconstruct, and fabricate every layer of a network.

    Each layer is upsampled ``record_upsample`` x (the recording medium
    resolves fringes finer than the phase pixels), encoded as an off-axis
    hologram, read back by Fourier filtering, sampled at the original
    pixel centers, and passed through the fabrication model. Distances
    and grid are preserved. Layer seeds are decorrelated so fabrication
    noise is independent across layers.
    """
    if record_upsample < 1:
        raise ValueError("record_upsample must be >= 1")
    u = record_upsample
    fine = GridSpec(
        net.grid.nx * u, net.grid.ny * u, net.grid.pitch / u, net.grid.wavelength
    )
    if window_radius is None:
        # Trained masks are not bandlimited, so open the window as far as
        # possible: just inside the dc term sitting at the carrier offset.
        window_radius = 0.98 * ref.carrier_magnitude
    layers = []
    for i, layer in enumerate(net.layers):
        phase_fine = np.repeat(np.repeat(layer.phase, u, axis=0), u, axis=1)
        holo = encode_hologram(PhaseLayer(fine, phase_fine), ref)
        estimate = reconstruct_phase(
            holo, ref, window_radius=window_radius, reference_phase=layer.phase,
            stride=u,
        )
        coarse = PhaseLayer(net.grid, estimate.phase)
        layers.append(fabricate(coarse, replace(model, seed=model.seed + i)))
    return OpticalNetwork(net.grid, tuple(layers), net.distances, net.input_distance)


@dataclass(frozen=True)
class FidelityMetrics:
    wrapped_rmse: float
    max_wrapped_error: float
    visibility: float


def fidelity_metrics(
    ideal: PhaseLayer, realized: PhaseLayer, ref: ReferenceSpec
) -> FidelityMetrics:
    """Wrapped phase-error statistics plus the recording fringe contrast."""
    if realized.grid != ideal.grid:
        raise ValueError("ideal and realized layers live on different grids")
    err = wrapped_difference(ideal.phase, realized.phase)
    return FidelityMetrics(
        wrapped_rmse=float(np.sqrt(np.mean(err**2))),
        max_wrapped_error=float(err.max()),
        visibility=ref.visibility,
    )
