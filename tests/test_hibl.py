from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

import donn
from donn import hibl, propagation
from donn.fields import GridSpec, frequency_coordinates, wrap_phase
from donn.hibl import (
    FabricationModel,
    Hologram,
    ReferenceSpec,
    carrier_phase_field,
    circular_mean,
    encode_hologram,
    fabricate,
    fidelity_metrics,
    realize_network,
    reconstruct_phase,
    recording_reference,
    wrapped_difference,
)
from donn.network import PhaseLayer, random_init
from test_kernels import engine_threads

GRID = GridSpec(128, 128, 8e-6, 532e-9)
NYQUIST = 1.0 / (2 * GRID.pitch)
QUARTER = ReferenceSpec(1.0, 1.0, (NYQUIST / 4, 0.0))

TWO_PI = 2.0 * np.pi


def smooth_profile(seed, grid=GRID, ptp_scale=0.8):
    """Sum of low-order 2-D sinusoids, peak to peak <= 2*pi."""
    rng = np.random.default_rng(seed)
    u = np.arange(grid.nx) / grid.nx
    v = np.arange(grid.ny) / grid.ny
    phi = np.zeros(grid.shape)
    for ky, kx in ((0, 1), (1, 0), (1, 1), (2, 1), (1, 2), (2, 2)):
        arg = TWO_PI * (kx * u[None, :] + ky * v[:, None])
        phi += rng.normal() * np.cos(arg) + rng.normal() * np.sin(arg)
    phi *= (TWO_PI * ptp_scale) / max(np.ptp(phi), 1e-9)
    return wrap_phase(phi - phi.min())


def test_encode_trivial_levels():
    ref = ReferenceSpec(1.0, 1.0, (0.0, 0.0))
    flat = PhaseLayer(GRID, np.zeros(GRID.shape))
    assert np.allclose(encode_hologram(flat, ref).intensity, 4.0, atol=1e-12)
    anti = PhaseLayer(GRID, np.full(GRID.shape, np.pi))
    assert np.abs(encode_hologram(anti, ref).intensity).max() < 1e-12


def test_encode_bounds_hold_exactly():
    for a_o, a_r, seed in ((1.0, 1.0, 0), (1.3, 0.8, 1), (0.5, 2.0, 2)):
        ref = ReferenceSpec(a_o, a_r, (NYQUIST / 4, NYQUIST / 8))
        layer = PhaseLayer(GRID, smooth_profile(seed))
        h = encode_hologram(layer, ref).intensity
        lo = a_o * a_o + a_r * a_r - 2 * a_o * a_r
        hi = a_o * a_o + a_r * a_r + 2 * a_o * a_r
        assert h.min() >= lo
        assert h.max() <= hi


def test_encode_rejects_carrier_above_nyquist():
    ref = ReferenceSpec(1.0, 1.0, (1.01 * NYQUIST, 0.0))
    with pytest.raises(ValueError, match="Nyquist"):
        encode_hologram(PhaseLayer(GRID, np.zeros(GRID.shape)), ref)


def test_reconstruct_constant_phase():
    c = 2.345
    layer = PhaseLayer(GRID, np.full(GRID.shape, c))
    holo = encode_hologram(layer, QUARTER)
    rec = reconstruct_phase(holo, QUARTER, reference_phase=layer.phase)
    assert np.abs(wrapped_difference(rec.phase, layer.phase)).max() < 1e-6


def test_reconstruct_zero_carrier_rejected():
    holo = Hologram(GRID, np.full(GRID.shape, 4.0))
    with pytest.raises(ValueError, match="on-axis"):
        reconstruct_phase(holo, ReferenceSpec(1.0, 1.0, (0.0, 0.0)))


def test_reconstruct_rejects_oversized_window():
    layer = PhaseLayer(GRID, smooth_profile(3))
    holo = encode_hologram(layer, QUARTER)
    with pytest.raises(ValueError, match="window radius"):
        reconstruct_phase(holo, QUARTER, window_radius=1.5 * QUARTER.carrier_magnitude)


def test_round_trip_smooth_profiles():
    for seed in range(5):
        phi = smooth_profile(40 + seed)
        holo = encode_hologram(PhaseLayer(GRID, phi), QUARTER)
        rec = reconstruct_phase(holo, QUARTER, reference_phase=phi)
        rmse = float(np.sqrt(np.mean(wrapped_difference(rec.phase, phi) ** 2)))
        assert rmse < 0.05


def test_reconstruct_offset_convention_zero_mean():
    phi = smooth_profile(50)
    holo = encode_hologram(PhaseLayer(GRID, phi), QUARTER)
    rec = reconstruct_phase(holo, QUARTER)
    assert abs(circular_mean(rec.phase)) < 1e-9


def reference_reconstruct(holo, ref, window_radius=None, reference_phase=None, stride=1):
    """The off-axis readout formula with out-of-place, full-grid transforms.

    Demodulates with the carrier split into a row and a column phasor,
    samples the pixel centres, and matches the offset over them.
    """
    grid = holo.grid
    radius = 0.5 * ref.carrier_magnitude if window_radius is None else window_radius
    x = np.arange(grid.nx) * grid.pitch
    y = np.arange(grid.ny) * grid.pitch
    demodulated = (
        holo.intensity
        * np.exp(1j * TWO_PI * ref.carrier[0] * x)[None, :]
        * np.exp(1j * TWO_PI * ref.carrier[1] * y)[:, None]
    )
    fx, fy = frequency_coordinates(grid)
    window = fx[None, :] ** 2 + fy[:, None] ** 2 <= radius**2
    filtered = scipy.fft.ifft2(scipy.fft.fft2(demodulated) * window)
    phi = wrap_phase(np.angle(filtered[stride // 2 :: stride, stride // 2 :: stride]))
    target = 0.0 if reference_phase is None else circular_mean(reference_phase)
    return wrap_phase(phi + (target - circular_mean(phi)))


@pytest.mark.parametrize("nx, ny", [(64, 48), (45, 33)])
@pytest.mark.parametrize("window_scale", [None, 0.9])
@pytest.mark.parametrize("with_reference", [False, True])
def test_reconstruct_matches_out_of_place_reference(nx, ny, window_scale, with_reference):
    grid = GridSpec(nx, ny, 8e-6, 532e-9)
    nyquist = 1.0 / (2 * grid.pitch)
    ref = ReferenceSpec(1.2, 0.9, (nyquist / 4, nyquist / 8))
    phi = smooth_profile(70, grid)
    holo = encode_hologram(PhaseLayer(grid, phi), ref)
    recorded = holo.intensity.copy()
    radius = None if window_scale is None else window_scale * ref.carrier_magnitude
    reference_phase = phi if with_reference else None
    got = reconstruct_phase(holo, ref, radius, reference_phase)
    expected = reference_reconstruct(holo, ref, radius, reference_phase)
    assert got.phase.tobytes() == expected.tobytes()
    assert holo.intensity.tobytes() == recorded.tobytes()


def test_reconstruct_rejects_bad_stride_and_reference_shape():
    layer = PhaseLayer(GRID, smooth_profile(5))
    holo = encode_hologram(layer, QUARTER)
    for stride in (0, -2, 3):
        with pytest.raises(ValueError, match="stride"):
            reconstruct_phase(holo, QUARTER, stride=stride)
    for reference in (layer.phase, layer.phase[::4, ::4][:-1], layer.phase[0]):
        with pytest.raises(ValueError, match="sampled shape"):
            reconstruct_phase(holo, QUARTER, reference_phase=reference, stride=4)


def reference_realize(net, ref, model, u, window_radius):
    """realize_network out of place: repeat, encode, read the whole grid, sample, fabricate."""
    fine = GridSpec(net.grid.nx * u, net.grid.ny * u, net.grid.pitch / u, net.grid.wavelength)
    phases = []
    for i, layer in enumerate(net.layers):
        phase_fine = np.repeat(np.repeat(layer.phase, u, axis=0), u, axis=1)
        holo = encode_hologram(PhaseLayer(fine, phase_fine), ref)
        estimate = reference_reconstruct(holo, ref, window_radius, layer.phase, stride=u)
        coarse = PhaseLayer(net.grid, estimate)
        phases.append(fabricate(coarse, replace(model, seed=model.seed + i)).phase)
    return phases


# 20x18 at u = 8 is past numpy's 256 KiB temporary-elision size; 17x13 is odd.
@pytest.mark.parametrize("nx, ny", [(20, 18), (17, 13)])
@pytest.mark.parametrize("u", [1, 3, 8])
@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_realize_network_matches_full_grid_reference(nx, ny, u, sigma):
    # the folded 91-squared inverse transform against a full-grid one, sampled
    grid = GridSpec(nx, ny, 8e-6, 532e-9)
    net = random_init(grid, 2, [0.01, 0.01], seed=nx + u)
    ref = recording_reference(grid, upsample=u)
    model = FabricationModel(phase_noise_sigma=sigma, seed=4)
    radius = 0.98 * ref.carrier_magnitude  # realize_network's default
    got = realize_network(net, ref, model, record_upsample=u)
    expected = reference_realize(net, ref, model, u, radius)
    for layer, phase in zip(got.layers, expected):
        assert wrapped_difference(layer.phase, phase).max() <= 1e-9


def whole_grid_realize(net, ref, u, window_radius):
    """Continuous realization with the offset matched over the whole recording grid.

    The demodulating carrier is one 2-D phasor and both circular means
    run over every recorded pixel, before the centres are sampled.
    """
    fine = GridSpec(net.grid.nx * u, net.grid.ny * u, net.grid.pitch / u, net.grid.wavelength)
    fx, fy = frequency_coordinates(fine)
    window = fx[None, :] ** 2 + fy[:, None] ** 2 <= window_radius**2
    phases = []
    for layer in net.layers:
        phase_fine = np.repeat(np.repeat(layer.phase, u, axis=0), u, axis=1)
        holo = encode_hologram(PhaseLayer(fine, phase_fine), ref)
        demodulated = holo.intensity * np.exp(1j * carrier_phase_field(fine, ref))
        phi = wrap_phase(np.angle(scipy.fft.ifft2(scipy.fft.fft2(demodulated) * window)))
        phi = wrap_phase(phi + (circular_mean(phase_fine) - circular_mean(phi)))
        phases.append(phi[u // 2 :: u, u // 2 :: u])
    return phases


@pytest.mark.parametrize("nx, ny, u", [(20, 18, 8), (17, 13, 3), (91, 91, 8)])
def test_sampled_offset_moves_each_layer_by_one_constant(nx, ny, u):
    # Matching the offset over the sampled pixels instead of the whole
    # recording grid shifts each continuous layer by one global phase,
    # which no detected intensity can see.
    grid = GridSpec(nx, ny, 8e-6, 532e-9)
    net = random_init(grid, 3, [0.01] * 3, seed=1)
    ref = recording_reference(grid, upsample=u)
    got = realize_network(net, ref, FabricationModel(), record_upsample=u)
    expected = whole_grid_realize(net, ref, u, 0.98 * ref.carrier_magnitude)
    for layer, phase in zip(got.layers, expected):
        shift = circular_mean(layer.phase - phase)
        assert wrapped_difference(layer.phase, wrap_phase(phase + shift)).max() <= 1e-9


def test_realize_network_runs_no_recording_grid_inverse_transform(monkeypatch):
    # realize_network reads only the pixel centres: every inverse transform
    # must run on the coarse grid, never at the 8x recording resolution
    shapes = []

    def spy(x, *args, _original=propagation._fft.ifft2, **kwargs):
        shapes.append(np.shape(x)[-2:])
        return _original(x, *args, **kwargs)

    monkeypatch.setattr(propagation._fft, "ifft2", spy)
    grid = GridSpec(12, 10, 8e-6, 532e-9)
    net = random_init(grid, 2, [0.01, 0.01], seed=2)
    realize_network(net, recording_reference(grid, upsample=8), FabricationModel())
    assert shapes and all(shape == grid.shape for shape in shapes)


def reference_hologram(layer, ref):
    """The fringe formula out of place, on the whole grid at once."""
    theta = carrier_phase_field(layer.grid, ref)
    x = np.arange(layer.grid.nx) * layer.grid.pitch
    y = np.arange(layer.grid.ny) * layer.grid.pitch
    plain = 2 * np.pi * (ref.carrier[0] * x[None, :] + ref.carrier[1] * y[:, None])
    assert theta.tobytes() == plain.tobytes()
    a_o, a_r = ref.object_amplitude, ref.reference_amplitude
    return a_o * a_o + a_r * a_r + 2.0 * a_o * a_r * np.cos(layer.phase - theta)


@pytest.mark.parametrize("nx, ny", [(64, 48), (45, 33), (40, 150)])
@pytest.mark.parametrize("threads", [1, 2, None])
def test_hologram_matches_out_of_place_fringe(nx, ny, threads):
    # each pool job builds its own rows of the carrier phase
    grid = GridSpec(nx, ny, 8e-6, 532e-9)
    nyquist = 1.0 / (2 * grid.pitch)
    ref = ReferenceSpec(1.3, 0.8, (nyquist / 4, -nyquist / 8))
    layer = PhaseLayer(grid, smooth_profile(71, grid, ptp_scale=3.0))
    with engine_threads(threads):
        got = encode_hologram(layer, ref).intensity
    assert got.tobytes() == reference_hologram(layer, ref).tobytes()


def test_readout_bytes_do_not_depend_on_the_pool():
    holo = encode_hologram(PhaseLayer(GRID, smooth_profile(6)), QUARTER)
    reference = smooth_profile(7, GridSpec(32, 32, GRID.pitch * 4, GRID.wavelength))
    grid = GridSpec(13, 11, 8e-6, 532e-9)
    net = random_init(grid, 2, [0.01, 0.01], seed=8)
    ref = recording_reference(grid, upsample=8)
    model = FabricationModel(quant_levels=16, phase_noise_sigma=0.05, seed=2)
    results = []
    for threads in (2, None):
        with engine_threads(threads):
            results.append([
                reconstruct_phase(holo, QUARTER).phase,
                reconstruct_phase(holo, QUARTER, reference_phase=reference, stride=4).phase,
                *(layer.phase for layer in realize_network(net, ref, model).layers),
            ])
    for pooled, serial in zip(*results):
        assert pooled.tobytes() == serial.tobytes()


def test_realize_network_reads_each_layer_through_the_module(monkeypatch):
    # perfbench traces and checks these calls through the module attributes
    calls = []
    for name in ("encode_hologram", "reconstruct_phase"):
        def spy(*args, _name=name, _original=getattr(hibl, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(hibl, name, spy)
    grid = GridSpec(8, 8, 8e-6, 532e-9)
    net = random_init(grid, 3, [0.01] * 3, seed=1)
    realize_network(net, recording_reference(grid, upsample=4), FabricationModel(),
                    record_upsample=4)
    assert calls == ["encode_hologram", "reconstruct_phase"] * 3


def test_fabricate_identity_configuration():
    phi = smooth_profile(60)
    layer = PhaseLayer(GRID, phi)
    out = fabricate(layer, FabricationModel(quant_levels=None, phase_noise_sigma=0.0))
    assert np.array_equal(out.phase, phi)


def test_fabricate_binary_levels():
    phi = smooth_profile(61)
    out = fabricate(PhaseLayer(GRID, phi), FabricationModel(quant_levels=2))
    assert set(np.unique(out.phase)) <= {0.0, np.pi}
    # wrap-aware nearest: values beyond 3*pi/2 snap to 0, not to pi
    corner = fabricate(
        PhaseLayer(GRID, np.full(GRID.shape, 1.8 * np.pi)),
        FabricationModel(quant_levels=2),
    )
    assert np.all(corner.phase == 0.0)


def test_fabricate_quantization_bound():
    for q in (8, 16, 64):
        phi = smooth_profile(62)
        out = fabricate(PhaseLayer(GRID, phi), FabricationModel(quant_levels=q))
        err = wrapped_difference(out.phase, phi)
        assert err.max() <= np.pi / q + 1e-12


def test_fabricate_deterministic_with_seed():
    phi = smooth_profile(63)
    model = FabricationModel(quant_levels=16, phase_noise_sigma=0.05, seed=9)
    a = fabricate(PhaseLayer(GRID, phi), model)
    b = fabricate(PhaseLayer(GRID, phi), model)
    assert np.array_equal(a.phase, b.phase)


def test_fabricate_rejects_bad_levels():
    with pytest.raises(ValueError, match="quant_levels"):
        FabricationModel(quant_levels=1)


def test_fidelity_metrics_values():
    phi = smooth_profile(65)
    layer = PhaseLayer(GRID, phi)
    ref = ReferenceSpec(1.0, 1.0, (NYQUIST / 4, 0.0))
    fm = fidelity_metrics(layer, PhaseLayer(GRID, phi), ref)
    assert fm.wrapped_rmse == 0.0
    assert fm.max_wrapped_error == 0.0
    assert fm.visibility == pytest.approx(1.0)
    ref2 = ReferenceSpec(3.0, 1.0, (NYQUIST / 4, 0.0))
    assert ref2.visibility == pytest.approx(0.6)


def test_realize_network_preserves_geometry_and_tracks_phases():
    grid = GridSpec(32, 32, 8e-6, 532e-9)
    net = random_init(grid, 2, [0.01, 0.02], seed=3)
    ref = recording_reference(grid, upsample=8)
    real = realize_network(net, ref, FabricationModel(), record_upsample=8)
    assert real.grid == net.grid
    assert real.distances == net.distances
    for ideal, got in zip(net.layers, real.layers):
        rmse = np.sqrt(np.mean(wrapped_difference(ideal.phase, got.phase) ** 2))
        assert rmse < 0.12  # white phases, worst case for windowed readout


def test_realized_layer_noise_decorrelated_across_layers():
    grid = GridSpec(16, 16, 8e-6, 532e-9)
    phases = [np.zeros(grid.shape), np.zeros(grid.shape)]
    net = donn.network.OpticalNetwork(
        grid,
        tuple(PhaseLayer(grid, p) for p in phases),
        (0.01, 0.01),
    )
    ref = recording_reference(grid, upsample=8)
    real = realize_network(
        net, ref, FabricationModel(phase_noise_sigma=0.3, seed=1), record_upsample=8
    )
    assert not np.array_equal(real.layers[0].phase, real.layers[1].phase)
