import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from donn.fields import TWO_PI, ComplexField, GridSpec, frequency_coordinates, total_power
from donn.propagation import (
    adjoint_propagate,
    adjoint_propagate_array,
    bandlimit_to_propagating,
    cached_transfer_function,
    propagate,
    propagate_array,
    propagating_mask,
    spectral_multiply,
    transfer_function,
)
from donn.scenes import gaussian_scene
from test_kernels import engine_threads

# pitch comparable to wavelength so the grid carries an evanescent band
EVANESCENT_GRID = GridSpec(16, 16, 1e-6, 2.5e-6)
# fine sampling relative to wavelength: all representable modes propagate
SMOOTH_GRID = GridSpec(16, 16, 1e-6, 0.5e-6)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    return ComplexField(grid, v)


def test_transfer_function_dc_value():
    for d in (0.0, 3e-6, 1e-3):
        tf = transfer_function(SMOOTH_GRID, d)
        expected = np.exp(1j * 2 * np.pi * d / SMOOTH_GRID.wavelength)
        assert tf.values[0, 0] == pytest.approx(expected, abs=1e-15)


def test_transfer_function_zero_distance_is_one():
    tf = transfer_function(EVANESCENT_GRID, 0.0)
    assert np.array_equal(tf.values, np.ones(EVANESCENT_GRID.shape))


def test_transfer_function_unit_modulus_on_propagating():
    tf = transfer_function(EVANESCENT_GRID, 17e-6)
    mask = propagating_mask(EVANESCENT_GRID)
    assert np.allclose(np.abs(tf.values[mask]), 1.0, atol=1e-15)


def test_transfer_function_evanescent_attenuation():
    grid = EVANESCENT_GRID
    d = 4e-6
    tf = transfer_function(grid, d)
    fx = np.fft.fftfreq(grid.nx, grid.pitch)
    fy = np.fft.fftfreq(grid.ny, grid.pitch)
    f2 = fx[None, :] ** 2 + fy[:, None] ** 2
    ev = f2 > 1.0 / grid.wavelength**2
    assert ev.any()
    expected = np.exp(-2 * np.pi * d * np.sqrt(f2[ev] - 1.0 / grid.wavelength**2))
    assert np.allclose(np.abs(tf.values[ev]), expected, rtol=1e-13)
    assert np.all(np.abs(tf.values[ev]) < 1.0)


def test_propagate_zero_distance_identity():
    f = random_field(SMOOTH_GRID, 1)
    out = propagate(f, transfer_function(SMOOTH_GRID, 0.0))
    assert np.abs(out.values - f.values).max() < 1e-13


def test_propagate_plane_wave_global_phase():
    grid = SMOOTH_GRID
    f = ComplexField(grid, np.full(grid.shape, 0.7 + 0.2j))
    d = 23e-6
    out = propagate(f, transfer_function(grid, d))
    expected = f.values * np.exp(1j * 2 * np.pi * d / grid.wavelength)
    assert np.allclose(out.values, expected, atol=1e-13)
    assert np.allclose(out.intensity(), f.intensity(), atol=1e-13)


def test_propagate_grid_mismatch():
    f = random_field(SMOOTH_GRID, 2)
    tf = transfer_function(GridSpec(16, 16, 2e-6, 0.5e-6), 1e-6)
    with pytest.raises(ValueError, match="grid mismatch"):
        propagate(f, tf)


def test_gaussian_beam_spread_matches_analytic():
    warm = gaussian_scene(0.001)
    z_r = warm.rayleigh_range
    for z in (z_r, 2 * z_r):
        res = gaussian_scene(z)
        assert res.relative_error < 0.01


def test_bandlimit_constant_field_unchanged():
    grid = EVANESCENT_GRID
    f = ComplexField(grid, np.full(grid.shape, 1.0 + 0.0j))
    out = bandlimit_to_propagating(f)
    assert np.allclose(out.values, f.values, atol=1e-13)


def test_bandlimit_pure_evanescent_zeroed():
    grid = EVANESCENT_GRID
    # highest spatial frequency: alternating sign pattern, fully evanescent here
    v = ((-1.0) ** (np.arange(16)[:, None] + np.arange(16)[None, :])).astype(complex)
    out = bandlimit_to_propagating(ComplexField(grid, v))
    assert np.abs(out.values).max() < 1e-13


def test_bandlimit_idempotent():
    f = random_field(EVANESCENT_GRID, 3)
    once = bandlimit_to_propagating(f)
    twice = bandlimit_to_propagating(once)
    assert np.abs(twice.values - once.values).max() < 1e-13


def test_adjoint_zero_distance_identity():
    f = random_field(EVANESCENT_GRID, 4)
    out = adjoint_propagate(f, transfer_function(EVANESCENT_GRID, 0.0))
    assert np.abs(out.values - f.values).max() < 1e-13


def test_adjoint_inner_product_identity():
    grid = EVANESCENT_GRID
    tf = transfer_function(grid, 9e-6)
    for seed in range(5):
        a = random_field(grid, 10 + seed)
        b = random_field(grid, 20 + seed)
        lhs = np.vdot(propagate(a, tf).values, b.values)
        rhs = np.vdot(a.values, adjoint_propagate(b, tf).values)
        assert abs(lhs - rhs) / abs(lhs) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(2, 25),
    ny=st.integers(2, 25),
    wavelength=st.floats(0.2e-6, 3e-6),
    distance=st.floats(0.0, 60e-6),
    batch=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_adjoint_inner_product_random_grids(nx, ny, wavelength, distance, batch, seed):
    # <P a, b> = <a, P^H b> for the batched operators the engine runs, on
    # odd and even grids with and without an evanescent band
    grid = GridSpec(nx, ny, 1e-6, wavelength)
    rng = np.random.default_rng(seed)
    shape = (batch,) + grid.shape
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    tf = transfer_function(grid, distance)
    lhs = np.vdot(propagate_array(a, tf), b)
    rhs = np.vdot(a, adjoint_propagate_array(b, tf))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(b)


@pytest.mark.parametrize("nx, ny", [(16, 16), (17, 17), (91, 91), (20, 13)])
def test_sandwich_keeps_input_and_matches_out_of_place(nx, ny):
    # the in-place sandwich must give exactly the out-of-place transforms and
    # never write the caller's stack (the engine reuses post-modulation fields)
    grid = GridSpec(nx, ny, 1e-6, 0.8e-6)
    tf = transfer_function(grid, 23e-6)
    rng = np.random.default_rng(nx * ny)
    shape = (3,) + grid.shape
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    before = x.copy()
    axes = (-2, -1)
    conj = np.conj(tf.values)
    for op, h in ((propagate_array, tf.values), (adjoint_propagate_array, conj)):
        expected = scipy.fft.ifft2(scipy.fft.fft2(x, axes=axes) * h, axes=axes)
        assert np.array_equal(op(x, tf), expected)
        assert np.array_equal(x, before)


@st.composite
def strided_stacks(draw):
    """A (batch, ny, nx) stack and multiplier with a stride dividing both axes."""
    stride = draw(st.sampled_from([1, 2, 3, 8]))
    ny = stride * draw(st.integers(1, 40 // stride))
    nx = stride * draw(st.integers(1, 40 // stride))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 3)), ny, nx)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    multiplier = rng.normal(size=(ny, nx)) + 1j * rng.normal(size=(ny, nx))
    return values, multiplier, stride


@settings(max_examples=60, deadline=None)
@given(case=strided_stacks(), in_place=st.booleans())
def test_strided_sandwich_samples_the_full_result(case, in_place):
    # the folded spectrum's small inverse transform gives the pixel centres
    # [s//2::s, s//2::s] of the full sandwich, on odd and even grids
    values, multiplier, s = case
    before = values.copy()
    full = spectral_multiply(before, multiplier)
    expected = full[:, s // 2 :: s, s // 2 :: s]
    got = spectral_multiply(values, multiplier, out=values if in_place else None, stride=s)
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
    if s == 1:
        # the engine's path: the out-of-place transforms, byte for byte
        axes = (-2, -1)
        assert got.tobytes() == scipy.fft.ifft2(
            scipy.fft.fft2(before, axes=axes) * multiplier, axes=axes
        ).tobytes()
    if not in_place:
        assert values.tobytes() == before.tobytes()


def ref_sampled_sandwich(values, multiplier, s):
    """fft2, multiply, twiddle and fold each axis, coarse ifft2 / s**2: one whole-stack step at a time."""
    ny, nx = values.shape[-2:]
    my, mx = ny // s, nx // s
    shift = TWO_PI * (s // 2)
    spectrum = np.multiply(scipy.fft.fft2(values, axes=(-2, -1), workers=1), multiplier)
    spectrum = np.multiply(spectrum, np.exp(1j * shift * np.arange(ny) / ny)[:, None])
    folded = spectrum[:, :my]
    for a in range(1, s):
        folded = np.add(folded, spectrum[:, a * my : (a + 1) * my])
    folded = np.multiply(folded, np.exp(1j * shift * np.arange(nx) / nx))
    coarse = folded[:, :, :mx]
    for a in range(1, s):
        coarse = np.add(coarse, folded[:, :, a * mx : (a + 1) * mx])
    return scipy.fft.ifft2(coarse, axes=(-2, -1), workers=1) / s**2


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("batch", [1, 3])
def test_pooled_pruned_sandwich_keeps_the_serial_bytes(batch, threads):
    # 272 rows: 34 to 136 coarse rows, so the fold runs in several chunks on
    # both jobs; the windows leave whole rows dead, at the ends, in the middle
    # and across every alias of some coarse rows, whose row pass is skipped
    grid = GridSpec(40, 272, 1e-6, 0.5e-6)
    fx, fy = frequency_coordinates(grid)
    nyquist = 0.5 / grid.pitch
    rng = np.random.default_rng(batch)
    shape = (batch,) + grid.shape
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    multipliers = {
        "disc": fx[None, :] ** 2 + fy[:, None] ** 2 <= (0.6 * nyquist) ** 2,
        "off-centre disc": fx[None, :] ** 2 + (fy[:, None] - 0.5 * nyquist) ** 2 <= (0.2 * nyquist) ** 2,
        "no dead rows": rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape),
    }
    assert not multipliers["disc"].any(axis=1).all()
    assert not multipliers["off-centre disc"].any(axis=1)[0]
    for name, multiplier in multipliers.items():
        for s in (2, 4, 8):
            expected = ref_sampled_sandwich(values, multiplier, s)
            with engine_threads(threads):
                got = spectral_multiply(values, multiplier, stride=s)
                in_place = values.copy()
                aliased = spectral_multiply(in_place, multiplier, out=in_place, stride=s)
            assert got.tobytes() == expected.tobytes(), (name, s)
            assert aliased.tobytes() == expected.tobytes(), (name, s)


@pytest.mark.parametrize("batch, ny, nx", [(1, 48, 40), (3, 45, 33), (2, 91, 91), (1, 728, 64)])
def test_fft2_is_its_column_pass_then_its_row_pass(batch, ny, nx):
    # The strided sandwich splits fft2 into its two passes and runs the row
    # pass on some rows only. Both must keep fft2's bytes; a scipy.fft
    # release that breaks either fails here.
    rng = np.random.default_rng(ny * nx)
    shape = (batch, ny, nx)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    whole = scipy.fft.fft2(x, axes=(-2, -1))
    for workers in (1, 2):
        columns = scipy.fft.fft(x, axis=-2, workers=workers)
        assert scipy.fft.fft(columns, axis=-1, workers=workers).tobytes() == whole.tobytes()
        for rows in (slice(0, 1), slice(3, 20), slice(ny - 7, ny), slice(1, ny - 1)):
            part = scipy.fft.fft(columns[:, rows], axis=-1, workers=workers)
            assert part.tobytes() == whole[:, rows].tobytes(), rows


def test_strided_sandwich_rejects_a_stride_not_dividing_the_grid():
    values = np.ones((1, 12, 9), np.complex128)
    for stride in (0, 2, 5):
        with pytest.raises(ValueError, match="stride"):
            spectral_multiply(values, np.ones((12, 9)), stride=stride)


def test_transfer_function_cached_conjugate():
    # built once per transfer function; the adjoint reads it on every call
    tf = cached_transfer_function(EVANESCENT_GRID, 7e-6)
    assert np.array_equal(tf.conjugate, np.conj(tf.values))
    assert not tf.conjugate.flags.writeable


def test_forward_then_adjoint_restores_bandlimited():
    grid = EVANESCENT_GRID
    tf = transfer_function(grid, 11e-6)
    u = bandlimit_to_propagating(random_field(grid, 5))
    back = adjoint_propagate(propagate(u, tf), tf)
    assert np.abs(back.values - u.values).max() < 1e-11


def test_power_conservation_on_propagating_modes():
    grid = EVANESCENT_GRID
    rng = np.random.default_rng(6)
    for _ in range(20):
        u = bandlimit_to_propagating(random_field(grid, int(rng.integers(1e6))))
        d = float(rng.uniform(0.0, 40e-6))
        p0 = total_power(u)
        p1 = total_power(propagate(u, transfer_function(grid, d)))
        assert abs(p1 - p0) / p0 < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(2, 25),
    ny=st.integers(2, 25),
    wavelength=st.floats(0.2e-6, 3e-6),
    distance=st.floats(0.0, 60e-6),
    batch=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_power_conservation_random_grids(nx, ny, wavelength, distance, batch, seed):
    # |H| = 1 on the propagating disc, so a band-limited stack keeps each
    # sample's power, on grids with and without an evanescent band
    grid = GridSpec(nx, ny, 1e-6, wavelength)
    rng = np.random.default_rng(seed)
    shape = (batch,) + grid.shape
    u = spectral_multiply(rng.normal(size=shape) + 1j * rng.normal(size=shape), propagating_mask(grid))
    p0 = (np.abs(u) ** 2).sum(axis=(1, 2))
    p1 = (np.abs(propagate_array(u, transfer_function(grid, distance))) ** 2).sum(axis=(1, 2))
    assert np.all(np.abs(p1 - p0) <= 1e-10 * p0)


def test_composition_of_distances():
    grid = EVANESCENT_GRID
    f = random_field(grid, 7)
    d1, d2 = 6e-6, 13e-6
    once = propagate(f, transfer_function(grid, d1 + d2))
    stepped = propagate(
        propagate(f, transfer_function(grid, d1)), transfer_function(grid, d2)
    )
    assert np.abs(once.values - stepped.values).max() < 1e-11


def test_inverse_restores_bandlimited_field():
    # Distance kept small enough that the negative-distance evanescent
    # amplification of FFT roundoff stays below the tolerance.
    grid = EVANESCENT_GRID
    u = bandlimit_to_propagating(random_field(grid, 8))
    d = 2e-6
    back = propagate(propagate(u, transfer_function(grid, d)),
                     transfer_function(grid, -d))
    assert np.abs(back.values - u.values).max() < 1e-11


def test_linearity():
    grid = EVANESCENT_GRID
    tf = transfer_function(grid, 5e-6)
    a, b = random_field(grid, 9), random_field(grid, 10)
    alpha, beta = 0.3 - 1.1j, 2.2 + 0.4j
    combined = propagate(
        ComplexField(grid, alpha * a.values + beta * b.values), tf
    )
    separate = alpha * propagate(a, tf).values + beta * propagate(b, tf).values
    scale = np.abs(separate).max()
    assert np.abs(combined.values - separate).max() / scale < 1e-12


def test_no_gain_for_nonnegative_distance():
    grid = EVANESCENT_GRID
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = random_field(grid, int(rng.integers(1e6)))
        d = float(rng.uniform(0.0, 30e-6))
        assert total_power(propagate(f, transfer_function(grid, d))) <= total_power(
            f
        ) * (1 + 1e-12)


def test_transfer_function_cache_reuses_objects():
    a = cached_transfer_function(SMOOTH_GRID, 1e-3)
    b = cached_transfer_function(GridSpec(16, 16, 1e-6, 0.5e-6), 1e-3)
    assert a is b
