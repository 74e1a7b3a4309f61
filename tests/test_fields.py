import numpy as np
import pytest

import synthdigits
from donn.fields import (
    DEFAULT_GRID,
    ComplexField,
    EncodeSpec,
    GridSpec,
    encode_batch,
    encode_input,
    frequency_coordinates,
    total_power,
    wrap_phase,
)

TWO_PI = 2.0 * np.pi


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 4, 1e-6, 5e-7)
    with pytest.raises(ValueError):
        GridSpec(4, 4, 0.0, 5e-7)
    with pytest.raises(ValueError):
        GridSpec(4, 4, 1e-6, -1.0)


def test_grid_equality_and_shape():
    a = GridSpec(4, 6, 1e-6, 5e-7)
    assert a == GridSpec(4, 6, 1e-6, 5e-7)
    assert a.shape == (6, 4)
    assert a.npix == 24


def test_field_shape_and_finiteness():
    g = GridSpec(4, 4, 1e-6, 5e-7)
    with pytest.raises(ValueError):
        ComplexField(g, np.zeros((3, 4), dtype=complex))
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ComplexField(g, bad)


def test_field_values_frozen():
    g = GridSpec(4, 4, 1e-6, 5e-7)
    f = ComplexField(g, np.ones((4, 4), dtype=complex))
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0


def test_encode_uniform_ones():
    g = GridSpec(8, 8, 1e-6, 5e-7)
    f = encode_input(np.ones((8, 8)), g, EncodeSpec(target_power=1.0))
    assert abs(total_power(f) - 1.0) < 1e-12
    # constant amplitude, exactly zero phase
    assert np.allclose(f.values.imag, 0.0)
    assert np.allclose(f.values.real, f.values.real[0, 0])


def test_encode_zero_image_rejected():
    g = GridSpec(8, 8, 1e-6, 5e-7)
    with pytest.raises(ValueError, match="zero total power"):
        encode_input(np.zeros((8, 8)), g, EncodeSpec())


def test_encode_blank_sample_in_batch_named():
    digit = synthdigits.render_digit(3, np.random.default_rng(0)) / 255.0
    batch = np.stack([digit, np.zeros_like(digit)])
    with pytest.raises(ValueError, match="zero total power in sample 1"):
        encode_batch(batch, DEFAULT_GRID, EncodeSpec(upsample=3))


def test_encode_input_is_a_batch_of_one():
    rng = np.random.default_rng(9)
    images = rng.uniform(0.0, 1.0, size=(3, 28, 28))
    spec = EncodeSpec(upsample=3, phase=0.4, target_power=2.0)
    batch = encode_batch(images, DEFAULT_GRID, spec)
    for image, values in zip(images, batch):
        assert np.array_equal(encode_input(image, DEFAULT_GRID, spec).values, values)


def test_encode_footprint_must_fit():
    g = GridSpec(8, 8, 1e-6, 5e-7)
    with pytest.raises(ValueError, match="exceeds"):
        encode_input(np.ones((4, 4)), g, EncodeSpec(upsample=3))
    with pytest.raises(ValueError, match="exceeds"):
        encode_input(np.ones((4, 4)), g, EncodeSpec(offset=(6, 0)))


def test_encode_out_of_range_rejected():
    g = GridSpec(8, 8, 1e-6, 5e-7)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        encode_input(np.full((4, 4), 1.5), g, EncodeSpec())


def test_encode_intensity_ratio_matches_pixel_ratio():
    # square-root amplitude encoding: |U|^2 ratios reproduce pixel ratios
    rng = np.random.default_rng(5)
    img = rng.uniform(0.05, 1.0, size=(28, 28))
    g = GridSpec(91, 91, 8e-6, 532e-9)
    f = encode_input(img, g, EncodeSpec(upsample=3))
    intensity = f.intensity()
    x0 = (91 - 84) // 2
    i_a = intensity[x0 + 3 * 5, x0 + 3 * 7]
    i_b = intensity[x0 + 3 * 20, x0 + 3 * 11]
    assert i_a / i_b == pytest.approx(img[5, 7] / img[20, 11], rel=1e-10)


def test_encode_scale_invariance():
    rng = np.random.default_rng(6)
    img = rng.uniform(0.0, 1.0, size=(8, 8))
    img[0, 0] = 1.0  # keep c*img inside [0, 1] for c < 1
    g = GridSpec(16, 16, 1e-6, 5e-7)
    f1 = encode_input(img, g, EncodeSpec())
    f2 = encode_input(0.37 * img, g, EncodeSpec())
    assert np.allclose(f1.values, f2.values, atol=1e-14)


def test_encode_phase_constant_where_nonzero():
    rng = np.random.default_rng(7)
    img = rng.uniform(0.1, 1.0, size=(6, 6))
    g = GridSpec(12, 12, 1e-6, 5e-7)
    theta = 1.234
    f = encode_input(img, g, EncodeSpec(phase=theta))
    nz = np.abs(f.values) > 0
    assert np.allclose(np.angle(f.values[nz]), theta, atol=1e-12)


def test_encode_target_power():
    rng = np.random.default_rng(8)
    img = rng.uniform(0.0, 1.0, size=(10, 10))
    g = GridSpec(16, 16, 1e-6, 5e-7)
    for target in (1.0, 3.5):
        f = encode_input(img, g, EncodeSpec(target_power=target))
        assert total_power(f) == pytest.approx(target, rel=1e-12)


def reference_encode(images, grid, spec):
    # the out-of-place formula encode_batch computes without its temporaries
    imgs = np.repeat(np.repeat(images, spec.upsample, axis=1), spec.upsample, axis=2)
    b, h, w = imgs.shape
    if spec.offset is None:
        x0, y0 = (grid.nx - w) // 2, (grid.ny - h) // 2
    else:
        x0, y0 = spec.offset
    amp = np.sqrt(imgs)
    amp *= np.sqrt(spec.target_power / np.einsum("bij,bij->b", amp, amp))[:, None, None]
    values = np.zeros((b, grid.ny, grid.nx), dtype=np.complex128)
    values[:, y0 : y0 + h, x0 : x0 + w] = amp * np.exp(1j * spec.phase)
    return values


@pytest.mark.parametrize("upsample", [1, 3])
@pytest.mark.parametrize("phase", [0.0, 0.7])
@pytest.mark.parametrize(
    "target_power, offset", [(1.0, None), (3.5, None), (1.0, (2, 5))]
)
def test_encode_batch_matches_reference_bytes(upsample, phase, target_power, offset):
    rng = np.random.default_rng(11)
    images = rng.uniform(0.0, 1.0, size=(4, 28, 28))
    images[images < 0.4] = 0.0
    spec = EncodeSpec(upsample, offset, phase, target_power)
    expected = reference_encode(images, DEFAULT_GRID, spec)
    assert encode_batch(images, DEFAULT_GRID, spec).tobytes() == expected.tobytes()


def test_total_power_cases():
    g = GridSpec(4, 4, 1e-6, 5e-7)
    assert total_power(ComplexField(g, np.zeros((4, 4), dtype=complex))) == 0.0
    v = np.zeros((4, 4), dtype=complex)
    v[1, 2] = 3 + 4j
    assert total_power(ComplexField(g, v)) == pytest.approx(25.0, rel=1e-15)


def test_frequency_coordinates_dft_values():
    fx, fy = frequency_coordinates(GridSpec(4, 4, 1.0, 0.5))
    assert np.array_equal(fx, [0.0, 0.25, -0.5, -0.25])
    fx2, _ = frequency_coordinates(GridSpec(2, 2, 0.5, 0.5))
    assert np.array_equal(fx2, [0.0, -1.0])
    fx3, fy3 = frequency_coordinates(GridSpec(7, 5, 2e-6, 5e-7))
    assert fx3[0] == 0.0 and fy3[0] == 0.0
    assert len(fx3) == 7 and len(fy3) == 5


def test_wrap_phase_edges():
    assert wrap_phase(np.array([TWO_PI])) == np.array([0.0])
    assert 0.0 <= wrap_phase(np.array([-1e-20]))[0] < TWO_PI
    vals = wrap_phase(np.array([-0.1, 0.1, 7.0, -7.0]))
    assert np.all((vals >= 0.0) & (vals < TWO_PI))
    assert float(wrap_phase(3.0)) == 3.0
