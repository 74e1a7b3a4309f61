import numpy as np
import pytest

from donn import engine
from donn.engine import Forward, modulate
from donn.fields import GridSpec, wrap_phase
from donn.network import OpticalNetwork, PhaseLayer, random_init
from donn.propagation import propagate_array, transfer_function

GRID = GridSpec(16, 16, 1e-6, 0.5e-6)
TWO_PI = 2.0 * np.pi


def random_field(seed=0, grid=GRID, batch=1):
    """A (batch, ny, nx) stack of random complex fields."""
    rng = np.random.default_rng(seed)
    shape = (batch,) + grid.shape
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def forward(net, values, kept=None):
    out = np.empty_like(values)
    Forward(net, values).run(out, kept=kept)
    return out


def apply_phase(field, phase, sign):
    mask = np.exp(1j * sign * phase) if phase.ndim == 2 else phase
    return modulate(field, mask, sign, np.empty_like(field), np.empty_like(field))


def intensity(values):
    return engine.intensity(values, np.empty(values.shape), np.empty(values.shape))


def power(values):
    return intensity(values).sum(axis=(1, 2))


def test_phase_layer_validation():
    with pytest.raises(ValueError, match="wrap_phase"):
        PhaseLayer(GRID, np.full(GRID.shape, -0.1))
    with pytest.raises(ValueError, match="wrap_phase"):
        PhaseLayer(GRID, np.full(GRID.shape, TWO_PI))
    PhaseLayer(GRID, wrap_phase(np.full(GRID.shape, -0.1)))


def test_network_validation():
    layer = PhaseLayer(GRID, np.zeros(GRID.shape))
    with pytest.raises(ValueError, match="at least one layer"):
        OpticalNetwork(GRID, (), ())
    with pytest.raises(ValueError, match="strictly positive"):
        OpticalNetwork(GRID, (layer,), (0.0,))
    with pytest.raises(ValueError, match="distances"):
        OpticalNetwork(GRID, (layer,), (1e-6, 1e-6))


def test_apply_phase_zero_is_identity():
    f = random_field(1, batch=2)
    out = apply_phase(f, np.zeros(GRID.shape), 1.0)
    assert np.array_equal(out, f)


def test_apply_phase_pi_negates():
    f = random_field(2, batch=2)
    assert np.allclose(apply_phase(f, np.full(GRID.shape, np.pi), 1.0), -f, atol=1e-15)
    # one mask per sample, as under noise injection
    per_sample = np.stack([np.zeros(GRID.shape), np.full(GRID.shape, np.pi)])
    out = apply_phase(f, per_sample, 1.0)
    assert np.array_equal(out[0], f[0])
    assert np.allclose(out[1], -f[1], atol=1e-15)


def test_apply_phase_preserves_magnitudes_exactly():
    f = random_field(3, batch=2)
    rng = np.random.default_rng(4)
    phase = rng.uniform(0, TWO_PI, GRID.shape)
    for sign in (1.0, -1.0):
        out = apply_phase(f, phase, sign)
        assert np.allclose(np.abs(out), np.abs(f), rtol=1e-14)
    round_trip = apply_phase(apply_phase(f, phase, 1.0), phase, -1.0)
    assert np.allclose(round_trip, f, atol=1e-14)


def test_forward_single_layer_zero_phase_is_propagation():
    d = 9e-6
    net = OpticalNetwork(GRID, (PhaseLayer(GRID, np.zeros(GRID.shape)),), (d,))
    f = random_field(5)
    post = np.empty((1,) + f.shape, complex)
    out = forward(net, f, post)
    direct = propagate_array(f, transfer_function(GRID, d))
    assert np.abs(out - direct).max() < 1e-13
    assert len(post) == 1 and len(Forward(net, f).phases) == 1
    assert np.array_equal(post[0], f)


def test_forward_passivity():
    net = random_init(GRID, 3, [8e-6] * 3, seed=0)
    f = random_field(6, batch=3)
    assert np.all(power(forward(net, f)) <= power(f) * (1 + 1e-10))


def test_forward_linearity():
    net = random_init(GRID, 2, [8e-6, 5e-6], seed=1)
    a, b = random_field(7), random_field(8)
    alpha, beta = 1.3 - 0.2j, -0.5 + 0.9j
    combined = forward(net, alpha * a + beta * b)
    separate = alpha * forward(net, a) + beta * forward(net, b)
    scale = np.abs(separate).max()
    assert np.abs(combined - separate).max() / scale < 1e-12


def test_constant_phase_offset_gives_global_factor():
    net = random_init(GRID, 2, [8e-6, 5e-6], seed=2)
    c = 0.77
    shifted_layers = [l.phase.copy() for l in net.layers]
    shifted_layers[0] = wrap_phase(shifted_layers[0] + c)
    net2 = net.with_phases(shifted_layers)
    f = random_field(9)
    out1 = forward(net, f)
    out2 = forward(net2, f)
    assert np.allclose(out2, out1 * np.exp(1j * c), atol=1e-12)
    assert np.allclose(intensity(out2), intensity(out1), atol=1e-12)


def test_trace_consistency():
    # re-running from a cached post-modulation field reproduces the output:
    # the first layer's distance becomes the tail's input distance
    net = random_init(GRID, 3, [8e-6, 6e-6, 4e-6], seed=3)
    f = random_field(10, batch=2)
    post = np.empty((3,) + f.shape, complex)
    out = forward(net, f, post)
    eff = Forward(net, f).phases
    assert all(np.array_equal(e, layer.phase) for e, layer in zip(eff, net.layers))
    tail = OpticalNetwork(GRID, net.layers[1:], net.distances[1:], net.distances[0])
    replay = forward(tail, post[0])
    assert np.abs(replay - out).max() < 1e-12


def test_random_init_deterministic():
    a = random_init(GRID, 3, [1e-5] * 3, seed=42)
    b = random_init(GRID, 3, [1e-5] * 3, seed=42)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.phase, lb.phase)
    c = random_init(GRID, 3, [1e-5] * 3, seed=43)
    assert not np.array_equal(a.layers[0].phase, c.layers[0].phase)


def test_random_init_parameter_count_default_geometry():
    grid = GridSpec(91, 91, 8e-6, 532e-9)
    net = random_init(grid, 3, [0.01] * 3, seed=0)
    assert net.n_parameters == 24_843


def test_random_init_range():
    net = random_init(GRID, 2, [1e-5] * 2, seed=11)
    for layer in net.layers:
        assert layer.phase.min() >= 0.0
        assert layer.phase.max() < TWO_PI


def test_random_init_rejects_bad_args():
    with pytest.raises(ValueError):
        random_init(GRID, 0, [], seed=0)
    with pytest.raises(ValueError):
        random_init(GRID, 2, [1e-5], seed=0)
