import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import donn
import synthdigits
from donn import engine
from donn.fields import ComplexField, EncodeSpec, GridSpec, encode_batch
from donn.network import OpticalNetwork, PhaseLayer, random_init
from donn.readout import DegenerateScoresError, DetectorLayout
from donn.training import (
    AdamState,
    TrainConfig,
    adam_step,
    cosine_lr,
    depth_sweep,
    evaluate,
    loss_and_gradients,
    train,
)

GRID = GridSpec(16, 16, 1e-6, 0.5e-6)
LAYOUT4 = DetectorLayout(
    GRID, ((1, 1, 5, 5), (8, 1, 12, 5), (1, 8, 5, 12), (8, 8, 12, 12))
)


def random_field(seed, grid=GRID):
    rng = np.random.default_rng(seed)
    return ComplexField(
        grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    )


def tiny_images(n, seed):
    rng = np.random.default_rng(seed)
    imgs = rng.uniform(0.1, 1.0, size=(n, 8, 8))
    labels = (np.arange(n) % 4).astype(np.int64)
    # give each class a distinguishing bright quadrant
    for i, lab in enumerate(labels):
        y, x = divmod(int(lab), 2)
        imgs[i, 4 * y : 4 * y + 4, 4 * x : 4 * x + 4] += 1.0
    return imgs / imgs.max(), labels


TINY_ENCODE = EncodeSpec(upsample=1)


def test_single_class_whole_plane_gradient_is_zero():
    # C=1 with the detector covering everything: probabilities are pinned
    # at 1, the loss is flat, and phases cannot change total power
    layout = DetectorLayout(GRID, ((0, 0, 15, 15),))
    net = random_init(GRID, 1, [8e-6], seed=0)
    loss, grads = loss_and_gradients(net, random_field(1), 0, layout)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.abs(grads[0]).max() < 1e-12


def test_gradients_match_finite_differences_small_instances():
    rng = np.random.default_rng(3)
    for depth in (1, 2, 3):
        net = random_init(GRID, depth, [9e-6] * depth, seed=depth)
        field = random_field(30 + depth)
        label = int(rng.integers(0, 4))
        loss, grads = loss_and_gradients(net, field, label, LAYOUT4)
        h = 1e-5
        for _ in range(12):
            li = int(rng.integers(0, depth))
            iy = int(rng.integers(0, 16))
            ix = int(rng.integers(0, 16))

            def loss_at(delta):
                phases = [l.phase.copy() for l in net.layers]
                phases[li][iy, ix] += delta
                shifted, _ = loss_and_gradients(
                    net.with_phases(phases), field, label, LAYOUT4
                )
                return shifted

            fd = (loss_at(h) - loss_at(-h)) / (2 * h)
            an = grads[li][iy, ix]
            assert abs(fd - an) / max(abs(fd), abs(an)) < 1e-6


def test_gradient_null_along_global_phase_direction():
    # adding a constant to one layer leaves the loss unchanged, so each
    # layer's gradient must sum to zero
    net = random_init(GRID, 3, [7e-6] * 3, seed=4)
    _, grads = loss_and_gradients(net, random_field(5), 2, LAYOUT4)
    for g in grads:
        assert abs(g.sum()) < 1e-9


def test_batch_mean_of_duplicated_sample():
    net = random_init(GRID, 2, [9e-6] * 2, seed=6)
    field = random_field(7)
    loss1, grads1 = loss_and_gradients(net, field, 1, LAYOUT4)
    values = np.stack([field.values, field.values])
    loss2, grads2, _ = engine.train_pass(
        net, values, np.array([1, 1]), LAYOUT4, 0.1, True
    )
    assert loss2 == pytest.approx(loss1, rel=1e-12)
    for g1, g2 in zip(grads1, grads2):
        # mean over the duplicated pair equals the single-sample gradient,
        # i.e. the summed gradient is exactly twice the singleton's
        assert np.allclose(g2, g1, rtol=1e-12, atol=1e-15)


def test_degenerate_zero_field_raises():
    net = random_init(GRID, 1, [8e-6], seed=8)
    zero = ComplexField(GRID, np.zeros(GRID.shape, dtype=complex))
    with pytest.raises(DegenerateScoresError):
        loss_and_gradients(net, zero, 0, LAYOUT4)


def test_adam_zero_gradient_is_noop():
    net = random_init(GRID, 2, [8e-6] * 2, seed=9)
    state = AdamState.zeros(net)
    zeros = [np.zeros(GRID.shape) for _ in range(2)]
    net2, state2 = adam_step(net, zeros, state, lr=0.05)
    for a, b in zip(net.layers, net2.layers):
        assert np.array_equal(a.phase, b.phase)
    assert state2.t == 1
    assert state.t == 0  # functional: input state untouched


def test_adam_first_step_magnitude():
    grid = GridSpec(2, 2, 1e-6, 5e-7)
    net = OpticalNetwork(grid, (PhaseLayer(grid, np.ones(grid.shape)),), (1e-6,))
    g = np.full(grid.shape, 0.37)
    lr = 0.01
    net2, _ = adam_step(net, [g], AdamState.zeros(net), lr=lr)
    step = np.ones(grid.shape) - net2.layers[0].phase
    # first bias-corrected step is lr * g/(|g| + eps'), a signed step of ~lr
    assert np.allclose(step, lr, rtol=1e-6)


def test_adam_three_step_scalar_trace_matches_hand_computation():
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    grid = GridSpec(2, 2, 1e-6, 5e-7)
    phase0 = 2.0
    gradient_values = [0.3, -0.7, 0.12]

    # independent scalar Adam, straight from the update equations
    p, m, v = phase0, 0.0, 0.0
    expected = []
    for t, g in enumerate(gradient_values, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p = (p - lr * m_hat / (np.sqrt(v_hat) + eps)) % (2 * np.pi)
        expected.append(p)

    net = OpticalNetwork(
        grid, (PhaseLayer(grid, np.full(grid.shape, phase0)),), (1e-6,)
    )
    state = AdamState.zeros(net)
    for g, want in zip(gradient_values, expected):
        net, state = adam_step(net, [np.full(grid.shape, g)], state, lr=lr)
        assert np.allclose(net.layers[0].phase, want, atol=1e-12)


def test_adam_shape_mismatch():
    net = random_init(GRID, 1, [8e-6], seed=10)
    with pytest.raises(ValueError):
        adam_step(net, [np.zeros((4, 4))], AdamState.zeros(net), lr=0.01)
    with pytest.raises(ValueError):
        adam_step(net, [], AdamState.zeros(net), lr=0.01)


def test_cosine_lr_endpoints_and_monotonicity():
    assert cosine_lr(0, 100, 0.5) == pytest.approx(0.5)
    assert cosine_lr(100, 100, 0.5) == pytest.approx(0.0, abs=1e-17)
    assert cosine_lr(50, 100, 0.5) == pytest.approx(0.25)
    values = [cosine_lr(e, 40, 1.0) for e in range(41)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        cosine_lr(101, 100, 0.5)


def test_train_single_sample_single_step():
    imgs, labels = tiny_images(1, 0)
    net = random_init(GRID, 1, [8e-6], seed=0)
    cfg = TrainConfig(epochs=1, batch_size=1, seed=0)
    res = train(net, imgs, labels[:1], None, None, LAYOUT4, cfg, TINY_ENCODE)
    assert res.optimizer_state.t == 1
    assert len(res.metrics.rows) == 1


def test_train_determinism_and_noise_seeding():
    imgs, labels = tiny_images(24, 1)
    net = random_init(GRID, 2, [8e-6] * 2, seed=1)

    def run(sigma, seed=5):
        cfg = TrainConfig(
            epochs=2, batch_size=8, seed=seed, phase_noise_sigma=sigma,
            eval_every=10**9,
        )
        return train(net, imgs, labels, None, None, LAYOUT4, cfg, TINY_ENCODE)

    a, b = run(0.0), run(0.0)
    for la, lb in zip(a.network.layers, b.network.layers):
        assert np.array_equal(la.phase, lb.phase)
    assert [r.loss for r in a.metrics.rows] == [r.loss for r in b.metrics.rows]

    noisy1, noisy2 = run(0.1), run(0.1)
    for la, lb in zip(noisy1.network.layers, noisy2.network.layers):
        assert np.array_equal(la.phase, lb.phase)
    # noise changes the trajectory relative to the clean run
    assert not np.array_equal(
        a.network.layers[0].phase, noisy1.network.layers[0].phase
    )


def test_resume_continues_uninterrupted_run_bit_for_bit():
    images, labels = synthdigits.make_dataset(256, 3)
    net = random_init(donn.DEFAULT_GRID, 2, [0.01] * 2, seed=0)
    layout = donn.readout.default_detector_layout(donn.DEFAULT_GRID)

    def run(epochs, start_net=net, state=None, start_epoch=0):
        cfg = TrainConfig(epochs=epochs, batch_size=64, seed=4, phase_noise_sigma=0.1)
        return train(
            start_net, images, labels, None, None, layout, cfg,
            initial_state=state, start_epoch=start_epoch,
        )

    whole = run(3)
    first = run(1)
    resumed = run(3, first.network, first.optimizer_state, start_epoch=1)
    for a, b in zip(whole.network.layers, resumed.network.layers):
        assert a.phase.tobytes() == b.phase.tobytes()
    for a, b in zip(
        whole.optimizer_state.m + whole.optimizer_state.v,
        resumed.optimizer_state.m + resumed.optimizer_state.v,
    ):
        assert a.tobytes() == b.tobytes()
    assert whole.optimizer_state.t == resumed.optimizer_state.t
    losses = [r.loss for r in first.metrics.rows + resumed.metrics.rows]
    assert losses == [r.loss for r in whole.metrics.rows]


def test_noise_injection_leaves_parameters_alone():
    net = random_init(GRID, 2, [8e-6] * 2, seed=2)
    before = [l.phase.copy() for l in net.layers]
    rng = np.random.default_rng(0)
    values = np.ones((3,) + GRID.shape, dtype=np.complex128)
    engine.train_pass(net, values, np.arange(3), LAYOUT4, 0.1, True, 0.5, rng)
    for prev, layer in zip(before, net.layers):
        assert np.array_equal(prev, layer.phase)


@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(3, 16),
    ny=st.integers(3, 16),
    depth=st.integers(1, 3),
    batch=st.integers(2, 5),
    input_distance=st.sampled_from([0.0, 3e-6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_forward_batch_rows_independent(nx, ny, depth, batch, input_distance, seed):
    # a stack gives each row what a batch of one gives it; the single-sample
    # views (loss_and_gradients, encode_input, propagate) rely on this
    def forward(values):
        out, post = np.empty_like(values), np.empty((depth,) + values.shape, complex)
        engine.Forward(net, values).run(out, kept=post)
        return out, list(post)

    grid = GridSpec(nx, ny, 1e-6, 0.5e-6)
    rng = np.random.default_rng(seed)
    net = random_init(grid, depth, list(rng.uniform(1e-6, 2e-5, depth)), seed % 1000)
    net = OpticalNetwork(grid, net.layers, net.distances, input_distance)
    shape = (batch,) + grid.shape
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    out, post = forward(values)
    for i in range(batch):
        row_out, row_post = forward(values[i : i + 1])
        for whole, row in zip([out] + post, [row_out] + row_post):
            assert np.abs(whole[i] - row[0]).max() <= 1e-12 * np.abs(whole[i]).max()


def test_train_config_rejects_nonpositive_temperature():
    # zero would divide by zero in the loss head; a negative value would
    # silently train toward the wrong class
    for temperature in (0.0, -0.1):
        with pytest.raises(ValueError, match="temperature"):
            TrainConfig(temperature=temperature)


def test_train_empty_dataset_rejected():
    net = random_init(GRID, 1, [8e-6], seed=0)
    cfg = TrainConfig(epochs=1, batch_size=4, seed=0)
    with pytest.raises(ValueError, match="empty"):
        train(net, np.zeros((0, 8, 8)), np.zeros(0, dtype=np.int64), None, None,
              LAYOUT4, cfg, TINY_ENCODE)


def test_train_reduces_loss_on_separable_data():
    imgs, labels = tiny_images(32, 3)
    net = random_init(GRID, 2, [9e-6] * 2, seed=3)
    cfg = TrainConfig(epochs=8, batch_size=16, base_lr=0.02, seed=0, eval_every=4)
    res = train(net, imgs, labels, imgs, labels, LAYOUT4, cfg, TINY_ENCODE)
    losses = [r.loss for r in res.metrics.rows]
    assert losses[-1] < losses[0]
    assert res.metrics.rows[-1].test_accuracy >= 0.5


def test_evaluate_single_sample_forced_correct():
    # label the sample with whatever class its output argmax lands in;
    # accuracy is then 1.0 by construction
    from donn.readout import batch_class_scores

    imgs, _ = tiny_images(1, 6)
    net = random_init(GRID, 1, [8e-6], seed=6)
    scores = batch_class_scores(engine.eval_pass(net, imgs, TINY_ENCODE), LAYOUT4)
    forced_label = np.argmax(scores, axis=1).astype(np.uint8)
    acc, _ = evaluate(net, imgs, forced_label, LAYOUT4, TINY_ENCODE)
    assert acc == 1.0


def test_evaluate_counts_and_errors():
    imgs, labels = tiny_images(12, 4)
    net = random_init(GRID, 1, [8e-6], seed=4)
    acc, confusion = evaluate(net, imgs, labels, LAYOUT4, TINY_ENCODE)
    assert 0.0 <= acc <= 1.0
    assert confusion.sum() == 12
    assert confusion.shape == (4, 4)
    with pytest.raises(ValueError, match="empty"):
        evaluate(net, imgs[:0], labels[:0], LAYOUT4, TINY_ENCODE)


def test_depth_sweep_single_entry():
    imgs, labels = tiny_images(16, 5)
    cfg = TrainConfig(epochs=1, batch_size=8, seed=0, eval_every=10**9)
    table = depth_sweep(
        [1], imgs, labels, imgs, labels, LAYOUT4, cfg, GRID, 8e-6,
        encode=TINY_ENCODE,
    )
    assert len(table) == 1
    assert table[0][0] == 1
    assert 0.0 <= table[0][1] <= 1.0
    with pytest.raises(ValueError, match="nonempty"):
        depth_sweep([], imgs, labels, imgs, labels, LAYOUT4, cfg, GRID, 8e-6)


def test_overfit_smoke_100_samples(dataset_dir):
    # trainability: a 100-sample subset is memorized quickly; the loss
    # drops below 0.1 within 200 full-batch steps at default settings
    from pathlib import Path

    from donn.cli import _load_split
    from donn.readout import default_detector_layout
    from donn.training import DEFAULT_ENCODE

    ds = _load_split(Path(dataset_dir), "train")
    images, labels = ds.images[:100], ds.labels[:100].astype(np.int64)
    grid = donn.DEFAULT_GRID
    layout = default_detector_layout(grid)
    net = random_init(grid, 3, [0.01] * 3, seed=0)
    values = encode_batch(images.astype(np.float64) / 255.0, grid, DEFAULT_ENCODE)
    cfg = TrainConfig()
    state = AdamState.zeros(net)
    horizon = 250  # schedule horizon longer than the probe, as in a real run
    reached = False
    for step in range(200):
        loss, grads, _ = engine.train_pass(
            net, values, labels, layout, cfg.temperature, True
        )
        if loss < 0.1:
            reached = True
            break
        lr = cosine_lr(step, horizon, cfg.base_lr)
        net, state = adam_step(
            net, grads, state, lr, cfg.beta1, cfg.beta2, cfg.eps
        )
    assert reached, f"loss stuck at {loss:.4f} after 200 steps"


def test_metrics_csv_format():
    from donn.training import EpochRecord, MetricsLog

    log = MetricsLog()
    log.append(EpochRecord(0, 2.5, 0.01, None, 1.25))
    log.append(EpochRecord(1, 1.5, 0.009, 0.5, 1.5))
    text = log.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,loss,lr,test_accuracy,seconds"
    assert lines[1] == "0,2.5,0.01,,1.250"
    assert lines[2].startswith("1,1.5,0.009,0.500000,")
    with pytest.raises(ValueError, match="increasing"):
        log.append(EpochRecord(1, 1.0, 0.008, None, 1.0))
