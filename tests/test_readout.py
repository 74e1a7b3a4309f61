import numpy as np
import pytest

from donn import training
from donn import engine
from donn.fields import EncodeSpec, GridSpec
from donn.network import random_init
from donn.readout import (
    DegenerateScoresError,
    DetectorLayout,
    batch_class_scores,
    default_detector_layout,
    softmax_cross_entropy,
)

GRID = GridSpec(20, 20, 1e-6, 5e-7)


def ten_region_layout(grid=GRID):
    # 2 x 5 grid of 2x2 regions
    regions = []
    for row in range(2):
        for col in range(5):
            x0, y0 = 2 + col * 3, 4 + row * 6
            regions.append((x0, y0, x0 + 1, y0 + 1))
    return DetectorLayout(grid, tuple(regions))


def intensity(values):
    return engine.intensity(values, np.empty(values.shape), np.empty(values.shape))


def loss_head(scores, labels, temperature=0.1, normalize=True):
    return softmax_cross_entropy(
        np.asarray(scores, dtype=np.float64), np.asarray(labels), temperature, normalize
    )


def evaluate_small(images, labels):
    net = random_init(GRID, 1, [1e-5], seed=0)
    return training.evaluate(net, images, labels, ten_region_layout(), EncodeSpec())


def test_layout_validation():
    with pytest.raises(ValueError, match="overlap"):
        DetectorLayout(GRID, ((0, 0, 3, 3), (2, 2, 5, 5)))
    with pytest.raises(ValueError, match="outside"):
        DetectorLayout(GRID, ((18, 18, 21, 21),))
    with pytest.raises(ValueError, match="empty"):
        DetectorLayout(GRID, ((5, 5, 4, 5),))


def test_default_layout_geometry():
    grid = GridSpec(91, 91, 8e-6, 532e-9)
    layout = default_detector_layout(grid)
    assert layout.n_classes == 10
    sizes = {(x1 - x0 + 1, y1 - y0 + 1) for x0, y0, x1, y1 in layout.regions}
    assert sizes == {(9, 9)}
    assert layout.regions[0] == (5, 32, 13, 40)
    assert layout.regions[9] == (77, 50, 85, 58)


def test_measure_values():
    v = np.zeros((2,) + GRID.shape, dtype=complex)
    v[0, 3, 4] = 3 + 4j
    measured = intensity(v)
    assert measured[0, 3, 4] == pytest.approx(25.0)
    assert measured.min() >= 0.0
    assert not measured[1].any()


def test_measure_destructive_cross_term():
    # equal amplitudes, pi relative phase: the cross term cancels exactly
    u1 = np.full((1,) + GRID.shape, 0.5 + 0.3j)
    u2 = -u1
    assert np.abs(intensity(u1 + u2)).max() == 0.0


def test_class_scores_uniform_intensity():
    layout = ten_region_layout()
    scores = batch_class_scores(np.ones((2,) + GRID.shape), layout)
    assert scores.shape == (2, 10)
    assert np.allclose(scores, 4.0)


def test_class_scores_one_hot():
    layout = ten_region_layout()
    maps = np.zeros((2,) + GRID.shape)
    x0, y0, _, _ = layout.regions[3]
    maps[1, y0, x0] = 2.5
    scores = batch_class_scores(maps, layout)
    assert scores[1, 3] == pytest.approx(2.5)
    assert np.delete(scores[1], 3).sum() == 0.0
    assert not scores[0].any()


def test_class_scores_bounded_by_total_power():
    rng = np.random.default_rng(0)
    layout = ten_region_layout()
    shape = (4,) + GRID.shape
    measured = intensity(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    scores = batch_class_scores(measured, layout)
    assert np.all(scores.sum(axis=1) <= measured.sum(axis=(1, 2)) * (1 + 1e-12))


def test_class_scores_shape_mismatch():
    with pytest.raises(ValueError, match="match"):
        batch_class_scores(np.ones((1, 5, 5)), ten_region_layout())


def test_predict_ties_break_low(monkeypatch):
    # evaluate predicts the argmax of each row of class scores; ties go to
    # the lowest class index
    scores = np.zeros((4, 10))
    scores[0, :3] = [0.1, 0.9, 0.3]
    scores[1] = 1.0
    scores[2, 7] = 1.0
    scores[3, [4, 8]] = 0.5
    monkeypatch.setattr(training, "batch_class_scores", lambda maps, layout: scores)
    acc, _ = evaluate_small(np.ones((4, 4, 4)), np.array([1, 0, 7, 4]))
    assert acc == 1.0


def test_predict_scale_invariant():
    # encoding normalizes input power, so dimming every image leaves the
    # predictions unchanged
    rng = np.random.default_rng(1)
    images = rng.uniform(0.0, 1.0, size=(6, 8, 8))
    labels = np.arange(6)
    _, confusion = evaluate_small(images, labels)
    _, dimmed = evaluate_small(0.37 * images, labels)
    assert np.array_equal(confusion, dimmed)


def test_softmax_uniform_scores_loss():
    loss, _ = loss_head(np.ones((2, 10)), [4, 0], temperature=0.1)
    assert np.allclose(loss, np.log(10.0), rtol=1e-12)
    loss2, _ = loss_head(np.ones((1, 10)), [4], temperature=0.7, normalize=False)
    assert loss2[0] == pytest.approx(np.log(10.0), rel=1e-12)


def test_softmax_one_hot_low_temperature_limit():
    s = np.zeros((1, 10))
    s[0, 3] = 1.0
    loss, _ = loss_head(s, [3], temperature=1e-3)
    assert loss[0] < 1e-12


def test_softmax_gradient_matches_finite_differences():
    # Richardson-extrapolated central differences (two stencil widths); a
    # column perturbation moves every row, and each row's loss must see
    # only its own scores
    rng = np.random.default_rng(2)
    h = 1e-3
    for normalize in (True, False):
        s = rng.uniform(0.05, 1.0, size=(5, 10))
        labels = rng.integers(0, 10, size=5)
        _, grad = loss_head(s, labels, 0.1, normalize=normalize)

        def loss_at(vec):
            return loss_head(vec, labels, 0.1, normalize=normalize)[0]

        for c in range(10):
            e = np.zeros(10)
            e[c] = 1.0
            d1 = (loss_at(s + h * e) - loss_at(s - h * e)) / (2 * h)
            d2 = (loss_at(s + 0.5 * h * e) - loss_at(s - 0.5 * h * e)) / h
            fd = (4 * d2 - d1) / 3
            rel = np.abs(fd - grad[:, c]) / np.maximum(np.abs(fd), np.abs(grad[:, c]))
            assert rel.max() < 1e-8


def test_softmax_gradient_sums_to_zero_without_normalization():
    rng = np.random.default_rng(3)
    s = rng.uniform(0.0, 2.0, size=(10, 10))
    _, grad = loss_head(s, np.full(10, 2), temperature=0.3, normalize=False)
    assert np.abs(grad.sum(axis=1)).max() < 1e-14


def test_softmax_normalized_gradient_orthogonal_to_scores():
    # scale invariance of the normalized loss forces <s, grad> = 0
    rng = np.random.default_rng(4)
    s = rng.uniform(0.05, 2.0, size=(10, 10))
    labels = np.full(10, 5)
    loss, grad = loss_head(s, labels, temperature=0.1)
    assert np.abs(np.einsum("bc,bc->b", s, grad)).max() < 1e-13
    loss2, _ = loss_head(3.7 * s, labels, temperature=0.1)
    assert np.allclose(loss2, loss, rtol=1e-12)


def test_softmax_errors():
    with pytest.raises(IndexError, match="sample 1"):
        loss_head(np.ones((2, 10)), [0, 10])
    with pytest.raises(IndexError):
        loss_head(np.ones((1, 10)), [-1])
    for temperature in (0.0, -0.1):
        with pytest.raises(ValueError, match="temperature"):
            loss_head(np.ones((1, 10)), [0], temperature)
    blank = np.ones((2, 10))
    blank[1] = 0.0
    with pytest.raises(DegenerateScoresError):
        loss_head(blank, [0, 0])
