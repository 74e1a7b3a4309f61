"""End-to-end training of phase layers through the optical stack.

The engine (:mod:`donn.engine`) computes gradients by the adjoint method:
the loss sensitivity at the detector plane is pulled back through each
propagation stage with the conjugated transfer function and through each
phase layer with the conjugated modulation, turning cached forward fields
into exact per-pixel phase derivatives. Optimization is Adam with a cosine
learning-rate schedule over epochs.

All batch reductions run in a fixed sample order, so a (seed, config,
data) triple reproduces a run bit for bit on one platform.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import engine
from .fields import ComplexField, EncodeSpec, GridSpec
from .network import OpticalNetwork, random_init
from .readout import DetectorLayout, batch_class_scores

# Encoding used when none is supplied: 28x28 inputs upsampled 3x and
# centered, leaving a zero border that damps periodic wrap-around.
DEFAULT_ENCODE = EncodeSpec(upsample=3)


@dataclass
class AdamState:
    """First/second-moment accumulators and step counter, one pair per layer."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def zeros(cls, net: OpticalNetwork) -> "AdamState":
        shape = net.grid.shape
        return cls(
            m=[np.zeros(shape) for _ in net.layers],
            v=[np.zeros(shape) for _ in net.layers],
            t=0,
        )

    def copy(self) -> "AdamState":
        return AdamState([a.copy() for a in self.m], [a.copy() for a in self.v], self.t)


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 128
    base_lr: float = 0.02
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    temperature: float = 0.1
    normalize_scores: bool = True
    phase_noise_sigma: float = 0.0
    seed: int = 0
    eval_every: int = 1

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.phase_noise_sigma < 0:
            raise ValueError("phase_noise_sigma must be >= 0")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    lr: float
    test_accuracy: float | None
    seconds: float


@dataclass
class MetricsLog:
    rows: list[EpochRecord] = dc_field(default_factory=list)

    CSV_HEADER = "epoch,loss,lr,test_accuracy,seconds"

    def append(self, row: EpochRecord) -> None:
        if self.rows and row.epoch <= self.rows[-1].epoch:
            raise ValueError("epochs must be strictly increasing")
        self.rows.append(row)

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            acc = "" if r.test_accuracy is None else f"{r.test_accuracy:.6f}"
            lines.append(f"{r.epoch},{r.loss:.10g},{r.lr:.10g},{acc},{r.seconds:.3f}")
        return "\n".join(lines) + "\n"


@dataclass
class TrainResult:
    network: OpticalNetwork
    metrics: MetricsLog
    optimizer_state: AdamState
    epoch: int


def cosine_lr(epoch: int, total_epochs: int, base_lr: float) -> float:
    """Half-cosine decay from ``base_lr`` at epoch 0 to 0 at ``total_epochs``."""
    if not 0 <= epoch <= total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs}]")
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * epoch / total_epochs))


def loss_and_gradients(
    net: OpticalNetwork,
    field: ComplexField,
    label: int,
    layout: DetectorLayout,
    temperature: float = 0.1,
    normalize: bool = True,
) -> tuple[float, list[np.ndarray]]:
    """Loss and exact d(loss)/d(phase) for one sample.

    The returned per-layer arrays are the derivative of the cross-entropy
    loss with respect to each stored phase value; they match central
    finite differences of the same loss.
    """
    if field.grid != net.grid or layout.grid != net.grid:
        raise ValueError("field, layout, and network must share one grid")
    loss, grads, _ = engine.train_pass(
        net, field.values[None, :, :], np.array([label]), layout, temperature, normalize
    )
    return loss, grads


def adam_step(
    net: OpticalNetwork,
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[OpticalNetwork, AdamState]:
    """One bias-corrected Adam update; phases re-wrap to [0, 2*pi).

    Functional: returns a new network and state, leaving the inputs
    untouched.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    if len(grads) != net.depth:
        raise ValueError(f"{len(grads)} gradients for {net.depth} layers")
    new_state = state.copy()
    new_state.t += 1
    phases = []
    for i, layer in enumerate(net.layers):
        g = np.asarray(grads[i], dtype=np.float64)
        if g.shape != net.grid.shape:
            raise ValueError(f"gradient {i} shape {g.shape} != {net.grid.shape}")
        # The new phase is allocated before the update's temporaries and
        # updated in place: allocated after them, it can land above freed
        # batch-sized blocks and keep the heap from shrinking after
        # training, which swings the peak memory of a later evaluation.
        p = layer.phase.copy()
        m, v = new_state.m[i], new_state.v[i]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**new_state.t)
        v_hat = v / (1.0 - beta2**new_state.t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        phases.append(p)
    return net.with_phases(phases), new_state


def evaluate(
    net: OpticalNetwork,
    images: np.ndarray,
    labels: np.ndarray,
    layout: DetectorLayout,
    encode: EncodeSpec = DEFAULT_ENCODE,
    batch_size: int = 256,
    clock: engine.StageClock | None = None,
) -> tuple[float, np.ndarray]:
    """Accuracy and per-class confusion counts over a dataset.

    ``confusion[i, j]`` counts samples of true class i predicted as j.
    The class scores of each batch are taken in the calling thread.
    ``clock``, when given, collects the engine's stage times.
    """
    n = len(labels)
    if n == 0:
        raise ValueError("empty dataset")
    n_classes = layout.n_classes
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    correct = 0
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        power = engine.eval_pass(net, _to_unit(images[start:stop]), encode, clock)
        scores = batch_class_scores(power, layout)
        pred = np.argmax(scores, axis=1)
        truth = np.asarray(labels[start:stop], dtype=np.int64)
        correct += int((pred == truth).sum())
        np.add.at(confusion, (truth, pred), 1)
    return correct / n, confusion


def _to_unit(images: np.ndarray) -> np.ndarray:
    """Map uint8 images to [0, 1]; pass float images through."""
    images = np.asarray(images)
    if images.dtype == np.uint8:
        return images.astype(np.float64) / 255.0
    return images


def train(
    net: OpticalNetwork,
    train_images: np.ndarray,
    train_labels: np.ndarray,
    test_images: np.ndarray | None,
    test_labels: np.ndarray | None,
    layout: DetectorLayout,
    config: TrainConfig,
    encode: EncodeSpec = DEFAULT_ENCODE,
    initial_state: AdamState | None = None,
    start_epoch: int = 0,
    log_fn=None,
    clock: engine.StageClock | None = None,
) -> TrainResult:
    """Train a network for ``config.epochs`` epochs of mini-batch Adam.

    The batch gradient is the arithmetic mean over the batch, accumulated
    in a fixed order. When ``phase_noise_sigma > 0``, fresh Gaussian
    phase perturbations are injected into every training forward pass
    (regularization against fabrication error); the stored parameters and
    evaluation passes are never perturbed. A non-finite loss aborts with
    a diagnostic rather than being skipped.

    Each epoch's shuffle and noise come from ``(config.seed, epoch)``, so
    resuming at ``start_epoch`` with the state saved there continues the
    uninterrupted run bit for bit. ``clock``, when given, collects the
    engine's stage times.
    """
    n = len(train_labels)
    if n == 0:
        raise ValueError("empty training dataset")
    state = initial_state.copy() if initial_state is not None else AdamState.zeros(net)
    metrics = MetricsLog()
    current = net
    train_images = _to_unit(train_images)
    labels_arr = np.asarray(train_labels, dtype=np.int64)

    for epoch in range(start_epoch, config.epochs):
        t0 = time.perf_counter()
        lr = cosine_lr(epoch, config.epochs, config.base_lr)
        seeds = np.random.SeedSequence([config.seed, epoch]).spawn(2)
        shuffle_rng, noise_rng = (np.random.default_rng(s) for s in seeds)
        perm = shuffle_rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            loss, grads, _ = engine.train_pass(
                current, train_images[idx], labels_arr[idx], layout, config.temperature,
                config.normalize_scores, config.phase_noise_sigma, noise_rng, encode, clock,
            )
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss {loss!r} at epoch {epoch}, "
                    f"step {state.t}: aborting"
                )
            current, state = adam_step(
                current, grads, state, lr, config.beta1, config.beta2, config.eps
            )
            losses.append(loss)

        acc = None
        last = epoch == config.epochs - 1
        if test_labels is not None and len(test_labels) and (
            (epoch + 1) % config.eval_every == 0 or last
        ):
            acc, _ = evaluate(current, test_images, test_labels, layout, encode, clock=clock)
        row = EpochRecord(
            epoch=epoch,
            loss=float(np.mean(losses)),
            lr=lr,
            test_accuracy=acc,
            seconds=time.perf_counter() - t0,
        )
        metrics.append(row)
        if log_fn is not None:
            log_fn(row)
    return TrainResult(current, metrics, state, config.epochs)


def depth_sweep(
    depths: list[int],
    train_images: np.ndarray,
    train_labels: np.ndarray,
    test_images: np.ndarray,
    test_labels: np.ndarray,
    layout: DetectorLayout,
    config: TrainConfig,
    grid: GridSpec,
    layer_distance: float,
    network_seed: int = 0,
    encode: EncodeSpec = DEFAULT_ENCODE,
    log_fn=None,
) -> list[tuple[int, float]]:
    """Train one network per depth under identical budgets; report accuracy.

    The trend is reported, not asserted: extra mixing stages usually help
    less and less once the output pattern is organized.
    """
    if not depths:
        raise ValueError("depths must be nonempty")
    if len(test_labels) == 0:
        raise ValueError("empty test dataset")
    table = []
    for depth in depths:
        net = random_init(grid, depth, [layer_distance] * depth, network_seed)
        result = train(
            net,
            train_images,
            train_labels,
            test_images,
            test_labels,
            layout,
            config,
            encode,
            log_fn=log_fn,
        )
        # train() always evaluates the test set after its last epoch
        table.append((depth, result.metrics.rows[-1].test_accuracy))
    return table
