"""The benchmark's three workloads: set-up, timed unit and output checks.

Each workload drives the public ``donn`` API the way a user does, on the
package's default geometry: three 91x91 phase layers, 8 um pitch,
532 nm, 1 cm apart. Modules are called through their attributes
(``training.evaluate``, not a name imported from it) so that the tracer's
spans and the checks' observers see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
from pathlib import Path

import numpy as np

import checks
import reference
from donn import DEFAULT_GRID, EncodeSpec, config, dataio, encode_input, hibl, propagation, random_init, training
from donn.readout import default_detector_layout

LAYER_DISTANCE = 0.01  # metres between layers, the package default
LAYERS = 3
QUANT_LEVELS = 16
ACCURACY_FLOOR = 0.5  # ten classes: chance is 0.1
BATCH = 128  # training batch
EVAL_BATCH = 256


@contextlib.contextmanager
def observed(module, attr: str):
    """Record every value ``module.attr`` returns while the block runs."""
    original = getattr(module, attr)
    seen = []

    def spy(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    setattr(module, attr, spy)
    try:
        yield seen
    finally:
        setattr(module, attr, original)


def evaluated_scores(net, images, labels, layout):
    """Class scores as ``training.evaluate`` computes them, and its confusion."""
    with observed(training, "batch_class_scores") as scores:
        _, confusion = training.evaluate(net, images, labels, layout)
    return np.concatenate(scores), confusion


def gradient_pairs(net, image, label: int, layout, seed: int):
    """``loss_and_gradients`` against central differences of the independent loss.

    Takes the largest-gradient pixel and one seeded random pixel near the
    centre of each layer. Returns the program's gradients there, the
    finite differences, and the largest gradient magnitude as the scale.
    """
    field = encode_input(image / 255.0, net.grid, EncodeSpec(upsample=3))
    _, grads = training.loss_and_gradients(net, field, label, layout)
    phases = [layer.phase for layer in net.layers]
    rng = np.random.default_rng(seed)
    program, fd, h = [], [], 1e-5
    for k, g in enumerate(grads):
        for pix in (np.unravel_index(np.abs(g).argmax(), g.shape), tuple(rng.integers(30, 61, size=2))):
            losses = []
            for step in (h, -h):
                shifted = [p.copy() for p in phases]
                shifted[k][pix] += step
                model = reference.Model(shifted, net.distances, net.grid.pitch, net.grid.wavelength)
                losses.append(model.loss(image, label, layout.regions))
            program.append(g[pix])
            fd.append((losses[0] - losses[1]) / (2 * h))
    return np.array(program), np.array(fd), max(float(np.abs(g).max()) for g in grads)


def gaussian_radii(propagate_array) -> tuple[float, float]:
    """A Gaussian beam's 1/e^2 radius after one layer spacing, and w0 sqrt(1 + (z/zR)^2)."""
    grid, z = DEFAULT_GRID, LAYER_DISTANCE
    w0 = 8 * grid.pitch
    y, x = (np.indices(grid.shape) - grid.nx // 2) * grid.pitch
    beam = np.exp(-(x**2 + y**2) / w0**2).astype(np.complex128)[None]
    out = propagate_array(beam, propagation.cached_transfer_function(grid, z))[0]
    z_r = np.pi * w0**2 / grid.wavelength
    return reference.beam_radius(np.abs(out) ** 2, grid.pitch), w0 * np.sqrt(1 + (z / z_r) ** 2)


class Workload:
    """Set-up, timed unit and checks of one workload.

    ``data`` maps split names to ``donn.dataio.Dataset``; ``unit_items``
    is how many samples (or realize cycles) one timed unit processes.
    ``probe`` is the host probe's stack shape and its typical time on
    the host the benchmark was defined on (see ``measure.HostProbe``):
    a training batch, except for ``infer``, whose 34 MB evaluation
    batches are mapped and page-faulted afresh on every allocation.
    """

    name = ""
    unit_items = 1
    probe: tuple[tuple[int, int, int], float]

    def __init__(self, seed: int, data: dict, work_dir: Path):
        self.seed = seed
        self.data = data
        self.work = work_dir
        self.report = {}

    def build(self):
        self.grid = DEFAULT_GRID
        self.layout = default_detector_layout(self.grid)
        self.net = random_init(self.grid, LAYERS, [LAYER_DISTANCE] * LAYERS, self.seed)
        propagation.cached_transfer_function(self.grid, LAYER_DISTANCE)

    def train_briefly(self):
        """One epoch over the ``brief`` split."""
        ds = self.data["brief"]
        config_ = training.TrainConfig(epochs=1, batch_size=BATCH, seed=self.seed)
        return training.train(self.net, ds.images, ds.labels, None, None, self.layout, config_)

    def prepare(self):
        """Untimed work between the warm-up unit and the timed units."""

    def unit(self, i: int):
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError


class Train(Workload):
    """``training.train`` resumed unit after unit, two batches per unit."""

    name = "train"
    unit_items = 2 * BATCH
    probe = ((BATCH, 91, 91), 0.065)

    def build(self):
        super().build()
        self.state = None
        self.losses = []

    def unit(self, i: int):
        ds = self.data["train"]
        lo = i * self.unit_items % len(ds)
        config_ = training.TrainConfig(epochs=1, batch_size=BATCH, seed=self.seed + i)
        result = training.train(
            self.net, ds.images[lo : lo + self.unit_items], ds.labels[lo : lo + self.unit_items],
            None, None, self.layout, config_, initial_state=self.state,
        )
        self.net, self.state = result.network, result.optimizer_state
        self.losses.append(result.metrics.rows[-1].loss)

    def check(self) -> list[str]:
        held = self.data["heldout"]
        accuracy, _ = training.evaluate(self.net, held.images, held.labels, self.layout)
        failures = checks.loss_falls(self.losses) + checks.accuracy_floor(accuracy, ACCURACY_FLOOR)
        program, fd, scale = gradient_pairs(self.net, held.images[0], int(held.labels[0]), self.layout, self.seed)
        failures += checks.gradient_matches(program, fd, scale)
        self.report = {"heldout_accuracy": accuracy, "first_loss": self.losses[0], "last_loss": self.losses[-1]}
        return failures


class Infer(Workload):
    """``training.evaluate`` over the whole ``infer`` split per unit."""

    name = "infer"
    probe = ((EVAL_BATCH, 91, 91), 0.13)

    def build(self):
        super().build()
        self.unit_items = len(self.data["infer"])
        self.outputs = []

    def prepare(self):
        self.net = self.train_briefly().network
        self.outputs = []

    def unit(self, i: int):
        ds = self.data["infer"]
        self.outputs.append(training.evaluate(self.net, ds.images, ds.labels, self.layout, batch_size=EVAL_BATCH))

    def check(self) -> list[str]:
        ds = self.data["infer"]
        accuracy, confusion = self.outputs[0]
        failures = checks.confusion_consistent(accuracy, confusion, len(ds))
        if any(a != accuracy or not np.array_equal(c, confusion) for a, c in self.outputs):
            failures.append("evaluate gave different results on identical passes")

        sample = slice(0, 64)
        program, confusion = evaluated_scores(self.net, ds.images[sample], ds.labels[sample], self.layout)
        model = reference.Model(
            [layer.phase for layer in self.net.layers], self.net.distances, self.grid.pitch, self.grid.wavelength
        )
        independent = model.scores(ds.images[sample], self.layout.regions)
        failures += checks.scores_match(program, independent)
        failures += checks.scores_within_power(program, np.ones(len(program)))
        failures += checks.confusion_matches(confusion, ds.labels[sample], independent)
        failures += checks.gaussian_radius(*gaussian_radii(propagation.propagate_array))
        self.report = {"accuracy": accuracy}
        return failures


class Realize(Workload):
    """``donn realize`` through the library: load, realize, save, fidelity."""

    name = "realize"
    probe = ((BATCH, 91, 91), 0.065)

    def build(self):
        super().build()
        self.config_text = config.parse_config(f"hibl.quant_levels = {QUANT_LEVELS}\n").to_text()
        self.source = self.work / "model.ckpt"
        self.target = self.work / "realized.ckpt"
        dataio.save_checkpoint(dataio.Checkpoint(self.config_text, self.net), self.source)

    def prepare(self):
        result = self.train_briefly()
        self.net = result.network
        dataio.save_checkpoint(
            dataio.Checkpoint(self.config_text, result.network, result.epoch, result.optimizer_state),
            self.source,
        )

    def unit(self, i: int):
        ckpt = dataio.load_checkpoint(self.source)
        cfg = config.parse_config(ckpt.config_text)
        ref = cfg.reference_spec
        realized = hibl.realize_network(
            ckpt.network, ref, cfg.fabrication_model,
            record_upsample=cfg["hibl.record_upsample"], window_radius=cfg["hibl.window_radius"] or None,
        )
        dataio.save_checkpoint(dataio.Checkpoint(ckpt.config_text, realized, ckpt.epoch, None), self.target)
        self.fidelity = [hibl.fidelity_metrics(a, b, ref) for a, b in zip(ckpt.network.layers, realized.layers)]
        self.realized = realized

    def check(self) -> list[str]:
        with observed(hibl, "encode_hologram") as holograms:
            self.unit(-1)
        cfg = config.parse_config(self.config_text)
        ref = cfg.reference_spec
        failures = []
        for holo in holograms:
            failures += checks.fringe_range(holo.intensity, ref.object_amplitude, ref.reference_amplitude)

        realized = [layer.phase for layer in self.realized.layers]
        failures += checks.reloads_bit_exact(realized, self.target, dataio.load_checkpoint)
        ideal = dataio.load_checkpoint(self.source).network
        continuous = hibl.realize_network(
            ideal, ref, dataclasses.replace(cfg.fabrication_model, quant_levels=None),
            record_upsample=cfg["hibl.record_upsample"],
        )
        for k, phase in enumerate(realized):
            failures += checks.on_lattice(phase, QUANT_LEVELS)
            unquantized = hibl.fidelity_metrics(ideal.layers[k], continuous.layers[k], ref)
            failures += checks.quantization_bound(
                self.fidelity[k].max_wrapped_error, unquantized.max_wrapped_error, QUANT_LEVELS
            )
        self.report = {
            "max_wrapped_error": [round(f.max_wrapped_error, 4) for f in self.fidelity],
            "wrapped_rmse": [round(f.wrapped_rmse, 4) for f in self.fidelity],
        }
        return failures


WORKLOADS = {w.name: w for w in (Train, Infer, Realize)}
