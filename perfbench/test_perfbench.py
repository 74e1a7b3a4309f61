"""Tests of the benchmark itself: every workload end to end on tiny
inputs, and every correctness check failing on a deliberately wrong output.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import digits  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from donn import DEFAULT_GRID, dataio, hibl, propagation, random_init, training  # noqa: E402
from donn.readout import default_detector_layout  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_is_correct_and_reports_every_metric(name, trace):
    result = run_bench(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_digits_are_seeded():
    a, la = digits.make_digits(20, 5)
    b, lb = digits.make_digits(20, 5)
    c, _ = digits.make_digits(20, 6)
    assert a.tobytes() == b.tobytes() and la.tobytes() == lb.tobytes()
    assert a.tobytes() != c.tobytes()
    assert sorted(la) == sorted(list(range(10)) * 2)


def test_missing_binding_is_an_absent_layer(monkeypatch):
    import tracing

    monkeypatch.setitem(tracing.LAYERS, "encode", [("donn.training", "no_such_function")])
    assert "donn.training.no_such_function" in tracing.absent_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.calls["encode"] == 0


# ----------------------------------------------------- wrong outputs fail


@pytest.fixture(scope="module")
def small():
    grid = DEFAULT_GRID
    images, labels = digits.make_digits(40, 1)
    net = random_init(grid, 3, [0.01] * 3, seed=2)
    return grid, default_detector_layout(grid), net, images, labels


def model_of(net, phases=None):
    phases = [layer.phase for layer in net.layers] if phases is None else phases
    return reference.Model(phases, net.distances, net.grid.pitch, net.grid.wavelength)


def test_scores_check_fails_on_a_perturbed_phase(small):
    grid, layout, net, images, labels = small
    program, _ = workloads.evaluated_scores(net, images, labels, layout)
    assert checks.scores_match(program, model_of(net).scores(images, layout.regions)) == []
    phases = [layer.phase.copy() for layer in net.layers]
    phases[1][40:50, 40:50] += 1e-3  # a uniform offset would be an unobservable global phase
    assert checks.scores_match(program, model_of(net, phases).scores(images, layout.regions))


def test_power_check_fails_on_amplified_scores(small):
    grid, layout, net, images, labels = small
    program, _ = workloads.evaluated_scores(net, images, labels, layout)
    ones = np.ones(len(program))
    assert checks.scores_within_power(program, ones) == []
    bright = program / program.sum(axis=1, keepdims=True) * 1.001
    assert checks.scores_within_power(bright, ones)


def test_confusion_checks_fail_on_swapped_labels(small):
    grid, layout, net, images, labels = small
    accuracy, confusion = training.evaluate(net, images, labels, layout)
    independent = model_of(net).scores(images, layout.regions)
    assert checks.confusion_consistent(accuracy, confusion, len(labels)) == []
    assert checks.confusion_matches(confusion, labels, independent) == []
    swapped = (labels.astype(np.int64) + 1) % 10
    assert checks.confusion_matches(confusion, swapped, independent)
    _, wrong = training.evaluate(net, images, swapped, layout)
    assert checks.confusion_consistent(accuracy, wrong, len(labels))


def test_gaussian_check_fails_at_the_wrong_distance():
    measured, analytic = workloads.gaussian_radii(propagation.propagate_array)
    assert checks.gaussian_radius(measured, analytic) == []

    def too_far(values, tf):
        twice = propagation.transfer_function(tf.grid, 2 * tf.distance)
        return propagation.propagate_array(values, twice)

    assert checks.gaussian_radius(*workloads.gaussian_radii(too_far))


def test_train_checks_fail_on_wrong_outputs(small):
    grid, layout, net, images, labels = small
    assert checks.loss_falls([2.3, 2.0, 1.5, 1.2]) == []
    assert checks.loss_falls([2.3, 2.4, 2.5, 2.6])
    assert checks.accuracy_floor(0.1, workloads.ACCURACY_FLOOR)
    program, fd, scale = workloads.gradient_pairs(net, images[0], int(labels[0]), layout, seed=0)
    assert checks.gradient_matches(program, fd, scale) == []
    assert checks.gradient_matches(program * 1.001, fd, scale)
    assert checks.gradient_matches(program, fd[::-1], scale)


def test_realize_checks_fail_on_wrong_outputs(small, tmp_path):
    grid, layout, net, images, labels = small
    ref = hibl.recording_reference(grid)
    with workloads.observed(hibl, "encode_hologram") as holograms:
        quantized = hibl.realize_network(net, ref, hibl.FabricationModel(quant_levels=16))
    continuous = hibl.realize_network(net, ref, hibl.FabricationModel())
    phase = quantized.layers[0].phase
    assert checks.on_lattice(phase, 16) == []
    assert checks.on_lattice((phase + 0.01) % (2 * np.pi), 16)

    ideal = net.layers[0]
    err_q = hibl.fidelity_metrics(ideal, quantized.layers[0], ref).max_wrapped_error
    err_c = hibl.fidelity_metrics(ideal, continuous.layers[0], ref).max_wrapped_error
    assert checks.quantization_bound(err_q, err_c, 16) == []
    shifted = hibl.wrap_phase(quantized.layers[0].phase + 0.25)
    err_shifted = hibl.wrapped_difference(ideal.phase, shifted).max()
    assert checks.quantization_bound(err_shifted, err_c, 16)

    fringes = holograms[0].intensity
    assert checks.fringe_range(fringes, ref.object_amplitude, ref.reference_amplitude) == []
    assert checks.fringe_range(fringes * 1.01, ref.object_amplitude, ref.reference_amplitude)

    path = tmp_path / "realized.ckpt"
    dataio.save_checkpoint(dataio.Checkpoint("", quantized), path)
    phases = [layer.phase for layer in quantized.layers]
    assert checks.reloads_bit_exact(phases, path, dataio.load_checkpoint) == []
    path.write_bytes(path.read_bytes()[:-9])
    assert checks.reloads_bit_exact(phases, path, dataio.load_checkpoint)
