"""The depth-first engine against whole-batch references.

A pass hands each ``propagation.CHUNK_ROWS``-row chunk to one pool job,
which takes it through every stage. The references below run each stage
on the whole batch in one numpy call per step, as the engine did before
it worked depth first. They spell every complex product as
``np.multiply(a, b)``: for arrays of 256 KiB or more, numpy's temporary
elision evaluates ``a * f(b)`` as ``f(b) * a``, and the two orders can
differ in the last bit.
"""

import contextlib
import multiprocessing
import queue
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from donn import engine, propagation, training
from donn.fields import GridSpec, encode_batch
from donn.network import OpticalNetwork, random_init
from donn.propagation import adjoint_propagate_array, propagate_array, transfer_function
from donn.readout import (
    DegenerateScoresError,
    DetectorLayout,
    batch_class_scores,
    default_detector_layout,
    softmax_cross_entropy,
)
from synthdigits import make_dataset

AXES = (-2, -1)


def ref_apply_phase(field, phase, sign):
    phasor = np.exp(1j * sign * phase)
    if phase.ndim == 2:
        return np.multiply(field, phasor)
    return np.multiply(phasor, field)


def ref_intensity(field):
    return np.add(np.square(field.real), np.square(field.imag))


def ref_phase_gradient(post, adjoint):
    return -2.0 * np.multiply(np.conj(adjoint), post).imag.sum(axis=0)


def ref_sandwich(values, multiplier):
    spectrum = np.multiply(scipy.fft.fft2(values, axes=AXES), multiplier)
    return scipy.fft.ifft2(spectrum, axes=AXES)


def ref_train_step(net, values, labels, layout, noise_sigma, rng):
    """Loss, gradients, scores and detector intensities, one whole-batch stage at a time."""
    grid, b = net.grid, len(values)
    u, post, eff = values, [], []
    if net.input_distance > 0:
        u = ref_sandwich(u, transfer_function(grid, net.input_distance).values)
    for layer, d in zip(net.layers, net.distances):
        phase = layer.phase
        if noise_sigma > 0:
            phase = phase[None] + noise_sigma * rng.standard_normal(u.shape)
        u = ref_apply_phase(u, phase, 1.0)
        post.append(u)
        eff.append(phase)
        u = ref_sandwich(u, transfer_function(grid, d).values)
    power = ref_intensity(u)
    scores = batch_class_scores(power, layout)
    losses, dl_ds = softmax_cross_entropy(scores, labels, 0.1, True)
    sensitivity = np.zeros(u.shape)
    for c, (x0, y0, x1, y1) in enumerate(layout.regions):
        sensitivity[:, y0 : y1 + 1, x0 : x1 + 1] = dl_ds[:, c, None, None]
    adjoint = np.multiply(sensitivity, u)
    grads = [None] * net.depth
    for l in range(net.depth - 1, -1, -1):
        adjoint = ref_sandwich(adjoint, transfer_function(grid, net.distances[l]).conjugate)
        grads[l] = ref_phase_gradient(post[l], adjoint) / b
        if l > 0:
            adjoint = ref_apply_phase(adjoint, eff[l], -1.0)
    return float(losses.mean()), grads, scores, power


@contextlib.contextmanager
def engine_threads(n):
    """Run the stages on ``n`` pool threads (``None``: serially in the caller)."""
    saved = propagation._POOL, propagation.FFT_WORKERS
    pool = None if n is None else ThreadPoolExecutor(n)
    propagation._POOL, propagation.FFT_WORKERS = pool, n or 1
    try:
        yield
    finally:
        propagation._POOL, propagation.FFT_WORKERS = saved
        if pool is not None:
            pool.shutdown()


def complex_stack(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def modulated(field, phase, sign, out=None):
    """``engine.modulate`` as a pass calls it for a shared or a per-sample mask."""
    mask = np.exp(1j * sign * phase) if phase.ndim == 2 else phase
    out = np.empty(field.shape, complex) if out is None else out
    return engine.modulate(field, mask, sign, out, np.empty(field.shape, complex))


@settings(max_examples=40, deadline=None)
@given(
    batch=st.integers(1, 40),
    ny=st.integers(3, 24),
    nx=st.integers(3, 24),
    input_distance=st.sampled_from([0.0, 5e-6]),
    noise_sigma=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunked_stages_match_whole_batch_bytes(batch, ny, nx, input_distance, noise_sigma, seed):
    # one to three chunks, the last one ragged, on odd and even grids
    rng = np.random.default_rng(seed)
    shape = (batch, ny, nx)
    field = complex_stack(rng, shape)
    mask = rng.uniform(0, 2 * np.pi, (ny, nx))
    per_sample = rng.uniform(0, 2 * np.pi, shape)
    grid = GridSpec(nx, ny, 1e-6, 0.8e-6)
    tf = transfer_function(grid, 17e-6)
    net = random_init(grid, 2, [17e-6, 11e-6], seed % 1000)
    net = OpticalNetwork(grid, net.layers, net.distances, input_distance)
    layout = DetectorLayout(grid, ((0, 0, nx - 1, 0), (0, 1, nx - 1, ny - 1)))
    labels = rng.integers(0, 2, batch)
    before = field.copy()
    loss, grads, scores, power = ref_train_step(
        net, field, labels, layout, noise_sigma, np.random.default_rng(seed)
    )
    for threads in (2, None):
        with engine_threads(threads):
            for phase in (mask, per_sample):
                for sign in (1.0, -1.0):
                    expected = ref_apply_phase(field, phase, sign)
                    assert np.array_equal(modulated(field, phase, sign), expected)
                    aliased = field.copy()
                    assert modulated(aliased, phase, sign, out=aliased) is aliased
                    assert np.array_equal(aliased, expected)
            measured = engine.intensity(field, np.empty(shape), np.empty(shape))
            assert np.array_equal(measured, ref_intensity(field))
            for op, multiplier in (
                (propagate_array, tf.values),
                (adjoint_propagate_array, tf.conjugate),
            ):
                expected = ref_sandwich(field, multiplier)
                assert np.array_equal(op(field, tf), expected)
                aliased = field.copy()
                assert op(aliased, tf, out=aliased) is aliased
                assert np.array_equal(aliased, expected)
            got = engine.train_pass(
                net, field, labels, layout, 0.1, True, noise_sigma, np.random.default_rng(seed)
            )
            assert np.float64(got[0]).tobytes() == np.float64(loss).tobytes()
            for g, r in zip(got[1], grads):
                assert g.tobytes() == r.tobytes()
            assert got[2].tobytes() == scores.tobytes()
            if noise_sigma == 0:
                assert engine.eval_pass(net, field).tobytes() == power.tobytes()
            assert np.array_equal(field, before)


def test_pool_and_serial_train_step_identical():
    # 40 samples: three chunks, the last ragged; noise exercises per-sample masks
    grid = GridSpec(91, 91, 8e-6, 532e-9)
    net = random_init(grid, 3, [0.01] * 3, 1)
    layout = default_detector_layout(grid)
    images, labels = make_dataset(40, 2)
    values = encode_batch(images / 255.0, grid, training.DEFAULT_ENCODE)
    before = values.copy()
    results = []
    for threads in (2, None):
        with engine_threads(threads):
            loss, grads, scores = engine.train_pass(
                net, values, labels, layout, 0.1, True,
                noise_sigma=0.1, noise_rng=np.random.default_rng(5),
            )
            power = engine.eval_pass(net, images / 255.0, training.DEFAULT_ENCODE)
        results.append((np.float64(loss), *grads, scores, power))
    for pooled, serial in zip(*results):
        assert pooled.tobytes() == serial.tobytes()
    # a pass writes only into arrays it made itself
    assert np.array_equal(values, before)


def test_stages_and_scores_run_once_per_batch_on_calling_thread(monkeypatch):
    # perfbench's tracer wraps names in donn.training with an unlocked span
    # stack, and its infer check reads each batch's scores from
    # training.batch_class_scores: no pool job may call into donn.training
    grid = GridSpec(91, 91, 8e-6, 532e-9)
    net = random_init(grid, 2, [0.01] * 2, 3)
    layout = default_detector_layout(grid)
    images, labels = make_dataset(70, 4)
    calls, scores = [], []

    def spy(name, original):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            result = original(*args, **kwargs)
            if name == "batch_class_scores":
                scores.append(result)
            return result

        monkeypatch.setattr(training, name, wrapper)

    for name, value in list(vars(training).items()):
        if isinstance(value, types.FunctionType):
            spy(name, value)
    config = training.TrainConfig(epochs=1, batch_size=32, seed=0, phase_noise_sigma=0.1)
    with engine_threads(2):
        trained = training.train(net, images, labels, None, None, layout, config).network
        assert [name for name, _ in calls].count("adam_step") == 3
        calls.clear()
        training.evaluate(trained, images, labels, layout, batch_size=32)
        whole = engine.eval_pass(trained, images / 255.0, training.DEFAULT_ENCODE)
    assert {ident for _, ident in calls} == {threading.get_ident()}
    # three batches, each scored once, in order
    assert [name for name, _ in calls].count("batch_class_scores") == 3
    assert np.concatenate(scores).tobytes() == batch_class_scores(whole, layout).tobytes()


def test_stage_clock_changes_no_bytes_and_counts_transforms():
    grid = GridSpec(91, 91, 8e-6, 532e-9)
    net = random_init(grid, 3, [0.01] * 3, 6)
    layout = default_detector_layout(grid)
    images, labels = make_dataset(40, 8)
    config = training.TrainConfig(epochs=1, batch_size=40, seed=0, phase_noise_sigma=0.1)
    stages = {"setup", "encode", "modulate", "propagate", "detect", "loss", "adjoint", "phase_grad"}
    for threads in (2, None):
        with engine_threads(threads):
            runs = []
            for clock in (None, engine.StageClock()):
                result = training.train(net, images, labels, None, None, layout, config, clock=clock)
                runs.append([np.float64(result.metrics.rows[0].loss)] + [l.phase for l in result.network.layers])
            for plain, timed in zip(*runs):
                assert plain.tobytes() == timed.tobytes()
            assert clock["transforms"] == 12 * len(images)
            assert stages <= set(clock) and all(clock[s] >= 0 for s in stages)
            clock = engine.StageClock()
            timed = engine.eval_pass(net, images / 255.0, training.DEFAULT_ENCODE, clock)
            assert timed.tobytes() == engine.eval_pass(net, images / 255.0, training.DEFAULT_ENCODE).tobytes()
            assert clock["transforms"] == 6 * len(images)
            clock = engine.StageClock()
            training.evaluate(net, images, labels, layout, clock=clock)
            assert clock["transforms"] == 6 * len(images)


def test_batch_errors_name_the_sample_in_the_batch():
    # the bad sample sits in the second chunk; its index counts from the batch
    grid = GridSpec(91, 91, 8e-6, 532e-9)
    net = random_init(grid, 1, [0.01], 0)
    layout = default_detector_layout(grid)
    images, labels = make_dataset(24, 1)
    images = images / 255.0
    blank = images.copy()
    blank[20] = 0.0
    with engine_threads(2):
        with pytest.raises(ValueError, match="zero total power in sample 20"):
            engine.train_pass(net, blank, labels, layout, 0.1, True, encode=training.DEFAULT_ENCODE)
        with pytest.raises(ValueError, match="zero total power in sample 20"):
            training.evaluate(net, blank, labels, layout)
        bad = labels.astype(np.int64)
        bad[20] = 10
        with pytest.raises(IndexError, match="of sample 20 out of range"):
            engine.train_pass(net, images, bad, layout, 0.1, True, encode=training.DEFAULT_ENCODE)


def _train_pass_with_a_dark_chunk(results):
    grid = GridSpec(91, 91, 8e-6, 532e-9)
    net = random_init(grid, 2, [0.01] * 2, 4)
    images, labels = make_dataset(96, 6)
    values = encode_batch(images / 255.0, grid, training.DEFAULT_ENCODE)
    values[20] = 0.0  # no light reaches a detector: chunk 1 raises
    with engine_threads(2):
        try:
            engine.train_pass(net, values, labels, default_detector_layout(grid), 0.1, True)
            results.put("returned")
        except DegenerateScoresError as error:
            results.put(f"raised {type(error).__name__}")


def test_failing_chunk_surfaces_and_holds_up_no_other():
    # Six chunks on two jobs: chunk 1 fails, so its job never runs chunks 3
    # and 5, whose turn to add gradient rows chunk 4 would wait for. The pass
    # runs in a forked child so that a hang fails the test instead of the suite.
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    child = ctx.Process(target=_train_pass_with_a_dark_chunk, args=(results,))
    child.start()
    try:
        outcome = results.get(timeout=60)
    except queue.Empty:
        outcome = "hung"
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert outcome == "raised DegenerateScoresError"


def _ones_through_pool():
    out = np.zeros((48, 5, 5))
    propagation.map_chunks(lambda rows, *_: out[rows].fill(1.0), out.shape)
    return float(out.sum())


def _stage_in_child(queue):
    queue.put(_ones_through_pool())


def test_forked_child_gets_its_own_pool():
    # a child forked after the pool ran inherits none of its threads
    with engine_threads(2):
        _ones_through_pool()
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_stage_in_child, args=(queue,))
        child.start()
        try:
            total = queue.get(timeout=60)
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
    assert total == 48 * 25
    assert child.exitcode == 0
