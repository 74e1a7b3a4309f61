"""The chunked engine stages against whole-batch references.

Each stage splits its batch into ``propagation.CHUNK_ROWS``-row chunks
and runs them on the propagation thread pool. The references below do
the same arithmetic on the whole batch in one numpy call per step. They
spell every complex product as ``np.multiply(a, b)``: for arrays of
256 KiB or more, numpy's temporary elision evaluates ``a * f(b)`` as
``f(b) * a``, and the two orders can differ in the last bit.
"""

import contextlib
import multiprocessing
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.fft
from hypothesis import given, settings, strategies as st

from donn import kernels, propagation, training
from donn.fields import GridSpec
from donn.network import random_init
from donn.propagation import adjoint_propagate_array, propagate_array, transfer_function
from donn.readout import default_detector_layout
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


@settings(max_examples=40, deadline=None)
@given(
    batch=st.integers(1, 40),
    ny=st.integers(3, 24),
    nx=st.integers(3, 24),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunked_stages_match_whole_batch_bytes(batch, ny, nx, seed):
    # one to three chunks, the last one ragged, on odd and even grids
    rng = np.random.default_rng(seed)
    shape = (batch, ny, nx)
    field = complex_stack(rng, shape)
    other = complex_stack(rng, shape)
    mask = rng.uniform(0, 2 * np.pi, (ny, nx))
    per_sample = rng.uniform(0, 2 * np.pi, shape)
    tf = transfer_function(GridSpec(nx, ny, 1e-6, 0.8e-6), 17e-6)
    before = field.copy()
    for threads in (2, None):
        with engine_threads(threads):
            for phase in (mask, per_sample):
                for sign in (1.0, -1.0):
                    expected = ref_apply_phase(field, phase, sign)
                    assert np.array_equal(kernels.apply_phase(field, phase, sign), expected)
                    aliased = field.copy()
                    assert kernels.apply_phase(aliased, phase, sign, out=aliased) is aliased
                    assert np.array_equal(aliased, expected)
            assert np.array_equal(kernels.intensity(field), ref_intensity(field))
            assert np.array_equal(
                kernels.phase_gradient(field, other), ref_phase_gradient(field, other)
            )
            for op, multiplier in (
                (propagate_array, tf.values),
                (adjoint_propagate_array, tf.conjugate),
            ):
                expected = ref_sandwich(field, multiplier)
                assert np.array_equal(op(field, tf), expected)
                aliased = field.copy()
                assert op(aliased, tf, out=aliased) is aliased
                assert np.array_equal(aliased, expected)
            assert np.array_equal(field, before)


def test_pool_and_serial_train_step_identical():
    # 40 samples: three chunks, the last ragged; noise exercises per-sample masks
    grid = GridSpec(91, 91, 8e-6, 532e-9)
    net = random_init(grid, 3, [0.01] * 3, 1)
    layout = default_detector_layout(grid)
    images, labels = make_dataset(40, 2)
    values = training.encode_batch(images / 255.0, grid, training.DEFAULT_ENCODE)
    before = values.copy()
    results = []
    for threads in (2, None):
        with engine_threads(threads):
            loss, grads, scores = training._loss_and_gradients_batch(
                net, values, labels, layout, 0.1, True,
                noise_sigma=0.1, noise_rng=np.random.default_rng(5),
            )
        results.append((np.float64(loss), *grads, scores))
    for pooled, serial in zip(*results):
        assert pooled.tobytes() == serial.tobytes()
    # the stages write in place only into stacks the step made itself
    assert np.array_equal(values, before)


def test_stages_and_scores_run_once_per_batch_on_calling_thread(monkeypatch):
    grid = GridSpec(91, 91, 8e-6, 532e-9)
    net = random_init(grid, 2, [0.01] * 2, 3)
    layout = default_detector_layout(grid)
    images, labels = make_dataset(70, 4)
    calls = []

    def spy(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in (
        (training, "batch_class_scores"),
        (training, "propagate_array"),
        (kernels, "apply_phase"),
        (kernels, "intensity"),
    ):
        spy(module, name)
    with engine_threads(2):
        training.evaluate(net, images, labels, layout, batch_size=32)
    me = threading.get_ident()
    assert {ident for _, ident in calls} == {me}
    names = [name for name, _ in calls]
    # three batches, two layers each
    assert names.count("batch_class_scores") == 3
    assert names.count("intensity") == 3
    assert names.count("apply_phase") == 6
    assert names.count("propagate_array") == 6


def _stage_in_child(queue):
    queue.put(float(kernels.intensity(np.ones((48, 5, 5), complex)).sum()))


def test_forked_child_gets_its_own_pool():
    # a child forked after the pool ran inherits none of its threads
    with engine_threads(2):
        kernels.intensity(np.ones((48, 5, 5), complex))
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
