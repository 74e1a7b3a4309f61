"""Correctness checks on the program's outputs.

Every check compares against an independent computation (``reference``)
or a property the method must have; none compares against stored
output. Each returns a list of failure messages, empty when it passes,
so the benchmark's tests can feed it a deliberately wrong output.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


# ----------------------------------------------------------------- infer


def scores_match(program: np.ndarray, independent: np.ndarray, rtol: float = 1e-9) -> list[str]:
    """Class scores agree with the independent model, per sample."""
    scale = np.abs(independent).max(axis=1, keepdims=True)
    err = float((np.abs(program - independent) / scale).max())
    return [] if err <= rtol else [f"class scores differ from the independent model by {err:.3g} (> {rtol:g})"]


def scores_within_power(scores: np.ndarray, input_power: np.ndarray) -> list[str]:
    """Disjoint detectors of a lossless stack collect at most the input power."""
    total = scores.sum(axis=1)
    worst = float((total / input_power).max())
    out = []
    if scores.min() < 0.0:
        out.append(f"negative class score {scores.min():.3g}")
    if worst > 1.0 + 1e-12:
        out.append(f"class scores sum to {worst:.15f} of the input power")
    return out


def confusion_consistent(accuracy: float, confusion: np.ndarray, n: int) -> list[str]:
    out = []
    if int(confusion.sum()) != n:
        out.append(f"confusion matrix sums to {int(confusion.sum())}, not {n} samples")
    if int(np.trace(confusion)) != round(accuracy * n):
        out.append(f"confusion trace {int(np.trace(confusion))} != accuracy x n = {accuracy * n:g}")
    return out


def confusion_matches(program: np.ndarray, labels: np.ndarray, independent_scores: np.ndarray) -> list[str]:
    """The confusion matrix equals the one the independent predictions give."""
    expected = np.zeros_like(program)
    np.add.at(expected, (labels.astype(np.int64), independent_scores.argmax(axis=1)), 1)
    bad = int(np.abs(program - expected).sum())
    return [] if bad == 0 else [f"confusion matrix differs from the independent model in {bad} counts"]


def gaussian_radius(measured: float, analytic: float, rtol: float = 2e-3) -> list[str]:
    err = abs(measured - analytic) / analytic
    return [] if err <= rtol else [f"Gaussian 1/e^2 radius off by {err:.3g} (> {rtol:g})"]


# ----------------------------------------------------------------- train


def loss_falls(losses: list[float]) -> list[str]:
    """The mean loss of the last quarter of units is below the first quarter's."""
    k = max(1, len(losses) // 4)
    first, last = float(np.mean(losses[:k])), float(np.mean(losses[-k:]))
    return [] if last < first else [f"loss did not fall: {first:.4f} -> {last:.4f}"]


def accuracy_floor(accuracy: float, floor: float) -> list[str]:
    return [] if accuracy >= floor else [f"held-out accuracy {accuracy:.4f} below {floor:g}"]


def gradient_matches(program: np.ndarray, finite_difference: np.ndarray, scale: float, rtol: float = 1e-5) -> list[str]:
    """Adjoint gradients at chosen pixels agree with central differences."""
    err = float(np.abs(program - finite_difference).max()) / scale
    return [] if err <= rtol else [f"gradient differs from finite differences by {err:.3g} of its scale (> {rtol:g})"]


# --------------------------------------------------------------- realize


def on_lattice(phase: np.ndarray, levels: int) -> list[str]:
    """Every realized phase is a multiple of 2 pi / levels."""
    k = phase / (TWO_PI / levels)
    off = float(np.abs(k - np.round(k)).max())
    return [] if off <= 1e-9 else [f"phase off the 2pi/{levels} lattice by {off:.3g} steps"]


def quantization_bound(max_err_q: float, max_err_unquantized: float, levels: int) -> list[str]:
    """Snapping moves a phase by at most pi/Q, so the error grows by at most that.

    The bound is exact up to one rounding of the sum (``1e-12`` rad).
    """
    bound = max_err_unquantized + np.pi / levels
    if max_err_q <= bound + 1e-12:
        return []
    return [f"max wrapped error {max_err_q:.6f} exceeds {max_err_unquantized:.6f} + pi/{levels}"]


def fringe_range(intensity: np.ndarray, a_obj: float, a_ref: float) -> list[str]:
    lo, hi = (a_obj - a_ref) ** 2, (a_obj + a_ref) ** 2
    tol = 1e-12 * hi
    if intensity.min() >= lo - tol and intensity.max() <= hi + tol:
        return []
    return [f"fringe intensity spans [{intensity.min():.6g}, {intensity.max():.6g}], outside [{lo:g}, {hi:g}]"]


def reloads_bit_exact(saved: list[np.ndarray], path, load) -> list[str]:
    """``load(path)`` gives back the saved phases bit for bit."""
    try:
        loaded = [layer.phase for layer in load(path).network.layers]
    except ValueError as exc:
        return [f"checkpoint did not reload: {exc}"]
    same = len(saved) == len(loaded) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(saved, loaded)
    )
    return [] if same else ["checkpoint did not reload bit-exactly"]
