"""Detector layouts, class scores, and the loss head.

The only nonlinearity in the whole pipeline is photodetection: measured
intensity is ``|U|**2``. A class score is the intensity integrated over
that class's detector region, the decision is the argmax, and training
uses a softmax cross-entropy on (optionally sum-normalized) scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import GridSpec

Rect = tuple[int, int, int, int]


@dataclass(frozen=True)
class DetectorLayout:
    """Disjoint axis-aligned detector regions, one per class.

    Each region is ``(x0, y0, x1, y1)`` in pixel coordinates with
    inclusive bounds. Regions must be nonempty, inside the grid, and
    pairwise disjoint; they need not cover the plane.
    """

    grid: GridSpec
    regions: tuple[Rect, ...]

    def __post_init__(self):
        regions = tuple(tuple(int(v) for v in r) for r in self.regions)
        if not regions:
            raise ValueError("layout needs at least one region")
        cover = np.zeros(self.grid.shape, dtype=np.uint8)
        for i, (x0, y0, x1, y1) in enumerate(regions):
            if x0 > x1 or y0 > y1:
                raise ValueError(f"region {i} is empty: {(x0, y0, x1, y1)}")
            if x0 < 0 or y0 < 0 or x1 >= self.grid.nx or y1 >= self.grid.ny:
                raise ValueError(f"region {i} lies outside the grid")
            cover[y0 : y1 + 1, x0 : x1 + 1] += 1
        if cover.max() > 1:
            raise ValueError("detector regions overlap")
        object.__setattr__(self, "regions", regions)

    @property
    def n_classes(self) -> int:
        return len(self.regions)


def default_detector_layout(grid: GridSpec) -> DetectorLayout:
    """Equal-area detector regions in a 2 x 5 block, centered in the grid.

    On the default 91 x 91 grid this gives ten 9 x 9 regions with 9-pixel
    gaps; other grid sizes scale the region size proportionally. Class
    indices run row-major, 0-4 on the top row.
    """
    side = max(1, round(9 * min(grid.nx, grid.ny) / 91))
    gap = side
    span_x = 5 * side + 4 * gap
    span_y = 2 * side + gap
    if span_x > grid.nx or span_y > grid.ny:
        raise ValueError(f"grid {grid.nx}x{grid.ny} too small for the default layout")
    x_start = (grid.nx - span_x) // 2
    y_start = (grid.ny - span_y) // 2
    regions = []
    for row in range(2):
        y0 = y_start + row * (side + gap)
        for col in range(5):
            x0 = x_start + col * (side + gap)
            regions.append((x0, y0, x0 + side - 1, y0 + side - 1))
    return DetectorLayout(grid, tuple(regions))


def batch_class_scores(intensity: np.ndarray, layout: DetectorLayout) -> np.ndarray:
    """Sum a stack of intensity maps over each detector region.

    Returns shape (batch, classes). Scores are nonnegative, and because
    regions are disjoint they never sum to more than a map's total power.
    """
    if intensity.shape[1:] != layout.grid.shape:
        raise ValueError(
            f"intensity shape {intensity.shape} does not match "
            f"layout grid {layout.grid.shape}"
        )
    return np.stack(
        [
            intensity[:, y0 : y1 + 1, x0 : x1 + 1].sum(axis=(1, 2))
            for (x0, y0, x1, y1) in layout.regions
        ],
        axis=1,
    )


class DegenerateScoresError(ValueError):
    """All detector regions received zero energy; the loss is undefined."""


def check_labels(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Raise IndexError naming the first label outside [0, n_classes)."""
    labels = np.asarray(labels)
    bad = np.flatnonzero((labels < 0) | (labels >= n_classes))
    if bad.size:
        raise IndexError(f"label {labels[bad[0]]} of sample {bad[0]} out of range for {n_classes} classes")
    return labels


def softmax_cross_entropy(
    scores: np.ndarray,
    labels: np.ndarray,
    temperature: float = 0.1,
    normalize: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample cross-entropy on detector scores, with its exact gradient.

    ``scores`` has shape (batch, classes) and ``labels`` shape (batch,).
    With ``normalize`` set (the default), each row of scores is first
    divided by its sum so the loss is invariant to overall input power,
    then scaled by ``1/temperature`` and passed through a softmax:
    ``loss = -log softmax(s / sum(s) / T)[label]``. The returned gradient,
    shape (batch, classes), is the exact derivative of each row's loss
    with respect to its raw scores, including the normalization term,
    which is what downstream chain rules and finite differences see.
    Without normalization the gradient is the plain
    ``(softmax - onehot) / T``, whose rows sum to zero.

    Raises:
        IndexError: a label outside [0, n_classes).
        ValueError: non-positive temperature.
        DegenerateScoresError: normalization requested but all scores of
            a sample are zero (no energy reached any detector).
    """
    b, n = scores.shape
    labels = check_labels(labels, n)
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    rows = np.arange(b)
    if normalize:
        totals = scores.sum(axis=1)
        if np.any(totals <= 0.0):
            raise DegenerateScoresError(
                "degenerate scores: no detector region received energy"
            )
        s_hat = scores / totals[:, None]
    else:
        s_hat = scores
    z = s_hat / temperature
    z = z - z.max(axis=1, keepdims=True)  # shift-invariant, avoids overflow
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    losses = -np.log(p[rows, labels])
    grad = p.copy()
    grad[rows, labels] -= 1.0
    grad /= temperature
    if normalize:
        # d(s/total)/ds picks up the projection along the score vector
        grad = (grad - np.einsum("bc,bc->b", grad, s_hat)[:, None]) / totals[:, None]
    return losses, grad
