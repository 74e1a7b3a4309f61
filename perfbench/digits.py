"""Seeded synthetic handwritten-style digits, written as IDX files.

The benchmark owns this generator so that its inputs change only when the
benchmark changes. Each glyph is a set of strokes in a unit box: a
polyline through control points, or an elliptic arc. A seeded affine
jitter (rotation, shear, scale, shift), a seeded stroke width and
contrast, and a faint seeded background make every sample distinct. The
strokes are rasterised to 28x28 uint8 through a distance field.

The same ``(count, seed)`` always gives the same bytes.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

SIDE = 28


def _arc(cx, cy, rx, ry, start_deg, stop_deg, points=20):
    t = np.radians(np.linspace(start_deg, stop_deg, points))
    return np.column_stack([cx + rx * np.cos(t), cy + ry * np.sin(t)])


def _poly(*xy):
    return np.array(xy, dtype=np.float64).reshape(-1, 2)


# Strokes per class in a unit box, x to the right and y downward.
GLYPHS = {
    0: [_arc(0.5, 0.5, 0.25, 0.36, 0, 360, 36)],
    1: [_poly(0.35, 0.28, 0.55, 0.12, 0.55, 0.88)],
    2: [_arc(0.5, 0.34, 0.24, 0.2, 185, 345, 16), _poly(0.73, 0.41, 0.27, 0.86, 0.77, 0.86)],
    3: [_arc(0.48, 0.32, 0.24, 0.19, -145, 95, 18), _arc(0.48, 0.68, 0.26, 0.21, -95, 145, 18)],
    4: [_poly(0.6, 0.12, 0.22, 0.6, 0.8, 0.6), _poly(0.62, 0.35, 0.62, 0.9)],
    5: [_poly(0.73, 0.14, 0.31, 0.14, 0.28, 0.46), _arc(0.48, 0.65, 0.26, 0.22, -120, 135, 18)],
    6: [_poly(0.63, 0.12, 0.39, 0.5), _arc(0.5, 0.66, 0.22, 0.2, 0, 360, 28)],
    7: [_poly(0.23, 0.15, 0.77, 0.15, 0.41, 0.88)],
    8: [_arc(0.5, 0.31, 0.19, 0.17, 0, 360, 24), _arc(0.5, 0.67, 0.23, 0.2, 0, 360, 28)],
    9: [_arc(0.5, 0.34, 0.21, 0.19, 0, 360, 26), _poly(0.7, 0.42, 0.57, 0.88)],
}

# Segment endpoints per class, stacked once: (segments, 2) each.
_SEGMENTS = {
    d: (
        np.concatenate([s[:-1] for s in strokes]),
        np.concatenate([s[1:] for s in strokes]),
    )
    for d, strokes in GLYPHS.items()
}

_CENTERS = (np.indices((SIDE, SIDE))[::-1].reshape(2, -1).T + 0.5) / SIDE


def render(digit: int, rng: np.random.Generator) -> np.ndarray:
    """One jittered 28x28 uint8 image of ``digit``."""
    angle = rng.uniform(-0.25, 0.25)
    shear = rng.uniform(-0.15, 0.15)
    scale = rng.uniform(0.8, 1.1, size=2)
    shift = rng.uniform(-0.07, 0.07, size=2)
    width = rng.uniform(0.05, 0.09)
    contrast = rng.uniform(0.7, 1.0)
    c, s = np.cos(angle), np.sin(angle)
    affine = np.array([[c, -s], [s, c]]) @ np.array([[1.0, shear], [0.0, 1.0]]) * scale

    a, b = _SEGMENTS[digit]
    a = (a - 0.5) @ affine.T + 0.5 + shift
    b = (b - 0.5) @ affine.T + 0.5 + shift
    ab = b - a
    length2 = np.maximum(np.einsum("sk,sk->s", ab, ab), 1e-12)
    ap = _CENTERS[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("psk,sk->ps", ap, ab) / length2, 0.0, 1.0)
    gap = ap - t[:, :, None] * ab[None, :, :]
    dist = np.sqrt(np.einsum("psk,psk->ps", gap, gap).min(axis=1))

    edge = 0.02
    ink = np.clip((0.5 * width + edge - dist) / edge, 0.0, 1.0) * contrast
    ink += rng.uniform(0.0, 0.04, size=ink.shape)
    return (np.clip(ink, 0.0, 1.0) * 255.0).astype(np.uint8).reshape(SIDE, SIDE)


def make_digits(count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` class-balanced images in shuffled order, with their labels."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(count) % 10).astype(np.uint8)
    images = np.stack([render(int(d), rng) for d in labels])
    return images, labels


def write_idx(images: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    """Write an image/label pair in the big-endian IDX container."""
    n = len(labels)
    Path(images_path).write_bytes(
        struct.pack(">IIII", 0x00000803, n, SIDE, SIDE) + images.astype(np.uint8).tobytes()
    )
    Path(labels_path).write_bytes(
        struct.pack(">II", 0x00000801, n) + labels.astype(np.uint8).tobytes()
    )


def ensure_split(cache_dir: Path, name: str, count: int, seed: int) -> tuple[Path, Path]:
    """Generate ``name`` once per ``(count, seed)``; return its IDX paths.

    Files are written under a temporary name and renamed, so a run cut
    short never leaves a half-written file that a later run would trust.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-n{count}-s{seed}"
    images_path = cache_dir / f"{stem}-images-idx3-ubyte"
    labels_path = cache_dir / f"{stem}-labels-idx1-ubyte"
    if not (images_path.exists() and labels_path.exists()):
        images, labels = make_digits(count, seed)
        tmp_i = images_path.with_suffix(f".tmp{os.getpid()}")
        tmp_l = labels_path.with_suffix(f".tmp{os.getpid()}")
        write_idx(images, labels, tmp_i, tmp_l)
        tmp_i.replace(images_path)
        tmp_l.replace(labels_path)
    return images_path, labels_path
