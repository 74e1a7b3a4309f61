"""File formats: IDX datasets, binary checkpoints, and 16-bit PGM images.

IDX keeps its externally defined big-endian layout; everything written by
this package (checkpoints, PGM samples) is explicit about byte order and
carries magic plus version so corruption fails loudly.
"""

from __future__ import annotations

import gzip
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fields import ComplexField, GridSpec
from .network import OpticalNetwork, PhaseLayer
from .training import AdamState

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

CHECKPOINT_MAGIC = b"DONNCKPT"
CHECKPOINT_VERSION = 1


@dataclass
class Dataset:
    """Raw images (N, 28, 28) uint8 with labels (N,) uint8 below 10."""

    images: np.ndarray
    labels: np.ndarray
    split: str = ""

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )
        if len(self.labels) and self.labels.max() > 9:
            raise ValueError("labels must be in 0..9")

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, n: int) -> "Dataset":
        return Dataset(self.images[:n], self.labels[:n], self.split)


def _read_bytes(path) -> bytes:
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":  # transparently accept gzipped files
        raw = gzip.decompress(raw)
    return raw


def read_idx_images(path) -> np.ndarray:
    """Parse an IDX image file into a (count, 28, 28) uint8 array.

    The header is big-endian: magic 0x00000803, count, rows, cols, then
    raw pixel bytes. Only 28 x 28 images are accepted since the encoder
    assumes that footprint.
    """
    raw = _read_bytes(path)
    if len(raw) < 16:
        raise ValueError(f"truncated IDX header in {path}")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise ValueError(f"bad IDX magic 0x{magic:08x} in {path}")
    if rows != 28 or cols != 28:
        raise ValueError(
            f"unsupported IDX image size {rows}x{cols} (expected 28x28) in {path}"
        )
    need = count * rows * cols
    payload = raw[16:]
    if len(payload) < need:
        raise ValueError(f"truncated IDX payload in {path}")
    return (
        np.frombuffer(payload[:need], dtype=np.uint8).reshape(count, rows, cols).copy()
    )


def read_idx_labels(path) -> np.ndarray:
    """Parse an IDX label file into a (count,) uint8 array."""
    raw = _read_bytes(path)
    if len(raw) < 8:
        raise ValueError(f"truncated IDX header in {path}")
    magic, count = struct.unpack(">II", raw[:8])
    if magic != IDX_LABEL_MAGIC:
        raise ValueError(f"bad IDX magic 0x{magic:08x} in {path}")
    payload = raw[8:]
    if len(payload) < count:
        raise ValueError(f"truncated IDX payload in {path}")
    labels = np.frombuffer(payload[:count], dtype=np.uint8).copy()
    if len(labels) and labels.max() > 9:
        raise ValueError(f"label byte above 9 in {path}")
    return labels


def load_dataset(images_path, labels_path, split: str = "") -> Dataset:
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    return Dataset(images, labels, split)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    """Everything needed to resume or evaluate a run, bit-exactly.

    Binary layout (little-endian unless noted): 8-byte magic "DONNCKPT",
    u32 version, u32 config length + UTF-8 config text, u32 epoch,
    u32 nx, u32 ny, f64 pitch, f64 wavelength, f64 input_distance,
    u32 layer count, then per layer one f64 distance and ny*nx f64 phase
    values, a u8 optimizer flag optionally followed by u64 step count and
    per-layer f64 first/second moment arrays, and a trailing CRC32 over
    every preceding byte.
    """

    config_text: str
    network: OpticalNetwork
    epoch: int = 0
    optimizer_state: AdamState | None = None


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    net = ckpt.network
    grid = net.grid
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    cfg = ckpt.config_text.encode("utf-8")
    parts.append(struct.pack("<I", len(cfg)))
    parts.append(cfg)
    parts.append(struct.pack("<I", ckpt.epoch))
    parts.append(struct.pack("<IIddd", grid.nx, grid.ny, grid.pitch, grid.wavelength,
                             net.input_distance))
    parts.append(struct.pack("<I", net.depth))
    for layer, dist in zip(net.layers, net.distances):
        parts.append(struct.pack("<d", dist))
        parts.append(np.ascontiguousarray(layer.phase, dtype="<f8").tobytes())
    state = ckpt.optimizer_state
    if state is None:
        parts.append(b"\x00")
    else:
        parts.append(b"\x01")
        parts.append(struct.pack("<Q", state.t))
        for arr in state.m + state.v:
            parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    payload = b"".join(parts)
    payload += struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    # Replacing a complete, synced file keeps the previous checkpoint whole if a write fails.
    tmp = Path(f"{path}.tmp")
    with open(tmp, "wb") as f:
        f.write(payload)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated checkpoint")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> Checkpoint:
    data = Path(path).read_bytes()
    if len(data) < len(CHECKPOINT_MAGIC) + 8:
        raise ValueError(f"truncated checkpoint {path}")
    body, crc_bytes = data[:-4], data[-4:]
    (crc_stored,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise ValueError(f"checkpoint CRC mismatch in {path}")
    r = _Reader(body)
    if r.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic in {path}")
    (version,) = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version} in {path}")
    (cfg_len,) = r.unpack("<I")
    config_text = r.take(cfg_len).decode("utf-8")
    (epoch,) = r.unpack("<I")
    nx, ny, pitch, wavelength, input_distance = r.unpack("<IIddd")
    grid = GridSpec(nx, ny, pitch, wavelength)
    (n_layers,) = r.unpack("<I")
    layers, distances = [], []
    count = nx * ny
    for _ in range(n_layers):
        (dist,) = r.unpack("<d")
        phase = np.frombuffer(r.take(8 * count), dtype="<f8").reshape(ny, nx)
        layers.append(PhaseLayer(grid, phase))
        distances.append(dist)
    net = OpticalNetwork(grid, tuple(layers), tuple(distances), input_distance)
    (flag,) = r.unpack("<B")
    state = None
    if flag == 1:
        (t,) = r.unpack("<Q")
        m = [
            np.frombuffer(r.take(8 * count), dtype="<f8").reshape(ny, nx).copy()
            for _ in range(n_layers)
        ]
        v = [
            np.frombuffer(r.take(8 * count), dtype="<f8").reshape(ny, nx).copy()
            for _ in range(n_layers)
        ]
        state = AdamState(m=m, v=v, t=t)
    elif flag != 0:
        raise ValueError(f"bad optimizer flag {flag} in {path}")
    if r.pos != len(body):
        raise ValueError(f"trailing bytes in checkpoint {path}")
    return Checkpoint(config_text, net, epoch, state)


# ---------------------------------------------------------------------------
# 16-bit PGM emission
# ---------------------------------------------------------------------------


def write_pgm16(array: np.ndarray, path) -> None:
    """Write a 2-D array of values already in [0, 65535] as binary PGM.

    Samples are big-endian 16-bit as the format requires; values are
    rounded half-up.
    """
    a = np.asarray(array, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("PGM output needs a 2-D array")
    q = np.floor(a + 0.5)
    if q.min() < 0 or q.max() > 65535:
        raise ValueError("PGM sample out of range [0, 65535]")
    header = f"P5\n{a.shape[1]} {a.shape[0]}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + q.astype(">u2").tobytes())


def write_field_image(
    source: ComplexField | np.ndarray, path, channel: str = "intensity"
) -> None:
    """Render a field or intensity map as 16-bit PGM for inspection.

    ``channel="intensity"`` maps [0, max] linearly onto the sample range
    (an all-zero input produces an all-zero file); ``channel="phase"``
    maps [0, 2*pi) linearly. Rounding is half-up.
    """
    if channel == "intensity":
        data = source.intensity() if isinstance(source, ComplexField) else np.asarray(source)
        if data.min() < 0:
            raise ValueError("intensity must be nonnegative")
        top = data.max()
        scaled = data * (65535.0 / top) if top > 0 else np.zeros_like(data)
    elif channel == "phase":
        if isinstance(source, ComplexField):
            phase = np.mod(np.angle(source.values), 2.0 * np.pi)
        else:
            phase = np.asarray(source)
        scaled = phase * (65535.0 / (2.0 * np.pi))
    else:
        raise ValueError(f"unknown channel {channel!r} (intensity or phase)")
    write_pgm16(scaled, path)
