import errno
import gzip
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import synthdigits
from donn import hibl
from donn.dataio import (
    Checkpoint,
    load_checkpoint,
    read_idx_images,
    read_idx_labels,
    save_checkpoint,
    write_field_image,
    write_pgm16,
)
from donn.fields import ComplexField, GridSpec
from donn.network import random_init
from donn.training import AdamState


def test_idx_round_trip(tmp_path):
    images, labels = synthdigits.make_dataset(50, 1)
    synthdigits.write_idx_images(images, tmp_path / "imgs")
    synthdigits.write_idx_labels(labels, tmp_path / "labs")
    got_images = read_idx_images(tmp_path / "imgs")
    got_labels = read_idx_labels(tmp_path / "labs")
    assert np.array_equal(got_images, images)
    assert np.array_equal(got_labels, labels)


def test_idx_gzip_transparent(tmp_path):
    images, labels = synthdigits.make_dataset(5, 2)
    raw = struct.pack(">II", 0x00000801, 5) + labels.tobytes()
    (tmp_path / "labs.gz").write_bytes(gzip.compress(raw))
    assert np.array_equal(read_idx_labels(tmp_path / "labs.gz"), labels)


def test_idx_bad_magic(tmp_path):
    (tmp_path / "bad").write_bytes(struct.pack(">IIII", 0, 1, 28, 28) + b"\0" * 784)
    with pytest.raises(ValueError, match="bad IDX magic"):
        read_idx_images(tmp_path / "bad")
    with pytest.raises(ValueError, match="bad IDX magic"):
        read_idx_labels(tmp_path / "bad")


def test_idx_truncated_payload(tmp_path):
    (tmp_path / "short").write_bytes(
        struct.pack(">II", 0x00000801, 100) + b"\x01" * 10
    )
    with pytest.raises(ValueError, match="truncated IDX payload"):
        read_idx_labels(tmp_path / "short")
    (tmp_path / "shorti").write_bytes(
        struct.pack(">IIII", 0x00000803, 2, 28, 28) + b"\x01" * 100
    )
    with pytest.raises(ValueError, match="truncated IDX payload"):
        read_idx_images(tmp_path / "shorti")


def test_idx_rejects_non_28x28(tmp_path):
    (tmp_path / "odd").write_bytes(
        struct.pack(">IIII", 0x00000803, 1, 14, 14) + b"\x01" * 196
    )
    with pytest.raises(ValueError, match="28x28"):
        read_idx_images(tmp_path / "odd")


GRID = GridSpec(12, 10, 8e-6, 532e-9)


def make_ckpt(seed=0, with_state=True):
    net = random_init(GRID, 2, [0.01, 0.015], seed=seed)
    state = None
    if with_state:
        state = AdamState.zeros(net)
        state.t = 7
        state.m[0] += 0.25
        state.v[1] += 1e-4
    return Checkpoint("grid.nx = 12\n", net, epoch=3, optimizer_state=state)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    path = tmp_path / "a.ckpt"
    ckpt = make_ckpt()
    save_checkpoint(ckpt, path)
    got = load_checkpoint(path)
    assert got.config_text == ckpt.config_text
    assert got.epoch == 3
    assert got.network.grid == GRID
    assert got.network.distances == ckpt.network.distances
    for a, b in zip(got.network.layers, ckpt.network.layers):
        assert np.array_equal(a.phase, b.phase)
    assert got.optimizer_state.t == 7
    for a, b in zip(got.optimizer_state.m, ckpt.optimizer_state.m):
        assert np.array_equal(a, b)
    # byte-for-byte stable across save(load(save(x)))
    path2 = tmp_path / "b.ckpt"
    save_checkpoint(got, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_failed_checkpoint_write_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "a.ckpt"
    save_checkpoint(make_ckpt(), path)
    before = path.read_bytes()
    newer = make_ckpt()
    newer.epoch = 4

    def torn_write(fd):
        os.ftruncate(fd, 100)  # the disk filled up part-way through the payload
        raise OSError(errno.ENOSPC, "no space left on device")

    monkeypatch.setattr(os, "fsync", torn_write)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(newer, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_checkpoint(path).epoch == 3
    save_checkpoint(newer, path)
    assert load_checkpoint(path).epoch == 4


def test_checkpoint_without_optimizer_state(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(make_ckpt(with_state=False), path)
    assert load_checkpoint(path).optimizer_state is None


def test_checkpoint_corruption_detected(tmp_path):
    path = tmp_path / "d.ckpt"
    save_checkpoint(make_ckpt(), path)
    raw = bytearray(path.read_bytes())
    raw[-7] ^= 0x40  # flip a payload bit
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="CRC"):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "e.ckpt"
    save_checkpoint(make_ckpt(), path)
    raw = bytearray(path.read_bytes())
    raw[0:8] = b"NOTDONN!"
    body = bytes(raw[:-4])
    import zlib

    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_unsupported_version(tmp_path):
    path = tmp_path / "f.ckpt"
    save_checkpoint(make_ckpt(), path)
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", 2)
    body = bytes(raw[:-4])
    import zlib

    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(ValueError, match="unsupported checkpoint version"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def realized_checkpoint_bytes(tmp_path_factory):
    """A small realized checkpoint (no optimizer state), as ``donn realize`` writes it."""
    net = random_init(GridSpec(4, 3, 8e-6, 532e-9), 2, [0.01, 0.015], seed=5)
    ref = hibl.recording_reference(net.grid, upsample=2)
    realized = hibl.realize_network(net, ref, hibl.FabricationModel(quant_levels=16), 2)
    path = tmp_path_factory.mktemp("ckpt") / "realized.ckpt"
    save_checkpoint(Checkpoint("hibl.quant_levels = 16\n", realized, epoch=2), path)
    return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_always_raises_value_error(realized_checkpoint_bytes, data, tmp_path_factory):
    # every single-byte change and every truncation is refused with a
    # ValueError: never another exception, never a silent load
    raw = realized_checkpoint_bytes
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        pos = data.draw(st.integers(0, len(raw) - 1), label="position")
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]), label="byte")
        damaged = raw[:pos] + bytes([byte]) + raw[pos + 1 :]
    path = tmp_path_factory.getbasetemp() / "damaged.ckpt"
    path.write_bytes(damaged)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_pgm_zero_field(tmp_path):
    path = tmp_path / "zero.pgm"
    field = ComplexField(GRID, np.zeros(GRID.shape, dtype=complex))
    write_field_image(field, path, channel="intensity")
    raw = path.read_bytes()
    header = f"P5\n{GRID.nx} {GRID.ny}\n65535\n".encode()
    assert raw.startswith(header)
    payload = raw[len(header):]
    assert payload == b"\x00" * (2 * GRID.npix)


def test_pgm_uniform_pi_phase_mid_scale(tmp_path):
    path = tmp_path / "pi.pgm"
    write_field_image(np.full(GRID.shape, np.pi), path, channel="phase")
    raw = path.read_bytes()
    header_end = raw.index(b"65535\n") + 6
    samples = np.frombuffer(raw[header_end:], dtype=">u2")
    # pi maps to 32767.5; round-half-up gives 32768
    assert set(samples.tolist()) == {32768}


def test_pgm_header_dimensions(tmp_path):
    path = tmp_path / "dims.pgm"
    rng = np.random.default_rng(0)
    write_field_image(rng.uniform(size=GRID.shape), path, channel="intensity")
    header = path.read_bytes().split(b"\n", 3)
    assert header[0] == b"P5"
    assert header[1].decode() == f"{GRID.nx} {GRID.ny}"
    assert header[2] == b"65535"


def test_pgm16_range_check(tmp_path):
    with pytest.raises(ValueError, match="range"):
        write_pgm16(np.full((4, 4), 70000.0), tmp_path / "x.pgm")
