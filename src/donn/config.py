"""Run configuration: a flat, line-oriented ``key = value`` text format.

Keys carry dotted section prefixes (``grid.nx = 91``). Blank lines and
``#`` comments are allowed. Parsing is strict: unknown keys and
out-of-range values are rejected before any computation starts, and a
parsed config re-renders to a canonical byte-stable text (stored inside
checkpoints so runs are self-describing).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .fields import EncodeSpec, GridSpec
from .hibl import FabricationModel, ReferenceSpec, recording_reference
from .readout import DetectorLayout, default_detector_layout
from .training import TrainConfig


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_float_list(s: str) -> tuple[float, ...]:
    return tuple(float(p) for p in s.split(",") if p.strip())


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# key -> (parser, default). Order defines the canonical rendering.
_SCHEMA: dict[str, tuple] = {
    "grid.nx": (int, 91),
    "grid.ny": (int, 91),
    "grid.pitch": (float, 8e-6),
    "grid.wavelength": (float, 532e-9),
    "network.layers": (int, 3),
    "network.distances": (_parse_float_list, (0.01,)),
    "network.input_distance": (float, 0.0),
    "network.seed": (int, 0),
    "encode.upsample": (int, 3),
    "encode.offset_x": (int, -1),
    "encode.offset_y": (int, -1),
    "encode.phase": (float, 0.0),
    "encode.target_power": (float, 1.0),
    "detector.regions": (str, "auto"),
    "train.epochs": (int, 100),
    "train.batch_size": (int, 128),
    "train.base_lr": (float, 0.02),
    "train.beta1": (float, 0.9),
    "train.beta2": (float, 0.999),
    "train.eps": (float, 1e-8),
    "train.temperature": (float, 0.1),
    "train.normalize_scores": (_parse_bool, True),
    "train.phase_noise_sigma": (float, 0.0),
    "train.seed": (int, 0),
    "train.eval_every": (int, 1),
    "train.limit_train": (int, 0),
    "train.limit_test": (int, 0),
    "hibl.object_amplitude": (float, 1.0),
    "hibl.reference_amplitude": (float, 1.0),
    "hibl.carrier_x": (float, 0.0),
    "hibl.carrier_y": (float, 0.0),
    "hibl.record_upsample": (int, 8),
    "hibl.window_radius": (float, 0.0),
    "hibl.quant_levels": (int, 0),
    "hibl.noise_sigma": (float, 0.0),
    "hibl.seed": (int, 0),
    "paths.train_images": (str, ""),
    "paths.train_labels": (str, ""),
    "paths.test_images": (str, ""),
    "paths.test_labels": (str, ""),
    "paths.out_dir": (str, "."),
}


@dataclass
class RunConfig:
    """Validated configuration for a whole run."""

    values: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        merged = {k: default for k, (_, default) in _SCHEMA.items()}
        merged.update(self.values)
        self.values = merged
        # construct the domain objects eagerly so bad values fail here
        self.grid
        self.encode_spec
        self.train_config
        self.detector_layout
        self.fabrication_model
        if self.values["network.layers"] < 1:
            raise ValueError("network.layers must be >= 1")
        if len(self.distances) != self.values["network.layers"]:
            raise ValueError(
                "network.distances must have one entry, or one per layer"
            )

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def grid(self) -> GridSpec:
        v = self.values
        return GridSpec(v["grid.nx"], v["grid.ny"], v["grid.pitch"], v["grid.wavelength"])

    @property
    def distances(self) -> tuple[float, ...]:
        d = self.values["network.distances"]
        n = self.values["network.layers"]
        if len(d) == 1:
            return d * n
        return d

    @property
    def encode_spec(self) -> EncodeSpec:
        v = self.values
        ox, oy = v["encode.offset_x"], v["encode.offset_y"]
        offset = None if ox < 0 or oy < 0 else (ox, oy)
        return EncodeSpec(
            upsample=v["encode.upsample"],
            offset=offset,
            phase=v["encode.phase"],
            target_power=v["encode.target_power"],
        )

    @property
    def detector_layout(self) -> DetectorLayout:
        spec = self.values["detector.regions"]
        if spec == "auto":
            return default_detector_layout(self.grid)
        regions = []
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            nums = [int(p) for p in part.split(",")]
            if len(nums) != 4:
                raise ValueError(
                    f"detector region {part!r} must be x0,y0,x1,y1"
                )
            regions.append(tuple(nums))
        return DetectorLayout(self.grid, tuple(regions))

    @property
    def train_config(self) -> TrainConfig:
        v = self.values
        return TrainConfig(
            epochs=v["train.epochs"],
            batch_size=v["train.batch_size"],
            base_lr=v["train.base_lr"],
            beta1=v["train.beta1"],
            beta2=v["train.beta2"],
            eps=v["train.eps"],
            temperature=v["train.temperature"],
            normalize_scores=v["train.normalize_scores"],
            phase_noise_sigma=v["train.phase_noise_sigma"],
            seed=v["train.seed"],
            eval_every=v["train.eval_every"],
        )

    @property
    def reference_spec(self) -> ReferenceSpec:
        v = self.values
        if v["hibl.carrier_x"] == 0.0 and v["hibl.carrier_y"] == 0.0:
            return recording_reference(
                self.grid,
                upsample=v["hibl.record_upsample"],
                object_amplitude=v["hibl.object_amplitude"],
                reference_amplitude=v["hibl.reference_amplitude"],
            )
        return ReferenceSpec(
            v["hibl.object_amplitude"],
            v["hibl.reference_amplitude"],
            (v["hibl.carrier_x"], v["hibl.carrier_y"]),
        )

    @property
    def fabrication_model(self) -> FabricationModel:
        v = self.values
        q = v["hibl.quant_levels"]
        return FabricationModel(
            quant_levels=None if q == 0 else q,
            phase_noise_sigma=v["hibl.noise_sigma"],
            seed=v["hibl.seed"],
        )

    def to_text(self) -> str:
        """Canonical rendering: schema order, one key per line."""
        return "".join(f"{k} = {_fmt(self.values[k])}\n" for k in _SCHEMA)


def parse_config(text: str) -> RunConfig:
    """Parse config text, rejecting unknown keys and malformed lines."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "hibl.exposure":  # retired; older checkpoints embed "linear"
            if value != "linear":
                raise ValueError(
                    f"line {lineno}: config key {key!r} was removed because "
                    "realization never applied it; only 'linear' is accepted"
                )
            continue
        if key not in _SCHEMA:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate config key {key!r}")
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return RunConfig(values)


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))
