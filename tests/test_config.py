import pytest

from donn.config import RunConfig, parse_config


def test_defaults_build_valid_objects():
    cfg = RunConfig()
    assert cfg.grid.nx == 91
    assert cfg.distances == (0.01, 0.01, 0.01)
    assert cfg.detector_layout.n_classes == 10
    assert cfg.train_config.epochs == 100
    assert cfg.train_config.batch_size == 128
    assert cfg.fabrication_model.quant_levels is None
    assert cfg.encode_spec.upsample == 3


def test_parse_and_overrides():
    cfg = parse_config(
        """
        # comment line
        grid.nx = 64
        grid.ny = 64
        network.layers = 2
        network.distances = 0.02, 0.03
        train.epochs = 5
        train.normalize_scores = false
        hibl.quant_levels = 16
        """
    )
    assert cfg.grid.nx == 64
    assert cfg.distances == (0.02, 0.03)
    assert cfg.train_config.epochs == 5
    assert cfg.train_config.normalize_scores is False
    assert cfg.fabrication_model.quant_levels == 16


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config key 'grid.nz'"):
        parse_config("grid.nz = 4\n")


def test_malformed_line_rejected():
    with pytest.raises(ValueError, match="key = value"):
        parse_config("grid.nx 91\n")


def test_duplicate_key_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        parse_config("grid.nx = 91\ngrid.nx = 92\n")


def test_bad_value_rejected_with_key_name():
    with pytest.raises(ValueError, match="grid.nx"):
        parse_config("grid.nx = ninety\n")
    with pytest.raises(ValueError, match="boolean"):
        parse_config("train.normalize_scores = maybe\n")


def test_out_of_range_values_fail_before_compute():
    with pytest.raises(ValueError):
        parse_config("train.epochs = 0\n")
    with pytest.raises(ValueError):
        parse_config("grid.pitch = -1.0\n")
    with pytest.raises(ValueError):
        parse_config("network.layers = 2\nnetwork.distances = 0.01,0.02,0.03\n")
    with pytest.raises(ValueError):
        parse_config("hibl.quant_levels = 1\n")
    with pytest.raises(ValueError, match="temperature"):
        parse_config("train.temperature = 0\n")


def test_explicit_detector_regions():
    cfg = parse_config(
        "detector.regions = 0,0,4,4; 6,0,10,4\n"
    )
    layout = cfg.detector_layout
    assert layout.n_classes == 2
    assert layout.regions[1] == (6, 0, 10, 4)
    with pytest.raises(ValueError, match="x0,y0,x1,y1"):
        parse_config("detector.regions = 1,2,3\n").detector_layout


def test_canonical_round_trip():
    cfg = parse_config("grid.nx = 64\ntrain.seed = 9\n")
    text = cfg.to_text()
    again = parse_config(text)
    assert again.values == cfg.values
    assert again.to_text() == text


def test_reference_spec_auto_carrier():
    cfg = RunConfig()
    ref = cfg.reference_spec
    fine_pitch = cfg.grid.pitch / cfg["hibl.record_upsample"]
    assert ref.carrier[0] == pytest.approx(1.0 / (4 * fine_pitch))
    cfg2 = parse_config("hibl.carrier_x = 1000.0\nhibl.carrier_y = 2000.0\n")
    assert cfg2.reference_spec.carrier == (1000.0, 2000.0)


def test_retired_exposure_key_accepted_only_as_linear():
    # checkpoints written before the key was retired embed "hibl.exposure = linear"
    base = "grid.nx = 64\nhibl.noise_sigma = 0.1\n"
    old = parse_config(base + "hibl.exposure = linear\n")
    new = parse_config(base)
    assert old.values == new.values
    assert old.to_text() == new.to_text()
    with pytest.raises(ValueError, match="hibl.exposure"):
        parse_config(base + "hibl.exposure = softclip\n")
