import numpy as np

from donn.cli import main
from donn.config import RunConfig
from donn.dataio import Checkpoint, load_checkpoint, save_checkpoint
from donn.network import random_init


def small_config_text(data_dir, out_dir, epochs=2):
    return (
        "grid.nx = 48\n"
        "grid.ny = 48\n"
        "network.layers = 2\n"
        "network.distances = 0.004\n"
        "encode.upsample = 1\n"
        f"train.epochs = {epochs}\n"
        "train.batch_size = 64\n"
        "train.limit_train = 200\n"
        "train.limit_test = 60\n"
        "train.eval_every = 1\n"
        f"paths.train_images = {data_dir}/train-images-idx3-ubyte\n"
        f"paths.train_labels = {data_dir}/train-labels-idx1-ubyte\n"
        f"paths.test_images = {data_dir}/t10k-images-idx3-ubyte\n"
        f"paths.test_labels = {data_dir}/t10k-labels-idx1-ubyte\n"
        f"paths.out_dir = {out_dir}\n"
    )


def test_demo_gaussian(tmp_path, capsys):
    assert main(["demo", "--scene", "gaussian", "--distance", "0.054",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "measured 1/e^2 radius" in out
    assert (tmp_path / "gaussian_input.pgm").exists()
    assert (tmp_path / "gaussian_output.pgm").exists()


def test_demo_double_slit(tmp_path, capsys):
    assert main(["demo", "--scene", "double-slit", "--distance", "0.05",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "wavelength*d/a" in out
    assert (tmp_path / "double_slit_output.pgm").exists()


def test_unknown_flag_rejected():
    assert main(["demo", "--scene", "gaussian", "--distance", "0.01",
                 "--bogus"]) != 0


def test_malformed_config_reports_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid.nx = 48\nbogus.key = 1\n")
    assert main(["train", "--config", str(cfg)]) != 0
    err = capsys.readouterr().err
    assert "bogus.key" in err


def test_missing_data_file_reported(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text(small_config_text(tmp_path / "nowhere", tmp_path))
    assert main(["train", "--config", str(cfg)]) != 0
    assert "nowhere" in capsys.readouterr().err


def test_train_eval_realize_perturb_roundtrip(small_dataset_dir, tmp_path, capsys):
    out_dir = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(small_config_text(small_dataset_dir, out_dir))

    assert main(["train", "--config", str(cfg)]) == 0
    ckpt = out_dir / "model.ckpt"
    metrics = out_dir / "metrics.csv"
    assert ckpt.exists() and metrics.exists()
    header = metrics.read_text().splitlines()[0]
    assert header == "epoch,loss,lr,test_accuracy,seconds"

    assert main(["eval", "--ckpt", str(ckpt), "--data", str(small_dataset_dir),
                 "--limit", "50"]) == 0
    out = capsys.readouterr().out
    assert "accuracy:" in out and "confusion" in out
    assert (out_dir / "model.confusion.csv").exists()

    realized = out_dir / "realized.ckpt"
    assert main(["realize", "--ckpt", str(ckpt), "--out", str(realized)]) == 0
    assert realized.exists()
    fidelity = out_dir / "realized.fidelity.csv"
    assert fidelity.exists()
    lines = fidelity.read_text().strip().splitlines()
    assert lines[0].startswith("layer,wrapped_rmse_rad")
    assert len(lines) == 3  # two layers

    perturb_csv = out_dir / "perturb.csv"
    assert main(["perturb", "--ckpt", str(ckpt), "--sigma", "0.05,0.2",
                 "--trials", "2", "--data", str(small_dataset_dir),
                 "--limit", "40", "--out", str(perturb_csv)]) == 0
    rows = perturb_csv.read_text().strip().splitlines()
    assert rows[0] == "sigma,trial,accuracy"
    assert len(rows) == 5


def test_train_resume(small_dataset_dir, tmp_path):
    out_dir = tmp_path / "r"
    cfg1 = tmp_path / "one.cfg"
    cfg1.write_text(small_config_text(small_dataset_dir, out_dir, epochs=1))
    assert main(["train", "--config", str(cfg1)]) == 0
    first = load_checkpoint(out_dir / "model.ckpt")
    assert first.epoch == 1
    assert first.optimizer_state is not None

    cfg2 = tmp_path / "two.cfg"
    cfg2.write_text(small_config_text(small_dataset_dir, out_dir, epochs=2))
    assert main(["train", "--config", str(cfg2),
                 "--resume", str(out_dir / "model.ckpt")]) == 0
    second = load_checkpoint(out_dir / "model.ckpt")
    assert second.epoch == 2
    assert second.optimizer_state.t > first.optimizer_state.t
    # already-finished checkpoints are rejected
    assert main(["train", "--config", str(cfg2),
                 "--resume", str(out_dir / "model.ckpt")]) != 0


def test_resume_refuses_a_changed_config(small_dataset_dir, tmp_path, capsys):
    out_dir = tmp_path / "r"
    cfg1 = tmp_path / "one.cfg"
    cfg1.write_text(small_config_text(small_dataset_dir, out_dir, epochs=1))
    assert main(["train", "--config", str(cfg1)]) == 0
    ckpt = out_dir / "model.ckpt"
    saved = ckpt.read_bytes()

    changed = tmp_path / "changed.cfg"
    changed.write_text(small_config_text(small_dataset_dir, out_dir, epochs=2)
                       + "train.seed = 5\ntrain.base_lr = 0.5\n")
    capsys.readouterr()
    assert main(["train", "--config", str(changed), "--resume", str(ckpt)]) != 0
    err = capsys.readouterr().err
    assert "train.seed" in err and "train.base_lr" in err
    assert ckpt.read_bytes() == saved

    same = tmp_path / "same.cfg"
    same.write_text(small_config_text(small_dataset_dir, out_dir, epochs=2))
    assert main(["train", "--config", str(same), "--resume", str(ckpt),
                 "--seed", "5"]) != 0
    err = capsys.readouterr().err
    assert "train.seed" in err and "train.base_lr" not in err
    assert ckpt.read_bytes() == saved

    # output paths and the evaluation schedule may change on resume
    moved = tmp_path / "moved.cfg"
    moved.write_text(
        small_config_text(small_dataset_dir, tmp_path / "moved", epochs=2)
        .replace("train.limit_test = 60", "train.limit_test = 30")
        .replace("train.eval_every = 1", "train.eval_every = 2")
    )
    assert main(["train", "--config", str(moved), "--resume", str(ckpt)]) == 0
    assert load_checkpoint(tmp_path / "moved" / "model.ckpt").epoch == 2


def test_eval_random_checkpoint_is_chance_level(small_dataset_dir, tmp_path, capsys):
    cfg = RunConfig()
    net = random_init(cfg.grid, 3, list(cfg.distances), seed=0)
    ckpt_path = tmp_path / "random.ckpt"
    save_checkpoint(Checkpoint(cfg.to_text(), net), ckpt_path)
    assert main(["eval", "--ckpt", str(ckpt_path),
                 "--data", str(small_dataset_dir)]) == 0
    out = capsys.readouterr().out
    acc = float(out.split("accuracy: ")[1].split()[0])
    assert 0.0 <= acc <= 0.3


def test_checkpoint_with_retired_exposure_key_still_runs(small_dataset_dir, tmp_path):
    cfg = RunConfig()
    text = cfg.to_text().replace("hibl.seed", "hibl.exposure = linear\nhibl.seed")
    assert "hibl.exposure = linear" in text
    net = random_init(cfg.grid, 3, list(cfg.distances), seed=0)
    ckpt_path = tmp_path / "old.ckpt"
    save_checkpoint(Checkpoint(text, net), ckpt_path)
    assert main(["realize", "--ckpt", str(ckpt_path),
                 "--out", str(tmp_path / "realized.ckpt")]) == 0
    assert main(["eval", "--ckpt", str(ckpt_path), "--data", str(small_dataset_dir),
                 "--limit", "20"]) == 0


def test_depth_sweep_cli(small_dataset_dir, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        small_config_text(small_dataset_dir, out_dir, epochs=1)
        .replace("train.limit_train = 200", "train.limit_train = 100")
    )
    assert main(["depth-sweep", "--config", str(cfg), "--depths", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "depth,accuracy" in out
    table = (out_dir / "depth_sweep.csv").read_text().strip().splitlines()
    assert table[0] == "depth,accuracy"
    assert len(table) == 3
