"""Command-line surface: train, eval, realize, perturb, depth-sweep, demo."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config, parse_config
from .dataio import (
    Checkpoint,
    Dataset,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    write_field_image,
)
from .fields import wrap_phase
from .hibl import fidelity_metrics, realize_network
from .network import OpticalNetwork, random_init
from .scenes import double_slit_scene, gaussian_scene
from .training import depth_sweep, evaluate, train


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _load_split(data_dir: Path, split: str) -> Dataset:
    """Find '<stem>-images-idx3-ubyte[.gz]' pairs in a directory."""
    stems = {"train": ["train"], "test": ["t10k", "test"]}[split]
    for stem in stems:
        for suffix in ("", ".gz"):
            images = data_dir / f"{stem}-images-idx3-ubyte{suffix}"
            labels = data_dir / f"{stem}-labels-idx1-ubyte{suffix}"
            if images.exists() and labels.exists():
                return load_dataset(images, labels, split)
    raise FileNotFoundError(f"no {split} IDX pair found under {data_dir}")


def _dataset_from_paths(cfg: RunConfig, split: str) -> Dataset:
    images = cfg[f"paths.{split}_images"]
    labels = cfg[f"paths.{split}_labels"]
    if not images or not labels:
        raise ValueError(f"config is missing paths.{split}_images / paths.{split}_labels")
    for p in (images, labels):
        if not Path(p).exists():
            raise FileNotFoundError(f"missing dataset file: {p}")
    ds = load_dataset(images, labels, split)
    limit = cfg[f"train.limit_{split}"]
    return ds.subset(limit) if limit else ds


def _config_and_splits(args) -> tuple[RunConfig, Dataset, Dataset]:
    """The run config with ``--seed`` applied, and its train and test splits."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.values["train.seed"] = args.seed
    return cfg, _dataset_from_paths(cfg, "train"), _dataset_from_paths(cfg, "test")


def _checkpoint_and_test_set(args) -> tuple[Checkpoint, RunConfig, Dataset]:
    """The checkpoint, its embedded config, and the first ``--limit`` test samples."""
    ckpt = load_checkpoint(args.ckpt)
    cfg = parse_config(ckpt.config_text)
    test_set = _load_split(Path(args.data), "test")
    return ckpt, cfg, test_set.subset(args.limit) if args.limit else test_set


def _print_confusion(confusion: np.ndarray) -> None:
    n = confusion.shape[0]
    print("confusion matrix (rows: true, cols: predicted):")
    print("     " + " ".join(f"{c:>6d}" for c in range(n)))
    for i in range(n):
        print(f"  {i}: " + " ".join(f"{confusion[i, j]:>6d}" for j in range(n)))


def _confusion_csv(confusion: np.ndarray) -> str:
    n = confusion.shape[0]
    lines = ["true\\pred," + ",".join(str(c) for c in range(n))]
    for i in range(n):
        lines.append(f"{i}," + ",".join(str(int(v)) for v in confusion[i]))
    return "\n".join(lines) + "\n"


# Keys a resumed run may change besides paths.*: how long it runs and how
# often and on how much it evaluates. Any other key changes the run.
_RESUME_MAY_CHANGE = ("train.epochs", "train.eval_every", "train.limit_test")


def _changed_keys(saved: RunConfig, cfg: RunConfig) -> list[str]:
    return [
        key for key, value in cfg.values.items()
        if saved[key] != value
        and not key.startswith("paths.") and key not in _RESUME_MAY_CHANGE
    ]


def _cmd_train(args) -> int:
    cfg, train_set, test_set = _config_and_splits(args)
    layout = cfg.detector_layout
    tc = cfg.train_config
    out_dir = Path(cfg["paths.out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.resume:
        ckpt = load_checkpoint(args.resume)
        changed = _changed_keys(parse_config(ckpt.config_text), cfg)
        if changed:
            return _fail(
                f"checkpoint {args.resume} was trained under a different config: "
                f"{', '.join(changed)} differ"
            )
        net = ckpt.network
        state = ckpt.optimizer_state
        start_epoch = ckpt.epoch
        if start_epoch >= tc.epochs:
            return _fail(
                f"checkpoint already at epoch {start_epoch} >= train.epochs {tc.epochs}"
            )
    else:
        net = random_init(cfg.grid, cfg["network.layers"], list(cfg.distances),
                          cfg["network.seed"])
        if cfg["network.input_distance"] > 0:
            net = OpticalNetwork(net.grid, net.layers, net.distances,
                                 cfg["network.input_distance"])
        state = None
        start_epoch = 0

    def log_row(row):
        acc = "" if row.test_accuracy is None else f" test_acc={row.test_accuracy:.4f}"
        print(
            f"epoch {row.epoch}: loss={row.loss:.4f} lr={row.lr:.5f}{acc} "
            f"({row.seconds:.1f}s)",
            flush=True,
        )

    result = train(
        net,
        train_set.images,
        train_set.labels,
        test_set.images,
        test_set.labels,
        layout,
        tc,
        cfg.encode_spec,
        initial_state=state,
        start_epoch=start_epoch,
        log_fn=log_row,
    )
    ckpt_path = out_dir / "model.ckpt"
    save_checkpoint(
        Checkpoint(cfg.to_text(), result.network, result.epoch, result.optimizer_state),
        ckpt_path,
    )
    metrics_path = out_dir / "metrics.csv"
    metrics_path.write_text(result.metrics.to_csv(), encoding="utf-8")
    final_acc = next(
        (r.test_accuracy for r in reversed(result.metrics.rows)
         if r.test_accuracy is not None),
        None,
    )
    if final_acc is not None:
        print(f"final test accuracy: {final_acc:.4f}")
    print(f"wrote {ckpt_path} and {metrics_path}")
    return 0


def _cmd_eval(args) -> int:
    ckpt, cfg, test_set = _checkpoint_and_test_set(args)
    acc, confusion = evaluate(
        ckpt.network, test_set.images, test_set.labels, cfg.detector_layout,
        cfg.encode_spec,
    )
    print(f"accuracy: {acc:.4f} over {len(test_set)} samples")
    _print_confusion(confusion)
    csv_path = Path(args.csv) if args.csv else Path(args.ckpt).with_suffix(".confusion.csv")
    csv_path.write_text(_confusion_csv(confusion), encoding="utf-8")
    print(f"wrote {csv_path}")
    return 0


def _cmd_realize(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    cfg = parse_config(ckpt.config_text)
    ref = cfg.reference_spec
    model = cfg.fabrication_model
    radius = cfg["hibl.window_radius"] or None
    realized = realize_network(
        ckpt.network, ref, model,
        record_upsample=cfg["hibl.record_upsample"],
        window_radius=radius,
    )
    save_checkpoint(Checkpoint(ckpt.config_text, realized, ckpt.epoch, None), args.out)
    report_path = Path(args.out).with_suffix(".fidelity.csv")
    lines = ["layer,wrapped_rmse_rad,max_wrapped_error_rad,fringe_visibility"]
    for i, (ideal, real) in enumerate(zip(ckpt.network.layers, realized.layers)):
        fm = fidelity_metrics(ideal, real, ref)
        lines.append(
            f"{i},{fm.wrapped_rmse:.6f},{fm.max_wrapped_error:.6f},{fm.visibility:.6f}"
        )
        print(
            f"layer {i}: wrapped RMSE {fm.wrapped_rmse:.4f} rad, "
            f"max {fm.max_wrapped_error:.4f} rad, visibility {fm.visibility:.3f}"
        )
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.out} and {report_path}")
    return 0


def _cmd_perturb(args) -> int:
    ckpt, cfg, test_set = _checkpoint_and_test_set(args)
    layout = cfg.detector_layout
    sigmas = [float(s) for s in args.sigma.split(",") if s.strip()]
    rng = np.random.default_rng(args.seed)
    net = ckpt.network
    lines = ["sigma,trial,accuracy"]
    for sigma in sigmas:
        accs = []
        for trial in range(args.trials):
            phases = [
                wrap_phase(l.phase + sigma * rng.standard_normal(l.phase.shape))
                for l in net.layers
            ]
            acc, _ = evaluate(
                net.with_phases(phases), test_set.images, test_set.labels,
                layout, cfg.encode_spec,
            )
            accs.append(acc)
            lines.append(f"{sigma},{trial},{acc:.6f}")
        print(f"sigma={sigma}: mean accuracy {np.mean(accs):.4f} over {args.trials} trials")
    csv = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(csv, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(csv, end="")
    return 0


def _cmd_depth_sweep(args) -> int:
    cfg, train_set, test_set = _config_and_splits(args)
    depths = [int(d) for d in args.depths.split(",") if d.strip()]
    distances = cfg.distances
    table = depth_sweep(
        depths,
        train_set.images,
        train_set.labels,
        test_set.images,
        test_set.labels,
        cfg.detector_layout,
        cfg.train_config,
        cfg.grid,
        distances[0],
        network_seed=cfg["network.seed"],
        encode=cfg.encode_spec,
    )
    print("depth,accuracy")
    for depth, acc in table:
        print(f"{depth},{acc:.4f}")
    out_dir = Path(cfg["paths.out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "depth_sweep.csv"
    csv_path.write_text(
        "depth,accuracy\n" + "".join(f"{d},{a:.6f}\n" for d, a in table),
        encoding="utf-8",
    )
    print(f"wrote {csv_path}")
    return 0


def _cmd_demo(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.scene == "gaussian":
        for factor in (0.5, 1.0, 2.0):
            res = gaussian_scene(args.distance * factor)
            print(
                f"z={res.distance*1e3:.2f}mm: measured 1/e^2 radius "
                f"{res.measured_radius*1e6:.2f}um, analytic "
                f"{res.analytic_radius*1e6:.2f}um "
                f"({res.relative_error:.3%} off)"
            )
        res = gaussian_scene(args.distance)
        write_field_image(res.input_field, out_dir / "gaussian_input.pgm")
        write_field_image(res.output_field, out_dir / "gaussian_output.pgm")
        print(f"wrote PGM images to {out_dir}")
    else:
        for sep in (32, 16):
            res = double_slit_scene(args.distance, separation_pixels=sep)
            print(
                f"separation {sep}px: measured fringe period "
                f"{res.measured_period*1e6:.2f}um, analytic (wavelength*d/a) "
                f"{res.analytic_period*1e6:.2f}um ({res.error_pixels:.3f}px off)"
            )
        res = double_slit_scene(args.distance)
        write_field_image(res.input_field, out_dir / "double_slit_input.pgm")
        write_field_image(res.output_field, out_dir / "double_slit_output.pgm")
        print(f"wrote PGM images to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="donn",
        description="Diffractive optical network trainer and realization toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a network from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--seed", type=int, help="override train.seed")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a test set")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="directory with IDX test files")
    p.add_argument("--limit", type=int, default=0, help="evaluate only the first N")
    p.add_argument("--csv", help="confusion matrix CSV path")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("realize", help="record, reconstruct, and fabricate layers")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.set_defaults(fn=_cmd_realize)

    p = sub.add_parser("perturb", help="accuracy under random phase noise")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--sigma", required=True, help="noise sigma in radians, comma list")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--data", required=True, help="directory with IDX test files")
    p.add_argument("--limit", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(fn=_cmd_perturb)

    p = sub.add_parser("depth-sweep", help="train one network per depth")
    p.add_argument("--config", required=True)
    p.add_argument("--depths", required=True, help="comma list, e.g. 1,2,3")
    p.add_argument("--seed", type=int, help="override train.seed")
    p.set_defaults(fn=_cmd_depth_sweep)

    p = sub.add_parser("demo", help="run an analytic-oracle scene")
    p.add_argument("--scene", choices=("gaussian", "double-slit"), required=True)
    p.add_argument("--distance", type=float, required=True, help="meters")
    p.add_argument("--out", default=".", help="output directory for PGM images")
    p.set_defaults(fn=_cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError, IndexError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
