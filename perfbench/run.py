#!/usr/bin/env python3
"""Run one workload of the donn benchmark and print its metrics.

    python3 perfbench/run.py --workload {train,infer,realize} --seed N \\
        --seconds S --trace {0,1} [--quick]

Run it from the root of a source checkout: it imports ``donn`` from
``src/``. It writes the seeded synthetic digits for ``--seed`` as IDX
files under ``perfbench/.cache/data`` (kept for later runs with the same
seed), then starts the workload in a process of its own so that set-up
is timed cold. A traced run also leaves its spans under
``perfbench/.cache/spans``. The human-readable lines name the paper-facing metrics; the
last line of standard output is the JSON result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing in the process. With ``--trace 1`` they are the per-layer ones
from spans around the program's layers (see ``tracing.py``).
``--quick`` shrinks the inputs for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
DEADLINE_S = 175.0  # every run must end within 180 s

# The IDX inputs of each workload, as split: (count, count with --quick).
# ``brief`` trains the network that ``infer`` and ``realize`` use.
SPLITS = {
    "train": {"train": (1024, 256), "heldout": (500, 200)},
    "infer": {"brief": (512, 256), "infer": (1024, 256)},
    "realize": {"brief": (512, 256)},
}
# Each split has its own seed stream, derived from the run's seed.
SPLIT_STREAM = {"train": 0, "heldout": 1, "brief": 2, "infer": 3}


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=SPLITS)
    p.add_argument("--seed", required=True, type=_seed)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="tiny inputs, for the benchmark's tests")
    return p.parse_args(argv)


def describe(name: str, result: dict) -> list[str]:
    """The paper-facing names of the end-to-end numbers of ``name``."""
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if "unit_s" not in m:
        return []
    per_unit = {
        "train": ("train_samples_per_s", result["unit_items"] / m["unit_s"], "1/s"),
        "infer": ("eval_samples_per_s", result["unit_items"] / m["unit_s"], "1/s"),
        "realize": ("realize_s", m["unit_s"], "s"),
    }[name]
    return [
        f"{per_unit[0]} = {per_unit[1]:.4g} {per_unit[2]}",
        f"setup_s = {m['setup_s']:.4g} s",
        f"peak_rss_mb = {m['peak_rss_mb']:.4g} MB",
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    src = ROOT / "src"
    if not (src / "donn" / "__init__.py").is_file():
        print(f"error: no donn package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import digits

    data = {}
    for name, (count, quick_count) in SPLITS[args.workload].items():
        seed = args.seed * len(SPLIT_STREAM) + SPLIT_STREAM[name]
        paths = digits.ensure_split(CACHE / "data", name, quick_count if args.quick else count, seed)
        data[name] = [str(p) for p in paths]

    work = CACHE / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / "result.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]))
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--data", json.dumps(data), "--work-dir", str(work),
        "--result", str(result_path), "--spans", str(CACHE / "spans" / f"{args.workload}-seed{args.seed}.jsonl"),
    ]
    try:
        cmd += ["--spawned-at", repr(time.monotonic())]
        proc = subprocess.run(cmd, env=env, timeout=DEADLINE_S - (time.monotonic() - started))
        if proc.returncode != 0 or not result_path.is_file():
            print(f"error: workload {args.workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} overran {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in result.pop("notes") + describe(args.workload, result):
        print(line)
    result.pop("unit_items")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
