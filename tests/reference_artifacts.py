"""Run the reference commands into OUTDIR and print a hash of every artifact.

A change that claims to keep the package's bits runs this on the parent
checkout and on its own and diffs the two listings:

    python tests/reference_artifacts.py OUTDIR

The commands go through ``python -m creditnet.cli`` on the ``src/`` next to
this file: a 2,000-row synthetic CSV (``synth --n 2000 --n-features 6
--seed 4``), then ``train``, ``eval``, ``ablate``, ``sweep-lr`` and
``sweep-opt`` on it with the config ``{"train": {"epochs": 3}}`` and
``--seed 5``, ``importance --repeats 2`` on the trained checkpoint, ``report``
on the training run, and one more ``train`` whose encoder blocks run without
layer norm (``{"model": {"attn": {"layer_norm": false}}}`` added). They run
with OUTDIR as the working directory and relative paths, so no output names
OUTDIR.

Prints ``sha256[:12]  path`` for every file OUTDIR holds afterwards, in path
order, then one ``sha256[:12]  stdout: <command>`` line per command. A
``manifest.json`` is hashed with its ``wall_clock_seconds`` key removed (and
written back as the CLI writes JSON), so its resolved config is compared and
its wall time is not. A command that exits non-zero stops the run with its
stderr. This is a helper, not a test module: pytest does not collect it.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIGS = {
    "config.json": {"train": {"epochs": 3}},
    "config-bare.json": {"train": {"epochs": 3}, "model": {"attn": {"layer_norm": False}}},
}
DATA = ["--data", "synth.csv", "--seed", "5"]
TRAINED = ["--config", "config.json", *DATA]
CHECKPOINT = ["--checkpoint", "train/checkpoint.bin"]
COMMANDS = [
    ["synth", "--n", "2000", "--n-features", "6", "--seed", "4", "--out", "synth.csv"],
    ["train", *TRAINED, "--out", "train"],
    ["eval", *TRAINED, *CHECKPOINT, "--out", "eval"],
    ["ablate", *TRAINED, "--out", "ablate"],
    ["sweep-lr", *TRAINED, "--out", "sweep-lr"],
    ["sweep-opt", *TRAINED, "--out", "sweep-opt"],
    ["importance", *TRAINED, *CHECKPOINT, "--repeats", "2", "--out", "importance"],
    ["report", "--run", "train"],
    ["train", "--config", "config-bare.json", *DATA, "--out", "train-bare"],
]


def short_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def artifact_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name != "manifest.json":
        return data
    manifest = json.loads(data)
    del manifest["wall_clock_seconds"]
    return (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode()


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tests/reference_artifacts.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    for name, config in CONFIGS.items():
        (outdir / name).write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    stdouts = []
    for command in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "creditnet.cli", *command],
                              cwd=outdir, env=env, capture_output=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode(errors="replace"))
            print(f"exit {done.returncode}: {' '.join(command)}", file=sys.stderr)
            return 1
        stdouts.append((short_hash(done.stdout), " ".join(command)))
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        print(f"{short_hash(artifact_bytes(path))}  {path.relative_to(outdir).as_posix()}")
    for digest, command in stdouts:
        print(f"{digest}  stdout: {command}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
