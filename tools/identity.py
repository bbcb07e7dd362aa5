"""Check that two source trees of skipdiff write byte-identical outputs.

    python3 tools/identity.py TREE_A TREE_B

Runs one fixed set of commands on each tree, each command in a fresh
process with ``OPENBLAS_NUM_THREADS=1`` and ``PYTHONPATH`` set to the
tree's ``src``, inside a temporary work directory per tree:

- ``train`` with the policy and with ``--fixed-sqrt``; ``--max-steps``
  stops both in the middle of an epoch, and the sources have mixed lengths;
- a ``train`` with ``checkpoint_every=1``;
- ``generate --mbr 5 --steps 16`` with the policy and with ``--fixed-sqrt``;
- ``evaluate``, and ``evaluate --systems --rank-csv``;
- ``export-schedule``, ``analyze-difficulty`` and ``plug-and-play --report``;
- ``generate`` and ``plug-and-play`` over sources that hold words missing
  from the vocabulary;
- ``train`` and ``generate`` with ``--tokenizer char``;
- ``train`` with a pair too long for ``max_len`` and ``generate`` with a
  source too long for it, both expected to exit 2;
- ``--help`` of the program and of every subcommand.

It then compares every file the commands wrote, plus each command's exit
code, stdout and stderr with the work directory masked. It prints each file
that differs and exits 1 on any difference (or on a command that exited
with another code than expected), 0 when everything is identical.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SUBCOMMANDS = ("train", "generate", "evaluate", "analyze-difficulty",
               "plug-and-play", "export-schedule")

MODEL = ["--set", "layers=1", "--set", "model_dim=16", "--set", "T=16",
         "--set", "max_len=20", "--set", "ffn_mult=2", "--set", "sched_hidden=8",
         "--set", "total_batch=16", "--set", "period=2", "--set", "eval_every=2"]
TRAIN = ["train", "--data", "train.jsonl", "--val-data", "heldout.jsonl",
         "--seed", "11", "--steps", "4", *MODEL]
META = "run-meta/checkpoints"
FIXED = "run-fixed/checkpoints"

# (name, argv); every command must exit 0 but those in EXIT_2. 64 training
# pairs in batches of 16 are 4 steps an epoch, so 22 steps stop in the
# middle of the sixth.
COMMANDS = [
    ("train-meta", [*TRAIN, "--out", "run-meta", "--max-steps", "22"]),
    ("train-fixed", [*TRAIN, "--out", "run-fixed", "--max-steps", "22",
                     "--fixed-sqrt"]),
    ("train-checkpoints", [*TRAIN, "--out", "run-ckpt", "--epochs", "3",
                           "--set", "checkpoint_every=1"]),
    ("generate-meta", ["generate", "--exploiter", f"{META}/exploiter-final.bin",
                       "--scheduler", f"{META}/scheduler-final.bin",
                       "--src", "heldout.jsonl", "--out", "gen-meta.jsonl",
                       "--mbr", "5", "--steps", "16", "--seed", "7"]),
    ("generate-fixed", ["generate", "--exploiter", f"{FIXED}/exploiter-final.bin",
                        "--fixed-sqrt", "--src", "heldout.jsonl",
                        "--out", "gen-fixed.jsonl", "--mbr", "5", "--steps", "16",
                        "--seed", "7"]),
    ("evaluate", ["evaluate", "--gen", "gen-meta.jsonl", "--ref", "heldout.jsonl",
                  "--out", "eval.json"]),
    ("evaluate-systems", ["evaluate", "--systems", "systems.csv",
                          "--rank-csv", "ranks.csv", "--out", "systems.json"]),
    ("export-schedule", ["export-schedule", "--scheduler",
                         f"{META}/scheduler-final.bin", "--src", "heldout.jsonl",
                         "--out", "schedules.csv"]),
    ("analyze-difficulty", ["analyze-difficulty", "--gen", "gen-meta.jsonl",
                            "--ref", "heldout.jsonl", "--scheduler",
                            f"{META}/scheduler-final.bin", "--k", "4",
                            "--out", "difficulty.csv"]),
    ("plug-and-play", ["plug-and-play", "--scheduler", f"{META}/scheduler-final.bin",
                       "--exploiter", f"{FIXED}/exploiter-final.bin",
                       "--src", "heldout.jsonl", "--ref", "heldout.jsonl",
                       "--out", "pp.jsonl", "--report", "pp.json",
                       "--mbr", "3", "--steps", "8", "--seed", "3"]),
    ("generate-unk", ["generate", "--exploiter", f"{META}/exploiter-final.bin",
                      "--scheduler", f"{META}/scheduler-final.bin",
                      "--src", "unk.jsonl", "--out", "gen-unk.jsonl",
                      "--mbr", "2", "--steps", "8", "--seed", "5"]),
    ("plug-and-play-unk", ["plug-and-play", "--scheduler", f"{META}/scheduler-final.bin",
                           "--exploiter", f"{FIXED}/exploiter-final.bin",
                           "--src", "unk.jsonl", "--ref", "unk.jsonl",
                           "--out", "pp-unk.jsonl", "--report", "pp-unk.json",
                           "--steps", "8", "--seed", "3"]),
    ("train-char", ["train", "--data", "chars.jsonl", "--val-data", "chars.jsonl",
                    "--seed", "11", "--steps", "4", *MODEL, "--set", "tokenizer=char",
                    "--out", "run-char", "--max-steps", "6"]),
    ("generate-char", ["generate", "--exploiter", "run-char/checkpoints/exploiter-final.bin",
                       "--scheduler", "run-char/checkpoints/scheduler-final.bin",
                       "--src", "chars.jsonl", "--out", "gen-char.jsonl",
                       "--tokenizer", "char", "--mbr", "2", "--steps", "8"]),
    ("train-too-long", ["train", "--data", "long.jsonl", "--val-data", "heldout.jsonl",
                        "--seed", "11", *MODEL, "--out", "run-long"]),
    ("generate-too-long", ["generate", "--exploiter", f"{FIXED}/exploiter-final.bin",
                           "--fixed-sqrt", "--src", "long.jsonl", "--out", "gen-long.jsonl"]),
    ("help", ["--help"]),
    *[(f"help-{sub}", [sub, "--help"]) for sub in SUBCOMMANDS],
]

# commands whose input does not fit ``max_len``
EXIT_2 = {"train-too-long", "generate-too-long"}

SYSTEMS_CSV = """method,metric,value
DiffuSeq,BLEU,0.31
DiffuSeq,ROUGE-L,0.52
Meta-DiffuB,BLEU,0.33
Meta-DiffuB,ROUGE-L,0.52
Meta-DiffuB,Self-BLEU,-
GPT2,BLEU,0.33
GPT2,Self-BLEU,0.7
"""


def write_inputs(work: Path) -> None:
    """The sort task on 16 symbols, with sources of 4 to 8 tokens: 64
    training and 48 held-out pairs. The sampler caps a row block at 40
    rows at this config, so each generation over the held-out sources
    runs in two blocks. Also: 12 held-out sources with words ``w16`` to
    ``w19`` that no training pair holds; the sort task on 6 letters,
    tokenized by character; and 8 pairs whose sixth source of 19 tokens
    fits ``max_len`` 20 neither as a training pair nor as a source."""
    rng = random.Random(5)
    rows = []
    for _ in range(112):
        src = [f"w{rng.randrange(16):02d}" for _ in range(rng.randint(4, 8))]
        rows.append('{"src": "%s", "trg": "%s"}\n'
                    % (" ".join(src), " ".join(sorted(src))))
    unk = []
    for _ in range(12):
        src = [f"w{rng.randrange(20):02d}" for _ in range(rng.randint(4, 8))]
        unk.append('{"src": "%s", "trg": "%s"}\n' % (" ".join(src), " ".join(sorted(src))))
    chars = []
    for _ in range(32):
        src = [rng.choice("abcdef") for _ in range(rng.randint(3, 8))]
        chars.append('{"src": "%s", "trg": "%s"}\n' % ("".join(src), "".join(sorted(src))))
    long = rows[:5] + ['{"src": "%s", "trg": "w00"}\n' % " ".join(["w01"] * 19)] + rows[5:7]
    (work / "train.jsonl").write_text("".join(rows[:64]))
    (work / "heldout.jsonl").write_text("".join(rows[64:]))
    (work / "unk.jsonl").write_text("".join(unk))
    (work / "chars.jsonl").write_text("".join(chars))
    (work / "long.jsonl").write_text("".join(long))
    (work / "systems.csv").write_text(SYSTEMS_CSV)


def run_tree(tree: Path, work: Path) -> list[str]:
    """Run every command on ``tree`` in ``work``; returns the failures."""
    write_inputs(work)
    logs = work / "_commands"
    logs.mkdir()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree / "src"))
    failures = []
    for i, (name, argv) in enumerate(COMMANDS):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from skipdiff.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv], cwd=work, env=env, capture_output=True, text=True)
        for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            masked = text.replace(str(work), "<WORK>").replace(str(tree), "<TREE>")
            (logs / f"{i:02d}-{name}.{stream}").write_text(
                masked + f"[exit {proc.returncode}]\n" * (stream == "stdout"))
        if proc.returncode != (2 if name in EXIT_2 else 0):
            failures.append(f"{tree}: {name} exited {proc.returncode}: "
                            f"{proc.stderr.strip().splitlines()[-1:]}")
    return failures


def files_of(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/identity.py TREE_A TREE_B", file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in args]
    for tree in trees:
        if not (tree / "src" / "skipdiff" / "cli.py").is_file():
            print(f"{tree}: no src/skipdiff/cli.py", file=sys.stderr)
            return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="skipdiff-identity-") as tmp:
        works = [Path(tmp) / "a", Path(tmp) / "b"]
        for work in works:
            work.mkdir()
        with ThreadPoolExecutor(max_workers=2) as pool:
            failures = sum(pool.map(run_tree, trees, works), [])
        a, b = (files_of(work) for work in works)
    differ = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
    for line in failures:
        print(f"FAILED {line}")
    for name in differ:
        where = "" if name in a and name in b else (
            f" (only in {'A' if name in a else 'B'})")
        print(f"DIFFERS {name}{where}")
    print(f"{len(a.keys() | b.keys())} files compared, {len(differ)} differ, "
          f"{len(failures)} commands failed, {time.perf_counter() - start:.1f} s")
    return 1 if differ or failures else 0


if __name__ == "__main__":
    sys.exit(main())
