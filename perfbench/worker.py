"""One process of a benchmark run: a set-up, or the measured phase.

    python3 perfbench/worker.py setup   --workload W --seed N --dir D
    python3 perfbench/worker.py measure --workload W --dir D --seconds S --trace 0|1

Both drive the program through ``skipdiff.cli.main`` in this process, with
the same arguments a user would type, and write their findings to
``D/setup.json`` or ``D/measure.json`` for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import refmetrics  # noqa: E402

WORKLOADS = ("train-meta", "train-fixed", "generate-mbr")

# The sort task of the repository's acceptance study (tests/conftest.py:
# SORT_E_CFG / SORT_S_CFG): 16 symbols, sentences of 8, 256 training and 128
# held-out pairs.
VOCAB = [f"w{i:02d}" for i in range(16)]
# rounding may also land on the reserved UNK and SEP rows (PAD and EOS end
# a sentence)
OUTPUT_TOKENS = set(VOCAB) | {"<unk>", "<sep>"}
SENTENCE_LEN = 8
TRAIN_SIZE = 256
HELDOUT_SIZE = 128
PROGRAM_SETTINGS = ["--set", "model_dim=32", "--set", "T=64", "--set", "max_len=20",
                    "--set", "ffn_mult=2", "--set", "lr_exploiter=0.002",
                    "--set", "sched_hidden=16"]
EXPLORATION_EPOCHS = 4       # the program's default E
TRAIN_SEED = "11"            # program seed
TRAIN_CORPUS_SEED = 99
GEN_SEED = "7"
GEN_STEPS = "16"
MBR_SIZE = 5
GENERATE_REPEATS = 3         # generate commands after each train command
# Optimizer steps of one train command in the train-* workloads (50 epochs:
# five scheduler rounds and seven evaluations; fewer leave the final BLEU
# within noise of the initial one), and of the checkpoint that the
# generate-mbr set-up trains (10 epochs).
TRAIN_STEPS = 400
CHECKPOINT_STEPS = 80


def make_corpus(seed: int, directory: Path) -> None:
    """The training corpus from a fixed seed, the held-out one from ``seed``.

    Every run trains the same model, so a workload's held-out scores move
    across seeds only with what the held-out sentences ask; a training
    corpus drawn from the seed too moved the final BLEU of the policy arm
    by a third between seeds at 400 steps.
    """
    for name, size, corpus_seed in (("train", TRAIN_SIZE, TRAIN_CORPUS_SEED),
                                    ("heldout", HELDOUT_SIZE, seed)):
        rng = random.Random(corpus_seed)
        with open(directory / f"{name}.jsonl", "w", encoding="utf-8") as fh:
            for _ in range(size):
                src = [rng.choice(VOCAB) for _ in range(SENTENCE_LEN)]
                row = {"src": " ".join(src), "trg": " ".join(sorted(src))}
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def checkpoint_payload(path: Path) -> bytes:
    """Weight bytes of a checkpoint: magic, version, header length, header."""
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[8:16], "little")
    return raw[16 + header_len:]


class Session:
    """Program commands issued in this process and the checks that failed.

    A command fails if it exits non-zero or a check on its output fails;
    a check counts against the command run last.
    """

    def __init__(self):
        self.commands = 0
        self.failed_commands: set[int] = set()
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failed_commands)

    def run(self, argv: list[str]) -> tuple[bool, str, float]:
        """One in-process CLI command: (exit code 0, its stdout, seconds)."""
        from skipdiff.cli import main
        self.commands += 1
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = main(argv)
        except Exception:           # a crash of the program is a failed command
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - start
        if code != 0:
            self.fail(f"skipdiff {argv[0]} exited with {code}")
        return code == 0, out.getvalue(), seconds

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed_commands.add(self.commands)
        self.problems.append(what)
        print(f"check failed: {what}", file=sys.stderr)


def train_argv(directory: Path, out: Path, steps: int, fixed: bool) -> list[str]:
    argv = ["train", "--data", str(directory / "train.jsonl"),
            "--val-data", str(directory / "heldout.jsonl"), "--out", str(out),
            "--seed", TRAIN_SEED, "--max-steps", str(steps), "--epochs", "1000000",
            *PROGRAM_SETTINGS]
    return argv + ["--fixed-sqrt"] if fixed else argv


# -- train-* ---------------------------------------------------------------

def check_train_log(s: Session, run: Path, steps: int, fixed: bool) -> dict:
    """Checks on one train run directory; returns its final held-out scores."""
    events = read_jsonl(run / "log.jsonl")
    epochs = [e for e in events if e["event"] == "epoch"]
    losses = [e["loss"] for e in epochs]
    s.check(bool(losses) and all(isinstance(x, float) and math.isfinite(x)
                                 for x in losses), "an epoch loss is not finite")
    s.check(len(losses) > 1 and losses[-1] < losses[0],
            "the last epoch loss is not below the first")
    s.check(bool(epochs) and epochs[-1]["steps_done"] == steps,
            f"steps_done differs from the budget {steps}")
    init = [e for e in events if e["event"] == "init_eval"]
    final = [e for e in events if e["event"] == "final_eval"]
    if not s.check(len(init) == 1 and len(final) == 1, "init_eval or final_eval missing"):
        return {"BLEU": 0.0, "ROUGE-L": 0.0}
    for metric in ("BLEU", "ROUGE-L"):
        s.check(0.0 <= final[0][metric] <= 1.0, f"final {metric} outside [0, 1]")
        s.check(final[0][metric] > init[0][metric],
                f"final {metric} does not exceed the initial {metric}")

    records = [e for e in events if e["event"] == "exploration"]
    updates = [e for e in events if e["event"] == "scheduler_update"]
    ckpt = run / "checkpoints"
    same_policy = (checkpoint_payload(ckpt / "scheduler-0.bin")
                   == checkpoint_payload(ckpt / "scheduler-final.bin"))
    if fixed:
        s.check(not records and not updates, "the fixed-schedule arm explored")
        s.check(same_policy, "the fixed-schedule arm changed the policy weights")
        return final[0]
    # one scheduler round every 10 epochs (the default period), from epoch 0
    s.check(len(updates) == (len(epochs) + 9) // 10,
            f"{len(updates)} scheduler rounds for {len(epochs)} epochs")
    for update in updates:
        mine = [r for r in records if r["round"] == update["round"]]
        s.check([r["e"] for r in mine] == list(range(EXPLORATION_EPOCHS)),
                f"round {update['round']} logged {len(mine)} exploration records")
        for r in mine:
            s.check(0.0 <= r["r_before"] <= 1.0 and 0.0 <= r["r_after"] <= 1.0,
                    "a probe reward lies outside [0, 1]")
            s.check(r["r_meta"] == r["r_after"] - r["r_before"],
                    "r_meta differs from r_after - r_before")
    s.check(not same_policy, "the scheduler rounds left the policy weights unchanged")
    return final[0]


def check_generations(s: Session, rows: list[dict], heldout: list[dict],
                      size: int) -> list[list[str]]:
    """Checks on a generate output; returns the picks, tokenized."""
    s.check([r.get("src") for r in rows] == [h["src"] for h in heldout],
            "generate output is not aligned with its sources")
    picks = []
    for row in rows:
        candidates = [c.split() for c in row["candidates"]]
        gen = row["gen"].split()
        s.check(len(candidates) == size, f"a row holds {len(candidates)} candidates")
        s.check(all(t in OUTPUT_TOKENS for c in candidates for t in c),
                "a generated token is outside the vocabulary")
        s.check(gen == candidates[refmetrics.mbr_pick(candidates)],
                "a pick is not the MBR consensus candidate")
        picks.append(gen)
    return picks


def train_round(s: Session, directory: Path, fixed: bool, state: dict) -> dict:
    run = directory / "train-run"
    shutil.rmtree(run, ignore_errors=True)
    ok, _, train_s = s.run(train_argv(directory, run, TRAIN_STEPS, fixed))
    scores = check_train_log(s, run, TRAIN_STEPS, fixed) if ok else {}
    log_bytes = (run / "log.jsonl").read_bytes() if ok else b""
    s.check(state.setdefault("log", log_bytes) == log_bytes,
            "a repeated train command wrote a different log.jsonl")
    # step 2 of the README workflow on the checkpoint just trained, repeated
    # so that its timing covers more than one short call
    gen = directory / "generations.jsonl"
    policy = ["--fixed-sqrt"] if fixed else [
        "--scheduler", str(run / "checkpoints" / "scheduler-final.bin")]
    gen_times, first = [], None
    for _ in range(GENERATE_REPEATS):
        ok, _, gen_s = s.run(["generate", "--exploiter",
                              str(run / "checkpoints" / "exploiter-final.bin"), *policy,
                              "--src", str(directory / "heldout.jsonl"),
                              "--out", str(gen), "--mbr", str(MBR_SIZE),
                              "--steps", GEN_STEPS, "--seed", GEN_SEED])
        gen_times.append(gen_s)
        if ok:
            check_generations(s, read_jsonl(gen), read_jsonl(directory / "heldout.jsonl"),
                              MBR_SIZE)
            first = first or gen.read_bytes()
            s.check(gen.read_bytes() == first,
                    "a second generate with the same seed wrote a different file")
    return {"wall_s": train_s + sum(gen_times), "train_steps_per_s": TRAIN_STEPS / train_s,
            "gen_sentences_per_s": HELDOUT_SIZE / statistics.median(gen_times),
            "heldout_bleu": scores.get("BLEU", 0.0),
            "heldout_rouge_l": scores.get("ROUGE-L", 0.0)}


# -- generate-mbr ----------------------------------------------------------

def checkpoint_files(directory: Path) -> list[Path]:
    ckpt = directory / "checkpoint-run" / "checkpoints"
    return [ckpt / "exploiter-final.bin", ckpt / "scheduler-final.bin"]


def generate_round(s: Session, directory: Path, state: dict) -> dict:
    exploiter, scheduler = checkpoint_files(directory)
    heldout = read_jsonl(directory / "heldout.jsonl")
    gen = directory / "generations.jsonl"
    report = directory / "report.json"
    ok, _, gen_s = s.run(["generate", "--exploiter", str(exploiter),
                          "--scheduler", str(scheduler),
                          "--src", str(directory / "heldout.jsonl"), "--out", str(gen),
                          "--mbr", str(MBR_SIZE), "--steps", GEN_STEPS,
                          "--seed", GEN_SEED])
    picks = check_generations(s, read_jsonl(gen), heldout, MBR_SIZE) if ok else []
    gen_bytes = gen.read_bytes() if ok else b""
    s.check(state.setdefault("generations", gen_bytes) == gen_bytes,
            "a second generate with the same seed wrote a different file")
    ok_eval, printed, eval_s = s.run(["evaluate", "--gen", str(gen), "--ref",
                                      str(directory / "heldout.jsonl"),
                                      "--out", str(report)])
    bleu = rouge = 0.0
    if ok and ok_eval:
        scores = json.loads(report.read_text(encoding="utf-8"))
        s.check(json.loads(printed) == scores, "evaluate printed another report")
        refs = [h["trg"].split() for h in heldout]
        bleu = refmetrics.corpus_bleu(picks, [[r] for r in refs])
        rouge = refmetrics.corpus_rouge_l(picks, refs)
        for name, mine in (("BLEU", bleu), ("ROUGE-L", rouge)):
            s.check(abs(scores[name] - mine) <= 1e-12,
                    f"evaluate {name} {scores[name]!r} differs from {mine!r}")
    s.check([sha256(p) for p in checkpoint_files(directory)] == state["checkpoints"],
            "a checkpoint changed during generation")
    return {"wall_s": gen_s + eval_s, "gen_sentences_per_s": HELDOUT_SIZE / gen_s,
            "heldout_bleu": bleu, "heldout_rouge_l": rouge}


# -- entry points ------------------------------------------------------------

def setup(workload: str, seed: int, directory: Path) -> dict:
    s = Session()
    make_corpus(seed, directory)
    found = {}
    if workload == "generate-mbr":
        run = directory / "checkpoint-run"
        shutil.rmtree(run, ignore_errors=True)
        ok, _, train_s = s.run(train_argv(directory, run, CHECKPOINT_STEPS, False))
        if ok:
            found = {"train_steps_per_s": CHECKPOINT_STEPS / train_s,
                     "checkpoints": [sha256(p) for p in checkpoint_files(directory)]}
    return {"commands": s.commands, "failed": s.failed, "problems": s.problems, **found}


def measure(workload: str, directory: Path, seconds: float, trace: bool) -> dict:
    s = Session()
    state: dict = {}
    if workload == "generate-mbr":
        state["checkpoints"] = [sha256(p) for p in checkpoint_files(directory)]
        min_rounds = 2          # the second generate is compared with the first
    else:
        min_rounds = 1
    tracer = None
    if trace:
        from tracing import Tracer, gen2_collections
        tracer = Tracer()
        tracer.install()
        gc_before = gen2_collections()
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        if workload == "generate-mbr":
            rounds.append(generate_round(s, directory, state))
        else:
            rounds.append(train_round(s, directory, workload == "train-fixed", state))
    out = {"commands": s.commands, "failed": s.failed, "problems": s.problems,
           "rounds": rounds,
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        wall = sum(r["wall_s"] for r in rounds)
        out["layers"] = tracer.report(wall, len(rounds), gen2_collections() - gc_before)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.phase == "setup":
        result = setup(args.workload, args.seed, args.dir)
    else:
        result = measure(args.workload, args.dir, args.seconds, bool(args.trace))
    (args.dir / f"{args.phase}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
