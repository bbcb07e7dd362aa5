"""Minor page faults, time and peak memory of one skipdiff tree's train step
and MBR generation.

    python3 tools/stepfaults.py TREE [--steps N]

Each part runs in a fresh process with ``OPENBLAS_NUM_THREADS=1`` and
``PYTHONPATH`` set to the tree's ``src``, at the benchmark's config
(``model_dim=32 T=64 max_len=20 ffn_mult=2``, batch 32) on the sort corpus
drawn with ``random.Random(99)`` (256 pairs of 8 symbols):

- ``train --fixed-sqrt --max-steps N`` without held-out data, so the loop
  runs train steps only. Each step is split at the calls it makes:
  forward (``diffusion_loss`` up to its backward pass), backward (the
  backward pass up to the return of ``diffusion_loss``, which includes
  releasing the step's graph) and optimizer (``AdaptiveSGD.step``); the
  rest of the loop counts as "between". Faults come from ``getrusage``.
  After the loop, the inputs of train step ``GRAPH_STEP`` run through
  ``diffusion_loss`` once more under ``tracemalloc``, which gives the live
  graph when the forward pass ends (traced memory at the call to backward),
  the step's traced peak and the number of nodes on its tape.
- one ``generate --fixed-sqrt --mbr 5 --steps 16`` over 128 held-out
  sources (``random.Random(1)``) with the checkpoint that run wrote. The
  same command then runs once more under ``tracemalloc``, which gives its
  traced peak.
- one ``generate --fixed-sqrt --mbr 1 --steps 16`` over ``LARGE_SOURCES``
  sources (``random.Random(2)``) with that checkpoint, for its peak RSS,
  its seconds and the SHA-256 of the file it wrote, which two trees that
  generate the same bytes share.
- a session as a benchmark round runs it: ``train --fixed-sqrt --max-steps
  400`` (``SESSION_STEPS``) with the held-out data (so its evaluations
  sample too), then three such generates with the checkpoint it wrote, all
  in one process. Each command's faults and seconds are reported, so a
  generate that pays for the heap the train left shows against the cold
  one above.
- the 128-source ``generate --fixed-sqrt --mbr 5 --steps 16`` once with the
  process's affinity set to its first CPU, which runs generation inline,
  and once on every CPU it may use, which shares the rows among worker
  processes; each with its seconds and the SHA-256 of the file it wrote,
  which must agree.

Peak RSS is the process's ``ru_maxrss``, interpreter and imports included.
The workers' peak is the largest ``ru_maxrss`` of the worker processes the
part's commands forked (``RUSAGE_CHILDREN``, read once the commands have
joined them): memory that generation moved out of the parent shows there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

VOCAB = [f"w{i:02d}" for i in range(16)]
SETTINGS = ["--set", "model_dim=32", "--set", "T=64", "--set", "max_len=20",
            "--set", "ffn_mult=2", "--set", "lr_exploiter=0.002",
            "--set", "sched_hidden=16"]
SESSION_STEPS = 400
LARGE_SOURCES = 2048
GRAPH_STEP = 1                 # 0-based; the last step when the run is shorter


def write_corpus(path: Path, size: int, seed: int) -> None:
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(size):
            src = [rng.choice(VOCAB) for _ in range(8)]
            fh.write(json.dumps({"src": " ".join(src), "trg": " ".join(sorted(src))},
                                sort_keys=True) + "\n")


def faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def workers_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def graph_figures(loss_args: list, exploiter) -> dict:
    """Live graph after the forward pass, traced peak and tape nodes of one
    ``diffusion_loss`` call, in MiB of memory traced from the call on."""
    seen = {}
    original = exploiter.backward

    def at_backward(tape, loss):
        seen["live"] = tracemalloc.get_traced_memory()[0]
        seen["nodes"] = len(tape.nodes)
        return original(tape, loss)

    exploiter.backward = at_backward
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        exploiter.diffusion_loss(*loss_args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        exploiter.backward = original
    return {"live_mib": (seen["live"] - base) / 2**20, "peak_mib": (peak - base) / 2**20,
            "tape_nodes": seen["nodes"]}


def child_train(work: Path, steps: int) -> dict:
    """Run the train command with each step's three phases metered, then
    replay one step's ``diffusion_loss`` for ``graph_figures``."""
    from skipdiff import exploiter, optim, training
    from skipdiff.cli import main
    from skipdiff.rng import RngStream

    phases = {"forward": [], "backward": [], "optimizer": []}
    marks = {}                     # fault and clock readings of the open step
    replay = []                    # the arguments of step GRAPH_STEP

    def loss_fn(original):
        def wrapper(*args, **kwargs):
            if len(phases["forward"]) == min(GRAPH_STEP, steps - 1):
                # the step advances its stream, so replay from a copy
                replay.extend(RngStream(a.seed, a.position) if isinstance(a, RngStream)
                              else a for a in args)
            marks.setdefault("first", (faults(), time.perf_counter()))
            marks["start"] = faults()
            out = original(*args, **kwargs)
            phases["forward"].append(marks["backward"] - marks["start"])
            phases["backward"].append(faults() - marks["backward"])
            return out
        return wrapper

    def backward_fn(original):
        def wrapper(*args, **kwargs):
            marks["backward"] = faults()
            return original(*args, **kwargs)
        return wrapper

    def step_fn(original):
        def wrapper(self, *args, **kwargs):
            before = faults()
            out = original(self, *args, **kwargs)
            marks["last"] = (faults(), time.perf_counter())
            phases["optimizer"].append(marks["last"][0] - before)
            return out
        return wrapper

    training.diffusion_loss = loss_fn(training.diffusion_loss)
    exploiter.backward = backward_fn(exploiter.backward)
    optim.AdaptiveSGD.step = step_fn(optim.AdaptiveSGD.step)
    code = main(["train", "--data", str(work / "train.jsonl"), "--out",
                 str(work / "run"), "--seed", "11", "--fixed-sqrt",
                 "--max-steps", str(steps), "--epochs", "1000000", *SETTINGS])
    if code != 0 or len(phases["optimizer"]) != steps:
        raise SystemExit(f"train exited {code} after {len(phases['optimizer'])} "
                         f"of {steps} steps")
    total = marks["last"][0] - marks["first"][0]
    between = total - sum(sum(values) for values in phases.values())
    return {"phases": phases, "between": between / steps, "total": total / steps,
            "ms": 1000.0 * (marks["last"][1] - marks["first"][1]) / steps,
            "peak_rss_mib": peak_rss_mib(), "workers_peak_rss_mib": workers_peak_rss_mib(),
            "graph": graph_figures(replay, exploiter)}


def generate_argv(work: Path, src: str, out: str, mbr: int) -> list[str]:
    return ["generate", "--exploiter", str(work / "run/checkpoints/exploiter-final.bin"),
            "--fixed-sqrt", "--src", str(work / src), "--out", str(work / out),
            "--mbr", str(mbr), "--steps", "16", "--seed", "7"]


def child_generate(work: Path) -> dict:
    from skipdiff.cli import main
    argv = generate_argv(work, "heldout.jsonl", "gen.jsonl", 5)
    before, start = faults(), time.perf_counter()
    code = main(argv)
    if code != 0:
        raise SystemExit(f"generate exited {code}")
    result = {"faults": faults() - before, "ms": 1000.0 * (time.perf_counter() - start),
              "peak_rss_mib": peak_rss_mib(), "workers_peak_rss_mib": workers_peak_rss_mib()}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        if main(argv) != 0:
            raise SystemExit("generate under tracemalloc failed")
        result["traced_peak_mib"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    return result


def child_large(work: Path) -> dict:
    from skipdiff.cli import main
    start = time.perf_counter()
    code = main(generate_argv(work, "large.jsonl", "gen-large.jsonl", 1))
    if code != 0:
        raise SystemExit(f"generate exited {code}")
    return {"s": time.perf_counter() - start, "peak_rss_mib": peak_rss_mib(),
            "workers_peak_rss_mib": workers_peak_rss_mib(),
            "sha256": hashlib.sha256((work / "gen-large.jsonl").read_bytes()).hexdigest()}


def child_cpus(work: Path) -> dict:
    from skipdiff.cli import main
    cpus = len(os.sched_getaffinity(0))
    out = f"gen-cpus{cpus}.jsonl"
    start = time.perf_counter()
    code = main(generate_argv(work, "heldout.jsonl", out, 5))
    if code != 0:
        raise SystemExit(f"generate exited {code}")
    return {"cpus": cpus, "s": time.perf_counter() - start,
            "sha256": hashlib.sha256((work / out).read_bytes()).hexdigest()}


def child_session(work: Path) -> dict:
    from skipdiff.cli import main
    out = work / "session"
    commands = [["train", "--data", str(work / "train.jsonl"), "--val-data",
                 str(work / "heldout.jsonl"), "--out", str(out), "--seed", "11",
                 "--fixed-sqrt", "--max-steps", str(SESSION_STEPS), "--epochs", "1000000",
                 *SETTINGS]]
    commands += [["generate", "--exploiter", str(out / "checkpoints/exploiter-final.bin"),
                  "--fixed-sqrt", "--src", str(work / "heldout.jsonl"),
                  "--out", str(work / f"session-gen{i}.jsonl"), "--mbr", "5",
                  "--steps", "16", "--seed", "7"] for i in range(3)]
    rows = []
    for argv in commands:
        before, start = faults(), time.perf_counter()
        code = main(argv)
        if code != 0:
            raise SystemExit(f"{argv[0]} exited {code}")
        rows.append({"command": argv[0], "faults": faults() - before,
                     "s": time.perf_counter() - start})
    return {"commands": rows, "peak_rss_mib": peak_rss_mib(),
            "workers_peak_rss_mib": workers_peak_rss_mib()}


def run_child(tree: Path, work: Path, part: str, steps: int,
              cpus: set[int] | None = None) -> dict:
    """One part in a fresh process, on the CPUs ``cpus`` if given."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, __file__, "--child", part, "--work",
                           str(work), "--steps", str(steps), str(tree)],
                          env=env, capture_output=True, text=True,
                          preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None)
    if proc.returncode != 0:
        raise SystemExit(f"{part} on {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(tree: Path, steps: int, train: dict, gen: dict, large: dict,
           session: dict, by_cpus: list[dict]) -> str:
    lines = [f"tree {tree}: train --fixed-sqrt, {steps} steps, batch 32, "
             f"model_dim=32 T=64 max_len=20 ffn_mult=2, OPENBLAS_NUM_THREADS=1",
             "  minor faults per step (mean / median):"]
    for name, values in train["phases"].items():
        lines.append(f"    {name:<10} {statistics.mean(values):8.1f} / "
                     f"{statistics.median(values):8.1f}")
    lines += [f"    {'between':<10} {train['between']:8.1f}",
              f"    {'total':<10} {train['total']:8.1f}",
              f"  ms per step: {train['ms']:.2f}",
              f"  peak RSS: {train['peak_rss_mib']:.1f} MiB",
              f"  workers' peak RSS: {train['workers_peak_rss_mib']:.1f} MiB",
              f"  step {min(GRAPH_STEP, steps - 1)} replayed under tracemalloc: "
              f"live graph after forward {train['graph']['live_mib']:.2f} MiB, "
              f"traced peak {train['graph']['peak_mib']:.2f} MiB, "
              f"{train['graph']['tape_nodes']} tape nodes",
              "generate --fixed-sqrt --mbr 5 --steps 16, 128 sources:",
              f"  minor faults: {gen['faults']}",
              f"  ms: {gen['ms']:.0f}",
              f"  peak RSS: {gen['peak_rss_mib']:.1f} MiB",
              f"  workers' peak RSS: {gen['workers_peak_rss_mib']:.1f} MiB",
              f"  run again under tracemalloc: traced peak "
              f"{gen['traced_peak_mib']:.2f} MiB",
              f"generate --fixed-sqrt --mbr 1 --steps 16, {LARGE_SOURCES} sources:",
              f"  s: {large['s']:.2f}",
              f"  peak RSS: {large['peak_rss_mib']:.1f} MiB",
              f"  workers' peak RSS: {large['workers_peak_rss_mib']:.1f} MiB",
              f"  output sha256: {large['sha256']}",
              f"one process: train --fixed-sqrt, {SESSION_STEPS} steps with "
              f"evaluations, then three such generates:"]
    for row in session["commands"]:
        lines.append(f"  {row['command']:<9} minor faults {row['faults']:8d}  "
                     f"s {row['s']:7.2f}")
    lines += [f"  peak RSS: {session['peak_rss_mib']:.1f} MiB",
              f"  workers' peak RSS: {session['workers_peak_rss_mib']:.1f} MiB",
              "generate --fixed-sqrt --mbr 5 --steps 16, 128 sources, by CPU count:"]
    for row in by_cpus:
        lines.append(f"  {row['cpus']} CPU(s): s {row['s']:.2f}  output sha256 {row['sha256']}")
    same = len({row["sha256"] for row in by_cpus}) == 1
    lines.append(f"  same bytes: {'yes' if same else 'NO'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--child", choices=("train", "generate", "large", "session", "cpus"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child == "train":
        print(json.dumps(child_train(args.work, args.steps)))
        return 0
    if args.child == "generate":
        print(json.dumps(child_generate(args.work)))
        return 0
    if args.child == "large":
        print(json.dumps(child_large(args.work)))
        return 0
    if args.child == "session":
        print(json.dumps(child_session(args.work)))
        return 0
    if args.child == "cpus":
        print(json.dumps(child_cpus(args.work)))
        return 0
    tree = args.tree.resolve()
    if not (tree / "src" / "skipdiff" / "cli.py").is_file():
        print(f"{tree}: no src/skipdiff/cli.py", file=sys.stderr)
        return 2
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    with tempfile.TemporaryDirectory(prefix="skipdiff-stepfaults-") as tmp:
        work = Path(tmp)
        write_corpus(work / "train.jsonl", 256, 99)
        write_corpus(work / "heldout.jsonl", 128, 1)
        write_corpus(work / "large.jsonl", LARGE_SOURCES, 2)
        train = run_child(tree, work, "train", args.steps)
        gen = run_child(tree, work, "generate", args.steps)
        large = run_child(tree, work, "large", args.steps)
        session = run_child(tree, work, "session", args.steps)
        by_cpus = [run_child(tree, work, "cpus", args.steps, {min(os.sched_getaffinity(0))}),
                   run_child(tree, work, "cpus", args.steps)]
    print(report(tree, args.steps, train, gen, large, session, by_cpus))
    return 0


if __name__ == "__main__":
    sys.exit(main())
