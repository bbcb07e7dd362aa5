"""Benchmark of skipdiff, end to end and layer by layer.

    python3 perfbench/run.py --workload train-meta|train-fixed|generate-mbr|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run sets up its inputs in fresh
processes (several times, to time the set-up), then measures whole rounds of
the workload's program commands for at least S seconds in one more process.
With --trace 0 it reports the end-to-end metrics; with --trace 1 the same
rounds run with every layer span wrapped and it reports the per-layer
metrics instead. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import refmetrics  # noqa: E402
from tracing import metric_names  # noqa: E402
from worker import WORKLOADS  # noqa: E402

# Set-ups per run; setup_s is their median. generate-mbr trains a checkpoint
# in each, so it affords fewer.
SETUPS = {"train-meta": 5, "train-fixed": 5, "generate-mbr": 3}
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("train_steps_per_s", "steps/s"),
              ("gen_sentences_per_s", "sentences/s"), ("heldout_rouge_l", "ROUGE-L"),
              ("peak_rss_mib", "MiB"))
RUN_LIMIT_S = 170            # a run that would pass this is stopped and fails
# One BLAS thread (at most nproc), as the program's default threads=1 assumes;
# a fixed hash seed keeps set and dict orders the same in every process.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class RunFailed(Exception):
    pass


def run_worker(args: list[str], deadline: float) -> None:
    try:
        subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                       stdout=sys.stderr.fileno(), check=True,
                       timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.CalledProcessError as exc:
        raise RunFailed(f"worker {args[0]} exited with {exc.returncode}") from exc
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker {args[0]} passed the {RUN_LIMIT_S} s limit") from exc


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = HERE / "runs" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", workload, "--dir", str(work)]

    setups = []
    for _ in range(SETUPS[workload]):
        start = time.perf_counter()
        run_worker(["setup", *common, "--seed", str(seed)], deadline)
        found = json.loads((work / "setup.json").read_text(encoding="utf-8"))
        found["setup_s"] = time.perf_counter() - start
        setups.append(found)
    run_worker(["measure", *common, "--seconds", str(seconds),
                "--trace", str(int(trace))], deadline)
    measured = json.loads((work / "measure.json").read_text(encoding="utf-8"))

    attempted = measured["commands"] + sum(s["commands"] for s in setups)
    failed = measured["failed"] + sum(s["failed"] for s in setups)
    problems = measured["problems"] + [p for s in setups for p in s["problems"]]
    rounds = measured["rounds"]
    if workload == "generate-mbr" and len({str(s.get("checkpoints")) for s in setups}) > 1:
        failed += 1
        problems.append("repeated set-ups trained different checkpoints")
    if len({(r["heldout_bleu"], r["heldout_rouge_l"]) for r in rounds}) > 1:
        failed += 1
        problems.append("repeated rounds scored differently")

    if trace:
        units = dict(metric_names())
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in measured["layers"].items()}
    else:
        def median(key, rows=rounds):
            return statistics.median(r[key] for r in rows)
        # generate-mbr trains only in its set-up, so its train command is timed there
        steps_rows = setups if workload == "generate-mbr" else rounds
        values = {"setup_s": median("setup_s", setups),
                  "wall_s": median("wall_s"),
                  "train_steps_per_s": median("train_steps_per_s", steps_rows),
                  "gen_sentences_per_s": median("gen_sentences_per_s"),
                  "heldout_rouge_l": rounds[0]["heldout_rouge_l"],
                  "peak_rss_mib": measured["peak_rss_mib"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "rounds": len(rounds), "problems": problems,
            "heldout_bleu": rounds[0]["heldout_bleu"]}


def print_summary(workload: str, result: dict) -> None:
    print(f"{workload}: {result['rounds']} rounds, {result['attempted']} commands "
          f"attempted, {result['failed']} failed; held-out BLEU "
          f"{result['heldout_bleu']:.4f} (checked, not bounded)")
    for problem in result["problems"][:10]:
        print(f"  FAILED: {problem}")
    if len(result["problems"]) > 10:
        print(f"  ... and {len(result['problems']) - 10} more failed checks")
    if "wall_s" in result["metrics"]:          # per-layer metrics go to the JSON only
        for name, m in result["metrics"].items():
            print(f"  {name:<22} {m['value']:>12.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skipdiff" / "cli.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'skipdiff'}; run from the "
              "root of a skipdiff checkout", file=sys.stderr)
        return 2
    refmetrics.self_test()
    os.environ.update(WORKER_ENV)     # inherited by every worker

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        try:
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             bool(args.trace))
        except RunFailed as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print_summary(workload, results[workload])
    if len(names) == 1:
        result = results[names[0]]
        metrics = result["metrics"]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values())}
        metrics = {f"{w}.{name}": m for w, r in results.items()
                   for name, m in r["metrics"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
