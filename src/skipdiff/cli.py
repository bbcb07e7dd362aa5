"""Command-line entry point.

Subcommands: train, generate, evaluate, analyze-difficulty, plug-and-play,
export-schedule. Every command is deterministic given --seed; rerunning
with identical inputs produces byte-identical primary outputs.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys

import numpy as np

from .data import (SentencePair, Vocab, build_vocab, detokenize,
                   generate_synthetic, load_jsonl, load_jsonl_fields, save_jsonl,
                   synthetic_vocab)
from .errors import ConfigError, ContractError, JsonlParseError, ParameterError, \
    ShapeError, TruncationError
from .metrics import (bleu, evaluate_corpus, mean_rank, rank_table_csv)
from .rng import RngStream
from .runconfig import (DEFAULTS, build_configs, format_resolved,
                        parse_config_file, parse_setting, resolve)
from .schedule import schedule_to_csv
from .scheduler import greedy_schedules
from .training import load_model, meta_train, plug_and_play_generate

USER_ERRORS = (ConfigError, ContractError, JsonlParseError, ParameterError,
               ShapeError, TruncationError, FileNotFoundError, ValueError)


# glibc's mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_memory() -> None:
    """Have glibc's malloc keep freed memory for reuse within the process,
    once per process and for the rest of its life.

    By default it hands the free top of the heap back to the OS and maps
    every array above a moving size threshold on its own, so a train step
    or a sampler step that frees its arrays faults the same pages in again
    at the next step, by an amount that depends on where unrelated
    allocations left the heap's top. With no trimming and arrays up to
    32 MiB on the heap, a working set is faulted in once. The setting is
    process-wide, so it also holds for code a caller of ``main`` runs
    afterwards. A C library without ``mallopt`` is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)
    mallopt(_M_MMAP_THRESHOLD, 32 * 2**20)


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
    print(text)
    if out_path:
        _write_text(out_path, text + "\n")


# -- train ----------------------------------------------------------------

def _build_corpus(cfg) -> tuple[list[SentencePair], list[SentencePair], Vocab]:
    if cfg["data"]:
        train = load_jsonl(cfg["data"], cfg["tokenizer"])
        heldout = load_jsonl(cfg["val_data"], cfg["tokenizer"]) if cfg["val_data"] else []
        tokens = [list(p.src) + list(p.tgt) for p in train]
        vocab = build_vocab(tokens, cfg["min_freq"])
        return train, heldout, vocab
    rng = RngStream(cfg["seed"]).fork("corpus")
    total = cfg["train_size"] + cfg["heldout_size"]
    pairs = generate_synthetic(cfg["task"], total, cfg["vocab_size"],
                               (cfg["len_min"], cfg["len_max"]), rng)
    vocab = synthetic_vocab(cfg["vocab_size"])
    return pairs[:cfg["train_size"]], pairs[cfg["train_size"]:], vocab


def cmd_train(args) -> int:
    file_cfg = parse_config_file(args.config) if args.config else {}
    overrides = _flag_overrides(args)
    cfg = resolve(file_cfg, overrides)
    e_cfg, s_cfg, t_cfg = build_configs(cfg)
    train, heldout, vocab = _build_corpus(cfg)
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "config.resolved"), format_resolved(cfg))
    tag = cfg["dataset_tag"] or (cfg["data"] or f"synthetic-{cfg['task']}")
    result = meta_train(train, heldout, vocab, args.out, e_cfg, s_cfg, t_cfg,
                        dataset_tag=tag)
    print(f"run complete: {result.run_dir}")
    print(f"exploiter checkpoint: {result.exploiter_ckpt}")
    print(f"scheduler checkpoint: {result.scheduler_ckpt}")
    return 0


def _flag_overrides(args) -> dict:
    """Train flags given on the command line (each flag's dest is its config
    key), then the ``--set`` settings."""
    overrides = {key: value for key, value in vars(args).items()
                 if key in DEFAULTS and value is not None}
    for text in args.set or []:
        key, value = parse_setting(text, "--set")
        overrides[key] = value
    return overrides


# -- generation -----------------------------------------------------------

def _save_generations(path, srcs, picks, candidates, mode: str) -> None:
    """One ``src``/``gen``/``candidates`` row per source, written so that the
    ``mode`` tokenizer reads each back as the same tokens."""
    save_jsonl(path, [{"src": detokenize(s, mode), "gen": detokenize(g, mode),
                       "candidates": [detokenize(c, mode) for c in cands]}
                      for s, g, cands in zip(srcs, picks, candidates)])


def cmd_generate(args) -> int:
    [srcs] = load_jsonl_fields(args.src, ("src",), args.tokenizer)
    [(picks, candidates)] = plug_and_play_generate(
        args.scheduler, args.exploiter, srcs,
        [(args.scheduler is None, RngStream(args.seed))], args.mbr, args.steps)
    _save_generations(args.out, srcs, picks, candidates, args.tokenizer)
    print(f"wrote {len(srcs)} generations to {args.out}")
    return 0


# -- evaluation -----------------------------------------------------------

def _load_systems_csv(path) -> dict[str, dict[str, float]]:
    table: dict[str, dict[str, float]] = {}
    first_line: dict[tuple[str, str], int] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[:3] != ["method", "metric", "value"]:
            raise ConfigError(f"{path}:1: expected header method,metric,value")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.strip().split(",")
            if len(fields) < 3:
                raise ConfigError(f"{path}:{lineno}: expected method,metric,value, "
                                  f"got {line.strip()!r}")
            method, metric, value = fields[:3]
            first = first_line.setdefault((method, metric), lineno)
            if first != lineno:
                raise ConfigError(f"{path}:{lineno}: duplicate score for method "
                                  f"{method!r}, metric {metric!r} (first on line {first})")
            table.setdefault(method, {})[metric] = (None if value in ("", "-")
                                                    else _finite(value, path, lineno))
    return table


def _finite(text: str, path, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{path}:{lineno}: value {text!r} is not a finite number")
    return value


def cmd_evaluate(args) -> int:
    if args.systems:
        table = _load_systems_csv(args.systems)
        ranks = mean_rank(table)
        report = {"Mean-Rank": {k: round(v, 6) for k, v in ranks.items()}}
        _emit(report, args.out)
        if args.rank_csv:
            _write_text(args.rank_csv, rank_table_csv(table))
        return 0
    [gens] = load_jsonl_fields(args.gen, ("gen",), args.tokenizer)
    [refs] = load_jsonl_fields(args.ref, ("trg",), args.tokenizer)
    if len(gens) != len(refs):
        raise ConfigError(f"{len(gens)} generations vs {len(refs)} references")
    _emit(evaluate_corpus(gens, refs), args.out)
    return 0


# -- difficulty analysis ----------------------------------------------------

def _greedy_schedules(ckpt_path, srcs):
    """The policy's greedy schedules for ``srcs``, one row per source."""
    ckpt, s_cfg = load_model(ckpt_path, "scheduler")
    return greedy_schedules(ckpt.params, srcs, Vocab(ckpt.vocab_tokens), s_cfg)


def cmd_analyze_difficulty(args) -> int:
    if args.ref:
        srcs, gens = load_jsonl_fields(args.gen, ("src", "gen"), args.tokenizer)
        [refs] = load_jsonl_fields(args.ref, ("trg",), args.tokenizer)
    else:
        srcs, gens, refs = load_jsonl_fields(args.gen, ("src", "gen", "ref"),
                                             args.tokenizer)
    if len(refs) != len(gens):
        raise ConfigError(f"{len(gens)} generations vs {len(refs)} references")
    if not 1 <= args.k <= len(gens) // 2:
        raise ConfigError(f"--k {args.k} is outside 1..{len(gens) // 2}, "
                          f"half the corpus of {len(gens)}")
    scores = np.array([bleu(g, [r]) if g else 0.0 for g, r in zip(gens, refs)])
    # both buckets from the two ends of one order, so ties cannot put a
    # row in both; the easiest bucket runs from the top score down
    order = np.argsort(scores, kind="stable")
    hardest = order[:args.k]
    easiest = order[::-1][:args.k]
    # one rollout: the first k rows are the hardest, the last k the easiest
    sched = _greedy_schedules(args.scheduler,
                              [srcs[i] for i in np.concatenate([hardest, easiest])])
    beta = sched.beta_pointer[:, 1:]
    mean_hard = beta[:args.k].mean(axis=0)
    mean_easy = beta[args.k:].mean(axis=0)
    lines = ["t,mean_beta_hard,mean_beta_easy"]
    for t in range(sched.steps):
        lines.append(f"{t + 1},{float(mean_hard[t])!r},{float(mean_easy[t])!r}")
    _write_text(args.out, "\n".join(lines) + "\n")
    summary = {
        "hard": {"count": int(args.k), "mean_bleu": float(scores[hardest].mean())},
        "easy": {"count": int(args.k), "mean_bleu": float(scores[easiest].mean())},
    }
    print(json.dumps(summary, sort_keys=True, indent=2))
    print(f"wrote schedule curves to {args.out}")
    return 0


# -- plug and play ----------------------------------------------------------

def cmd_plug_and_play(args) -> int:
    [srcs] = load_jsonl_fields(args.src, ("src",), args.tokenizer)
    # the fixed-sqrt baseline, from the same seed, only for the comparison
    arms = [(False, RngStream(args.seed))]
    if args.ref:
        arms.append((True, RngStream(args.seed)))
    results = plug_and_play_generate(args.scheduler, args.exploiter, srcs, arms,
                                     args.mbr, args.steps)
    picks, candidates = results[0]
    _save_generations(args.out, srcs, picks, candidates, args.tokenizer)
    report: dict = {"outputs": args.out, "sources": len(srcs)}
    if args.ref:
        [refs] = load_jsonl_fields(args.ref, ("trg",), args.tokenizer)
        if len(refs) != len(srcs):
            raise ConfigError(f"{len(srcs)} sources vs {len(refs)} references")
        report["scheduler"] = evaluate_corpus(picks, refs)
        report["fixed-sqrt"] = evaluate_corpus(results[1][0], refs)
    _emit(report, args.report)
    return 0


# -- schedule export ---------------------------------------------------------

def cmd_export_schedule(args) -> int:
    [srcs] = load_jsonl_fields(args.src, ("src",), args.tokenizer)
    _write_text(args.out, schedule_to_csv(_greedy_schedules(args.scheduler, srcs)))
    print(f"wrote {len(srcs)} schedules (+mean) to {args.out}")
    return 0


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skipdiff",
        description="Seq2Seq text diffusion with a learned skip-scheduled "
                    "noise policy")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the denoiser and noise policy")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--task", choices=("copy", "reverse", "sort"))
    p.add_argument("--data", help="JSONL training corpus")
    p.add_argument("--val-data", dest="val_data", help="JSONL held-out corpus")
    p.add_argument("--T", type=int, help="diffusion step count")
    p.add_argument("--steps", dest="gen_steps", metavar="STEPS", type=int,
                   help="generation step count")
    p.add_argument("--epochs", type=int)
    p.add_argument("--max-steps", dest="max_steps", type=int)
    p.add_argument("--fixed-sqrt", dest="fixed_sqrt", action="store_true",
                   default=None,
                   help="baseline arm: plain base schedule, no policy")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any configuration key")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="generate with MBR candidate selection")
    p.add_argument("--exploiter", required=True, help="denoiser checkpoint")
    p.add_argument("--scheduler", help="noise policy checkpoint")
    p.add_argument("--fixed-sqrt", dest="fixed_sqrt", action="store_true",
                   help="bypass the policy (plain base schedule)")
    p.add_argument("--src", required=True, help="JSONL with a 'src' field")
    p.add_argument("--out", required=True, help="output JSONL")
    p.add_argument("--mbr", type=int, default=1)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tokenizer", default="whitespace")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score generations or rank systems")
    p.add_argument("--gen", help="JSONL with 'gen' fields")
    p.add_argument("--ref", help="JSONL with 'trg' fields")
    p.add_argument("--systems", help="CSV method,metric,value for Mean-Rank")
    p.add_argument("--rank-csv", dest="rank_csv", help="write the full rank table")
    p.add_argument("--out", help="write the JSON report here too")
    p.add_argument("--tokenizer", default="whitespace")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze-difficulty",
                       help="schedule curves for hardest vs easiest items")
    p.add_argument("--gen", required=True, help="JSONL with src+gen (+ref)")
    p.add_argument("--ref", help="JSONL with 'trg' fields, aligned by line")
    p.add_argument("--scheduler", required=True)
    p.add_argument("--k", type=int, default=32, help="bucket size")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--tokenizer", default="whitespace")
    p.set_defaults(func=cmd_analyze_difficulty)

    p = sub.add_parser("plug-and-play",
                       help="schedule with one checkpoint, generate with another")
    p.add_argument("--scheduler", required=True)
    p.add_argument("--exploiter", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ref", help="references for the comparison report")
    p.add_argument("--report", help="write the comparison report here")
    p.add_argument("--mbr", type=int, default=1)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tokenizer", default="whitespace")
    p.set_defaults(func=cmd_plug_and_play)

    p = sub.add_parser("export-schedule",
                       help="per-sentence greedy schedules as CSV")
    p.add_argument("--scheduler", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tokenizer", default="whitespace")
    p.set_defaults(func=cmd_export_schedule)
    return parser


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate" and (args.scheduler is None) == (not args.fixed_sqrt):
        parser.error("generate needs exactly one of --scheduler / --fixed-sqrt")
    if args.command in ("generate", "plug-and-play") and args.mbr < 1:
        parser.error(f"--mbr must be >= 1, got {args.mbr}")
    if args.command == "evaluate" and not (args.systems or (args.gen and args.ref)):
        parser.error("evaluate needs --systems, or both --gen and --ref")
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
