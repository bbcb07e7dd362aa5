"""Command-line entry point.

Subcommands: train, generate, evaluate, analyze-difficulty, plug-and-play,
export-schedule. Every command is deterministic given --seed; rerunning
with identical inputs produces byte-identical primary outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .checkpoint import load_checkpoint
from .data import (SentencePair, Vocab, build_vocab, generate_synthetic,
                   load_jsonl, load_jsonl_fields, save_jsonl, synthetic_vocab)
from .errors import ConfigError, ContractError, JsonlParseError, ParameterError, \
    ShapeError, TruncationError
from .exploiter import ExploiterConfig
from .metrics import (bleu, evaluate_corpus, mean_rank, rank_table_csv)
from .rng import RngStream
from .runconfig import (DEFAULTS, format_resolved, parse_config_file,
                        parse_setting, resolve)
from .schedule import build_sqrt_schedule, schedule_to_csv
from .scheduler import SchedulerConfig, sample_instructions_batch
from .training import TrainConfig, meta_train, plug_and_play_generate
from .schedule import apply_skipping

USER_ERRORS = (ConfigError, ContractError, JsonlParseError, ParameterError,
               ShapeError, TruncationError, FileNotFoundError, ValueError)


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


def _configs_from(cfg):
    e_cfg = ExploiterConfig(
        layers=cfg["layers"], heads=cfg["heads"], model_dim=cfg["model_dim"],
        steps=cfg["T"], max_len=cfg["max_len"], ffn_mult=cfg["ffn_mult"],
        lambda_reg=cfg["lambda_reg"], rounding_loss=cfg["rounding_loss"],
        emb_scale=cfg["emb_scale"], pos_scale=cfg["pos_scale"],
        time_scale=cfg["time_scale"])
    s_cfg = SchedulerConfig(
        embed_dim=cfg["model_dim"], hidden_dim=cfg["sched_hidden"],
        encoder_max_len=cfg["sched_max_len"], decoder_len=cfg["T"],
        head_bias_init=cfg["head_bias_init"])
    t_cfg = TrainConfig(
        exploration_epochs=cfg["exploration_epochs"],
        total_batch=cfg["total_batch"], scheduler_update_period=cfg["period"],
        lr_exploiter=cfg["lr_exploiter"], lr_scheduler=cfg["lr_scheduler"],
        probe_lr=cfg["probe_lr"], max_epochs=cfg["epochs"],
        max_steps=cfg["max_steps"], seed=cfg["seed"], mbr_size=cfg["mbr"],
        gen_steps=cfg["gen_steps"], reward_baseline=cfg["reward_baseline"],
        eval_every=cfg["eval_every"], eval_mbr=cfg["eval_mbr"],
        checkpoint_every=cfg["checkpoint_every"],
        early_stop_patience=cfg["early_stop_patience"],
        threads=cfg["threads"], fixed_sqrt=cfg["fixed_sqrt"])
    return e_cfg, s_cfg, t_cfg


def cmd_train(args) -> int:
    file_cfg = parse_config_file(args.config) if args.config else {}
    overrides = _flag_overrides(args)
    cfg = resolve(file_cfg, overrides)
    train, heldout, vocab = _build_corpus(cfg)
    e_cfg, s_cfg, t_cfg = _configs_from(cfg)
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

def _join(tokens: list[str]) -> str:
    return " ".join(tokens)


def cmd_generate(args) -> int:
    [srcs] = load_jsonl_fields(args.src, ("src",), args.tokenizer)
    rng = RngStream(args.seed)
    picks, candidates = plug_and_play_generate(
        args.scheduler, args.exploiter, srcs, rng, mbr_size=args.mbr,
        gen_steps=args.steps, fixed_sqrt=args.scheduler is None)
    rows = [{"src": _join(s), "gen": _join(g),
             "candidates": [_join(c) for c in cands]}
            for s, g, cands in zip(srcs, picks, candidates)]
    save_jsonl(args.out, rows)
    print(f"wrote {len(rows)} generations to {args.out}")
    return 0


# -- evaluation -----------------------------------------------------------

def _load_systems_csv(path) -> dict[str, dict[str, float]]:
    table: dict[str, dict[str, float]] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[:3] != ["method", "metric", "value"]:
            raise ConfigError(f"{path}: expected header method,metric,value")
        for line in fh:
            if not line.strip():
                continue
            method, metric, value = line.strip().split(",")[:3]
            table.setdefault(method, {})[metric] = (None if value in ("", "-")
                                                    else float(value))
    return table


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
    report = evaluate_corpus(gens, refs)
    _emit(report.to_dict(), args.out)
    return 0


# -- difficulty analysis ----------------------------------------------------

def _greedy_schedules(ckpt_path, srcs):
    ckpt = load_checkpoint(ckpt_path)
    if ckpt.kind != "scheduler":
        raise ConfigError(f"{ckpt_path} is not a scheduler checkpoint")
    s_cfg = SchedulerConfig.from_dict(ckpt.config)
    vocab = Vocab(ckpt.vocab_tokens)
    batch = sample_instructions_batch(ckpt.params, srcs, vocab, s_cfg,
                                      None, mode="greedy")
    base = build_sqrt_schedule(s_cfg.decoder_len)
    return [apply_skipping(s.instructions, base) for s in batch.samples], s_cfg


def cmd_analyze_difficulty(args) -> int:
    if args.ref:
        srcs, gens = load_jsonl_fields(args.gen, ("src", "gen"), args.tokenizer)
        [refs] = load_jsonl_fields(args.ref, ("trg",), args.tokenizer)
    else:
        srcs, gens, refs = load_jsonl_fields(args.gen, ("src", "gen", "ref"),
                                             args.tokenizer)
    if len(refs) != len(gens):
        raise ConfigError(f"{len(gens)} generations vs {len(refs)} references")
    if args.k > len(gens) // 2:
        raise ConfigError(f"k={args.k} exceeds half the corpus ({len(gens)})")
    scores = np.array([bleu(g, [r]) if g else 0.0 for g, r in zip(gens, refs)])
    hardest = np.argsort(scores, kind="stable")[:args.k]
    easiest = np.argsort(-scores, kind="stable")[:args.k]
    sched_hard, _ = _greedy_schedules(args.scheduler, [srcs[i] for i in hardest])
    sched_easy, _ = _greedy_schedules(args.scheduler, [srcs[i] for i in easiest])
    steps = sched_hard[0].steps
    mean_hard = np.mean([s.beta_pointer[1:] for s in sched_hard], axis=0)
    mean_easy = np.mean([s.beta_pointer[1:] for s in sched_easy], axis=0)
    lines = ["t,mean_beta_hard,mean_beta_easy"]
    for t in range(steps):
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
    picks, candidates = plug_and_play_generate(
        args.scheduler, args.exploiter, srcs, RngStream(args.seed),
        mbr_size=args.mbr, gen_steps=args.steps)
    rows = [{"src": _join(s), "gen": _join(g),
             "candidates": [_join(c) for c in cands]}
            for s, g, cands in zip(srcs, picks, candidates)]
    save_jsonl(args.out, rows)
    base_picks, _ = plug_and_play_generate(
        args.scheduler, args.exploiter, srcs, RngStream(args.seed),
        mbr_size=args.mbr, gen_steps=args.steps, fixed_sqrt=True)
    report: dict = {"outputs": args.out, "sources": len(srcs)}
    if args.ref:
        [refs] = load_jsonl_fields(args.ref, ("trg",), args.tokenizer)
        if len(refs) != len(srcs):
            raise ConfigError(f"{len(srcs)} sources vs {len(refs)} references")
        report["scheduler"] = evaluate_corpus(picks, refs).to_dict()
        report["fixed-sqrt"] = evaluate_corpus(base_picks, refs).to_dict()
    _emit(report, args.report)
    return 0


# -- schedule export ---------------------------------------------------------

def cmd_export_schedule(args) -> int:
    [srcs] = load_jsonl_fields(args.src, ("src",), args.tokenizer)
    schedules, _ = _greedy_schedules(args.scheduler, srcs)
    steps = schedules[0].steps
    lines = ["sentence,t,pointer,beta_pointer,alpha_bar_x,beta_eff"]
    for i, sched in enumerate(schedules):
        for line in schedule_to_csv(sched).splitlines()[1:]:
            lines.append(f"{i},{line}")
    mean_pointer = np.mean([s.pointer[1:] for s in schedules], axis=0)
    mean_bp = np.mean([s.beta_pointer[1:] for s in schedules], axis=0)
    mean_ab = np.mean([s.alpha_bar_x[1:] for s in schedules], axis=0)
    mean_be = np.mean([s.beta_eff[1:] for s in schedules], axis=0)
    for t in range(steps):
        lines.append(f"mean,{t + 1},{float(mean_pointer[t])!r},"
                     f"{float(mean_bp[t])!r},{float(mean_ab[t])!r},"
                     f"{float(mean_be[t])!r}")
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(schedules)} schedules (+mean) to {args.out}")
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
    p.add_argument("--mbr", type=int, help="candidate set size")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", "") == "generate":
        if (args.scheduler is None) == (not args.fixed_sqrt):
            parser.error("generate needs exactly one of --scheduler / --fixed-sqrt")
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
