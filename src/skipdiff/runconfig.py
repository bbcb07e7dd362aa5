"""Central run configuration: one key per tunable, with precedence
built-in defaults < config file < command-line overrides. The resolved
mapping is persisted verbatim next to every training run.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError

# Every tunable in the package, with its documented default.
DEFAULTS: dict[str, object] = {
    # data
    "task": "copy",            # synthetic task: copy | reverse | sort
    "data": "",                # JSONL training corpus; empty = synthetic task
    "val_data": "",            # JSONL held-out corpus (with "data")
    "tokenizer": "whitespace",  # whitespace | char
    "min_freq": 1,             # vocabulary frequency threshold
    "vocab_size": 16,          # synthetic vocabulary size
    "train_size": 256,         # synthetic training pairs
    "heldout_size": 64,        # synthetic held-out pairs
    "len_min": 3,              # synthetic source length range
    "len_max": 8,
    "max_len": 32,             # encoded sequence length L
    "dataset_tag": "",         # provenance tag stored in checkpoints
    # denoiser
    "layers": 2,
    "heads": 4,
    "model_dim": 64,
    "T": 64,                   # diffusion step count
    "ffn_mult": 4,
    "lambda_reg": 1.0,
    "rounding_loss": True,
    "emb_scale": 1.0,
    "pos_scale": 0.5,
    "time_scale": 0.1,
    # noise policy
    "sched_hidden": 32,
    "sched_max_len": 128,
    "head_bias_init": 3.0,
    # training loop
    "epochs": 50,
    "max_steps": 0,
    "total_batch": 32,
    "exploration_epochs": 4,
    "period": 10,              # denoiser epochs between policy rounds
    "lr_exploiter": 1e-3,
    "lr_scheduler": 0.1,
    "probe_lr": 1e-3,
    "reward_baseline": True,
    "gen_steps": 16,           # shortened generation for rewards/eval
    "eval_every": 10,
    "eval_mbr": 1,
    "checkpoint_every": 0,
    "early_stop_patience": 0,
    # generic
    "mbr": 5,
    "seed": 0,
    "threads": 1,
    "fixed_sqrt": False,
}


def _coerce(key: str, raw: str, where: str) -> object:
    default = DEFAULTS[key]
    cannot = f"{where}: key {key!r}: cannot parse {raw!r} as"
    if isinstance(default, bool):
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{cannot} a boolean")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{cannot} an integer") from exc
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{cannot} a number") from exc
    return raw


def parse_setting(text: str, where: str) -> tuple[str, object]:
    """One ``key=value`` setting, typed like the key's default.

    Used for config-file lines and ``--set`` alike; ``where`` (``path:line``
    or ``--set``) starts every error message. Unknown keys fail.
    """
    key, sep, raw = text.partition("=")
    key = key.strip()
    if not sep:
        raise ConfigError(f"{where}: expected key=value, got {text!r}")
    if key not in DEFAULTS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    return key, _coerce(key, raw.strip(), where)


def parse_config_file(path) -> dict[str, object]:
    """key=value lines; blank lines and #-comments ignored; unknown keys fail."""
    out: dict[str, object] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(),
                                  start=1):
        text = line.strip()
        if text and not text.startswith("#"):
            key, value = parse_setting(text, f"{path}:{lineno}")
            out[key] = value
    return out


def resolve(file_values: dict[str, object] | None = None,
            overrides: dict[str, object] | None = None) -> dict[str, object]:
    """defaults < config file < explicit overrides; unknown keys rejected."""
    merged = dict(DEFAULTS)
    for source in (file_values or {}, overrides or {}):
        for key, value in source.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown configuration key {key!r}")
            merged[key] = value
    return merged


def format_resolved(config: dict[str, object]) -> str:
    lines = [f"{key}={config[key]}" for key in sorted(config)]
    return "\n".join(lines) + "\n"
