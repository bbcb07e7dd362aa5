"""Central run configuration: one key per tunable, with precedence
built-in defaults < config file < command-line overrides. The resolved
mapping is persisted verbatim next to every training run.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .errors import ConfigError
from .exploiter import ExploiterConfig
from .scheduler import SchedulerConfig
from .training import TrainConfig

# Corpus keys: read by `cli._build_corpus`, not by a config object. Every
# other key's default is the default of the config-dataclass field it sets.
CORPUS_DEFAULTS: dict[str, object] = {
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
    "dataset_tag": "",         # provenance tag stored in checkpoints
}

CONFIG_CLASSES = (ExploiterConfig, SchedulerConfig, TrainConfig)

# Keys named differently from the field(s) they set; any other field's key
# is its own name. The fields one key sets have equal defaults.
RENAMED_KEYS: dict[str, tuple[str, ...]] = {
    "T": ("steps", "decoder_len"),           # diffusion step count
    "model_dim": ("model_dim", "embed_dim"),
    "sched_hidden": ("hidden_dim",),
    "sched_max_len": ("encoder_max_len",),
    "period": ("scheduler_update_period",),  # denoiser epochs between rounds
    "epochs": ("max_epochs",),
    "mbr": ("mbr_size",),
}
_KEY_OF = {name: key for key, names in RENAMED_KEYS.items() for name in names}


def _key(field_name: str) -> str:
    return _KEY_OF.get(field_name, field_name)


# Every tunable in the package, with its default.
DEFAULTS: dict[str, object] = {
    **CORPUS_DEFAULTS,
    **{_key(f.name): f.default for cls in CONFIG_CLASSES for f in fields(cls)},
}


def build_configs(config: dict[str, object]
                  ) -> tuple[ExploiterConfig, SchedulerConfig, TrainConfig]:
    """The exploiter, scheduler and training configs a resolved mapping sets."""
    return tuple(cls(**{f.name: config[_key(f.name)] for f in fields(cls)})
                 for cls in CONFIG_CLASSES)


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
