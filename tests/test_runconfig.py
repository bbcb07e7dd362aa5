from dataclasses import fields

from skipdiff.exploiter import ExploiterConfig
from skipdiff.runconfig import DEFAULTS, build_configs, resolve
from skipdiff.scheduler import SchedulerConfig
from skipdiff.training import TrainConfig

# Every configuration key with its default, written out by hand. The keys,
# values and types are part of the command line's contract: `--set` and
# config-file values are typed by them, and `config.resolved` prints them.
PINNED_DEFAULTS = {
    "task": "copy", "data": "", "val_data": "", "tokenizer": "whitespace",
    "min_freq": 1, "vocab_size": 16, "train_size": 256, "heldout_size": 64,
    "len_min": 3, "len_max": 8, "max_len": 32, "dataset_tag": "",
    "layers": 2, "heads": 4, "model_dim": 64, "T": 64, "ffn_mult": 4,
    "lambda_reg": 1.0, "rounding_loss": True, "emb_scale": 1.0,
    "pos_scale": 0.5, "time_scale": 0.1,
    "sched_hidden": 32, "sched_max_len": 128, "head_bias_init": 3.0,
    "epochs": 50, "max_steps": 0, "total_batch": 32, "exploration_epochs": 4,
    "period": 10, "lr_exploiter": 1e-3, "lr_scheduler": 0.1, "probe_lr": 1e-3,
    "reward_baseline": True, "gen_steps": 16, "eval_every": 10, "eval_mbr": 1,
    "checkpoint_every": 0, "early_stop_patience": 0,
    "mbr": 5, "seed": 0, "threads": 1, "fixed_sqrt": False,
}


def test_defaults_are_pinned():
    assert len(PINNED_DEFAULTS) == 43
    assert DEFAULTS == PINNED_DEFAULTS
    for key, value in PINNED_DEFAULTS.items():
        assert type(DEFAULTS[key]) is type(value), key


def _default(cls, name):
    [f] = [f for f in fields(cls) if f.name == name]
    return f.default


def test_keys_that_set_two_fields_have_one_default():
    # T sets the denoiser's and the policy's step count; model_dim sets the
    # denoiser width and the policy's embedding width.
    assert _default(ExploiterConfig, "steps") == _default(SchedulerConfig, "decoder_len") \
        == DEFAULTS["T"]
    assert _default(ExploiterConfig, "model_dim") == _default(SchedulerConfig, "embed_dim") \
        == DEFAULTS["model_dim"]


def test_build_configs_defaults_are_the_dataclass_defaults():
    assert build_configs(DEFAULTS) == (ExploiterConfig(), SchedulerConfig(),
                                       TrainConfig())


def test_renamed_keys_reach_their_fields():
    cfg = resolve(overrides={"T": 12, "model_dim": 16, "sched_hidden": 5,
                             "sched_max_len": 9, "period": 3, "epochs": 7,
                             "mbr": 2, "heads": 2, "probe_lr": 0.5})
    e_cfg, s_cfg, t_cfg = build_configs(cfg)
    assert (e_cfg.steps, s_cfg.decoder_len) == (12, 12)
    assert (e_cfg.model_dim, s_cfg.embed_dim) == (16, 16)
    assert (s_cfg.hidden_dim, s_cfg.encoder_max_len) == (5, 9)
    assert (t_cfg.scheduler_update_period, t_cfg.max_epochs, t_cfg.mbr_size) == (3, 7, 2)
    assert (e_cfg.heads, t_cfg.probe_lr) == (2, 0.5)
