"""Seq2Seq text diffusion with a learned, per-sentence skip-scheduled
noise policy: a recurrent policy reads each source sentence and emits
advance/hold instructions that reshape a square-root base noise schedule;
a denoising transformer trains and generates under that contextualized
noise and is scored to reward the policy.
"""

from .data import (EncodedBatch, SentencePair, Vocab, build_vocab,
                   encode_batch, generate_synthetic, load_jsonl,
                   synthetic_vocab, tokenize)
from .exploiter import (ExploiterConfig, diffusion_loss, generate_batch,
                        init_exploiter_params, mbr_select)
from .gradcheck import finite_diff_check
from .metrics import bleu, corpus_bleu, dist_1, mean_rank, rouge_l, self_bleu
from .rng import RngStream
from .schedule import (BaseSchedule, MetaInstructions, ScheduledNoise,
                       apply_skipping, build_sqrt_schedule, fixed_schedule)
from .scheduler import (SchedulerConfig, apply_update, init_scheduler_params,
                        sample_instructions_batch)
from .training import (MetaRewardRecord, TrainConfig, meta_train,
                       plug_and_play_generate, scheduler_round)

__version__ = "0.1.0"
