"""prefdiff: a desk-scale lab for preference-optimized toy diffusion models."""

from .diffusion import DiffusionSchedule, make_schedule
from .toyworld import (Caption, ObjectSlot, SceneSpec, detect, edit_masks,
                       parse_dimension, render, vqa_check)
from .net import (DenoiserParams, NetConfig, clone_frozen, encode_caption,
                  init_params, load_checkpoint, save_checkpoint)
from .losses import batch_loss
from .datapipe import (DatasetManifest, PreferencePair, build_pair,
                       edit_caption, filter_pairs, generate_dataset,
                       read_dataset, sample_caption, write_dataset)
from .trainer import MetricsLog, TrainConfig, adam_step, train, warmup_lr
from .evalbench import AblationReport, Scorecard, emit_report, evaluate, run_ablation

__all__ = [name for name in dir() if not name.startswith("_")]
