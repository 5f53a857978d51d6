"""Oracle-scored compositional evaluation and the ablation harness.

Generated samples are scored by the same oracle pipeline that filters the
training data: detect the objects, answer one question per caption slot, and
pass only when everything matches. Accuracy is the pass fraction per
dimension; validity is the fraction of samples where detection recovers the
right number of objects at all.
"""

import json
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import diffusion as df
from . import net
from . import toyworld as tw
from . import trainer
from .datapipe import _child_seed, atomic_write, dataset_captions, sample_caption

METHODS = ("baseline",) + trainer.METHODS
REPORT_FORMATS = ("json", "markdown")


@dataclass(frozen=True)
class Scorecard:
    per_dimension: dict
    validity: float
    sample_count: int
    seed: int


@dataclass(frozen=True)
class AblationRow:
    method: str
    status: str                 # "ok" | "failed"
    scorecard: Scorecard = None
    error: str = None


@dataclass(frozen=True)
class AblationReport:
    rows: tuple
    seed: int


def sample_prompts(dims, n_per_dim, seed, exclude=frozenset()):
    """Up to ``n_per_dim`` distinct held-out prompts per dimension, rejecting
    excluded captions.

    Small grammars (notably the 9-caption bare-shape one) may not support the
    full request; the returned list simply carries fewer prompts there.
    Raises ValueError, before any draw, on ``dims`` that is a string or
    names a dimension twice or one not in ``toyworld.DIMENSIONS``, and on an
    ``n_per_dim`` that is not an integer of at least 1.
    """
    if isinstance(dims, str):
        raise ValueError(f"dims must be a sequence of dimensions, not the string {dims!r}")
    dims = list(dims)
    unknown = [d for d in dims if d not in tw.DIMENSIONS]
    if unknown:
        raise ValueError(f"unsupported dimension {unknown[0]!r}")
    if len(set(dims)) != len(dims):
        raise ValueError(f"dims names a dimension twice: {dims}")
    tw._check_count("n_per_dim", n_per_dim, 1)
    prompts = []
    exclude = set(exclude)
    for dim in dims:
        seen = set()
        misses = 0
        while len(seen) < n_per_dim and misses < 200:
            cap = sample_caption(dim, _child_seed(seed, dim, len(seen), misses))
            if cap in exclude or cap in seen:
                misses += 1
                continue
            seen.add(cap)
            prompts.append(cap)
    return prompts


def expected_object_count(caption):
    return caption.count if caption.count is not None else len(caption.objects)


def evaluate(params, prompts, samples_per_prompt, sched, seed, sampler=None):
    """Score a model on held-out prompts.

    For each prompt, ``samples_per_prompt`` images are generated (ancestral
    sampling by default; ``sampler`` may inject any (params, captions,
    encodings, sched, seeds) -> images callable) and oracle-checked against
    the prompt. Returns a Scorecard; deterministic given (params, prompts,
    seed). Raises ValueError on no prompts, a ``samples_per_prompt`` that is
    not an integer of at least 1, or a sampler result that is not one
    (grid, grid, channels) image per sample.
    """
    if not prompts:
        raise ValueError("no prompts to evaluate")
    tw._check_count("samples_per_prompt", samples_per_prompt, 1)
    if sampler is None:
        def sampler(params, captions, encodings, sched, seeds):
            return df.ddpm_sample_batch(params, encodings, sched, seeds)

    expanded = []
    seeds = []
    for i, cap in enumerate(prompts):
        for j in range(samples_per_prompt):
            expanded.append(cap)
            seeds.append(_child_seed(seed, i, j))
    encodings = np.stack([net.encode_caption(c) for c in expanded])
    images = sampler(params, expanded, encodings, sched, seeds)
    expected = (len(expanded), params.cfg.grid, params.cfg.grid, params.cfg.channels)
    if np.shape(images) != expected:
        raise ValueError(f"sampler returned images of shape {np.shape(images)}, "
                         f"expected {expected}")

    passes = {}
    valid = 0
    for cap, img in zip(expanded, images):
        result = tw.vqa_check(img, cap)
        passes.setdefault(cap.dimension, []).append(result.passed)
        try:
            detected = tw.detect(img)
            valid += int(len(detected.objects) == expected_object_count(cap))
        except tw.AmbiguousDetectionError:
            pass
    per_dimension = {dim: float(np.mean(vals)) for dim, vals in sorted(passes.items())}
    return Scorecard(per_dimension=per_dimension,
                     validity=valid / len(expanded),
                     sample_count=len(expanded), seed=seed)


def run_ablation(base_config, dataset, prompts, out_dir=None):
    """Train every method from one shared base model and score each.

    The base model is the initial parameter set supervised-pretrained on the
    dataset's preferred halves (the untrained-on-preferences baseline row);
    every method then trains from that base with a frozen clone of it as
    reference. Rows are independent; a failed row is recorded, not dropped.
    Raises ValueError, before any training, on no prompts or on a prompt
    that is also a training caption.
    """
    if not prompts:
        raise ValueError("no prompts to evaluate")
    overlap = set(prompts) & dataset_captions(dataset)
    if overlap:
        raise ValueError(f"{len(overlap)} evaluation prompts collide with training captions")

    sched = base_config.schedule()
    pretrain_cfg = replace(base_config, method="sft", steps=base_config.pretrain_steps)
    base_params, _ = trainer.train(pretrain_cfg, dataset)
    eval_seed = _child_seed(base_config.seed, "ablation-eval")

    rows = []
    for method in METHODS:
        try:
            if method == "baseline":
                params = base_params
            else:
                cfg = replace(base_config, method=method)
                params, _ = trainer.train(cfg, dataset, init_params=base_params)
            card = evaluate(params, prompts, base_config.eval_samples_per_prompt,
                            sched, seed=eval_seed)
            rows.append(AblationRow(method=method, status="ok", scorecard=card))
        except Exception as exc:   # a row failure must not sink the report
            rows.append(AblationRow(method=method, status="failed", error=str(exc)))
    report = AblationReport(rows=tuple(rows), seed=base_config.seed)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for fmt, name in (("json", "report.json"), ("markdown", "report.md")):
            emit_report(report, fmt, os.path.join(out_dir, name))
    return report


# ---------------------------------------------------------------------------
# report serialization

def emit_report(report, fmt, path):
    """Write an ablation report to ``path`` as ``json`` (its ``asdict``
    record, which the shipped schema describes) or ``markdown`` (a table of
    scores for reading). The file is written to ``path.tmp`` and then moved
    over ``path``."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"format must be one of {REPORT_FORMATS}")
    with atomic_write(path) as fh:
        if fmt == "json":
            json.dump(asdict(report), fh, indent=2)
        else:
            fh.write("| method | " + " | ".join(tw.DIMENSIONS) + " | validity |\n")
            fh.write("|" + " --- |" * (len(tw.DIMENSIONS) + 2) + "\n")
            for r in report.rows:
                card = r.scorecard
                if card is None:
                    cells = ["failed"] * (len(tw.DIMENSIONS) + 1)
                else:
                    cells = [f"{card.per_dimension.get(d, float('nan')):.3f}"
                             for d in tw.DIMENSIONS]
                    cells.append(f"{card.validity:.3f}")
                fh.write(f"| {r.method} | " + " | ".join(cells) + " |\n")
    return path

