"""The three stages a person reproducing the paper runs, driven through the
``prefdiff`` public API: ``gen-data`` (with the load ``train`` does),
``train`` (SFT, then each preference method from the SFT result, as
``run_ablation`` does) and ``eval``.

Each stage is timed with the machine's speed taken just before and just after
it: reference kernels are timed there, and the stage time is scaled to the
speed at which they take their nominal time (``KERNELS``). On shared machines
whose speed drifts by up to 2x within a minute, this keeps figures comparable
between runs; the unscaled times are kept too.

A run is a sequence of rounds. Round ``r`` of workload ``w`` with seed ``s``
has inputs derived from ``(s, r)`` only, so rounds differ from each other
(the dataset mix is averaged over rounds) while every run with the same seed
sees the same rounds. Each stage is timed around its library calls alone, so
a change to one layer moves only the stages that call it.
"""

import hashlib
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from prefdiff import datapipe as dp
from prefdiff import evalbench as eb
from prefdiff import net
from prefdiff import toyworld as tw
from prefdiff import trainer

DPO_METHODS = ("image_dpo", "text_dpo", "bidpo", "bidpo_region")
TRAIN_METHODS = ("sft",) + DPO_METHODS


def _paper_counts(n):
    return dp.default_mix(n)


def _layout_counts(n):
    return {"spatial": n // 2, "numeracy": n - n // 2}


@dataclass(frozen=True)
class Workload:
    name: str
    counts: object            # pairs per round -> {dimension: count}
    eval_dims: tuple


# Why these two: the paper mix exercises every code path, including the
# region-weighted loss (about two thirds of its pairs carry an edit mask).
# The layout mix holds only region-exempt dimensions, so the mask path is
# bypassed while its scenes carry two to four objects, which makes detection
# and layout work heavier per pair.
WORKLOADS = {
    "paper_mix": Workload("paper_mix", _paper_counts, tw.DIMENSIONS),
    "layout_mix": Workload("layout_mix", _layout_counts, ("spatial", "numeracy")),
}


@dataclass(frozen=True)
class Sizes:
    """Work per round. The defaults are the benchmark; tests shrink them."""

    pairs: int = 32                # pairs generated per round
    sft_steps: int = 80
    dpo_steps: int = 20
    loss_tail: int = 40            # SFT steps averaged into the loss guard
    eval_images: int = 120         # images sampled and scored per round
    samples_per_prompt: int = 6
    quality_rounds: int = 3        # rounds every run makes; quality uses them
    warmup_pairs: int = 2
    warmup_steps: int = 2
    warmup_images: int = 5
    # TrainConfig overrides; empty means the default config (grid 16,
    # hidden 256, batch 64, T 100, float32)
    config: dict = field(default_factory=dict)

    def train_config(self, method, steps, seed):
        return replace(trainer.TrainConfig(**self.config), method=method,
                       steps=steps, seed=seed)

    @property
    def grid(self):
        return self.train_config("sft", 1, 0).grid


def _numpy_calls_kernel():
    a = np.full((4, 4, 3), 0.25)
    b = np.full((4, 4, 3), 0.5)
    for _ in range(500):
        float(np.square(a - b).sum())


def _matmul_kernel():
    square = np.full((128, 128), 0.5, dtype=np.float32)
    for _ in range(25):
        square @ square


# Reference kernels with their time at nominal machine speed. Each stage is
# scaled by the kernels that resemble the work dominating it: the oracle's
# template matching is many small numpy calls, training is float32 matmuls,
# sampling plus scoring (and set-up) is both.
KERNELS = {"numpy_calls": (_numpy_calls_kernel, 0.001),
           "matmul": (_matmul_kernel, 0.001)}
STAGE_KERNELS = {"datagen": ("numpy_calls",), "eval": ("numpy_calls", "matmul"),
                 "setup": ("numpy_calls", "matmul")}
TRAIN_KERNELS = ("matmul",)


def speed_scale(stage):
    """Machine slowness now relative to nominal, from the best of three
    timings of the stage's reference kernels (2.0 means half speed)."""
    measured = nominal = 0.0
    for name in STAGE_KERNELS.get(stage, TRAIN_KERNELS):
        kernel, nominal_s = KERNELS[name]
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        measured += best
        nominal += nominal_s
    return measured / nominal


class CheckFailed(AssertionError):
    """A correctness check on the program's outputs failed."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class StageResult:
    """One stage of one round: timing, work done, and what to compare."""

    stage: str
    seconds: float                  # wall time of the library calls
    scale: float                    # speed_scale around them
    work: int                       # pairs, steps or images
    digest: str
    extra: dict = field(default_factory=dict)

    @property
    def rate(self):
        """Work per second at the nominal machine speed."""
        return self.work / self.seconds * self.scale


class Runner:
    """Runs rounds of one workload; optionally inside a tracer's phases."""

    def __init__(self, workload, seed, sizes, work_dir, tracer=None):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.work_dir = work_dir
        self.tracer = tracer

    def _seed(self, r, label):
        """A 63-bit seed for one input of round ``r``."""
        path = f"{self.workload.name}/{self.seed}/{r}/{label}"
        return int.from_bytes(hashlib.sha256(path.encode()).digest()[:8], "big") >> 1

    def _timed(self, phase, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` in a tracer phase; returns (result,
        seconds, speed scale)."""
        before = speed_scale(phase)
        with self.tracer.in_phase(phase) if self.tracer else nullcontext():
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            seconds = time.perf_counter() - start
        return out, seconds, (before + speed_scale(phase)) / 2

    # -- stages ------------------------------------------------------------

    def datagen(self, r, n_pairs=None):
        n_pairs = self.sizes.pairs if n_pairs is None else n_pairs
        counts = self.workload.counts(n_pairs)
        seed = self._seed(r, "data")
        path = os.path.join(self.work_dir, f"round-{r}.jsonl")

        def gen_data():
            pairs, manifest = dp.generate_dataset(counts, seed=seed, grid=self.sizes.grid)
            dp.write_dataset(pairs, manifest, path)
            return pairs, manifest, dp.read_dataset(path)

        (pairs, manifest, (loaded, loaded_manifest)), seconds, scale = \
            self._timed("datagen", gen_data)
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        return StageResult(
            "datagen", seconds, scale, len(loaded), hashlib.sha256(data).hexdigest(),
            {"pairs": pairs, "loaded": loaded, "manifest": manifest,
             "loaded_manifest": loaded_manifest, "requested": counts,
             "bytes": len(data)})

    def train(self, method, dataset, steps, seed, init_params=None):
        config = self.sizes.train_config(method, steps, seed)
        (params, log), seconds, scale = self._timed(
            method, trainer.train, config, dataset, init_params=init_params)
        return StageResult(method, seconds, scale, steps, net.checkpoint_checksum(params),
                           {"params": params, "log": log})

    def evaluate(self, params, dataset, r, n_images=None, dims=None):
        n_images = self.sizes.eval_images if n_images is None else n_images
        dims = self.workload.eval_dims if dims is None else dims
        spp = min(self.sizes.samples_per_prompt, n_images)
        per_dim = max(1, n_images // (spp * len(dims)))
        sched = self.sizes.train_config("sft", 1, 0).schedule()
        prompts = eb.sample_prompts(dims, per_dim,
                                    seed=self._seed(r, "prompts"),
                                    exclude=dp.dataset_captions(dataset))
        seed = self._seed(r, "samples")
        card, seconds, scale = self._timed("eval", eb.evaluate, params, prompts, spp,
                                         sched, seed=seed)
        digest = hashlib.sha256(repr((sorted(card.per_dimension.items()), card.validity,
                                      card.sample_count, card.seed)).encode()).hexdigest()
        return StageResult("eval", seconds, scale, card.sample_count, digest,
                           {"card": card, "expected": len(prompts) * spp})

    # -- rounds ------------------------------------------------------------

    def round(self, r, on_result):
        """Run every stage of round ``r``, calling ``on_result(stage,
        result_or_exception)`` after each. A stage whose input could not be
        made is skipped, not attempted."""
        data = self._attempt("datagen", on_result, self.datagen, r)
        if data is None:
            return
        dataset = data.extra["loaded"]
        sft = self._attempt("sft", on_result, self.train, "sft", dataset,
                            self.sizes.sft_steps, self._seed(r, "sft"))
        if sft is None:
            return
        base = sft.extra["params"]
        results = {}
        k = r % len(DPO_METHODS)
        for method in DPO_METHODS[k:] + DPO_METHODS[:k]:
            results[method] = self._attempt(
                method, on_result, self.train, method, dataset, self.sizes.dpo_steps,
                self._seed(r, method), base)
        if results["bidpo"] is not None:
            self._attempt("eval", on_result, self.evaluate,
                          results["bidpo"].extra["params"], dataset, r)

    @staticmethod
    def _attempt(stage, on_result, fn, *args):
        try:
            result = fn(*args)
        except Exception as exc:     # a failed unit of work is counted, not fatal
            on_result(stage, exc)
            return None
        on_result(stage, result)
        return result

    def warm_up(self):
        """One small pass through every stage at the full model size, so that
        lazy initialisation is paid before timing."""
        s = self.sizes
        data = self.datagen("warmup", n_pairs=s.warmup_pairs)
        dataset = data.extra["loaded"]
        base = self.train("sft", dataset, s.warmup_steps, 0).extra["params"]
        for method in DPO_METHODS:
            self.train(method, dataset, s.warmup_steps, 0, base)
        self.evaluate(base, dataset, "warmup", n_images=s.warmup_images, dims=("color",))


# ---------------------------------------------------------------------------
# correctness checks, run outside the timed regions

def check_result(result):
    if result.stage == "datagen":
        x = result.extra
        check(x["manifest"].realized == x["requested"],
              f"datagen realized {x['manifest'].realized} != requested {x['requested']}")
        check(x["loaded_manifest"].realized == x["requested"],
              "datagen manifest changed in the write/read round trip")
        check(len(x["loaded"]) == len(x["pairs"])
              and all(dp.pairs_equal(a, b) for a, b in zip(x["pairs"], x["loaded"])),
              "datagen pairs changed in the write/read round trip")
        _, discarded, _ = dp.filter_pairs(x["loaded"])
        check(not discarded, f"{len(discarded)} datagen pairs fail the four-way cross-check")
    elif result.stage == "eval":
        card = result.extra["card"]
        check(card.sample_count == result.extra["expected"],
              f"eval scored {card.sample_count} samples, expected {result.extra['expected']}")
        check(all(0.0 <= a <= 1.0 for a in card.per_dimension.values())
              and 0.0 <= card.validity <= 1.0, f"eval accuracy outside [0, 1]: {card}")
    else:
        losses = [rec.loss for rec in result.extra["log"].records]
        check(len(losses) == result.work and all(math.isfinite(v) for v in losses),
              f"{result.stage}: non-finite or missing step losses")
        params = result.extra["params"]
        check(all(np.all(np.isfinite(w)) and np.all(np.isfinite(b)) for w, b in params.layers),
              f"{result.stage}: non-finite final parameters")


def loss_tail(result, sizes):
    records = result.extra["log"].records[-sizes.loss_tail:]
    return float(np.mean([rec.loss for rec in records]))
