"""Optimization loop over a preference dataset for one training method.

The reference model is a frozen clone of the initial parameters taken before
step 1. Batches are sampled uniformly with replacement; the per-item step
index and noise draws are resampled every step, so each step is a fresh
Monte Carlo estimate of the chosen loss's expectation. Runs are fully
deterministic given (config, dataset, seed).

Each step's draws (batch indices, step indices, then the noise of each image
the method's ``losses.LAYOUTS`` entry noises) come from one generator through
``diffusion.prefetched``, so step k + 1's draws run on a worker thread while
step k computes. The worker goes on to the policy-independent half of step
k + 1's loss (``losses.ReferenceHalf``): it gathers the batch, noises it,
assembles the network input and, for a preference method, runs the frozen
reference over it. The main thread runs the policy half
(``losses.policy_half``) and the backward pass. The Adam update is split in
two halves of the parameter elements: the worker, queued behind step
k + 1's draws, updates one while the main thread updates the other
(``adam_step``). Neither the generator nor the reference depends on a step's
update, and each element gets the same operations in the same order on
either thread, so runs are bit-identical to the sequential loop.
"""

import json
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import diffusion as df
from . import losses
from . import net
from .datapipe import _child_seed, atomic_write

METHODS = tuple(losses.LAYOUTS)
CONFIG_FORMAT = "prefdiff-run-config"
CONFIG_VERSION = 3


@dataclass(frozen=True)
class TrainConfig:
    method: str = "bidpo"
    steps: int = 2000
    batch_size: int = 64
    learning_rate: float = 1e-3
    beta: float = 0.1
    warmup_steps: int = 50
    seed: int = 0
    # schedule: total noise matches the 1000-step convention at desk length
    T: int = 100
    beta_start: float = 1e-3
    beta_end: float = 0.2
    omega_mode: str = "constant"
    # network
    grid: int = 16
    channels: int = 3
    hidden: int = 256
    time_dim: int = 32
    parameterization: str = "eps"
    dtype: str = "float32"
    # ablation plumbing
    pretrain_steps: int = 3000
    eval_samples_per_prompt: int = 4

    def net_config(self):
        return net.NetConfig(grid=self.grid, channels=self.channels,
                             hidden=self.hidden, time_dim=self.time_dim,
                             parameterization=self.parameterization)

    def schedule(self):
        return df.make_schedule(self.T, self.beta_start, self.beta_end, self.omega_mode)


def validate_config(config):
    if config.method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {config.method!r}")
    for name in ("steps", "pretrain_steps"):
        if getattr(config, name) < 0:
            raise ValueError(f"{name} must be nonnegative")
    for name in ("batch_size", "T", "grid", "channels", "hidden", "eval_samples_per_prompt"):
        if getattr(config, name) < 1:
            raise ValueError(f"{name} must be positive")
    net.check_time_dim(config.time_dim)
    for name in ("learning_rate", "beta"):
        if getattr(config, name) <= 0:
            raise ValueError(f"{name} must be positive")
    if config.warmup_steps < 0:
        raise ValueError("warmup_steps must be nonnegative")
    for name, allowed in (("dtype", ("float32", "float64")),
                          ("parameterization", net.PARAMETERIZATIONS),
                          ("omega_mode", df.OMEGA_MODES)):
        if getattr(config, name) not in allowed:
            raise ValueError(f"{name} must be one of {allowed}, got {getattr(config, name)!r}")


@dataclass(frozen=True)
class StepRecord:
    step: int
    loss: float
    grad_norm: float
    margin: float
    lr: float
    reward_accuracy: float | None   # None for SFT


@dataclass
class MetricsLog:
    records: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# optimizer

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: list
    v: list
    step: int = 0

    @classmethod
    def zeros(cls, params):
        return cls(m=[(np.zeros_like(w), np.zeros_like(b)) for w, b in params.layers],
                   v=[(np.zeros_like(w), np.zeros_like(b)) for w, b in params.layers])


def adam_step(params, grads, state, lr, worker=None):
    """Textbook Adam with bias correction; updates parameters in place.

    Evaluates ``m = beta1*m + (1-beta1)*g``, ``v = beta2*v + (1-beta2)*g**2``
    and ``arr -= lr * (m/c1) / (sqrt(v/c2) + eps)``, where beta1, beta2 and
    eps are ADAM_BETA1, ADAM_BETA2 and ADAM_EPS, with the same operations in
    the same order as the plain expressions. The parameters are bit-identical
    to the plain expressions' whenever the gradients share the parameters'
    dtype, as ``net.backward``'s do.

    The update is elementwise, so the parameter arrays, in layer order, are
    dealt into two halves of about equal element count (``_split_halves``).
    The one array that straddles the midpoint is cut there, through flat
    views, when it, its gradient and its moments are all C-contiguous, and
    otherwise goes whole to the first half. ``worker(fn, *args)``, when
    given, queues a call on another thread and returns its future
    (``diffusion.prefetched``'s ``submit``): the first half goes to it while
    the caller updates the second. If the worker has not started its half
    by the time the caller's is done, the caller cancels it and updates it
    too. Every element gets the same operations in the same order wherever
    it runs. Each half writes its intermediates into two scratch buffers the
    size of its largest piece, allocated by the thread that runs it and kept
    for that call only, so that they do not add to the training loop's peak
    memory.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    first, second = _split_halves(params, grads, state)
    if worker is None:
        _adam_update(first + second, lr, c1, c2)
    else:
        future = worker(_adam_update, first, lr, c1, c2)
        _adam_update(second, lr, c1, c2)
        if future.cancel():
            _adam_update(first, lr, c1, c2)
        else:
            future.result()
    return params, state


def _split_halves(params, grads, state):
    """The (arr, g, m, v) pieces of every parameter array in two lists of
    about half the elements each. Only the array that straddles the midpoint
    is cut, and only if all four of its arrays are C-contiguous: ``reshape``
    of any other array would copy, and the copy's update would be lost."""
    pieces = [group for li, pair in enumerate(params.layers) for group in zip(
        pair, grads.layers[li], state.m[li], state.v[li])]
    half = sum(arr.size for arr, *_ in pieces) // 2
    first, second, seen = [], [], 0
    for group in pieces:
        size = group[0].size
        if seen < half < seen + size and all(a.flags.c_contiguous for a in group):
            flat = [a.reshape(-1) for a in group]
            first.append(tuple(a[:half - seen] for a in flat))
            second.append(tuple(a[half - seen:] for a in flat))
        else:
            (first if seen < half else second).append(group)
        seen += size
    return first, second


def _adam_update(pieces, lr, c1, c2):
    """The update of ``adam_step`` over (arr, g, m, v) pieces, in place."""
    size = max(arr.size for arr, *_ in pieces)
    dtype = pieces[0][0].dtype
    scratch = (np.empty(size, dtype), np.empty(size, dtype))
    for arr, g, m, v in pieces:
        s1, s2 = (buf[:arr.size].reshape(arr.shape) for buf in scratch)
        m *= ADAM_BETA1
        np.multiply(1.0 - ADAM_BETA1, g, out=s1)
        m += s1
        v *= ADAM_BETA2
        np.square(g, out=s1)
        np.multiply(1.0 - ADAM_BETA2, s1, out=s1)
        v += s1
        np.divide(m, c1, out=s1)
        np.multiply(lr, s1, out=s1)
        np.divide(v, c2, out=s2)
        np.sqrt(s2, out=s2)
        np.add(s2, ADAM_EPS, out=s2)
        np.divide(s1, s2, out=s1)
        arr -= s1


def warmup_lr(step, base_lr, warmup_steps):
    """Linear ramp 0 -> base_lr over warmup_steps, then constant."""
    if step < 0:
        raise ValueError("step must be nonnegative")
    if warmup_steps <= 0 or step >= warmup_steps:
        return base_lr
    return base_lr * step / warmup_steps


# ---------------------------------------------------------------------------
# training

def _copy_for_training(params, dtype):
    layers = [(w.astype(dtype, copy=True), b.astype(dtype, copy=True))
              for w, b in params.layers]
    return net.DenoiserParams(cfg=params.cfg, layers=layers, trainable=True)


def train(config, dataset, init_params=None):
    """Run the configured method over a preference dataset.

    The reference is a frozen clone of the initial parameters (either
    ``init_params`` or a fresh seeded init). Returns (DenoiserParams,
    MetricsLog); raises NumericDivergenceError naming the step on a
    non-finite loss or gradient norm, before that step's update.
    """
    validate_config(config)
    if not dataset:
        raise ValueError("dataset must be non-empty")
    dtype = np.dtype(config.dtype)
    sched = config.schedule()
    if init_params is None:
        params = net.init_params(config.net_config(), seed=config.seed, dtype=dtype)
    else:
        if init_params.cfg != config.net_config():
            raise ValueError("init_params network shape differs from config")
        params = _copy_for_training(init_params, dtype)
    ref = net.clone_frozen(params)
    layout = losses.LAYOUTS[config.method]
    shape = (config.grid, config.grid, config.channels)
    arrays = losses._stack_pairs(dataset, dtype, shape, layout.masks)
    state = AdamState.zeros(params)
    rng = np.random.default_rng(np.random.SeedSequence(_child_seed(config.seed, "train")))
    noise_shape = (config.batch_size,) + shape
    scratch = np.empty(noise_shape)
    buffers = [[np.empty(noise_shape, dtype) for _ in layout.noised] for _ in range(2)]

    def draw(step):
        # float64 draws cast to the parameters' dtype, as the generator's
        # standard_normal(shape).astype(dtype) would give them
        idx = rng.integers(0, len(dataset), size=config.batch_size)
        t_arr = rng.integers(0, sched.T, size=config.batch_size)
        noise = buffers[step % 2]
        for out in noise:
            rng.standard_normal(out=scratch)
            np.copyto(out, scratch)
        return losses._reference_half(layout, ref, arrays, idx, noise, t_arr, config.beta,
                                      sched)

    log = MetricsLog()
    with df.prefetched(draw, config.steps) as draws:
        for step, half in enumerate(draws):
            try:
                loss = losses.policy_half(params, half)
            except df.NumericDivergenceError as exc:
                raise df.NumericDivergenceError(f"step {step}: {exc}") from exc
            grads = loss.backward()
            grad_norm = grads.global_norm()
            if not np.isfinite(grad_norm):
                raise df.NumericDivergenceError(f"step {step}: non-finite gradient norm")
            lr = warmup_lr(step, config.learning_rate, config.warmup_steps)
            adam_step(params, grads, state, lr, worker=draws.submit)
            log.records.append(StepRecord(step=step, loss=loss.value, grad_norm=grad_norm,
                                          margin=loss.margin, lr=lr,
                                          reward_accuracy=loss.reward_accuracy))
    return params, log


# ---------------------------------------------------------------------------
# run config and metrics files

def save_config(config, path):
    record = {"format": CONFIG_FORMAT, "version": CONFIG_VERSION, **asdict(config)}
    with atomic_write(path) as fh:
        json.dump(record, fh, indent=2)


def load_config(path, **overrides):
    with open(path) as fh:
        record = json.load(fh)
    if record.pop("format", None) != CONFIG_FORMAT or record.pop("version", None) != CONFIG_VERSION:
        raise ValueError(f"not a {CONFIG_FORMAT} v{CONFIG_VERSION} file: {path}")
    unknown = sorted(set(record) - {f.name for f in fields(TrainConfig)})
    if unknown:
        raise ValueError(f"unknown keys in {path}: {', '.join(unknown)}")
    config = TrainConfig(**record)
    return replace(config, **overrides) if overrides else config


def write_metrics(log, path):
    with atomic_write(path) as fh:
        for rec in log.records:
            fh.write(json.dumps({"kind": "step", **asdict(rec)}) + "\n")
