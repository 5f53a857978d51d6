"""Optimization loop over a preference dataset for one training method.

A preference method's frozen reference is the starting parameters: the
caller's ``init_params`` themselves, only ever read, unless they must be
converted to the run's dtype or layout. The policy trains in a copy of its
own. A run holds one gradient buffer and one Adam scratch, and one set of
the arrays a step's forward pass and loss cache, which every step reuses.
Batches are sampled uniformly with replacement; the per-item step index and
noise draws are resampled every step, so each step is a fresh Monte Carlo
estimate of the chosen loss's expectation. Runs are fully deterministic
given (config, dataset, seed).

Each step's draws (batch indices, step indices, then the noise of each image
the method's ``losses.LAYOUTS`` entry noises) come from one generator through
``diffusion.prefetched``, so step k + 1's draws run on a worker thread while
step k computes. The worker goes on to the policy-independent half of step
k + 1's loss (``losses.ReferenceHalf``): it gathers the batch, noises it,
assembles the network input and, for a preference method, runs the frozen
reference over it. The main thread runs the policy half
(``losses.policy_half``) and carries the backward pass down the stack,
queuing each layer's weight-gradient product on the worker behind step
k + 1's draws (``net.backward``). The Adam update is split in two halves of
the flat parameter buffer, which the gradients and moments share: the
worker updates the first while the main thread updates the second
(``adam_step``). What the worker has not started when the main thread is
done with its own part, the main thread takes back. Neither the generator
nor the reference depends on a step's gradients or update, and each
product and each element's update is the same computation on either
thread, so runs are bit-identical to the sequential loop.
"""

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import diffusion as df
from . import losses
from . import net
from . import toyworld as tw
from .datapipe import _child_seed, atomic_write

METHODS = tuple(losses.LAYOUTS)
CONFIG_FORMAT = "prefdiff-run-config"
CONFIG_VERSION = 4


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
    hidden: int = 256
    time_dim: int = 32
    parameterization: str = "eps"
    dtype: str = "float32"
    # ablation plumbing
    pretrain_steps: int = 3000
    eval_samples_per_prompt: int = 4

    def __post_init__(self):
        validate_config(self)

    def net_config(self):
        return net.NetConfig(grid=self.grid, channels=tw.CHANNELS,
                             hidden=self.hidden, time_dim=self.time_dim,
                             parameterization=self.parameterization)

    def schedule(self):
        return df.make_schedule(self.T, self.beta_start, self.beta_end, self.omega_mode)


def validate_config(config):
    """Raise ValueError naming the first field no run can use. The network's
    rules are ``net.NetConfig``'s and the schedule's
    ``diffusion.make_schedule``'s."""
    net._check_fields(config, {"steps": 0, "pretrain_steps": 0, "warmup_steps": 0, "T": 1,
                               "batch_size": 1, "eval_samples_per_prompt": 1, "seed": 0},
                      {"method": METHODS, "dtype": ("float32", "float64")})
    for name in ("learning_rate", "beta"):
        value = getattr(config, name)
        if isinstance(value, bool) or not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    config.net_config()
    config.schedule()


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
    m: np.ndarray        # first moment, in the parameters' flat layout
    v: np.ndarray        # second moment, likewise
    scratch: np.ndarray  # the update's intermediates, likewise; carries nothing between steps
    step: int = 0

    @classmethod
    def zeros(cls, params):
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat),
                   scratch=np.empty_like(params.flat))


def adam_step(params, grads, state, lr, worker=None):
    """Textbook Adam with bias correction; updates parameters in place.

    Evaluates ``m = beta1*m + (1-beta1)*g``, ``v = beta2*v + (1-beta2)*g**2``
    and ``arr -= lr * (m/c1) / (sqrt(v/c2) + eps)``, where beta1, beta2 and
    eps are ADAM_BETA1, ADAM_BETA2 and ADAM_EPS, with the same operations in
    the same order as the plain expressions. The parameters are bit-identical
    to the plain expressions' whenever the gradients share the parameters'
    dtype, as ``net.backward``'s do.

    The update is elementwise over the flat buffers of the parameters, the
    gradients and the moments, which share one layout, so it splits into
    their first and second halves. ``worker(fn, *args)``, when given, queues
    a call on another thread and returns its future
    (``diffusion.prefetched``'s ``submit``): the first half goes to it while
    the caller updates the second. If the worker has not started its half
    by the time the caller's is done, the caller cancels it and updates it
    too (``diffusion._settle``). Every element gets the same operations in
    the same order wherever it runs.

    The gradients are consumed: each piece writes its intermediates into its
    part of ``state.scratch`` and, once the moments are updated, into its
    part of ``grads``, which thus no longer hold the gradients on return.
    Gradients of another dtype than the parameters' are only read, and a
    temporary buffer takes their place.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    arrays = (params.flat, grads.flat, state.m, state.v, state.scratch)
    if worker is None:
        _adam_update(*arrays, lr, c1, c2)
        return params, state
    half = params.flat.size // 2
    first = (*(a[:half] for a in arrays), lr, c1, c2)
    future = worker(_adam_update, *first)
    _adam_update(*(a[half:] for a in arrays), lr, c1, c2)
    df._settle([(future, _adam_update, first)])
    return params, state


def _adam_update(arr, g, m, v, s1, lr, c1, c2):
    """The update of ``adam_step`` over 1-D ``arr``, ``g``, ``m`` and ``v``, in
    place, with ``s1`` as scratch. ``v`` goes first: it needs the square of
    ``g``, and then ``g`` takes the product of ``m``'s update and serves as the
    second scratch, unless its dtype is not ``arr``'s."""
    s2 = g if g.dtype == arr.dtype else np.empty_like(arr)
    v *= ADAM_BETA2
    np.square(g, out=s1)
    np.multiply(1.0 - ADAM_BETA2, s1, out=s1)
    v += s1
    m *= ADAM_BETA1
    np.multiply(1.0 - ADAM_BETA1, g, out=s2)
    m += s2
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
    return net.DenoiserParams(cfg=params.cfg, flat=params.flat.astype(dtype))


class _StepArrays:
    """The arrays of one step's forward pass and loss, kept for the next step.

    ``empty(shape, dtype)`` is the allocator a step hands to
    ``losses.policy_half``: its k-th call in a step returns the array of the
    k-th call in the step before, to be overwritten, when shape and dtype
    match, else a new one; ``new_step()`` starts the count again. A run thus
    allocates them once, and the C allocator neither returns them to the
    system between steps nor faults them back in. The arrays of a step may
    not be read once the next step begins.
    """

    def __init__(self):
        self._arrays = []
        self._k = 0

    def new_step(self):
        self._k = 0

    def empty(self, shape, dtype):
        k = self._k
        self._k += 1
        if k < len(self._arrays):
            a = self._arrays[k]
            if a.shape == tuple(shape) and a.dtype == dtype:
                return a
        a = np.empty(shape, dtype)
        self._arrays[k:k + 1] = [a]
        return a


def train(config, dataset, init_params=None):
    """Run the configured method over a preference dataset.

    Training starts from ``init_params``, which it reads and never writes, or
    from a fresh seeded init. A preference method's frozen reference is that
    start: ``init_params`` itself when its flat buffer is C-contiguous in the
    run's dtype, else one converted copy. SFT keeps no reference. Returns
    (DenoiserParams, MetricsLog); raises NumericDivergenceError naming the
    step on a non-finite loss or gradient norm, before that step's update.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    dtype = np.dtype(config.dtype)
    sched = config.schedule()
    if init_params is None:
        start = net.init_params(config.net_config(), seed=config.seed, dtype=dtype)
    elif init_params.cfg != config.net_config():
        raise ValueError("init_params network shape differs from config")
    elif init_params.flat.dtype == dtype and init_params.flat.flags.c_contiguous:
        start = init_params
    else:
        start = _copy_for_training(init_params, dtype)
    layout = losses.LAYOUTS[config.method]
    shape = (config.grid, config.grid, tw.CHANNELS)
    arrays = losses._stack_pairs(dataset, dtype, shape, layout.masks)
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
        # SFT reads only the start's config and dtype, which the policy shares
        return losses._reference_half(layout, start, arrays, idx, noise, t_arr, config.beta,
                                      sched)

    log = MetricsLog()
    with df.prefetched(draw, config.steps) as draws:
        # the start is only read, so draw 0 runs while the policy is built; a
        # start the run made itself and no reference reads is the policy
        shared = start is init_params or layout.finish is losses._contrast
        params = _copy_for_training(start, dtype) if shared else start
        grads = net.Gradients(cfg=params.cfg, flat=np.empty_like(params.flat))
        state = AdamState.zeros(params)
        activations = _StepArrays()
        for step, half in enumerate(draws):
            activations.new_step()
            try:
                loss = losses.policy_half(params, half, activations.empty)
            except df.NumericDivergenceError as exc:
                raise df.NumericDivergenceError(f"step {step}: {exc}") from exc
            net.backward(loss, worker=draws.submit, out=grads)
            grad_norm = grads.global_norm()
            if not np.isfinite(grad_norm):
                raise df.NumericDivergenceError(f"step {step}: non-finite gradient norm")
            lr = warmup_lr(step, config.learning_rate, config.warmup_steps)
            adam_step(params, grads, state, lr, worker=draws.submit)
            log.records.append(StepRecord(step=step, loss=loss.value, grad_norm=grad_norm,
                                          margin=loss.margin, lr=lr,
                                          reward_accuracy=loss.reward_accuracy))
            del loss   # its arrays are the next step's to overwrite
    return params, log


# ---------------------------------------------------------------------------
# run config and metrics files

def save_config(config, path):
    record = {"format": CONFIG_FORMAT, "version": CONFIG_VERSION, **asdict(config)}
    with atomic_write(path) as fh:
        json.dump(record, fh, indent=2)


def load_config(path, **overrides):
    """The TrainConfig of a run-config file, ``overrides`` applied. Its
    errors leave the path to the caller, as ``datapipe.read_dataset``'s do."""
    with open(path) as fh:
        record = json.load(fh)
    if not isinstance(record, dict):
        raise ValueError("not a JSON object")
    if record.pop("format", None) != CONFIG_FORMAT or record.pop("version", None) != CONFIG_VERSION:
        raise ValueError(f"not a {CONFIG_FORMAT} v{CONFIG_VERSION} file")
    unknown = sorted(set(record) - {f.name for f in fields(TrainConfig)})
    if unknown:
        raise ValueError(f"unknown keys: {', '.join(unknown)}")
    try:
        return TrainConfig(**{**record, **overrides})
    except TypeError as exc:   # e.g. a string where a number belongs
        raise ValueError(f"a field has the wrong type: {exc}") from exc


def write_metrics(log, path):
    with atomic_write(path) as fh:
        for rec in log.records:
            fh.write(json.dumps({"kind": "step", **asdict(rec)}) + "\n")
