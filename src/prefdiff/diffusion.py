"""Forward noising process, noise schedule bookkeeping, and ancestral sampling.

Work that does not depend on the step before it runs one step ahead of its
use. ``prefetched`` calls a draw function on one worker thread while the
caller computes with the previous draw. ``ddpm_sample_batch`` takes its
initial images and its per-step noise from it. ``trainer.train`` takes from
it each step's draws and the policy-independent half of the step's loss
(``losses.ReferenceHalf``): the noised batch, the network input and, for a
preference method, the frozen reference's per-row errors. Training also
queues on the same worker, behind the next draw (``prefetched``'s
``submit``), each layer's weight-gradient product of the backward pass and
half of each step's Adam update; ``_settle`` runs in the caller whichever of
them the worker has not started when the caller needs it. No step's
computation feeds back into its generator or into the frozen reference, so
each generator is consumed in the same order as a sequential loop would,
and every output is bit-identical to it. The worker calls no public
prefdiff function, since the benchmark's span tracer is single-threaded: it
runs numpy and the private cores behind the public functions (``_q_sample``
here, ``net._first_layer_grad``, ``trainer._adam_update``), whose checks
the caller runs.
"""

import contextvars
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

OMEGA_MODES = ("constant", "snr")
OMEGA_CLIP = 5.0           # cap on the snr-mode loss weight


class NumericDivergenceError(ArithmeticError):
    """Non-finite values encountered during sampling or loss evaluation."""


@dataclass(frozen=True)
class DiffusionSchedule:
    """Per-step noise coefficients for a discrete-time diffusion process.

    ``alpha_bar[t]`` is the cumulative product of (1 - beta[s]) for s <= t and
    ``lambda_log_snr[t] = ln(alpha_bar[t] / (1 - alpha_bar[t]))``; both are
    strictly decreasing in t.
    """

    T: int
    beta: np.ndarray
    alpha_bar: np.ndarray
    lambda_log_snr: np.ndarray
    omega_mode: str = "constant"

    def spec(self):
        """The ``make_schedule`` arguments that rebuild this schedule."""
        return {"T": self.T, "beta_start": float(self.beta[0]),
                "beta_end": float(self.beta[-1]), "omega_mode": self.omega_mode}


def make_schedule(T, beta_start, beta_end, omega_mode="constant"):
    """Build a schedule of T steps whose beta rises linearly from beta_start
    to beta_end.

    ``omega_mode`` sets the loss weight ``omega_vector``: 1.0 ("constant")
    or the step's SNR clipped at OMEGA_CLIP ("snr"). Raises ValueError unless
    0 < beta_start <= beta_end < 1 and T >= 1.
    """
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ValueError(f"T must be a positive integer, got {T!r}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError(f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})")
    if omega_mode not in OMEGA_MODES:
        raise ValueError(f"omega_mode must be one of {OMEGA_MODES}, got {omega_mode!r}")
    beta = np.linspace(beta_start, beta_end, T, dtype=np.float64)
    alpha_bar = np.cumprod(1.0 - beta)
    lam = np.log(alpha_bar) - np.log1p(-alpha_bar)
    return DiffusionSchedule(T=int(T), beta=beta, alpha_bar=alpha_bar,
                             lambda_log_snr=lam, omega_mode=omega_mode)


def check_steps(sched, t):
    """Raise ValueError unless every step index in ``t`` (a scalar or an
    array) lies in [0, T)."""
    t = np.asarray(t)
    bad = t[(t < 0) | (t >= sched.T)]
    if bad.size:
        raise ValueError(f"step index {bad.flat[0]} out of range [0, {sched.T})")


def q_sample(x0, t, eps, sched):
    """Noise x0 to step t: sqrt(alpha_bar[t]) * x0 + sqrt(1 - alpha_bar[t]) * eps.

    ``t`` is either one step index, applied to all of ``x0``, or an (N,) array
    of them for an (N, ...) batch, whose row i is noised to step t[i]. The
    result takes the inputs' floating dtype, so float32 images noise in float32.
    """
    t, x0, eps = np.asarray(t), np.asarray(x0), np.asarray(eps)
    _check_noising(x0, t, eps, sched)
    return _q_sample(x0, t, eps, sched)


def _check_noising(x0, t, eps, sched):
    """The checks of ``q_sample`` on its array arguments."""
    check_steps(sched, t)
    if x0.shape != eps.shape:
        raise ValueError(f"shape mismatch: x0 {x0.shape} vs eps {eps.shape}")
    if t.shape not in ((), x0.shape[:1]):
        raise ValueError(f"steps shape {t.shape} does not match batch {x0.shape}")


def _q_sample(x0, t, eps, sched):
    """``q_sample`` on arrays that pass ``_check_noising``, unchecked."""
    ab = sched.alpha_bar[t].reshape(t.shape + (1,) * (x0.ndim - t.ndim))
    dtype = np.result_type(x0, eps, np.float32)
    return np.sqrt(ab).astype(dtype) * x0 + np.sqrt(1.0 - ab).astype(dtype) * eps


def omega_vector(sched, t_arr):
    """Loss weight at each step of ``t_arr``: 1.0 in constant mode, the
    step's SNR clipped at OMEGA_CLIP in snr mode."""
    t_arr = np.asarray(t_arr)
    check_steps(sched, t_arr)
    if sched.omega_mode == "constant":
        return np.ones(t_arr.shape)
    return np.minimum(np.exp(sched.lambda_log_snr[t_arr]), OMEGA_CLIP)


@contextmanager
def prefetched(draw, count):
    """Context manager giving an iterator over ``draw(0), ..., draw(count - 1)``.

    Each call runs on one worker thread: ``draw(k + 1)`` starts as soon as
    ``draw(k)`` is handed to the caller, so it overlaps the caller's work on
    that value. A yielded value is valid until the next one is requested,
    which lets ``draw`` fill two alternating buffers: ``draw(k + 2)`` may
    overwrite what ``draw(k)`` returned. The iterator's ``submit(fn, *args)``
    queues one more call on the same worker, behind the pending draw, and
    returns its ``concurrent.futures.Future``: ``result()`` waits for it and
    raises its exception, and a successful ``cancel()`` means it never runs.
    Each call runs in a copy of the caller's context as it was when the call
    was queued, so numpy's error state (``np.errstate``) holds on the worker
    as it does for the caller. The worker lives for the ``with`` block only
    and is joined when it exits, also when the caller raises or stops early.
    An exception raised by ``draw`` is raised to the caller when it requests
    that value.
    """
    with ThreadPoolExecutor(max_workers=1) as pool:
        yield _Draws(pool, draw, count)


class _Draws:
    """The iterator of ``prefetched``, with the next draw always queued."""

    def __init__(self, pool, draw, count):
        self._pool, self._draw, self._count = pool, draw, count
        self._k = 0
        self._pending = self.submit(draw, 0) if count > 0 else None

    def submit(self, fn, *args):
        return self._pool.submit(contextvars.copy_context().run, fn, *args)

    def __iter__(self):
        return self

    def __next__(self):
        if self._pending is None:
            raise StopIteration
        value = self._pending.result()
        self._k += 1
        self._pending = self.submit(self._draw, self._k) if self._k < self._count else None
        return value


def _settle(queued):
    """Finish the calls queued on a worker, each given as (future, fn, args):
    latest first, one the worker has not started is cancelled and run here
    as ``fn(*args)``, and one it has started is waited for. A call's
    exception is raised here. The worker runs its calls in the order they
    were queued, so once one cannot be cancelled, every earlier one has
    started too."""
    for future, fn, args in reversed(queued):
        if future.cancel():
            fn(*args)
        else:
            future.result()


def ddpm_sample_batch(params, encodings, sched, seeds):
    """Ancestral sampling for a batch of caption encodings.

    Each row of ``encodings`` gets its own generator seeded from ``seeds``, so
    batching changes a sample only through the rounding of the batched matrix
    products (BLAS blocks rows differently by batch size), which the reverse
    chain can amplify. For a small network (grid 6, hidden 16, T 5) with
    random weights, batch and single calls agree within 1e-4 in float32 and
    1e-10 in float64 (measured: about 5e-6 and 4e-15); a large network with
    badly scaled weights can drift further. Returns an array of images
    clamped to [-1, 1].

    Raises NumericDivergenceError naming the offending step if any
    intermediate becomes non-finite.

    The T draws (the initial images, then one noise image per step t > 0)
    come from ``prefetched``, each row filled from its own generator in
    float64 and cast to the parameters' dtype, as a sequential loop of
    ``g.standard_normal(shape)`` calls would give them.
    """
    from . import net  # local import: net depends on this module for schedules

    encodings = np.asarray(encodings)
    n = encodings.shape[0]
    if len(seeds) != n:
        raise ValueError("need one seed per encoding")
    gens = [np.random.default_rng(np.random.SeedSequence(int(s) & 0xFFFFFFFFFFFFFFFF))
            for s in seeds]
    cfg = params.cfg
    shape = (cfg.grid, cfg.grid, cfg.channels)
    dtype = params.flat.dtype
    scratch = np.empty((n,) + shape)
    buffers = (np.empty((n,) + shape, dtype), np.empty((n,) + shape, dtype))

    def draw(k):
        for g, row in zip(gens, scratch):
            g.standard_normal(out=row)
        out = buffers[k % 2]
        np.copyto(out, scratch)
        return out

    # per-step coefficients, computed in float64 and cast to the parameters'
    # dtype so that a float32 model samples in float32
    ab = sched.alpha_bar
    alpha_bar_prev = np.concatenate([[1.0], ab[:-1]])
    post_var = (1.0 - alpha_bar_prev) / (1.0 - ab) * sched.beta
    eps_coef = np.sqrt(1.0 - ab).astype(dtype)
    sqrt_ab = np.sqrt(ab).astype(dtype)
    x0_coef = (np.sqrt(alpha_bar_prev) * sched.beta).astype(dtype)
    x_coef = (np.sqrt(1.0 - sched.beta) * (1.0 - alpha_bar_prev)).astype(dtype)
    mean_div = (1.0 - ab).astype(dtype)
    noise_sd = np.sqrt(post_var).astype(dtype)

    with prefetched(draw, sched.T) as draws:
        x = next(draws)
        for t in range(sched.T - 1, -1, -1):
            t_arr = np.full(n, t)
            try:
                eps_hat = net.forward_batch(params, x, t_arr, encodings, sched)
            except NumericDivergenceError as exc:
                raise NumericDivergenceError(f"step t={t}: {exc}") from exc
            # posterior mean in denoised form, with the usual clip on the
            # implied clean image to keep model error from compounding
            x0_hat = np.clip((x - eps_coef[t] * eps_hat) / sqrt_ab[t],
                             -1.0, 1.0)
            mean = (x0_coef[t] * x0_hat + x_coef[t] * x) / mean_div[t]
            # x is not read again, so the next draw may reuse its buffer
            x = mean + noise_sd[t] * next(draws) if t > 0 else mean
            if not np.all(np.isfinite(x)):
                raise NumericDivergenceError(f"non-finite sample state at step t={t}")
    return np.clip(x, -1.0, 1.0)
