"""Shared test helpers: grammar enumeration, loss inputs built from preference
pairs, finite-difference oracles, stand-in workers for the calls that
``adam_step`` and ``net.backward`` queue, and a thread-leak check. Importing
this module pins BLAS to one thread."""

import itertools
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor

# One BLAS thread, set before numpy loads OpenBLAS, so that suite timings do
# not depend on how BLAS threads and the random-draw worker share the cores
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from prefdiff import datapipe as dp  # noqa: E402
from prefdiff import losses  # noqa: E402
from prefdiff import net  # noqa: E402
from prefdiff import toyworld as tw  # noqa: E402


def enumerate_captions():
    """Every caption the grammar can produce (used for brute-force checks)."""
    captions = []
    shape_pairs = [(a, b) for a in tw.SHAPES for b in tw.SHAPES if a != b]

    for attr, vocab, dim in (("color", tw.COLORS, "color"),
                             ("texture", tw.TEXTURES, "texture")):
        for s in tw.SHAPES:
            for v in vocab:
                captions.append(tw.Caption(
                    dimension=dim, objects=(tw.ObjectSlot(s, **{attr: v}),)))
        for (a, b), va, vb in itertools.product(shape_pairs, vocab, vocab):
            captions.append(tw.Caption(dimension=dim, objects=(
                tw.ObjectSlot(a, **{attr: va}), tw.ObjectSlot(b, **{attr: vb}))))

    for s in tw.SHAPES:
        captions.append(tw.Caption(dimension="shape", objects=(tw.ObjectSlot(s),)))
    for a, b in shape_pairs:
        captions.append(tw.Caption(dimension="shape",
                                   objects=(tw.ObjectSlot(a), tw.ObjectSlot(b))))

    for a, b in shape_pairs:
        for rel in tw.RELATIONS:
            captions.append(tw.Caption(dimension="spatial", relation=rel,
                                       objects=(tw.ObjectSlot(a), tw.ObjectSlot(b))))
            for ca, cb in itertools.product(tw.COLORS, tw.COLORS):
                captions.append(tw.Caption(
                    dimension="spatial", relation=rel,
                    objects=(tw.ObjectSlot(a, color=ca), tw.ObjectSlot(b, color=cb))))

    for s in tw.SHAPES:
        for count in dp.SAMPLED_COUNTS:
            captions.append(tw.Caption(dimension="numeracy", count=count,
                                       objects=(tw.ObjectSlot(s),)))
            for c in tw.COLORS:
                captions.append(tw.Caption(dimension="numeracy", count=count,
                                           objects=(tw.ObjectSlot(s, color=c),)))
            for t in tw.TEXTURES:
                captions.append(tw.Caption(dimension="numeracy", count=count,
                                           objects=(tw.ObjectSlot(s, texture=t),)))
    return captions


def synthetic_pair(x0_w, y_w, x0_l, y_l, mask_w=None, mask_l=None):
    """A PreferencePair of the given images and captions, without scenes."""
    return dp.PreferencePair(x0_w=x0_w, y_w=y_w, x0_l=x0_l, y_l=y_l,
                             scene_w=None, scene_l=None, mask_w=mask_w, mask_l=mask_l)


def stacked(pairs, masks=False):
    """``losses.batch_loss``'s ``arrays`` for ``pairs``, stacked as
    ``trainer.train`` stacks them: in float64 and, with ``masks``, with the
    region masks that ``losses.pair_masks`` keeps."""
    return losses._stack_pairs(pairs, np.float64, np.shape(pairs[0].x0_w), masks)


def pair_loss(method, theta, ref, pair, t, noise, beta, sched, masks=False):
    """``losses.batch_loss`` over one item, ``pair`` at step ``t``; ``noise``
    holds one image-shaped draw per image that ``method`` noises."""
    return losses.batch_loss(method, theta, ref, stacked([pair], masks),
                             [np.asarray(e)[None] for e in noise], [t], beta, sched)


def finite_difference_grads(loss_fn, params, h=1e-5, order=2):
    """Central finite differences of loss_fn() w.r.t. every parameter entry:
    the 3-point stencil, whose error is O(h^2), or with ``order=4`` the
    5-point one, whose O(h^4) error allows a larger h and so less rounding
    noise in entries far below the gradient's scale."""
    grads = []
    for w, b in params.layers:
        pair = []
        for arr in (w, b):
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]

                def at(k):
                    arr[idx] = orig + k * h
                    return loss_fn()

                if order == 4:
                    g[idx] = (-at(2) + 8 * at(1) - 8 * at(-1) + at(-2)) / (12 * h)
                else:
                    g[idx] = (at(1) - at(-1)) / (2 * h)
                arr[idx] = orig
            pair.append(g)
        grads.append(tuple(pair))
    return grads


def max_relative_grad_error(analytic, numeric, floor=1e-6):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def norm_relative_grad_error(analytic, numeric):
    """Relative error per layer-gradient block.

    Central differences carry ~1e-9 absolute noise at h=1e-5 (f64), so
    entries near zero cannot be compared elementwise by ratio; the block
    norm is the scale at which the oracle actually resolves the gradient.
    """
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = max(float(np.linalg.norm(n.reshape(-1))), 1e-12)
            err = float(np.linalg.norm((a - n).reshape(-1)))
            worst = max(worst, err / denom)
    return worst


def randomized_params(params, seed, scale=0.3):
    """Overwrite every layer (including the zero-initialized head) randomly."""
    rng = np.random.default_rng(seed)
    for w, b in params.layers:
        w[...] = rng.normal(0.0, scale, w.shape)
        b[...] = rng.normal(0.0, scale, b.shape)
    return params


def params_with_layers(cfg, layers):
    """DenoiserParams of ``cfg`` whose (W, b) views hold ``layers``' values."""
    params = net.DenoiserParams(cfg=cfg, flat=np.zeros(net.expected_param_count(cfg)))
    for (w, b), (w_new, b_new) in zip(params.layers, layers, strict=True):
        w[...] = w_new
        b[...] = b_new
    return params


def with_dtype(params, dtype):
    """A copy of ``params`` whose flat buffer has ``dtype``."""
    return net.DenoiserParams(cfg=params.cfg, flat=params.flat.astype(dtype),
                              trainable=params.trainable)


@pytest.fixture
def no_leaked_threads():
    """Fail the test if it ends with more or fewer live threads than it began
    with: the random-draw worker must be joined on every exit path."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before, threading.enumerate()


def run_now(fn, *args):
    """A worker that has run each call by the time it returns the future."""
    future = Future()
    future.set_result(fn(*args))
    return future


def never_started(fn, *args):
    """A worker that never starts a call, so the caller takes each one back."""
    return Future()


@pytest.fixture(params=["inline", "thread", "run_now", "never_started"])
def worker(request):
    """Each way a queued call can be settled: no worker (every call in line),
    a real worker thread, one that ran the call already, one that never
    starts it."""
    if request.param == "thread":
        with ThreadPoolExecutor(max_workers=1) as pool:
            yield pool.submit
    else:
        yield {"inline": None, "run_now": run_now, "never_started": never_started}[
            request.param]
