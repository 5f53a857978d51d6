"""The preference-training loss family for the toy denoiser.

All preference losses share one contrastive core: the difference between
the policy's and a frozen reference's (optionally region-weighted) squared
noise-prediction errors on a preferred branch minus the same difference on
a dispreferred branch, scaled by beta * T * omega(lambda_t), passed through
-log(sigmoid). The full bracketed difference sits inside the sigmoid's
argument.

``LAYOUTS`` holds each training method's ``Layout``: the (noised image,
caption) rows its loss reads and the rule that finishes it. Diffusion-DPO
reads the noised winner and loser under the winner caption, the caption
contrast the noised winner under both captions, and the bimodal loss adds
the mirrored term on the noised loser.

Every loss runs in two halves. The reference half (``_reference_half``,
giving a ``ReferenceHalf``) does not depend on the policy: it gathers the
batch, noises it, assembles the rows into one ``NetInput``, whose factorised
first layer computes each image's product once however many blocks read it,
and for a contrast runs the frozen reference over the rows to its per-row
errors. It calls numpy and private cores only, so ``trainer.train`` runs it
on the draw worker one step ahead of its use. The policy half
(``policy_half``) runs the policy's forward pass and the layout's rule on the
caller's thread. ``batch_loss(method, ...)``, the one checked way into a
loss, gives any method's loss outside training: it checks its arguments with
``df._check_noising`` and ``net._check_blocks``, and its weight rows with
``_check_weights``, then runs both halves in turn.

Every loss is a batch mean over per-row, mask-weighted squared errors
e = sum(mask * (pred - target)^2), so its gradient has a closed form: each
loss forms dL/de per row, c_row = +-sigmoid(arg) * coef / N for the
preference losses and 1 / (N * D) for SFT, hence dL/dpred = 2 * c_row * mask
* (pred - target), and ``net.backward`` carries that through the policy's
forward pass. The reference only contributes values. A saturated item, one
whose sigmoid(arg) is below SATURATED_SIGMOID (arg < -44.4), gets c_row = 0
exactly; its loss value and margin are kept.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import diffusion as df
from . import net
from . import toyworld as tw

REGION_EXEMPT_DIMENSIONS = ("spatial", "numeracy")

# Below this, an item's gradient coefficient sigmoid(arg) is set to zero
# (arg < -44.4). Such an item's rows add less than 2**-64 * coef / N to
# dL/de, below float64's resolution next to any item whose sigmoid is of
# order one, yet left alone its coefficient falls under float32's smallest
# normal number (2**-126) for arg < -87, and subnormal operands slow x86
# matmuls and ufuncs 5-20x through every layer of the backward pass. Rows
# that stay keep about 50 binary orders of magnitude of headroom above the
# normal range, so no layer's gradient turns subnormal further down. The
# loss value and margin never change, nor does the gradient, bit for bit,
# when no item saturates.
SATURATED_SIGMOID = 2.0 ** -64


@dataclass
class Loss:
    """Scalar batch loss plus what its closed-form gradient needs:
    ``net.backward(loss)`` differentiates ``theta`` through ``acts``."""

    value: float
    margin: float               # mean sigmoid argument over the batch
    theta: net.DenoiserParams   # the policy the loss was computed from
    acts: list                  # the policy forward pass, as net.forward_rows caches it
    d_out: np.ndarray           # dL/d(stack output), one row per policy row
    reward_accuracy: float | None = None  # share of (item, term) sigmoid arguments > 0


def _check_weights(w):
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("mask weights must be finite and nonnegative")


def _mask_rows(masks, image_shape, dtype=np.float64):
    """Stack (grid, grid) masks, each laid on every channel, to flat per-row
    weights, all ones where a mask is None; None when every mask is None."""
    if all(m is None for m in masks):
        return None
    rows = np.ones((len(masks), int(np.prod(image_shape))), dtype=dtype)
    for row, m in zip(rows, masks):
        if m is not None:
            row.reshape(image_shape)[...] = m[..., None]
    return rows


def _errors(pred, image_of_block, targets, masks, empty=np.empty):
    """Per-row weighted squared errors e = sum(mask * (pred - target)^2),
    shape (M,), of a prediction over row blocks of N rows, and the weighted
    residual mask * (pred - target) that their gradient needs.

    Row block b reads the (N, D) target and the mask rows of image
    ``image_of_block[b]``; a None mask weighs every cell by one.

    Buffers: the residual is formed in ``pred`` itself where its dtype can
    hold it, and without masks that residual is the weighted residual
    returned. With masks the weighted residual is written into an array that
    ``empty(shape, dtype)`` gives, by default a new one, and the products
    ``weighted * resid`` are written over the residual when the two share a
    dtype. For the policy in the eps parameterisation, ``pred``
    is the last layer's cached pre-activation, which ``net.backward`` never
    reads.
    """
    n = len(targets[0])
    dtype = np.result_type(pred, *targets)
    resid = pred if pred.dtype == dtype else pred.astype(dtype)
    rows = [slice(b * n, (b + 1) * n) for b in range(len(image_of_block))]
    for r, k in zip(rows, image_of_block):
        resid[r] -= targets[k]
    if all(m is None for m in masks):
        return (resid * resid).sum(axis=1), resid
    weighted = empty(resid.shape, np.result_type(resid, *(m for m in masks if m is not None)))
    for r, k in zip(rows, image_of_block):
        if masks[k] is None:
            weighted[r] = resid[r]
        else:
            np.multiply(resid[r], masks[k], out=weighted[r])
    squares = resid if resid.dtype == weighted.dtype else None
    return np.multiply(weighted, resid, out=squares).sum(axis=1), weighted


def _check_finite(loss, context):
    if not np.all(np.isfinite(loss)):
        raise df.NumericDivergenceError(f"non-finite loss in {context}")


def _contrast_batch(e_theta, e_ref, coef, context):
    """Shared contrastive core over the terms of N items. The rows come in
    pairs of N-row blocks, one pair per term, with the preferred branch
    first.

    Returns (per-item loss summed over the terms (N,), sigma arguments
    (terms, N), dloss/de_theta per row (2 * terms * N,)).
    """
    d = (e_theta - e_ref).reshape(-1, 2, len(coef))
    arg = (d[:, 0] - d[:, 1]) * coef      # sigma argument is -arg
    per_item = ad.softplus(arg)
    _check_finite(per_item, context)
    weight = ad._sigmoid(arg)
    weight[weight < SATURATED_SIGMOID] = 0.0
    slope = weight * coef
    return per_item.sum(axis=0), -arg, np.stack([slope, -slope], axis=1).reshape(-1)


# ---------------------------------------------------------------------------
# the method table and the two halves of a step

def _contrast(half, e_theta):
    """The DPO rule: the mean over N items of the contrastive terms, one per
    two row blocks.

    Without reference errors the reference passes are the policy's own:
    every bracket is exactly zero, and so is the gradient, since the
    reference's share of it cancels the policy's.
    """
    n = len(half.t_arr)
    coef = half.beta * half.sched.T * df.omega_vector(half.sched, half.t_arr)
    e_ref = e_theta if half.e_ref is None else half.e_ref
    per_item, args, slope = _contrast_batch(e_theta, e_ref, coef, half.layout.method)
    c_rows = np.zeros_like(slope) if half.e_ref is None else slope / n
    return (float(np.mean(per_item)), float(np.mean(args.mean(axis=0))), c_rows,
            float(np.mean(args > 0)))


def _cell_mse(half, e_theta):
    """The SFT rule: the batch mean of the per-cell mean squared error."""
    n, d = half.targets[0].shape
    per_item = e_theta * (1.0 / d)
    _check_finite(per_item, half.layout.method)
    return float(np.mean(per_item)), 0.0, np.full(n, 1.0 / (n * d)), None


@dataclass(frozen=True)
class Layout:
    """The rows one training method's loss reads from a batch of pairs."""

    method: str       # the method's key in ``LAYOUTS``, named by the loss's errors
    noised: tuple     # the pair images noised, "w" and/or "l", the winner first
    blocks: tuple     # (index into ``noised``, caption "w"/"l") per row block,
                      # two per contrastive term with the preferred branch first
    masks: bool       # the pairs' region masks are stacked and weigh the errors
    finish: object    # (half, e_theta) -> (value, margin, dL/de per row, reward accuracy)


_BIMODAL_BLOCKS = ((0, "w"), (0, "l"), (1, "l"), (1, "w"))

LAYOUTS = {layout.method: layout for layout in (
    Layout("sft", ("w",), ((0, "w"),), False, _cell_mse),
    Layout("image_dpo", ("w", "l"), ((0, "w"), (1, "w")), False, _contrast),
    Layout("text_dpo", ("w",), ((0, "w"), (0, "l")), False, _contrast),
    Layout("bidpo", ("w", "l"), _BIMODAL_BLOCKS, False, _contrast),
    Layout("bidpo_region", ("w", "l"), _BIMODAL_BLOCKS, True, _contrast),
)}


@dataclass(frozen=True)
class ReferenceHalf:
    """The policy-independent half of a loss over N items.

    ``inp`` holds the distinct noised images and the layout's row blocks.
    ``targets[k]`` and ``masks[k]`` are the (N, D) noise target and weight
    rows (or None) of image k, kept once however many blocks read it.
    """

    layout: Layout
    inp: net.NetInput
    t_arr: np.ndarray          # (N,) step of each item
    targets: tuple             # per image, its (N, D) noise
    masks: tuple               # per image, (N, D) weight rows or None
    e_ref: np.ndarray | None   # (B * N,) reference row errors, or None
    beta: float | None
    sched: df.DiffusionSchedule


def pair_masks(pair):
    """The region masks a loss applies to a pair, ``toyworld.edit_masks`` of
    its scenes at its grid: none for a pair without scenes or whose dimension
    needs a global focus (spatial and numeracy)."""
    if pair.scene_w is None or pair.dimension in REGION_EXEMPT_DIMENSIONS:
        return None, None
    return tw.edit_masks(pair.scene_w, pair.scene_l, pair.x0_w.shape[0])


def _stack_pairs(dataset, dtype, shape, masks):
    """A dataset's images and caption encodings stacked once, keyed as
    ``_reference_half`` reads them; with ``masks``, also the weight rows of
    the pairs' ``pair_masks``, each None when no pair has a mask."""
    for p in dataset:
        if p.x0_w.shape != shape:
            raise ValueError(f"pair image shape {p.x0_w.shape} != configured {shape}")
    arrays = {
        "x0_w": np.stack([p.x0_w for p in dataset]).astype(dtype),
        "x0_l": np.stack([p.x0_l for p in dataset]).astype(dtype),
        "enc_w": np.stack([net.encode_caption(p.y_w) for p in dataset]).astype(dtype),
        "enc_l": np.stack([net.encode_caption(p.y_l) for p in dataset]).astype(dtype),
    }
    if masks:
        both = [pair_masks(p) for p in dataset]
        arrays["masks_w"] = _mask_rows([mw for mw, _ in both], shape, dtype)
        arrays["masks_l"] = _mask_rows([ml for _, ml in both], shape, dtype)
    return arrays


def _reference_half(layout, ref, arrays, idx, noise, t_arr, beta, sched, score=True):
    """Gather the N items ``idx`` of ``arrays`` and build the layout's
    ``ReferenceHalf``, scoring the reference for a contrast when ``score``.

    ``arrays`` maps "x0_w"/"x0_l" to stacked pair images, "enc_w"/"enc_l" to
    caption encodings and "masks_w"/"masks_l", where given, to flat weight
    rows or None; ``noise`` holds one (N, ...) noise batch per image of
    ``layout.noised``. It calls numpy and private cores only, so the draw
    worker may run it. It runs no checks: ``batch_loss`` runs them first, and
    ``policy_half`` checks the input's widths again on the caller's thread.
    """
    image_of_block, captions = zip(*layout.blocks)
    masks = tuple(None if arrays.get(f"masks_{s}") is None else arrays[f"masks_{s}"][idx]
                  for s in layout.noised)
    noised = [df._q_sample(arrays[f"x0_{s}"][idx], t_arr, e, sched)
              for s, e in zip(layout.noised, noise)]
    inp = net._assemble_input(ref, noised, t_arr, [arrays[f"enc_{c}"][idx] for c in captions],
                              sched, image_of_block)
    targets = tuple(e.reshape(len(t_arr), -1) for e in noise)
    e_ref = None
    if score and layout.finish is _contrast:
        pred = net._predict_noise_rows(ref, inp, np.tile(t_arr, len(captions)), sched)
        e_ref = _errors(pred, image_of_block, targets, masks)[0]
    return ReferenceHalf(layout, inp, t_arr, targets, masks, e_ref, beta, sched)


def policy_half(theta, half, empty=np.empty):
    """Finish a loss from its ``ReferenceHalf``: the policy's forward pass
    over the same rows, the layout's rule and ``d_out``. Returns a Loss.

    ``d_out`` takes the parameters' dtype, so the backward pass runs in it.
    The prediction is already in that dtype; the float64 comes from the
    factors of its gradient, the rule's ``c_rows`` and, for x0, the column
    of ``net.noise_output_slope``.

    Buffers: the forward pass and ``_errors`` take the arrays they return
    or cache from ``empty(shape, dtype)``, by default new ones
    (``net.forward_rows``). ``d_out`` is written over the weighted residual
    of ``_errors`` when that array has the parameters' dtype. For eps
    without masks that array is the policy's prediction, the last layer's
    cached pre-activation: the step turns it into the residual and then into
    ``d_out``, and ``net.backward`` never reads it.
    """
    t_rows = np.tile(half.t_arr, len(half.inp.image_of_block))
    acts = []
    pred = net.predict_noise_rows(theta, half.inp, t_rows, half.sched, acts, empty)
    e_theta, weighted = _errors(pred, half.inp.image_of_block, half.targets, half.masks, empty)
    value, margin, c_rows, reward_accuracy = half.layout.finish(half, e_theta)
    scale = 2.0 * c_rows[:, None] * net.noise_output_slope(theta.cfg, t_rows, half.sched)
    dtype = theta.flat.dtype
    d_out = np.multiply(scale, weighted, dtype=dtype,
                        out=weighted if weighted.dtype == dtype else None)
    return Loss(value=value, margin=margin, theta=theta, acts=acts, d_out=d_out,
                reward_accuracy=reward_accuracy)


def batch_loss(method, theta, ref, arrays, noise, t_arr, beta, sched):
    """The Loss of training method ``method`` (a key of ``LAYOUTS``) over N
    items, for the policy ``theta`` against the frozen ``ref``.

    ``arrays`` holds the items' inputs keyed as ``_stack_pairs`` stacks
    them: "x0_w"/"x0_l" (N, H, W, C) images, "enc_w"/"enc_l" (N, K) caption
    encodings and, optionally, "masks_w"/"masks_l" (N, D) weight rows or
    None. ``noise`` holds one (N, H, W, C) batch per image of
    ``LAYOUTS[method].noised``; SFT ignores ``beta``. With ``ref is theta`` a
    contrast scores no reference: every bracket is zero, and so is the
    gradient.

    Raises ValueError on steps that are not an (N,) array of integers in the
    schedule, on images, noise or encodings whose shapes do not fit
    (``df._check_noising``, ``net._check_blocks``), and on weight rows that
    are not (N, D) or hold a negative or non-finite weight (``_check_weights``).
    """
    layout = LAYOUTS[method]
    t_arr = np.asarray(t_arr)
    arrays = {name: None if a is None else np.asarray(a) for name, a in arrays.items()}
    noise = [np.asarray(e) for e in noise]
    if len(noise) != len(layout.noised):
        raise ValueError(f"{method} noises {len(layout.noised)} images, "
                         f"got {len(noise)} noise batches")
    x0 = [arrays[f"x0_{s}"] for s in layout.noised]
    for x, e in zip(x0, noise):
        df._check_noising(x, t_arr, e, sched)
    net._check_blocks(ref.cfg, x0, t_arr, [arrays[f"enc_{c}"] for _, c in layout.blocks],
                      sched, [k for k, _ in layout.blocks])
    rows_shape = (len(t_arr), ref.cfg.image_dim)
    for s in layout.noised:
        rows = arrays.get(f"masks_{s}")
        if rows is not None:
            if rows.shape != rows_shape:
                raise ValueError(f"mask shape {rows.shape} != {rows_shape}")
            _check_weights(rows)
    half = _reference_half(layout, ref, arrays, slice(None), noise, t_arr, beta, sched,
                           score=ref is not theta)
    return policy_half(theta, half)
