"""The preference-training loss family for the toy denoiser.

All losses share one contrastive core: the difference between the policy's
and a frozen reference's (optionally region-weighted) squared noise-prediction
errors on a preferred branch minus the same difference on a dispreferred
branch, scaled by beta * T * omega(lambda_t), passed through -log(sigmoid).
The full bracketed difference sits inside the sigmoid's argument.

Each preference loss is a list of distinct images, each (x0, eps, mask rows
or None) for the N items of a batch, and a list of row blocks, each (image
index, encodings), two blocks per contrastive term with the preferred branch
first. The image-contrastive loss noises winner and loser images separately
and conditions both on the winner caption: images [x_t^w, x_t^l], block ->
image map (0, 1). The caption-contrastive loss evaluates all four terms on
one noised winner image: images [x_t^w], map (0, 0), captions c_w then c_l.
The bimodal loss is the sum of two caption-contrastive terms with the roles
mirrored: images [x_t^w, x_t^l], map (0, 0, 1, 1), captions c_w, c_l, c_l,
c_w.

Every DPO batch loss runs in two halves. The reference half
(``_reference_half``, giving a ``ReferenceHalf``) does not depend on the
policy: it noises the images, assembles the rows into one ``NetInput``,
whose factorised first layer computes each image's product once however
many blocks read it, keeps one noise target and one mask row block per
image, and runs the frozen reference over the rows to its per-row errors.
It calls numpy and private cores only, so ``trainer.train`` runs it on the
draw worker one step ahead of its use. The policy half (``policy_half``)
runs the policy's forward pass over the same input, the contrastive terms
and ``d_out`` on the caller's thread, together with the checks that the
reference half leaves out. The public ``*_batch`` losses check their
arguments as ``q_sample`` and ``assemble_input`` do, then run both halves in
turn.

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

REGION_EXEMPT_DIMENSIONS = ("spatial", "numeracy")
DEFAULT_BETA = 0.1

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


@dataclass(frozen=True)
class LossBatchItem:
    """One sampled term of the image-contrastive expectation."""

    pair: object                 # datapipe.PreferencePair
    t: int
    eps_w: np.ndarray
    eps_l: np.ndarray
    beta: float = DEFAULT_BETA


@dataclass
class Loss:
    """Scalar batch loss plus what its closed-form gradient needs."""

    value: float
    margin: float               # mean sigmoid argument over the batch
    theta: net.DenoiserParams   # the policy the loss was computed from
    acts: list                  # the policy forward pass, as net.forward_rows caches it
    d_out: np.ndarray           # dL/d(stack output), one row per policy row
    reward_accuracy: float | None = None  # share of (item, term) sigmoid arguments > 0

    def backward(self):
        return net.backward(self.theta, self)


def masked_sq_err(eps, eps_hat, mask=None):
    """Weighted sum of squared errors. ``mask`` is None or an array of
    weights shaped like the image or like its (H, W) grid, broadcast over
    channels; an all-ones mask reproduces the plain squared norm bitwise."""
    eps = np.asarray(eps)
    eps_hat = np.asarray(eps_hat)
    if eps.shape != eps_hat.shape:
        raise ValueError(f"shape mismatch: {eps.shape} vs {eps_hat.shape}")
    sq = np.square(eps - eps_hat)
    if mask is not None:
        sq = sq * _mask_weights(mask, eps.shape)
    return float(sq.sum())


def _mask_weights(mask, image_shape):
    w = np.asarray(mask)
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("mask weights must be finite and nonnegative")
    if w.shape == image_shape:
        return w
    if w.shape == image_shape[:-1]:
        return w[..., None]
    raise ValueError(f"mask shape {w.shape} incompatible with image {image_shape}")


def _mask_rows(masks, image_shape, dtype=np.float64):
    """Stack masks to flat per-row weights, all ones where a mask is None;
    None when every mask is None."""
    if masks is None or all(m is None for m in masks):
        return None
    rows = np.ones((len(masks), int(np.prod(image_shape))), dtype=dtype)
    for row, m in zip(rows, masks):
        if m is not None:
            row[:] = np.broadcast_to(_mask_weights(m, image_shape), image_shape).reshape(-1)
    return rows


def _errors(pred, image_of_block, targets, masks):
    """Per-row weighted squared errors e = sum(mask * (pred - target)^2),
    shape (M,), of a prediction over row blocks of N rows, and the weighted
    residual mask * (pred - target) that their gradient needs.

    Row block b reads the (N, D) target and the mask rows of image
    ``image_of_block[b]``; a None mask weighs every cell by one. The
    residual is formed in ``pred`` itself where its dtype can hold it. For
    the policy in the eps parameterisation, ``pred`` is the last layer's
    cached pre-activation, which ``net.backward`` never reads.
    """
    n = len(targets[0])
    dtype = np.result_type(pred, *targets)
    resid = pred if pred.dtype == dtype else pred.astype(dtype)
    rows = [slice(b * n, (b + 1) * n) for b in range(len(image_of_block))]
    for r, k in zip(rows, image_of_block):
        resid[r] -= targets[k]
    weighted = resid
    if any(m is not None for m in masks):
        dtype = np.result_type(resid, *(m for m in masks if m is not None))
        weighted = np.empty(resid.shape, dtype)
        for r, k in zip(rows, image_of_block):
            if masks[k] is None:
                weighted[r] = resid[r]
            else:
                np.multiply(resid[r], masks[k], out=weighted[r])
    return (weighted * resid).sum(axis=1), weighted


def _check_finite(loss, context):
    if not np.all(np.isfinite(loss)):
        raise df.NumericDivergenceError(f"non-finite loss in {context}")


def _contrast_batch(e_theta, e_ref, coef, context):
    """Shared contrastive core over one term of N items, whose rows [0, N)
    are the preferred branch and [N, 2N) the dispreferred one.

    Returns (per-item loss (N,), sigma arguments (N,), dloss_i/de_theta per
    row (2N,)).
    """
    n = len(coef)
    d = e_theta - e_ref
    arg = (d[:n] - d[n:]) * coef          # sigma argument is -arg
    per_item = ad.softplus(arg)
    _check_finite(per_item, context)
    weight = ad._sigmoid(arg)
    weight[weight < SATURATED_SIGMOID] = 0.0
    slope = weight * coef
    return per_item, -arg, np.concatenate([slope, -slope])


def _loss(theta, value, margin, acts, weighted, c_rows, t_rows, sched, reward_accuracy=None):
    """Package a batch loss whose derivative by the policy's row errors is
    ``c_rows``; dL/dpred = 2 * c_row * mask * (pred - target).

    ``d_out`` takes the parameters' dtype, so the backward pass runs in it
    even where the x0 coefficients promote predictions to float64.
    """
    scale = 2.0 * c_rows[:, None] * net.noise_output_slope(theta.cfg, t_rows, sched)
    d_out = np.multiply(scale, weighted, dtype=theta.layers[0][0].dtype)
    return Loss(value=value, margin=margin, theta=theta, acts=acts, d_out=d_out,
                reward_accuracy=reward_accuracy)


@dataclass(frozen=True)
class ReferenceHalf:
    """The policy-independent half of a DPO batch loss over N items.

    ``inp`` holds the distinct noised images and the row blocks, two per
    contrastive term, the preferred branch first. ``targets[k]`` and
    ``masks[k]`` are the (N, D) noise target and weight rows (or None) of
    image k, kept once however many blocks read it.
    """

    inp: net.NetInput
    t_arr: np.ndarray          # (N,) step of each item
    targets: tuple             # per image, its (N, D) noise
    masks: tuple               # per image, (N, D) weight rows or None
    e_ref: np.ndarray | None   # (B * N,) reference row errors, None when
                               # the policy is its own reference
    beta: float
    sched: df.DiffusionSchedule
    context: str               # the loss's name, for its errors


def _reference_half(ref, images, blocks, context, t_arr, beta, sched, score=True):
    """Noise the images, assemble the rows and, when ``score``, run the
    frozen reference over them.

    ``images`` lists the distinct images as (x0, eps, mask rows or None) per
    N items and ``blocks`` lists (image index, encodings) per N rows. It
    calls numpy and private cores only, so the draw worker may run it. It
    skips the checks of ``q_sample`` and ``assemble_input``: ``_dpo_batch``
    runs them first, and ``policy_half`` checks the steps and the input's
    widths again on the caller's thread.
    """
    n = len(t_arr)
    x0, eps, masks = zip(*images)
    image_of_block, encodings = zip(*blocks)
    noised = [df._q_sample(x, t_arr, e, sched) for x, e in zip(x0, eps)]
    inp = net._assemble_input(ref, noised, t_arr, encodings, sched, image_of_block)
    targets = tuple(e.reshape(n, -1) for e in eps)
    e_ref = None
    if score:
        pred = net._predict_noise_rows(ref, inp, np.tile(t_arr, len(blocks)), sched)
        e_ref = _errors(pred, inp.image_of_block, targets, masks)[0]
    return ReferenceHalf(inp, t_arr, targets, masks, e_ref, beta, sched, context)


def policy_half(theta, half):
    """Finish a DPO batch loss from its ``ReferenceHalf``: the policy's
    forward pass over the same rows, the mean over N items of the
    contrastive terms, and ``d_out``. Returns a Loss.

    Without reference errors the reference passes are the policy's own:
    every bracket is exactly zero, and so is the gradient, since the
    reference's share of it cancels the policy's.
    """
    n = len(half.t_arr)
    sched = half.sched
    coef = half.beta * sched.T * df.omega_vector(sched, half.t_arr)
    t_rows = np.tile(half.t_arr, len(half.inp.image_of_block))
    acts = []
    pred = net.predict_noise_rows(theta, half.inp, t_rows, sched, acts)
    e_theta, weighted = _errors(pred, half.inp.image_of_block, half.targets, half.masks)
    e_ref = e_theta if half.e_ref is None else half.e_ref
    terms = [_contrast_batch(e_theta[k:k + 2 * n], e_ref[k:k + 2 * n], coef, half.context)
             for k in range(0, len(e_theta), 2 * n)]
    per_item = sum(term[0] for term in terms)
    args = np.array([term[1] for term in terms])      # sigmoid arguments, (terms, N)
    c_rows = np.concatenate([term[2] for term in terms]) / n
    if half.e_ref is None:
        c_rows = np.zeros_like(c_rows)
    return _loss(theta, float(np.mean(per_item)), float(np.mean(args.mean(axis=0))),
                 acts, weighted, c_rows, t_rows, sched, float(np.mean(args > 0)))


def _dpo_batch(theta, ref, images, blocks, context, t_arr, beta, sched):
    """Check a batch as ``df.q_sample`` and ``net.assemble_input`` would,
    then run both halves in turn."""
    t_arr = np.asarray(t_arr)
    images = [(np.asarray(x0), np.asarray(eps), masks) for x0, eps, masks in images]
    for x0, eps, _ in images:
        df._check_noising(x0, t_arr, eps, sched)
    image_of_block, encodings = zip(*blocks)
    net._check_blocks(ref.cfg, [x0 for x0, _, _ in images], t_arr, encodings, sched,
                      image_of_block)
    half = _reference_half(ref, images, blocks, context, t_arr, beta, sched,
                           score=ref is not theta)
    return policy_half(theta, half)


# ---------------------------------------------------------------------------
# image-contrastive loss (winner image vs loser image, winner caption)

def _image_dpo_rows(x0_w, x0_l, enc_w, eps_w, eps_l):
    """Images [x_t^w, x_t^l], both read under the winner caption."""
    return ([(x0_w, eps_w, None), (x0_l, eps_l, None)], [(0, enc_w), (1, enc_w)],
            "diffusion_dpo_loss")


def diffusion_dpo_batch(theta, ref, x0_w, x0_l, enc_w, t_arr, eps_w, eps_l, beta, sched):
    return _dpo_batch(theta, ref, *_image_dpo_rows(x0_w, x0_l, enc_w, eps_w, eps_l),
                      t_arr, beta, sched)


def diffusion_dpo_loss(theta, ref, item, sched):
    """Contrast denoising errors of the winner and loser images.

    Both branches condition on the winner caption; see LossBatchItem for the
    sampled (t, noise) pair. Returns a Loss.
    """
    pair = item.pair
    if np.asarray(item.eps_w).shape != np.asarray(pair.x0_w).shape:
        raise ValueError("noise shape must match image shape")
    enc_w = net.encode_caption(pair.y_w).vector[None]
    return diffusion_dpo_batch(
        theta, ref, np.asarray(pair.x0_w)[None], np.asarray(pair.x0_l)[None],
        enc_w, np.array([item.t]), np.asarray(item.eps_w)[None],
        np.asarray(item.eps_l)[None], item.beta, sched)


# ---------------------------------------------------------------------------
# caption-contrastive loss (one image, winner caption vs loser caption)

def _text_dpo_rows(x0_w, enc_w, enc_l, eps, masks=None):
    """One image [x_t^w], read under the winner then the loser caption."""
    return [(x0_w, eps, masks)], [(0, enc_w), (0, enc_l)], "text_dpo_loss"


def text_dpo_batch(theta, ref, x0_w, enc_w, enc_l, t_arr, eps, beta, sched, masks=None):
    """``masks`` is None or (N, D) flat weight rows, as ``_mask_rows`` stacks
    them, applied to both captions' errors."""
    return _dpo_batch(theta, ref, *_text_dpo_rows(x0_w, enc_w, enc_l, eps, masks),
                      t_arr, beta, sched)


def text_dpo_loss(theta, ref, x0_w, y_w, y_l, t, eps, beta, sched, mask=None):
    """Contrast the winner caption against the loser caption on one image.

    One noise draw ``eps`` noises the winner image once, and that noised
    image feeds all four terms (policy and reference, under each caption).
    ``mask`` is None (all ones) or a weight array, as ``masked_sq_err``
    takes it. Returns a Loss.
    """
    x0_w = np.asarray(x0_w)
    if np.asarray(eps).shape != x0_w.shape:
        raise ValueError("noise shape must match image shape")
    enc_w = net.encode_caption(y_w).vector[None]
    enc_l = net.encode_caption(y_l).vector[None]
    return text_dpo_batch(
        theta, ref, x0_w[None], enc_w, enc_l, np.array([t]),
        np.asarray(eps)[None], beta, sched, masks=_mask_rows([mask], x0_w.shape))


# ---------------------------------------------------------------------------
# bimodal loss (two mirrored caption-contrastive terms)

def pair_masks(pair, use_region):
    """The masks the bimodal loss actually applies to a pair.

    Region weighting is skipped when disabled or when the pair's dimension
    needs a global focus (spatial and numeracy).
    """
    if not use_region or pair.dimension in REGION_EXEMPT_DIMENSIONS:
        return None, None
    return pair.mask_w, pair.mask_l


def bidpo_batch(theta, ref, x0_w, x0_l, enc_w, enc_l, t_arr, eps_w, eps_l,
                beta, sched, masks_w=None, masks_l=None):
    """Sum of the two mirrored caption-contrastive terms, batched.

    ``masks_w``/``masks_l`` are None or (N, D) flat weight rows for the
    winner/loser image, as ``_mask_rows`` stacks them.
    """
    rows = _bidpo_rows(x0_w, x0_l, enc_w, enc_l, eps_w, eps_l, masks_w, masks_l)
    return _dpo_batch(theta, ref, *rows, t_arr, beta, sched)


def _bidpo_rows(x0_w, x0_l, enc_w, enc_l, eps_w, eps_l, masks_w=None, masks_l=None):
    """Images [x_t^w, x_t^l]; term 1 reads the winner image under the winner
    then the loser caption, term 2 the loser image under the loser then the
    winner caption."""
    return ([(x0_w, eps_w, masks_w), (x0_l, eps_l, masks_l)],
            [(0, enc_w), (0, enc_l), (1, enc_l), (1, enc_w)], "bidpo_loss")


def bidpo_loss(theta, ref, pair, t, eps_w, eps_l, beta, sched, use_region=False):
    """Bimodal preference loss: exact sum of the two mirrored caption terms."""
    mask_w, mask_l = pair_masks(pair, use_region)
    enc_w = net.encode_caption(pair.y_w).vector[None]
    enc_l = net.encode_caption(pair.y_l).vector[None]
    shape = np.asarray(pair.x0_w).shape
    return bidpo_batch(
        theta, ref, np.asarray(pair.x0_w)[None], np.asarray(pair.x0_l)[None],
        enc_w, enc_l, np.array([t]), np.asarray(eps_w)[None],
        np.asarray(eps_l)[None], beta, sched,
        masks_w=_mask_rows([mask_w], shape), masks_l=_mask_rows([mask_l], shape))


# ---------------------------------------------------------------------------
# supervised baseline

def sft_batch(theta, x0, enc, t_arr, eps, sched):
    """Batch mean of the per-cell mean squared noise-prediction error."""
    n = x0.shape[0]
    inp = net.assemble_input(theta, [df.q_sample(x0, t_arr, eps, sched)], t_arr, [enc],
                             sched, (0,))
    acts = []
    pred = net.predict_noise_rows(theta, inp, t_arr, sched, acts)
    errors, resid = _errors(pred, (0,), [eps.reshape(n, -1)], [None])
    per_item = errors * (1.0 / eps[0].size)
    _check_finite(per_item, "sft_loss")
    return _loss(theta, float(np.mean(per_item)), 0.0, acts, resid,
                 np.full(n, 1.0 / (n * eps[0].size)), t_arr, sched)


def sft_loss(theta, x0, y, t, eps, sched):
    """Per-cell mean squared noise-prediction error on a single example."""
    x0 = np.asarray(x0)
    eps = np.asarray(eps)
    if x0.shape != eps.shape:
        raise ValueError(f"shape mismatch: x0 {x0.shape} vs eps {eps.shape}")
    enc = net.encode_caption(y).vector[None]
    return sft_batch(theta, x0[None], enc, np.array([t]), eps[None], sched)
