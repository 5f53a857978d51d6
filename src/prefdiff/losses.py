"""The preference-training loss family for the toy denoiser.

All losses share one contrastive core: the difference between the policy's
and a frozen reference's (optionally region-weighted) squared noise-prediction
errors on a preferred branch minus the same difference on a dispreferred
branch, scaled by beta * T * omega(lambda_t), passed through -log(sigmoid).
The full bracketed difference sits inside the sigmoid's argument.

Each preference loss is a list of distinct noised images, each (x_t, eps,
mask rows or None) for the N items of a batch, and a list of row blocks, each
(image index, encodings), two blocks per contrastive term with the preferred
branch first; ``_dpo_batch`` hands both to one ``net.assemble_input`` call,
whose factorised first layer computes each image's product once however many
blocks read it. The image-contrastive loss noises winner and loser images
separately and conditions both on the winner caption: images [x_t^w, x_t^l],
block -> image map (0, 1). The caption-contrastive loss evaluates all four
terms on one noised winner image: images [x_t^w], map (0, 0), captions c_w
then c_l. The bimodal loss is the sum of two caption-contrastive terms with the
roles mirrored: images [x_t^w, x_t^l], map (0, 0, 1, 1), captions c_w, c_l,
c_l, c_w.

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


def _errors(params, inp, t_rows, sched, targets, mask_rows, acts=None):
    """Per-row weighted squared noise-prediction errors, shape (M,), and the
    weighted residual mask * (pred - target) that their gradient needs."""
    resid = net.predict_noise_rows(params, inp, t_rows, sched, acts) - targets
    weighted = resid if mask_rows is None else resid * mask_rows
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


def _dpo_batch(theta, ref, images, blocks, t_arr, beta, sched, context):
    """Mean over N items of a sum of contrastive terms.

    ``images`` lists the distinct noised images as (x_t, eps, mask rows or
    None) per N items; ``blocks`` lists (image index, encodings) per N network
    rows, two per term: the preferred branch, then the dispreferred one. The
    images and blocks go through one ``net.assemble_input`` call, which keeps
    each image once however many blocks read it; where some images carry
    (N, D) mask rows, an image without them weighs every cell by one. When
    ``ref is theta`` the reference passes are the policy's own: every bracket
    is exactly zero, and so is the gradient, since the reference's share of it
    cancels the policy's.
    """
    n = len(t_arr)
    x_t, eps, mask_rows = zip(*images)
    image_of_block, encodings = zip(*blocks)
    t_rows = np.tile(t_arr, len(blocks))
    inp = net.assemble_input(theta, x_t, t_arr, encodings, sched, image_of_block)
    targets = np.concatenate([eps[k].reshape(n, -1) for k in image_of_block])
    masks = None
    if any(m is not None for m in mask_rows):
        ones = np.ones_like(targets[:n])
        masks = np.concatenate([ones if mask_rows[k] is None else mask_rows[k]
                                for k in image_of_block])
    coef = beta * sched.T * df.omega_vector(sched, t_arr)
    acts = []
    e_theta, weighted = _errors(theta, inp, t_rows, sched, targets, masks, acts)
    e_ref = e_theta if ref is theta else _errors(ref, inp, t_rows, sched, targets, masks)[0]
    terms = [_contrast_batch(e_theta[k:k + 2 * n], e_ref[k:k + 2 * n], coef, context)
             for k in range(0, len(targets), 2 * n)]
    per_item = sum(term[0] for term in terms)
    args = np.array([term[1] for term in terms])      # sigmoid arguments, (terms, N)
    c_rows = np.concatenate([term[2] for term in terms]) / n
    if ref is theta:
        c_rows = np.zeros_like(c_rows)
    return _loss(theta, float(np.mean(per_item)), float(np.mean(args.mean(axis=0))),
                 acts, weighted, c_rows, t_rows, sched, float(np.mean(args > 0)))


# ---------------------------------------------------------------------------
# image-contrastive loss (winner image vs loser image, winner caption)

def diffusion_dpo_batch(theta, ref, x0_w, x0_l, enc_w, t_arr, eps_w, eps_l, beta, sched):
    images = [(df.q_sample(x0_w, t_arr, eps_w, sched), eps_w, None),
              (df.q_sample(x0_l, t_arr, eps_l, sched), eps_l, None)]
    blocks = [(0, enc_w), (1, enc_w)]
    return _dpo_batch(theta, ref, images, blocks, t_arr, beta, sched, "diffusion_dpo_loss")


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

def text_dpo_batch(theta, ref, x0_w, enc_w, enc_l, t_arr, eps, beta, sched, masks=None):
    """``masks`` is None or (N, D) flat weight rows, as ``_mask_rows`` stacks
    them, applied to both captions' errors."""
    images = [(df.q_sample(x0_w, t_arr, eps, sched), eps, masks)]
    blocks = [(0, enc_w), (0, enc_l)]
    return _dpo_batch(theta, ref, images, blocks, t_arr, beta, sched, "text_dpo_loss")


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
    images = [(df.q_sample(x0_w, t_arr, eps_w, sched), eps_w, masks_w),
              (df.q_sample(x0_l, t_arr, eps_l, sched), eps_l, masks_l)]
    # term 1: w-image|w-cap vs w-image|l-cap; term 2: l-image|l-cap vs l-image|w-cap
    blocks = [(0, enc_w), (0, enc_l), (1, enc_l), (1, enc_w)]
    return _dpo_batch(theta, ref, images, blocks, t_arr, beta, sched, "bidpo_loss")


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
    errors, resid = _errors(theta, inp, t_arr, sched, eps.reshape(n, -1), None, acts)
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
