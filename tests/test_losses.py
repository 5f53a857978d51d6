import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import (finite_difference_grads, max_relative_grad_error,
                      norm_relative_grad_error, one_block_input, pair_loss,
                      params_with_layers, randomized_params, stacked, synthetic_pair,
                      with_dtype)

from prefdiff import datapipe as dp
from prefdiff import diffusion as df
from prefdiff import losses
from prefdiff import net
from prefdiff import toyworld as tw
from prefdiff import trainer

LN2 = math.log(2.0)
CFG = net.NetConfig(grid=4, channels=3, hidden=8, time_dim=8)
SCHED = df.make_schedule(10, 0.05, 0.3)

CAP_RED = tw.Caption(dimension="color", objects=(tw.ObjectSlot("square", color="red"),))
CAP_BLUE = tw.Caption(dimension="color", objects=(tw.ObjectSlot("square", color="blue"),))


def make_pair(dim="color", seed=0, grid=16):
    cap = dp.sample_caption(dim, rng_seed=seed)
    for edited in dp.edit_caption(cap, rng_seed=seed + 1):
        try:
            return dp.build_pair(cap, edited, layout_seed=seed + 2, grid=grid)
        except dp.VqaInconsistencyError:
            continue
    raise AssertionError("no valid pair for test setup")


def caption_pair(x0, y_w, y_l):
    """A pair whose winner image ``x0`` the caption contrast reads under
    ``y_w`` and ``y_l``."""
    return synthetic_pair(x0, y_w, x0, y_l)


def mirrored(pair):
    """``pair`` with the winner and loser roles swapped, scenes and so
    region masks included."""
    return replace(pair, x0_w=pair.x0_l, y_w=pair.y_l, scene_w=pair.scene_l,
                   x0_l=pair.x0_w, y_l=pair.y_w, scene_l=pair.scene_w)


def rand_images(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, shape), rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# masked squared error

def test_weighted_errors_examples():
    # e = sum(mask * (pred - target)^2) per row
    pred = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    target = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    mask = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.5]])
    errors, _ = losses._errors(pred, (0,), [target], [mask])
    assert errors.tolist() == [0.0, 1.0, 1.5]


def plain_errors(pred, image_of_block, targets, masks):
    """``losses._errors`` out of place, every intermediate a new array and
    ``pred`` only read."""
    n = len(targets[0])
    resid = [pred[b * n:(b + 1) * n] - targets[k] for b, k in enumerate(image_of_block)]
    weighted = np.concatenate([r if masks[k] is None else r * masks[k]
                               for r, k in zip(resid, image_of_block)])
    return (weighted * np.concatenate(resid)).sum(axis=1), weighted


MASK_KINDS = {"unmasked": (False, False), "masked": (True, True), "mixed": (True, False)}


@pytest.mark.parametrize("kind", list(MASK_KINDS))
@pytest.mark.parametrize("dtype,mask_dtype", [(np.float32, np.float32),
                                              (np.float64, np.float64),
                                              (np.float32, np.float64)])
def test_errors_equal_the_out_of_place_form_bitwise(kind, dtype, mask_dtype):
    # _errors writes its residual into pred and its squares into the
    # residual; each value is still the plain expression's
    rng = np.random.default_rng(41)
    n, d = 5, 12
    targets = [rng.standard_normal((n, d)).astype(dtype) for _ in range(2)]
    masks = [rng.uniform(0, 2, (n, d)).astype(mask_dtype) if on else None
             for on in MASK_KINDS[kind]]
    pred = rng.standard_normal((4 * n, d)).astype(dtype)
    blocks = (0, 0, 1, 1)
    expected_e, expected_w = plain_errors(pred, blocks, targets, masks)
    e, weighted = losses._errors(pred.copy(), blocks, targets, masks)
    assert e.tobytes() == expected_e.tobytes()
    assert weighted.dtype == expected_w.dtype and weighted.tobytes() == expected_w.tobytes()


@pytest.mark.parametrize("kind", list(MASK_KINDS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("parameterization", ["eps", "x0"])
def test_policy_half_d_out_equals_the_out_of_place_form_bitwise(kind, dtype, parameterization):
    # d_out is written over the weighted residual; its value is still
    # scale * weighted in the parameters' dtype, from a fresh prediction
    cfg = replace(CFG, parameterization=parameterization)
    theta = with_dtype(randomized_params(net.init_params(cfg, seed=42), seed=43), dtype)
    ref = net.clone_frozen(with_dtype(randomized_params(net.init_params(cfg, seed=42),
                                                        seed=44), dtype))
    x0, eps = rand_images((2, 3, 4, 4, 3), 45)
    pairs = [synthetic_pair(a, CAP_RED, b, CAP_BLUE) for a, b in zip(*x0)]
    rng = np.random.default_rng(46)
    weights = [rng.uniform(0, 2, (4, 4)) if on else None for on in MASK_KINDS[kind]]
    arrays = {k: None if a is None else a.astype(dtype)
              for k, a in stacked(pairs, weights=weights).items()}
    t_arr = np.array([1, 4, 9])
    half = losses._reference_half(losses.LAYOUTS["bidpo_region"], ref, arrays, slice(None),
                                  [e.astype(dtype) for e in eps], t_arr, 0.5, SCHED)
    t_rows = np.tile(t_arr, len(half.inp.image_of_block))
    pred = net.predict_noise_rows(theta, half.inp, t_rows, SCHED)
    e_theta, weighted = plain_errors(pred, half.inp.image_of_block, half.targets, half.masks)
    value, margin, c_rows, _ = half.layout.finish(half, e_theta)
    scale = 2.0 * c_rows[:, None] * net.noise_output_slope(cfg, t_rows, SCHED)
    loss = losses.policy_half(theta, half)
    assert (loss.value, loss.margin) == (value, margin)
    assert loss.d_out.dtype == dtype
    assert loss.d_out.tobytes() == np.multiply(scale, weighted, dtype=dtype).tobytes()


def masked_batch_loss(mask_rows):
    """``batch_loss`` of three caption-contrast items whose winner images
    carry ``mask_rows`` as their weight rows."""
    cfg = net.NetConfig(grid=3, channels=2, hidden=6, time_dim=4)
    theta = net.init_params(cfg, seed=0)
    x0, eps = rand_images((3, 3, 3, 2), 1)
    arrays = stacked([caption_pair(x, CAP_RED, CAP_BLUE) for x in x0])
    arrays["masks_w"] = mask_rows
    return losses.batch_loss("text_dpo", theta, net.clone_frozen(theta), arrays, [eps],
                             [1, 2, 3], 0.1, SCHED)


def test_mask_shape_mismatch():
    # one weight row for three items must not broadcast over all of them
    masked_batch_loss(np.full((3, 18), 2.0))
    with pytest.raises(ValueError, match="mask shape"):
        masked_batch_loss(np.full((1, 18), 2.0))


@pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
def test_mask_rejects_negative_or_non_finite_weights(bad):
    rows = np.ones((3, 18))
    rows[1, 5] = bad
    with pytest.raises(ValueError, match="finite and nonnegative"):
        masked_batch_loss(rows)


# ---------------------------------------------------------------------------
# every contrast

CONTRAST_METHODS = tuple(m for m, layout in losses.LAYOUTS.items()
                         if layout.finish is losses._contrast)


@pytest.mark.parametrize("method", CONTRAST_METHODS)
def test_aliased_reference_gives_ln2_per_term_and_zero_grad(method):
    # with theta as its own reference every bracket is zero, whatever the
    # pair, its captions and its masks
    theta = randomized_params(net.init_params(CFG, seed=0), seed=1)
    x0_w, eps_w = rand_images((4, 4, 3), 2)
    x0_l, eps_l = rand_images((4, 4, 3), 3)
    mask = np.where(np.random.default_rng(4).random((4, 4)) < 0.5, 1.0, 0.5)
    pair = synthetic_pair(x0_w, CAP_RED, x0_l, CAP_BLUE)
    layout = losses.LAYOUTS[method]
    loss = pair_loss(method, theta, theta, pair, 4, (eps_w, eps_l)[:len(layout.noised)],
                     0.1, SCHED, weights=(mask, 1.5 - mask) if layout.masks else None)
    assert loss.value == pytest.approx(len(layout.blocks) // 2 * LN2, abs=1e-12)
    assert net.backward(loss).global_norm() < 1e-9


@pytest.mark.parametrize("parameterization", ["eps", "x0"])
def test_loss_rejects_bad_step_and_shapes(parameterization):
    cfg = net.NetConfig(grid=4, channels=3, hidden=8, time_dim=8,
                        parameterization=parameterization)
    theta = net.init_params(cfg, seed=0)
    x0, eps = rand_images((4, 4, 3), 0)
    pair = synthetic_pair(x0, CAP_RED, x0, CAP_BLUE)
    # -1 must not alias to T - 1, nor T surface as an IndexError
    for t in (-1, SCHED.T, 100):
        for method, layout in losses.LAYOUTS.items():
            with pytest.raises(ValueError, match="range"):
                pair_loss(method, theta, theta, pair, t, (eps, eps)[:len(layout.noised)],
                          0.1, SCHED)
                pytest.fail(f"{method} accepted step {t}")
    with pytest.raises(ValueError, match="shape mismatch"):
        pair_loss("image_dpo", theta, theta, pair, 1, (eps[:2], eps[:2]), 0.1, SCHED)
    with pytest.raises(ValueError, match="steps shape"):
        losses.batch_loss("sft", theta, theta, stacked([pair]), [eps[None]], [1, 2], None, SCHED)
    # a scalar step is not one step per item
    with pytest.raises(ValueError, match=r"steps shape \(\)"):
        losses.batch_loss("sft", theta, theta, stacked([pair]), [eps[None]], 1, None, SCHED)
    # float and bool steps are not indices, and must not surface as an IndexError
    arrays = stacked([pair, pair])
    for t_arr in ([1.0, 2.0], [True, False]):
        for method, layout in losses.LAYOUTS.items():
            with pytest.raises(ValueError, match="step indices must be integers"):
                losses.batch_loss(method, theta, theta, arrays,
                                  [np.stack([eps, eps])] * len(layout.noised), t_arr, 0.1, SCHED)
    # nor a weight to read at a step between two
    with pytest.raises(ValueError, match="step indices must be integers, got float64"):
        df.omega_vector(SCHED, [1.5, 2.0])
    with pytest.raises(ValueError, match="text_dpo noises 1 images, got 2 noise batches"):
        pair_loss("text_dpo", theta, theta, pair, 1, (eps, eps), 0.1, SCHED)


def test_non_finite_loss_identifies_term():
    theta = randomized_params(net.init_params(CFG, seed=0), seed=1)
    theta.layers[0][0][0, 0] = np.inf
    x0, eps = rand_images((4, 4, 3), 2)
    # inf - inf in the SiLU of the poisoned first layer
    with pytest.warns(RuntimeWarning, match="invalid value"):
        with pytest.raises(df.NumericDivergenceError, match="non-finite loss in sft$"):
            pair_loss("sft", theta, theta, caption_pair(x0, CAP_RED, CAP_RED), 2, (eps,),
                      None, SCHED)


# ---------------------------------------------------------------------------
# image-contrastive loss

def linear_model(w):
    """Identity-activation params on a 6x6x1 grid whose prediction is
    w * encoding(caption), whatever the noised image and step."""
    K = net.ENCODING_DIM
    cfg = net.NetConfig(grid=6, channels=1, hidden=K, time_dim=4, activation="identity")
    w1 = np.zeros((cfg.input_dim, K))
    w1[cfg.image_dim + cfg.time_dim:, :] = np.eye(K)
    return params_with_layers(cfg, [
        (w1, np.zeros(K)), (np.eye(K), np.zeros(K)), (w * np.eye(K), np.zeros(K))])


def test_diffusion_dpo_known_bracket_value():
    # the linear model makes the bracket -2 (w - w_ref) <eps_w - eps_l, enc>;
    # arrange it to be 2
    theta, ref = linear_model(0.0), net.clone_frozen(linear_model(1.0))
    enc = net.encode_caption(CAP_RED)
    eps_w = (enc / enc.sum()).reshape(6, 6, 1)   # <eps_w - eps_l, enc> = 1
    eps_l = np.zeros((6, 6, 1))
    sched1 = df.make_schedule(1, 0.5, 0.5)       # beta * T * omega = 1 at beta=1
    pair = synthetic_pair(np.zeros((6, 6, 1)), CAP_RED, np.zeros((6, 6, 1)), CAP_BLUE)
    loss = pair_loss("image_dpo", theta, ref, pair, 0, (eps_w, eps_l), 1.0, sched1)
    assert loss.value == pytest.approx(math.log(1 + math.e ** 2), abs=1e-9)
    assert loss.value == pytest.approx(2.126928, abs=1e-6)


def test_diffusion_dpo_swap_negates_argument_exactly():
    theta = randomized_params(net.init_params(CFG, seed=4), seed=5)
    ref = net.clone_frozen(randomized_params(net.init_params(CFG, seed=6), seed=7))
    x0_w, eps_w = rand_images((4, 4, 3), 8)
    x0_l, eps_l = rand_images((4, 4, 3), 9)
    pair = synthetic_pair(x0_w, CAP_RED, x0_l, CAP_RED)
    a = pair_loss("image_dpo", theta, ref, pair, 4, (eps_w, eps_l), 0.1, SCHED)
    b = pair_loss("image_dpo", theta, ref, mirrored(pair), 4, (eps_l, eps_w), 0.1, SCHED)
    assert a.margin == -b.margin


# ---------------------------------------------------------------------------
# caption-contrastive loss

def test_text_dpo_identical_captions_exact_ln2_zero_grad():
    theta = randomized_params(net.init_params(CFG, seed=10), seed=11)
    ref = net.clone_frozen(randomized_params(net.init_params(CFG, seed=12), seed=13))
    x0, eps = rand_images((4, 4, 3), 14)
    loss = pair_loss("text_dpo", theta, ref, caption_pair(x0, CAP_RED, CAP_RED), 3, (eps,),
                     0.1, SCHED)
    assert loss.value == LN2
    # identical branches cancel; only summation-order rounding can remain
    assert net.backward(loss).global_norm() < 1e-12


def test_text_dpo_closed_form_linear_model():
    # prediction = w * encoding(caption) via identity activation
    sched = df.make_schedule(5, 0.1, 0.3)
    e_w = net.encode_caption(CAP_RED)
    e_l = net.encode_caption(CAP_BLUE)
    for w_val, w0, beta, t, seed in [(1.0, 0.25, 1.0, 2, 0), (0.5, 0.0, 0.1, 0, 1),
                                     (2.0, 1.0, 0.3, 4, 2), (-1.0, 0.5, 1.0, 1, 3),
                                     (0.0, 0.0, 0.7, 3, 4)]:
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1, 1, (6, 6, 1))
        eps = rng.standard_normal((6, 6, 1))
        loss = pair_loss("text_dpo", linear_model(w_val), net.clone_frozen(linear_model(w0)),
                         caption_pair(x0, CAP_RED, CAP_BLUE), t, (eps,), beta, sched)
        # hand-derived: squared norms expand, the shared terms cancel, leaving
        # bracket = -2 (w - w0) <eps, e_w - e_l>
        z = 2 * beta * sched.T * float(df.omega_vector(sched, t)) * (w_val - w0) \
            * float(eps.reshape(-1) @ (e_w - e_l))
        closed = max(-z, 0.0) + math.log1p(math.exp(-abs(z)))
        assert loss.value == pytest.approx(closed, abs=1e-12)


def test_text_dpo_all_ones_mask_is_bitwise_neutral():
    theta = randomized_params(net.init_params(CFG, seed=18), seed=19)
    ref = net.clone_frozen(randomized_params(net.init_params(CFG, seed=20), seed=21))
    x0, eps = rand_images((4, 4, 3), 22)
    ones = np.ones((4, 4))
    a = pair_loss("text_dpo", theta, ref, caption_pair(x0, CAP_RED, CAP_BLUE), 5, (eps,),
                  0.1, SCHED)
    b = pair_loss("text_dpo", theta, ref, caption_pair(x0, CAP_RED, CAP_BLUE), 5,
                  (eps,), 0.1, SCHED, weights=(ones, None))
    assert a.value == b.value
    assert a.margin == b.margin


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_text_dpo_descent_step_reduces_preference_margin(seed):
    # a small step along -grad must lower err(theta, c_w) - err(theta, c_l)
    theta = randomized_params(net.init_params(CFG, seed=seed), seed=30 + seed)
    ref = net.clone_frozen(theta)
    x0, eps = rand_images((4, 4, 3), 40 + seed)
    t = 4

    def margin_quantity():
        xt = df._q_sample(x0, np.asarray(t), eps, SCHED)
        t_arr = np.array([t])

        def err(c):
            inp = one_block_input(theta, xt[None], t_arr, net.encode_caption(c)[None], SCHED)
            pred = net.predict_noise_rows(theta, inp, t_arr, SCHED)[0].reshape(eps.shape)
            return float(np.square(eps - pred).sum())

        return err(CAP_RED) - err(CAP_BLUE)

    before = margin_quantity()
    grads = net.backward(pair_loss("text_dpo", theta, ref, caption_pair(x0, CAP_RED, CAP_BLUE),
                                   t, (eps,), 0.1, SCHED))
    eta = 1e-4 / max(grads.global_norm(), 1e-12)
    for li, (w, b) in enumerate(theta.layers):
        w -= eta * grads.layers[li][0]
        b -= eta * grads.layers[li][1]
    assert margin_quantity() < before


# ---------------------------------------------------------------------------
# bimodal loss

def test_bidpo_degenerate_pair_gives_two_ln2():
    theta = randomized_params(net.init_params(CFG, seed=50), seed=51)
    ref = net.clone_frozen(randomized_params(net.init_params(CFG, seed=52), seed=53))
    x0, eps = rand_images((4, 4, 3), 54)
    pair = synthetic_pair(x0, CAP_RED, x0.copy(), CAP_RED)
    loss = pair_loss("bidpo", theta, ref, pair, 3, (eps, eps.copy()), 0.1, SCHED)
    assert loss.value == pytest.approx(2 * LN2, abs=1e-12)
    assert net.backward(loss).global_norm() < 1e-9


def test_bidpo_is_sum_of_the_two_text_terms():
    theta = randomized_params(net.init_params(net.NetConfig(16, 3, 16, 8), seed=60), seed=61)
    ref = net.clone_frozen(randomized_params(net.init_params(net.NetConfig(16, 3, 16, 8), seed=62), seed=63))
    pair = make_pair("color", seed=100)
    rng = np.random.default_rng(64)
    eps_w = rng.standard_normal(pair.x0_w.shape)
    eps_l = rng.standard_normal(pair.x0_l.shape)
    for method in ("bidpo", "bidpo_region"):
        region = losses.LAYOUTS[method].masks
        total = pair_loss(method, theta, ref, pair, 5, (eps_w, eps_l), 0.1, SCHED,
                          masks=region)
        term_w = pair_loss("text_dpo", theta, ref, pair, 5, (eps_w,), 0.1, SCHED,
                           masks=region)
        term_l = pair_loss("text_dpo", theta, ref, mirrored(pair), 5, (eps_l,), 0.1, SCHED,
                           masks=region)
        assert total.value == pytest.approx(term_w.value + term_l.value, abs=1e-9)


def test_bidpo_region_flag_ignored_for_global_focus_dimensions():
    theta = randomized_params(net.init_params(net.NetConfig(16, 3, 16, 8), seed=65), seed=66)
    ref = net.clone_frozen(randomized_params(net.init_params(net.NetConfig(16, 3, 16, 8), seed=67), seed=68))
    for dim in ("numeracy", "spatial"):
        pair = make_pair(dim, seed=200)
        rng = np.random.default_rng(69)
        eps_w = rng.standard_normal(pair.x0_w.shape)
        eps_l = rng.standard_normal(pair.x0_l.shape)
        on = pair_loss("bidpo_region", theta, ref, pair, 2, (eps_w, eps_l), 0.1, SCHED,
                       masks=True)
        off = pair_loss("bidpo", theta, ref, pair, 2, (eps_w, eps_l), 0.1, SCHED)
        assert abs(on.value - off.value) <= 1e-12


def test_bidpo_region_flag_matters_for_attribute_pairs():
    theta = randomized_params(net.init_params(net.NetConfig(16, 3, 16, 8), seed=70), seed=71)
    ref = net.clone_frozen(randomized_params(net.init_params(net.NetConfig(16, 3, 16, 8), seed=72), seed=73))
    pair = make_pair("color", seed=300)
    rng = np.random.default_rng(74)
    eps_w = rng.standard_normal(pair.x0_w.shape)
    eps_l = rng.standard_normal(pair.x0_l.shape)
    on = pair_loss("bidpo_region", theta, ref, pair, 2, (eps_w, eps_l), 0.1, SCHED,
                   masks=True)
    off = pair_loss("bidpo", theta, ref, pair, 2, (eps_w, eps_l), 0.1, SCHED)
    assert on.value != off.value


def test_bidpo_role_swap_symmetry_exact():
    theta = randomized_params(net.init_params(CFG, seed=75), seed=76)
    ref = net.clone_frozen(randomized_params(net.init_params(CFG, seed=77), seed=78))
    x0_w, eps_w = rand_images((4, 4, 3), 79)
    x0_l, eps_l = rand_images((4, 4, 3), 80)
    pair = synthetic_pair(x0_w, CAP_RED, x0_l, CAP_BLUE)
    a = pair_loss("bidpo", theta, ref, pair, 3, (eps_w, eps_l), 0.1, SCHED)
    b = pair_loss("bidpo", theta, ref, mirrored(pair), 3, (eps_l, eps_w), 0.1, SCHED)
    assert a.value == b.value


# ---------------------------------------------------------------------------
# saturated items and implicit reward accuracy

# the test ids the suite prints, and the method each names
DPO_BATCH_LOSSES = {"diffusion_dpo": "image_dpo", "text_dpo": "text_dpo", "bidpo": "bidpo"}
SAT_CFG = net.NetConfig(grid=3, channels=2, hidden=6, time_dim=4)
# quarter octaves from 1 to 64: fine enough that, without the zeroing rule,
# each loss meets a beta at which some saturated coefficient lands in
# float32's subnormal range (sigmoid(arg) in [2**-149, 2**-126))
SAT_BETAS = tuple(2.0 ** (k / 4) for k in range(25))


def saturating_batch(dtype):
    """Sixteen items under one caption pair, scored by a policy and a
    reference drawn far apart, so that each loss has betas in SAT_BETAS at
    which some items' margins saturate while others' do not. Returns the
    policy and ``loss_at(name, beta)``."""
    def drawn(seed):
        return with_dtype(randomized_params(net.init_params(SAT_CFG, seed=seed), seed=seed + 1),
                          dtype)

    theta, ref = drawn(110), net.clone_frozen(drawn(112))
    rng = np.random.default_rng(114)
    shape = (16, SAT_CFG.grid, SAT_CFG.grid, SAT_CFG.channels)
    x0_w, x0_l = rng.uniform(-1, 1, (2,) + shape).astype(dtype)
    noise = tuple(rng.standard_normal((2,) + shape).astype(dtype))
    arrays = {"x0_w": x0_w, "x0_l": x0_l,
              "enc_w": np.tile(net.encode_caption(CAP_RED), (16, 1)).astype(dtype),
              "enc_l": np.tile(net.encode_caption(CAP_BLUE), (16, 1)).astype(dtype)}
    t_arr = rng.integers(0, SCHED.T, 16)

    def loss_at(name, beta):
        method = DPO_BATCH_LOSSES[name]
        return losses.batch_loss(method, theta, ref, arrays,
                                 noise[:len(losses.LAYOUTS[method].noised)], t_arr, beta, SCHED)

    return theta, loss_at


def saturated_rows(loss):
    """Rows of ``d_out`` that are exactly zero: the saturated items' rows."""
    return np.all(loss.d_out == 0, axis=1)


def subnormal_count(arrays):
    return sum(int(np.count_nonzero((np.abs(a) > 0) & (np.abs(a) < np.finfo(a.dtype).tiny)))
               for a in arrays)


@pytest.mark.parametrize("name", DPO_BATCH_LOSSES)
def test_saturated_items_leave_no_subnormal_float32_values(name):
    # subnormal operands slow the backward pass's matmuls and ufuncs 5-20x
    theta, loss_at = saturating_batch(np.float32)
    mixed = 0
    for beta in SAT_BETAS:
        loss = loss_at(name, beta)
        grads = net.backward(loss)
        gradients = grads.flat.copy()   # adam_step consumes the gradients
        params = net.DenoiserParams(cfg=theta.cfg, flat=theta.flat.copy())
        state = trainer.AdamState.zeros(params)
        trainer.adam_step(params, grads, state, 1e-3)
        for where, arrays in (("d_out", [loss.d_out]), ("gradients", [gradients]),
                              ("Adam m", [state.m]), ("Adam v", [state.v])):
            count = subnormal_count(arrays)
            assert count == 0, f"{name}, beta {beta}: {count} subnormal values in {where}"
        rows = saturated_rows(loss)
        mixed += bool(rows.any() and not rows.all())
    assert mixed > 0


@pytest.mark.parametrize("name", DPO_BATCH_LOSSES)
def test_saturated_batch_gradients_match_finite_differences(name):
    theta, loss_at = saturating_batch(np.float64)
    loss = loss_at(name, 64.0)
    rows = saturated_rows(loss)
    assert rows.any() and not rows.all()
    numeric = finite_difference_grads(lambda: loss_at(name, 64.0).value, theta, h=1e-5)
    err = norm_relative_grad_error(net.backward(loss).layers, numeric)
    assert err < 1e-4, f"{name}: relative error {err:.2e}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_zeroing_rule_keeps_values_and_unsaturated_gradients_bitwise(dtype, monkeypatch):
    _, loss_at = saturating_batch(dtype)
    for name in DPO_BATCH_LOSSES:
        for beta, saturated in ((0.01, False), (64.0, True)):
            ruled = loss_at(name, beta)
            with monkeypatch.context() as m:
                m.setattr(losses, "SATURATED_SIGMOID", 0.0)
                plain = loss_at(name, beta)
            assert saturated_rows(ruled).any() == saturated
            assert (ruled.value, ruled.margin) == (plain.value, plain.margin)
            assert ruled.reward_accuracy == plain.reward_accuracy
            if saturated:
                continue
            assert np.array_equal(ruled.d_out, plain.d_out)
            for a, b in zip(net.backward(ruled).layers, net.backward(plain).layers):
                assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_reward_accuracy_hand_oracle():
    # under the linear model a term's sigma argument is -2 * coef times
    # <eps, enc_preferred - enc_dispreferred> (caption terms) or
    # <eps_w - eps_l, enc_w> (image term); scale s_i sets each item's sign
    theta, ref = linear_model(0.0), net.clone_frozen(linear_model(1.0))
    sched1 = df.make_schedule(1, 0.5, 0.5)
    enc_w, enc_l = (net.encode_caption(c) for c in (CAP_RED, CAP_BLUE))
    s = np.array([-1.0, 1.0, -2.0, 0.5])              # sigma argument sign: -s
    t_arr = np.zeros(4, dtype=int)
    x0 = np.zeros((4, 6, 6, 1))
    arrays = {"x0_w": x0, "x0_l": x0, "enc_w": np.tile(enc_w, (4, 1)),
              "enc_l": np.tile(enc_l, (4, 1))}

    def loss(method, *noise):
        return losses.batch_loss(method, theta, ref, arrays, noise, t_arr, 1.0, sched1)

    unit = enc_w / enc_w.sum()                         # <unit, enc_w> = 1
    image = loss("image_dpo", (s[:, None] * unit).reshape(4, 6, 6, 1), np.zeros((4, 6, 6, 1)))
    assert image.reward_accuracy == 0.5
    assert image.margin == pytest.approx(-2.0 * s.mean(), abs=1e-12)
    diff = (enc_w - enc_l) / np.square(enc_w - enc_l).sum()   # <diff, enc_w - enc_l> = 1
    eps_w = (s[:, None] * diff).reshape(4, 6, 6, 1)
    text = loss("text_dpo", eps_w)
    assert text.reward_accuracy == 0.5
    # the second term prefers the l-caption, so with eps_l = r_i * diff its
    # sigma argument is +2 * coef * r_i: positive for three of the four items
    eps_l = (np.array([1.0, 1.0, 1.0, -1.0])[:, None] * diff).reshape(4, 6, 6, 1)
    both = loss("bidpo", eps_w, eps_l)
    assert both.reward_accuracy == 5 / 8
    sft = loss("sft", eps_w)
    assert sft.reward_accuracy is None


# ---------------------------------------------------------------------------
# supervised baseline

def test_sft_perfect_prediction_is_zero():
    theta = net.init_params(CFG, seed=86)   # zero head predicts exactly zero
    x0 = np.random.default_rng(87).uniform(-1, 1, (4, 4, 3))
    loss = pair_loss("sft", theta, theta, caption_pair(x0, CAP_RED, CAP_RED), 3,
                     (np.zeros_like(x0),), None, SCHED)
    assert loss.value == 0.0


def test_sft_zero_net_matches_chi_square_mean():
    cfg = net.NetConfig(grid=16, channels=3, hidden=8, time_dim=8)
    theta = net.init_params(cfg, seed=88)
    rng = np.random.default_rng(89)
    x0 = rng.uniform(-1, 1, (16, 16, 3))
    eps = rng.standard_normal((16, 16, 3))   # 768 cells
    loss = pair_loss("sft", theta, theta, caption_pair(x0, CAP_RED, CAP_RED), 3, (eps,),
                     None, SCHED)
    assert loss.value == pytest.approx(1.0, rel=0.05)
    assert loss.value == pytest.approx(float(np.mean(eps ** 2)), abs=1e-12)


def test_sft_gradient_matches_finite_differences():
    cfg = net.NetConfig(grid=3, channels=2, hidden=6, time_dim=4)
    theta = randomized_params(net.init_params(cfg, seed=90), seed=91)
    rng = np.random.default_rng(92)
    x0 = rng.uniform(-1, 1, (3, 3, 2))
    eps = rng.standard_normal((3, 3, 2))
    arrays = stacked([caption_pair(x0, CAP_RED, CAP_RED)])

    def loss():
        return losses.batch_loss("sft", theta, theta, arrays, [eps[None]], [2], None, SCHED)

    analytic = net.backward(loss())
    numeric = finite_difference_grads(lambda: loss().value, theta)
    assert max_relative_grad_error(analytic.layers, numeric) < 1e-4


# ---------------------------------------------------------------------------
# batched gradient oracle

@pytest.mark.parametrize("parameterization", ["eps", "x0"])
def test_batch_losses_match_finite_differences(parameterization):
    # n = 3 items with distinct steps and, under snr weighting, distinct
    # per-item coefficients, so a wrong per-row coefficient layout shows
    cfg = net.NetConfig(grid=3, channels=2, hidden=6, time_dim=4,
                        parameterization=parameterization)
    theta = randomized_params(net.init_params(cfg, seed=93), seed=94)
    ref = net.clone_frozen(randomized_params(net.init_params(cfg, seed=93), seed=95))
    sched = df.make_schedule(6, 0.05, 0.3, omega_mode="snr")
    rng = np.random.default_rng(96)
    shape = (3, 3, 2)
    x0_w, x0_l = rng.uniform(-1, 1, (2, 3) + shape)
    eps_w, eps_l = rng.standard_normal((2, 3) + shape)
    caps = [tw.Caption(dimension="color", objects=(tw.ObjectSlot("square", color=c),))
            for c in ("red", "blue", "green", "cyan")]
    enc_w = np.stack([net.encode_caption(c) for c in caps[:3]])
    enc_l = np.stack([net.encode_caption(c) for c in caps[1:]])
    t_arr = np.array([0, 2, 5])
    mask = np.where(rng.random((3, 3)) < 0.5, 1.0, 0.5)
    plain = {"x0_w": x0_w, "x0_l": x0_l, "enc_w": enc_w, "enc_l": enc_l}
    masked = dict(plain, masks_w=losses._mask_rows([mask, None, mask], shape),
                  masks_l=losses._mask_rows([None, mask, None], shape))
    cases = {method: (method, masked if layout.masks else plain)
             for method, layout in losses.LAYOUTS.items()}
    cases["text_dpo_masked"] = ("text_dpo", masked)
    # only the winner carries mask rows: the loser blocks weigh every cell by one
    cases["bidpo_winner_mask"] = ("bidpo_region", dict(masked, masks_l=None))
    for name, (method, arrays) in cases.items():
        noise = (eps_w, eps_l)[:len(losses.LAYOUTS[method].noised)]

        def fn():
            return losses.batch_loss(method, theta, ref, arrays, noise, t_arr, 0.3, sched)

        analytic = net.backward(fn())
        numeric = finite_difference_grads(lambda: fn().value, theta, h=1e-5)
        err = norm_relative_grad_error(analytic.layers, numeric)
        assert err < 1e-4, f"{name}: relative error {err:.2e}"
