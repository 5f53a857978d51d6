import math

import numpy as np
import pytest
from conftest import (finite_difference_grads, max_relative_grad_error,
                      norm_relative_grad_error, randomized_params)

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


def synthetic_pair(x0_w, y_w, x0_l, y_l, dimension="color"):
    return dp.PreferencePair(x0_w=x0_w, y_w=y_w, x0_l=x0_l, y_l=y_l,
                             scene_w=None, scene_l=None, dimension=dimension,
                             mask_w=None, mask_l=None)


def rand_images(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, shape), rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# masked squared error

def test_masked_sq_err_examples():
    e = np.array([1.0, 0.0])
    assert losses.masked_sq_err(e, e, np.ones(2)) == 0.0
    assert losses.masked_sq_err(e, np.zeros(2), np.ones(2)) == 1.0
    assert losses.masked_sq_err(np.ones(2), np.zeros(2), np.array([1.0, 0.5])) == 1.5


def test_masked_sq_err_all_ones_is_bitwise_plain_norm():
    rng = np.random.default_rng(0)
    e, eh = rng.standard_normal((5, 5, 3)), rng.standard_normal((5, 5, 3))
    ones = np.ones((5, 5))
    assert losses.masked_sq_err(e, eh, ones) == losses.masked_sq_err(e, eh, None)


def test_masked_sq_err_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        losses.masked_sq_err(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="mask shape"):
        losses.masked_sq_err(np.zeros((2, 2, 3)), np.zeros((2, 2, 3)), np.ones((3, 2)))


@pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
def test_masked_sq_err_rejects_negative_or_non_finite_weights(bad):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        losses.masked_sq_err(np.zeros(2), np.ones(2), np.array([1.0, bad]))


# ---------------------------------------------------------------------------
# image-contrastive loss

def test_diffusion_dpo_aliased_reference_gives_ln2_and_zero_grad():
    theta = randomized_params(net.init_params(CFG, seed=0), seed=1)
    x0_w, eps_w = rand_images((4, 4, 3), 2)
    x0_l, eps_l = rand_images((4, 4, 3), 3)
    pair = synthetic_pair(x0_w, CAP_RED, x0_l, CAP_BLUE)
    item = losses.LossBatchItem(pair=pair, t=4, eps_w=eps_w, eps_l=eps_l, beta=0.1)
    loss = losses.diffusion_dpo_loss(theta, theta, item, SCHED)
    assert loss.value == pytest.approx(LN2, abs=1e-12)
    assert loss.backward().global_norm() < 1e-9


def linear_model(w):
    """Identity-activation params on a 6x6x1 grid whose prediction is
    w * encoding(caption), whatever the noised image and step."""
    K = net.ENCODING_DIM
    cfg = net.NetConfig(grid=6, channels=1, hidden=K, time_dim=4, activation="identity")
    w1 = np.zeros((cfg.input_dim, K))
    w1[cfg.image_dim + cfg.time_dim:, :] = np.eye(K)
    return net.DenoiserParams(cfg=cfg, layers=[
        (w1, np.zeros(K)), (np.eye(K), np.zeros(K)), (w * np.eye(K), np.zeros(K))])


def test_diffusion_dpo_known_bracket_value():
    # the linear model makes the bracket -2 (w - w_ref) <eps_w - eps_l, enc>;
    # arrange it to be 2
    theta, ref = linear_model(0.0), net.clone_frozen(linear_model(1.0))
    enc = net.encode_caption(CAP_RED).vector
    eps_w = (enc / enc.sum()).reshape(6, 6, 1)   # <eps_w - eps_l, enc> = 1
    eps_l = np.zeros((6, 6, 1))
    sched1 = df.make_schedule(1, 0.5, 0.5)       # beta * T * omega = 1 at beta=1
    pair = synthetic_pair(np.zeros((6, 6, 1)), CAP_RED, np.zeros((6, 6, 1)), CAP_BLUE)
    item = losses.LossBatchItem(pair=pair, t=0, eps_w=eps_w, eps_l=eps_l, beta=1.0)
    loss = losses.diffusion_dpo_loss(theta, ref, item, sched1)
    assert loss.value == pytest.approx(math.log(1 + math.e ** 2), abs=1e-9)
    assert loss.value == pytest.approx(2.126928, abs=1e-6)


def test_diffusion_dpo_swap_negates_argument_exactly():
    theta = randomized_params(net.init_params(CFG, seed=4), seed=5)
    ref = net.clone_frozen(randomized_params(net.init_params(CFG, seed=6), seed=7))
    x0_w, eps_w = rand_images((4, 4, 3), 8)
    x0_l, eps_l = rand_images((4, 4, 3), 9)
    pair = synthetic_pair(x0_w, CAP_RED, x0_l, CAP_RED)
    swapped = synthetic_pair(x0_l, CAP_RED, x0_w, CAP_RED)
    a = losses.diffusion_dpo_loss(
        theta, ref, losses.LossBatchItem(pair, 4, eps_w, eps_l), SCHED)
    b = losses.diffusion_dpo_loss(
        theta, ref, losses.LossBatchItem(swapped, 4, eps_l, eps_w), SCHED)
    assert a.margin == -b.margin


def test_loss_rejects_bad_step_and_shapes():
    theta = net.init_params(CFG, seed=0)
    x0, eps = rand_images((4, 4, 3), 0)
    pair = synthetic_pair(x0, CAP_RED, x0, CAP_BLUE)
    enc = net.encode_caption(CAP_RED).vector[None]
    # -1 must not alias to T - 1, nor T surface as an IndexError
    for t in (-1, SCHED.T):
        calls = {
            "sft_loss": lambda: losses.sft_loss(theta, x0, CAP_RED, t, eps, SCHED),
            "sft_batch": lambda: losses.sft_batch(theta, x0[None], enc, np.array([t]),
                                                  eps[None], SCHED),
            "diffusion_dpo_loss": lambda: losses.diffusion_dpo_loss(
                theta, theta, losses.LossBatchItem(pair, t, eps, eps), SCHED),
            "text_dpo_loss": lambda: losses.text_dpo_loss(
                theta, theta, x0, CAP_RED, CAP_BLUE, t, eps, 0.1, SCHED),
            "bidpo_loss": lambda: losses.bidpo_loss(theta, theta, pair, t, eps, eps,
                                                    0.1, SCHED),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match="range"):
                call()
                pytest.fail(f"{name} accepted step {t}")
    with pytest.raises(ValueError, match="shape"):
        losses.diffusion_dpo_loss(theta, theta,
                                  losses.LossBatchItem(pair, 1, eps[:2], eps[:2]), SCHED)


def test_non_finite_loss_identifies_term():
    theta = randomized_params(net.init_params(CFG, seed=0), seed=1)
    theta.layers[0][0][0, 0] = np.inf
    x0, eps = rand_images((4, 4, 3), 2)
    # inf - inf in the SiLU of the poisoned first layer
    with pytest.warns(RuntimeWarning, match="invalid value"):
        with pytest.raises(df.NumericDivergenceError, match="sft_loss"):
            losses.sft_loss(theta, x0, CAP_RED, 2, eps, SCHED)


# ---------------------------------------------------------------------------
# caption-contrastive loss

def test_text_dpo_identical_captions_exact_ln2_zero_grad():
    theta = randomized_params(net.init_params(CFG, seed=10), seed=11)
    ref = net.clone_frozen(randomized_params(net.init_params(CFG, seed=12), seed=13))
    x0, eps = rand_images((4, 4, 3), 14)
    loss = losses.text_dpo_loss(theta, ref, x0, CAP_RED, CAP_RED, 3, eps, 0.1, SCHED)
    assert loss.value == LN2
    # identical branches cancel; only summation-order rounding can remain
    assert loss.backward().global_norm() < 1e-12


def test_text_dpo_aliased_reference_ln2_zero_grad():
    theta = randomized_params(net.init_params(CFG, seed=15), seed=16)
    x0, eps = rand_images((4, 4, 3), 17)
    loss = losses.text_dpo_loss(theta, theta, x0, CAP_RED, CAP_BLUE, 3, eps, 0.1, SCHED)
    assert loss.value == pytest.approx(LN2, abs=1e-12)
    assert loss.backward().global_norm() < 1e-9


def test_text_dpo_closed_form_linear_model():
    # prediction = w * encoding(caption) via identity activation
    K = net.ENCODING_DIM
    cfg = net.NetConfig(grid=6, channels=1, hidden=K, time_dim=4, activation="identity")

    def linear(w):
        w1 = np.zeros((cfg.input_dim, K))
        w1[cfg.image_dim + cfg.time_dim:, :] = np.eye(K)
        return net.DenoiserParams(cfg=cfg, layers=[
            (w1, np.zeros(K)), (np.eye(K), np.zeros(K)), (w * np.eye(K), np.zeros(K))])

    sched = df.make_schedule(5, 0.1, 0.3)
    e_w = net.encode_caption(CAP_RED).vector
    e_l = net.encode_caption(CAP_BLUE).vector
    for w_val, w0, beta, t, seed in [(1.0, 0.25, 1.0, 2, 0), (0.5, 0.0, 0.1, 0, 1),
                                     (2.0, 1.0, 0.3, 4, 2), (-1.0, 0.5, 1.0, 1, 3),
                                     (0.0, 0.0, 0.7, 3, 4)]:
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1, 1, (6, 6, 1))
        eps = rng.standard_normal((6, 6, 1))
        loss = losses.text_dpo_loss(linear(w_val), net.clone_frozen(linear(w0)),
                                    x0, CAP_RED, CAP_BLUE, t, eps, beta, sched)
        # hand-derived: squared norms expand, the shared terms cancel, leaving
        # bracket = -2 (w - w0) <eps, e_w - e_l>
        z = 2 * beta * sched.T * df.omega(sched, t) * (w_val - w0) \
            * float(eps.reshape(-1) @ (e_w - e_l))
        closed = max(-z, 0.0) + math.log1p(math.exp(-abs(z)))
        assert loss.value == pytest.approx(closed, abs=1e-12)


def test_text_dpo_all_ones_mask_is_bitwise_neutral():
    theta = randomized_params(net.init_params(CFG, seed=18), seed=19)
    ref = net.clone_frozen(randomized_params(net.init_params(CFG, seed=20), seed=21))
    x0, eps = rand_images((4, 4, 3), 22)
    ones = np.ones((4, 4))
    a = losses.text_dpo_loss(theta, ref, x0, CAP_RED, CAP_BLUE, 5, eps, 0.1, SCHED)
    b = losses.text_dpo_loss(theta, ref, x0, CAP_RED, CAP_BLUE, 5, eps, 0.1, SCHED,
                             mask=ones)
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
        xt = df.q_sample(x0, t, eps, SCHED)
        pred_w = net.forward(theta, xt, t, net.encode_caption(CAP_RED), SCHED)
        pred_l = net.forward(theta, xt, t, net.encode_caption(CAP_BLUE), SCHED)
        return losses.masked_sq_err(eps, pred_w) - losses.masked_sq_err(eps, pred_l)

    before = margin_quantity()
    grads = losses.text_dpo_loss(theta, ref, x0, CAP_RED, CAP_BLUE, t, eps,
                                 0.1, SCHED).backward()
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
    loss = losses.bidpo_loss(theta, ref, pair, 3, eps, eps.copy(), 0.1, SCHED)
    assert loss.value == pytest.approx(2 * LN2, abs=1e-12)
    assert loss.backward().global_norm() < 1e-9


def test_bidpo_aliased_reference_two_ln2_any_pair():
    theta = randomized_params(net.init_params(CFG, seed=55), seed=56)
    x0_w, eps_w = rand_images((4, 4, 3), 57)
    x0_l, eps_l = rand_images((4, 4, 3), 58)
    pair = synthetic_pair(x0_w, CAP_RED, x0_l, CAP_BLUE)
    loss = losses.bidpo_loss(theta, theta, pair, 6, eps_w, eps_l, 0.1, SCHED)
    assert loss.value == pytest.approx(2 * LN2, abs=1e-12)
    assert loss.backward().global_norm() < 1e-9


def test_bidpo_is_sum_of_the_two_text_terms():
    theta = randomized_params(net.init_params(net.NetConfig(16, 3, 16, 8), seed=60), seed=61)
    ref = net.clone_frozen(randomized_params(net.init_params(net.NetConfig(16, 3, 16, 8), seed=62), seed=63))
    pair = make_pair("color", seed=100)
    rng = np.random.default_rng(64)
    eps_w = rng.standard_normal(pair.x0_w.shape)
    eps_l = rng.standard_normal(pair.x0_l.shape)
    for use_region in (False, True):
        total = losses.bidpo_loss(theta, ref, pair, 5, eps_w, eps_l, 0.1, SCHED,
                                  use_region=use_region)
        mask_w, mask_l = losses.pair_masks(pair, use_region)
        term_w = losses.text_dpo_loss(theta, ref, pair.x0_w, pair.y_w, pair.y_l,
                                      5, eps_w, 0.1, SCHED, mask=mask_w)
        term_l = losses.text_dpo_loss(theta, ref, pair.x0_l, pair.y_l, pair.y_w,
                                      5, eps_l, 0.1, SCHED, mask=mask_l)
        assert total.value == pytest.approx(term_w.value + term_l.value, abs=1e-9)


def test_bidpo_region_flag_ignored_for_global_focus_dimensions():
    theta = randomized_params(net.init_params(net.NetConfig(16, 3, 16, 8), seed=65), seed=66)
    ref = net.clone_frozen(randomized_params(net.init_params(net.NetConfig(16, 3, 16, 8), seed=67), seed=68))
    for dim in ("numeracy", "spatial"):
        pair = make_pair(dim, seed=200)
        rng = np.random.default_rng(69)
        eps_w = rng.standard_normal(pair.x0_w.shape)
        eps_l = rng.standard_normal(pair.x0_l.shape)
        on = losses.bidpo_loss(theta, ref, pair, 2, eps_w, eps_l, 0.1, SCHED, use_region=True)
        off = losses.bidpo_loss(theta, ref, pair, 2, eps_w, eps_l, 0.1, SCHED, use_region=False)
        assert abs(on.value - off.value) <= 1e-12


def test_bidpo_region_flag_matters_for_attribute_pairs():
    theta = randomized_params(net.init_params(net.NetConfig(16, 3, 16, 8), seed=70), seed=71)
    ref = net.clone_frozen(randomized_params(net.init_params(net.NetConfig(16, 3, 16, 8), seed=72), seed=73))
    pair = make_pair("color", seed=300)
    rng = np.random.default_rng(74)
    eps_w = rng.standard_normal(pair.x0_w.shape)
    eps_l = rng.standard_normal(pair.x0_l.shape)
    on = losses.bidpo_loss(theta, ref, pair, 2, eps_w, eps_l, 0.1, SCHED, use_region=True)
    off = losses.bidpo_loss(theta, ref, pair, 2, eps_w, eps_l, 0.1, SCHED, use_region=False)
    assert on.value != off.value


def test_bidpo_role_swap_symmetry_exact():
    theta = randomized_params(net.init_params(CFG, seed=75), seed=76)
    ref = net.clone_frozen(randomized_params(net.init_params(CFG, seed=77), seed=78))
    x0_w, eps_w = rand_images((4, 4, 3), 79)
    x0_l, eps_l = rand_images((4, 4, 3), 80)
    pair = synthetic_pair(x0_w, CAP_RED, x0_l, CAP_BLUE)
    mirrored = synthetic_pair(x0_l, CAP_BLUE, x0_w, CAP_RED)
    a = losses.bidpo_loss(theta, ref, pair, 3, eps_w, eps_l, 0.1, SCHED)
    b = losses.bidpo_loss(theta, ref, mirrored, 3, eps_l, eps_w, 0.1, SCHED)
    assert a.value == b.value


def test_reference_parameters_get_zero_gradients():
    theta = randomized_params(net.init_params(CFG, seed=81), seed=82)
    ref = net.clone_frozen(randomized_params(net.init_params(CFG, seed=83), seed=84))
    x0, eps = rand_images((4, 4, 3), 85)
    loss = losses.text_dpo_loss(theta, ref, x0, CAP_RED, CAP_BLUE, 3, eps, 0.1, SCHED)
    ref_grads = net.backward(ref, loss)
    assert ref_grads.global_norm() == 0.0
    assert loss.backward().global_norm() > 0.0


# ---------------------------------------------------------------------------
# saturated items and implicit reward accuracy

DPO_BATCH_LOSSES = ("diffusion_dpo", "text_dpo", "bidpo")
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
        params = randomized_params(net.init_params(SAT_CFG, seed=seed), seed=seed + 1)
        params.layers = [(w.astype(dtype), b.astype(dtype)) for w, b in params.layers]
        return params

    theta, ref = drawn(110), net.clone_frozen(drawn(112))
    rng = np.random.default_rng(114)
    shape = (16, SAT_CFG.grid, SAT_CFG.grid, SAT_CFG.channels)
    x0_w, x0_l = rng.uniform(-1, 1, (2,) + shape).astype(dtype)
    eps_w, eps_l = rng.standard_normal((2,) + shape).astype(dtype)
    enc_w = np.tile(net.encode_caption(CAP_RED).vector, (16, 1)).astype(dtype)
    enc_l = np.tile(net.encode_caption(CAP_BLUE).vector, (16, 1)).astype(dtype)
    t_arr = rng.integers(0, SCHED.T, 16)

    def loss_at(name, beta):
        if name == "diffusion_dpo":
            return losses.diffusion_dpo_batch(theta, ref, x0_w, x0_l, enc_w, t_arr,
                                              eps_w, eps_l, beta, SCHED)
        if name == "text_dpo":
            return losses.text_dpo_batch(theta, ref, x0_w, enc_w, enc_l, t_arr, eps_w,
                                         beta, SCHED)
        return losses.bidpo_batch(theta, ref, x0_w, x0_l, enc_w, enc_l, t_arr, eps_w,
                                  eps_l, beta, SCHED)

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
        grads = loss.backward()
        params = net.DenoiserParams(cfg=theta.cfg,
                                    layers=[(w.copy(), b.copy()) for w, b in theta.layers])
        state = trainer.AdamState.zeros(params)
        trainer.adam_step(params, grads, state, 1e-3)
        for where, arrays in (("d_out", [loss.d_out]),
                              ("gradients", [g for pair in grads.layers for g in pair]),
                              ("Adam m", [a for pair in state.m for a in pair]),
                              ("Adam v", [a for pair in state.v for a in pair])):
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
    err = norm_relative_grad_error(loss.backward().layers, numeric)
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
            for a, b in zip(ruled.backward().layers, plain.backward().layers):
                assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_reward_accuracy_hand_oracle():
    # under the linear model a term's sigma argument is -2 * coef times
    # <eps, enc_preferred - enc_dispreferred> (caption terms) or
    # <eps_w - eps_l, enc_w> (image term); scale s_i sets each item's sign
    theta, ref = linear_model(0.0), net.clone_frozen(linear_model(1.0))
    sched1 = df.make_schedule(1, 0.5, 0.5)
    enc_w, enc_l = (net.encode_caption(c).vector for c in (CAP_RED, CAP_BLUE))
    s = np.array([-1.0, 1.0, -2.0, 0.5])              # sigma argument sign: -s
    t_arr = np.zeros(4, dtype=int)
    x0 = np.zeros((4, 6, 6, 1))
    encs_w, encs_l = np.tile(enc_w, (4, 1)), np.tile(enc_l, (4, 1))
    unit = enc_w / enc_w.sum()                         # <unit, enc_w> = 1
    image = losses.diffusion_dpo_batch(theta, ref, x0, x0, encs_w, t_arr,
                                       (s[:, None] * unit).reshape(4, 6, 6, 1),
                                       np.zeros((4, 6, 6, 1)), 1.0, sched1)
    assert image.reward_accuracy == 0.5
    assert image.margin == pytest.approx(-2.0 * s.mean(), abs=1e-12)
    diff = (enc_w - enc_l) / np.square(enc_w - enc_l).sum()   # <diff, enc_w - enc_l> = 1
    eps_w = (s[:, None] * diff).reshape(4, 6, 6, 1)
    text = losses.text_dpo_batch(theta, ref, x0, encs_w, encs_l, t_arr, eps_w, 1.0, sched1)
    assert text.reward_accuracy == 0.5
    # the second term prefers the l-caption, so with eps_l = r_i * diff its
    # sigma argument is +2 * coef * r_i: positive for three of the four items
    eps_l = (np.array([1.0, 1.0, 1.0, -1.0])[:, None] * diff).reshape(4, 6, 6, 1)
    both = losses.bidpo_batch(theta, ref, x0, x0, encs_w, encs_l, t_arr, eps_w, eps_l,
                              1.0, sched1)
    assert both.reward_accuracy == 5 / 8
    sft = losses.sft_batch(theta, x0, encs_w, t_arr, eps_w, sched1)
    assert sft.reward_accuracy is None


# ---------------------------------------------------------------------------
# supervised baseline

def test_sft_perfect_prediction_is_zero():
    theta = net.init_params(CFG, seed=86)   # zero head predicts exactly zero
    x0 = np.random.default_rng(87).uniform(-1, 1, (4, 4, 3))
    loss = losses.sft_loss(theta, x0, CAP_RED, 3, np.zeros_like(x0), SCHED)
    assert loss.value == 0.0


def test_sft_zero_net_matches_chi_square_mean():
    cfg = net.NetConfig(grid=16, channels=3, hidden=8, time_dim=8)
    theta = net.init_params(cfg, seed=88)
    rng = np.random.default_rng(89)
    x0 = rng.uniform(-1, 1, (16, 16, 3))
    eps = rng.standard_normal((16, 16, 3))   # 768 cells
    loss = losses.sft_loss(theta, x0, CAP_RED, 3, eps, SCHED)
    assert loss.value == pytest.approx(1.0, rel=0.05)
    assert loss.value == pytest.approx(float(np.mean(eps ** 2)), abs=1e-12)


def test_sft_gradient_matches_finite_differences():
    cfg = net.NetConfig(grid=3, channels=2, hidden=6, time_dim=4)
    theta = randomized_params(net.init_params(cfg, seed=90), seed=91)
    rng = np.random.default_rng(92)
    x0 = rng.uniform(-1, 1, (3, 3, 2))
    eps = rng.standard_normal((3, 3, 2))

    def loss_fn():
        return losses.sft_loss(theta, x0, CAP_RED, 2, eps, SCHED).value

    analytic = losses.sft_loss(theta, x0, CAP_RED, 2, eps, SCHED).backward()
    numeric = finite_difference_grads(loss_fn, theta)
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
    enc_w = np.stack([net.encode_caption(c).vector for c in caps[:3]])
    enc_l = np.stack([net.encode_caption(c).vector for c in caps[1:]])
    t_arr = np.array([0, 2, 5])
    mask = np.where(rng.random((3, 3)) < 0.5, 1.0, 0.5)
    masks_w = losses._mask_rows([mask, None, mask], shape)
    masks_l = losses._mask_rows([None, mask, None], shape)
    cases = {
        "sft": lambda: losses.sft_batch(theta, x0_w, enc_w, t_arr, eps_w, sched),
        "diffusion_dpo": lambda: losses.diffusion_dpo_batch(
            theta, ref, x0_w, x0_l, enc_w, t_arr, eps_w, eps_l, 0.3, sched),
        "text_dpo": lambda: losses.text_dpo_batch(
            theta, ref, x0_w, enc_w, enc_l, t_arr, eps_w, 0.3, sched, masks=masks_w),
        "bidpo": lambda: losses.bidpo_batch(
            theta, ref, x0_w, x0_l, enc_w, enc_l, t_arr, eps_w, eps_l, 0.3, sched),
        "bidpo_masked": lambda: losses.bidpo_batch(
            theta, ref, x0_w, x0_l, enc_w, enc_l, t_arr, eps_w, eps_l, 0.3, sched,
            masks_w=masks_w, masks_l=masks_l),
        # only the winner carries mask rows: the loser blocks weigh every cell by one
        "bidpo_winner_mask": lambda: losses.bidpo_batch(
            theta, ref, x0_w, x0_l, enc_w, enc_l, t_arr, eps_w, eps_l, 0.3, sched,
            masks_w=masks_w, masks_l=None),
    }
    for name, fn in cases.items():
        analytic = fn().backward()
        numeric = finite_difference_grads(lambda: fn().value, theta, h=1e-5)
        err = norm_relative_grad_error(analytic.layers, numeric)
        assert err < 1e-4, f"{name}: relative error {err:.2e}"
