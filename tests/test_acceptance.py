"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-6 are exact property checks. Criterion 8 trains on one image
until its samples come out clean, and is the long-running test here.
Criterion 7, the method ablation's qualitative ordering, has no test yet.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import (finite_difference_grads, norm_relative_grad_error, pair_loss,
                      params_with_layers, randomized_params, stacked, synthetic_pair)

from prefdiff import datapipe as dp
from prefdiff import diffusion as df
from prefdiff import evalbench as eb
from prefdiff import losses
from prefdiff import net
from prefdiff import toyworld as tw
from prefdiff import trainer

LN2 = math.log(2.0)


def report(criterion, ok, detail):
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def small_cfg(**kw):
    return net.NetConfig(grid=3, channels=2, hidden=6, time_dim=4, **kw)


def make_cap(color):
    return tw.Caption(dimension="color", objects=(tw.ObjectSlot("square", color=color),))


# ---------------------------------------------------------------------------
# criterion 1: loss identities at theta == ref

def test_criterion_1_loss_identities():
    cfg = small_cfg()
    sched = df.make_schedule(8, 0.05, 0.3)
    rng = np.random.default_rng(0)
    theta = randomized_params(net.init_params(cfg, seed=0), seed=1)
    x0_w = rng.uniform(-1, 1, (3, 3, 2))
    x0_l = rng.uniform(-1, 1, (3, 3, 2))
    eps_w = rng.standard_normal((3, 3, 2))
    eps_l = rng.standard_normal((3, 3, 2))
    pair = synthetic_pair(x0_w, make_cap("red"), x0_l, make_cap("blue"))

    ddpo = pair_loss("image_dpo", theta, theta, pair, 3, (eps_w, eps_l), 0.1, sched)
    tdpo = pair_loss("text_dpo", theta, theta, pair, 3, (eps_w,), 0.1, sched)
    bi = pair_loss("bidpo", theta, theta, pair, 3, (eps_w, eps_l), 0.1, sched)

    errs = {
        "diffusion_dpo value": abs(ddpo.value - LN2),
        "text_dpo value": abs(tdpo.value - LN2),
        "bidpo value": abs(bi.value - 2 * LN2),
        "diffusion_dpo grad": net.backward(ddpo).global_norm(),
        "text_dpo grad": net.backward(tdpo).global_norm(),
        "bidpo grad": net.backward(bi).global_norm(),
    }
    worst = max(errs.values())
    report(1, worst < 1e-9,
           f"theta==ref identities, worst deviation {worst:.2e} (tolerance 1e-9)")


# ---------------------------------------------------------------------------
# criterion 2: gradient oracle for the whole loss family

def test_criterion_2_gradient_oracle():
    cfg = small_cfg()
    sched = df.make_schedule(6, 0.05, 0.3)
    shape = (3, 3, 2)
    y_w, y_l = make_cap("red"), make_cap("blue")
    worst = {}
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        theta = randomized_params(net.init_params(cfg, seed=seed), seed=2000 + seed)
        assert theta.flat.size <= 1000
        ref = net.clone_frozen(randomized_params(net.init_params(cfg, seed=seed),
                                                 seed=3000 + seed))
        x0_w = rng.uniform(-1, 1, shape)
        x0_l = rng.uniform(-1, 1, shape)
        eps_w = rng.standard_normal(shape)
        eps_l = rng.standard_normal(shape)
        t = int(rng.integers(sched.T))
        beta = float(rng.uniform(0.05, 0.5))
        mask = np.where(rng.random((3, 3)) < 0.5, 1.0, 0.5)
        # stacked once per seed, outside the finite-difference closure
        plain = stacked([synthetic_pair(x0_w, y_w, x0_l, y_l)])
        masked = stacked([synthetic_pair(x0_w, y_w, x0_l, y_l)], weights=(mask, mask))
        cases = {"sft": ("sft", plain), "diffusion_dpo": ("image_dpo", plain),
                 "text_dpo": ("text_dpo", plain), "bidpo": ("bidpo", plain),
                 "bidpo_masked": ("bidpo_region", masked)}
        for name, (method, arrays) in cases.items():
            noise = (eps_w[None], eps_l[None])[:len(losses.LAYOUTS[method].noised)]

            def fn():
                return losses.batch_loss(method, theta, ref, arrays, noise, [t], beta, sched)

            analytic = net.backward(fn())
            numeric = finite_difference_grads(lambda: fn().value, theta, h=1e-5)
            err = norm_relative_grad_error(analytic.layers, numeric)
            worst[name] = max(worst.get(name, 0.0), err)
    overall = max(worst.values())
    report(2, overall < 1e-4,
           "finite-difference oracle, worst relative error per loss: "
           + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


# ---------------------------------------------------------------------------
# criterion 3: mask neutrality and the global-focus exemption

def test_criterion_3_mask_neutrality_and_exemption():
    cfg = net.NetConfig(grid=16, channels=3, hidden=16, time_dim=8)
    sched = df.make_schedule(8, 0.05, 0.3)
    theta = randomized_params(net.init_params(cfg, seed=4), seed=5)
    ref = net.clone_frozen(randomized_params(net.init_params(cfg, seed=6), seed=7))
    rng = np.random.default_rng(8)
    x0 = rng.uniform(-1, 1, (16, 16, 3))
    eps = rng.standard_normal((16, 16, 3))
    ones = np.ones((16, 16))
    pair = synthetic_pair(x0, make_cap("red"), x0, make_cap("blue"))
    plain = pair_loss("text_dpo", theta, ref, pair, 4, (eps,), 0.1, sched)
    masked = pair_loss("text_dpo", theta, ref, pair, 4, (eps,), 0.1, sched,
                       weights=(ones, None))
    bitwise = plain.value == masked.value and plain.margin == masked.margin

    exempt_ok = True
    details = []
    for dim in ("spatial", "numeracy"):
        cap = dp.sample_caption(dim, rng_seed=50)
        pair = next(dp.build_pair(cap, e, layout_seed=60, grid=16)
                    for e in dp.edit_caption(cap, rng_seed=51))
        ew = rng.standard_normal((16, 16, 3))
        el = rng.standard_normal((16, 16, 3))
        on = pair_loss("bidpo_region", theta, ref, pair, 4, (ew, el), 0.1, sched, masks=True)
        off = pair_loss("bidpo", theta, ref, pair, 4, (ew, el), 0.1, sched)
        gap = abs(on.value - off.value)
        exempt_ok &= gap <= 1e-12
        details.append(f"{dim} gap {gap:.1e}")
    report(3, bitwise and exempt_ok,
           f"all-ones mask bitwise equal: {bitwise}; exemption: {', '.join(details)}")


# ---------------------------------------------------------------------------
# criterion 4: the closed-form caption-contrast check

def test_criterion_4_closed_form():
    K = net.ENCODING_DIM
    cfg = net.NetConfig(grid=6, channels=1, hidden=K, time_dim=4,
                        activation="identity")

    def linear(w):
        w1 = np.zeros((cfg.input_dim, K))
        w1[cfg.image_dim + cfg.time_dim:, :] = np.eye(K)
        return params_with_layers(cfg, [
            (w1, np.zeros(K)), (np.eye(K), np.zeros(K)), (w * np.eye(K), np.zeros(K))])

    sched = df.make_schedule(5, 0.1, 0.3)
    y_w, y_l = make_cap("red"), make_cap("blue")
    e_w = net.encode_caption(y_w)
    e_l = net.encode_caption(y_l)
    worst = 0.0
    for w_val, w0, beta, t, seed in [(1.0, 0.25, 1.0, 2, 0), (0.5, 0.0, 0.1, 0, 1),
                                     (2.0, 1.0, 0.3, 4, 2), (-1.0, 0.5, 1.0, 1, 3),
                                     (0.0, 0.0, 0.7, 3, 4)]:
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1, 1, (6, 6, 1))
        eps = rng.standard_normal((6, 6, 1))
        loss = pair_loss("text_dpo", linear(w_val), net.clone_frozen(linear(w0)),
                         synthetic_pair(x0, y_w, x0, y_l), t, (eps,), beta, sched)
        # closed form: expanding the four squared norms leaves
        # bracket = -2 (w - w0) <eps, enc_w - enc_l>; loss = softplus(-z)
        z = 2 * beta * sched.T * float(df.omega_vector(sched, t)) * (w_val - w0) \
            * float(eps.reshape(-1) @ (e_w - e_l))
        closed = max(-z, 0.0) + math.log1p(math.exp(-abs(z)))
        worst = max(worst, abs(loss.value - closed))
    report(4, worst < 1e-12,
           f"linear-model value vs closed form at 5 settings, worst {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 5: pipeline soundness over 1,000 pairs

def test_criterion_5_pipeline_soundness():
    counts = dp.default_mix(1000)
    pairs, manifest = dp.generate_dataset(counts, seed=9001, grid=8)
    n_pairs = len(pairs)
    cross_ok = all(
        tw.vqa_check(p.x0_w, p.y_w).passed
        and tw.vqa_check(p.x0_l, p.y_l).passed
        and not tw.vqa_check(p.x0_w, p.y_l).passed
        and not tw.vqa_check(p.x0_l, p.y_w).passed
        for p in pairs)

    edits_ok = True
    checked = 0
    for dim in ("color", "shape", "texture"):
        for i in range(200):
            cap = dp.sample_caption(dim, rng_seed=7000 + i)
            attr = {"color": "color", "shape": "shape", "texture": "texture"}[dim]
            values = [getattr(s, attr) for s in cap.objects]
            if len(cap.objects) == 2 and values[0] != values[1]:
                edits_ok &= len(dp.edit_caption(cap, rng_seed=i)) == 4
                checked += 1

    # swap the captions of a random fifth of the pairs: the filter must
    # discard exactly those
    swapped = np.random.default_rng(3).random(n_pairs) < 0.2
    injected = int(swapped.sum())
    kept, discarded, _ = dp.filter_pairs(
        [replace(p, y_w=p.y_l, y_l=p.y_w) if bad else p for p, bad in zip(pairs, swapped)])
    filter_ok = len(discarded) == injected > 0

    report(5, n_pairs == 1000 and cross_ok and edits_ok and filter_ok,
           f"{n_pairs} pairs cross-checked: {cross_ok}; "
           f"4-edit rule on {checked} captions: {edits_ok}; "
           f"filter discarded {len(discarded)} == injected {injected}")


# ---------------------------------------------------------------------------
# criterion 6: round trips

def test_criterion_6_round_trips(tmp_path):
    mismatches = 0
    n = 0
    for i in range(200):
        for dim in tw.DIMENSIONS:
            cap = dp.sample_caption(dim, rng_seed=80_000 + i)
            scene = tw.scene_from_caption(cap, layout_seed=90_000 + i, grid=16)
            if tw.detect(tw.render(scene, 90_000 + i, jitter=0.05, grid=16)) != scene:
                mismatches += 1
            n += 1
    pairs, manifest = dp.generate_dataset({"color": 60, "spatial": 20, "numeracy": 20},
                                          seed=17, grid=8)
    path = tmp_path / "pairs.jsonl"
    dp.write_dataset(pairs, manifest, path)
    loaded, _ = dp.read_dataset(path)
    data_ok = len(loaded) == len(pairs) and all(
        dp.pairs_equal(a, b) for a, b in zip(pairs, loaded))

    params = randomized_params(net.init_params(small_cfg(), seed=10), seed=11)
    ckpt = tmp_path / "ckpt.json"
    net.save_checkpoint(params, df.make_schedule(20, 0.05, 0.45), ckpt)
    loaded = net.load_checkpoint(ckpt)[0]
    ckpt_ok = loaded.cfg == params.cfg and np.array_equal(loaded.flat, params.flat)

    report(6, mismatches == 0 and data_ok and ckpt_ok,
           f"detect(render(.)) identity on {n} scenes ({mismatches} mismatches); "
           f"dataset round trip: {data_ok}; checkpoint bit-exact: {ckpt_ok}")


# ---------------------------------------------------------------------------
# criterion 8: single-image memorization reaches clean samples

@pytest.mark.slow
def test_criterion_8_memorization_sampling_error():
    pairs, _ = dp.generate_dataset({"color": 1}, seed=11, grid=8)
    cfg = trainer.TrainConfig(method="sft", steps=12_000, batch_size=128, grid=8,
                              hidden=512, T=20, beta_start=0.05, beta_end=0.45,
                              seed=0, dtype="float32", learning_rate=1e-3,
                              parameterization="x0")
    params, _ = trainer.train(cfg, pairs * 4)
    enc = net.encode_caption(pairs[0].y_w)[None]
    maes = [float(np.abs(df.ddpm_sample_batch(params, enc, cfg.schedule(), [s])[0]
                         - pairs[0].x0_w).mean())
            for s in range(5)]
    worst = max(maes)
    report(8, worst < 0.15,
           f"memorization sampling error per cell: worst {worst:.4f} over 5 draws "
           f"(tolerance 0.15)")
