import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from conftest import (enumerate_captions, finite_difference_grads, max_relative_grad_error,
                      one_block_input, randomized_params, run_now, stacked, synthetic_pair,
                      with_dtype)

from prefdiff import datapipe as dp
from prefdiff import diffusion as df
from prefdiff import losses
from prefdiff import net
from prefdiff import toyworld as tw

SMALL = net.NetConfig(grid=4, channels=3, hidden=8, time_dim=8)


def test_encoding_differs_in_exactly_one_block():
    a = tw.Caption(dimension="color",
                   objects=(tw.ObjectSlot("square", color="red"),
                            tw.ObjectSlot("disc", color="blue")))
    b = tw.Caption(dimension="color",
                   objects=(tw.ObjectSlot("square", color="green"),
                            tw.ObjectSlot("disc", color="blue")))
    va, vb = net.encode_caption(a), net.encode_caption(b)
    changed = np.nonzero(va != vb)[0]
    color_block = slice(len(tw.SHAPES), len(tw.SHAPES) + len(tw.COLORS))
    assert len(changed) == 2               # one bit cleared, one set
    assert all(color_block.start <= i < color_block.stop for i in changed)


def test_encoding_single_object_leaves_second_slot_zero():
    cap = tw.Caption(dimension="color", objects=(tw.ObjectSlot("square", color="red"),))
    vec = net.encode_caption(cap)
    block = len(tw.SHAPES) + len(tw.COLORS) + len(tw.TEXTURES)
    assert np.all(vec[block:2 * block] == 0.0)
    assert vec[:block].sum() == 2.0        # shape hot + color hot


def test_encoding_injective_over_full_grammar():
    captions = enumerate_captions()
    assert len(captions) < 10_000
    seen = {}
    for cap in captions:
        key = net.encode_caption(cap).tobytes()
        assert key not in seen, f"{cap} collides with {seen.get(key)}"
        seen[key] = cap
    # one hot entry per filled slot
    for cap in captions[:200]:
        vec = net.encode_caption(cap)
        filled = sum(1 + (s.color is not None) + (s.texture is not None)
                     for s in cap.objects)
        filled += (cap.relation is not None) + (cap.count is not None)
        assert vec.sum() == filled


def test_encoding_rejects_unknown_vocabulary():
    # a caption outside the vocabulary cannot be built, so none reaches the encoder
    with pytest.raises(ValueError, match="mauve"):
        tw.Caption(dimension="color", objects=(tw.ObjectSlot("square", color="mauve"),))


def test_forward_zero_final_layer_outputs_zero():
    params = net.init_params(SMALL, seed=0)
    sched = df.make_schedule(10, 0.05, 0.3)
    cap = tw.Caption(dimension="shape", objects=(tw.ObjectSlot("disc"),))
    rng = np.random.default_rng(0)
    inp = one_block_input(params, rng.standard_normal((1, 4, 4, 3)), np.array([3]),
                          net.encode_caption(cap)[None], sched)
    out = net.forward_rows(params, inp)
    assert np.all(out == 0.0)
    assert out.shape == (1, 48)


def test_forward_is_pure():
    params = randomized_params(net.init_params(SMALL, seed=1), seed=2)
    sched = df.make_schedule(10, 0.05, 0.3)
    cap = tw.Caption(dimension="shape", objects=(tw.ObjectSlot("disc"),))
    x = np.random.default_rng(3).standard_normal((1, 4, 4, 3))
    inp = one_block_input(params, x, np.array([5]), net.encode_caption(cap)[None], sched)
    a = net.predict_noise_rows(params, inp, np.array([5]), sched)
    b = net.predict_noise_rows(params, inp, np.array([5]), sched)
    assert np.array_equal(a, b)


def _random_input(params, n, seed):
    """A one-block network input of n rows with random images and encodings."""
    cfg = params.cfg
    sched = df.make_schedule(10, 0.05, 0.3)
    rng = np.random.default_rng(seed)
    x_t = rng.standard_normal((n, cfg.grid, cfg.grid, cfg.channels))
    enc = rng.standard_normal((n, net.ENCODING_DIM))
    return one_block_input(params, x_t, rng.integers(0, sched.T, n), enc, sched)


def _probe_loss(params, rows, v):
    """Loss v . f(rows) with its forward pass cached for net.backward."""
    acts = []
    out = net.forward_rows(params, rows, acts)
    return losses.Loss(value=float((out * v).sum()), margin=0.0, theta=params,
                       acts=acts, d_out=np.broadcast_to(v, out.shape))


def test_forward_directional_derivative_matches_probe():
    # parameter gradient of v . f(x) along a random direction against a
    # central difference of the forward pass
    params = randomized_params(net.init_params(SMALL, seed=4), seed=5)
    sched = df.make_schedule(10, 0.05, 0.3)
    cap = tw.Caption(dimension="shape", objects=(tw.ObjectSlot("disc"),))
    enc = net.encode_caption(cap)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 4, 3))
    v = rng.standard_normal(48)
    rows = one_block_input(params, x[None], np.array([5]), enc[None], sched)
    grads = net.backward(_probe_loss(params, rows, v))

    delta = 1e-6
    for li in range(len(params.layers)):
        for k in (0, 1):
            direction = rng.standard_normal(params.layers[li][k].shape)
            analytic = float((grads.layers[li][k] * direction).sum())
            arr = params.layers[li][k]
            arr += delta * direction
            fp = float(net.forward_rows(params, rows)[0] @ v)
            arr -= 2 * delta * direction
            fm = float(net.forward_rows(params, rows)[0] @ v)
            arr += delta * direction
            assert (fp - fm) / (2 * delta) == pytest.approx(analytic, rel=1e-4)


def test_backward_constant_loss_gives_zero_grads():
    params = randomized_params(net.init_params(SMALL, seed=7), seed=8)
    rows = _random_input(params, 3, seed=9)
    grads = net.backward(_probe_loss(params, rows, np.zeros(SMALL.image_dim)))
    for w, b in grads.layers:
        assert np.all(w == 0.0) and np.all(b == 0.0)


def test_backward_is_repeatable():
    # a loss can be differentiated again, with identical gradients
    params = randomized_params(net.init_params(SMALL, seed=12), seed=13)
    rows = _random_input(params, 2, seed=14)
    loss = _probe_loss(params, rows, np.ones(SMALL.image_dim))
    first, second = net.backward(loss), net.backward(loss)
    for (w1, b1), (w2, b2) in zip(first.layers, second.layers):
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)


@pytest.fixture(scope="module")
def mixed_pairs():
    # colour pairs carry region masks, numeracy pairs do not
    pairs, _ = dp.generate_dataset({"color": 4, "numeracy": 2}, seed=3, grid=8)
    return pairs


def _method_loss(method, pairs, dtype=np.float64, parameterization="eps"):
    """The Loss of ``method`` over ``pairs`` at grid 8, for a random policy
    against a different random reference."""
    cfg = net.NetConfig(grid=8, hidden=16, time_dim=8, parameterization=parameterization)
    theta = with_dtype(randomized_params(net.init_params(cfg, seed=30), seed=31, scale=0.1),
                       dtype)
    ref = net.clone_frozen(with_dtype(randomized_params(net.init_params(cfg, seed=30),
                                                        seed=32, scale=0.1), dtype))
    sched = df.make_schedule(10, 0.05, 0.3)
    rng = np.random.default_rng(33)
    layout = losses.LAYOUTS[method]
    noise = [rng.standard_normal((len(pairs), 8, 8, 3)) for _ in layout.noised]
    return losses.batch_loss(method, theta, ref, stacked(pairs, layout.masks), noise,
                             rng.integers(0, sched.T, len(pairs)), 0.5, sched)


@pytest.mark.parametrize("parameterization", ["eps", "x0"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("method", list(losses.LAYOUTS))
def test_backward_with_a_worker_is_bitwise_the_inline_backward(worker, mixed_pairs, method,
                                                               dtype, parameterization):
    # each dW product is the same call on the same operands wherever it
    # runs: on the worker, in line, or taken back by the caller
    loss = _method_loss(method, mixed_pairs, dtype, parameterization)
    expected = net.backward(loss)
    grads = net.backward(loss, worker=worker)
    assert all(np.any(w != 0) for w, _ in expected.layers)
    assert grads.flat.dtype == dtype
    assert grads.flat.tobytes() == expected.flat.tobytes()


def _loss_bytes(loss):
    """The bytes of ``loss.d_out`` and of every array its activations cache."""
    arrays = [loss.d_out]
    for h, z, s in loss.acts:
        arrays += ([h.images, h.temb, h.encodings] if isinstance(h, net.NetInput) else [h])
        arrays += [z] + ([] if s is None else [s])
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("parameterization", ["eps", "x0"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("method", list(losses.LAYOUTS))
def test_backward_leaves_its_loss_untouched(worker, mixed_pairs, method, dtype,
                                            parameterization):
    # backward multiplies the SiLU slope into a gradient it made itself,
    # never into d_out or a cached activation
    loss = _method_loss(method, mixed_pairs, dtype, parameterization)
    before = _loss_bytes(loss)
    net.backward(loss, worker=worker)
    assert _loss_bytes(loss) == before


def test_backward_raises_the_error_of_a_product_run_on_the_worker(mixed_pairs):
    loss = _method_loss("bidpo", mixed_pairs)
    queued = []

    def worker(fn, *args):
        queued.append(fn)
        if len(queued) == 2:    # layer 1's dW, finished on the worker with an error
            future = Future()
            future.set_exception(FloatingPointError("overflow in layer 1's product"))
            return future
        return run_now(fn, *args)

    with pytest.raises(FloatingPointError, match="layer 1's product"):
        net.backward(loss, worker=worker)
    assert queued == [np.matmul, np.matmul, net._first_layer_grad]


def test_no_queued_product_is_pending_when_backward_returns(mixed_pairs):
    # each product sleeps on the worker, so when the caller is done with
    # the chain the first is still running and the others wait behind it
    loss = _method_loss("bidpo_region", mixed_pairs)
    expected = net.backward(loss)
    futures = []

    def slow(fn, *args):
        time.sleep(0.05)
        fn(*args)

    with ThreadPoolExecutor(max_workers=1) as pool:
        def worker(fn, *args):
            futures.append(pool.submit(slow, fn, *args))
            return futures[-1]

        grads = net.backward(loss, worker=worker)
        done = [f.done() for f in futures]
    assert done == [True] * 3
    assert grads.flat.tobytes() == expected.flat.tobytes()


def test_global_norm_matches_float64_sum_of_squares():
    rng = np.random.default_rng(15)
    grads = net.Gradients(cfg=SMALL, flat=np.empty(net.expected_param_count(SMALL), np.float32))
    for k, (w, b) in enumerate(grads.layers):
        w[...] = rng.normal(0.0, 10.0 ** -k, w.shape)
        b[...] = rng.normal(0.0, 1.0, b.shape)
    expected = np.sqrt((grads.flat.astype(np.float64) ** 2).sum())
    assert grads.global_norm() == pytest.approx(expected, rel=1e-6)
    for bad in (np.inf, -np.inf, np.nan):
        grads.layers[1][0][3, 4] = bad
        assert not np.isfinite(grads.global_norm())


@pytest.mark.parametrize("seed", [0, 1])
def test_loss_family_gradients_match_finite_differences(seed):
    cfg = net.NetConfig(grid=3, channels=2, hidden=6, time_dim=4)
    theta = randomized_params(net.init_params(cfg, seed=seed), seed=100 + seed)
    ref = net.clone_frozen(randomized_params(net.init_params(cfg, seed=seed), seed=200 + seed))
    assert theta.flat.size <= 1000
    sched = df.make_schedule(6, 0.05, 0.3)
    rng = np.random.default_rng(300 + seed)
    x0 = rng.uniform(-1, 1, (3, 3, 2))
    eps = rng.standard_normal((3, 3, 2))
    y_w = tw.Caption(dimension="color", objects=(tw.ObjectSlot("square", color="red"),))
    y_l = tw.Caption(dimension="color", objects=(tw.ObjectSlot("square", color="cyan"),))

    arrays = stacked([synthetic_pair(x0, y_w, x0, y_l)])

    def loss():
        return losses.batch_loss("text_dpo", theta, ref, arrays, [eps[None]], [2], 0.3, sched)

    analytic = net.backward(loss())
    # the 5-point stencil: with the 3-point one at h = 1e-5, rounding noise
    # of ~1e-10 in entries of size 1e-6 put seed 1 at 9e-5 of the 1e-4 bound
    numeric = finite_difference_grads(lambda: loss().value, theta, h=1e-3, order=4)
    assert max_relative_grad_error(analytic.layers, numeric) < 1e-4


def test_x0_parameterization_gradients_and_identity():
    cfg = net.NetConfig(grid=3, channels=2, hidden=6, time_dim=4, parameterization="x0")
    theta = randomized_params(net.init_params(cfg, seed=40), seed=41)
    ref = net.clone_frozen(randomized_params(net.init_params(cfg, seed=42), seed=43))
    sched = df.make_schedule(6, 0.05, 0.3)
    rng = np.random.default_rng(44)
    x0 = rng.uniform(-1, 1, (3, 3, 2))
    eps = rng.standard_normal((3, 3, 2))
    y_w = tw.Caption(dimension="color", objects=(tw.ObjectSlot("square", color="red"),))
    y_l = tw.Caption(dimension="color", objects=(tw.ObjectSlot("square", color="cyan"),))

    arrays = stacked([synthetic_pair(x0, y_w, x0, y_l)])

    def loss(reference):
        return losses.batch_loss("text_dpo", theta, reference, arrays, [eps[None]], [3], 0.3,
                                 sched)

    analytic = net.backward(loss(ref))
    numeric = finite_difference_grads(lambda: loss(ref).value, theta)
    # near-zero entries sit at the finite-difference noise floor
    assert max_relative_grad_error(analytic.layers, numeric, floor=1e-5) < 2e-4
    aliased = loss(theta)
    assert aliased.value == pytest.approx(np.log(2.0), abs=1e-12)
    assert net.backward(aliased).global_norm() < 1e-9


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_x0_noise_prediction_keeps_the_parameter_dtype(dtype):
    cfg = net.NetConfig(grid=4, channels=3, hidden=8, time_dim=8, parameterization="x0")
    params = randomized_params(net.init_params(cfg, seed=45), seed=46)
    params = with_dtype(params, dtype)
    sched = df.make_schedule(10, 0.05, 0.3)
    rng = np.random.default_rng(47)
    x_t = rng.standard_normal((5, 4, 4, 3))
    t_arr = np.array([0, 2, 4, 7, 9])
    enc = np.stack([net.encode_caption(c) for c in enumerate_captions()[:5]])
    rows = one_block_input(params, x_t, t_arr, enc, sched)
    out = net.predict_noise_rows(params, rows, t_arr, sched)
    assert out.dtype == dtype
    # reference: the x0 identity with float64 coefficients, as before the cast
    ab = sched.alpha_bar[t_arr][:, None]
    ref = (rows.image_rows() - np.sqrt(ab) * net.forward_rows(params, rows)) \
        * (1.0 / np.sqrt(1.0 - ab))
    if dtype == np.float64:
        assert np.array_equal(out, ref)
    else:
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)


def _concatenated_stack(params, rows, t_rows, sched, d_out):
    """The stack over explicitly concatenated (image, time, caption) rows, with
    layer 1 as ``rows @ W0 + b0``: its noise prediction and its (dW, db) for
    dL/d(stack output) ``d_out``, written out independently of ``net``."""
    cache, h = [], rows
    for i, (w, b) in enumerate(params.layers):
        z = h @ w + b
        cache.append((h, z))
        h = z * (1.0 / (1.0 + np.exp(-z))) if i < len(params.layers) - 1 else z
    pred = h
    if params.cfg.parameterization == "x0":
        ab = sched.alpha_bar[t_rows][:, None]
        pred = (rows[:, :params.cfg.image_dim] - np.sqrt(ab) * h) / np.sqrt(1.0 - ab)
    g, grads = d_out, []
    for i in range(len(params.layers) - 1, -1, -1):
        h, z = cache[i]
        if i < len(params.layers) - 1:
            s = 1.0 / (1.0 + np.exp(-z))
            g = g * s * (1.0 + z * (1.0 - s))
        grads.append((h.T @ g, g.sum(axis=0)))
        g = g @ params.layers[i][0].T
    return pred, grads[::-1]


def _assert_close(actual, expected, rtol):
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


@pytest.mark.parametrize("parameterization", ["eps", "x0"])
def test_factorised_first_layer_matches_concatenated_rows(parameterization):
    # each loss's block -> image map: sft, image_dpo, text_dpo and bidpo
    cfg = net.NetConfig(grid=3, channels=2, hidden=6, time_dim=4,
                        parameterization=parameterization)
    params = randomized_params(net.init_params(cfg, seed=60), seed=61)
    sched = df.make_schedule(10, 0.05, 0.3)
    rng = np.random.default_rng(62)
    n = 3
    t_arr = rng.integers(0, sched.T, n)
    images = [rng.standard_normal((n, 3, 3, 2)) for _ in range(2)]
    for image_of_block in [(0,), (0, 1), (0, 0), (0, 0, 1, 1)]:
        used = images[:max(image_of_block) + 1]
        encodings = [rng.standard_normal((n, net.ENCODING_DIM)) for _ in image_of_block]
        inp = net._assemble_input(params, used, t_arr, encodings, sched, image_of_block)
        t_rows = np.tile(t_arr, len(image_of_block))
        acts = []
        pred = net.predict_noise_rows(params, inp, t_rows, sched, acts)
        d_out = rng.standard_normal(pred.shape)
        grads = net.backward(losses.Loss(value=0.0, margin=0.0, theta=params, acts=acts,
                                         d_out=d_out))
        temb = net._time_embedding(t_arr, sched.T, cfg.time_dim)
        rows = np.concatenate([
            np.concatenate([used[k].reshape(n, -1) for k in image_of_block]),
            np.tile(temb, (len(image_of_block), 1)), np.concatenate(encodings)], axis=1)
        ref_pred, ref_grads = _concatenated_stack(params, rows, t_rows, sched, d_out)
        _assert_close(pred, ref_pred, 1e-12)
        for (dw, db), (ref_dw, ref_db) in zip(grads.layers, ref_grads):
            _assert_close(dw, ref_dw, 1e-12)
            _assert_close(db, ref_db, 1e-12)


def test_forward_rows_rejects_the_input_of_another_network():
    sched = df.make_schedule(10, 0.05, 0.3)
    for other in (replace(SMALL, time_dim=SMALL.time_dim + 2),
                  replace(SMALL, grid=SMALL.grid + 1)):
        params = net.init_params(other, seed=17)
        inp = one_block_input(params, np.zeros((2, other.grid, other.grid, other.channels)),
                              np.array([0, 1]), np.zeros((2, net.ENCODING_DIM)), sched)
        with pytest.raises(ValueError, match="input widths"):
            net.forward_rows(net.init_params(SMALL, seed=16), inp)


def test_clone_frozen_is_independent_and_equal():
    params = randomized_params(net.init_params(SMALL, seed=11), seed=12)
    clone = net.clone_frozen(params)
    assert clone.cfg == params.cfg and np.array_equal(clone.flat, params.flat)
    sched = df.make_schedule(8, 0.05, 0.3)
    cap = tw.Caption(dimension="shape", objects=(tw.ObjectSlot("triangle"),))
    x = np.random.default_rng(13).standard_normal((1, 4, 4, 3))
    inp = one_block_input(params, x, np.array([1]), net.encode_caption(cap)[None], sched)
    assert np.array_equal(net.predict_noise_rows(params, inp, np.array([1]), sched),
                          net.predict_noise_rows(clone, inp, np.array([1]), sched))
    params.layers[0][0][:] += 1.0   # mutate the original
    assert not np.array_equal(params.flat, clone.flat)


def test_clone_survives_training_untouched():
    from prefdiff import datapipe as dp
    from prefdiff import trainer
    pairs, _ = dp.generate_dataset({"color": 6}, seed=1, grid=8)
    cfg = trainer.TrainConfig(method="sft", steps=100, batch_size=4, grid=8,
                              hidden=16, time_dim=8, T=10, seed=5, dtype="float64")
    init = net.init_params(cfg.net_config(), seed=5)
    frozen = net.clone_frozen(init)
    before = net.checkpoint_checksum(frozen)
    trainer.train(cfg, pairs, init_params=init)
    assert net.checkpoint_checksum(frozen) == before
    assert net.checkpoint_checksum(init) == before   # train copies, never mutates


def test_param_count_matches_analytic_formula():
    for cfg in (SMALL, net.NetConfig(grid=6, channels=1, hidden=32, time_dim=16)):
        params = net.init_params(cfg, seed=0)
        assert params.flat.size == net.expected_param_count(cfg)


def test_a_write_through_a_layer_view_shows_in_the_flat_buffer_and_checksum():
    params = net.init_params(SMALL, seed=18)
    before = net.checkpoint_checksum(params)
    for i, k in ((0, 0), (1, 1), (2, 0)):
        view = params.layers[i][k]
        assert np.shares_memory(view, params.flat)
        view.flat[-1] += 1.0
    assert np.count_nonzero(params.flat != net.init_params(SMALL, seed=18).flat) == 3
    assert net.checkpoint_checksum(params) != before


@pytest.mark.parametrize("flat", [np.zeros(net.expected_param_count(SMALL) - 1),
                                  np.zeros(net.expected_param_count(SMALL) + 1),
                                  np.zeros((1, net.expected_param_count(SMALL))),
                                  np.float64(0.0)],
                         ids=["short", "long", "2d", "0d"])
def test_a_flat_buffer_of_the_wrong_size_or_ndim_is_refused(flat):
    for build in (net.DenoiserParams, net.Gradients):
        with pytest.raises(ValueError, match="config implies"):
            build(cfg=SMALL, flat=flat)


@pytest.mark.parametrize("dtype,digest", [
    (np.float32, "fe962af756dd763319a9b5ee4ad1d211423305b076f43d093cc0f985973637d0"),
    (np.float64, "89e3a437f55cf3140182ddc80a257c385c36460cd614c51f06c23db683bdca0a"),
], ids=["float32", "float64"])
def test_checkpoint_checksum_of_a_default_init_is_unchanged(dtype, digest):
    # the sha256 of W0, b0, ..., b2's bytes in turn, as v2 checkpoints recorded it
    params = net.init_params(net.NetConfig(grid=4, hidden=16, time_dim=4), seed=2, dtype=dtype)
    assert net.checkpoint_checksum(params) == digest


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = randomized_params(net.init_params(SMALL, seed=14), seed=15)
    path = tmp_path / "ckpt.json"
    for sched in (df.make_schedule(20, 0.05, 0.45, "snr"), df.make_schedule(1, 0.3, 0.3),
                  df.make_schedule(100, 1e-3, 0.2)):
        net.save_checkpoint(params, sched, path)
        loaded, loaded_sched = net.load_checkpoint(path)
        assert np.array_equal(loaded.flat, params.flat)
        assert loaded.cfg == params.cfg
        assert net.checkpoint_checksum(loaded) == net.checkpoint_checksum(params)
        # the schedule it was trained under comes back bit for bit
        assert loaded_sched.spec() == sched.spec()
        for name in ("beta", "alpha_bar", "lambda_log_snr"):
            assert getattr(loaded_sched, name).tobytes() == getattr(sched, name).tobytes()


def test_checkpoint_rejects_corruption_and_bad_version(tmp_path):
    import json
    params = net.init_params(SMALL, seed=16)
    path = tmp_path / "ckpt.json"
    net.save_checkpoint(params, df.make_schedule(10, 0.05, 0.3), path)
    record = json.loads(path.read_text())
    assert record["version"] == 4
    record["checksum"] = "0" * 64
    path.write_text(json.dumps(record))
    with pytest.raises(net.CheckpointError, match="checksum"):
        net.load_checkpoint(path)
    record["version"] = 999
    path.write_text(json.dumps(record))
    with pytest.raises(net.CheckpointError, match="unsupported"):
        net.load_checkpoint(path)


def test_checkpoint_refuses_a_v1_file_without_a_schedule(tmp_path):
    import json
    params = net.init_params(SMALL, seed=16)
    path = tmp_path / "ckpt.json"
    net.save_checkpoint(params, df.make_schedule(10, 0.05, 0.3), path)
    record = json.loads(path.read_text())
    del record["schedule"]
    # v1 stored no schedule and v2 one payload per layer; checkpoints retrain
    for version in range(1, net.CHECKPOINT_VERSION):
        path.write_text(json.dumps({**record, "version": version}))
        with pytest.raises(net.CheckpointError, match=f"unsupported .* v{version}"):
            net.load_checkpoint(path)


def test_a_checkpoint_is_v4_and_refuses_a_v3_file_or_an_unknown_key(tmp_path):
    import json
    path = tmp_path / "ckpt.json"
    net.save_checkpoint(net.init_params(SMALL, seed=16), df.make_schedule(10, 0.05, 0.3), path)
    record = json.loads(path.read_text())
    assert record["version"] == net.CHECKPOINT_VERSION == 4
    assert "trainable" not in record
    # a v3 file is this record with the flag, which its loader checked
    path.write_text(json.dumps({**record, "version": 3, "trainable": True}))
    with pytest.raises(net.CheckpointError, match="unsupported checkpoint 'prefdiff-denoiser' v3"):
        net.load_checkpoint(path)
    # and a v4 record does not know the flag
    path.write_text(json.dumps({**record, "trainable": True, "extra": 1}))
    with pytest.raises(net.CheckpointError, match="unknown keys: extra, trainable$"):
        net.load_checkpoint(path)


@pytest.mark.parametrize("field,value,match", [
    pytest.param("time_dim", 1, "time_dim", id="1"),
    pytest.param("time_dim", 7, "time_dim", id="7"),
    pytest.param("parameterization", "x1", "parameterization", id="parameterization-x1"),
    pytest.param("activation", "relu", "activation", id="activation-relu"),
    # a valid config, but not the one the stored 8-wide layers were built from
    pytest.param("hidden", 16, "config implies", id="hidden-16"),
])
def test_odd_or_tiny_time_dim_is_refused_where_a_net_is_built(tmp_path, field, value, match):
    import json
    if field != "hidden":
        with pytest.raises(ValueError, match=match):
            net.init_params(replace(SMALL, **{field: value}))
    path = tmp_path / "ckpt.json"
    net.save_checkpoint(net.init_params(SMALL, seed=16), df.make_schedule(10, 0.05, 0.3), path)
    record = json.loads(path.read_text())
    record["cfg"][field] = value
    path.write_text(json.dumps(record))
    with pytest.raises(net.CheckpointError, match=match):
        net.load_checkpoint(path)
