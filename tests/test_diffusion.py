import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefdiff import diffusion as df
from prefdiff import net


def test_single_step_schedule():
    s = df.make_schedule(1, 0.5, 0.5)
    assert s.alpha_bar.tolist() == [0.5]
    assert s.lambda_log_snr[0] == pytest.approx(0.0, abs=1e-15)


def test_two_step_schedule_hand_product():
    s = df.make_schedule(2, 0.1, 0.3)
    # hand multiplication: 0.9, then 0.9 * 0.7
    assert np.allclose(s.alpha_bar, [0.9, 0.63])
    assert np.allclose(s.beta, [0.1, 0.3])


def test_long_schedule_against_brute_force_product():
    s = df.make_schedule(1000, 1e-4, 0.02)
    brute = 1.0
    for b in np.linspace(1e-4, 0.02, 1000):
        brute *= 1.0 - b
    assert s.alpha_bar[-1] == pytest.approx(brute, rel=1e-12)
    assert s.alpha_bar[-1] < 0.01
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert np.all(np.diff(s.lambda_log_snr) < 0)


@pytest.mark.parametrize("bad", [(0, 0.1, 0.2), (True, 0.1, 0.2), (5, 0.0, 0.2), (5, 0.3, 0.2),
                                 (5, 0.1, 1.0)])
def test_make_schedule_rejects_bad_ranges(bad):
    T, b0, b1 = bad
    with pytest.raises(ValueError):
        df.make_schedule(T, b0, b1)


def test_q_sample_zero_noise_and_zero_signal():
    s = df.make_schedule(4, 0.1, 0.2)
    rng = np.random.default_rng(0)
    x0 = rng.uniform(-1, 1, (4, 4, 3))
    eps = rng.standard_normal((4, 4, 3))
    assert np.allclose(df._q_sample(x0, np.asarray(2), np.zeros_like(x0), s),
                       np.sqrt(s.alpha_bar[2]) * x0)
    assert np.allclose(df._q_sample(np.zeros_like(x0), np.asarray(2), eps, s),
                       np.sqrt(1 - s.alpha_bar[2]) * eps)


def test_q_sample_hand_coefficients():
    s = df.make_schedule(1, 0.19, 0.19)
    x0 = np.full((2, 2, 3), 0.5)
    eps = np.full((2, 2, 3), -0.25)
    # alpha_bar[0] = 0.81, so coefficients are 0.9 and sqrt(0.19)
    expected = 0.9 * x0 + np.sqrt(0.19) * eps
    assert np.allclose(df._q_sample(x0, np.asarray(0), eps, s), expected, atol=1e-15)


def test_q_sample_step_array_matches_single_calls_bitwise():
    s = df.make_schedule(10, 0.05, 0.3)
    rng = np.random.default_rng(3)
    t = np.array([0, 9, 4, 4, 7])
    for dtype in (np.float32, np.float64):
        x0 = rng.uniform(-1, 1, (5, 3, 3, 2)).astype(dtype)
        eps = rng.standard_normal((5, 3, 3, 2)).astype(dtype)
        batched = df._q_sample(x0, t, eps, s)
        single = np.stack([df._q_sample(x0[i], t[i], eps[i], s) for i in range(5)])
        assert batched.dtype == single.dtype
        assert np.array_equal(batched, single)


def test_q_sample_keeps_float32():
    s = df.make_schedule(4, 0.1, 0.2)
    out = df._q_sample(np.ones(3, np.float32), np.asarray(2), np.ones(3, np.float32), s)
    assert out.dtype == np.float32


def test_q_sample_noise_variance_matches_schedule():
    s = df.make_schedule(10, 0.05, 0.3)
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-1, 1, (2, 2, 1))
    for t in (0, 4, 9):
        draws = rng.standard_normal((10_000,) + x0.shape)
        noised = df._q_sample(x0, np.asarray(t), draws, s)
        var = noised.var(axis=0).mean()
        assert var == pytest.approx(1 - s.alpha_bar[t], rel=0.05)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-3, 3), t=st.integers(0, 9), seed=st.integers(0, 100))
def test_q_sample_affine_in_signal(a, t, seed):
    s = df.make_schedule(10, 0.05, 0.3)
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1, 1, (3, 3, 2))
    eps = rng.standard_normal((3, 3, 2))
    zero = np.zeros_like(x0)
    t = np.asarray(t)
    lhs = df._q_sample(a * x0, t, eps, s) - df._q_sample(zero, t, eps, s)
    rhs = a * (df._q_sample(x0, t, eps, s) - df._q_sample(zero, t, eps, s))
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_omega_constant_mode_is_exactly_one():
    s = df.make_schedule(50, 1e-4, 0.02, "constant")
    assert np.array_equal(df.omega_vector(s, np.arange(50)), np.ones(50))


def test_omega_snr_values():
    assert df.omega_vector(df.make_schedule(1, 0.5, 0.5, "snr"), [0])[0] == pytest.approx(1.0)
    s = df.make_schedule(2, 0.1, 0.3, "snr")
    assert df.omega_vector(s, [1])[0] == pytest.approx(0.63 / 0.37, rel=1e-12)
    assert df.omega_vector(s, [1])[0] == pytest.approx(1.7027, abs=1e-4)
    # clipping kicks in at high SNR
    s_low_noise = df.make_schedule(2, 1e-4, 1e-4, "snr")
    assert df.omega_vector(s_low_noise, [0])[0] == 5.0


def test_ddpm_sample_is_deterministic_and_clamped():
    from prefdiff import toyworld as tw
    cfg = net.NetConfig(grid=6, channels=3, hidden=16)
    params = net.init_params(cfg, seed=1)
    # give the net nonzero output so clamping is actually exercised
    rng = np.random.default_rng(0)
    w_out = params.layers[-1][0]
    w_out[...] = rng.normal(0, 0.5, w_out.shape)
    sched = df.make_schedule(8, 0.05, 0.3)
    enc = net.encode_caption(tw.Caption(dimension="shape", objects=(tw.ObjectSlot("square"),)))
    a = df.ddpm_sample_batch(params, enc[None], sched, [7])
    b = df.ddpm_sample_batch(params, enc[None], sched, [7])
    assert np.array_equal(a, b)
    assert a.min() >= -1.0 and a.max() <= 1.0
    c = df.ddpm_sample_batch(params, enc[None], sched, [8])
    assert not np.array_equal(a, c)


def test_ddpm_sample_batch_matches_single_calls():
    from prefdiff import toyworld as tw
    cfg = net.NetConfig(grid=6, channels=3, hidden=16)
    params = net.init_params(cfg, seed=1)
    sched = df.make_schedule(5, 0.05, 0.3)
    caps = [tw.Caption(dimension="shape", objects=(tw.ObjectSlot(s),))
            for s in ("square", "disc")]
    encs = np.stack([net.encode_caption(c) for c in caps])
    batch = df.ddpm_sample_batch(params, encs, sched, seeds=[3, 4])
    singles = [df.ddpm_sample_batch(params, encs[i:i + 1], sched, [s])[0]
               for i, s in enumerate([3, 4])]
    assert np.array_equal(batch[0], singles[0])
    assert np.array_equal(batch[1], singles[1])


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-4), (np.float64, 1e-10)])
def test_ddpm_sample_batch_matches_single_calls_within_tolerance(dtype, tol):
    # a non-zero network: batching changes only the rounding of the matrix
    # products, within the tolerance ddpm_sample_batch documents
    from conftest import randomized_params, with_dtype

    from prefdiff import toyworld as tw
    cfg = net.NetConfig(grid=6, channels=3, hidden=16)
    sched = df.make_schedule(5, 0.05, 0.3)
    caps = [tw.Caption(dimension="shape", objects=(tw.ObjectSlot(s),))
            for s in ("square", "disc", "triangle", "square")]
    encs = np.stack([net.encode_caption(c) for c in caps])
    seeds = [3, 4, 5, 6]
    for seed in range(3):
        params = with_dtype(randomized_params(net.init_params(cfg, seed=seed), seed=10 + seed),
                            dtype)
        batch = df.ddpm_sample_batch(params, encs, sched, seeds)
        singles = np.stack([df.ddpm_sample_batch(params, encs[i:i + 1], sched, [s])[0]
                            for i, s in enumerate(seeds)])
        assert np.max(np.abs(batch - singles)) <= tol


@pytest.mark.parametrize("parameterization", net.PARAMETERIZATIONS)
def test_ddpm_sample_batch_keeps_the_parameters_dtype(parameterization):
    from conftest import randomized_params, with_dtype

    cfg = net.NetConfig(grid=4, channels=3, hidden=8, parameterization=parameterization)
    sched = df.make_schedule(4, 0.05, 0.3)
    encs = np.zeros((2, net.ENCODING_DIM))
    for dtype in (np.float32, np.float64):
        params = with_dtype(randomized_params(net.init_params(cfg, seed=0), seed=1), dtype)
        assert df.ddpm_sample_batch(params, encs, sched, [1, 2]).dtype == dtype


@pytest.mark.usefixtures("no_leaked_threads")
def test_ddpm_sample_batch_refuses_encodings_of_the_wrong_width():
    params = net.init_params(net.NetConfig(grid=4, channels=3, hidden=8), seed=1)
    sched = df.make_schedule(3, 0.05, 0.3)
    with pytest.raises(ValueError, match="encoding batch shape"):
        df.ddpm_sample_batch(params, np.zeros((2, net.ENCODING_DIM - 1)), sched, [0, 1])


@pytest.mark.usefixtures("no_leaked_threads")
def test_ddpm_sample_reports_divergence_step():
    from prefdiff import toyworld as tw
    cfg = net.NetConfig(grid=4, channels=3, hidden=8)
    params = net.init_params(cfg, seed=1)
    params.layers[-1][0][0, 0] = np.nan
    sched = df.make_schedule(6, 0.05, 0.3)
    enc = net.encode_caption(tw.Caption(dimension="shape", objects=(tw.ObjectSlot("square"),)))
    with pytest.raises(df.NumericDivergenceError, match="step t=5"):
        df.ddpm_sample_batch(params, enc[None], sched, [0])


@pytest.mark.usefixtures("no_leaked_threads")
@pytest.mark.parametrize("parameterization", net.PARAMETERIZATIONS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("T", [1, 5])
def test_ddpm_sample_batch_is_bitwise_the_sequential_loop(T, batch, dtype, parameterization,
                                                         monkeypatch):
    # the draws run a step ahead on a worker thread; every row's stream must
    # reach every step exactly as the in-line draws do
    from conftest import randomized_params, sequential_sample, with_dtype

    predict = net.predict_noise_rows

    def slow_predict(*args):
        # give the worker time to run before the network reads its input, so
        # that a buffer reused too early is overwritten before it is read
        time.sleep(0.002)
        return predict(*args)

    monkeypatch.setattr(net, "predict_noise_rows", slow_predict)

    cfg = net.NetConfig(grid=4, channels=3, hidden=16, parameterization=parameterization)
    sched = df.make_schedule(T, 0.05, 0.3)
    params = with_dtype(randomized_params(net.init_params(cfg, seed=3), seed=4, scale=0.1),
                        dtype)
    encs = np.random.default_rng(5).integers(0, 2, (batch, net.ENCODING_DIM)).astype(float)
    seeds = [11 * i + 2 for i in range(batch)]
    out = df.ddpm_sample_batch(params, encs, sched, seeds)
    expected = sequential_sample(params, encs, sched, seeds)
    assert out.dtype == expected.dtype == dtype
    assert out.tobytes() == expected.tobytes()


@pytest.mark.usefixtures("no_leaked_threads")
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ddpm_sample_batch_leaves_its_inputs_and_returned_samples_alone(dtype):
    # the chain works in place on buffers of its own: not on the encodings
    # (here already in the parameters' dtype), the parameters, or a sample
    # array an earlier chain returned
    from conftest import randomized_params, with_dtype

    cfg = net.NetConfig(grid=4, channels=3, hidden=16)
    sched = df.make_schedule(5, 0.05, 0.3)
    params = with_dtype(randomized_params(net.init_params(cfg, seed=3), seed=4, scale=0.1),
                        dtype)
    encs = np.random.default_rng(5).integers(0, 2, (3, net.ENCODING_DIM)).astype(dtype)
    flat_bytes, enc_bytes = params.flat.tobytes(), encs.tobytes()
    first = df.ddpm_sample_batch(params, encs, sched, [1, 2, 3])
    first_bytes = first.tobytes()
    second = df.ddpm_sample_batch(params, encs, sched, [4, 5, 6])
    assert params.flat.tobytes() == flat_bytes
    assert encs.tobytes() == enc_bytes
    assert first.tobytes() == first_bytes
    assert second.tobytes() != first_bytes
