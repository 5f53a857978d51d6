import numpy as np
import pytest
from conftest import one_block_input, pair_loss, randomized_params, stacked, synthetic_pair

from prefdiff import autodiff as ad
from prefdiff import diffusion as df
from prefdiff import losses
from prefdiff import net
from prefdiff import toyworld as tw


def fd_grad(f, x, h=1e-6):
    """Central finite differences of a scalar function of an array."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
    return g


@pytest.mark.parametrize("seed", range(4))
def test_composite_matches_finite_differences(seed):
    # softplus(mean_rows(sum_cols(silu(x @ w)^2 * mask))), differentiated by
    # hand with the kernels' derivatives
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(4, 3))
    x = rng.normal(size=(2, 4))
    mask = rng.uniform(0.5, 1.0, size=(2, 3))

    def value():
        h, _ = ad.silu(x @ w)
        return float(ad.softplus(np.mean((h * h * mask).sum(axis=1))))

    z = x @ w
    h, s = ad.silu(z)
    m = np.mean((h * h * mask).sum(axis=1))
    g_h = ad._sigmoid(m) / x.shape[0] * 2.0 * h * mask
    grad = x.T @ (g_h * ad.silu_grad(z, s))
    fd = fd_grad(value, w)
    assert np.max(np.abs(fd - grad)) < 1e-6 * max(1.0, np.max(np.abs(fd)))


def test_bias_broadcast_gradient():
    # a bias is broadcast over rows, so its gradient sums the rows
    cfg = net.NetConfig(grid=2, channels=1, hidden=5, time_dim=4)
    params = randomized_params(net.init_params(cfg, seed=0), seed=1)
    sched = df.make_schedule(6, 0.05, 0.3)
    rng = np.random.default_rng(2)
    inp = one_block_input(params, rng.normal(size=(6, 2, 2, 1)), rng.integers(0, 6, 6),
                          rng.normal(size=(6, net.ENCODING_DIM)), sched)
    acts = []
    net.forward_rows(params, inp, acts)
    d_out = rng.normal(size=(6, cfg.image_dim))
    grads = net.backward(losses.Loss(value=0.0, margin=0.0, theta=params, acts=acts,
                                     d_out=d_out))
    assert np.allclose(grads.layers[-1][1], d_out.sum(axis=0))
    assert np.allclose(grads.layers[-1][0], acts[-1][0].T @ d_out)


def test_shared_subexpression_accumulates():
    # every row of a batch runs through the same weights: the batch-mean
    # gradient is the mean of the single-item gradients
    cfg = net.NetConfig(grid=3, channels=2, hidden=6, time_dim=4)
    theta = randomized_params(net.init_params(cfg, seed=3), seed=4)
    sched = df.make_schedule(6, 0.05, 0.3)
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-1, 1, (2, 3, 3, 2))
    eps = rng.standard_normal((2, 3, 3, 2))
    caps = [tw.Caption(dimension="color", objects=(tw.ObjectSlot("square", color=c),))
            for c in ("red", "blue")]
    pairs = [synthetic_pair(x, c, x, c) for x, c in zip(x0, caps)]
    t_arr = np.array([1, 4])
    batch = net.backward(losses.batch_loss("sft", theta, theta, stacked(pairs), [eps], t_arr,
                                           None, sched))
    singles = [net.backward(pair_loss("sft", theta, theta, pairs[i], t_arr[i], (eps[i],), None,
                                      sched)) for i in range(2)]
    for li, (gw, gb) in enumerate(batch.layers):
        assert np.allclose(gw, (singles[0].layers[li][0] + singles[1].layers[li][0]) / 2,
                           rtol=1e-12, atol=1e-15)
        assert np.allclose(gb, (singles[0].layers[li][1] + singles[1].layers[li][1]) / 2,
                           rtol=1e-12, atol=1e-15)


def test_slice_rows_routes_gradient():
    # the contrastive core sends +dloss/de to the preferred rows [0, N) and
    # -dloss/de to the dispreferred rows [N, 2N), checked by differencing
    rng = np.random.default_rng(6)
    e_theta = rng.uniform(0.0, 3.0, 6)
    e_ref = rng.uniform(0.0, 3.0, 6)
    coef = np.array([0.5, 1.0, 2.0])
    _, _, slope = losses._contrast_batch(e_theta, e_ref, coef, "test")
    fd = fd_grad(lambda: float(losses._contrast_batch(e_theta, e_ref, coef, "test")[0].sum()),
                 e_theta)
    assert np.max(np.abs(fd - slope)) < 1e-6
    assert np.all(slope[:3] > 0) and np.array_equal(slope[3:], -slope[:3])


def test_softplus_is_stable_and_exact_at_zero():
    big = ad.softplus(np.array([800.0, -800.0, 0.0]))
    assert np.isfinite(big).all()
    assert big[0] == pytest.approx(800.0)
    assert big[1] == 0.0
    assert big[2] == np.log(2.0)



def _kernel_inputs(dtype):
    """Random arguments of both signs and every scale the activation sees,
    with the saturating, infinite and NaN ones among them."""
    rng = np.random.default_rng(40)
    x = rng.standard_normal((7, 33)) * rng.choice([0.1, 1.0, 10.0, 100.0], (7, 33))
    special = [0.0, -0.0, 88.7, -88.7, 1e4, -1e4, 800.0, -800.0, np.inf, -np.inf, np.nan]
    x.flat[:len(special)] = special
    return x.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_silu_kernels_equal_their_plain_expressions_bitwise(dtype):
    # the in-place forms keep the plain expressions' operations and order
    x = _kernel_inputs(dtype)
    x_bytes = x.tobytes()
    with np.errstate(invalid="ignore"):
        plain_s = 0.5 + 0.5 * np.tanh(0.5 * x)
        plain_grad = plain_s * (1.0 + x * (1.0 - plain_s))
        for kernel in (ad.silu, ad._silu):
            out, s = kernel(x)
            assert s.dtype == out.dtype == dtype
            assert s.tobytes() == plain_s.tobytes()
            assert out.tobytes() == (x * plain_s).tobytes()
        s_bytes = s.tobytes()
        grad = ad.silu_grad(x, s)
    assert grad.dtype == dtype and grad.tobytes() == plain_grad.tobytes()
    assert x.tobytes() == x_bytes and s.tobytes() == s_bytes
