"""Stable elementwise kernels shared by the denoiser and its losses.

The network's hidden activation is SiLU, x * sigmoid(x); the preference
losses pass their argument through softplus, log(1 + exp(x)), whose
derivative is the sigmoid. The gradients of the fixed MLP and of each loss
are written out in closed form (``net.backward`` and ``losses``); these are
the kernels and derivatives they share. All are plain numpy and keep
float32 inputs float32.
"""

import numpy as np


def _sigmoid(x):
    """Logistic sigmoid, 1 / (1 + exp(-x)).

    Where exp(-x) overflows (x below about -88 in float32, -709 in float64)
    the result is an exact 0, which the preference losses' zeroing of
    coefficients below ``losses.SATURATED_SIGMOID`` would give anyway. It
    differs from scipy's ``expit`` by a few ulps at most: in float64, on
    about 2% of arguments and by at most 5.0e-16 relative. The losses
    evaluate it in float64, so float32 training rounds the difference away.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def silu(x, empty=np.empty):
    """SiLU of ``x``, returned with sigmoid(x) for ``silu_grad`` to reuse.

    The sigmoid here is 0.5 + 0.5 * tanh(x / 2): an activation needs only
    absolute accuracy (within an ulp of 0.5), and numpy's vectorised tanh is
    several times faster than ``_sigmoid`` on float32. ``_silu`` is the same
    rule, for code that must call no public prefdiff function (the frozen
    reference's forward pass on the draw worker).

    The sigmoid is built in one buffer, each step of the expression written
    over the last in the same order, so it is bit for bit the plain
    expression's; ``x`` is only read. Both results are written into arrays
    that ``empty(shape, dtype)`` gives, by default new ones.
    """
    return _silu(x, empty)


def _silu(x, empty=np.empty):
    s = np.multiply(0.5, x, out=empty(x.shape, x.dtype))
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return np.multiply(x, s, out=empty(x.shape, x.dtype)), s


def silu_grad(x, s):
    """d silu(x) / dx, given s = sigmoid(x): s * (1 + x * (1 - s)), built in
    one new buffer with the plain expression's operations in its order.
    Neither input is written."""
    g = np.subtract(1.0, s)
    g *= x
    g += 1.0
    g *= s
    return g


def softplus(x):
    """log(1 + exp(x)), evaluated stably; its derivative is sigmoid(x)."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
