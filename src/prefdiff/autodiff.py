"""Stable elementwise kernels shared by the denoiser and its losses.

The network's hidden activation is SiLU, x * sigmoid(x); the preference
losses pass their argument through softplus, log(1 + exp(x)), whose
derivative is the sigmoid. The gradients of the fixed MLP and of each loss
are written out in closed form (``net.backward`` and ``losses``); these are
the kernels and derivatives they share. All keep float32 inputs float32.
"""

import numpy as np
from scipy.special import expit


def _sigmoid(x):
    """Logistic sigmoid, accurate to a few ulps relative. The preference
    losses take their gradient coefficient sigmoid(arg) from it and zero any
    value below ``losses.SATURATED_SIGMOID``, so of the lower tail they need
    only that it falls below that threshold where it should."""
    return expit(x)


def silu(x):
    """SiLU of ``x``, returned with sigmoid(x) for ``silu_grad`` to reuse.

    The sigmoid here is 0.5 + 0.5 * tanh(x / 2): an activation needs only
    absolute accuracy (within an ulp of 0.5), and numpy's vectorised tanh is
    several times faster than ``expit`` on float32.
    """
    s = 0.5 + 0.5 * np.tanh(0.5 * x)
    return x * s, s


def silu_grad(x, s):
    """d silu(x) / dx, given s = sigmoid(x)."""
    return s * (1.0 + x * (1.0 - s))


def softplus(x):
    """log(1 + exp(x)), evaluated stably; its derivative is sigmoid(x)."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
