"""Conditional noise-prediction MLP with a closed-form backward pass.

The network maps (noisy image, sinusoidal time embedding, caption encoding)
to a predicted noise image through an input -> hidden -> hidden -> output
stack. A frozen deep copy of the parameters serves as the reference model for
the preference losses. Gradients are the textbook backward pass of this fixed
stack: a loss hands ``backward`` the activations its policy forward pass
cached and its gradient with respect to the stack output.

The first layer is factorised. Its weight W0 splits into an image block
W0[:D], a time block W0[D:D+tau] and a caption block W0[D+tau:], so a row's
pre-activation (x_img, temb, enc) . W0 + b0 is the sum of three products.
``assemble_input`` keeps the distinct noised images once, the N time
embeddings once and one caption block per N rows, with a block -> image map
naming the image each row block reads. A preference loss that scores one
noised image under two captions thus pays for the 768-wide image product, and
for its share of dW0, once per image rather than once per row. The blocks are
views of W0, so the parameters and the checkpoint keep their layout.
"""

import base64
import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import diffusion as df
from . import toyworld as tw
from .datapipe import atomic_write

ACTIVATIONS = ("silu", "identity")
PARAMETERIZATIONS = ("eps", "x0")

CHECKPOINT_FORMAT = "prefdiff-denoiser"
CHECKPOINT_VERSION = 2


class VocabularyError(ValueError):
    """Caption uses a token outside the fixed vocabulary."""


class CheckpointError(ValueError):
    """Checkpoint file failed version or checksum validation."""


# ---------------------------------------------------------------------------
# caption encoding

_SLOT_BLOCK = len(tw.SHAPES) + len(tw.COLORS) + len(tw.TEXTURES)
_MAX_SLOTS = 2
ENCODING_DIM = _MAX_SLOTS * _SLOT_BLOCK + len(tw.RELATIONS) + len(tw.COUNTS)


@dataclass(frozen=True)
class CaptionEncoding:
    """Fixed-length one-hot concatenation of a caption's slots."""

    vector: np.ndarray


def encode_caption(caption):
    """Encode a caption as concatenated one-hot blocks.

    Per slot: shape block, color block, texture block; then a relation block
    and a count block. Empty (unspecified) blocks stay all-zero, which makes
    the encoding injective over the caption grammar.
    """
    try:
        tw.validate_caption(caption)
    except ValueError as exc:
        raise VocabularyError(str(exc)) from exc
    vec = np.zeros(ENCODING_DIM)
    for i, slot in enumerate(caption.objects):
        base = i * _SLOT_BLOCK
        vec[base + tw.SHAPES.index(slot.shape)] = 1.0
        if slot.color is not None:
            vec[base + len(tw.SHAPES) + tw.COLORS.index(slot.color)] = 1.0
        if slot.texture is not None:
            vec[base + len(tw.SHAPES) + len(tw.COLORS) + tw.TEXTURES.index(slot.texture)] = 1.0
    base = _MAX_SLOTS * _SLOT_BLOCK
    if caption.relation is not None:
        vec[base + tw.RELATIONS.index(caption.relation)] = 1.0
    if caption.count is not None:
        vec[base + len(tw.RELATIONS) + tw.COUNTS.index(caption.count)] = 1.0
    return CaptionEncoding(vector=vec)


# ---------------------------------------------------------------------------
# parameters

@dataclass(frozen=True)
class NetConfig:
    grid: int = 16
    channels: int = 3
    hidden: int = 256
    time_dim: int = 32
    activation: str = "silu"
    # "eps": the stack outputs the noise estimate directly. "x0": the stack
    # outputs a clean-image estimate and the noise estimate is derived as
    # (x_t - sqrt(ab) * out) / sqrt(1 - ab), which spares the hidden layers
    # from having to reproduce the noisy input and trains far better at
    # desk scale. The public contract (forward returns the noise
    # prediction) is identical for both.
    parameterization: str = "eps"

    @property
    def image_dim(self):
        return self.grid * self.grid * self.channels

    @property
    def input_dim(self):
        return self.image_dim + self.time_dim + ENCODING_DIM


@dataclass
class DenoiserParams:
    """Weights of the denoiser: list of (W, b) per layer, input-major shapes."""

    cfg: NetConfig
    layers: list
    trainable: bool = True

    def param_count(self):
        return sum(w.size + b.size for w, b in self.layers)


def expected_param_count(cfg):
    """Analytic parameter count for the configured sizes."""
    d_in, h, d_out = cfg.input_dim, cfg.hidden, cfg.image_dim
    return d_in * h + h + h * h + h + h * d_out + d_out


def check_time_dim(time_dim):
    """``time_embedding`` emits its sin and cos columns in pairs, so a
    ``time_dim`` that is odd or below 2 cannot match the first layer."""
    if time_dim < 2 or time_dim % 2:
        raise ValueError(f"time_dim must be even and at least 2, got {time_dim}")


def init_params(cfg=NetConfig(), seed=0, dtype=np.float64):
    """He-uniform hidden layers, zero-initialized final layer.

    The zero final layer makes the initial stack output exactly zero, which
    keeps early training stable.
    """
    if cfg.activation not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {ACTIVATIONS}")
    if cfg.parameterization not in PARAMETERIZATIONS:
        raise ValueError(f"parameterization must be one of {PARAMETERIZATIONS}")
    check_time_dim(cfg.time_dim)
    rng = np.random.default_rng(np.random.SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF))
    dims = [cfg.input_dim, cfg.hidden, cfg.hidden, cfg.image_dim]
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        if i == len(dims) - 2:
            w = np.zeros((fan_in, fan_out), dtype=dtype)
        else:
            limit = np.sqrt(6.0 / fan_in)
            w = rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)
        layers.append((w, np.zeros(fan_out, dtype=dtype)))
    return DenoiserParams(cfg=cfg, layers=layers, trainable=True)


def clone_frozen(params):
    """Deep copy flagged non-trainable; training never mutates it."""
    layers = [(w.copy(), b.copy()) for w, b in params.layers]
    return DenoiserParams(cfg=params.cfg, layers=layers, trainable=False)


def params_equal(a, b):
    return (a.cfg == b.cfg and len(a.layers) == len(b.layers)
            and all(np.array_equal(wa, wb) and np.array_equal(ba, bb)
                    for (wa, ba), (wb, bb) in zip(a.layers, b.layers)))


# ---------------------------------------------------------------------------
# forward

def time_embedding(t_arr, T, dim):
    """Sinusoidal embedding of the step fraction t / T, (N, dim).

    Frequencies are geometrically spaced so the fastest component advances
    about one radian per step and the slowest spans the whole schedule.
    """
    check_time_dim(dim)
    return _time_embedding(t_arr, T, dim)


def _time_embedding(t_arr, T, dim):
    half = dim // 2
    u = np.asarray(t_arr, dtype=np.float64)[:, None] / T
    freqs = (T * (10000.0 ** (-np.arange(half) / max(half - 1, 1))))[None, :]
    ang = u * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


@dataclass(frozen=True)
class NetInput:
    """The network input of B blocks of N rows each, in factorised form.

    Row i of block b is (image i of ``image_of_block[b]``, time embedding i,
    row i of encoding block b). Each distinct image is stored, and goes
    through the first layer, once however many blocks read it; so is each
    time embedding. All arrays take the parameters' dtype.
    """

    images: np.ndarray          # (K * N, image_dim): K flattened image blocks
    temb: np.ndarray            # (N, time_dim)
    encodings: np.ndarray       # (B * N, ENCODING_DIM): one block per N rows
    image_of_block: tuple       # (B,) image block index of each row block

    def image_rows(self):
        """The flattened image of every row, (B * N, image_dim)."""
        n = self.temb.shape[0]
        return np.concatenate([self.images[k * n:(k + 1) * n] for k in self.image_of_block])


def assemble_input(params, images, t_arr, encodings, sched, image_of_block):
    """The factorised input of len(image_of_block) row blocks of N rows.

    ``images`` lists K distinct (N, G, G, C) image blocks, ``t_arr`` holds the
    N step indices that every block shares, ``encodings`` lists one
    (N, ENCODING_DIM) caption block per row block, and ``image_of_block[b]``
    names the image block that row block b reads.
    """
    _check_blocks(params.cfg, images, t_arr, encodings, sched, image_of_block)
    return _assemble_input(params, images, t_arr, encodings, sched, image_of_block)


def _check_blocks(cfg, images, t_arr, encodings, sched, image_of_block):
    """The checks of ``assemble_input`` on its arguments."""
    df.check_steps(sched, t_arr)
    n = len(t_arr)
    image_of_block = tuple(int(k) for k in image_of_block)
    if len(encodings) != len(image_of_block):
        raise ValueError(f"{len(encodings)} encoding blocks for {len(image_of_block)} row blocks")
    if not all(0 <= k < len(images) for k in image_of_block):
        raise ValueError(f"block -> image map {image_of_block} outside {len(images)} images")
    expected = (n, cfg.grid, cfg.grid, cfg.channels)
    for x in images:
        if np.shape(x) != expected:
            raise ValueError(f"image batch shape {np.shape(x)} != {expected}")
    for e in encodings:
        if np.shape(e) != (n, ENCODING_DIM):
            raise ValueError(f"encoding batch shape {np.shape(e)} != {(n, ENCODING_DIM)}")


def _assemble_input(params, images, t_arr, encodings, sched, image_of_block):
    """``assemble_input`` on arguments that pass ``_check_blocks``, unchecked."""
    n = len(t_arr)
    dtype = params.layers[0][0].dtype
    return NetInput(
        images=np.concatenate([np.reshape(x, (n, -1)) for x in images], dtype=dtype),
        temb=_time_embedding(t_arr, sched.T, params.cfg.time_dim).astype(dtype),
        encodings=np.concatenate(encodings, dtype=dtype),
        image_of_block=tuple(int(k) for k in image_of_block))


def _first_layer(params, inp):
    """z1 = (x_img . W_img)[image of block] + temb . W_t + enc . W_cap + b0,
    the concatenated rows' product with W0 summed over W0's three row blocks."""
    w, b = params.layers[0]
    d, tau = params.cfg.image_dim, params.cfg.time_dim
    n = inp.temb.shape[0]
    z = inp.encodings @ w[d + tau:]
    per_item = inp.temb @ w[d:d + tau]
    per_item += b
    per_image = inp.images @ w[:d]
    for blk, k in enumerate(inp.image_of_block):
        rows = z[blk * n:(blk + 1) * n]
        rows += per_image[k * n:(k + 1) * n]
        rows += per_item
    return z


def forward_rows(params, inp, acts=None):
    """Plain numpy stack output over the rows of a ``NetInput``.

    When ``acts`` is a list, each layer appends what ``backward`` needs:
    (layer input, pre-activation, sigmoid of it or None where no SiLU); the
    first layer's input is the ``NetInput`` itself. Raises ValueError when
    the input's widths are not the network's.
    """
    cfg = params.cfg
    widths = (inp.images.shape[1], inp.temb.shape[1], inp.encodings.shape[1])
    if widths != (cfg.image_dim, cfg.time_dim, ENCODING_DIM):
        raise ValueError(f"input widths {widths} != the network's "
                         f"{(cfg.image_dim, cfg.time_dim, ENCODING_DIM)}")
    return _forward_rows(params, inp, acts, ad.silu)


def _forward_rows(params, inp, acts, silu):
    """``forward_rows`` unchecked, with ``silu`` as the SiLU kernel."""
    cfg = params.cfg
    h = inp
    last = len(params.layers) - 1
    for i, (w, b) in enumerate(params.layers):
        z = _first_layer(params, inp) if i == 0 else h @ w + b
        s = None
        if i < last and cfg.activation == "silu":
            out, s = silu(z)
        else:
            out = z
        if acts is not None:
            acts.append((h, z, s))
        h = out
    return h


def _noise_coeffs(t_arr, sched):
    ab = sched.alpha_bar[np.asarray(t_arr)][:, None]
    return np.sqrt(ab), 1.0 / np.sqrt(1.0 - ab)


def predict_noise_rows(params, inp, t_arr, sched, acts=None):
    """Per-row noise prediction over a ``NetInput``, honoring the
    parameterization; ``t_arr`` holds each row's step and ``acts`` is as in
    ``forward_rows``."""
    return _noise_from_stack(params, inp, forward_rows(params, inp, acts), t_arr, sched)


def _predict_noise_rows(params, inp, t_arr, sched):
    """``predict_noise_rows`` unchecked and without ``acts``: numpy and
    private cores only, so that the draw worker may run it."""
    return _noise_from_stack(params, inp, _forward_rows(params, inp, None, ad._silu),
                             t_arr, sched)


def _noise_from_stack(params, inp, out, t_arr, sched):
    """The noise prediction given the stack output ``out``."""
    if params.cfg.parameterization == "eps":
        return out
    # the coefficients take the stack's dtype so a float32 model stays float32
    sqrt_ab, inv_rest = (c.astype(out.dtype) for c in _noise_coeffs(t_arr, sched))
    return (inp.image_rows() - sqrt_ab * out) * inv_rest


def noise_output_slope(cfg, t_arr, sched):
    """d(noise prediction) / d(stack output) per row: 1 for "eps", and
    -sqrt(ab) / sqrt(1 - ab) as an (N, 1) column for "x0"."""
    if cfg.parameterization == "eps":
        return 1.0
    sqrt_ab, inv_rest = _noise_coeffs(t_arr, sched)
    return -sqrt_ab * inv_rest


def forward_batch(params, x_t, t_arr, encodings, sched):
    """Predicted noise for a batch; returns (N, G, G, C)."""
    inp = assemble_input(params, [x_t], t_arr, [encodings], sched, (0,))
    out = predict_noise_rows(params, inp, t_arr, sched)
    if not np.all(np.isfinite(out)):
        raise df.NumericDivergenceError("non-finite network output")
    cfg = params.cfg
    return out.reshape(-1, cfg.grid, cfg.grid, cfg.channels)


def forward(params, x_t, t, c, sched):
    """Predicted noise for one image; ``c`` is a CaptionEncoding."""
    out = forward_batch(params, np.asarray(x_t)[None], np.array([t]),
                        np.asarray(c.vector)[None], sched)
    return out[0]


# ---------------------------------------------------------------------------
# backward

@dataclass
class Gradients:
    """Per-layer (dW, db) arrays aligned with DenoiserParams.layers."""

    layers: list

    def global_norm(self):
        return float(np.sqrt(sum(float(np.vdot(g, g)) for pair in self.layers for g in pair)))


def backward(params, loss):
    """Gradients of a loss from the losses module with respect to ``params``.

    ``loss`` carries the activations of its policy forward pass (``acts``)
    and dL/d(stack output) per row (``d_out``); the input rows get no
    gradient. Frozen parameter sets never receive gradient, so asking for
    their gradients returns zeros.
    """
    if not params.trainable:
        return Gradients(layers=[(np.zeros_like(w), np.zeros_like(b))
                                 for w, b in params.layers])
    if loss.theta is not params:
        raise ValueError("loss was not computed from these parameters")
    g = loss.d_out
    grads = []
    for i in range(len(params.layers) - 1, -1, -1):
        h, z, s = loss.acts[i]
        if s is not None:
            g = g * ad.silu_grad(z, s)
        grads.append((_first_layer_grad(params, h, g) if i == 0 else h.T @ g, g.sum(axis=0)))
        if i > 0:
            g = g @ params.layers[i][0].T
    return Gradients(layers=grads[::-1])


def _first_layer_grad(params, inp, g):
    """dW0 from dL/dz1 ``g``, one row block of W0 at a time: the image block
    takes x_img^T . (sum of g over the row blocks that read the image), the
    time block temb^T . (sum of g over all row blocks), and the caption block
    enc^T . g."""
    d, tau = params.cfg.image_dim, params.cfg.time_dim
    n = inp.temb.shape[0]
    blocks = g.reshape(len(inp.image_of_block), n, -1)
    g_image = np.zeros((inp.images.shape[0], g.shape[1]), dtype=g.dtype)
    for blk, k in enumerate(inp.image_of_block):
        g_image[k * n:(k + 1) * n] += blocks[blk]
    dw = np.empty(params.layers[0][0].shape, dtype=g.dtype)
    np.matmul(inp.images.T, g_image, out=dw[:d])
    np.matmul(inp.temb.T, blocks.sum(axis=0), out=dw[d:d + tau])
    np.matmul(inp.encodings.T, g, out=dw[d + tau:])
    return dw


# ---------------------------------------------------------------------------
# checkpoints

def _checksum(layers):
    digest = hashlib.sha256()
    for w, b in layers:
        digest.update(np.ascontiguousarray(w).tobytes())
        digest.update(np.ascontiguousarray(b).tobytes())
    return digest.hexdigest()


def save_checkpoint(params, sched, path):
    """Write a versioned, checksummed JSON checkpoint (atomic, bit-exact).

    ``sched`` is the schedule the parameters were trained under; the file
    records it so that sampling can be checked against it.
    """
    record = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dtype": str(params.layers[0][0].dtype),
        "trainable": params.trainable,
        "cfg": asdict(params.cfg),
        "schedule": sched.spec(),
        "layers": [
            {"w_shape": list(w.shape), "b_shape": list(b.shape),
             "w": base64.b64encode(np.ascontiguousarray(w).tobytes()).decode("ascii"),
             "b": base64.b64encode(np.ascontiguousarray(b).tobytes()).decode("ascii")}
            for w, b in params.layers
        ],
        "checksum": _checksum(params.layers),
    }
    with atomic_write(path) as fh:
        json.dump(record, fh)


def load_checkpoint(path):
    """Load a checkpoint as (DenoiserParams, DiffusionSchedule it was trained
    under); raises CheckpointError on version or checksum failure."""
    with open(path) as fh:
        record = json.load(fh)
    if record.get("format") != CHECKPOINT_FORMAT or record.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint {record.get('format')!r} v{record.get('version')!r}")
    dtype = np.dtype(record["dtype"])
    layers = []
    for entry in record["layers"]:
        w = np.frombuffer(base64.b64decode(entry["w"]), dtype=dtype).reshape(entry["w_shape"])
        b = np.frombuffer(base64.b64decode(entry["b"]), dtype=dtype).reshape(entry["b_shape"])
        layers.append((w.copy(), b.copy()))
    if _checksum(layers) != record["checksum"]:
        raise CheckpointError("checkpoint checksum mismatch")
    cfg = NetConfig(**record["cfg"])
    check_time_dim(cfg.time_dim)
    params = DenoiserParams(cfg=cfg, layers=layers, trainable=record["trainable"])
    return params, df.make_schedule(**record["schedule"])


def checkpoint_checksum(params):
    return _checksum(params.layers)

