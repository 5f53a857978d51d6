"""Conditional noise-prediction MLP with a closed-form backward pass.

The network maps (noisy image, sinusoidal time embedding, caption encoding)
to a predicted noise image through an input -> hidden -> hidden -> output
stack. A copy of the initial parameters is the preference losses' frozen
reference: a loss caches activations for its policy alone, and gradients are
the textbook backward pass of this fixed stack through them. ``backward``
takes the loss's cached activations and its gradient with respect to the
stack output. Each layer's weight-gradient product feeds nothing else in
that pass, so ``backward`` can queue it on the training loop's draw worker
while the caller carries the gradient down the stack.

The parameters live in one flat buffer, W0, b0, W1, b1, W2, b2 in C order,
and each layer's (W, b) is a view into it. Only ``_layer_views`` knows that
layout. The gradients share it, and so do the trainer's Adam moments and the
checkpoint's one payload, so a copy, a comparison or a checksum is one
operation on the buffer.

The first layer is factorised. Its weight W0 splits into an image block
W0[:D], a time block W0[D:D+tau] and a caption block W0[D+tau:], so a row's
pre-activation (x_img, temb, enc) . W0 + b0 is the sum of three products.
``_assemble_input`` keeps the distinct noised images once, the N time
embeddings once and one caption block per N rows, with a block -> image map
naming the image each row block reads. A preference loss that scores one
noised image under two captions thus pays for the 768-wide image product, and
for its share of dW0, once per image rather than once per row. The blocks are
views of W0, so the flat layout, and the checkpoint's payload, stay as they are.
"""

import base64
import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import diffusion as df
from . import toyworld as tw
from .datapipe import atomic_write

ACTIVATIONS = ("silu", "identity")
PARAMETERIZATIONS = ("eps", "x0")

CHECKPOINT_FORMAT = "prefdiff-denoiser"
CHECKPOINT_VERSION = 4


class CheckpointError(ValueError):
    """Checkpoint file failed version, dtype, checksum, config or size validation."""


# ---------------------------------------------------------------------------
# caption encoding

_SLOT_BLOCK = len(tw.SHAPES) + len(tw.COLORS) + len(tw.TEXTURES)
_MAX_SLOTS = 2
ENCODING_DIM = _MAX_SLOTS * _SLOT_BLOCK + len(tw.RELATIONS) + len(tw.COUNTS)


def encode_caption(caption):
    """Encode a caption as concatenated one-hot blocks, a float64 vector of
    ENCODING_DIM.

    Per slot: shape block, color block, texture block; then a relation block
    and a count block. Empty (unspecified) blocks stay all-zero, which makes
    the encoding injective over the caption grammar.
    """
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
    return vec


# ---------------------------------------------------------------------------
# parameters

def _check_fields(cfg, least, choices):
    """Raise ValueError naming the first field of ``cfg`` that is not an int or numpy integer
    (a bool is not) of at least its ``least`` bound (None: any), or not one of its ``choices``."""
    for name, bound in least.items():
        tw._check_count(name, getattr(cfg, name), bound)
    for name, allowed in choices.items():
        if getattr(cfg, name) not in allowed:
            raise ValueError(f"{name} must be one of {allowed}, got {getattr(cfg, name)!r}")


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
    # desk scale. The public contract (predict_noise_rows returns the noise
    # prediction) is identical for both.
    parameterization: str = "eps"

    def __post_init__(self):
        _check_fields(self, {"grid": 1, "channels": 1, "hidden": 1, "time_dim": 2},
                      {"activation": ACTIVATIONS, "parameterization": PARAMETERIZATIONS})
        # the time embedding's sin and cos columns come in pairs
        if self.time_dim % 2:
            raise ValueError(f"time_dim must be even, got {self.time_dim}")

    @property
    def image_dim(self):
        return self.grid * self.grid * self.channels

    @property
    def input_dim(self):
        return self.image_dim + self.time_dim + ENCODING_DIM


def _layer_views(cfg, flat):
    """The (W, b) views of each layer into a flat buffer: W0, b0, W1, b1, W2,
    b2 in that order, each W (fan_in, fan_out) in C order. The one place that
    knows the layout."""
    dims = (cfg.input_dim, cfg.hidden, cfg.hidden, cfg.image_dim)
    views, start = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        end = start + fan_in * fan_out
        views.append((flat[start:end].reshape(fan_in, fan_out), flat[end:end + fan_out]))
        start = end + fan_out
    return tuple(views)


@dataclass(frozen=True, eq=False)
class _FlatLayers:
    """One 1-D buffer of a net's parameter count and its per-layer (W, b)
    views, built once; a write through a view shows in ``flat``."""

    cfg: NetConfig
    flat: np.ndarray
    layers: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if np.ndim(self.flat) != 1 or self.flat.size != expected_param_count(self.cfg):
            raise ValueError(f"flat buffer of shape {np.shape(self.flat)} is not the "
                             f"({expected_param_count(self.cfg)},) its config implies")
        object.__setattr__(self, "layers", _layer_views(self.cfg, self.flat))


@dataclass(frozen=True, eq=False)
class DenoiserParams(_FlatLayers):
    """Weights of the denoiser in one flat buffer, with (W, b) views per
    layer in input-major shapes."""


def expected_param_count(cfg):
    """Analytic parameter count for the configured sizes."""
    d_in, h, d_out = cfg.input_dim, cfg.hidden, cfg.image_dim
    return d_in * h + h + h * h + h + h * d_out + d_out


def init_params(cfg=NetConfig(), seed=0, dtype=np.float64):
    """He-uniform hidden layers, zero-initialized final layer.

    The zero final layer makes the initial stack output exactly zero, which
    keeps early training stable.
    """
    rng = np.random.default_rng(np.random.SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF))
    params = DenoiserParams(cfg=cfg, flat=np.zeros(expected_param_count(cfg), dtype=dtype))
    for w, _ in params.layers[:-1]:
        limit = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return params


def clone_frozen(params):
    """A copy of ``params`` with its own buffer, to serve as a frozen
    reference: training updates the policy in place and never this copy."""
    return DenoiserParams(cfg=params.cfg, flat=params.flat.copy())


# ---------------------------------------------------------------------------
# forward

def _time_embedding(t_arr, T, dim):
    """Sinusoidal embedding of the step fraction t / T, (N, dim), for an even
    ``dim``, as every ``NetConfig.time_dim`` is.

    Frequencies are geometrically spaced so the fastest component advances
    about one radian per step and the slowest spans the whole schedule.
    """
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


def _check_blocks(cfg, images, t_arr, encodings, sched, image_of_block):
    """Raise ValueError unless ``_assemble_input`` can build a network input
    for ``cfg`` from its arguments: the steps lie in the schedule, every
    image block is (N, G, G, C), every encoding block is (N, ENCODING_DIM)
    and each row block names one of the image blocks."""
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
    """The factorised input of len(image_of_block) row blocks of N rows, on
    arguments that pass ``_check_blocks``, unchecked.

    ``images`` lists K distinct (N, G, G, C) image blocks, ``t_arr`` holds the
    N step indices that every block shares, ``encodings`` lists one
    (N, ENCODING_DIM) caption block per row block, and ``image_of_block[b]``
    names the image block that row block b reads.
    """
    n = len(t_arr)
    dtype = params.flat.dtype
    return NetInput(
        images=np.concatenate([np.reshape(x, (n, -1)) for x in images], dtype=dtype),
        temb=_time_embedding(t_arr, sched.T, params.cfg.time_dim).astype(dtype),
        encodings=np.concatenate(encodings, dtype=dtype),
        image_of_block=tuple(int(k) for k in image_of_block))


def _first_layer(params, inp, empty=np.empty):
    """z1 = (x_img . W_img)[image of block] + temb . W_t + enc . W_cap + b0,
    the concatenated rows' product with W0 summed over W0's three row blocks."""
    w, b = params.layers[0]
    d, tau = params.cfg.image_dim, params.cfg.time_dim
    n = inp.temb.shape[0]
    z = np.matmul(inp.encodings, w[d + tau:],
                  out=empty((len(inp.encodings), w.shape[1]), np.result_type(inp.encodings, w)))
    per_item = inp.temb @ w[d:d + tau]
    per_item += b
    per_image = inp.images @ w[:d]
    for blk, k in enumerate(inp.image_of_block):
        rows = z[blk * n:(blk + 1) * n]
        rows += per_image[k * n:(k + 1) * n]
        rows += per_item
    return z


def forward_rows(params, inp, acts=None, empty=np.empty):
    """Plain numpy stack output over the rows of a ``NetInput``.

    When ``acts`` is a list, each layer appends what ``backward`` needs:
    (layer input, pre-activation, sigmoid of it or None where no SiLU); the
    first layer's input is the ``NetInput`` itself. Raises ValueError when
    the input's widths are not the network's.

    Buffers: each pre-activation is its layer's product, written into an
    array that ``empty(shape, dtype)`` gives (by default a new one), with the
    bias added in place; the SiLU's results come from ``empty`` too, and the
    input and the parameters are only read. The stack output is the last
    pre-activation itself, so in the eps parameterisation a loss that writes
    over its prediction writes over that cached entry (``losses._errors``),
    which ``backward`` never reads.
    """
    cfg = params.cfg
    widths = (inp.images.shape[1], inp.temb.shape[1], inp.encodings.shape[1])
    if widths != (cfg.image_dim, cfg.time_dim, ENCODING_DIM):
        raise ValueError(f"input widths {widths} != the network's "
                         f"{(cfg.image_dim, cfg.time_dim, ENCODING_DIM)}")
    return _forward_rows(params, inp, acts, ad.silu, empty)


def _forward_rows(params, inp, acts, silu, empty=np.empty):
    """``forward_rows`` unchecked, with ``silu`` as the SiLU kernel."""
    cfg = params.cfg
    h = inp
    last = len(params.layers) - 1
    for i, (w, b) in enumerate(params.layers):
        if i == 0:
            z = _first_layer(params, inp, empty)
        else:
            z = np.matmul(h, w, out=empty((len(h), w.shape[1]), np.result_type(h, w)))
            z += b
        s = None
        if i < last and cfg.activation == "silu":
            out, s = silu(z, empty)
        else:
            out = z
        if acts is not None:
            acts.append((h, z, s))
        h = out
    return h


def _noise_coeffs(t_arr, sched):
    ab = sched.alpha_bar[np.asarray(t_arr)][:, None]
    return np.sqrt(ab), 1.0 / np.sqrt(1.0 - ab)


def predict_noise_rows(params, inp, t_arr, sched, acts=None, empty=np.empty):
    """Per-row noise prediction over a ``NetInput``, honoring the
    parameterization; ``t_arr`` holds each row's step, and ``acts`` and
    ``empty`` are as in ``forward_rows``. An x0 prediction is written into an
    array from ``empty``; an eps prediction is the stack output."""
    return _noise_from_stack(params, inp, forward_rows(params, inp, acts, empty), t_arr, sched,
                             empty)


def _predict_noise_rows(params, inp, t_arr, sched):
    """``predict_noise_rows`` unchecked and without ``acts``: numpy and
    private cores only, so that the draw worker may run it."""
    return _noise_from_stack(params, inp, _forward_rows(params, inp, None, ad._silu),
                             t_arr, sched)


def _noise_from_stack(params, inp, out, t_arr, sched, empty=np.empty):
    """The noise prediction given the stack output ``out``."""
    if params.cfg.parameterization == "eps":
        return out
    # the coefficients take the stack's dtype so a float32 model stays float32
    sqrt_ab, inv_rest = (c.astype(out.dtype) for c in _noise_coeffs(t_arr, sched))
    rest = inp.image_rows() - sqrt_ab * out
    return np.multiply(rest, inv_rest, out=empty(rest.shape, rest.dtype))


def noise_output_slope(cfg, t_arr, sched):
    """d(noise prediction) / d(stack output) per row: 1 for "eps", and
    -sqrt(ab) / sqrt(1 - ab) as an (N, 1) column for "x0"."""
    if cfg.parameterization == "eps":
        return 1.0
    sqrt_ab, inv_rest = _noise_coeffs(t_arr, sched)
    return -sqrt_ab * inv_rest


# ---------------------------------------------------------------------------
# backward

@dataclass(frozen=True, eq=False)
class Gradients(_FlatLayers):
    """(dW, db) per layer, as views into one buffer in the parameters' layout."""

    def global_norm(self):
        # a sum of per-view dot products in layer order: one vdot over the
        # whole buffer would round differently
        return float(np.sqrt(sum(float(np.vdot(g, g)) for pair in self.layers for g in pair)))


def backward(loss, worker=None, out=None):
    """Gradients of a loss from the losses module with respect to its policy,
    ``loss.theta``, the only parameters whose activations the loss cached.

    ``loss`` carries the activations of its policy forward pass (``acts``)
    and dL/d(stack output) per row (``d_out``); the input rows get no
    gradient. Each layer's gradient is written into its view of the one
    buffer: ``out``, a Gradients of the policy's config and dtype whose every
    element the pass overwrites, or by default a new one. It is returned.
    The loss is only read: the SiLU slope is multiplied in place into the
    gradients the pass itself makes, so it can be differentiated again.

    A layer's weight gradient, dW = h^T . g, feeds nothing else in the pass.
    ``worker(fn, *args)``, when given, queues a call on another thread and
    returns its future (``diffusion.prefetched``'s ``submit``): each layer's
    dW product goes to it as soon as that layer's g exists, while the caller
    sums db and carries g . W^T down the stack. Before returning, the caller
    runs itself every product the worker has not started, latest first, and
    waits for the rest (``diffusion._settle``). A product is the same call on
    the same operands on either thread, so the gradients are bit-identical
    to those of ``worker=None``, which runs every product in line.
    """
    params = loss.theta
    if out is None:
        grads = Gradients(cfg=params.cfg, flat=np.empty_like(params.flat))
    elif out.cfg != params.cfg or out.flat.dtype != params.flat.dtype:
        raise ValueError("out must have the policy's config and dtype")
    else:
        grads = out
    queued = []
    g = loss.d_out
    for i in range(len(params.layers) - 1, -1, -1):
        h, z, s = loss.acts[i]
        if s is not None:
            # the last layer has no SiLU, so this g is one the loop made, never d_out
            g *= ad.silu_grad(z, s)
        dw, db = grads.layers[i]
        if i == 0:
            fn, args = _first_layer_grad, (params, h, g, dw)
        else:
            fn, args = np.matmul, (h.T, g, dw)      # dW = h^T . g into its view
        if worker is None:
            fn(*args)
        else:
            queued.append((worker(fn, *args), fn, args))
        g.sum(axis=0, out=db)
        if i > 0:
            g = np.matmul(g, params.layers[i][0].T)
    df._settle(queued)
    return grads


def _first_layer_grad(params, inp, g, dw):
    """dW0 from dL/dz1 ``g`` into ``dw``, one row block of W0 at a time: the
    image block takes x_img^T . (sum of g over the row blocks that read the
    image), the time block temb^T . (sum of g over all row blocks), and the
    caption block enc^T . g."""
    d, tau = params.cfg.image_dim, params.cfg.time_dim
    n = inp.temb.shape[0]
    blocks = g.reshape(len(inp.image_of_block), n, -1)
    g_image = np.zeros((inp.images.shape[0], g.shape[1]), dtype=g.dtype)
    for blk, k in enumerate(inp.image_of_block):
        g_image[k * n:(k + 1) * n] += blocks[blk]
    np.matmul(inp.images.T, g_image, out=dw[:d])
    np.matmul(inp.temb.T, blocks.sum(axis=0), out=dw[d:d + tau])
    np.matmul(inp.encodings.T, g, out=dw[d + tau:])


# ---------------------------------------------------------------------------
# checkpoints

def _checksum(flat):
    return hashlib.sha256(flat.tobytes()).hexdigest()


def save_checkpoint(params, sched, path):
    """Write a versioned, checksummed JSON checkpoint (atomic, bit-exact).

    ``sched`` is the schedule the parameters were trained under; the file
    records it so that sampling can be checked against it. The parameters
    are one payload, the flat buffer's bytes.
    """
    record = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dtype": str(params.flat.dtype),
        "cfg": asdict(params.cfg),
        "schedule": sched.spec(),
        "params": base64.b64encode(params.flat.tobytes()).decode("ascii"),
        "checksum": _checksum(params.flat),
    }
    with atomic_write(path) as fh:
        json.dump(record, fh)


def load_checkpoint(path):
    """Load a checkpoint as (DenoiserParams, DiffusionSchedule it was trained
    under). Raises CheckpointError on a file that is not a JSON object, on
    a missing or unknown field or one of the wrong type, on a dtype other
    than float32 or float64, on a version or checksum failure, on a config
    no net can be built from, or on a payload whose size is not the one its
    config implies."""
    with open(path) as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint is not JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise CheckpointError("checkpoint is not a JSON object")
    try:
        return _from_record(record)
    except CheckpointError:
        raise
    except KeyError as exc:
        raise CheckpointError(f"checkpoint lacks the field {exc}") from exc
    except (TypeError, ValueError) as exc:   # e.g. an unknown cfg field or schedule
        raise CheckpointError(f"checkpoint field refused: {exc}") from exc


def _from_record(record):
    """The (params, schedule) of a parsed checkpoint record."""
    if record.get("format") != CHECKPOINT_FORMAT or record.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint {record.get('format')!r} v{record.get('version')!r}")
    unknown = sorted(set(record) - {"format", "version", "dtype", "cfg", "schedule", "params",
                                    "checksum"})
    if unknown:
        raise CheckpointError(f"checkpoint has unknown keys: {', '.join(unknown)}")
    if record["dtype"] not in ("float32", "float64"):
        raise CheckpointError(f"checkpoint dtype {record['dtype']!r} is not float32 or float64")
    flat = np.frombuffer(base64.b64decode(record["params"]), dtype=record["dtype"]).copy()
    if _checksum(flat) != record["checksum"]:
        raise CheckpointError("checkpoint checksum mismatch")
    params = DenoiserParams(cfg=NetConfig(**record["cfg"]), flat=flat)
    return params, df.make_schedule(**record["schedule"])


def checkpoint_checksum(params):
    return _checksum(params.flat)
