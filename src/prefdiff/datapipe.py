"""Preference-pair construction: grammar sampling, caption editing, paired
rendering, oracle filtering, and dataset serialization.

Every judgment a production pipeline would delegate to learned models
(dimension parsing, captioning, editing, VQA filtering) is replaced by a
deterministic oracle over the synthetic scene grammar, so each stage is
exactly checkable. The stage structure is preserved: captions are sampled per
dimension, edited into minimally-different variants (with swap/replace
augmentation for two-object attribute captions), re-rendered under a shared
layout so only edited regions differ, and cross-checked four ways before a
pair is admitted.
"""

import base64
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

import numpy as np

from . import toyworld as tw

DATASET_FORMAT = "prefdiff-dataset"
DATASET_VERSION = 5
IMAGE_DTYPE = np.dtype("<f8")   # byte order of the stored image payload
MANIFEST_KEYS = ("requested", "realized", "config_hash", "filter_stats", "seed",
                 "records", "checksum")

DEFAULT_JITTER = 0.05

# mix of training pairs per dimension, color-heavy
DEFAULT_MIX = {"color": 0.366, "shape": 0.100, "texture": 0.181,
               "spatial": 0.147, "numeracy": 0.206}

# the vocabulary of each attribute dimension, which names the slot field it sets
_ATTRIBUTE_VOCAB = {"color": tw.COLORS, "shape": tw.SHAPES, "texture": tw.TEXTURES}

SAMPLED_COUNTS = (2, 3, 4)   # single-replica scenes are indistinguishable
                             # from one-object attribute scenes, so the
                             # grammar starts at two


class VqaInconsistencyError(ValueError):
    """A candidate pair failed the four-way VQA cross-check."""


class MalformedRecordError(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DatasetChecksumError(ValueError):
    pass


class DatasetVersionError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class PreferencePair:
    """One dataset row: a winner and a loser image-caption pair and the two
    scenes they were rendered from, which differ only in the edited objects.
    What a loss derives from the scenes, such as the region masks of
    ``losses.pair_masks``, is not stored."""

    x0_w: np.ndarray
    y_w: tw.Caption
    x0_l: np.ndarray
    y_l: tw.Caption
    scene_w: tw.SceneSpec
    scene_l: tw.SceneSpec

    @property
    def dimension(self):
        """The pair's dimension: its winner caption's."""
        return self.y_w.dimension


@dataclass
class DatasetManifest:
    requested: dict
    realized: dict
    config_hash: str
    filter_stats: dict
    seed: int


def _child_seed(*parts):
    # repr(np.int64(7)) is 'np.int64(7)' under numpy 2: hash numpy integers
    # as the Python ints they equal, so the streams do not depend on the type
    parts = tuple(int(p) if isinstance(p, np.integer) else p for p in parts)
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# grammar sampling

def sample_caption(dimension, rng_seed):
    """Uniform draw over the caption grammar conditioned on dimension."""
    if dimension not in tw.DIMENSIONS:
        raise ValueError(f"unsupported dimension {dimension!r}")
    return _draw_caption(dimension, np.random.default_rng(
        np.random.SeedSequence(rng_seed & 0xFFFFFFFFFFFFFFFF)))


def _draw_caption(dimension, rng):
    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    def pick_shapes(n):
        idx = rng.choice(len(tw.SHAPES), size=n, replace=False)
        return [tw.SHAPES[int(i)] for i in idx]

    if dimension in _ATTRIBUTE_VOCAB:
        slots = [tw.ObjectSlot(shape=s) for s in pick_shapes(1 + int(rng.integers(2)))]
        if dimension != "shape":   # the shape is drawn already: it is the slot's class
            slots = [replace(slot, **{dimension: pick(_ATTRIBUTE_VOCAB[dimension])})
                     for slot in slots]
        return tw.Caption(dimension=dimension, objects=tuple(slots))
    if dimension == "spatial":
        shapes = pick_shapes(2)
        with_color = rng.random() < 0.5
        slots = tuple(tw.ObjectSlot(shape=s, color=pick(tw.COLORS) if with_color else None)
                      for s in shapes)
        return tw.Caption(dimension="spatial", objects=slots, relation=pick(tw.RELATIONS))
    # numeracy: one replica slot, optionally carrying one extra attribute
    shape = pick(tw.SHAPES)
    extra = rng.random() < 0.5
    if extra and rng.random() < 0.5:
        slot = tw.ObjectSlot(shape=shape, color=pick(tw.COLORS))
    elif extra:
        slot = tw.ObjectSlot(shape=shape, texture=pick(tw.TEXTURES))
    else:
        slot = tw.ObjectSlot(shape=shape)
    return tw.Caption(dimension="numeracy", objects=(slot,), count=pick(SAMPLED_COUNTS))


# ---------------------------------------------------------------------------
# caption editing

def edit_caption(caption, rng_seed):
    """Edited variants of a caption: a list of captions with the input's
    slot structure, which ``build_pair`` realises on the input's layout.

    Always emits one primary edit: a spatial caption's relation flipped, a
    numeracy caption's count changed, or else one slot's attribute of the
    caption's dimension moved to a different vocabulary value. Two-object
    color/shape/texture captions whose two attribute values differ
    additionally get the swap and both replace augmentations. All emitted
    captions are pairwise distinct and differ from the input.
    """
    rng = np.random.default_rng(np.random.SeedSequence(_child_seed(rng_seed, "edit")))
    dim = caption.dimension

    if dim == "spatial":
        flipped = replace(caption, relation=tw.flip_relation(caption.relation))
        return [flipped]

    if dim == "numeracy":
        options = [c for c in SAMPLED_COUNTS if c != caption.count]
        new_count = options[int(rng.integers(len(options)))]
        return [replace(caption, count=new_count)]

    vocab = _ATTRIBUTE_VOCAB[dim]
    values = [getattr(s, dim) for s in caption.objects]

    slot_idx = int(rng.integers(len(caption.objects)))
    taken = set(values)
    options = [v for v in vocab if v not in taken]
    if not options:   # both values present and vocab exhausted: edit the other way
        options = [v for v in vocab if v != values[slot_idx]]
    new_value = options[int(rng.integers(len(options)))]
    edits = [_set_attr(caption, slot_idx, dim, new_value)]

    if len(caption.objects) == 2 and values[0] != values[1]:
        swap = _set_attr(_set_attr(caption, 0, dim, values[1]), 1, dim, values[0])
        edits.append(swap)
        edits.append(_set_attr(caption, 1, dim, values[0]))
        edits.append(_set_attr(caption, 0, dim, values[1]))
    return edits


def _set_attr(caption, slot_idx, attr, value):
    slots = list(caption.objects)
    slots[slot_idx] = replace(slots[slot_idx], **{attr: value})
    return replace(caption, objects=tuple(slots))


# ---------------------------------------------------------------------------
# pair construction

def cross_check(x_w, y_w, x_l, y_l):
    """The four-way VQA cross-check (w/w, l/l, !w/l, !l/w) of a candidate
    pair; each image is detected once. A pair is admitted iff all four hold."""
    scene_w, scene_l = tw.detect_or_none(x_w), tw.detect_or_none(x_l)
    return (tw.answer(scene_w, y_w).passed, tw.answer(scene_l, y_l).passed,
            not tw.answer(scene_w, y_l).passed, not tw.answer(scene_l, y_w).passed)


def build_pair(caption, edited_caption, layout_seed, jitter=DEFAULT_JITTER,
               grid=tw.DEFAULT_GRID):
    """Render a (winner, loser) pair under one shared layout.

    Both scenes are realised on the winner's layout (``toyworld.pair_scenes``)
    and both images are rendered with the identical layout seed, so regions
    outside the edit differ by at most the shared jitter field; the pair keeps
    the scenes, not masks. Raises VqaInconsistencyError when the four-way
    cross-check fails (the caller counts the discard).
    """
    if edited_caption == caption:
        raise ValueError("edit must differ from the source caption")
    scene_w, scene_l = tw.pair_scenes(caption, edited_caption, layout_seed, grid)
    x_w = tw.render(scene_w, layout_seed, jitter, grid)
    x_l = tw.render(scene_l, layout_seed, jitter, grid)

    checks = cross_check(x_w, caption, x_l, edited_caption)
    if not all(checks):
        raise VqaInconsistencyError(
            f"cross-check (w/w, l/l, !w/l, !l/w) = {checks} for {caption} -> {edited_caption}")

    return PreferencePair(x0_w=x_w, y_w=caption, x0_l=x_l, y_l=edited_caption,
                          scene_w=scene_w, scene_l=scene_l)


def generate_dataset(counts, seed, jitter=DEFAULT_JITTER, grid=tw.DEFAULT_GRID):
    """Build a preference dataset with the requested per-dimension pair counts.

    Each sampled caption contributes every edit it admits (one pair per edit)
    until the dimension's quota is met, and every pair gets a layout seed of
    its own. Discards from failed cross-checks or impossible layouts are
    counted in the manifest. Evaluation prompts are kept out of the training
    captions afterwards, by ``evalbench.sample_prompts(exclude=)``. Raises
    ValueError, before drawing anything, on a negative or non-finite jitter,
    an unknown dimension or a count that is not a non-negative integer.
    """
    tw._check_jitter(jitter)
    for dim, want in counts.items():
        if dim not in tw.DIMENSIONS:
            raise ValueError(f"unsupported dimension {dim!r}")
        tw._check_count(f"counts[{dim!r}]", want)
    counts = {dim: int(want) for dim, want in counts.items()}
    pairs = []
    realized = {}
    stats = {}
    for dim, want in counts.items():
        built = 0
        discarded_vqa = 0
        discarded_layout = 0
        i = 0
        dim_pairs = []
        while built < want:
            cap_seed = _child_seed(seed, dim, i, "caption")
            caption = sample_caption(dim, cap_seed)
            edits = edit_caption(caption, _child_seed(seed, dim, i, "edit"))
            for j, edited_caption in enumerate(edits):
                if built >= want:
                    break
                layout_seed = _child_seed(seed, dim, i, j, "layout")
                try:
                    dim_pairs.append(
                        build_pair(caption, edited_caption, layout_seed, jitter, grid))
                    built += 1
                except VqaInconsistencyError:
                    discarded_vqa += 1
                except tw.LayoutError:
                    discarded_layout += 1
            i += 1
            if i > want * 50 + 100:
                break   # give up; realized < requested in the manifest, which
                        # `prefdiff gen-data` reports as a failure
        pairs.extend(dim_pairs)
        realized[dim] = built
        stats[dim] = {"captions_sampled": i, "built": built,
                      "discarded_vqa": discarded_vqa,
                      "discarded_layout": discarded_layout}
    config = {"counts": dict(counts), "seed": seed, "jitter": jitter, "grid": grid,
              "version": DATASET_VERSION}
    config_hash = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
    manifest = DatasetManifest(requested=dict(counts), realized=realized,
                               config_hash=config_hash, filter_stats=stats, seed=seed)
    return pairs, manifest


def pairs_equal(a, b):
    """Structural equality of two pairs (exact image values)."""
    return (np.array_equal(a.x0_w, b.x0_w) and np.array_equal(a.x0_l, b.x0_l)
            and a.y_w == b.y_w and a.y_l == b.y_l
            and a.scene_w == b.scene_w and a.scene_l == b.scene_l)


def dataset_captions(pairs):
    """Every caption (winner or loser) appearing in a list of pairs."""
    out = set()
    for p in pairs:
        out.add(p.y_w)
        out.add(p.y_l)
    return out


# ---------------------------------------------------------------------------
# filtering

def filter_pairs(pairs):
    """Re-run the four-way cross-check on every pair: one whose labels no
    longer fit its images (its captions swapped, say) is discarded. Returns
    (kept, discarded, stats), ``stats["per_dimension"]`` counting both."""
    kept, discarded = [], []
    stats = {"per_dimension": {}}
    for pair in pairs:
        ok = all(cross_check(pair.x0_w, pair.y_w, pair.x0_l, pair.y_l))
        bucket = stats["per_dimension"].setdefault(
            pair.dimension, {"kept": 0, "discarded": 0})
        if ok:
            kept.append(pair)
            bucket["kept"] += 1
        else:
            discarded.append(pair)
            bucket["discarded"] += 1
    return kept, discarded, stats


# ---------------------------------------------------------------------------
# serialization

@contextmanager
def atomic_write(path):
    """Open ``path.tmp`` for writing text (line ends as written) and move it
    over ``path`` once the block finishes. If the block or the move fails,
    ``path`` is left as it was, ``path.tmp`` is removed and the error re-raised."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def caption_to_dict(c):
    return {"dimension": c.dimension,
            "objects": [{"shape": s.shape, "color": s.color, "texture": s.texture}
                        for s in c.objects],
            "relation": c.relation, "count": c.count}


def caption_from_dict(d):
    """Inverse of ``caption_to_dict``; raises ValueError on an invalid caption
    or an unknown key."""
    if not isinstance(d, dict):
        raise ValueError("a caption is a JSON object")
    unknown = sorted(set(d) - {f.name for f in fields(tw.Caption)})
    if unknown:
        raise ValueError(f"unknown keys: {', '.join(unknown)}")
    return tw.Caption(dimension=d["dimension"],
                      objects=tuple(tw.ObjectSlot(**s) for s in d["objects"]),
                      relation=d["relation"], count=d["count"])


def _scene_dict(s):
    return {"objects": [{"shape": o.shape, "color": o.color, "texture": o.texture,
                         "bbox": [o.bbox.row0, o.bbox.col0, o.bbox.height, o.bbox.width]}
                        for o in s.objects]}


def _scene_from(d, grid):
    scene = tw.SceneSpec(objects=[
        tw.SceneObject(o["shape"], o["color"], o["texture"], tw.BBox(*o["bbox"]))
        for o in d["objects"]])
    tw.validate_scene(scene, grid)
    return scene


def _image_text(x):
    return base64.b64encode(np.ascontiguousarray(x, dtype=IMAGE_DTYPE).tobytes()).decode("ascii")


def _image_from(text, shape):
    raw = base64.b64decode(text, validate=True)
    expected = IMAGE_DTYPE.itemsize * int(np.prod(shape))
    if len(raw) != expected:
        raise ValueError(f"image payload holds {len(raw)} bytes, expected {expected}")
    # astype copies into a native-order, writable array the record does not alias
    return np.frombuffer(raw, dtype=IMAGE_DTYPE).astype(np.float64).reshape(shape)


def _pair_dict(p):
    return {"kind": "pair", "grid": p.x0_w.shape[0],
            "x0_w": _image_text(p.x0_w), "x0_l": _image_text(p.x0_l),
            "y_w": caption_to_dict(p.y_w), "y_l": caption_to_dict(p.y_l),
            "scene_w": _scene_dict(p.scene_w), "scene_l": _scene_dict(p.scene_l)}


def _pair_from(d):
    grid = d["grid"]
    shape = (grid, grid, tw.CHANNELS)
    return PreferencePair(
        x0_w=_image_from(d["x0_w"], shape), y_w=caption_from_dict(d["y_w"]),
        x0_l=_image_from(d["x0_l"], shape), y_l=caption_from_dict(d["y_l"]),
        scene_w=_scene_from(d["scene_w"], grid), scene_l=_scene_from(d["scene_l"], grid))


def write_dataset(pairs, manifest, path):
    """Write ``pairs`` as line-delimited JSON, atomically.

    Line 1 is the manifest: format, version, the manifest fields, the record
    count and the SHA-256 checksum of every following line including its
    newline. Each further line is one pair record holding ``grid``, the two
    images, the two captions and the two scenes.
    Its ``x0_w`` and ``x0_l`` are base64 of the image's float64 bytes in
    little-endian order (``"<f8"``), flattened row-major from shape
    (grid, grid, CHANNELS), so a read returns bit-identical images. A scene
    record (version 5) is just its ``objects``, each with its shape, color,
    texture and ``bbox`` as [row0, col0, height, width]. A record holds
    nothing derived from its scenes: the region-weighted loss derives its
    masks from them when it stacks its batch (``losses.pair_masks``).
    """
    lines = [json.dumps(_pair_dict(p)) for p in pairs]
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    header = {"kind": "manifest", "format": DATASET_FORMAT, "version": DATASET_VERSION,
              "requested": manifest.requested, "realized": manifest.realized,
              "config_hash": manifest.config_hash, "filter_stats": manifest.filter_stats,
              "seed": manifest.seed, "records": len(pairs), "checksum": digest.hexdigest()}
    with atomic_write(path) as fh:
        fh.write(json.dumps(header) + "\n")
        for line in lines:
            fh.write(line + "\n")


def read_dataset(path):
    """Inverse of write_dataset; raises on version, checksum, or record damage."""
    with open(path) as fh:
        raw = fh.read().split("\n")
    if raw and raw[-1] == "":
        raw = raw[:-1]
    if not raw:
        raise MalformedRecordError(1, "empty file")
    try:
        header = json.loads(raw[0])
    except json.JSONDecodeError as exc:
        raise MalformedRecordError(1, f"bad manifest: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != DATASET_FORMAT:
        raise DatasetVersionError(f"not a {DATASET_FORMAT} file")
    if header.get("version") != DATASET_VERSION:
        raise DatasetVersionError(f"unsupported version {header.get('version')!r}")
    for key in MANIFEST_KEYS:
        if key not in header:
            raise MalformedRecordError(1, f"manifest lacks {key!r}")
    digest = hashlib.sha256()
    pairs = []
    for line_no, line in enumerate(raw[1:], start=2):
        try:
            record = json.loads(line)
            kind = record.get("kind") if isinstance(record, dict) else None
            if kind != "pair":
                raise ValueError(f"unexpected record kind {kind!r}")
            pairs.append(_pair_from(record))
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedRecordError(line_no, str(exc)) from exc
        digest.update(line.encode())
        digest.update(b"\n")
    if len(pairs) != header["records"]:
        raise MalformedRecordError(len(raw) + 1,
                                   f"expected {header['records']} records, found {len(pairs)}")
    if digest.hexdigest() != header["checksum"]:
        raise DatasetChecksumError("dataset checksum mismatch")
    manifest = DatasetManifest(requested=header["requested"], realized=header["realized"],
                               config_hash=header["config_hash"],
                               filter_stats=header["filter_stats"], seed=header["seed"])
    return pairs, manifest


def default_mix(total):
    """Per-dimension pair counts following the color-heavy default mix."""
    counts = {dim: int(round(total * frac)) for dim, frac in DEFAULT_MIX.items()}
    drift = total - sum(counts.values())
    counts["color"] += drift
    return counts
