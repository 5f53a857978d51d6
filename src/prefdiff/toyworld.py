"""Synthetic compositional scenes: rendering, oracle detection, oracle VQA.

Scenes live on a G x G cell grid with C=3 channels and values in [-1, 1].
Objects are axis-aligned shapes drawn in disjoint bounding boxes; colors come
from an 8-entry palette of cube corners so that nearest-palette matching stays
unambiguous under small per-cell jitter. Detection is an oracle that inverts
the renderer by template matching, standing in for a real open-vocabulary
detection + segmentation + captioning stack.

Rendering and detection share one template bank: for each bbox size, the
72 ``object_patch`` outputs of every (shape, texture, color) candidate,
stacked once into a read-only array with their shape masks and color
indices. ``render`` copies one candidate out of it; ``detect`` scores a
component against all 72 in one vectorised residual. ``object_patch`` stays
the specification the bank is built from.

The oracle VQA is two steps: ``detect`` recovers a scene from an image once,
and ``answer`` scores any number of captions against that scene. Every scene,
whether completed from a caption, edited or detected, is built by
``canonical_scene``, so the renderer's scenes and the detector's scenes follow
one rule and ``detect(render(scene)) == scene`` compares like with like.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

SHAPES = ("square", "disc", "triangle")
TEXTURES = ("solid", "striped", "checker")
RELATIONS = ("left-of", "right-of", "above", "below")
DIMENSIONS = ("color", "shape", "texture", "spatial", "numeracy")
COUNTS = (1, 2, 3, 4)

# Palette channels sit at +-1 so every pair of colors differs by 2 in at
# least one channel and every color is far from the 0.0 background.
PALETTE = {
    "red": (1.0, -1.0, -1.0),
    "green": (-1.0, 1.0, -1.0),
    "blue": (-1.0, -1.0, 1.0),
    "yellow": (1.0, 1.0, -1.0),
    "magenta": (1.0, -1.0, 1.0),
    "cyan": (-1.0, 1.0, 1.0),
    "white": (1.0, 1.0, 1.0),
    "black": (-1.0, -1.0, -1.0),
}
COLORS = tuple(PALETTE)

BACKGROUND = 0.0
DIM_FACTOR = 0.5          # brightness of the dimmed cells of striped/checker
DEFAULT_GRID = 16
MIN_OBJECT_SIDE = 3       # smallest bbox side a layout draws, at any grid
CHANNELS = 3

_BG_THRESHOLD = 0.3       # max-channel deviation that counts as "object"
_MIN_COMPONENT = 5        # smaller blobs are treated as noise
_MARGIN_TOL = 0.02        # per-cell residual gap required between colors
_FIT_TOL = 0.12           # max per-cell residual for a component to count
                          # as an object at all (noise scores ~0.3)


class AmbiguousDetectionError(ValueError):
    """Nearest-palette (or template) margin fell below tolerance."""


class LayoutError(RuntimeError):
    """No disjoint placement found for the requested objects."""


@dataclass(frozen=True)
class BBox:
    row0: int
    col0: int
    height: int
    width: int

    @property
    def row1(self):
        return self.row0 + self.height

    @property
    def col1(self):
        return self.col0 + self.width

    @property
    def center(self):
        return (self.row0 + self.height / 2.0, self.col0 + self.width / 2.0)

    def overlaps(self, other, margin=0):
        return not (self.row1 + margin <= other.row0 or other.row1 + margin <= self.row0
                    or self.col1 + margin <= other.col0 or other.col1 + margin <= self.col0)


@dataclass(frozen=True)
class SceneObject:
    shape: str
    color: str
    texture: str
    bbox: BBox


@dataclass(frozen=True)
class SceneSpec:
    """Ground-truth scene: objects in canonical (col0, row0) order.

    ``count_tag`` is present exactly for scenes of two or more identical
    replicas; ``relation`` is present exactly for the other two-object scenes
    and states the dominant-axis relation of object 0 to object 1. Build
    scenes with ``canonical_scene``, which applies these rules.
    """

    objects: tuple
    relation: str = None
    count_tag: int = None


@dataclass(frozen=True)
class ObjectSlot:
    """One caption slot: the shape acts as the object class; color and
    texture are optional attributes."""

    shape: str
    color: str = None
    texture: str = None


@dataclass(frozen=True)
class Caption:
    dimension: str
    objects: tuple
    relation: str = None
    count: int = None


# ---------------------------------------------------------------------------
# validation

def parse_dimension(caption):
    """Dimension of a caption from its content, by the priority ladder:
    relations first, then counts, then colors, then textures, else shape.
    ``validate_caption`` holds every caption's label to this ladder."""
    if caption.relation is not None:
        return "spatial"
    if caption.count is not None:
        return "numeracy"
    if any(s.color is not None for s in caption.objects):
        return "color"
    if any(s.texture is not None for s in caption.objects):
        return "texture"
    return "shape"


def validate_caption(caption):
    """Raise ValueError if the caption violates the grammar invariants."""
    if caption.dimension not in DIMENSIONS:
        raise ValueError(f"unknown dimension {caption.dimension!r}")
    if not 1 <= len(caption.objects) <= 2:
        raise ValueError("captions carry one or two object slots")
    for slot in caption.objects:
        if slot.shape not in SHAPES:
            raise ValueError(f"unknown shape {slot.shape!r}")
        if slot.color is not None and slot.color not in COLORS:
            raise ValueError(f"unknown color {slot.color!r}")
        if slot.texture is not None and slot.texture not in TEXTURES:
            raise ValueError(f"unknown texture {slot.texture!r}")
    if caption.relation is not None:
        if caption.relation not in RELATIONS:
            raise ValueError(f"unknown relation {caption.relation!r}")
        if len(caption.objects) != 2:
            raise ValueError("a relation needs two object slots")
    if caption.count is not None:
        if caption.count not in COUNTS:
            raise ValueError(f"count {caption.count!r} outside {COUNTS}")
        if len(caption.objects) != 1:
            raise ValueError("counted captions carry a single replica slot")
    if caption.dimension != parse_dimension(caption):
        raise ValueError(f"a caption labelled {caption.dimension!r} reads as "
                         f"{parse_dimension(caption)!r}")
    if caption.dimension == "color" and any(s.color is None for s in caption.objects):
        raise ValueError("color captions need a color on every slot")
    if caption.dimension == "texture" and any(s.texture is None for s in caption.objects):
        raise ValueError("texture captions need a texture on every slot")


def validate_scene(scene, grid=DEFAULT_GRID):
    """Raise ValueError if the scene violates its invariants."""
    if not scene.objects:
        return
    for obj in scene.objects:
        b = obj.bbox
        if b.row0 < 0 or b.col0 < 0 or b.row1 > grid or b.col1 > grid:
            raise ValueError(f"bbox {b} overflows {grid}x{grid} grid")
        if b.height < 1 or b.width < 1:
            raise ValueError("degenerate bbox")
    for i, a in enumerate(scene.objects):
        for b in scene.objects[i + 1:]:
            if a.bbox.overlaps(b.bbox):
                raise ValueError("object bboxes overlap")
    if scene.count_tag is not None:
        attrs = {(o.shape, o.color, o.texture) for o in scene.objects}
        if len(attrs) != 1 or len(scene.objects) != scene.count_tag:
            raise ValueError("numeracy scene replicas must share attributes")
    if scene.relation is not None:
        if len(scene.objects) != 2:
            raise ValueError("relation requires exactly two objects")
        if scene.relation != _dominant_relation(scene.objects[0].bbox, scene.objects[1].bbox):
            raise ValueError("stored relation inconsistent with bbox centers")


# ---------------------------------------------------------------------------
# rendering

def shape_cell_mask(shape, height, width):
    """Boolean (height, width) occupancy mask of a shape inside its bbox."""
    if shape == "square":
        return np.ones((height, width), dtype=bool)
    if shape == "disc":
        r = (np.arange(height)[:, None] + 0.5 - height / 2.0) / (height / 2.0)
        c = (np.arange(width)[None, :] + 0.5 - width / 2.0) / (width / 2.0)
        # a 3x3 inscribed circle would cover every cell; trim the corners so
        # tiny discs stay distinguishable from squares
        cutoff = 0.85 if height <= 3 and width <= 3 else 1.0
        return r * r + c * c <= cutoff
    if shape == "triangle":
        mask = np.zeros((height, width), dtype=bool)
        for i in range(height):
            span = max(1, round(width * (i + 1) / height))
            start = (width - span) // 2
            mask[i, start:start + span] = True
        return mask
    raise ValueError(f"unknown shape {shape!r}")


def texture_factor(texture, height, width):
    """Per-cell brightness factor of a texture, relative to the bbox origin."""
    if texture == "solid":
        return np.ones((height, width))
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    if texture == "striped":
        return np.where(rows % 2 == 0, 1.0, DIM_FACTOR) * np.ones((1, width))
    if texture == "checker":
        return np.where((rows + cols) % 2 == 0, 1.0, DIM_FACTOR)
    raise ValueError(f"unknown texture {texture!r}")


def object_patch(shape, color, texture, height, width):
    """The exact pixel patch an object produces inside its bbox."""
    mask = shape_cell_mask(shape, height, width)
    factor = texture_factor(texture, height, width)
    rgb = np.array(PALETTE[color])
    patch = np.full((height, width, CHANNELS), BACKGROUND)
    patch[mask] = factor[mask, None] * rgb[None, :]
    return patch


# Candidate order of the bank: shape, then texture, then color. ``detect``
# breaks residual ties by the first candidate in this order.
_CANDIDATES = tuple((shape, color, texture)
                    for shape in SHAPES for texture in TEXTURES for color in COLORS)
_CANDIDATE_INDEX = {cand: k for k, cand in enumerate(_CANDIDATES)}
# (height, width) -> _TemplateBank. Bbox sizes are bounded by the image, so
# this holds at most grid**2 banks: about 33 MB for every size at grid 16.
_BANKS = {}


@dataclass(frozen=True, eq=False)
class _TemplateBank:
    """Every candidate's patch at one bbox size, in ``_CANDIDATES`` order."""

    patches: np.ndarray   # (72, height, width, CHANNELS) float64
    masks: np.ndarray     # (72, height, width) bool shape occupancy
    colors: np.ndarray    # (72,) index into COLORS


def _template_bank(height, width):
    """The read-only template bank for one bbox size, built on first use."""
    bank = _BANKS.get((height, width))
    if bank is None:
        patches = np.stack([object_patch(s, c, t, height, width) for s, c, t in _CANDIDATES])
        masks = np.stack([shape_cell_mask(s, height, width) for s, _, _ in _CANDIDATES])
        colors = np.array([COLORS.index(c) for _, c, _ in _CANDIDATES])
        for arr in (patches, masks, colors):
            arr.flags.writeable = False
        bank = _BANKS[(height, width)] = _TemplateBank(patches, masks, colors)
    return bank


def _candidate_index(shape, color, texture):
    k = _CANDIDATE_INDEX.get((shape, color, texture))
    if k is None:
        raise ValueError(f"unknown object attributes {(shape, color, texture)!r}")
    return k


def render(scene, layout_seed, jitter=0.0, grid=DEFAULT_GRID):
    """Draw a scene onto the grid, then add clipped Gaussian per-cell jitter.

    Deterministic given (scene, layout_seed, jitter); jitter magnitude never
    exceeds ``jitter`` per cell and the result is clamped to [-1, 1].
    """
    validate_scene(scene, grid)
    img = np.full((grid, grid, CHANNELS), BACKGROUND)
    for obj in scene.objects:
        b = obj.bbox
        bank = _template_bank(b.height, b.width)
        k = _candidate_index(obj.shape, obj.color, obj.texture)
        mask = bank.masks[k]
        img[b.row0:b.row1, b.col0:b.col1][mask] = bank.patches[k][mask]
    if jitter > 0.0:
        rng = np.random.default_rng(np.random.SeedSequence(int(layout_seed) & 0xFFFFFFFFFFFFFFFF))
        noise = np.clip(rng.normal(0.0, jitter / 2.0, img.shape), -jitter, jitter)
        img = img + noise
    return np.clip(img, -1.0, 1.0)


# ---------------------------------------------------------------------------
# oracle detection

def _dominant_relation(bbox_a, bbox_b):
    """Relation of a to b along the axis with the larger center offset."""
    (ra, ca), (rb, cb) = bbox_a.center, bbox_b.center
    dr, dc = rb - ra, cb - ca
    if abs(dc) >= abs(dr):
        return "left-of" if dc > 0 else "right-of"
    return "above" if dr > 0 else "below"


def canonical_scene(objects):
    """The SceneSpec of a set of objects: sorted by (col0, row0), with a
    ``count_tag`` for two or more identical replicas and otherwise the
    dominant ``relation`` of a two-object scene."""
    objects = tuple(sorted(objects, key=lambda o: (o.bbox.col0, o.bbox.row0)))
    if len(objects) >= 2 and len({(o.shape, o.color, o.texture) for o in objects}) == 1:
        return SceneSpec(objects=objects, count_tag=len(objects))
    if len(objects) == 2:
        return SceneSpec(objects=objects,
                         relation=_dominant_relation(objects[0].bbox, objects[1].bbox))
    return SceneSpec(objects=objects)


def _components(mask):
    """The 4-connected components of a 2-D boolean mask, each as (rows, cols,
    cells): its bounding box as two slices and its number of cells.

    Components come in the order of their first cell in raster order, which
    is the label order of ``scipy.ndimage.label``. Each row's runs of True
    cells are found with numpy; a union-find merges runs of adjacent rows that
    share a column, and every component's root is its first run.
    """
    height, width = mask.shape
    padded = np.zeros((height, width + 2), dtype=bool)
    padded[:, 1:-1] = mask
    # a start and an end column per run, in turn (cheaper than np.diff's prepend)
    run_rows, bounds = np.nonzero(padded[:, 1:] != padded[:, :-1])
    rows = run_rows[::2].tolist()
    starts = bounds[::2].tolist()
    ends = bounds[1::2].tolist()
    parent = list(range(len(rows)))   # parent[i] <= i, so a root is its set's first run

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first = 0     # first run of the row above that may touch run i or a later one
    for i, (row, start, end) in enumerate(zip(rows, starts, ends)):
        above = row - 1
        while first < i and (rows[first] < above
                             or (rows[first] == above and ends[first] <= start)):
            first += 1
        k, root = first, i
        while k < i and rows[k] == above and starts[k] < end:
            other = find(k)
            if other < root:
                parent[root] = other
                root = other
            elif other > root:
                parent[other] = root
            k += 1
    boxes = {}    # root run -> [row0, row1, col0, col1, cells], in order of roots
    for i, (row, start, end) in enumerate(zip(rows, starts, ends)):
        root = find(i)
        if root == i:
            boxes[i] = [row, row + 1, start, end, end - start]
        else:
            box = boxes[root]
            box[1] = row + 1
            box[2] = min(box[2], start)
            box[3] = max(box[3], end)
            box[4] += end - start
    return [(slice(r0, r1), slice(c0, c1), cells) for r0, r1, c0, c1, cells in boxes.values()]


def detect(image):
    """Recover the generating SceneSpec from a rendered image.

    Connected components of non-background cells give candidate objects; each
    component is classified by its per-cell squared residual against every
    (shape, color, texture) template of the bank at its bbox size; the
    first lowest residual wins. Raises AmbiguousDetectionError when the best
    template of another color explains a component almost as well.
    """
    image = np.asarray(image)
    # channel planes one by one: numpy's max over a length-3 axis is slow
    deviation = functools.reduce(np.maximum, np.abs(image - BACKGROUND).transpose(2, 0, 1))
    objects = []
    for rows, cols, cells in _components(deviation > _BG_THRESHOLD):
        if cells < _MIN_COMPONENT:
            continue
        bbox = BBox(rows.start, cols.start, rows.stop - rows.start, cols.stop - cols.start)
        ncells = bbox.height * bbox.width * CHANNELS
        bank = _template_bank(bbox.height, bbox.width)
        diff = image[rows, cols][None] - bank.patches
        resid = np.square(diff, out=diff).reshape(len(_CANDIDATES), -1).sum(axis=1) / ncells
        k = int(np.argmin(resid))
        best = float(resid[k])
        best_other_color = float(resid[bank.colors != bank.colors[k]].min())
        if best_other_color - best < _MARGIN_TOL:
            raise AmbiguousDetectionError(
                f"palette margin {best_other_color - best:.4f} below {_MARGIN_TOL}")
        if best > _FIT_TOL:
            continue   # nothing renderable explains this blob
        objects.append(SceneObject(*_CANDIDATES[k], bbox))
    return canonical_scene(objects)


def detect_or_none(image):
    """``detect``, with an ambiguous image mapped to None."""
    try:
        return detect(image)
    except AmbiguousDetectionError:
        return None


# ---------------------------------------------------------------------------
# oracle VQA

def _slot_matches(slot, obj):
    return ((slot.shape == obj.shape)
            and (slot.color is None or slot.color == obj.color)
            and (slot.texture is None or slot.texture == obj.texture))


def _slot_score(slot, obj):
    score = int(slot.shape == obj.shape)
    if slot.color is not None:
        score += int(slot.color == obj.color)
    if slot.texture is not None:
        score += int(slot.texture == obj.texture)
    return score


def _relation_holds(relation, bbox_a, bbox_b):
    (ra, ca), (rb, cb) = bbox_a.center, bbox_b.center
    if relation == "left-of":
        return ca < cb
    if relation == "right-of":
        return ca > cb
    if relation == "above":
        return ra < rb
    if relation == "below":
        return ra > rb
    raise ValueError(f"unknown relation {relation!r}")


@dataclass(frozen=True)
class VqaResult:
    passed: bool
    answers: tuple


def vqa_check(image, caption):
    """Detect the image's scene and ``answer`` the caption against it.

    To check several captions against one image, call ``detect_or_none``
    once and ``answer`` each caption.
    """
    return answer(detect_or_none(image), caption)


def answer(scene, caption):
    """Answer one oracle question per caption slot (plus relation/count)
    about a detected scene.

    Answers are exactly 0.0 or 1.0; the check passes iff every answer is at
    least 0.5. A ``None`` scene (a failed detection) scores 0 on every
    question.
    """
    validate_caption(caption)
    n_questions = len(caption.objects)
    n_questions += int(caption.relation is not None) + int(caption.count is not None)
    if scene is None:
        return VqaResult(passed=False, answers=(0.0,) * n_questions)
    objs = scene.objects

    answers = []
    if caption.count is not None:
        slot = caption.objects[0]
        ok = bool(objs) and all(_slot_matches(slot, o) for o in objs)
        answers.append(1.0 if ok else 0.0)
        answers.append(1.0 if len(objs) == caption.count else 0.0)
        return VqaResult(passed=all(a >= 0.5 for a in answers), answers=tuple(answers))

    assignment = _best_assignment(caption.objects, objs, caption.relation)
    for i, slot in enumerate(caption.objects):
        j = assignment[i]
        ok = j is not None and _slot_matches(slot, objs[j])
        answers.append(1.0 if ok else 0.0)
    if caption.relation is not None:
        a, b = assignment[0], assignment[1]
        ok = (a is not None and b is not None and a != b
              and _relation_holds(caption.relation, objs[a].bbox, objs[b].bbox))
        answers.append(1.0 if ok else 0.0)
    return VqaResult(passed=all(a >= 0.5 for a in answers), answers=tuple(answers))


def _best_assignment(slots, objs, relation):
    """Injective slot -> object map maximizing matched attributes.

    Among equally scored maps, one under which ``relation`` (if not None) holds
    wins; remaining ties go to the first in object-index order. Slots left
    over when there are fewer objects than slots map to None.
    """
    def key(perm):
        score = sum(_slot_score(slot, objs[j]) for slot, j in zip(slots, perm))
        holds = (relation is not None and len(perm) == 2
                 and _relation_holds(relation, objs[perm[0]].bbox, objs[perm[1]].bbox))
        return score, holds

    k = min(len(slots), len(objs))
    best = max(itertools.permutations(range(len(objs)), k), key=key)
    return list(best) + [None] * (len(slots) - k)


# ---------------------------------------------------------------------------
# region masks

def edit_masks(scene_w, scene_l, grid=DEFAULT_GRID):
    """The region masks (mask_w, mask_l) of a pair, (grid, grid) weights:
    each is 1.0 on the bboxes of the objects its scene has and the other
    scene lacks, and 0.5 elsewhere."""
    def mask(scene, other):
        weights = np.full((grid, grid), 0.5)
        for o in scene.objects:
            if o not in other.objects:
                weights[o.bbox.row0:o.bbox.row1, o.bbox.col0:o.bbox.col1] = 1.0
        return weights
    return mask(scene_w, scene_l), mask(scene_l, scene_w)


# ---------------------------------------------------------------------------
# scene construction from captions

def _size_range(grid):
    lo = max(MIN_OBJECT_SIDE, round(grid * 0.25))
    hi = max(lo, round(grid / 3))
    return lo, hi


def _place_disjoint(rng, sizes, grid, constraint=None):
    """Rejection-sample disjoint bboxes (1-cell separation); optionally keep
    only placements satisfying ``constraint(bboxes)``.

    Raises LayoutError before drawing anything when the sizes cannot fit: two
    boxes that can be separated along neither axis, or padded areas
    (h + 1) * (w + 1) that sum past (grid + 1)^2.
    """
    padded = sum((h + 1) * (w + 1) for h, w in sizes)
    apart = all(ha + 1 + hb <= grid or wa + 1 + wb <= grid
                for i, (ha, wa) in enumerate(sizes) for hb, wb in sizes[i + 1:])
    if padded > (grid + 1) ** 2 or not apart:
        raise LayoutError(f"{len(sizes)} objects of sizes {sizes} cannot fit "
                          f"on a {grid}x{grid} grid")
    for _ in range(600):
        boxes = []
        ok = True
        for (h, w) in sizes:
            for _ in range(60):
                r0 = int(rng.integers(0, grid - h + 1))
                c0 = int(rng.integers(0, grid - w + 1))
                cand = BBox(r0, c0, h, w)
                if all(not cand.overlaps(b, margin=1) for b in boxes):
                    boxes.append(cand)
                    break
            else:
                ok = False
                break
        if ok and (constraint is None or constraint(boxes)):
            return boxes
    raise LayoutError(f"could not place {len(sizes)} objects on a {grid}x{grid} grid")


def _axis_dominant(relation):
    def constraint(boxes):
        got = _dominant_relation(boxes[0], boxes[1])
        if got != relation:
            return False
        # require a clear dominant axis so the relation is unambiguous
        (ra, ca), (rb, cb) = boxes[0].center, boxes[1].center
        dr, dc = abs(rb - ra), abs(cb - ca)
        return (dc > dr + 0.5) if relation in ("left-of", "right-of") else (dr > dc + 0.5)
    return constraint


def _draw_layout(caption, layout_seed, grid):
    """The seeded part of a caption's scene: each slot's (color, texture),
    with unstated ones drawn, and the bboxes, placed disjointly and
    respecting the caption's relation. A counted caption gets max(COUNTS)
    replica bboxes, so that every count is a prefix of one layout."""
    rng = np.random.default_rng(np.random.SeedSequence(int(layout_seed) & 0xFFFFFFFFFFFFFFFF))
    fills = []
    for slot in caption.objects:
        color = slot.color if slot.color is not None else COLORS[rng.integers(len(COLORS))]
        texture = slot.texture if slot.texture is not None else TEXTURES[rng.integers(len(TEXTURES))]
        fills.append((color, texture))

    lo, hi = _size_range(grid)
    if caption.count is not None:
        return fills, _place_disjoint(rng, [(lo, lo)] * max(COUNTS), grid)
    sizes = [(int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1)))
             for _ in caption.objects]
    constraint = _axis_dominant(caption.relation) if caption.relation is not None else None
    return fills, _place_disjoint(rng, sizes, grid, constraint=constraint)


def _realise(caption, fills, boxes, grid):
    """The canonical scene of a caption on a drawn layout: slot i takes the
    caption's own attributes where it states them and ``fills[i]``
    elsewhere, in bbox i; a counted caption repeats its slot ``count`` times."""
    slots = caption.objects
    if caption.count is not None:
        slots, fills = slots * caption.count, fills * caption.count
    scene = canonical_scene(
        SceneObject(slot.shape,
                    slot.color if slot.color is not None else color,
                    slot.texture if slot.texture is not None else texture, box)
        for slot, (color, texture), box in zip(slots, fills, boxes))
    validate_scene(scene, grid)
    return scene


def scene_from_caption(caption, layout_seed, grid=DEFAULT_GRID):
    """Complete a caption into a concrete scene.

    Unspecified attributes are filled from the seeded generator, bboxes are
    placed disjointly (respecting the caption's relation, if any), and the
    result is canonically ordered.
    """
    validate_caption(caption)
    return _realise(caption, *_draw_layout(caption, layout_seed, grid), grid)


def _slot_structure(caption):
    return len(caption.objects), caption.relation is None, caption.count is None


def pair_scenes(caption_w, caption_l, layout_seed, grid=DEFAULT_GRID):
    """The scenes (scene_w, scene_l) of a caption and its edit, realised on
    the winner caption's layout, drawn once.

    Only the edited objects differ: an attribute edit changes its slots'
    objects in place, a count edit keeps the replicas both counts share, and
    a flipped relation gives the loser the winner's two bboxes in reverse
    order. ``scene_w`` is ``scene_from_caption(caption_w, layout_seed)``.
    """
    validate_caption(caption_w)
    validate_caption(caption_l)
    if _slot_structure(caption_w) != _slot_structure(caption_l):
        raise ValueError("the two captions of a pair must share their slot structure")
    fills, boxes = _draw_layout(caption_w, layout_seed, grid)
    boxes_l = boxes[::-1] if caption_l.relation != caption_w.relation else boxes
    return (_realise(caption_w, fills, boxes, grid),
            _realise(caption_l, fills, boxes_l, grid))


def flip_relation(relation):
    return {"left-of": "right-of", "right-of": "left-of",
            "above": "below", "below": "above"}[relation]
