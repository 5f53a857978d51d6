import itertools
import zlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import enumerate_captions
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from prefdiff import datapipe as dp
from prefdiff import toyworld as tw


def scene_one_red_square(r0=3, c0=4, h=5, w=5):
    return tw.SceneSpec(objects=(
        tw.SceneObject("square", "red", "solid", tw.BBox(r0, c0, h, w)),))


def test_render_solid_square_exact_cells():
    scene = scene_one_red_square()
    img = tw.render(scene, layout_seed=0, jitter=0.0)
    red = np.array(tw.PALETTE["red"])
    inside = img[3:8, 4:9]
    assert np.all(inside == red)
    mask = np.zeros((16, 16), dtype=bool)
    mask[3:8, 4:9] = True
    assert np.all(img[~mask] == tw.BACKGROUND)


def test_render_deterministic_with_jitter():
    scene = scene_one_red_square()
    a = tw.render(scene, layout_seed=5, jitter=0.05)
    b = tw.render(scene, layout_seed=5, jitter=0.05)
    assert np.array_equal(a, b)
    c = tw.render(scene, layout_seed=6, jitter=0.05)
    assert not np.array_equal(a, c)
    assert np.abs(a - tw.render(scene, 5, 0.0)).max() <= 0.05 + 1e-12


@pytest.mark.parametrize("jitter", [-1.0, -0.01, float("nan"), float("inf")])
def test_render_refuses_a_negative_or_non_finite_jitter(jitter):
    # a negative or NaN jitter used to render without jitter
    with pytest.raises(ValueError, match="jitter must be finite and non-negative"):
        tw.render(scene_one_red_square(), layout_seed=5, jitter=jitter)


def test_render_striped_alternating_rows():
    scene = tw.SceneSpec(objects=(
        tw.SceneObject("square", "green", "striped", tw.BBox(2, 2, 4, 4)),))
    img = tw.render(scene, 0, 0.0)
    green = np.array(tw.PALETTE["green"])
    for i in range(4):
        factor = 1.0 if i % 2 == 0 else tw.DIM_FACTOR
        assert np.allclose(img[2 + i, 2:6], factor * green)


def test_render_rejects_bbox_overflow():
    scene = scene_one_red_square(r0=13, c0=4, h=5, w=5)
    with pytest.raises(ValueError, match="overflow"):
        tw.render(scene, 0, 0.0)


def test_detect_blank_image_is_empty():
    img = np.full((16, 16, 3), tw.BACKGROUND)
    assert tw.detect(img).objects == ()


def test_detect_recovers_left_of_by_centroids():
    scene = tw.SceneSpec(
        objects=(tw.SceneObject("square", "red", "solid", tw.BBox(5, 1, 4, 4)),
                 tw.SceneObject("disc", "blue", "solid", tw.BBox(6, 10, 4, 4))))
    rec = tw.detect(tw.render(scene, 0, 0.0))
    left_of = tw.Caption("spatial", (tw.ObjectSlot("square", "red"),
                                     tw.ObjectSlot("disc", "blue")), relation="left-of")
    assert tw.answer(rec, left_of) == tw.VqaResult(passed=True, answers=(1.0, 1.0, 1.0))
    assert not tw.answer(rec, replace(left_of, relation="right-of")).passed
    assert rec == scene


def test_scene_orders_its_objects_by_column_then_row():
    # a scene is its objects: built in any order, it is the same scene
    objects = (tw.SceneObject("disc", "blue", "solid", tw.BBox(6, 10, 4, 4)),
               tw.SceneObject("square", "red", "solid", tw.BBox(9, 1, 3, 3)),
               tw.SceneObject("triangle", "green", "checker", tw.BBox(1, 1, 4, 4)),
               tw.SceneObject("square", "white", "striped", tw.BBox(0, 6, 3, 3)))
    scenes = [tw.SceneSpec(objects=order) for order in itertools.permutations(objects)]
    assert all(scene == scenes[0] for scene in scenes)
    assert len({hash(scene) for scene in scenes}) == 1
    assert [(o.bbox.col0, o.bbox.row0) for o in scenes[0].objects] == [(1, 1), (1, 9), (6, 0),
                                                                         (10, 6)]
    assert isinstance(tw.SceneSpec(objects=list(objects)).objects, tuple)


def test_detect_ambiguity_error_on_off_palette_color():
    img = np.full((16, 16, 3), tw.BACKGROUND)
    img[4:9, 4:9] = (1.0, 0.0, -1.0)   # exactly between red and yellow
    with pytest.raises(tw.AmbiguousDetectionError):
        tw.detect(img)


# validate_caption-valid captions that sample_caption never draws: a single
# replica, and two slots of one shape, which complete to identical replicas
# always (fully specified) or whenever the filled-in attributes agree
OUT_OF_GRAMMAR = {
    "count-1": tw.Caption("numeracy", (tw.ObjectSlot("disc", color="red"),), count=1),
    "red-disc-pair": tw.Caption("color", (tw.ObjectSlot("disc", color="red"),) * 2),
    "replica-pair": tw.Caption(
        "color", (tw.ObjectSlot("square", color="blue", texture="striped"),) * 2),
    "replica-relation": tw.Caption(
        "spatial", (tw.ObjectSlot("triangle", color="green", texture="solid"),) * 2,
        relation="above"),
}


@pytest.mark.parametrize("dim", tw.DIMENSIONS + tuple(OUT_OF_GRAMMAR))
def test_detect_render_round_trip_per_dimension(dim):
    for i in range(60):
        if dim in OUT_OF_GRAMMAR:
            cap = OUT_OF_GRAMMAR[dim]
        else:
            cap = dp.sample_caption(dim, rng_seed=1000 * zlib.crc32(dim.encode()) % 99991 + i)
        scene = tw.scene_from_caption(cap, layout_seed=7919 + i)
        rec = tw.detect(tw.render(scene, 7919 + i, jitter=0.05))
        assert rec == scene, f"{dim} scene {i} mismatched"


def _reference_detect(image):
    # the exhaustive per-template scan that the template bank replaced; kept
    # as the reference the vectorised detect must reproduce exactly
    image = np.asarray(image)
    deviation = np.abs(image - tw.BACKGROUND).max(axis=2)
    labels, n = ndimage.label(deviation > tw._BG_THRESHOLD)
    objects = []
    for k in range(1, n + 1):
        rows, cols = np.nonzero(labels == k)
        if rows.size < tw._MIN_COMPONENT:
            continue
        bbox = tw.BBox(int(rows.min()), int(cols.min()),
                       int(rows.max() - rows.min() + 1), int(cols.max() - cols.min() + 1))
        patch = image[bbox.row0:bbox.row1, bbox.col0:bbox.col1]
        ncells = bbox.height * bbox.width * tw.CHANNELS
        best = None          # (residual, shape, color, texture)
        best_other_color = np.inf
        for shape in tw.SHAPES:
            for texture in tw.TEXTURES:
                for color in tw.COLORS:
                    tmpl = tw.object_patch(shape, color, texture, bbox.height, bbox.width)
                    resid = float(np.square(patch - tmpl).sum()) / ncells
                    if best is None or resid < best[0]:
                        if best is not None and best[2] != color:
                            best_other_color = min(best_other_color, best[0])
                        best = (resid, shape, color, texture)
                    elif color != best[2]:
                        best_other_color = min(best_other_color, resid)
        if best_other_color - best[0] < tw._MARGIN_TOL:
            raise tw.AmbiguousDetectionError(
                f"palette margin {best_other_color - best[0]:.4f} below {tw._MARGIN_TOL}")
        if best[0] > tw._FIT_TOL:
            continue
        objects.append(tw.SceneObject(best[1], best[2], best[3], bbox))
    return tw.SceneSpec(objects=objects)


def _detect_outcome(detector, image):
    try:
        return detector(image)
    except tw.AmbiguousDetectionError as exc:
        return f"ambiguous: {exc}"


@pytest.mark.parametrize("jitter", [0.0, 0.05, 0.1])
def test_detect_matches_reference_loop_on_rendered_scenes(jitter):
    for dim in tw.DIMENSIONS + tuple(OUT_OF_GRAMMAR):
        for i in range(12):
            cap = OUT_OF_GRAMMAR.get(dim) or dp.sample_caption(dim, rng_seed=500 + i)
            scene = tw.scene_from_caption(cap, layout_seed=i)
            img = tw.render(scene, i, jitter=jitter)
            assert _detect_outcome(tw.detect, img) == _detect_outcome(_reference_detect, img)


def test_detect_matches_reference_loop_on_noise_images():
    rng = np.random.default_rng(2024)
    outcomes = []
    for i in range(120):
        cap = dp.sample_caption(tw.DIMENSIONS[i % 5], rng_seed=i)
        scene = tw.scene_from_caption(cap, layout_seed=i)
        noise = rng.uniform(-1.0, 1.0, (16, 16, 3)) * (i % 4) / 3
        img = tw.render(scene, i, jitter=0.1) + 0.4 * noise if i % 2 else noise
        for image in (img, img.astype(np.float32)):   # sampled images are float32
            got = _detect_outcome(tw.detect, image)
            assert got == _detect_outcome(_reference_detect, image), f"noise image {i}"
            outcomes.append(got)
    # the seeded images exercise both the ambiguity error and found objects
    assert any(isinstance(o, str) for o in outcomes)
    assert any(not isinstance(o, str) and o.objects for o in outcomes)


def test_detect_matches_reference_loop_on_all_foreground_images():
    # sampled images of a weak denoiser often exceed the background threshold
    # in every cell: one 16 x 16 component, template-matched at full size
    rng = np.random.default_rng(77)
    red = np.broadcast_to(np.array(tw.PALETTE["red"]), (16, 16, 3))
    images = [red, 0.9 * red + rng.uniform(-0.05, 0.05, red.shape)]
    for _ in range(6):
        sign = rng.choice([-1.0, 1.0], size=(16, 16, 3))
        images.append(sign * rng.uniform(0.35, 1.0, (16, 16, 3)))
    for image in images:
        image = image.astype(np.float32)
        assert np.all(np.abs(image).max(axis=2) > tw._BG_THRESHOLD)
        assert _detect_outcome(tw.detect, image) == _detect_outcome(_reference_detect, image)
    assert tw.detect(images[0].astype(np.float32)).objects == (
        tw.SceneObject("square", "red", "solid", tw.BBox(0, 0, 16, 16)),)


def _scipy_components(mask):
    # the reference labeller: scipy's default structure is 4-connectivity
    labels, _ = ndimage.label(mask)
    sizes = np.bincount(labels.ravel())
    return [(rows, cols, int(sizes[k]))
            for k, (rows, cols) in enumerate(ndimage.find_objects(labels), start=1)]


@pytest.mark.parametrize("height", range(1, 21))
def test_components_match_scipy_on_random_masks(height):
    rng = np.random.default_rng(height)
    for width in range(1, 21):
        for density in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
            mask = rng.random((height, width)) < density
            assert tw._components(mask) == _scipy_components(mask), (width, density)


def _mask(rows):
    return np.array([[c == "#" for c in row] for row in rows])


STRUCTURED_MASKS = {
    "empty": np.zeros((6, 9), dtype=bool),
    "full": np.ones((6, 9), dtype=bool),
    "single_row": _mask(["##.#...###.#"]),
    "single_column": _mask(["#", "#", ".", "#", ".", ".", "#", "#"]),
    "checkerboard": (np.indices((16, 16)).sum(axis=0) % 2).astype(bool),
    "checkerboard_odd": (np.indices((15, 16)).sum(axis=0) % 2 == 0),
    "u": _mask(["#...#",
                "#...#",
                "#####"]),
    "comb": _mask(["#.#.#.#",     # four arms, joined only on the last row
                   "#.#.#.#",
                   "#.#.#.#",
                   "#######"]),
    "right_arm_first": _mask(["....#",   # the arm that starts first is the
                              "#...#",   # right one, so the bridge merges a
                              "#####"]),  # later root into an earlier one
    "spiral": _mask(["#########",
                     "........#",
                     "#######.#",
                     "#.....#.#",
                     "#.###.#.#",
                     "#.#...#.#",
                     "#.#####.#",
                     "#.......#",
                     "#########"]),
    "diagonal": np.eye(7, dtype=bool),   # touching corners stay apart
}


@pytest.mark.parametrize("name", STRUCTURED_MASKS)
def test_components_match_scipy_on_structured_masks(name):
    mask = STRUCTURED_MASKS[name]
    assert tw._components(mask) == _scipy_components(mask)


def test_components_merge_arms_into_one_bbox():
    assert tw._components(STRUCTURED_MASKS["comb"]) == [(slice(0, 4), slice(0, 7), 19)]
    assert len(tw._components(STRUCTURED_MASKS["checkerboard"])) == 128


def test_template_bank_is_read_only_and_matches_object_patch():
    bank = tw._template_bank(4, 5)
    assert bank is tw._template_bank(4, 5)
    for arr in (bank.patches, bank.masks, bank.colors):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        bank.patches[0, 0, 0, 0] = 0.5
    for k, (shape, color, texture) in enumerate(tw._CANDIDATES):
        assert np.array_equal(bank.patches[k], tw.object_patch(shape, color, texture, 4, 5))
        assert np.array_equal(bank.masks[k], tw.shape_cell_mask(shape, 4, 5))
        assert tw.COLORS[bank.colors[k]] == color


def test_relation_caption_with_tied_slots_passes():
    # both slots match both objects equally; the relation must pick the map
    slot = tw.ObjectSlot("triangle", color="green", texture="solid")
    cap = tw.Caption("spatial", (slot, slot), relation="above")
    for seed in range(100):
        scene = tw.scene_from_caption(cap, layout_seed=seed)
        assert tw.vqa_check(tw.render(scene, seed, jitter=0.05), cap).passed, seed


def test_vqa_matching_caption_passes_with_all_ones():
    cap = tw.Caption(dimension="color",
                     objects=(tw.ObjectSlot("square", color="red"),
                              tw.ObjectSlot("disc", color="blue")))
    scene = tw.scene_from_caption(cap, layout_seed=3)
    res = tw.vqa_check(tw.render(scene, 3, 0.05), cap)
    assert res.passed and res.answers == (1.0, 1.0)


def test_vqa_one_wrong_color_fails_exactly_one_answer():
    cap = tw.Caption(dimension="color",
                     objects=(tw.ObjectSlot("square", color="red"),
                              tw.ObjectSlot("disc", color="blue")))
    scene = tw.scene_from_caption(cap, layout_seed=3)
    img = tw.render(scene, 3, 0.05)
    wrong = tw.Caption(dimension="color",
                       objects=(tw.ObjectSlot("square", color="green"),
                                tw.ObjectSlot("disc", color="blue")))
    res = tw.vqa_check(img, wrong)
    assert not res.passed
    assert sorted(res.answers) == [0.0, 1.0]


def test_vqa_numeracy_count_mismatch_fails_count_question():
    cap = tw.Caption(dimension="numeracy", objects=(tw.ObjectSlot("square"),), count=2)
    scene = tw.scene_from_caption(cap, layout_seed=11)
    img = tw.render(scene, 11, 0.05)
    wrong = tw.Caption(dimension="numeracy", objects=(tw.ObjectSlot("square"),), count=3)
    res = tw.vqa_check(img, wrong)
    assert not res.passed
    assert res.answers == (1.0, 0.0)   # replicas match, count does not


def test_vqa_single_slot_edits_always_fail(subtests=None):
    # changing any single specified slot value must flip the check to fail
    for dim in tw.DIMENSIONS:
        cap = dp.sample_caption(dim, rng_seed=17)
        scene = tw.scene_from_caption(cap, layout_seed=23)
        img = tw.render(scene, 23, 0.05)
        assert tw.vqa_check(img, cap).passed
        for edited in dp.edit_caption(cap, rng_seed=29):
            res = tw.vqa_check(img, edited)
            if edited.dimension == "shape" and len(cap.objects) == 2 and \
               {s.shape for s in edited.objects} == {s.shape for s in cap.objects}:
                continue   # the swap of bare shape captions is order-only
            assert not res.passed, f"{dim}: {edited} passed against {cap}"


def _box_mask(boxes, grid=16):
    weights = np.full((grid, grid), 0.5)
    for b in boxes:
        weights[b.row0:b.row1, b.col0:b.col1] = 1.0
    return weights


def test_edit_masks_hand_count():
    square = tw.SceneObject("square", "red", "solid", tw.BBox(2, 2, 4, 4))
    disc = tw.SceneObject("disc", "blue", "solid", tw.BBox(9, 9, 4, 4))
    scene_w = tw.SceneSpec(objects=(square,))
    scene_l = tw.SceneSpec(objects=(replace(square, color="green"),))
    mask_w, mask_l = tw.edit_masks(scene_w, scene_l, grid=16)
    for mask in (mask_w, mask_l):
        assert mask.shape == (16, 16) and mask.dtype == np.float64
        assert mask.sum() == 16 * 1.0 + 240 * 0.5   # = 136
        assert set(np.unique(mask)) == {0.5, 1.0}
    # identical scenes weight nothing; an object both scenes hold is not edited
    both = tw.SceneSpec(objects=(square, disc))
    assert np.all(tw.edit_masks(both, both)[0] == 0.5)
    assert np.array_equal(tw.edit_masks(both, scene_w)[0], _box_mask([disc.bbox]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_edit_masks_two_level_property(seed):
    cap = dp.sample_caption("color", rng_seed=seed)
    for edited in dp.edit_caption(cap, rng_seed=seed):
        scene_w, scene_l = tw.pair_scenes(cap, edited, layout_seed=seed)
        for scene, other, mask in zip((scene_w, scene_l), (scene_l, scene_w),
                                      tw.edit_masks(scene_w, scene_l)):
            changed = [o.bbox for o in scene.objects if o not in other.objects]
            assert changed   # a colour edit always changes an object
            assert set(np.unique(mask)) == {0.5, 1.0}
            assert np.array_equal(mask, _box_mask(changed))


def test_edit_masks_per_edit_kind():
    # colour edit of one of two objects: only that object's bbox is weighted
    cap = tw.Caption("color", (tw.ObjectSlot("square", color="red"),
                               tw.ObjectSlot("disc", color="blue")))
    cap_l = tw.Caption("color", (tw.ObjectSlot("square", color="red"),
                                 tw.ObjectSlot("disc", color="green")))
    scene_w, scene_l = tw.pair_scenes(cap, cap_l, 5)
    mask_w, mask_l = tw.edit_masks(scene_w, scene_l)
    disc = next(o.bbox for o in scene_w.objects if o.shape == "disc")
    assert np.array_equal(mask_w, _box_mask([disc])) and np.array_equal(mask_l, _box_mask([disc]))

    # spatial flip: the two objects trade bboxes, so both masks weight both
    cap = tw.Caption("spatial", (tw.ObjectSlot("square"), tw.ObjectSlot("disc")),
                     relation="left-of")
    scene_w, scene_l = tw.pair_scenes(cap, replace(cap, relation="right-of"), 5)
    mask_w, mask_l = tw.edit_masks(scene_w, scene_l)
    both = _box_mask([o.bbox for o in scene_w.objects])
    assert np.array_equal(mask_w, both) and np.array_equal(mask_l, both)

    # numeracy 2 -> 3: the winner lacks nothing, the loser gains one replica
    cap = tw.Caption("numeracy", (tw.ObjectSlot("triangle"),), count=2)
    scene_w, scene_l = tw.pair_scenes(cap, replace(cap, count=3), 5)
    mask_w, mask_l = tw.edit_masks(scene_w, scene_l)
    added = [o.bbox for o in scene_l.objects if o not in scene_w.objects]
    assert len(scene_w.objects) == 2 and len(scene_l.objects) == 3 and len(added) == 1
    assert np.array_equal(mask_w, _box_mask([])) and np.array_equal(mask_l, _box_mask(added))


@pytest.mark.parametrize("grid", [8, 16])
def test_pair_scenes_realise_both_captions_on_one_layout(grid):
    # the loser of an attribute or count edit is the scene its own caption
    # completes to; a flipped relation puts the winner's objects in each
    # other's bboxes
    cases = {"attribute": 0, "count": 0, "relation": 0}
    for i, cap in enumerate(enumerate_captions()[::3]):
        seed = 1000 + i
        for edited in dp.edit_caption(cap, rng_seed=i):
            try:
                scene_w, scene_l = tw.pair_scenes(cap, edited, seed, grid)
            except tw.LayoutError:
                continue
            assert scene_w == tw.scene_from_caption(cap, seed, grid)
            if edited.relation != cap.relation:
                a, b = scene_w.objects
                assert scene_l == tw.SceneSpec(
                    objects=(replace(a, bbox=b.bbox), replace(b, bbox=a.bbox)))
                cases["relation"] += 1
            else:
                assert scene_l == tw.scene_from_caption(edited, seed, grid)
                cases["count" if cap.count is not None else "attribute"] += 1
    assert min(cases.values()) > 0, cases


def test_pair_scenes_rejects_captions_of_another_structure():
    one = tw.Caption("color", (tw.ObjectSlot("square", color="red"),))
    two = tw.Caption("color", (tw.ObjectSlot("square", color="red"),
                               tw.ObjectSlot("disc", color="red")))
    counted = tw.Caption("numeracy", (tw.ObjectSlot("square", color="red"),), count=2)
    for other in (two, counted):
        with pytest.raises(ValueError, match="slot structure"):
            tw.pair_scenes(one, other, 3)


# each case holds the fields of a caption whose content reads as another label
@pytest.mark.parametrize("label,caption", [
    ("shape", dict(objects=(tw.ObjectSlot("square", color="red"),))),
    ("texture", dict(objects=(tw.ObjectSlot("disc", color="red", texture="solid"),))),
    ("color", dict(objects=(tw.ObjectSlot("disc", color="red"),), count=2)),
    ("numeracy", dict(objects=(tw.ObjectSlot("disc"),))),
    ("spatial", dict(objects=(tw.ObjectSlot("disc"), tw.ObjectSlot("square")))),
])
def test_validate_caption_rejects_a_label_the_content_contradicts(label, caption):
    with pytest.raises(ValueError, match=f"labelled {label!r} reads as"):
        tw.Caption(dimension=label, **caption)
    content = SimpleNamespace(**{"relation": None, "count": None, **caption})
    tw.Caption(dimension=tw.parse_dimension(content), **caption)


@pytest.mark.parametrize("count", [True, 2.0], ids=["bool", "float"])
def test_validate_caption_refuses_a_count_that_is_not_an_integer(count):
    # True == 1 and 2.0 == 2, so each passed the COUNTS check and built a
    # caption equal to an integer-count one
    with pytest.raises(ValueError, match=f"count must be an integer, got {count!r}"):
        tw.Caption("numeracy", (tw.ObjectSlot("disc"),), count=count)


def test_validate_caption_takes_a_numpy_integer_count():
    cap = tw.Caption("numeracy", (tw.ObjectSlot("disc"),), count=np.int64(2))
    assert cap == tw.Caption("numeracy", (tw.ObjectSlot("disc"),), count=2)


def test_grammar_captions_carry_their_ladder_dimension():
    for cap in enumerate_captions():
        assert tw.parse_dimension(cap) == cap.dimension


class CountingRng:
    """A generator that counts its draws."""

    def __init__(self, seed):
        self.draws = 0
        self._rng = np.random.default_rng(seed)

    def integers(self, *args, **kwargs):
        self.draws += 1
        return self._rng.integers(*args, **kwargs)


@pytest.mark.parametrize("sizes,grid", [
    ([(3, 3), (3, 3)], 4),        # the pair fits along neither axis
    ([(3, 3)] * 6, 8),            # every pair fits, the padded areas do not
])
def test_place_disjoint_fails_before_drawing_when_sizes_cannot_fit(sizes, grid):
    rng = CountingRng(0)
    with pytest.raises(tw.LayoutError, match="cannot fit"):
        tw._place_disjoint(rng, sizes, grid)
    assert rng.draws == 0
    # a layout that fits still samples
    boxes = tw._place_disjoint(rng, sizes[:2], grid + 3)
    assert len(boxes) == 2 and rng.draws > 0


def test_impossible_layouts_keep_dataset_streams():
    # at grid 4 every two-object colour caption is impossible; the discards
    # happen at once, and the pairs that fit are built from the same draws
    pairs, manifest = dp.generate_dataset({"color": 2}, seed=39, grid=4)
    stats = manifest.filter_stats["color"]
    assert (stats["built"], stats["discarded_layout"]) == (2, 12)


def _reference_best_assignment(slots, objs, relation):
    # the explicit one-slot / two-slot search that the permutation maximum
    # replaced; kept as the reference it must reproduce, tie-breaks included
    if not objs:
        return [None] * len(slots)
    if len(slots) == 1:
        scores = [tw._slot_score(slots[0], o) for o in objs]
        return [int(np.argmax(scores))]
    best, best_key = (None, None), None
    for a in range(len(objs)):
        for b in range(len(objs)):
            if a == b:
                continue
            score = tw._slot_score(slots[0], objs[a]) + tw._slot_score(slots[1], objs[b])
            holds = relation is not None and tw._relation_holds(relation, objs[a].bbox,
                                                                objs[b].bbox)
            if best_key is None or (score, holds) > best_key:
                best, best_key = (a, b), (score, holds)
    if best == (None, None):
        scores = [tw._slot_score(slots[0], o) for o in objs]
        return [int(np.argmax(scores)), None]
    return list(best)


def test_best_assignment_matches_reference_search():
    # two-value vocabularies and a 3x3 grid of centres make score ties and
    # relation ties common, so the tie-break order is exercised
    rng = np.random.default_rng(77)

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    shapes, colors, textures = tw.SHAPES[:2], tw.COLORS[:2], tw.TEXTURES[:2]
    for _ in range(3000):
        objs = [tw.SceneObject(pick(shapes), pick(colors), pick(textures),
                               tw.BBox(3 * int(rng.integers(3)), 3 * int(rng.integers(3)), 2, 2))
                for _ in range(int(rng.integers(5)))]
        slots = [tw.ObjectSlot(pick(shapes), pick((None,) + colors), pick((None,) + textures))
                 for _ in range(1 + int(rng.integers(2)))]
        relation = pick((None,) + tw.RELATIONS) if len(slots) == 2 else None
        assert (tw._best_assignment(slots, objs, relation)
                == _reference_best_assignment(slots, objs, relation)), (slots, objs, relation)
