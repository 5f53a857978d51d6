import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from prefdiff import datapipe as dp
from prefdiff import toyworld as tw


def test_sample_caption_color_frequencies_uniform():
    counts = {c: 0 for c in tw.COLORS}
    n = 10_000
    for i in range(n):
        cap = dp.sample_caption("color", rng_seed=i)
        counts[cap.objects[0].color] += 1
    expected = n / len(tw.COLORS)
    sigma = np.sqrt(n * (1 / 8) * (7 / 8))
    for color, got in counts.items():
        assert abs(got - expected) <= 3 * sigma, f"{color}: {got}"


def test_sample_caption_spatial_structure():
    for i in range(50):
        cap = dp.sample_caption("spatial", rng_seed=i)
        assert len(cap.objects) == 2
        assert cap.relation in tw.RELATIONS


def test_sample_caption_deterministic_and_excludable():
    a = dp.sample_caption("texture", rng_seed=5)
    b = dp.sample_caption("texture", rng_seed=5)
    assert a == b
    with pytest.raises(ValueError, match="unsupported"):
        dp.sample_caption("aesthetics", rng_seed=0)


def test_parse_dimension_priority_ladder():
    spatial_with_colors = tw.Caption(
        dimension="spatial", relation="above",
        objects=(tw.ObjectSlot("square", color="red"),
                 tw.ObjectSlot("disc", color="blue")))
    assert tw.parse_dimension(spatial_with_colors) == "spatial"

    numeracy_with_texture = tw.Caption(
        dimension="numeracy", count=3,
        objects=(tw.ObjectSlot("square", texture="checker"),))
    assert tw.parse_dimension(numeracy_with_texture) == "numeracy"

    color_only = tw.Caption(dimension="color",
                            objects=(tw.ObjectSlot("square", color="red"),))
    assert tw.parse_dimension(color_only) == "color"


def test_edit_caption_two_object_color_augmentations():
    cap = tw.Caption(dimension="color",
                     objects=(tw.ObjectSlot("square", color="red"),
                              tw.ObjectSlot("disc", color="blue")))
    captions = dp.edit_caption(cap, rng_seed=0)
    assert len(captions) == 4
    assert len(set(captions)) == 4
    assert all(c != cap for c in captions)
    swap = tw.Caption(dimension="color",
                      objects=(tw.ObjectSlot("square", color="blue"),
                               tw.ObjectSlot("disc", color="red")))
    rep_fwd = tw.Caption(dimension="color",
                         objects=(tw.ObjectSlot("square", color="red"),
                                  tw.ObjectSlot("disc", color="red")))
    rep_back = tw.Caption(dimension="color",
                          objects=(tw.ObjectSlot("square", color="blue"),
                                   tw.ObjectSlot("disc", color="blue")))
    assert swap in captions and rep_fwd in captions and rep_back in captions


def test_edit_caption_single_object_has_one_edit():
    cap = tw.Caption(dimension="color", objects=(tw.ObjectSlot("square", color="red"),))
    edits = dp.edit_caption(cap, rng_seed=1)
    assert len(edits) == 1
    assert edits[0].objects[0].color != "red"


def test_edit_caption_equal_attributes_skips_augmentation():
    cap = tw.Caption(dimension="color",
                     objects=(tw.ObjectSlot("square", color="red"),
                              tw.ObjectSlot("disc", color="red")))
    assert len(dp.edit_caption(cap, rng_seed=2)) == 1


def test_edit_caption_spatial_flips_relation():
    cap = tw.Caption(dimension="spatial", relation="left-of",
                     objects=(tw.ObjectSlot("square"), tw.ObjectSlot("disc")))
    edits = dp.edit_caption(cap, rng_seed=3)
    assert len(edits) == 1
    assert edits[0].relation == "right-of"
    above = tw.Caption(dimension="spatial", relation="above",
                       objects=(tw.ObjectSlot("square"), tw.ObjectSlot("disc")))
    assert dp.edit_caption(above, rng_seed=4)[0].relation == "below"


def test_edit_caption_numeracy_changes_count():
    cap = tw.Caption(dimension="numeracy", count=3, objects=(tw.ObjectSlot("disc"),))
    assert dp.edit_caption(cap, rng_seed=5)[0].count in (2, 4)


def test_build_pair_color_background_unchanged():
    cap = tw.Caption(dimension="color",
                     objects=(tw.ObjectSlot("square", color="red"),
                              tw.ObjectSlot("disc", color="blue")))
    edits = dp.edit_caption(cap, rng_seed=6)
    jitter = 0.05
    pair = dp.build_pair(cap, edits[0], layout_seed=11, jitter=jitter)
    outside = np.ones((16, 16), dtype=bool)
    for scene in (pair.scene_w, pair.scene_l):
        for o in scene.objects:
            outside[o.bbox.row0:o.bbox.row1, o.bbox.col0:o.bbox.col1] = False
    diff = np.abs(pair.x0_w - pair.x0_l)[outside]
    assert diff.max() <= 2 * jitter


def test_build_pair_spatial_exchanges_bboxes():
    cap = tw.Caption(dimension="spatial", relation="left-of",
                     objects=(tw.ObjectSlot("square"), tw.ObjectSlot("disc")))
    edits = dp.edit_caption(cap, rng_seed=7)
    pair = dp.build_pair(cap, edits[0], layout_seed=13)
    boxes_w = {o.bbox for o in pair.scene_w.objects}
    boxes_l = {o.bbox for o in pair.scene_l.objects}
    assert boxes_w == boxes_l
    # attributes moved across the boxes: same shapes, swapped positions
    by_box_w = {o.bbox: o.shape for o in pair.scene_w.objects}
    by_box_l = {o.bbox: o.shape for o in pair.scene_l.objects}
    assert by_box_w != by_box_l
    assert sorted(by_box_w.values()) == sorted(by_box_l.values())


def test_build_pair_numeracy_component_counts():
    cap = tw.Caption(dimension="numeracy", count=2, objects=(tw.ObjectSlot("square"),))
    edit = tw.Caption(dimension="numeracy", count=3, objects=(tw.ObjectSlot("square"),))
    pair = dp.build_pair(cap, edit, layout_seed=17)
    # independent component-count oracle: threshold and label
    for img, expected in ((pair.x0_w, 2), (pair.x0_l, 3)):
        blobs = np.abs(img).max(axis=2) > 0.3
        _, n = ndimage.label(blobs)
        assert n == expected


def test_build_pair_four_way_cross_check_enforced():
    cap = tw.Caption(dimension="shape",
                     objects=(tw.ObjectSlot("square"), tw.ObjectSlot("disc")))
    swap = tw.Caption(dimension="shape",
                      objects=(tw.ObjectSlot("disc"), tw.ObjectSlot("square")))
    # a bare-shape swap is order-only, so the cross-check must reject it
    with pytest.raises(dp.VqaInconsistencyError):
        dp.build_pair(cap, swap, layout_seed=19)


def test_generate_dataset_counts_and_reproducibility():
    counts = {"color": 8, "spatial": 4}
    pairs_a, man_a = dp.generate_dataset(counts, seed=21)
    pairs_b, man_b = dp.generate_dataset(counts, seed=21)
    assert man_a.realized == {"color": 8, "spatial": 4}
    assert man_a.realized == man_b.realized
    assert man_a.config_hash == man_b.config_hash
    assert man_a.filter_stats == man_b.filter_stats
    assert all(dp.pairs_equal(x, y) for x, y in zip(pairs_a, pairs_b))
    assert sum(man_a.realized.values()) <= sum(man_a.requested.values())
    for p in pairs_a:
        assert p.y_w != p.y_l


@pytest.mark.parametrize("jitter", [-1.0, float("nan")])
def test_generate_dataset_refuses_a_negative_or_non_finite_jitter(monkeypatch, jitter):
    # such a jitter used to build an un-jittered dataset whose config_hash
    # recorded it; it is refused before any caption is drawn
    drawn = []
    monkeypatch.setattr(dp, "sample_caption", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match="jitter must be finite and non-negative"):
        dp.generate_dataset({"color": 2}, seed=23, jitter=jitter, grid=8)
    assert drawn == []


@pytest.mark.parametrize("counts,message", [
    ({"color": 2.5}, "counts['color'] must be an integer, got 2.5"),
    ({"color": -2}, "counts['color'] must be at least 0, got -2"),
    ({"color": True}, "counts['color'] must be an integer, got True"),
    ({"color": 1, "bogus": 1}, "unsupported dimension 'bogus'"),
], ids=["float", "negative", "bool", "unknown-dimension"])
def test_generate_dataset_refuses_a_bad_count_before_drawing(monkeypatch, counts, message):
    # 2.5 used to build 3 pairs, -2 none and True 1, each recorded as
    # requested; an unknown dimension failed after the ones before it
    drawn = []
    monkeypatch.setattr(dp, "sample_caption", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match=re.escape(message)):
        dp.generate_dataset(counts, seed=23, grid=8)
    assert drawn == []


def test_generate_dataset_takes_numpy_and_zero_counts():
    pairs, manifest = dp.generate_dataset({"color": np.int64(2), "shape": 0}, seed=23, grid=8)
    assert len(pairs) == 2
    assert manifest.requested == manifest.realized == {"color": 2, "shape": 0}
    assert all(type(n) is int for n in manifest.requested.values())


def test_a_record_holds_no_masks_and_the_region_loss_derives_them(tmp_path, monkeypatch):
    from prefdiff import losses

    calls = []
    edit_masks = tw.edit_masks
    monkeypatch.setattr(tw, "edit_masks", lambda *args: calls.append(args) or edit_masks(*args))
    pairs, manifest = dp.generate_dataset(dp.default_mix(30), seed=41, grid=8)
    path = tmp_path / "data.jsonl"
    dp.write_dataset(pairs, manifest, path)
    loaded, _ = dp.read_dataset(path)
    assert calls == []
    assert "mask" not in path.read_text()
    exempt = [p.dimension in losses.REGION_EXEMPT_DIMENSIONS for p in pairs]
    assert any(exempt) and not all(exempt)
    shape = (8, 8, tw.CHANNELS)
    for dataset in (pairs, loaded):
        calls.clear()
        arrays = losses._stack_pairs(dataset, np.float32, shape, masks=True)
        assert len(calls) == exempt.count(False)
        for side, rows in enumerate((arrays["masks_w"], arrays["masks_l"])):
            assert rows.dtype == np.float32 and rows.shape == (len(dataset), 8 * 8 * 3)
            for row, p, skip in zip(rows, dataset, exempt):
                mask = np.ones((8, 8)) if skip else edit_masks(p.scene_w, p.scene_l, 8)[side]
                assert np.array_equal(row, np.repeat(mask, tw.CHANNELS).astype(np.float32))


def test_filter_pairs_clean_input_all_kept():
    pairs, _ = dp.generate_dataset({"color": 10}, seed=25)
    kept, discarded, stats = dp.filter_pairs(pairs)
    assert len(kept) == 10 and not discarded
    assert stats == {"per_dimension": {"color": {"kept": 10, "discarded": 0}}}


def test_filter_pairs_discards_exactly_the_injected():
    pairs, _ = dp.generate_dataset({"color": 15, "numeracy": 10}, seed=27)
    # swap the captions of a random subset: the cross-check rejects exactly those
    swapped = np.random.default_rng(1).random(len(pairs)) < 0.3
    corrupted = [replace(p, y_w=p.y_l, y_l=p.y_w) if bad else p
                 for p, bad in zip(pairs, swapped)]
    injected = [p for p, bad in zip(corrupted, swapped) if bad]
    kept, discarded, stats = dp.filter_pairs(corrupted)
    assert len(discarded) == len(injected) > 0
    assert discarded == injected
    assert len(kept) + len(discarded) == 25
    assert sum(d["discarded"] for d in stats["per_dimension"].values()) == len(injected)


def test_filter_pairs_empty_input():
    kept, discarded, stats = dp.filter_pairs([])
    assert kept == [] and discarded == []
    assert stats == {"per_dimension": {}}


def test_dataset_round_trip_structural_equality(tmp_path):
    counts = {"color": 4, "shape": 2, "texture": 2, "spatial": 2, "numeracy": 2}
    pairs, manifest = dp.generate_dataset(counts, seed=29)
    path = tmp_path / "data.jsonl"
    dp.write_dataset(pairs, manifest, path)
    loaded, man2 = dp.read_dataset(path)
    assert len(loaded) == len(pairs)
    assert all(dp.pairs_equal(a, b) for a, b in zip(pairs, loaded))
    assert man2.realized == manifest.realized
    assert man2.config_hash == manifest.config_hash
    assert sum(man2.realized.values()) == len(loaded)


def test_dataset_truncation_reports_line(tmp_path):
    pairs, manifest = dp.generate_dataset({"color": 3}, seed=31)
    path = tmp_path / "data.jsonl"
    dp.write_dataset(pairs, manifest, path)
    text = path.read_text().split("\n")
    (tmp_path / "cut.jsonl").write_text("\n".join(text[:2]) + "\n" + text[2][:40] + "\n")
    with pytest.raises(dp.MalformedRecordError, match="line 3"):
        dp.read_dataset(tmp_path / "cut.jsonl")
    # clean truncation at a record boundary is caught by the record count
    (tmp_path / "cut2.jsonl").write_text("\n".join(text[:3]) + "\n")
    with pytest.raises(dp.MalformedRecordError, match="expected 3 records"):
        dp.read_dataset(tmp_path / "cut2.jsonl")


def test_dataset_version_and_checksum_errors(tmp_path):
    import json
    pairs, manifest = dp.generate_dataset({"color": 2}, seed=33)
    path = tmp_path / "data.jsonl"
    dp.write_dataset(pairs, manifest, path)
    lines = path.read_text().split("\n")
    header = json.loads(lines[0])
    header["version"] = 99
    (tmp_path / "v.jsonl").write_text("\n".join([json.dumps(header)] + lines[1:]))
    with pytest.raises(dp.DatasetVersionError):
        dp.read_dataset(tmp_path / "v.jsonl")
    tampered = lines[:]
    tampered[1] = tampered[1].replace("color", "colou"[:5])  # same length, new bytes
    (tmp_path / "c.jsonl").write_text("\n".join(tampered))
    with pytest.raises((dp.DatasetChecksumError, dp.MalformedRecordError)):
        dp.read_dataset(tmp_path / "c.jsonl")


def test_default_mix_sums_to_total():
    counts = dp.default_mix(2000)
    assert sum(counts.values()) == 2000
    assert counts["color"] > counts["shape"]


def test_build_pair_detects_each_image_once(monkeypatch):
    calls = []
    detect = tw.detect
    monkeypatch.setattr(tw, "detect", lambda image: calls.append(1) or detect(image))
    cap = tw.Caption(dimension="color",
                     objects=(tw.ObjectSlot("square", color="red"),
                              tw.ObjectSlot("disc", color="blue")))
    pair = dp.build_pair(cap, dp.edit_caption(cap, rng_seed=3)[0], layout_seed=11)
    assert len(calls) == 2
    assert dp.cross_check(pair.x0_w, pair.y_w, pair.x0_l, pair.y_l) == (True,) * 4
    assert dp.cross_check(pair.x0_w, pair.y_l, pair.x0_l, pair.y_w) == (False,) * 4


def test_child_seed_hashes_numpy_integers_as_ints():
    assert dp._child_seed(np.int64(7), "x") == dp._child_seed(7, "x")
    assert dp._child_seed(np.uint32(3), 2, "y") == dp._child_seed(3, 2, "y")


def test_write_dataset_failed_replace_keeps_old_file(tmp_path, monkeypatch):
    pairs, manifest = dp.generate_dataset({"color": 2}, seed=35, grid=8)
    path = tmp_path / "data.jsonl"
    dp.write_dataset(pairs[:1], manifest, path)
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        dp.write_dataset(pairs, manifest, path)
    assert path.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))


def test_atomic_write_failed_block_keeps_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="interrupted"):
        with dp.atomic_write(path) as fh:
            fh.write("half a record")
            raise RuntimeError("interrupted")
    assert path.read_text() == "old\n"
    assert not list(tmp_path.glob("*.tmp"))


def _write_mixed(tmp_path):
    counts = {"color": 3, "shape": 1, "texture": 1, "spatial": 2, "numeracy": 2}
    pairs, manifest = dp.generate_dataset(counts, seed=37)
    path = tmp_path / "data.jsonl"
    dp.write_dataset(pairs, manifest, path)
    return pairs, path


def _rewrite(path, line_no, edit):
    """Apply ``edit`` to the parsed JSON of one line and write the file back."""
    lines = path.read_text().split("\n")
    record = json.loads(lines[line_no - 1])
    edit(record)
    lines[line_no - 1] = json.dumps(record)
    path.write_text("\n".join(lines))


def test_image_payload_round_trip_is_bit_exact(tmp_path):
    pairs, manifest = dp.generate_dataset({"color": 2}, seed=39, grid=8)
    tiny = np.nextafter(0.0, 1.0)   # smallest subnormal
    special = np.array([-0.0, tiny, 2.2250738585072014e-308 / 3, 0.1 + 0.2,
                        np.nextafter(1.0, 2.0), -1.0 / 3.0, np.pi, 1e-300])
    x = np.resize(special, pairs[0].x0_w.shape)
    pairs[0] = replace(pairs[0], x0_w=x, x0_l=-x[::-1])
    path = tmp_path / "data.jsonl"
    dp.write_dataset(pairs, manifest, path)
    loaded, _ = dp.read_dataset(path)
    for a, b in zip(pairs, loaded):
        for x_in, x_out in ((a.x0_w, b.x0_w), (a.x0_l, b.x0_l)):
            assert x_out.tobytes() == np.ascontiguousarray(x_in).tobytes()
            assert x_out.dtype == np.float64 and x_out.dtype.isnative
            assert x_out.flags.c_contiguous and x_out.flags.writeable
            assert x_out.shape == x_in.shape
    assert np.signbit(loaded[0].x0_w.reshape(-1)[0])


def test_dataset_version_1_file_is_refused(tmp_path):
    _, path = _write_mixed(tmp_path)
    # v2 stored run-length masks, v3 the edited slots and v4 each scene's
    # relation and count tags; datasets regenerate from seed
    for version in range(1, dp.DATASET_VERSION):

        def set_version(record):
            record["version"] = version

        _rewrite(path, 1, set_version)
        with pytest.raises(dp.DatasetVersionError, match=f"unsupported version {version}"):
            dp.read_dataset(path)


def _off_grid(scene):
    scene["objects"][0]["bbox"][0] = -1


def _zero_height(scene):
    scene["objects"][0]["bbox"][2] = 0


def _overlapping(scene):
    row0, col0, height, width = scene["objects"][0]["bbox"]
    scene["objects"].append({**scene["objects"][0], "bbox": [row0 + 1, col0, height, width]})


@pytest.mark.parametrize("damage,problem", [(_off_grid, "overflows"),
                                            (_zero_height, "degenerate bbox"),
                                            (_overlapping, "bboxes overlap")],
                         ids=["off_grid", "zero_height", "overlapping"])
def test_invalid_stored_scene_names_its_line(tmp_path, damage, problem):
    _, path = _write_mixed(tmp_path)
    _rewrite(path, 2, lambda record: damage(record["scene_l"]))
    with pytest.raises(dp.MalformedRecordError, match=f"line 2: .*{problem}") as info:
        dp.read_dataset(path)
    assert info.value.line_no == 2


@pytest.mark.parametrize("damage", [
    lambda s: s[:-8],               # whole missing value: valid base64, short
    lambda s: s[:-1],               # cut mid-quantum: bad padding
    lambda s: "not base64!" + s,    # characters outside the alphabet
], ids=["short", "bad_padding", "bad_alphabet"])
def test_damaged_image_payload_names_its_line(tmp_path, damage):
    _, path = _write_mixed(tmp_path)

    def hurt(record):
        record["x0_l"] = damage(record["x0_l"])

    _rewrite(path, 3, hurt)
    with pytest.raises(dp.MalformedRecordError, match="line 3") as info:
        dp.read_dataset(path)
    assert info.value.line_no == 3


def test_mislabelled_caption_names_its_line(tmp_path):
    # the dimension of a read pair is its winner caption's label, so a label
    # its content contradicts must not load
    pairs, path = _write_mixed(tmp_path)
    assert pairs[0].y_w.dimension == "color"
    _rewrite(path, 2, lambda record: record["y_w"].update(dimension="shape"))
    with pytest.raises(dp.MalformedRecordError, match="line 2: .*labelled 'shape'"):
        dp.read_dataset(path)


@pytest.mark.parametrize("key", ["records", "checksum", "seed"])
def test_manifest_missing_key_is_malformed_line_1(tmp_path, key):
    _, path = _write_mixed(tmp_path)
    _rewrite(path, 1, lambda header: header.pop(key))
    with pytest.raises(dp.MalformedRecordError, match=f"line 1: .*'{key}'") as info:
        dp.read_dataset(path)
    assert info.value.line_no == 1


def test_non_object_lines_are_refused(tmp_path):
    _, path = _write_mixed(tmp_path)
    lines = path.read_text().split("\n")
    path.write_text("\n".join(lines[:2] + ["[1, 2]"] + lines[3:]))
    with pytest.raises(dp.MalformedRecordError, match="line 3"):
        dp.read_dataset(path)
    path.write_text("\n".join(["[1, 2]"] + lines[1:]))
    with pytest.raises(dp.DatasetVersionError, match="not a prefdiff-dataset file"):
        dp.read_dataset(path)


def test_dataset_file_stays_under_20kb_per_pair(tmp_path):
    # float lists took ~33 KB per grid-16 pair; the binary payload ~17.5 KB
    pairs, manifest = dp.generate_dataset(dp.default_mix(10), seed=41, grid=16)
    path = tmp_path / "data.jsonl"
    dp.write_dataset(pairs, manifest, path)
    assert len(pairs) == 10
    assert path.stat().st_size < 20_000 * len(pairs)


def test_caption_from_dict_refuses_an_unknown_key_or_a_non_object():
    record = dp.caption_to_dict(dp.sample_caption("color", rng_seed=0))
    assert dp.caption_from_dict(record) == dp.sample_caption("color", rng_seed=0)
    with pytest.raises(ValueError, match="unknown keys: note, weight"):
        dp.caption_from_dict({**record, "weight": 1, "note": "red"})
    with pytest.raises(ValueError, match="JSON object"):
        dp.caption_from_dict("color")
