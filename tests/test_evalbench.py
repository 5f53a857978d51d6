import json
import os
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from prefdiff import datapipe as dp
from prefdiff import evalbench as eb
from prefdiff import net
from prefdiff import toyworld as tw
from prefdiff import trainer


def micro_config(**overrides):
    base = dict(method="bidpo", steps=10, batch_size=8, grid=8, hidden=32,
                time_dim=8, T=10, seed=5, dtype="float64", pretrain_steps=10,
                eval_samples_per_prompt=2)
    base.update(overrides)
    return trainer.TrainConfig(**base)


def oracle_sampler(params, captions, encodings, sched, seeds):
    """Renders each prompt's completed scene: a perfect generator."""
    imgs = []
    for cap, s in zip(captions, seeds):
        scene = tw.scene_from_caption(cap, layout_seed=s, grid=8)
        imgs.append(tw.render(scene, s, jitter=0.02, grid=8))
    return np.stack(imgs)


def noise_sampler(params, captions, encodings, sched, seeds):
    rng = np.random.default_rng(0)
    return rng.uniform(-1, 1, (len(captions), 8, 8, 3))


def test_sample_prompts_distinct_and_held_out():
    exclude = {dp.sample_caption("color", rng_seed=i) for i in range(40)}
    prompts = eb.sample_prompts(["color", "shape"], 6, seed=1, exclude=exclude)
    assert len(prompts) == len(set(prompts))
    assert not set(prompts) & exclude
    dims = {p.dimension for p in prompts}
    assert dims == {"color", "shape"}


def test_sample_prompts_small_grammar_returns_fewer():
    prompts = eb.sample_prompts(["shape"], 50, seed=2)
    # the bare-shape grammar has only 9 captions in total
    assert 0 < len(prompts) <= 9


def test_evaluate_oracle_sampler_scores_one():
    cfg = micro_config()
    params = net.init_params(cfg.net_config(), seed=0)
    prompts = eb.sample_prompts(tw.DIMENSIONS, 3, seed=3)
    card = eb.evaluate(params, prompts, 2, cfg.schedule(), seed=4,
                       sampler=oracle_sampler)
    assert all(acc == 1.0 for acc in card.per_dimension.values())
    assert card.validity == 1.0
    assert card.sample_count == len(prompts) * 2


def test_evaluate_without_prompts_returns_empty_scorecard():
    cfg = micro_config()
    params = net.init_params(cfg.net_config(), seed=0)
    card = eb.evaluate(params, [], 2, cfg.schedule(), seed=6)
    assert card == eb.Scorecard(per_dimension={}, validity=0.0, sample_count=0, seed=6)


def test_evaluate_noise_sampler_has_no_validity():
    cfg = micro_config()
    params = net.init_params(cfg.net_config(), seed=0)
    prompts = eb.sample_prompts(tw.DIMENSIONS, 5, seed=5)
    card = eb.evaluate(params, prompts, 2, cfg.schedule(), seed=6,
                       sampler=noise_sampler)
    assert card.validity < 0.05


def test_evaluate_zero_output_model_near_chance():
    cfg = micro_config()
    params = net.init_params(cfg.net_config(), seed=0)   # zero head
    prompts = [c for c in (dp.sample_caption("color", rng_seed=i) for i in range(40))
               if len(c.objects) == 1][:8]
    card = eb.evaluate(params, prompts, 2, cfg.schedule(), seed=7)
    assert card.per_dimension["color"] <= 1 / 8 + 0.1


def test_evaluate_is_deterministic():
    cfg = micro_config()
    params = net.init_params(cfg.net_config(), seed=1)
    prompts = eb.sample_prompts(["color"], 4, seed=8)
    a = eb.evaluate(params, prompts, 2, cfg.schedule(), seed=9)
    b = eb.evaluate(params, prompts, 2, cfg.schedule(), seed=9)
    assert a == b


@pytest.fixture(scope="module")
def micro_report(tmp_path_factory):
    pairs, _ = dp.generate_dataset({"color": 10, "numeracy": 6}, seed=13, grid=8)
    prompts = eb.sample_prompts(["color", "numeracy"], 3, seed=14,
                                exclude=dp.dataset_captions(pairs))
    out = tmp_path_factory.mktemp("ablation")
    report = eb.run_ablation(micro_config(), pairs, prompts, out_dir=out)
    return report, out


def test_run_ablation_produces_six_independent_rows(micro_report):
    report, out = micro_report
    assert tuple(r.method for r in report.rows) == eb.METHODS
    assert all(r.status == "ok" for r in report.rows)
    cards = [r.scorecard for r in report.rows]
    assert all(c.sample_count == cards[0].sample_count for c in cards)
    assert all(c.seed == cards[0].seed for c in cards)   # shared prompts/seed
    for name in ("report.json", "report.csv", "report.md"):
        assert (out / name).exists()


def test_run_ablation_rejects_prompt_leakage():
    pairs, _ = dp.generate_dataset({"color": 4}, seed=15, grid=8)
    leaked = [pairs[0].y_w]
    with pytest.raises(ValueError, match="collide"):
        eb.run_ablation(micro_config(), pairs, leaked)


def sample_report():
    card = eb.Scorecard(per_dimension={"color": 0.5, "shape": 0.25}, validity=0.75,
                        sample_count=16, seed=3)
    rows = (eb.AblationRow("baseline", "ok", card),
            eb.AblationRow("sft", "ok", card),
            eb.AblationRow("image_dpo", "ok", card),
            eb.AblationRow("text_dpo", "failed", None, "exploded"),
            eb.AblationRow("bidpo", "ok", card),
            eb.AblationRow("bidpo_region", "ok", card))
    return eb.AblationReport(rows=rows, seed=42)


def test_report_csv_round_trip(tmp_path, micro_report):
    for report in (sample_report(), micro_report[0]):
        path = tmp_path / "r.csv"
        eb.emit_report(report, "csv", path)
        assert eb.load_report(path, "csv") == report


def test_report_json_round_trip_and_schema(tmp_path, micro_report):
    schema = eb.report_schema()
    for report in (sample_report(), micro_report[0]):
        path = tmp_path / "r.json"
        eb.emit_report(report, "json", path)
        assert eb.load_report(path, "json") == report
        jsonschema.validate(json.loads(path.read_text()), schema)


def test_report_schema_method_enum_matches_methods():
    # read from the shipped file itself, so that a schema built from
    # METHODS at run time could not make this test pass vacuously
    path = Path(eb.__file__).parent / "schema" / "ablation_report.schema.json"
    schema = json.loads(path.read_text())
    assert eb.report_schema() == schema
    enum = schema["properties"]["rows"]["items"]["properties"]["method"]["enum"]
    assert enum == list(eb.METHODS)
    assert eb.METHODS == ("baseline",) + trainer.METHODS


def test_report_markdown_has_six_body_rows(tmp_path):
    path = tmp_path / "r.md"
    eb.emit_report(sample_report(), "markdown", path)
    lines = [l for l in path.read_text().splitlines() if l.startswith("|")]
    assert len(lines) == 2 + 6   # header, separator, six body rows


def test_emit_report_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="format"):
        eb.emit_report(sample_report(), "xml", tmp_path / "r.xml")


@pytest.mark.parametrize("fmt", eb.REPORT_FORMATS)
def test_emit_report_failed_replace_keeps_old_file(tmp_path, monkeypatch, fmt):
    path = tmp_path / f"report.{fmt}"
    path.write_text("old report\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        eb.emit_report(sample_report(), fmt, path)
    assert path.read_text() == "old report\n"
    assert not list(tmp_path.glob("*.tmp"))
