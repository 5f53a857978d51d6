import json
import os
import re
from dataclasses import asdict
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from prefdiff import datapipe as dp
from prefdiff import diffusion as df
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


def test_evaluate_refuses_no_prompts_or_no_samples():
    # each used to return an empty Scorecard of validity 0; True scored one
    # sample per prompt and 2.5 failed inside range
    cfg = micro_config()
    params = net.init_params(cfg.net_config(), seed=0)
    prompts = eb.sample_prompts(["color"], 1, seed=3)
    with pytest.raises(ValueError, match="no prompts"):
        eb.evaluate(params, [], 2, cfg.schedule(), seed=6, sampler=oracle_sampler)
    with pytest.raises(ValueError, match="samples_per_prompt must be at least 1, got 0"):
        eb.evaluate(params, prompts, 0, cfg.schedule(), seed=6, sampler=oracle_sampler)
    for count in (True, 2.5, np.float64(2.0)):
        message = f"samples_per_prompt must be an integer, got {count!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            eb.evaluate(params, prompts, count, cfg.schedule(), seed=6, sampler=oracle_sampler)


@pytest.mark.parametrize("n_per_dim", [2.5, True, 0, -1])
def test_sample_prompts_refuses_a_count_that_is_not_a_positive_integer(n_per_dim):
    # 2.5 used to give 3 prompts per dimension and 0 or -1 none
    with pytest.raises(ValueError, match="n_per_dim must be"):
        eb.sample_prompts(["color"], n_per_dim, seed=0)


def test_evaluate_refuses_a_sampler_result_that_is_not_one_image_per_sample(monkeypatch):
    # one image for six samples used to be scored as six, zip dropping five
    cfg = micro_config()
    params = net.init_params(cfg.net_config(), seed=0)
    prompts = eb.sample_prompts(["color"], 3, seed=3)
    scored = []
    monkeypatch.setattr(tw, "vqa_check", lambda *args: scored.append(args))
    for shape in ((1, 8, 8, 3), (6, 8, 8), (6, 4, 4, 3)):
        message = f"sampler returned images of shape {shape}, expected (6, 8, 8, 3)"
        with pytest.raises(ValueError, match=re.escape(message)):
            eb.evaluate(params, prompts, 2, cfg.schedule(), seed=6,
                        sampler=lambda *args: np.zeros(shape))
    assert scored == []


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


@pytest.mark.parametrize("parameterization", net.PARAMETERIZATIONS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_evaluate_scores_the_samples_of_the_sequential_loop(monkeypatch, dtype,
                                                            parameterization):
    # the default sampler's in-place chain must give the out-of-place
    # sequential loop's images bit for bit, and so its Scorecard
    from conftest import randomized_params, sequential_sample, with_dtype

    cfg = net.NetConfig(grid=8, channels=3, hidden=16, time_dim=8,
                        parameterization=parameterization)
    sched = micro_config(T=6).schedule()
    params = with_dtype(randomized_params(net.init_params(cfg, seed=2), seed=3, scale=0.1),
                        dtype)
    prompts = eb.sample_prompts(tw.DIMENSIONS, 2, seed=4)
    images = {}

    def recording(name, sample):
        def recorder(params, encodings, sched, seeds):
            images[name] = sample(params, encodings, sched, seeds)
            return images[name]
        return recorder

    monkeypatch.setattr(df, "ddpm_sample_batch", recording("default", df.ddpm_sample_batch))
    card = eb.evaluate(params, prompts, 3, sched, seed=5)
    sequential = recording("sequential", sequential_sample)
    reference = eb.evaluate(params, prompts, 3, sched, seed=5,
                            sampler=lambda params, captions, *rest: sequential(params, *rest))
    assert card == reference
    assert images["default"].dtype == images["sequential"].dtype == dtype
    assert images["default"].tobytes() == images["sequential"].tobytes()


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
    assert sorted(os.listdir(out)) == ["report.json", "report.md"]


@pytest.mark.parametrize("prompts_of,message", [
    pytest.param(lambda pairs: [pairs[0].y_w], "collide", id="leaked"),
    pytest.param(lambda pairs: [], "no prompts", id="none"),
])
def test_run_ablation_refuses_its_prompts_before_training(monkeypatch, prompts_of, message):
    pairs, _ = dp.generate_dataset({"color": 4}, seed=15, grid=8)

    def train(*args, **kwargs):
        raise AssertionError("trained before refusing the prompts")

    monkeypatch.setattr(trainer, "train", train)
    with pytest.raises(ValueError, match=message):
        eb.run_ablation(micro_config(), pairs, prompts_of(pairs))


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


# read from the shipped file itself, so that a schema built from METHODS at
# run time could not make these tests pass vacuously
SCHEMA_PATH = Path(eb.__file__).parent / "schema" / "ablation_report.schema.json"


def test_report_json_round_trip_and_schema(tmp_path, micro_report):
    schema = json.loads(SCHEMA_PATH.read_text())
    for report in (sample_report(), micro_report[0]):
        path = tmp_path / "r.json"
        eb.emit_report(report, "json", path)
        record = json.loads(path.read_text())
        assert sorted(record) == ["rows", "seed"] and record["seed"] == report.seed
        # field for field, so the failed row's error and every float read back exactly
        assert record["rows"] == [asdict(row) for row in report.rows]
        jsonschema.validate(record, schema)


def test_report_schema_method_enum_matches_methods():
    schema = json.loads(SCHEMA_PATH.read_text())
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
