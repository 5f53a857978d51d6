import json
import os
from dataclasses import replace

import pytest

from prefdiff import cli
from prefdiff import datapipe as dp
from prefdiff import net
from prefdiff import trainer


def micro_config(**overrides):
    base = dict(method="sft", steps=3, batch_size=4, grid=8, hidden=16, time_dim=8,
                T=10, seed=2, dtype="float64", pretrain_steps=2, eval_samples_per_prompt=1)
    base.update(overrides)
    return trainer.TrainConfig(**base)


def test_gen_data_exits_0_without_a_generation_shortfall(tmp_path, capsys):
    out = tmp_path / "data.jsonl"
    assert cli.main(["gen-data", "--dims", "color", "--count-per-dim", "4", "--grid", "8",
                     "--out", str(out)]) == 0
    pairs, manifest = dp.read_dataset(out)
    assert manifest.realized == {"color": 4} and len(pairs) == 4
    assert "shortfall" not in capsys.readouterr().err


def test_gen_data_shortfall_is_reported_and_fails(tmp_path, capsys, monkeypatch):
    generate = dp.generate_dataset

    def short(counts, **kwargs):
        pairs, manifest = generate(counts, **kwargs)
        manifest.realized["spatial"] -= 1
        return pairs[:-1], manifest

    monkeypatch.setattr(dp, "generate_dataset", short)
    out = tmp_path / "data.jsonl"
    assert cli.main(["gen-data", "--dims", "color,spatial", "--count-per-dim", "2",
                     "--grid", "8", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "spatial realized 1 of 2 requested" in err
    assert "color" not in err


def test_gen_data_train_eval_ablate_end_to_end(tmp_path):
    data = tmp_path / "data.jsonl"
    assert cli.main(["gen-data", "--dims", "color,numeracy", "--count-per-dim", "4",
                     "--grid", "8", "--seed", "1", "--out", str(data)]) == 0
    config = tmp_path / "config.json"
    trainer.save_config(micro_config(), config)
    assert json.loads(config.read_text())["version"] == 3

    run = tmp_path / "run"
    assert cli.main(["train", "--config", str(config), "--data", str(data),
                     "--method", "bidpo", "--out", str(run)]) == 0
    assert trainer.load_config(run / "config.json") == micro_config(method="bidpo")
    assert len((run / "metrics.jsonl").read_text().splitlines()) == 3
    params, sched = net.load_checkpoint(run / "checkpoint.json")
    assert params.cfg == micro_config().net_config()
    assert sched.spec() == micro_config().schedule().spec()

    scores = tmp_path / "eval.json"
    assert cli.main(["eval", "--ckpt", str(run / "checkpoint.json"),
                     "--config", str(run / "config.json"), "--gen",
                     "--prompts-per-dim", "1", "--samples-per-prompt", "1",
                     "--out", str(scores)]) == 0
    record = json.loads(scores.read_text())
    assert record["sample_count"] == 5 and 0.0 <= record["validity"] <= 1.0

    ablation = tmp_path / "ablation"
    assert cli.main(["ablate", "--config", str(config), "--data", str(data),
                     "--prompts-per-dim", "1", "--out", str(ablation)]) == 0
    assert sorted(os.listdir(ablation)) == ["report.csv", "report.json", "report.md"]
    assert not list(tmp_path.rglob("*.tmp"))


def test_train_refuses_a_v2_config(tmp_path):
    config = tmp_path / "config.json"
    trainer.save_config(micro_config(), config)
    record = json.loads(config.read_text())
    config.write_text(json.dumps({**record, "version": 2, "optimizer": "adam"}))
    with pytest.raises(ValueError, match="run-config v3"):
        cli.main(["train", "--config", str(config), "--data", str(tmp_path / "data.jsonl"),
                  "--out", str(tmp_path / "run")])


def _checkpoint_and_config(tmp_path):
    cfg = micro_config()
    ckpt, config = tmp_path / "checkpoint.json", tmp_path / "config.json"
    net.save_checkpoint(net.init_params(cfg.net_config(), seed=0), cfg.schedule(), ckpt)
    trainer.save_config(cfg, config)
    return ckpt, config


def test_eval_requires_the_run_config(tmp_path, capsys):
    ckpt, _ = _checkpoint_and_config(tmp_path)
    with pytest.raises(SystemExit):
        cli.main(["eval", "--ckpt", str(ckpt), "--gen", "--prompts-per-dim", "1",
                  "--samples-per-prompt", "1", "--out", str(tmp_path / "eval.json")])
    assert "--config" in capsys.readouterr().err


def test_eval_takes_exactly_one_prompt_source(tmp_path, capsys):
    ckpt, config = _checkpoint_and_config(tmp_path)
    prompts = tmp_path / "prompts.jsonl"
    prompts.write_text("")
    base = ["eval", "--ckpt", str(ckpt), "--config", str(config), "--prompts-per-dim", "1",
            "--samples-per-prompt", "1", "--out", str(tmp_path / "eval.json")]
    for extra, message in ((["--prompts", str(prompts), "--gen"], "not allowed with"),
                           ([], "one of the arguments --prompts --gen is required")):
        with pytest.raises(SystemExit) as exc:
            cli.main(base + extra)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "eval.json").exists()


@pytest.mark.parametrize("command,flag,value", [
    ("gen-data", "--count-per-dim", "0"),
    ("gen-data", "--dims", "color,bogus"),
    ("gen-data", "--dims", ","),
    ("eval", "--samples-per-prompt", "0"),
    ("eval", "--samples-per-prompt", "-3"),
    ("eval", "--prompts-per-dim", "0"),
    ("eval", "--prompts-per-dim", "-2"),
    ("ablate", "--prompts-per-dim", "0"),
])
def test_counts_below_one_and_unknown_dimensions_are_refused(tmp_path, capsys, command, flag,
                                                             value):
    # each would otherwise write an empty dataset or scorecard, or die in a traceback
    ckpt, config = _checkpoint_and_config(tmp_path)
    data = tmp_path / "data.jsonl"
    dp.write_dataset(*dp.generate_dataset({"color": 2}, seed=1, grid=8), data)
    inputs = {"gen-data": ["--grid", "8"],
              "eval": ["--ckpt", str(ckpt), "--config", str(config), "--gen"],
              "ablate": ["--config", str(config), "--data", str(data)]}[command]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *inputs, flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--grid", "0"), ("--grid", "2"), ("--grid", "-4"),
                                        ("--jitter", "-5"), ("--jitter", "-0.01"),
                                        ("--jitter", "nan"), ("--jitter", "inf")])
def test_gen_data_refuses_a_grid_or_jitter_it_cannot_use(tmp_path, capsys, flag, value):
    # a grid below the smallest object side wrote an empty dataset and exited
    # 1; a negative jitter exited 0 and went into the manifest
    out = tmp_path / "data.jsonl"
    inputs = {"--grid": ["--jitter", "0.05"], "--jitter": ["--grid", "8"]}[flag]
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-data", "--dims", "color", "--count-per-dim", "1", *inputs,
                  flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--grid", "3"), ("--jitter", "0")])
def test_gen_data_takes_the_smallest_grid_and_no_jitter(tmp_path, flag, value):
    out = tmp_path / "data.jsonl"
    inputs = {"--grid": [], "--jitter": ["--grid", "8"]}[flag]
    code = cli.main(["gen-data", "--dims", "color", "--count-per-dim", "1", *inputs,
                     flag, value, "--out", str(out)])
    assert code == 0 and out.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_eval_failed_replace_keeps_old_file(tmp_path, monkeypatch, fmt):
    ckpt, config = _checkpoint_and_config(tmp_path)
    out = tmp_path / f"eval.{fmt}"
    out.write_text("old scores\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        cli.main(["eval", "--ckpt", str(ckpt), "--config", str(config), "--gen",
                  "--prompts-per-dim", "1", "--samples-per-prompt", "1",
                  "--format", fmt, "--out", str(out)])
    assert out.read_text() == "old scores\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_eval_refuses_a_config_for_a_different_network(tmp_path, capsys):
    ckpt, config = _checkpoint_and_config(tmp_path)   # grid 8, hidden 16
    trainer.save_config(trainer.TrainConfig(), config)   # grid 16, hidden 256
    out = tmp_path / "eval.json"
    assert cli.main(["eval", "--ckpt", str(ckpt), "--config", str(config), "--gen",
                     "--prompts-per-dim", "1", "--samples-per-prompt", "1",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "grid=16, channels=3, hidden=256" in err and "grid=8, channels=3, hidden=16" in err
    assert not out.exists()


def test_eval_refuses_a_config_for_a_different_schedule(tmp_path, capsys):
    # a grid-8 checkpoint trained at T 20 (beta 0.05 -> 0.45), evaluated with
    # the same config changed to the default T 100 (beta 1e-3 -> 0.2)
    data = tmp_path / "data.jsonl"
    assert cli.main(["gen-data", "--dims", "color", "--count-per-dim", "4", "--grid", "8",
                     "--out", str(data)]) == 0
    trained = micro_config(T=20, beta_start=0.05, beta_end=0.45)
    config = tmp_path / "config.json"
    trainer.save_config(trained, config)
    run = tmp_path / "run"
    assert cli.main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(run)]) == 0
    capsys.readouterr()
    trainer.save_config(micro_config(T=100, beta_start=1e-3, beta_end=0.2), config)
    out = tmp_path / "eval.json"
    assert cli.main(["eval", "--ckpt", str(run / "checkpoint.json"), "--config", str(config),
                     "--gen", "--prompts-per-dim", "1", "--samples-per-prompt", "1",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'T': 100, 'beta_start': 0.001, 'beta_end': 0.2" in err
    assert "'T': 20, 'beta_start': 0.05, 'beta_end': 0.45" in err
    assert not out.exists()
    # the omega mode is part of the schedule too
    trainer.save_config(replace(trained, omega_mode="snr"), config)
    assert cli.main(["eval", "--ckpt", str(run / "checkpoint.json"), "--config", str(config),
                     "--gen", "--prompts-per-dim", "1", "--samples-per-prompt", "1",
                     "--out", str(out)]) == 2
    assert "'omega_mode': 'snr'" in capsys.readouterr().err
    trainer.save_config(trained, config)
    assert cli.main(["eval", "--ckpt", str(run / "checkpoint.json"), "--config", str(config),
                     "--gen", "--prompts-per-dim", "1", "--samples-per-prompt", "1",
                     "--out", str(out)]) == 0


def test_eval_refuses_a_prompt_whose_label_contradicts_it(tmp_path, capsys):
    # a colour caption labelled "shape" would be scored under the wrong column
    ckpt, config = _checkpoint_and_config(tmp_path)
    prompt = {"dimension": "shape", "relation": None, "count": None,
              "objects": [{"shape": "square", "color": "red", "texture": None}]}
    prompts, out = tmp_path / "prompts.jsonl", tmp_path / "eval.json"
    args = ["eval", "--ckpt", str(ckpt), "--config", str(config), "--prompts", str(prompts),
            "--samples-per-prompt", "1", "--out", str(out)]
    good = dict(prompt, dimension="color")
    prompts.write_text(json.dumps(good) + "\n\n" + json.dumps(prompt) + "\n")
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert f"{prompts} line 3" in err and "labelled 'shape' reads as 'color'" in err
    assert not out.exists()

    prompts.write_text(json.dumps(good) + "\n")
    assert cli.main(args) == 0
    assert list(json.loads(out.read_text())["per_dimension"]) == ["color"]
