import json
import os

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
    assert json.loads(config.read_text())["version"] == 4

    run = tmp_path / "run"
    assert cli.main(["train", "--config", str(config), "--data", str(data),
                     "--method", "bidpo", "--out", str(run)]) == 0
    assert trainer.load_config(run / "config.json") == micro_config(method="bidpo")
    assert len((run / "metrics.jsonl").read_text().splitlines()) == 3
    params, sched = net.load_checkpoint(run / "checkpoint.json")
    assert params.cfg == micro_config().net_config()
    assert sched.spec() == micro_config().schedule().spec()

    scores = tmp_path / "eval.json"
    assert cli.main(["eval", "--ckpt", str(run / "checkpoint.json"), "--gen",
                     "--prompts-per-dim", "1", "--samples-per-prompt", "1",
                     "--out", str(scores)]) == 0
    record = json.loads(scores.read_text())
    assert record["sample_count"] == 5 and 0.0 <= record["validity"] <= 1.0

    ablation = tmp_path / "ablation"
    assert cli.main(["ablate", "--config", str(config), "--data", str(data),
                     "--prompts-per-dim", "1", "--out", str(ablation)]) == 0
    assert sorted(os.listdir(ablation)) == ["report.json", "report.md"]
    assert not list(tmp_path.rglob("*.tmp"))


def test_train_refuses_a_v2_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    trainer.save_config(micro_config(), config)
    record = json.loads(config.read_text())
    config.write_text(json.dumps({**record, "version": 2, "optimizer": "adam"}))
    assert cli.main(["train", "--config", str(config), "--data", str(tmp_path / "data.jsonl"),
                     "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{config}: ") and "run-config v4" in err
    assert err.count(str(config)) == 1
    assert not (tmp_path / "run").exists()


def _checkpoint_and_config(tmp_path):
    cfg = micro_config()
    ckpt, config = tmp_path / "checkpoint.json", tmp_path / "config.json"
    net.save_checkpoint(net.init_params(cfg.net_config(), seed=0), cfg.schedule(), ckpt)
    trainer.save_config(cfg, config)
    return ckpt, config


def test_eval_takes_exactly_one_prompt_source(tmp_path, capsys):
    ckpt, _ = _checkpoint_and_config(tmp_path)
    prompts = tmp_path / "prompts.jsonl"
    prompts.write_text("")
    base = ["eval", "--ckpt", str(ckpt), "--prompts-per-dim", "1",
            "--samples-per-prompt", "1", "--out", str(tmp_path / "eval.json")]
    for extra, message in ((["--prompts", str(prompts), "--gen"], "not allowed with"),
                           ([], "one of the arguments --prompts --gen is required")):
        with pytest.raises(SystemExit) as exc:
            cli.main(base + extra)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "eval.json").exists()


def _edit(change):
    """Rewrite a checkpoint file with ``change`` applied to its record."""
    def corrupt(path):
        record = json.loads(path.read_text())
        change(record)
        path.write_text(json.dumps(record))
    return corrupt


def _truncate(path):
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    return path


@pytest.mark.parametrize("corrupt,message", [
    pytest.param(_edit(lambda r: r.update(version=r["version"] + 1)), "unsupported checkpoint",
                 id="version"),
    pytest.param(_edit(lambda r: r.update(checksum="0" * 64)), "checksum mismatch",
                 id="checksum"),
    pytest.param(_edit(lambda r: r["cfg"].update(hidden=32)), "config implies", id="cfg-hidden"),
    pytest.param(_edit(lambda r: r["cfg"].update(parameterization="x1")), "parameterization",
                 id="parameterization-x1"),
    pytest.param(_edit(lambda r: r["cfg"].update(dropout=0.1)), "dropout", id="cfg-unknown"),
    pytest.param(_edit(lambda r: r.update(dtype="float17")), "float17", id="dtype"),
    # the checksum covers only the payload's bytes, which these would misread:
    # each has the item size of the float64 payload
    pytest.param(_edit(lambda r: r.update(dtype="int64")), "'int64' is not float32",
                 id="dtype-int64"),
    pytest.param(_edit(lambda r: r.update(dtype=">f8")), "'>f8' is not float32",
                 id="dtype-big-endian"),
    pytest.param(_edit(lambda r: r.update(extra=1)), "unknown keys: extra", id="unknown-key"),
    pytest.param(_edit(lambda r: r["schedule"].update(beta_end=1.5)), "beta_end",
                 id="schedule"),
    # a true T loaded as a 1-step schedule
    pytest.param(_edit(lambda r: r["schedule"].update(T=True)),
                 "T must be a positive integer, got True", id="schedule-T-true"),
    pytest.param(_edit(lambda r: r.pop("params")), "lacks the field 'params'",
                 id="missing-params"),
    pytest.param(_truncate, "not JSON", id="truncated"),
    pytest.param(lambda path: path.write_text("[]"), "not a JSON object", id="list"),
    pytest.param(lambda path: path.unlink(), "No such file", id="missing-file"),
])
def test_eval_refuses_a_bad_checkpoint_in_one_line(tmp_path, capsys, corrupt, message):
    # each used to escape as a traceback with exit 1
    ckpt, _ = _checkpoint_and_config(tmp_path)
    corrupt(ckpt)
    out = tmp_path / "eval.json"
    assert cli.main(["eval", "--ckpt", str(ckpt), "--gen", "--prompts-per-dim", "1",
                     "--samples-per-prompt", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{ckpt}: ") and message in err and err.count("\n") == 1
    assert not out.exists()


def _config_with(**fields):
    """An input maker: the run config rewritten with ``fields``."""
    def make(tmp_path, files):
        record = json.loads(files["--config"].read_text())
        files["--config"].write_text(json.dumps({**record, **fields}))
        return files["--config"]
    return make


def _missing(tmp_path, files):
    return tmp_path / "missing.json"


def _config_list(tmp_path, files):
    files["--config"].write_text("[]")
    return files["--config"]


@pytest.mark.parametrize("command,flag,make,message", [
    pytest.param("train", "--config", _config_with(beta_start=0.0), "beta_start",
                 id="train-beta-start-0"),
    pytest.param("train", "--config", _missing, "No such file", id="train-missing-config"),
    pytest.param("train", "--config", lambda tmp_path, files: files["--data"], "Extra data",
                 id="train-dataset-as-config"),
    pytest.param("train", "--config", _config_list, "not a JSON object", id="train-config-list"),
    pytest.param("train", "--data", lambda tmp_path, files: _truncate(files["--data"]),
                 "line ", id="train-truncated-dataset"),
    pytest.param("train", "--data", _missing, "No such file", id="train-missing-dataset"),
    pytest.param("ablate", "--config", _config_with(beta_start=0.0), "beta_start",
                 id="ablate-beta-start-0"),
    pytest.param("ablate", "--config", _config_with(seed=-1), "seed", id="ablate-seed-negative"),
    pytest.param("eval", "--prompts", _missing, "No such file", id="eval-missing-prompts"),
])
def test_every_command_refuses_an_unreadable_input_in_one_line(tmp_path, capsys, command, flag,
                                                               make, message):
    # each used to escape as a traceback with exit 1
    ckpt, config = _checkpoint_and_config(tmp_path)
    data = tmp_path / "data.jsonl"
    dp.write_dataset(*dp.generate_dataset({"color": 2}, seed=1, grid=8), data)
    files = {"--config": config, "--data": data, "--ckpt": ckpt}
    files[flag] = make(tmp_path, files)
    flags = {"train": ("--config", "--data"), "ablate": ("--config", "--data"),
             "eval": ("--ckpt", "--prompts")}[command]
    out = tmp_path / "out"
    argv = [command, *(arg for f in flags for arg in (f, str(files[f]))), "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{files[flag]}: ") and message in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("grid,kept,message", [
    pytest.param(8, 0, "holds no pairs", id="empty"),
    pytest.param(16, 2, "grid 8", id="grid-16-data-grid-8-config"),
])
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_train_and_ablate_refuse_a_dataset_the_config_cannot_train_on(
        tmp_path, capsys, monkeypatch, command, grid, kept, message):
    # each ended in a traceback with exit 1, the grid mismatch from inside the loss
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(trainer, "train", no_training)
    _, config = _checkpoint_and_config(tmp_path)
    data = tmp_path / "data.jsonl"
    pairs, manifest = dp.generate_dataset({"color": 2}, seed=1, grid=grid)
    dp.write_dataset(pairs[:kept], manifest, data)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--data", str(data),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{data}: ") and message in err and err.count("\n") == 1
    assert not out.exists()


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
              "eval": ["--ckpt", str(ckpt), "--gen"],
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


def test_eval_failed_replace_keeps_old_file(tmp_path, monkeypatch):
    ckpt, _ = _checkpoint_and_config(tmp_path)
    out = tmp_path / "eval.json"
    out.write_text("old scores\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        cli.main(["eval", "--ckpt", str(ckpt), "--gen",
                  "--prompts-per-dim", "1", "--samples-per-prompt", "1",
                  "--out", str(out)])
    assert out.read_text() == "old scores\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_eval_has_no_format_option(tmp_path, capsys):
    # eval writes only the Scorecard JSON
    ckpt, _ = _checkpoint_and_config(tmp_path)
    out = tmp_path / "eval.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--ckpt", str(ckpt), "--gen", "--format", "json",
                  "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err
    assert not out.exists()


def test_eval_refuses_a_prompt_whose_label_contradicts_it(tmp_path, capsys):
    # a colour caption labelled "shape" would be scored under the wrong column
    ckpt, _ = _checkpoint_and_config(tmp_path)
    prompt = {"dimension": "shape", "relation": None, "count": None,
              "objects": [{"shape": "square", "color": "red", "texture": None}]}
    prompts, out = tmp_path / "prompts.jsonl", tmp_path / "eval.json"
    args = ["eval", "--ckpt", str(ckpt), "--prompts", str(prompts),
            "--samples-per-prompt", "1", "--out", str(out)]
    good = dict(prompt, dimension="color")
    prompts.write_text(json.dumps(good) + "\n\n" + json.dumps(prompt) + "\n")
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{prompts}: line 3: ") and "labelled 'shape' reads as 'color'" in err
    assert not out.exists()

    prompts.write_text(json.dumps(good) + "\n")
    assert cli.main(args) == 0
    assert list(json.loads(out.read_text())["per_dimension"]) == ["color"]


@pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank"])
def test_eval_refuses_a_prompt_file_without_prompts(tmp_path, capsys, text):
    # it used to exit 0 with an empty Scorecard of validity 0
    ckpt, _ = _checkpoint_and_config(tmp_path)
    prompts, out = tmp_path / "prompts.jsonl", tmp_path / "eval.json"
    prompts.write_text(text)
    assert cli.main(["eval", "--ckpt", str(ckpt), "--prompts", str(prompts),
                     "--samples-per-prompt", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"{prompts}: no prompts\n"
    assert not out.exists()


@pytest.mark.parametrize("change,message", [
    pytest.param({"count": True}, "count must be an integer, got True", id="count-true"),
    pytest.param({"count": 2.0}, "count must be an integer, got 2.0", id="count-float"),
    pytest.param({"count": 2, "note": "two discs"}, "unknown keys: note", id="unknown-key"),
])
def test_eval_refuses_a_malformed_prompt_naming_its_line(tmp_path, capsys, change, message):
    # each was read as the integer-count caption it resembles
    ckpt, _ = _checkpoint_and_config(tmp_path)
    good = {"dimension": "numeracy", "relation": None, "count": 2,
            "objects": [{"shape": "disc", "color": None, "texture": None}]}
    prompts, out = tmp_path / "prompts.jsonl", tmp_path / "eval.json"
    prompts.write_text(json.dumps(good) + "\n" + json.dumps({**good, **change}) + "\n")
    assert cli.main(["eval", "--ckpt", str(ckpt), "--prompts", str(prompts),
                     "--samples-per-prompt", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{prompts}: line 2: ") and message in err and err.count("\n") == 1
    assert not out.exists()
