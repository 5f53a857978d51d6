import pytest

from prefdiff import cli
from prefdiff import datapipe as dp


@pytest.mark.parametrize("corruption_rate", [0.0, 0.5])
def test_gen_data_exits_0_without_a_generation_shortfall(tmp_path, capsys, corruption_rate):
    out = tmp_path / "data.jsonl"
    assert cli.main(["gen-data", "--dims", "color", "--count-per-dim", "4", "--grid", "8",
                     "--corruption-rate", str(corruption_rate), "--out", str(out)]) == 0
    pairs, manifest = dp.read_dataset(out)
    assert manifest.realized == {"color": len(pairs)}
    assert len(pairs) == 4 if corruption_rate == 0.0 else len(pairs) < 4
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
