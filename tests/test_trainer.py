import json
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import run_now

from prefdiff import cli
from prefdiff import datapipe as dp
from prefdiff import diffusion as df
from prefdiff import losses
from prefdiff import net
from prefdiff import trainer


def tiny_config(**overrides):
    base = dict(method="sft", steps=20, batch_size=8, grid=8, hidden=32,
                time_dim=8, T=10, seed=3, dtype="float64", pretrain_steps=0,
                learning_rate=1e-3)
    base.update(overrides)
    return trainer.TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_dataset():
    pairs, _ = dp.generate_dataset({"color": 16}, seed=7, grid=8)
    return pairs


def test_config_validation():
    with pytest.raises(ValueError, match="method"):
        trainer.validate_config(tiny_config(method="ppo"))
    with pytest.raises(ValueError, match="batch_size"):
        trainer.validate_config(tiny_config(batch_size=0))
    with pytest.raises(ValueError, match="learning_rate"):
        trainer.validate_config(tiny_config(learning_rate=0.0))
    with pytest.raises(ValueError, match="dtype"):
        trainer.validate_config(tiny_config(dtype="float16"))
    with pytest.raises(ValueError, match="parameterization"):
        trainer.validate_config(tiny_config(parameterization="v"))
    with pytest.raises(ValueError, match="omega_mode"):
        trainer.validate_config(tiny_config(omega_mode="cosine"))
    trainer.validate_config(tiny_config())


@pytest.mark.parametrize("field,value", [("time_dim", 7), ("time_dim", 1), ("time_dim", 0),
                                         ("pretrain_steps", -1),
                                         ("eval_samples_per_prompt", 0),
                                         ("eval_samples_per_prompt", -3),
                                         ("beta_start", 0.0), ("beta_end", 1.0),
                                         ("beta_start", 0.5),
                                         ("steps", 2.5), ("steps", True), ("steps", "ten"),
                                         ("batch_size", 8.0), ("time_dim", 8.0),
                                         ("seed", 0.5), ("T", True),
                                         ("learning_rate", float("nan")),
                                         ("beta", float("inf")), ("learning_rate", True),
                                         ("seed", -1)])
def test_config_validation_names_the_field(field, value):
    # odd time_dim used to fail at step 0 inside a matmul, a negative
    # pretrain_steps inside run_ablation, and no eval samples gave empty
    # scorecards that ablate reported as ok; a schedule with beta_start 0,
    # beta_end 1 or beta_start above beta_end (0.2) used to pass validation;
    # steps 2.5 trained 3 steps, steps True 1 step, and steps "ten" was a
    # TypeError; a NaN learning rate or an infinite beta diverged at step 1,
    # and a negative seed failed in ablate after its inputs were read
    with pytest.raises(ValueError, match=field):
        trainer.validate_config(tiny_config(**{field: value}))


def test_integer_fields_take_numpy_integers():
    cfg = tiny_config(steps=np.int64(3), hidden=np.int32(16), seed=np.uint8(4))
    assert (cfg.steps, cfg.net_config().hidden, cfg.seed) == (3, 16, 4)


def test_warmup_lr_ramp():
    assert trainer.warmup_lr(0, 1e-3, 50) == 0.0
    assert trainer.warmup_lr(50, 1e-3, 50) == 1e-3
    assert trainer.warmup_lr(25, 1e-3, 50) == pytest.approx(5e-4)
    assert trainer.warmup_lr(500, 1e-3, 50) == 1e-3
    assert trainer.warmup_lr(0, 1e-3, 0) == 1e-3
    with pytest.raises(ValueError):
        trainer.warmup_lr(-1, 1e-3, 50)


def adam_setup(shape=(2, 2)):
    cfg = net.NetConfig(grid=2, channels=1, hidden=2, time_dim=2)
    params = net.init_params(cfg, seed=0)
    return params, trainer.AdamState.zeros(params)


def test_adam_zero_gradient_is_identity():
    params, state = adam_setup()
    before = [(w.copy(), b.copy()) for w, b in params.layers]
    zeros = net.Gradients(cfg=params.cfg, flat=np.zeros_like(params.flat))
    trainer.adam_step(params, zeros, state, lr=0.1)
    assert state.step == 1
    for (w, b), (w0, b0) in zip(params.layers, before):
        assert np.array_equal(w, w0) and np.array_equal(b, b0)


def test_adam_first_step_scalar_hand_check():
    # g=1, lr=0.1: m_hat=1, v_hat=1 -> delta = -0.1/(1+eps)
    params, state = adam_setup()
    grads = net.Gradients(cfg=params.cfg, flat=np.ones_like(params.flat))
    before = params.layers[0][0].copy()
    trainer.adam_step(params, grads, state, lr=0.1)
    delta = params.layers[0][0] - before
    assert np.allclose(delta, -0.1 / (1 + 1e-8), rtol=1e-12)


def test_adam_equal_grads_equal_updates():
    params, state = adam_setup()
    grads = net.Gradients(cfg=params.cfg, flat=np.full_like(params.flat, 0.7))
    before = [w.copy() for w, _ in params.layers]
    trainer.adam_step(params, grads, state, lr=0.05)
    deltas = [w - w0 for (w, _), w0 in zip(params.layers, before)]
    flat = np.concatenate([d.reshape(-1) for d in deltas])
    assert np.allclose(flat, flat[0])


def _textbook_adam(params, grads_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    # the plain-expression Adam that adam_step must reproduce bit for bit
    layers = [[w.copy(), b.copy()] for w, b in params.layers]
    m = [[np.zeros_like(a) for a in pair] for pair in layers]
    v = [[np.zeros_like(a) for a in pair] for pair in layers]
    for t, grads in enumerate(grads_seq, start=1):
        c1, c2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
        for li, pair in enumerate(layers):
            for j in range(2):
                g = grads.layers[li][j]
                m[li][j] = beta1 * m[li][j] + (1.0 - beta1) * g
                v[li][j] = beta2 * v[li][j] + (1.0 - beta2) * np.square(g)
                pair[j] = pair[j] - lr * (m[li][j] / c1) / (np.sqrt(v[li][j] / c2) + eps)
    return layers


def _strided(a):
    """``a``'s values in a flat buffer that is not C-contiguous: every other
    element of one twice its size."""
    out = np.zeros(2 * a.size, a.dtype)[::2]
    out[...] = a
    return out


def _adam_case(cfg, dtype, strided=()):
    """Parameters and five steps of gradients; the flat buffers named in
    ``strided`` (any of "params", "grads", "state") are not C-contiguous."""
    params = net.init_params(cfg, seed=2, dtype=dtype)
    rng = np.random.default_rng(9)
    grads_seq = []
    for k in range(5):
        grads = net.Gradients(cfg=cfg, flat=np.empty_like(params.flat))
        for w, b in grads.layers:
            w[...] = rng.normal(0, 10.0 ** -k, w.shape)
            b[...] = rng.normal(0, 10.0 ** -k, b.shape)
        grads_seq.append(grads)
    expected = _textbook_adam(params, grads_seq, lr=3e-3)
    state = trainer.AdamState.zeros(params)
    if "params" in strided:
        params = net.DenoiserParams(cfg=cfg, flat=_strided(params.flat))
    if "grads" in strided:
        grads_seq = [net.Gradients(cfg=cfg, flat=_strided(g.flat)) for g in grads_seq]
    if "state" in strided:
        state.m, state.v = _strided(state.m), _strided(state.v)
    return params, grads_seq, state, expected


@pytest.mark.parametrize("strided", [(), ("params", "grads", "state"), ("grads",),
                                     ("state",)],
                         ids=["contiguous", "strided", "strided-grads", "strided-state"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_is_bitwise_the_textbook_expression(worker, dtype, strided):
    # the halves of the flat buffers meet inside W0 (2512 elements, W0 holds
    # 1408), strided or not; an array seen through a copy instead of a view
    # would lose its update
    cfg = net.NetConfig(grid=4, channels=3, hidden=16, time_dim=4)
    params, grads_seq, state, expected = _adam_case(cfg, dtype, strided)
    arrays = [a for pair in params.layers for a in pair]
    for grads in grads_seq:
        trainer.adam_step(params, grads, state, lr=3e-3, worker=worker)
    assert all(a is b for a, b in zip((a for pair in params.layers for a in pair), arrays))
    for (w, b), (w_ref, b_ref) in zip(params.layers, expected):
        assert w.dtype == dtype and b.dtype == dtype
        assert w.tobytes() == w_ref.tobytes() and b.tobytes() == b_ref.tobytes()


def test_adam_halves_are_views_of_the_flat_buffers(monkeypatch):
    cfg = net.NetConfig(grid=4, channels=3, hidden=16, time_dim=4)
    params, grads_seq, state, _ = _adam_case(cfg, np.float32)
    update, calls = trainer._adam_update, []

    def recorded(*args):
        calls.append(args[:4])
        update(*args)

    monkeypatch.setattr(trainer, "_adam_update", recorded)
    trainer.adam_step(params, grads_seq[0], state, lr=3e-3, worker=run_now)
    half = params.param_count() // 2
    assert half == 1256 and len(calls) == 2
    flats = (params.flat, grads_seq[0].flat, state.m, state.v)
    for pieces, (part, other) in zip(calls, ((slice(half), slice(half, None)),
                                             (slice(half, None), slice(half)))):
        for piece, flat in zip(pieces, flats, strict=True):
            assert piece.shape == flat[part].shape
            assert np.shares_memory(piece, flat[part])
            assert not np.shares_memory(piece, flat[other])


@pytest.mark.usefixtures("no_leaked_threads")
def test_train_zero_steps_returns_initial_params(tiny_dataset):
    cfg = tiny_config(steps=0)
    init = net.init_params(cfg.net_config(), seed=cfg.seed, dtype=np.float64)
    params, log = trainer.train(cfg, tiny_dataset, init_params=init)
    assert net.params_equal(params, init)
    assert log.records == []


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError, match="non-empty"):
        trainer.train(tiny_config(), [])


@pytest.mark.usefixtures("no_leaked_threads")
@pytest.mark.parametrize("method", trainer.METHODS)
def test_train_every_method_runs_and_is_deterministic(tiny_dataset, method):
    cfg = tiny_config(method=method, steps=8)
    params_a, log_a = trainer.train(cfg, tiny_dataset)
    params_b, log_b = trainer.train(cfg, tiny_dataset)
    assert log_a == log_b
    assert net.checkpoint_checksum(params_a) == net.checkpoint_checksum(params_b)
    assert len(log_a.records) == 8
    assert all(np.isfinite(r.loss) for r in log_a.records)


def _sequential_train(config, dataset):
    """The training loop with each step's draws taken in line, before the
    step computes: the reference ``trainer.train`` must reproduce bitwise."""
    dtype = np.dtype(config.dtype)
    sched = config.schedule()
    params = net.init_params(config.net_config(), seed=config.seed, dtype=dtype)
    ref = net.clone_frozen(params)
    layout = losses.LAYOUTS[config.method]
    arrays = losses._stack_pairs(dataset, dtype, (config.grid, config.grid, config.channels),
                                 layout.masks)
    state = trainer.AdamState.zeros(params)
    rng = np.random.default_rng(np.random.SeedSequence(dp._child_seed(config.seed, "train")))
    shape = (config.batch_size,) + arrays["x0_w"].shape[1:]
    records = []
    for step in range(config.steps):
        idx = rng.integers(0, len(dataset), size=config.batch_size)
        t_arr = rng.integers(0, sched.T, size=config.batch_size)
        noise = [rng.standard_normal(shape).astype(dtype) for _ in layout.noised]
        batch = {name: None if a is None else a[idx] for name, a in arrays.items()}
        loss = losses.batch_loss(config.method, params, ref, batch, noise, t_arr,
                                 config.beta, sched)
        grads = loss.backward()
        lr = trainer.warmup_lr(step, config.learning_rate, config.warmup_steps)
        trainer.adam_step(params, grads, state, lr)
        records.append(trainer.StepRecord(step=step, loss=loss.value,
                                          grad_norm=grads.global_norm(),
                                          margin=loss.margin, lr=lr,
                                          reward_accuracy=loss.reward_accuracy))
    return params, records


@pytest.fixture(scope="module")
def mixed_dataset():
    # colour pairs carry region masks, numeracy pairs do not
    pairs, _ = dp.generate_dataset({"color": 6, "numeracy": 4}, seed=8, grid=8)
    return pairs


@pytest.mark.usefixtures("no_leaked_threads")
@pytest.mark.parametrize("parameterization,omega_mode", [("eps", "constant"), ("x0", "snr")])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("method", trainer.METHODS)
def test_train_is_bitwise_the_sequential_loop(mixed_dataset, method, dtype,
                                              parameterization, omega_mode):
    # the draws run a step ahead on a worker thread; they must reach every
    # step exactly as the in-line draws of the sequential loop do
    cfg = tiny_config(method=method, steps=6, dtype=dtype, warmup_steps=2,
                      parameterization=parameterization, omega_mode=omega_mode)
    params, log = trainer.train(cfg, mixed_dataset)
    expected_params, expected_records = _sequential_train(cfg, mixed_dataset)
    assert net.checkpoint_checksum(params) == net.checkpoint_checksum(expected_params)
    assert log.records == expected_records
    assert params.flat.dtype == np.dtype(dtype)


@pytest.mark.parametrize("method", trainer.METHODS)
def test_only_the_region_weighted_method_stacks_mask_rows(monkeypatch, mixed_dataset, method):
    calls = []
    core = losses._mask_rows
    monkeypatch.setattr(losses, "_mask_rows", lambda *args: calls.append(args) or core(*args))
    trainer.train(tiny_config(method=method, steps=2), mixed_dataset)
    assert bool(calls) == (method == "bidpo_region")


def test_train_reference_is_immutable(tiny_dataset):
    cfg = tiny_config(method="bidpo", steps=15)
    init = net.init_params(cfg.net_config(), seed=9, dtype=np.float64)
    before = net.checkpoint_checksum(init)
    params, _ = trainer.train(cfg, tiny_dataset, init_params=init)
    assert net.checkpoint_checksum(init) == before
    assert net.checkpoint_checksum(params) != before


def test_sft_loss_decreases_on_identical_pairs():
    # default hyperparameters, identical pairs: smoothed loss must fall
    pairs, _ = dp.generate_dataset({"color": 1}, seed=11, grid=16)
    dataset = pairs * 8
    cfg = trainer.TrainConfig(method="sft", steps=100, seed=3)
    _, log = trainer.train(cfg, dataset)
    smoothed = [np.mean([r.loss for r in log.records[i:i + 10]])
                for i in range(0, 100, 10)]
    drops = sum(1 for a, b in zip(smoothed, smoothed[1:]) if b < a)
    assert drops >= 8
    assert smoothed[-1] < smoothed[0]


def test_bidpo_margin_goes_positive(tiny_dataset):
    cfg = tiny_config(method="bidpo", steps=150, warmup_steps=10,
                      learning_rate=3e-3)
    _, log = trainer.train(cfg, tiny_dataset)
    tail = np.mean([r.margin for r in log.records[-20:]])
    assert tail > 0.0


@pytest.mark.usefixtures("no_leaked_threads")
def test_train_divergence_reports_step(tiny_dataset):
    # Adam's second moment overflows to inf here, so its updates go silently
    # to zero while the loss stays finite: only the gradient norm shows it
    cfg = tiny_config(method="sft", steps=50, learning_rate=1e30, warmup_steps=0)
    with pytest.raises(df.NumericDivergenceError,
                       match=r"^step \d+: non-finite gradient norm"):
        trainer.train(cfg, tiny_dataset)
    # a non-finite loss is named by its step too; the caller's error state
    # also holds for the reference's pass on the draw worker
    bad = [replace(tiny_dataset[0], x0_w=np.full_like(tiny_dataset[0].x0_w, np.inf))]
    for method in ("sft", "bidpo"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(df.NumericDivergenceError, match="^step 0: non-finite loss"):
                with np.errstate(invalid="ignore"):
                    trainer.train(tiny_config(method=method, steps=2), bad)
        assert caught == []


def test_config_round_trip_and_override(tmp_path):
    cfg = tiny_config(method="bidpo_region")
    path = tmp_path / "config.json"
    trainer.save_config(cfg, path)
    loaded = trainer.load_config(path)
    assert loaded == cfg
    overridden = trainer.load_config(path, method="sft")
    assert overridden.method == "sft"
    record = json.loads(path.read_text())
    path.write_text(json.dumps({**record, "caption_dropout": 0.1, "eval_every": 5}))
    with pytest.raises(ValueError, match="unknown keys.*caption_dropout, eval_every"):
        trainer.load_config(path)
    path.write_text(json.dumps({**record, "version": 1}))
    with pytest.raises(ValueError, match="run-config v3"):
        trainer.load_config(path)
    path.write_text(json.dumps({**record, "format": "other"}))
    with pytest.raises(ValueError, match="run-config"):
        trainer.load_config(path)


def test_load_config_refuses_a_file_it_cannot_build_with_its_path(tmp_path, capsys):
    # load_config leaves the path to its caller, which names it once
    path = tmp_path / "config.json"
    trainer.save_config(tiny_config(), path)
    record = json.loads(path.read_text())
    for text, message in (("[]", "not a JSON object"),
                          (json.dumps({**record, "learning_rate": "fast"}), "wrong type")):
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            trainer.load_config(path)
        assert cli.main(["train", "--config", str(path), "--data", str(tmp_path / "data.jsonl"),
                         "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: ") and message in err and err.count(str(path)) == 1


def test_write_metrics_jsonl(tmp_path, tiny_dataset):
    for method in ("sft", "bidpo"):
        _, log = trainer.train(tiny_config(method=method, steps=5), tiny_dataset)
        path = tmp_path / f"{method}.jsonl"
        trainer.write_metrics(log, path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 5
        assert lines[0]["kind"] == "step"
        assert {"step", "loss", "grad_norm", "margin", "lr", "reward_accuracy"} <= set(lines[0])
        accuracies = [line["reward_accuracy"] for line in lines]
        if method == "sft":
            assert accuracies == [None] * 5
        else:
            assert all(0.0 <= a <= 1.0 for a in accuracies)


@pytest.mark.parametrize("write", [
    lambda path: net.save_checkpoint(net.init_params(tiny_config().net_config(), seed=0),
                                     tiny_config().schedule(), path),
    lambda path: trainer.save_config(tiny_config(), path),
    lambda path: trainer.write_metrics(trainer.MetricsLog(), path),
], ids=["save_checkpoint", "save_config", "write_metrics"])
def test_writer_failed_replace_keeps_old_file(tmp_path, monkeypatch, write):
    path = tmp_path / "out.json"
    path.write_text("old\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write(path)
    assert path.read_text() == "old\n"
    assert not list(tmp_path.glob("*.tmp"))
