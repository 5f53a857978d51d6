"""The one-step-ahead draw helper, and the rule that its worker thread runs
no public prefdiff function: every one is called on the main thread."""

import importlib
import inspect
import pkgutil
import sys
import threading

import pytest

import prefdiff
from prefdiff import datapipe as dp
from prefdiff import diffusion as df
from prefdiff import evalbench as eb
from prefdiff import net
from prefdiff import trainer


@pytest.mark.usefixtures("no_leaked_threads")
def test_prefetched_yields_every_draw_in_order_one_ahead():
    calls = []

    def draw(k):
        calls.append(k)
        return k * k

    with df.prefetched(draw, 5) as draws:
        got = []
        for value in draws:
            # the next draw has been started, never the one after it
            assert max(calls) <= len(got) + 1
            got.append(value)
    assert got == [0, 1, 4, 9, 16]
    assert calls == [0, 1, 2, 3, 4]


@pytest.mark.usefixtures("no_leaked_threads")
def test_prefetched_runs_draws_on_one_worker_thread():
    threads = []
    with df.prefetched(lambda k: threads.append(threading.current_thread()), 4) as draws:
        list(draws)
    assert len(set(threads)) == 1 and threads[0] is not threading.main_thread()


@pytest.mark.usefixtures("no_leaked_threads")
def test_prefetched_zero_count_draws_nothing():
    calls = []
    before = threading.active_count()
    with df.prefetched(calls.append, 0) as draws:
        assert threading.active_count() == before
        assert list(draws) == []
    assert calls == []


@pytest.mark.usefixtures("no_leaked_threads")
def test_prefetched_joins_its_worker_when_the_caller_stops_early_or_raises():
    with df.prefetched(lambda k: k, 10) as draws:
        assert next(draws) == 0
    with pytest.raises(KeyError):
        with df.prefetched(lambda k: k, 10) as draws:
            for value in draws:
                if value == 3:
                    raise KeyError(value)


@pytest.mark.usefixtures("no_leaked_threads")
def test_prefetched_raises_a_draw_error_when_that_value_is_requested():
    def draw(k):
        if k == 2:
            raise ValueError("draw 2 failed")
        return k

    got = []
    with pytest.raises(ValueError, match="draw 2 failed"):
        with df.prefetched(draw, 5) as draws:
            for value in draws:
                got.append(value)
    assert got == [0, 1]


def _public_functions():
    """(module, name, function) for every public function a prefdiff module
    defines, as the benchmark's tracer selects them."""
    found = []
    for info in pkgutil.iter_modules(prefdiff.__path__):
        module = importlib.import_module(f"prefdiff.{info.name}")
        for name, obj in sorted(vars(module).items()):
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                found.append((module, name, obj))
    return found


@pytest.fixture
def main_thread_recorder(monkeypatch):
    """Wrap every public prefdiff function, at every module attribute that
    holds it, with a recorder of the calls made off the main thread."""
    calls, off_main = [], []
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "prefdiff" or n.startswith("prefdiff."))]
    for module, name, fn in _public_functions():
        qualified = f"{module.__name__}.{name}"

        def recorder(*args, _fn=fn, _name=qualified, **kwargs):
            calls.append(_name)
            if threading.current_thread() is not threading.main_thread():
                off_main.append((_name, threading.current_thread().name))
            return _fn(*args, **kwargs)

        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is fn:
                    monkeypatch.setattr(ns, attr, recorder)
    return calls, off_main


def test_main_thread_recorder_sees_calls_from_other_threads(main_thread_recorder):
    calls, off_main = main_thread_recorder
    worker = threading.Thread(target=lambda: df.make_schedule(3, 0.1, 0.2))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert calls == ["prefdiff.diffusion.make_schedule"]
    assert [name for name, _ in off_main] == ["prefdiff.diffusion.make_schedule"]


@pytest.mark.usefixtures("no_leaked_threads")
def test_the_draw_worker_runs_no_prefdiff_function(main_thread_recorder):
    # the benchmark's span tracer is single-threaded: a prefdiff function
    # called from the worker would corrupt its span stack
    calls, off_main = main_thread_recorder
    pairs, _ = dp.generate_dataset({"color": 4, "numeracy": 2}, seed=3, grid=8)
    for method in trainer.METHODS:
        config = trainer.TrainConfig(method=method, steps=3, batch_size=4, grid=8, hidden=16,
                                     time_dim=8, T=6, seed=1)
        params, _ = trainer.train(config, pairs)
    prompts = eb.sample_prompts(("color", "shape"), 2, seed=5)
    eb.evaluate(params, prompts, 2, config.schedule(), seed=7)
    assert off_main == []
    for name in ("trainer.train", "losses.policy_half", "net.backward",
                 "diffusion.prefetched", "diffusion.ddpm_sample_batch", "net.forward_batch",
                 "toyworld.vqa_check"):
        assert f"prefdiff.{name}" in calls


@pytest.fixture(scope="module")
def small_pairs():
    pairs, _ = dp.generate_dataset({"color": 4, "numeracy": 2}, seed=3, grid=8)
    return pairs


@pytest.mark.usefixtures("no_leaked_threads")
@pytest.mark.parametrize("method", trainer.METHODS)
def test_the_reference_forward_pass_runs_on_the_draw_worker(monkeypatch, small_pairs, method):
    # a preference step's frozen-reference pass runs one step ahead on the
    # worker, the policy's on the main thread; SFT has no reference pass
    passes = []
    core = net._forward_rows

    def recorder(params, *args):
        passes.append((params.trainable, threading.current_thread() is threading.main_thread()))
        return core(params, *args)

    monkeypatch.setattr(net, "_forward_rows", recorder)
    config = trainer.TrainConfig(method=method, steps=3, batch_size=4, grid=8, hidden=16,
                                 time_dim=8, T=6, seed=1)
    trainer.train(config, small_pairs)
    assert [on_main for trainable, on_main in passes if trainable] == [True] * 3
    reference = [on_main for trainable, on_main in passes if not trainable]
    assert reference == ([] if method == "sft" else [False] * 3)


@pytest.mark.usefixtures("no_leaked_threads")
@pytest.mark.parametrize("method", trainer.METHODS)
def test_every_method_noises_and_assembles_its_batch_on_the_draw_worker(monkeypatch,
                                                                        small_pairs, method):
    calls = []
    for module, name in ((df, "_q_sample"), (net, "_assemble_input")):
        def recorder(*args, _core=getattr(module, name), _name=name):
            calls.append((_name, threading.current_thread() is threading.main_thread()))
            return _core(*args)

        monkeypatch.setattr(module, name, recorder)
    config = trainer.TrainConfig(method=method, steps=3, batch_size=4, grid=8, hidden=16,
                                 time_dim=8, T=6, seed=1)
    trainer.train(config, small_pairs)
    assert ("_assemble_input", False) in calls and ("_q_sample", False) in calls
    assert [name for name, on_main in calls if on_main] == []
