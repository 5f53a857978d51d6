"""The one-step-ahead draw helper, and the rule that its worker thread runs
no public prefdiff function: every one is called on the main thread."""

import importlib
import inspect
import operator
import pkgutil
import sys
import threading
import time

import numpy as np
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


@pytest.mark.usefixtures("no_leaked_threads")
def test_a_submitted_call_runs_on_the_worker_after_the_pending_draw():
    events = []

    def draw(k):
        time.sleep(0.02)
        events.append((f"draw {k}", threading.current_thread()))
        return k

    def call(tag):
        events.append((tag, threading.current_thread()))
        return tag

    with df.prefetched(draw, 3) as draws:
        assert next(draws) == 0
        assert draws.submit(call, "call").result() == "call"
        assert list(draws) == [1, 2]
    assert [name for name, _ in events] == ["draw 0", "draw 1", "call", "draw 2"]
    assert len({thread for _, thread in events}) == 1
    assert events[0][1] is not threading.main_thread()


@pytest.mark.usefixtures("no_leaked_threads")
def test_a_submitted_call_sees_the_callers_error_state_and_raises_to_it():
    with df.prefetched(lambda k: k, 2) as draws:
        with np.errstate(divide="raise"):
            state = draws.submit(np.geterr)
            failing = draws.submit(np.divide, np.float64(1.0), np.float64(0.0))
        assert state.result()["divide"] == "raise"
        with pytest.raises(FloatingPointError):
            failing.result()
        with pytest.raises(KeyError, match="lost"):
            draws.submit(operator.getitem, {}, "lost").result()
        assert list(draws) == [0, 1]


@pytest.mark.usefixtures("no_leaked_threads")
def test_a_cancelled_call_never_runs():
    release, ran = threading.Event(), []

    def draw(k):
        assert release.wait(timeout=10)
        return k

    with df.prefetched(draw, 1) as draws:
        queued = draws.submit(ran.append, "call")
        assert queued.cancel()
        release.set()
        assert list(draws) == [0]
    assert ran == [] and queued.cancelled()


@pytest.mark.usefixtures("no_leaked_threads")
def test_prefetched_joins_its_worker_with_a_submitted_call_pending():
    with pytest.raises(KeyError):
        with df.prefetched(lambda k: time.sleep(0.01), 3) as draws:
            draws.submit(time.sleep, 0.01)
            raise KeyError("caller failed")
    with df.prefetched(lambda k: k, 3) as draws:
        next(draws)
        draws.submit(time.sleep, 0.01)


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
                 "diffusion.prefetched", "diffusion.ddpm_sample_batch", "net.predict_noise_rows",
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

    def recorder(params, inp, acts, silu):
        # only the policy's pass caches activations for the backward pass
        passes.append((acts is not None,
                       threading.current_thread() is threading.main_thread()))
        return core(params, inp, acts, silu)

    monkeypatch.setattr(net, "_forward_rows", recorder)
    config = trainer.TrainConfig(method=method, steps=3, batch_size=4, grid=8, hidden=16,
                                 time_dim=8, T=6, seed=1)
    trainer.train(config, small_pairs)
    assert [on_main for policy, on_main in passes if policy] == [True] * 3
    reference = [on_main for policy, on_main in passes if not policy]
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


@pytest.mark.usefixtures("no_leaked_threads")
@pytest.mark.parametrize("method", trainer.METHODS)
def test_the_optimiser_update_runs_on_the_draw_worker_and_the_main_thread(monkeypatch,
                                                                         small_pairs, method):
    # each step's Adam update is split: one half on the worker, queued behind
    # the next draw, the other on the main thread. The main thread's half
    # waits for the worker's to start, so that the test does not depend on
    # the worker being scheduled before the main thread's half is done
    # (if it is not, the main thread takes the worker's half back)
    halves, started = [], threading.Event()
    core = trainer._adam_update

    def recorder(*args):
        on_main = threading.current_thread() is threading.main_thread()
        if on_main:
            assert started.wait(timeout=10)
            started.clear()
        halves.append(on_main)
        if not on_main:
            started.set()
        return core(*args)

    monkeypatch.setattr(trainer, "_adam_update", recorder)
    config = trainer.TrainConfig(method=method, steps=3, batch_size=4, grid=8, hidden=16,
                                 time_dim=8, T=6, seed=1)
    trainer.train(config, small_pairs)
    assert halves == [False, True] * 3


@pytest.mark.usefixtures("no_leaked_threads")
@pytest.mark.parametrize("method", trainer.METHODS)
def test_weight_gradient_products_run_on_the_draw_worker_or_are_taken_back(monkeypatch,
                                                                           small_pairs, method):
    # net.backward queues each layer's dW product on the worker, behind the
    # next draw, and carries g . W^T down the stack on the main thread. Each
    # step of that chain waits for the product queued before it to start,
    # and the worker holds layer 1's product until the main thread has run
    # layer 0's, so that the test does not depend on how the two threads are
    # scheduled: layers 2 and 1 run on the worker, and the main thread takes
    # layer 0's back because the worker has not started it
    events, started, released = [], threading.Event(), threading.Event()
    matmul, first_layer = np.matmul, net._first_layer_grad
    image_dim = 8 * 8 * 3

    def ran(name):
        on_main = threading.current_thread() is threading.main_thread()
        events.append((name, "main" if on_main else "worker"))
        return on_main

    def product(name, core, *args):
        if ran(name):
            released.set()
        else:
            started.set()
            if name == "dW1":
                assert released.wait(timeout=10)
                released.clear()
        return core(*args)

    def recorded_matmul(*args, **kwargs):
        if len(args) == 3:              # h^T . g into a dW view
            layer = 2 if args[2].shape[1] == image_dim else 1
            return product(f"dW{layer}", matmul, *args)
        if len(args) == 2 and not kwargs:   # g . W^T
            assert started.wait(timeout=10)
            started.clear()
            ran(f"g.W{2 if args[1].shape[0] == image_dim else 1}^T")
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded_matmul)
    monkeypatch.setattr(net, "_first_layer_grad",
                        lambda *args: product("dW0", first_layer, *args))
    config = trainer.TrainConfig(method=method, steps=3, batch_size=4, grid=8, hidden=16,
                                 time_dim=8, T=6, seed=1)
    trainer.train(config, small_pairs)
    assert events == [("dW2", "worker"), ("g.W2^T", "main"), ("dW1", "worker"),
                      ("g.W1^T", "main"), ("dW0", "main")] * 3
