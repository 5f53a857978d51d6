"""The tracer on synthetic calls with a hand-driven clock, and on prefdiff."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from perfbench.tracer import Tracer  # noqa: E402


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def fake_package():
    """``fakepkg.core`` defines the functions; ``fakepkg.user`` imports two of
    them by name, as ``from .core import inner, _helper`` would."""
    clock = Clock()
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")
    code = '''
def leaf():
    clock.advance(0.5)

def inner():
    clock.advance(3.0)
    leaf()

def outer():
    clock.advance(1.0)
    inner()
    clock.advance(2.0)
    inner()

def fails():
    clock.advance(0.25)
    raise KeyError("boom")

def _helper():
    return "private"
'''
    core.__dict__["clock"] = clock
    exec(compile(code, "fakepkg/core.py", "exec"), core.__dict__)
    for fn in ("leaf", "inner", "outer", "fails", "_helper"):
        core.__dict__[fn].__module__ = "fakepkg.core"
    user.inner = core.inner
    user._helper = core._helper
    modules = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(modules)
    try:
        yield clock, core, user
    finally:
        for name in modules:
            sys.modules.pop(name, None)


def test_self_time_is_span_minus_children(fake_package):
    clock, core, _ = fake_package
    tracer = Tracer(clock=clock)
    with tracer.installed("fakepkg", ["core"]):
        core.outer()
    # leaf: 2 x 0.5; inner: 2 x (3 + 0.5) spans, 2 x 3 self;
    # outer: 1 + 3.5 + 2 + 3.5 = 10 span, 3 self
    assert (tracer.calls("core.outer"), tracer.calls("core.inner"),
            tracer.calls("core.leaf")) == (1, 2, 2)
    assert tracer.total_s("core.outer") == pytest.approx(10.0)
    assert tracer.self_s("core.outer") == pytest.approx(3.0)
    assert tracer.total_s("core.inner") == pytest.approx(7.0)
    assert tracer.self_s("core.inner") == pytest.approx(6.0)
    assert tracer.self_s("core.leaf") == pytest.approx(1.0)
    total_self = sum(tracer.self_s(n) for n in ("core.outer", "core.inner", "core.leaf"))
    assert total_self == pytest.approx(tracer.total_s("core.outer"))


def test_phases_and_exceptions_are_recorded(fake_package):
    clock, core, _ = fake_package
    tracer = Tracer(clock=clock)
    with tracer.installed("fakepkg", ["core"]):
        with tracer.in_phase("a"):
            core.leaf()
        with tracer.in_phase("b"):
            core.leaf()
            core.leaf()
            with pytest.raises(KeyError):
                core.fails()
    assert tracer.calls("core.leaf", "a") == 1
    assert tracer.calls("core.leaf", "b") == 2
    assert tracer.calls("core.leaf") == 3
    assert tracer.module_calls("core", "b") == 3
    assert tracer.calls("core.fails", "b") == 1
    assert tracer.raised("core.fails", "KeyError", "b") == 1
    assert tracer.self_s("core.fails") == pytest.approx(0.25)


def test_every_binding_is_wrapped_and_restored(fake_package):
    clock, core, user = fake_package
    originals = (core.inner, user.inner, user._helper)
    tracer = Tracer(clock=clock)
    with tracer.installed("fakepkg", ["core"], extra=["core._helper"]):
        assert user.inner is core.inner is not originals[0]
        assert user._helper is core._helper is not originals[2]
        user.inner()
        assert user._helper() == "private"
        assert tracer.calls("core.inner") == 1
        assert tracer.calls("core._helper") == 1
        assert "core._helper" in tracer.wrapped
    assert (core.inner, user.inner, user._helper) == originals


def test_missing_modules_and_functions_are_absent(fake_package):
    clock, core, _ = fake_package
    tracer = Tracer(clock=clock)
    with tracer.installed("fakepkg", ["core", "gone"], extra=["core.vanished", "gone.f"]):
        core.leaf()
    assert tracer.absent == ["gone", "core.vanished", "gone.f"]
    assert tracer.calls("core.leaf") == 1
    assert tracer.calls("gone.f") == 0


def test_prefdiff_names_imported_by_name_are_wrapped():
    from prefdiff import datapipe, evalbench, trainer
    original = datapipe.sample_caption
    tracer = Tracer()
    with tracer.installed("prefdiff", ["datapipe"], extra=["datapipe._child_seed"]):
        assert evalbench.sample_caption is datapipe.sample_caption is not original
        assert trainer._child_seed is evalbench._child_seed is datapipe._child_seed
        evalbench.sample_prompts(["shape"], 1, seed=3)
    assert datapipe.sample_caption is original is evalbench.sample_caption
    assert tracer.calls("datapipe.sample_caption") >= 1
    assert tracer.calls("datapipe._child_seed") >= 1
