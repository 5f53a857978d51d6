"""Every field of the run config and the network config is read by the package,
no caption, network config or run config can be built with a refused field,
and the README's run-config section lists the run config's fields."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from prefdiff import net, trainer
from prefdiff import toyworld as tw

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "prefdiff"
CONFIGS = [("trainer.py", "TrainConfig"), ("net.py", "NetConfig")]


def unread_fields(sources, module, class_name):
    """Fields declared in ``class_name`` that no module reads as an attribute.

    A read is an attribute load such as ``config.grid``, also in the class's
    own methods; declarations and attribute stores do not count.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    cls = next(node for node in trees[module].body
               if isinstance(node, ast.ClassDef) and node.name == class_name)
    declared = [node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)]
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [name for name in declared if name not in read]


def test_finder_flags_only_the_unread_field():
    sources = {"a.py": "class C:\n    x: int = 1\n    y: int = 2\n    z: int = 3\n\n"
                       "    def twice(self):\n        return 2 * self.x\n",
               "b.py": "def f(c):\n    c.z = 4\n    return c.y\n"}
    assert unread_fields(sources, "a.py", "C") == ["z"]


@pytest.mark.parametrize("module,class_name", CONFIGS, ids=[c for _, c in CONFIGS])
def test_every_config_field_is_read(module, class_name):
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unread_fields(sources, module, class_name) == []


RED_SQUARE = tw.Caption("color", (tw.ObjectSlot("square", color="red"),))
ABOVE = tw.Caption("spatial", (tw.ObjectSlot("disc"), tw.ObjectSlot("square")), relation="above")
THREE_DISCS = tw.Caption("numeracy", (tw.ObjectSlot("disc"),), count=3)
MAUVE_SQUARE = (tw.ObjectSlot("square", color="mauve"),)
REFUSED = {
    "Caption-objects-mauve": (RED_SQUARE, "objects", MAUVE_SQUARE, "color 'mauve'"),
    "Caption-dimension-colour": (RED_SQUARE, "dimension", "colour", "dimension 'colour'"),
    "Caption-dimension-shape": (RED_SQUARE, "dimension", "shape", "labelled 'shape'"),
    "Caption-relation-behind": (ABOVE, "relation", "behind", "relation 'behind'"),
    "Caption-count-7": (THREE_DISCS, "count", 7, "count 7"),
    "NetConfig-hidden-0": (net.NetConfig(), "hidden", 0, "hidden"),
    "NetConfig-grid--2": (net.NetConfig(), "grid", -2, "grid"),
    "NetConfig-channels-3.0": (net.NetConfig(), "channels", 3.0, "channels"),
    "NetConfig-time_dim-7": (net.NetConfig(), "time_dim", 7, "time_dim"),
    "NetConfig-activation-relu": (net.NetConfig(), "activation", "relu", "activation"),
    "TrainConfig-steps-2.5": (trainer.TrainConfig(), "steps", 2.5, "steps"),
    "TrainConfig-method-ppo": (trainer.TrainConfig(), "method", "ppo", "method"),
    "TrainConfig-hidden-0": (trainer.TrainConfig(), "hidden", 0, "hidden"),
    "TrainConfig-beta_start-0": (trainer.TrainConfig(), "beta_start", 0.0, "beta_start"),
}


@pytest.mark.parametrize("valid,name,value,message", REFUSED.values(), ids=list(REFUSED))
def test_a_refused_field_cannot_be_built_or_replaced_in(valid, name, value, message):
    # NetConfig(hidden=0) used to die in init_params with a ZeroDivisionError,
    # NetConfig(grid=-2) built a 12-wide net, and an invalid caption was
    # refused only by the functions that checked it again
    fields = {f.name: getattr(valid, f.name) for f in dataclasses.fields(valid)}
    with pytest.raises(ValueError, match=message):
        type(valid)(**{**fields, name: value})
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(valid, **{name: value})


def test_readme_run_config_table_lists_every_train_config_field():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Run config", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    names = {name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert names == {f.name for f in dataclasses.fields(trainer.TrainConfig)}
    assert f'"version": {trainer.CONFIG_VERSION}' in section


def test_readme_micro_run_config_loads(tmp_path):
    readme = (ROOT / "README.md").read_text()
    text = re.search(r"cat > config.json <<'EOF'\n(.*?)\nEOF\n", readme, re.S).group(1)
    path = tmp_path / "config.json"
    path.write_text(text)
    assert trainer.load_config(path).method == "bidpo"
