"""Every field of the run config and the network config is read by the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "prefdiff"
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
