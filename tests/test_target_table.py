"""``build_target`` builds every target but blr by one call of its constructor.

The constructor takes the target's ``target.*`` keys as keyword arguments of
the same names, and its refusals open with the argument, so a bad value is
named by its key.  Two checks on the source of ``configio.build_target``:
each constructor in its table takes exactly its ``TARGET_KEYS`` row, so a
renamed key or argument fails here rather than as a ``TypeError`` in a run;
and no comparison there holds a target name but ``"blr"``, so no target
gets a branch of its own beside the table.
"""

import ast
import inspect

import pytest

from ksivi import configio, targets
from ksivi.configio import TARGET_KEYS


def build_target_tree() -> ast.AST:
    return ast.parse(inspect.getsource(configio.build_target))


def constructor_table(tree: ast.AST) -> dict:
    """The one dict literal in ``tree`` keyed by target names, as name -> source of its value."""
    tables = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
        and node.keys
        and all(isinstance(key, ast.Constant) and key.value in TARGET_KEYS for key in node.keys)
    ]
    assert len(tables) == 1
    return {key.value: ast.unparse(value) for key, value in zip(tables[0].keys, tables[0].values)}


def mismatched(constructors: dict, rows: dict) -> list[str]:
    """Names whose constructor's parameters are not exactly the keys of their row."""
    return sorted(
        name for name, make in constructors.items() if set(inspect.signature(make).parameters) != set(rows[name])
    )


def compared_strings(tree: ast.AST) -> list[str]:
    """The string constants that a comparison in ``tree`` compares with, alone or in a tuple, list or set."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                items = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else [operand]
                found += [item.value for item in items if isinstance(item, ast.Constant) and isinstance(item.value, str)]
    return sorted(found)


def test_every_target_but_blr_has_a_constructor_taking_its_keys():
    table = constructor_table(build_target_tree())
    assert set(table) == set(TARGET_KEYS) - {"blr"}
    assert all(source.startswith("targets.") for source in table.values())
    constructors = {name: getattr(targets, source.removeprefix("targets.")) for name, source in table.items()}
    assert mismatched(constructors, TARGET_KEYS) == []


def test_build_target_branches_on_blr_alone():
    assert compared_strings(build_target_tree()) == ["blr"]


def test_the_check_sees_a_renamed_argument():
    def renamed(obs_seed, n_steps, step, obs_stride):
        pass

    def exact(obs_seed, n_steps, dt, obs_stride):
        pass

    rows = {"cd": TARGET_KEYS["conditioned_diffusion"], "plain": {}}
    assert mismatched({"cd": renamed, "plain": targets.Banana}, rows) == ["cd"]
    assert mismatched({"cd": exact, "plain": lambda extra=1: None}, rows) == ["plain"]
    assert mismatched({"cd": exact, "plain": targets.Banana}, rows) == []


@pytest.mark.parametrize(
    "source, names",
    [
        ('if name == "gaussian":\n    pass', ["gaussian"]),
        ('if "xshaped" != name:\n    pass', ["xshaped"]),
        ('if name in ("banana", "multimodal"):\n    pass', ["banana", "multimodal"]),
        ('x = name == "blr" or {"a": 1}["a"] == 1', ["blr"]),
        ("if (a is None) == (b is None):\n    pass", []),
    ],
    ids=["equal", "not-equal-reversed", "in-tuple", "subscript-key-ignored", "no-string"],
)
def test_the_check_sees_a_branch_on_a_name(source, names):
    assert compared_strings(ast.parse(source)) == names
