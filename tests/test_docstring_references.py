"""Every dotted name that a src docstring writes in double backticks resolves.

A reference such as ``kernels.sq_blocks`` or ``KernelSpec.scale`` opens with
a module of the package or a name defined at the top level of one, and goes
on through attributes; a dataclass's fields count as its attributes.  A
rename or a deletion that leaves a docstring naming the old name fails here.
Config keys are dotted too (``train.iterations``, ``target.alpha``), and are
not references.
"""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import ksivi
from ksivi.configio import KEYS, TARGET_KEYS

SOURCES = sorted(Path(ksivi.__file__).parent.glob("*.py"))
MODULES = {path.stem for path in SOURCES} - {"__init__", "__main__"}
REFERENCE = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)``")
CONFIG_KEYS = {*KEYS, *(f"target.{key}" for keys in TARGET_KEYS.values() for key in keys)}


def top_level_names(tree: ast.Module) -> set:
    """The names a module binds at its top level by a def, a class or an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return names


TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
DEFINED = {path.stem: top_level_names(tree) for path, tree in TREES.items() if path.stem in MODULES}


def docstrings(tree: ast.Module):
    nodes = (tree, *(n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))))
    return [doc for doc in (ast.get_docstring(node, clean=False) for node in nodes) if doc]


def has_attribute(owner, name) -> bool:
    fields = {field.name for field in dataclasses.fields(owner)} if dataclasses.is_dataclass(owner) else set()
    return hasattr(owner, name) or name in fields


def resolves(reference: str) -> bool:
    """Whether ``reference`` resolves from some module or top-level name its first part names."""
    head, *attrs = reference.split(".")
    owners = [importlib.import_module(f"ksivi.{head}")] if head in MODULES else []
    for module, names in DEFINED.items():
        if head in names:
            owners.append(getattr(importlib.import_module(f"ksivi.{module}"), head))
    for owner in owners:
        for attr in attrs[:-1]:
            owner = getattr(owner, attr, None)
        if has_attribute(owner, attrs[-1]):
            return True
    return False


def references(tree: ast.Module) -> set:
    """The dotted names of its docstrings that open with a module of the package or a top-level name."""
    heads = MODULES.union(*DEFINED.values())
    found = {ref for doc in docstrings(tree) for ref in REFERENCE.findall(doc)}
    return {ref for ref in found if ref.split(".")[0] in heads and ref not in CONFIG_KEYS}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_docstring_reference_resolves(path):
    assert sorted(ref for ref in references(TREES[path]) if not resolves(ref)) == []


def test_the_check_sees_references():
    # the scan finds both kinds of reference, and a stale one fails
    found = set().union(*(references(tree) for tree in TREES.values()))
    assert {"kernels.sq_blocks", "KernelSpec.scale", "configio.SEED_OFFSETS"} <= found
    assert resolves("ExperimentConfig.sampler")  # a dataclass field without a default
    assert not resolves("KernelSpec.parameter")
    assert not resolves("kernels.no_such_name")
