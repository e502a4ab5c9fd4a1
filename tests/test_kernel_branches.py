"""Only ``kernels`` branches on a kernel family.

Every other module of the package hands a ``KernelSpec`` to ``kernels`` and
reads back what it needs (``bandwidth_from_rule``, ``grad1_weights``,
``KernelSpec.parameter``).  The check is on the source: no comparison outside
``kernels.py`` reads a ``.family`` attribute or a family name written as a
string.
"""

import ast
from pathlib import Path

import pytest

from ksivi import kernels

SOURCES = sorted((Path(kernels.__file__).parent).glob("*.py"))
NAMES = set(kernels.FAMILIES)


def kernel_decisions(tree: ast.AST) -> list[int]:
    """Line numbers of the comparisons that read a ``.family`` or a family name."""

    def decides(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "family"
        if isinstance(node, ast.Constant):
            return node.value in NAMES
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(decides(item) for item in node.elts)
        return False

    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and any(decides(side) for side in (node.left, *node.comparators))
    ]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "kernels.py"], ids=lambda p: p.name)
def test_no_module_but_kernels_branches_on_a_family(path):
    assert kernel_decisions(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source",
    [
        'if spec.family != "rbf":\n    pass',
        'ok = family in ("rbf", "imq")',
        'ok = "imq" == name',
    ],
)
def test_the_check_sees_a_decision(source):
    assert kernel_decisions(ast.parse(source)) == [1]


def test_kernels_makes_the_decisions():
    assert kernel_decisions(ast.parse(Path(kernels.__file__).read_text(encoding="utf-8")))
