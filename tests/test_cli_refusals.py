"""A command handler refuses an input only by raising.

``cli.main`` turns a raised ``ConfigError``, ``InputError`` or ``OSError`` into
a message on stderr and exit code 2, so every message goes out one way.  The
check is on the source: no ``cmd_*`` function in ``cli.py`` returns 2 or
prints to ``sys.stderr``.
"""

import ast
from pathlib import Path

import pytest

from ksivi import cli


def refusals(tree: ast.AST) -> list[int]:
    """Line numbers, inside ``cmd_*`` functions, of a ``return 2`` or a print to ``sys.stderr``."""

    def refuses(node):
        if isinstance(node, ast.Return):
            return isinstance(node.value, ast.Constant) and node.value.value == 2
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            return any(keyword.arg == "file" and ast.unparse(keyword.value) == "sys.stderr" for keyword in node.keywords)
        return False

    handlers = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    return sorted(node.lineno for handler in handlers for node in ast.walk(handler) if refuses(node))


def test_no_handler_refuses_by_itself():
    assert refusals(ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source",
    [
        "def cmd_x(args):\n    return 2",
        'def cmd_x(args):\n    print("error: bad", file=sys.stderr)',
        "def cmd_x(args):\n    if args.bad:\n        return 2",
        "def cmd_x(args):\n    def inner():\n        return 2",
        'def cmd_x(args):\n    try:\n        pass\n    except ValueError:\n        print(f"error", end="", file=sys.stderr)',
    ],
    ids=["return", "print", "nested-return", "inner-function", "print-in-except"],
)
def test_the_check_sees_a_refusal(source):
    assert len(refusals(ast.parse(source))) == 1


def test_the_check_leaves_other_functions_and_exits_alone():
    source = (
        "def main(argv):\n    print('error', file=sys.stderr)\n    return 2\n"
        "def cmd_ok(args):\n    print('done')\n    return 0\n"
        "def cmd_out(args):\n    print('x', file=sys.stdout)\n    return 1\n"
    )
    assert refusals(ast.parse(source)) == []
