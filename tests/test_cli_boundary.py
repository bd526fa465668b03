"""The command line's one error boundary: palcore.cli.main alone turns a
command's OSError, ValueError or PalcoreError into one `error:` line and
exit 1; the commands and their helpers only raise."""

import ast
import os
from pathlib import Path

import pytest

import palcore.cli
from palcore.cli import main

from .test_cli import Runner, assert_one_error_line, write_gens


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", ["probe", "pi-map"])
def test_report_write_failure_is_one_error_line(command, tmp_path):
    # /dev/full opens for writing, so the --out check passes, and every
    # write to it fails with ENOSPC once the work is done
    gens = write_gens(tmp_path, [[1, 1], [0, 1]], [[1, 0], [4, 1]])
    args = [command, "--gens", gens, "--depth", "3", "--out", "/dev/full"]
    res = Runner.invoke(main, args)
    assert_one_error_line(res, "No space left on device")


def _functions_catching(tree: ast.AST, name: str) -> list[str]:
    """Names of the functions with an except clause that names `name`, one
    entry per clause (a nested function's clause also counts for the
    function around it)."""
    return [
        func.name
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(node.type))
    ]


@pytest.mark.parametrize("name", ["PalcoreError", "OSError"])
def test_main_is_the_only_handler(name):
    tree = ast.parse(Path(palcore.cli.__file__).read_text(encoding="utf-8"))
    assert _functions_catching(tree, name) == ["main"]
