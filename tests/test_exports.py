"""The package namespace: what `from palcore import *` gives."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import palcore

# reference implementations only the tests call, moved to tests/oracles.py
_ORACLES = (
    "abelianize",
    "AbelianImage",
    "cyclic_reduce",
    "cyclically_equal",
    "nielsen_reduce_pair",
    "is_primitive",
    "geodesic_distance",
    "orthogonality_residual",
    "VERTICAL_AXIS",
    "psl_distance",
    "are_associates",
    "pair_perpendicular_by_axes",
)

# names retired from the library, with the equivalent their callers use
_RETIRED = (
    "psl_equal",  # psl_distance(g, h) <= tol, from tests/oracles.py
    "are_orthogonal",  # orthogonality_residual(g1, g2) <= geo, from tests/oracles.py
    "half_turn_conjugate",  # h * g * h.inverse() with h = line_matrix(axis)
    "farey_parents",  # primitive_word(p, q).parents
    "slope_depth",  # primitive_word(p, q).depth
    "reduce",  # Word(text)
    "IDENTITY_WORD",  # Word()
    "parse",  # Word(text)
    "farey_to_csv",
    "transform",  # a test helper in tests/conftest.py
    "position_on_vertical_axis",  # a test helper in tests/conftest.py
    "NotOrthogonal",
) + _ORACLES

# public names that no library module refers to: each is an entry point
_ENTRY_POINTS = {
    # the position of one slope, which perfbench's tracer wraps by name
    "rational_pi",
    # the criterion-9 witness grid, which perfbench runs and traces
    "witness_search",
    # the palindromic factorization of criterion 12, not an oracle
    "elliptic_power_factorization",
    # the tree as nodes, for the tests and for perfbench's tracer, which
    # wraps it by name; the library reads the tree as farey_table
    "enumerate_farey",
}


def test_all_has_no_duplicates():
    assert len(palcore.__all__) == len(set(palcore.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in palcore.__all__ if not hasattr(palcore, name)]
    assert missing == []


def test_star_import_gives_exactly_all():
    namespace: dict = {}
    exec("from palcore import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(palcore.__all__)


def test_retired_names_are_gone():
    assert not set(_RETIRED) & set(palcore.__all__)
    modules = [palcore] + [
        importlib.import_module(f"palcore.{info.name}")
        for info in pkgutil.iter_modules(palcore.__path__)
    ]
    assert [(m.__name__, n) for m in modules for n in _RETIRED if hasattr(m, n)] == []
    assert not hasattr(palcore.Representation, "evaluate_normalized")


def _library_references() -> set[str]:
    """Every name read, or attribute taken, in the palcore modules other
    than __init__."""
    names = set()
    for path in Path(palcore.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_used_by_the_library_or_an_entry_point():
    assert set(palcore.__all__) - _library_references() == _ENTRY_POINTS


def test_oracles_import_only_public_palcore_names():
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "palcore"
        for alias in node.names
    ]
    assert imported
    private = [
        (module, name) for module, name in imported
        if name.startswith("_") or any(p.startswith("_") for p in module.split("."))
    ]
    assert private == []


def _fresh_modules(module: str, names: set[str]) -> list[str]:
    """Which of names are loaded after `import module` in a fresh
    interpreter without site hooks, so that only palcore's own imports
    count."""
    src = str(Path(palcore.__file__).resolve().parents[1])
    script = (
        f"import sys; sys.path.insert(0, {src!r}); import {module}; "
        f"print(sorted(set(sys.modules).intersection({sorted(names)!r})))"
    )
    out = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                         capture_output=True, text=True, timeout=60, check=True)
    return ast.literal_eval(out.stdout)


def test_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses and the inspect it loads were half of import palcore, and
    # click, with inspect, most of import palcore.cli; the library loads no
    # part of the command line, argparse included
    assert _fresh_modules("palcore", {"dataclasses", "inspect", "palcore.cli",
                                      "argparse"}) == []
    assert _fresh_modules("palcore.cli", {"click", "dataclasses", "inspect"}) == []


def test_cli_import_loads_no_csv():
    # only spectrum_to_csv writes CSV, and it imports csv when it runs
    assert _fresh_modules("palcore.cli", {"csv"}) == []
