"""The package namespace: what `from palcore import *` gives."""

import palcore

# names retired from the library, with the equivalent their callers use
_RETIRED = (
    "psl_equal",  # psl_distance(g, h) <= tol
    "are_orthogonal",  # orthogonality_residual(g1, g2) <= geo
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
)


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
    assert not [name for name in _RETIRED if hasattr(palcore, name)]
