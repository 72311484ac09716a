"""Every name that a module of the package, the tests or the tools imports is used in that module or
listed in its ``__all__``.

No linter is part of the toolchain, so this test is the unused-import check.
"""
import ast
import contextlib
from pathlib import Path

import pytest

import oemsim

PACKAGE = sorted(Path(oemsim.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
MODULES = PACKAGE + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("tools/*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that it neither uses nor lists in ``__all__``; an
    ``__all__`` that is not a literal lists none."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            with contextlib.suppress(ValueError):  # a computed __all__
                used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_the_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from .a import b, c as d, e\n__all__ = ['e']\nx: np.ndarray = d\n"
    )
    assert unused_imports(source) == ["b", "os"]
    # a computed __all__ keeps no import: "f" is only a string in it
    assert unused_imports("from .a import f, g\n__all__ = ['g', *sorted(['f'])]\n") == ["f", "g"]


# a package module by its file name, a test or tool module by its path from the repository root
@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: path.name if path in PACKAGE else path.relative_to(ROOT).as_posix()
)
def test_every_imported_name_is_used_or_exported(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
