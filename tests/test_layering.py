"""The package's import layering, read from its source with ast: the
brackets' rules live in the bound modules alone, and the command line sits
on top of everything."""

import ast
from pathlib import Path

import ixcap

SRC = Path(ixcap.__file__).parent
BOUND_MODULES = {"upper_bounds", "lower_bounds", "theta"}


def _imports(path: Path) -> set[str]:
    """The names of the ixcap modules (or package attributes) that a
    source file imports, relatively or by ixcap's absolute name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "ixcap":
                    continue
                module = module.removeprefix("ixcap").lstrip(".")
            found.update([module.split(".")[0]] if module else
                         [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("ixcap."))
    return found


def test_the_reader_sees_relative_imports():
    assert {"game", "upper_bounds", "__version__"} <= _imports(SRC / "cli.py")


def test_game_imports_no_bound_module():
    assert not _imports(SRC / "game.py") & BOUND_MODULES


def test_no_module_imports_the_cli():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    assert [p.name for p in modules if "cli" in _imports(p)] == []
