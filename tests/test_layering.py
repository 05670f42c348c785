"""The package's import layering, read from its source with ast: the
brackets' rules live in the bound modules alone, the command line sits on
top of everything, and the graph modules never name a sequence."""

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


def _imported_names(path: Path) -> set[str]:
    """Every name a source file imports, with ``import`` or ``from ... import``."""
    return {alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


def test_the_reader_sees_relative_imports():
    assert {"game", "upper_bounds", "__version__"} <= _imports(SRC / "cli.py")


def test_game_imports_no_bound_module():
    assert not _imports(SRC / "game.py") & BOUND_MODULES


def test_no_module_imports_the_cli():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    assert [p.name for p in modules if "cli" in _imports(p)] == []


def test_graph_modules_name_no_sequence():
    # graphs and witnesses are vertex numbers; names come only from
    # utility.sequence_labels, at the sites that build a report
    assert "sequence_labels" in _imported_names(SRC / "upper_bounds.py")
    for name in ("graphs.py", "theta.py"):
        assert not _imported_names(SRC / name) & {"sequence_labels", "Alphabet"}


def _json_loads_calls(path: Path) -> int:
    """How many times a source file calls ``json.loads``."""
    return sum(1 for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "loads" and isinstance(node.func.value, ast.Name)
               and node.func.value.id == "json")


def test_block_and_file_policies_live_in_utility():
    # utility._row_blocks is the one reader of BLOCK_CELLS, and
    # utility._read_json the one reader of input files
    modules = sorted(SRC.glob("*.py"))
    assert [p.name for p in modules if "BLOCK_CELLS" in _imported_names(p)] == []
    assert [p.name for p in modules
            if _json_loads_calls(p) or "loads" in _imported_names(p)] == ["utility.py"]


def test_the_cli_builds_no_table_on_sequences():
    # a noisy strategy's outcome comes from game.verify_noisy_equilibrium,
    # which applies the channel letter by letter
    assert not _imported_names(SRC / "cli.py") & {
        "numpy", "_row_blocks", "_expand_rows", "_apply_letters"}
