"""The package's import layering, read from its source with ast: the
brackets' rules live in the bound modules alone, the command line sits on
top of everything, the graph modules never name a sequence, no search
reads a complement, the bracket reads every alpha from one memo, the
game reads no graph, only the graph module reads a letter table, the
q-vertex graphs of a letter table come from one pass, and every public
name of the graph module has a reader outside the tests."""

import ast
import json
from pathlib import Path

import ixcap

SRC = Path(ixcap.__file__).parent
ROOT = Path(__file__).parents[1]
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


def _module_constants(path: Path) -> set[str]:
    """The names a source file assigns at module level."""
    return {target.id for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)}


def test_block_and_file_policies_live_in_utility():
    # utility._row_blocks is the one reader of BLOCK_CELLS, and no other
    # module sizes a table by a *_CELLS rule of its own; utility._read_json
    # is the one reader of input files
    modules = sorted(SRC.glob("*.py"))
    assert [p.name for p in modules if "BLOCK_CELLS" in _imported_names(p)] == []
    assert {p.name: sorted(name for name in _module_constants(p) if name.endswith("_CELLS"))
            for p in modules} == {p.name: ["BLOCK_CELLS"] if p.name == "utility.py" else []
                                  for p in modules}
    assert [p.name for p in modules
            if _json_loads_calls(p) or "loads" in _imported_names(p)] == ["utility.py"]


def test_the_cli_builds_no_table_on_sequences():
    # a noisy strategy's outcome comes from game.verify_noisy_equilibrium,
    # which applies the channel letter by letter
    assert not _imported_names(SRC / "cli.py") & {
        "numpy", "_row_blocks", "_expand_rows", "_apply_letters"}


def _complement_reads(path: Path) -> list[int]:
    """The lines of a source file that read ``complement_rows``, outside
    the definition of class ``Graph``."""
    def walk(node):
        if isinstance(node, ast.ClassDef) and node.name == "Graph":
            return
        if (isinstance(node, ast.Attribute) and node.attr == "complement_rows"
                or isinstance(node, ast.Name) and node.id == "complement_rows"):
            yield node.lineno
        for child in ast.iter_child_nodes(node):
            yield from walk(child)
    return list(walk(ast.parse(path.read_text())))


def test_every_search_reads_its_graphs_own_rows():
    # the searches take a graph's rows as they are; complement rows are a
    # helper of the tests, which build complement graphs
    reads = {p.name: _complement_reads(p) for p in sorted(SRC.glob("*.py"))}
    assert len(reads) > 5
    assert {name: lines for name, lines in reads.items() if lines} == {}
    # the check sees a read where one is: the tests build complements
    assert _complement_reads(Path(__file__).with_name("test_upper_bounds.py"))


def _call_sites(path: Path, name: str) -> list[tuple[str, ...]]:
    """The enclosing function names, outermost first, of each call of
    ``name`` in a source file."""
    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name):
            yield scope
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope)
    return list(walk(ast.parse(path.read_text()), ()))


def test_the_bracket_reads_every_alpha_from_its_one_memo():
    # every alpha the bracket reads, the upper side's included, comes from
    # xi_bracket's memo alpha_of, and theta is solved, or pinned by its
    # eigenvalues, at one site each; the clique certificate takes its alpha
    # from the caller and runs no alpha search of its own
    path = SRC / "upper_bounds.py"
    assert _call_sites(path, "independence_number") == [("xi_bracket", "alpha_of")]
    assert "_alpha" not in _names_from(path, "graphs")
    assert _call_sites(path, "_alpha") == []
    assert _call_sites(path, "_clique_cover") == [("in_perfect_whitelist",)]
    assert _call_sites(path, "lovasz_theta") == [("xi_bracket",)]
    assert _call_sites(path, "_regular_theta") == [("xi_bracket",)]
    # the check sees a call where one is: ixcap alpha searches a file graph
    assert ("cmd_alpha",) in _call_sites(SRC / "cli.py", "independence_number")
    assert "_alpha" in _names_from(SRC / "lower_bounds.py", "graphs")
    assert _call_sites(SRC / "lower_bounds.py", "_alpha")


def _names_from(path: Path, module: str) -> set[str]:
    """The names a source file imports from the ixcap module ``module``."""
    return {alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").removeprefix("ixcap.").lstrip(".") == module
            for alias in node.names}


def _object_setattr_calls(source: str) -> list[int]:
    """The lines of Python source that call ``object.__setattr__``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"]


def test_the_game_reads_no_graph():
    # the game checks every set on its block sums (game._survivors) and
    # takes alpha and its witness from graphs.block_independence_number,
    # which keeps its graph and the graph's packed block to itself: no
    # Graph reaches the game, and none is changed after it is built
    assert _names_from(SRC / "game.py", "graphs") == {
        "DEFAULT_NODE_BUDGET", "_confusability_table", "block_independence_number"}
    calls = {p.name: _object_setattr_calls(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert len(calls) > 5
    assert {name: lines for name, lines in calls.items() if lines} == {}
    # the checks see an import and a call where they are
    assert "Graph" in _names_from(SRC / "lower_bounds.py", "graphs")
    assert _object_setattr_calls('x = 1\nobject.__setattr__(g, "rows", ())') == [2]


def _attribute_reads(path: Path, attr: str) -> list[int]:
    """The lines of a source file that read the attribute ``attr``."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == attr]


def test_only_graphs_reads_the_letter_table():
    # a block graph's letter table serves its own search; xi_bracket's memo
    # keys on rows, and ixcap alpha hands block_independence_number a table
    # as the game does, with no graph built by the command
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    assert [p.name for p in modules if _attribute_reads(p, "letters")] == ["graphs.py"]
    cli = SRC / "cli.py"
    assert ("cmd_alpha",) in _call_sites(cli, "block_independence_number")
    for name in ("sender_graph", "symmetric_sender_graph", "strong_power"):
        assert ("cmd_alpha",) not in _call_sites(cli, name)


#: the builders of sign graphs on X^n, which take the blocklength second
SIGN_GRAPH_BUILDERS = {"sender_graph", "symmetric_sender_graph", "_sign_graph", "_sign_block"}


def _letter_builds(path: Path) -> list[tuple[str, int]]:
    """(name, line) of each call in a source file of a sign-graph builder,
    by name or attribute, with the literal blocklength 1."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        n = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "n")]
        if name in SIGN_GRAPH_BUILDERS and any(
                isinstance(a, ast.Constant) and a.value == 1 for a in n):
            found.append((name, node.lineno))
    return found


def test_the_letter_graphs_come_from_one_pass():
    # the q-vertex graphs I and H of a letter table, G_s and G_s^Sym at
    # n = 1 among them, come from graphs._letter_graphs alone, which reads
    # both in one pass over the table's pairs
    for name in ("graphs.py", "upper_bounds.py", "lower_bounds.py"):
        assert _letter_builds(SRC / name) == [], name
    assert ("xi_bracket",) in _call_sites(SRC / "upper_bounds.py", "_letter_graphs")
    assert ("_letter_bases",) in _call_sites(SRC / "graphs.py", "_letter_graphs")
    # the check sees a build where one is: the corpus checks of the command
    # line call the public builders at n = 1
    assert {"sender_graph", "symmetric_sender_graph"} <= {
        name for name, _ in _letter_builds(SRC / "cli.py")}


def _public_functions(path: Path) -> list[str]:
    """The public functions of a source file and the public methods of its
    public classes, by name."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            names.append(node.name)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            names += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
    return [name for name in names if not name.startswith("_")]


def _read_names(path: Path) -> set[str]:
    """Every name a source file reads: as a name, an attribute or an import."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_every_public_graph_function_has_a_reader_outside_the_tests():
    # a library module, perfbench or a per-layer metric of BENCHMARK.json
    # reads each one; a helper that only the tests call lives in
    # tests/conftest.py.  The package's __init__ only re-exports, so its
    # import is no reader
    readers = set()
    modules = [path for path in SRC.glob("*.py") if path.name != "__init__.py"]
    for path in [*modules, *(ROOT / "perfbench").glob("*.py")]:
        readers |= _read_names(path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    readers |= {m["name"].split(".")[1] for m in spec["per_layer"]
                if m["name"].startswith("graphs.") and m["name"].count(".") == 2}
    public = _public_functions(SRC / "graphs.py")
    assert {"independence_number", "sender_graph", "has_edge"} <= set(public)
    assert [name for name in public if name not in readers] == []
    # the check sees an unread name where one is: the tests' own graphs
    assert {"path_graph", "edge_count"} <= set(_public_functions(ROOT / "tests" / "conftest.py"))
    assert not {"path_graph", "edge_count"} & readers
    # and a re-export is left out, though __init__ names it
    assert {"independence_number", "sender_graph"} <= _read_names(SRC / "__init__.py")
