import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

import ixcap.game
import ixcap.graphs
import ixcap.lower_bounds
import ixcap.upper_bounds
from conftest import oracle_alpha, oracle_sender_edges, oracle_symmetric_part
from ixcap import cli
from ixcap.channel import load_channel
from ixcap.cli import EXIT_BUDGET, EXIT_GOLDEN, EXIT_INPUT, EXIT_OK, corpus_path, main
from ixcap.graphs import (
    cycle_graph,
    graph_from_edges,
    independence_number,
    sender_graph,
    strong_power,
)
from ixcap.upper_bounds import asymptotic_rate_bracket, xi_bracket
from ixcap.utility import load_utility, sequence_labels, utility_from_graph

PENTAGON = str(corpus_path("pentagon.json"))
EXAMPLE1 = str(corpus_path("example1.json"))
CONFUSE12 = str(corpus_path("channel_confuse12.json"))
#: stands for the path of a graph file that the test writes
GRAPH = "<graph.json>"
SRC = str(Path(ixcap.__file__).parents[1])


def test_success():
    assert main(["alpha", "--utility", PENTAGON]) == EXIT_OK


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["alpha", "--help"]])
def test_help_and_version_exit_zero(argv):
    assert main(argv) == EXIT_OK


def test_missing_file():
    assert main(["alpha", "--utility", "no-such-utility.json"]) == EXIT_INPUT


@pytest.mark.parametrize("argv", [
    ["alpha", "--bogus"],
    ["alpha", "--utility", PENTAGON, "--theta-tol", "1e-9"],
    ["game", "--utility", PENTAGON, "--theta-tol", "1e-9"],
    ["gamma", "--utility", PENTAGON, "--theta-tol", "1e-9"],
    ["gamma", "--utility", PENTAGON, "--budget-nodes", "many"],
    ["theta", "--utility", PENTAGON, "--budget-nodes", "5"],
    ["corpus", "--format", "csv"],
    ["alpha", "--utility", PENTAGON, "--format", "md"],
    ["gamma", "--utility", PENTAGON, "--method", "permutation-brute-force"],
    ["analyze", "--utility", PENTAGON, "--max-n", "0"],
    ["analyze", "--utility", PENTAGON, "--budget-nodes", "0"],
    ["analyze", "--utility", PENTAGON, "--budget-nodes", "-5"],
    ["analyze", "--utility", PENTAGON, "--assume-perfect"],
    ["gamma", "--utility", PENTAGON, "--subset", "0,1", "--budget-nodes", "5"],
    ["gamma", "--utility", PENTAGON, "--subset", "0,2", "-n", "3"],
    ["gamma", "--utility", PENTAGON, "--subset", "", "-n", "3"],
    ["gamma", "--utility", PENTAGON, "--subset", ""],
    ["gamma", "--utility", PENTAGON, "--subset", " "],
    ["gamma", "--utility", PENTAGON, "--subset", "0,"],
    ["alpha", "--graph", GRAPH, "--utility", PENTAGON],
    ["theta", "--graph", GRAPH, "--utility", PENTAGON],
    ["theta", "--graph", GRAPH, "--part", "base"],
    ["game", "--utility", PENTAGON, "--receiver", "naive", "--budget-nodes", "1"],
    ["analyze"],
])
def test_usage_error_is_an_input_error(argv, c5_path):
    assert main([c5_path if a == GRAPH else a for a in argv]) == EXIT_INPUT


def test_an_unwritable_report_path_exits_1(tmp_path, capsys):
    # the OSError of writing --out into a directory that does not exist
    out = tmp_path / "missing" / "x.json"
    assert main(["alpha", "--utility", PENTAGON, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"ixcap: error: [Errno 2] No such file or directory: '{out}'\n")
    assert not out.parent.exists()


def test_empty_subset_names_the_fault(capsys):
    # an empty --subset once skipped the subset check, ran the whole Gamma
    # search and exited 0
    assert main(["gamma", "--utility", PENTAGON, "--subset", ""]) == EXIT_INPUT
    assert capsys.readouterr().err == "ixcap: error: subset must be nonempty\n"


def _alphabet_utility(tmp_path, symbols) -> str:
    """The path of a utility file on the given symbols, u = -1 off the
    diagonal, so every subset is feasible."""
    path = tmp_path / "alphabet.json"
    q = len(symbols)
    utility = [[0 if i == j else -1 for j in range(q)] for i in range(q)]
    path.write_text(json.dumps({"alphabet": symbols, "utility": utility}))
    return str(path)


@pytest.mark.parametrize("symbols, text, subset", [
    ([",", "a", "b"], ",,a", [",", "a"]),
    ([",", "a", "b"], "a, ,", ["a", ","]),
    ([",", "a", "b"], "b,a", ["b", "a"]),
    (["0", "1", "2"], "0,1,2", ["0", "1", "2"]),
    (["a", "b", "c"], "a, b", ["a", "b"]),
    (["ab", "ba", "a"], "ab,ba", ["ab", "ba"]),
    (["ab", "ba", "a"], " a ,ab", ["a", "ab"]),
])
def test_subset_is_read_by_the_alphabets_symbols(tmp_path, capsys, symbols, text, subset):
    # a one-character "," is a symbol where one is due: ",,a" once split
    # into "", "" and "a" and exited 1 with "unknown symbol ''"
    argv = ["gamma", "--utility", _alphabet_utility(tmp_path, symbols), "--subset", text]
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["subset"] == subset


@pytest.mark.parametrize("symbols, text, unknown", [
    ([",", "a", "b"], ",,", ""),
    ([",", "a", "b"], "a,", ""),
    ([",", "a", "b"], "ab", "ab"),
    ([",", "a", "b"], "a b", "a b"),
    ([",", "a", "b"], "c,a", "c"),
    (["ab", "ba", "a"], "ab,,ba", ""),
    (["ab", "ba", "a"], "abba", "abba"),
])
def test_a_malformed_subset_is_an_input_error(tmp_path, capsys, symbols, text, unknown):
    argv = ["gamma", "--utility", _alphabet_utility(tmp_path, symbols), "--subset", text]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"ixcap: error: unknown symbol {unknown!r}\n"


def test_analyze_without_a_utility_names_the_flag(capsys):
    assert main(["analyze"]) == EXIT_INPUT
    assert capsys.readouterr().err == "ixcap: error: --utility is required\n"


@pytest.mark.parametrize("command", ["analyze", "capacity"])
@pytest.mark.parametrize("tol", ["0.3", "-0.5"])
def test_theta_tol_outside_the_solver_range(command, tol, capsys):
    # on example1 no theta is solved, so only the bracket's own check can
    # refuse the tolerance (at -0.5 the upper bound read 1.5, below 2)
    argv = [command, "--utility", str(corpus_path("example1.json")), "--theta-tol", tol]
    assert main(argv) == EXIT_INPUT
    assert "tol must lie in (0, 1e-2]" in capsys.readouterr().err


@pytest.fixture
def c5_path(tmp_path):
    path = tmp_path / "c5.json"
    path.write_text(json.dumps({"n": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]}))
    return str(path)


def test_each_rejected_flag_works_alone(tmp_path, c5_path):
    out = tmp_path / "report.json"
    for argv, key, value in (
            (["gamma", "--utility", PENTAGON, "--subset", "0,2"], "feasible", True),
            (["gamma", "--utility", PENTAGON], "n", 1),
            (["theta", "--graph", c5_path], "graph", c5_path),
            (["theta", "--utility", PENTAGON], "part", "sym"),
            (["theta", "--utility", PENTAGON, "--part", "base"], "part", "base")):
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())[key] == value


def test_game_blocklength_below_one_or_unlike_the_strategy_file_is_an_input_error(tmp_path):
    report = tmp_path / "game.json"
    assert main(["game", "--utility", PENTAGON, "--out", str(report)]) == EXIT_OK
    strategy = tmp_path / "strategy.json"
    strategy.write_text(json.dumps(json.loads(report.read_text())["strategy"]))
    receiver = f"file:{strategy}"
    assert main(["game", "--utility", PENTAGON, "--receiver", receiver,
                 "--out", str(report)]) == EXIT_OK
    assert main(["game", "--utility", PENTAGON, "-n", "2", "--receiver", receiver]) == EXIT_INPUT
    for n in (0, -1):
        strategy.write_text(json.dumps({"n": n, "decode": {}}))
        assert main(["game", "--utility", PENTAGON, "--receiver", receiver]) == EXIT_INPUT
        assert main(["game", "--utility", PENTAGON, "-n", str(n), "--receiver", "naive"]) == EXIT_INPUT


def test_game_takes_a_budget_only_for_the_optimal_receiver(tmp_path):
    # only the optimal receiver searches; a strategy file runs no search
    report = tmp_path / "game.json"
    assert main(["game", "--utility", PENTAGON, "--budget-nodes", "1000",
                 "--out", str(report)]) == EXIT_OK
    strategy = tmp_path / "strategy.json"
    strategy.write_text(json.dumps(json.loads(report.read_text())["strategy"]))
    receiver = f"file:{strategy}"
    assert main(["game", "--utility", PENTAGON, "--receiver", receiver]) == EXIT_OK
    assert main(["game", "--utility", PENTAGON, "--receiver", receiver,
                 "--budget-nodes", "1000"]) == EXIT_INPUT


def test_import_does_not_load_networkx():
    probe = "import sys, ixcap; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "False"


def test_budget_exceeded():
    assert main(["alpha", "--utility", PENTAGON, "-n", "2",
                 "--budget-nodes", "1"]) == EXIT_BUDGET


@pytest.mark.parametrize("source", ["graph", "utility"])
def test_alpha_of_a_power_matches_the_plain_search(source, tmp_path, capsys):
    # the pentagon: alpha(G^2) = 5 lies strictly between 2^2 and 3^2; the
    # power of a file graph and the sender graph give the plain witness
    if source == "graph":
        path = tmp_path / "c5.json"
        path.write_text(json.dumps({"n": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]}))
        argv, g = ["--graph", str(path)], strong_power(cycle_graph(5), 2)
    else:
        argv, g = ["--utility", PENTAGON], sender_graph(load_utility(PENTAGON), 2)
    assert main(["alpha", *argv, "-n", "2"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    alpha, witness = independence_number(g)
    assert report["alpha"] == alpha == 5
    # a file graph's vertices are numbers, a sender graph's are named words
    labels = range(25) if source == "graph" else sequence_labels(load_utility(PENTAGON).alphabet, 2)
    assert report["witness"] == [labels[v] for v in witness]


@pytest.mark.parametrize("source", ["graph", "utility"])
def test_alpha_of_a_power_is_answered_from_its_letters(source, tmp_path, capsys, monkeypatch):
    # C4 is perfect and sign-symmetric, so alpha(C4^7) = 2^7 and the
    # witness {0, 2}^7 come from its 4 x 4 table and its two 4-vertex
    # bases, with no graph on 4^7 words
    def letters_only(ints, n, _build=ixcap.graphs._sign_block):
        assert n == 1, "a graph on X^n was built"
        return _build(ints, n)

    monkeypatch.setattr(ixcap.graphs, "_sign_block", letters_only)
    c4 = cycle_graph(4)
    if source == "graph":
        path, content = tmp_path / "c4.json", {"n": 4, "edges": [list(e) for e in c4.edges()]}
    else:
        path, content = tmp_path / "c4-utility.json", utility_from_graph(c4).to_json_dict()
    path.write_text(json.dumps(content))
    assert main(["alpha", f"--{source}", str(path), "-n", "7"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    words = ["".join(w) for w in product("02", repeat=7)]
    assert report["alpha"] == 128 and report["n"] == 7
    assert report["witness"] == ([int(w, 4) for w in words] if source == "graph" else words)


def test_corpus_goldens_pass():
    assert main(["corpus"]) == EXIT_OK


@pytest.mark.parametrize("argv", [
    ["alpha", "--utility", PENTAGON],
    ["gamma", "--utility", PENTAGON],
    ["gamma", "--utility", PENTAGON, "--subset", "0,2"],
    ["theta", "--utility", PENTAGON],
    ["capacity", "--utility", EXAMPLE1, "--channel", CONFUSE12],
    ["game", "--utility", EXAMPLE1],
    ["game", "--utility", EXAMPLE1, "--channel", CONFUSE12],
    ["analyze", "--utility", PENTAGON, "--format", "json"],
    ["corpus", "--format", "json"],
], ids=["alpha", "gamma", "gamma-subset", "theta", "capacity", "game-noiseless", "game-noisy",
        "analyze", "corpus"])
def test_a_json_report_on_stdout_is_one_document(argv, tmp_path, capsys):
    # once corpus --format json printed its markdown after the report
    assert main(argv) == EXIT_OK
    stdout = capsys.readouterr().out
    report = json.loads(stdout)
    assert stdout == json.dumps(report, indent=2) + "\n"
    if argv[0] == "corpus":
        out = tmp_path / "corpus.json"
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text()) == report


@pytest.mark.parametrize("command", ["alpha", "gamma"])
def test_a_searched_power_starts_from_the_kernels_block(command, capsys, monkeypatch):
    # alpha(C5^3) = 10 lies strictly between 2^3 and 3^3, so G_s^3 (alpha)
    # and G_s^Sym,3 (gamma) of the pentagon, 125 words each, are searched
    # on a degree-ordered copy; the copy starts from the block that the
    # sign kernel made, and no graph's rows are packed again
    packed, copies = [], []
    pack, copy = ixcap.graphs._pack_rows, ixcap.graphs._SearchCopy.__init__
    monkeypatch.setattr(ixcap.graphs, "_pack_rows",
                        lambda rows, width: packed.append(len(rows)) or pack(rows, width))

    def recorded_copy(self, g, *args):
        copy(self, g, *args)
        copies.append(self.ordered)

    monkeypatch.setattr(ixcap.graphs._SearchCopy, "__init__", recorded_copy)
    assert main([command, "--utility", PENTAGON, "-n", "3"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report.get("alpha", report.get("gamma")) == 10
    assert True in copies and packed == []
    # the check sees a packing where one is: the public search of a graph
    independence_number(sender_graph(load_utility(PENTAGON), 3))
    assert packed == [125]


def test_corpus_golden_mismatch(monkeypatch):
    monkeypatch.setattr(cli, "gamma", lambda U, **kw: (99, None))
    assert main(["corpus"]) == EXIT_GOLDEN


@pytest.mark.parametrize("n", [1, 2])
def test_gamma_reports_a_non_optimal_certificate_and_exits_2(monkeypatch, tmp_path, n):
    # one gamma_n path at every blocklength: an optimal certificate exits 0,
    # one whose search ran out still writes its report and exits 2
    out = tmp_path / "gamma.json"
    argv = ["gamma", "--utility", PENTAGON, "-n", str(n), "--out", str(out)]
    assert main(argv) == EXIT_OK
    optimal = json.loads(out.read_text())
    assert optimal["certificate"]["optimal"] is True
    search = cli.gamma_n

    def out_of_budget(U, n, **kwargs):
        value, cert = search(U, n, **kwargs)
        return value, dataclasses.replace(cert, optimal=False)

    monkeypatch.setattr(cli, "gamma_n", out_of_budget)
    assert main(argv) == EXIT_BUDGET
    report = json.loads(out.read_text())
    assert report["certificate"]["optimal"] is False
    assert {**report["certificate"], "optimal": True} == optimal["certificate"]
    assert (report["gamma"], report["n"]) == (optimal["gamma"], n)


def _analyze(tmp_path, *extra, fmt="json"):
    out = tmp_path / f"report.{fmt}"
    code = main(["analyze", "--utility", PENTAGON, "--max-n", "2",
                 "--format", fmt, "--out", str(out), *extra])
    return code, out.read_text()


def test_analyze_prints_the_bracket_records(tmp_path, pentagon):
    code, text = _analyze(tmp_path)
    assert code == EXIT_OK
    report = json.loads(text)
    bracket = xi_bracket(pentagon, n_max=2)
    assert report["per_n"] == list(bracket.per_n)
    assert report["theta"] == {"symmetric_part": bracket.theta_sym}
    assert report["bracket"] == bracket.to_json_dict()
    for record in report["per_n"]:
        n = record["n"]
        sym = graph_from_edges(5**n, sorted(oracle_sender_edges(oracle_symmetric_part(pentagon), n)))
        assert record["alpha_sym"] == oracle_alpha(sym)[0]
    _, csv_text = _analyze(tmp_path, fmt="csv")
    assert len(csv_text.splitlines()) == 1 + 2
    _, md_text = _analyze(tmp_path, fmt="md")
    assert sum(line.startswith("| ") and line[2].isdigit() for line in md_text.splitlines()) == 2


@pytest.mark.parametrize("budget", [[], ["--budget-nodes", "1"], ["--budget-nodes", "3"]],
                         ids=["default", "budget-1", "budget-3"])
def test_analyze_tables_carry_the_json_records(tmp_path, budget):
    # each csv and markdown row holds its JSON record's fields: a rate as
    # _fmt prints it, and a field the record lacks blank in csv, "-" in md
    _, text = _analyze(tmp_path, *budget)
    records = json.loads(text)["per_n"]
    keys = ["n", "alpha_sender", "alpha_sender_rate", "gamma", "gamma_rate", "alpha_sym"]

    def expected(record, missing):
        return [missing if key not in record
                else cli._fmt(record[key]) if key.endswith("_rate") else str(record[key])
                for key in keys]

    _, csv_text = _analyze(tmp_path, *budget, fmt="csv")
    header, *rows = csv.reader(io.StringIO(csv_text))
    assert header == keys
    assert rows == [expected(record, "") for record in records]
    _, md_text = _analyze(tmp_path, *budget, fmt="md")
    rows = [line[2:-2].split(" | ") for line in md_text.splitlines()
            if line.startswith("| ") and line[2].isdigit()]
    assert rows == [expected(record, "-") for record in records]
    # out of budget, a record lacks fields, and its cells are blank
    assert bool(budget) == any(key not in record for record in records for key in keys)


def test_gamma_stops_at_its_node_budget(tmp_path):
    # Gamma = 8 at n = 3 on the cyclic utility takes 11 079 385 nodes, 10-14
    # s, to prove at the default budget (14 164 979 nodes, 12.5-20 s, before
    # the subset search pruned infeasible triples); a small budget cuts it
    # short with a report
    utility = tmp_path / "cyclic.json"
    utility.write_text(json.dumps({"utility": [[0, -1, 0], [0, 0, -1], [-1, 0, 0]]}))
    out = tmp_path / "gamma.json"
    argv = ["gamma", "--utility", str(utility), "-n", "3", "--budget-nodes", "1000",
            "--out", str(out)]
    assert main(argv) == EXIT_BUDGET
    report = json.loads(out.read_text())
    assert report["certificate"]["optimal"] is False
    assert report["n"] == 3 and 1 <= report["gamma"] <= report["certificate"]["alpha_sym"]
    assert main([*argv[:-4], "--budget-nodes", "0"]) == EXIT_INPUT


def test_analyze_out_of_budget_still_reports(tmp_path):
    code, text = _analyze(tmp_path, "--budget-nodes", "1")
    assert code == EXIT_BUDGET
    report = json.loads(text)
    assert report["budget_exceeded"]
    assert report["bracket"]["lower"]["certificate"] == {"name": "trivial", "n": 1}
    assert all("alpha_sender_error" in r and "gamma_error" in r for r in report["per_n"])


@pytest.mark.parametrize("budget", [2, 3])
def test_a_skipped_search_does_not_fail_an_exact_bracket(tmp_path, budget):
    # alpha(G_s) = 2 closes example 1 at n = 1 while Gamma(U_1), which the
    # answer does not need, runs out: the report keeps the skip, and the
    # exact value exits OK
    out = tmp_path / "report.json"
    assert main(["analyze", "--utility", EXAMPLE1, "--max-n", "2", "--budget-nodes",
                 str(budget), "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["budget_exceeded"]
    assert report["bracket"]["exact"] == {"base": 2, "root": 1, "value": 2.0}
    assert [w.split(":")[0] for w in report["bracket"]["warnings"]] == ["gamma(U_1) skipped"]


@pytest.mark.parametrize("command", ["analyze", "capacity"])
def test_a_cut_short_gamma_search_warns(tmp_path, command):
    # the open bracket input: at 160 nodes Gamma(U_2)'s subset search stops
    # at the size-4 subset it holds, not proved optimal, and the bracket
    # [2, 3] stays open, so the run warns and fails; at the default budget
    # the search is proved and the run passes
    utility = tmp_path / "open.json"
    utility.write_text(json.dumps({"utility": [[0, "7/2", 0, -7], ["-14/3", 0, 7, "7/3"],
                                               [-7, -21, 0, 7], [-7, "7/6", "7/4", 0]]}))
    out = tmp_path / "report.json"
    argv = [command, "--utility", str(utility), "--max-n", "2", "--out", str(out)]
    assert main([*argv, "--budget-nodes", "160"]) == EXIT_BUDGET
    report = json.loads(out.read_text())
    assert report["bracket"]["warnings"] == [
        "gamma(U_2) cut short: subset search exceeded 160 nodes, "
        "keeping a feasible subset of 4"]
    assert (report["bracket"]["lower"]["value"], report["bracket"]["upper"]["value"]) == (2, 3)
    if command == "analyze":
        assert report["budget_exceeded"]
        assert [(r["gamma"], r["gamma_optimal"]) for r in report["per_n"]] == [
            (2, True), (4, False)]
    assert main(argv) == EXIT_OK
    assert "warnings" not in json.loads(out.read_text())["bracket"]


@pytest.mark.parametrize("name, budget", [
    ("example1", 5), ("example1_prime", 9), ("example2", 9), ("example3", 9)])
def test_a_bracket_closed_at_1_needs_no_budget_for_2(tmp_path, name, budget):
    # each example closes at n = 1 within this budget, and its n = 2 searches
    # would not fit it: the bracket stops at n = 1, so none is skipped
    path = str(corpus_path(f"{name}.json"))
    rows = {}
    for fmt in ("json", "csv", "md"):
        out = tmp_path / f"report.{fmt}"
        assert main(["analyze", "--utility", path, "--max-n", "2", "--budget-nodes",
                     str(budget), "--format", fmt, "--out", str(out)]) == EXIT_OK
        rows[fmt] = out.read_text()
    report = json.loads(rows["json"])
    assert not report["budget_exceeded"] and "warnings" not in report["bracket"]
    assert report["bracket"]["exact"]["root"] == 1
    assert [record["n"] for record in report["per_n"]] == [1]
    assert len(rows["csv"].splitlines()) == 1 + 1
    assert sum(line.startswith("| ") and line[2].isdigit()
               for line in rows["md"].splitlines()) == 1


def _count_calls(monkeypatch, name) -> list:
    """Count calls of a library function under every module that imports it."""
    calls = []
    for module in (cli, ixcap.game, ixcap.lower_bounds, ixcap.upper_bounds):
        original = getattr(module, name, None)
        if original is not None:
            monkeypatch.setattr(module, name, lambda *a, _f=original, **kw:
                                calls.append(1) or _f(*a, **kw))
    return calls


@pytest.mark.parametrize("name", ["pentagon", "example1", "example3"])
def test_analyze_costs_one_bracket(monkeypatch, tmp_path, name):
    path = str(corpus_path(f"{name}.json"))
    counts = {fn: _count_calls(monkeypatch, fn)
              for fn in ("independence_number", "lovasz_theta")}
    xi_bracket(load_utility(path), n_max=2)
    alone = {fn: len(calls) for fn, calls in counts.items()}
    for calls in counts.values():
        calls.clear()
    assert main(["analyze", "--utility", path, "--max-n", "2",
                 "--out", str(tmp_path / "report.json")]) == EXIT_OK
    assert {fn: len(calls) for fn, calls in counts.items()} == alone


@pytest.mark.parametrize("channel", [[], ["--channel", str(corpus_path("channel_confuse12.json"))]],
                         ids=["identity", "confuse12"])
def test_capacity(tmp_path, channel):
    out = tmp_path / "report.json"
    argv = ["capacity", "--utility", str(corpus_path("example1.json")), *channel, "--out", str(out)]
    assert main(argv) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["bracket"]["lower"]["value"] <= report["bracket"]["upper"]["value"]
    # out of budget, the bounds fall back to the trivial ones and the
    # report is still written, flagged by its warnings
    assert main([*argv, "--budget-nodes", "1"]) == EXIT_BUDGET
    report = json.loads(out.read_text())
    assert report["bracket"]["lower"]["certificate"] == {"name": "trivial", "n": 1}
    assert any(w.startswith("alpha(G_c^1) skipped") for w in report["bracket"]["warnings"])


@pytest.mark.parametrize("budget, exact, skipped, code", [
    (3, {"base": 2, "root": 1, "value": 2.0}, ["gamma(U_1) skipped"], EXIT_OK),
    (2, None, ["gamma(U_1) skipped", "alpha(G_c^1) skipped", "perfect-graph closure skipped",
               "alpha(G_c^2) skipped"], EXIT_BUDGET),
])
def test_capacity_fails_only_an_open_bracket(tmp_path, budget, exact, skipped, code):
    # as for analyze: at 3 nodes alpha(G_s) = 2 closes example 1 at n = 1
    # over the identity channel while Gamma(U_1) runs out, and the exact
    # value exits OK.  The channel side closes at n = 1 too, on its edgeless
    # G_c, so it never reaches G_c^2 (its alpha ran out there when the
    # channel side searched every n up to the cap).  At 2 nodes alpha(G_c)
    # runs out, which also leaves its perfect-graph closure without an
    # alpha, and G_c^2 runs out; the bracket stays open, and the run fails.
    # Both reports keep every skip
    out = tmp_path / "report.json"
    assert main(["capacity", "--utility", EXAMPLE1, "--max-n", "2", "--budget-nodes",
                 str(budget), "--out", str(out)]) == code
    bracket = json.loads(out.read_text())["bracket"]
    assert bracket["exact"] == exact
    assert [w.split(":")[0] for w in bracket["warnings"]] == skipped


def test_capacity_refuses_a_channel_on_another_alphabet(capsys):
    # the pentagon has 5 symbols, the channel 3 inputs
    argv = ["capacity", "--utility", PENTAGON,
            "--channel", str(corpus_path("channel_confuse12.json"))]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "ixcap: error: utility and channel alphabets differ in size\n")


@pytest.mark.parametrize("channel", ["channel_identity3.json", "channel_confuse12.json"])
def test_game_refuses_a_channel_on_another_alphabet(tmp_path, capsys, channel):
    # a noiseless channel on 3 inputs is refused as a noisy one is, not
    # dropped from a report on the pentagon's 5 symbols
    out = tmp_path / "game.json"
    argv = ["game", "--utility", PENTAGON, "--channel", str(corpus_path(channel)),
            "-n", "1", "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "ixcap: error: utility and channel alphabets differ in size\n")
    assert not out.exists()


def test_channel_witness_names_words_as_the_game_does(tmp_path, capsys):
    # an edgeless G_s protects every word, so the rate is the channel's: the
    # 5 words of alpha(C5^2), named as `game` names the inputs it sends
    utility = tmp_path / "edgeless.json"
    utility.write_text(json.dumps(
        {"utility": [[0 if i == j else -1 for j in range(5)] for i in range(5)]}))
    channel = tmp_path / "c5.json"
    channel.write_text(json.dumps(
        {"rows": [["1/2" if j in (i, (i + 1) % 5) else 0 for j in range(5)]
                  for i in range(5)]}))
    cert = asymptotic_rate_bracket(load_utility(utility), load_channel(channel)).lower_certificate
    assert (cert["name"], cert["n"], cert["alpha"]) == ("alpha_confusability_power", 2, 5)
    out = tmp_path / "report.json"
    files = ["--utility", str(utility), "--channel", str(channel), "--out", str(out)]
    assert main(["capacity", *files]) == EXIT_OK
    assert json.loads(out.read_text())["bracket"]["lower"]["certificate"] == cert
    assert main(["game", *files, "-n", "2"]) == EXIT_OK
    game = json.loads(out.read_text())
    assert sorted(game["input_set"]) == sorted(cert["witness"])
    assert all(len(word) == 2 for word in cert["witness"])


@pytest.mark.parametrize("command, content", [
    ("alpha --graph", {"n": "x", "edges": []}),
    ("alpha --graph", {"n": 3, "edges": 5}),
    ("alpha --graph", {"n": 3, "edges": [5]}),
    ("alpha --graph", {"n": 5, "edges": [[0, 1.5]]}),
    ("capacity --channel", {"rows": 7}),
    ("game --channel", {"rows": [5, [0, 1, 0], [0, 0, 1]]}),
    ("game --receiver", {"n": 1, "decode": ["0", "1", "2"]}),
    ("game --receiver", {"n": "x", "decode": {}}),
    ("game --receiver", {"n": 1, "decode": {"0": "0", "1": ["1"], "2": "2"}}),
], ids=["count", "edges", "edge", "endpoint", "rows", "row", "decode", "n", "target"])
def test_malformed_file_is_an_input_error(command, content, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    name, flag = command.split()
    argv = [name, flag, f"file:{path}" if flag == "--receiver" else str(path)]
    if name != "alpha":
        argv += ["--utility", EXAMPLE1]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("ixcap: error: ")


def test_alpha_refuses_a_graph_file_above_the_vertex_cap(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 3_000_000, "edges": []}))
    assert main(["alpha", "--graph", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "ixcap: error: 3000000 vertices exceed the cap of 20000\n")


def test_alpha_refuses_a_power_above_the_cap_before_its_table(tmp_path, capsys):
    # a 3000-vertex path squared has 9 * 10^6 words; its 3000 x 3000
    # closed-neighbourhood table is never built
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"n": 3000, "edges": [[i, i + 1] for i in range(2999)]}))
    start = time.perf_counter()
    assert main(["alpha", "--graph", str(path), "-n", "2"]) == EXIT_INPUT
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "ixcap: error: 9000000 vertices exceed the cap of 20000\n")


@pytest.mark.parametrize("command", ["alpha", "theta"])
def test_a_graph_file_with_no_vertex_is_refused(command, tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": 0, "edges": []}))
    assert main([command, "--graph", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == "ixcap: error: graph must have at least one vertex\n"


@pytest.mark.parametrize("rows, decode, decoded_set, input_set", [
    ([["1/2", "1/2", 0], ["1/2", "1/2", 0], [0, 0, 1]], ["1", "1", "2"], ["1", "2"], ["0", "2"]),
    ([[1, 0, 0], ["1/2", "1/2", 0], [0, 0, 1]], ["2", "2", "1"], ["1", "2"], ["2", "0"]),
], ids=["shared-support", "inner-support"])
def test_input_set_names_the_least_wholly_decoded_input(rows, decode, decoded_set, input_set,
                                                         tmp_path):
    # the outputs {0, 1} decode to one sequence: inputs 0 and 1 share that
    # support, or input 0's support {0} lies strictly inside input 1's; both
    # decode wholly to it, and the report names input 0 either way
    files = {"utility": {"utility": [[0, -1, -1], [-1, 0, -1], [-1, -1, 0]]},
             "channel": {"rows": rows},
             "strategy": {"n": 1, "decode": dict(zip("012", decode))}}
    for name, content in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(content))
    report = tmp_path / "game.json"
    argv = ["game", "--utility", str(tmp_path / "utility.json"),
            "--channel", str(tmp_path / "channel.json"),
            "--receiver", f"file:{tmp_path / 'strategy.json'}", "--out", str(report)]
    assert main(argv) == EXIT_OK
    got = json.loads(report.read_text())
    assert (got["decoded_set"], got["input_set"]) == (decoded_set, input_set)


def test_noisy_game_replays_its_own_strategy_file(tmp_path):
    # the optimal partition decoder, saved and read back as a file, decodes
    # the same sequences from the same inputs
    report = tmp_path / "game.json"
    noisy = ["game", "--utility", EXAMPLE1, "--channel", CONFUSE12, "-n", "2"]
    assert main([*noisy, "--out", str(report)]) == EXIT_OK
    optimal = json.loads(report.read_text())
    # the analysis runs on every strategy, so no field claims a verdict
    assert "dominance_verified" not in optimal
    strategy = tmp_path / "strategy.json"
    strategy.write_text(json.dumps(optimal["strategy"]))
    assert main([*noisy, "--receiver", f"file:{strategy}", "--out", str(report)]) == EXIT_OK
    replay = json.loads(report.read_text())
    for key in ("decoded_size", "decoded_set", "input_set"):
        assert replay[key] == optimal[key]
    # the class decoded to 02 moved to 01, which no class decodes to: still
    # a partition, but not an equilibrium.  Input 01 now reports 01 truthfully,
    # and against the source 00 it gains u(1, 0) = 1, so 00 is lost
    decode = optimal["strategy"]["decode"]
    assert "02" in decode.values() and "01" not in decode.values()
    moved = {z: "01" if t == "02" else t for z, t in decode.items()}
    strategy.write_text(json.dumps({"n": 2, "decode": moved}))
    assert main([*noisy, "--receiver", f"file:{strategy}", "--out", str(report)]) == EXIT_OK
    replay = json.loads(report.read_text())
    assert optimal["decoded_set"] == ["00", "02", "20", "22"]
    assert (replay["decoded_size"], replay["decoded_set"], replay["input_set"]) == (
        3, ["01", "20", "22"], ["01", "10", "11"])


def test_noisy_game_reports_the_naive_receiver(tmp_path):
    # only input 0 decodes wholly, to 0; inputs 1 and 2 reach outputs 1 and
    # 2, worth u(1, 0) = 1 and u(2, 0) = -1 against the source 0, a tie
    report = tmp_path / "game.json"
    argv = ["game", "--utility", EXAMPLE1, "--channel", CONFUSE12, "--receiver", "naive",
            "--out", str(report)]
    assert main(argv) == EXIT_OK
    got = json.loads(report.read_text())
    assert (got["decoded_size"], got["decoded_set"], got["input_set"]) == (0, [], [])
    assert got["strategy"]["decode"] == {"0": "0", "1": "1", "2": "2"}


@pytest.mark.parametrize("channel", [[], ["--channel", CONFUSE12]], ids=["noiseless", "noisy"])
def test_game_refuses_an_unknown_receiver(channel, capsys):
    assert main(["game", "--utility", EXAMPLE1, *channel, "--receiver", "bogus"]) == EXIT_INPUT
    assert capsys.readouterr().err == "ixcap: error: unknown receiver spec 'bogus'\n"
