import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ixcap.game
import ixcap.lower_bounds
import ixcap.upper_bounds
from conftest import oracle_alpha, oracle_sender_edges
from ixcap import cli
from ixcap.cli import EXIT_BUDGET, EXIT_GOLDEN, EXIT_INPUT, EXIT_OK, corpus_path, main
from ixcap.graphs import graph_from_edges
from ixcap.upper_bounds import xi_bracket
from ixcap.utility import load_utility, symmetric_part

PENTAGON = str(corpus_path("pentagon.json"))
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
    ["gamma", "--utility", PENTAGON, "--budget-nodes", "5"],
    ["theta", "--utility", PENTAGON, "--budget-nodes", "5"],
    ["corpus", "--format", "csv"],
    ["alpha", "--utility", PENTAGON, "--format", "md"],
    ["gamma", "--utility", PENTAGON, "--method", "permutation-brute-force"],
    ["analyze", "--utility", PENTAGON, "--max-n", "0"],
    ["analyze", "--utility", PENTAGON, "--budget-nodes", "0"],
    ["analyze", "--utility", PENTAGON, "--budget-nodes", "-5"],
    ["analyze", "--utility", PENTAGON, "--assume-perfect"],
])
def test_usage_error_is_an_input_error(argv):
    assert main(argv) == EXIT_INPUT


def test_import_does_not_load_networkx():
    probe = "import sys, ixcap; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "False"


def test_budget_exceeded():
    assert main(["alpha", "--utility", PENTAGON, "-n", "2",
                 "--budget-nodes", "1"]) == EXIT_BUDGET


def test_corpus_goldens_pass():
    assert main(["corpus"]) == EXIT_OK


def test_corpus_golden_mismatch(monkeypatch):
    monkeypatch.setattr(cli, "gamma", lambda U, **kw: (99, None))
    assert main(["corpus"]) == EXIT_GOLDEN


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
        sym = graph_from_edges(5**n, sorted(oracle_sender_edges(symmetric_part(pentagon), n)))
        assert record["alpha_sym"] == oracle_alpha(sym)[0]
    _, csv_text = _analyze(tmp_path, fmt="csv")
    assert len(csv_text.splitlines()) == 1 + 2
    _, md_text = _analyze(tmp_path, fmt="md")
    assert sum(line.startswith("| ") and line[2].isdigit() for line in md_text.splitlines()) == 2


def test_analyze_out_of_budget_still_reports(tmp_path):
    code, text = _analyze(tmp_path, "--budget-nodes", "1")
    assert code == EXIT_BUDGET
    report = json.loads(text)
    assert report["budget_exceeded"]
    assert report["bracket"]["lower"]["certificate"] == {"name": "trivial", "n": 1}
    assert all("alpha_sender_error" in r and "gamma_error" in r for r in report["per_n"])


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
