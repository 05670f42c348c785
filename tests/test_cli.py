import pytest

from ixcap import cli
from ixcap.cli import EXIT_BUDGET, EXIT_GOLDEN, EXIT_INPUT, EXIT_OK, corpus_path, main

PENTAGON = str(corpus_path("pentagon.json"))


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
])
def test_usage_error_is_an_input_error(argv):
    assert main(argv) == EXIT_INPUT


def test_budget_exceeded():
    assert main(["alpha", "--utility", PENTAGON, "-n", "2",
                 "--budget-nodes", "1"]) == EXIT_BUDGET


def test_corpus_goldens_pass():
    assert main(["corpus"]) == EXIT_OK


def test_corpus_golden_mismatch(monkeypatch):
    monkeypatch.setattr(cli, "gamma", lambda U, **kw: (99, None))
    assert main(["corpus"]) == EXIT_GOLDEN
