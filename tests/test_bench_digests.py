"""The benchmark's answers, checked in the tier-1 suite.

``perfbench/expected_digests.json`` holds, per workload and seed, a digest of
the seeded inputs and one of the exact answers.  This recomputes both, the
way ``perfbench/run.py`` does on its first pass, so a change that moves any
answer fails here and not only in a benchmark run.  It also caps the
searches that the canonical-witness pass runs on the seed-1 jobs, pins
which seed-1 brackets run a second blocklength, and counts the alpha
searches of a seed-1 bracket pass, none repeated, and its theta solves,
none.  Nothing under ``perfbench/`` is written.
"""

import json
import sys
from pathlib import Path

import pytest

import ixcap.game
import ixcap.graphs
import ixcap.lower_bounds
import ixcap.upper_bounds

ROOT = Path(__file__).parents[1]
PERFBENCH = ROOT / "perfbench"
# workloads.py imports its sibling oracle.py as a top-level module
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

EXPECTED = json.loads((PERFBENCH / "expected_digests.json").read_text())


@pytest.mark.parametrize("seed", range(16))
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_results_match_the_recorded_digests(name, seed):
    workload = workloads.WORKLOADS[name]
    jobs = workload.make_jobs(seed, ROOT)
    keys = []
    for job in jobs:
        try:
            keys.append(workload.key(job, workload.call(job)))
        except workloads.EXPECTED_FAILURES as exc:
            keys.append(type(exc).__name__)
    got = {"inputs": workloads.digest([job.spec for job in jobs]),
           "results": workloads.digest(keys)}
    assert got == EXPECTED[name][str(seed)]


@pytest.mark.parametrize("name, most", [("equilibrium", 40), ("noisy", 60)])
def test_witness_pass_searches_little(name, most, monkeypatch):
    # the exchange and partition rules settle most vertices outside the
    # maximum set; with a search for each, a seed-1 pass ran 311
    # (equilibrium) and 325 (noisy) of them
    searches = 0
    at_least = ixcap.graphs._CliqueSearch.at_least

    def counting(self, cand, target):
        nonlocal searches
        searches += 1
        return at_least(self, cand, target)

    monkeypatch.setattr(ixcap.graphs._CliqueSearch, "at_least", counting)
    workload = workloads.WORKLOADS[name]
    for job in workload.make_jobs(1, ROOT):
        try:
            workload.call(job)
        except workloads.EXPECTED_FAILURES:
            pass
    assert 0 < searches <= most


def test_equilibrium_check_sums_only_the_witness_rows(monkeypatch):
    # each seed-1 equilibrium job checks its witness W with no
    # best-response table: the 11 product witnesses L^n on their letters,
    # with no block sum, and the other 5 on the block sums of W's rows
    # alone, in one call
    calls, tables = [], []
    block_sums = ixcap.game._block_sums

    def recorded_sums(U, n, rows=None, **kwargs):
        calls.append(None if rows is None else list(rows))
        return block_sums(U, n, rows, **kwargs)

    monkeypatch.setattr(ixcap.game, "_block_sums", recorded_sums)
    monkeypatch.setattr(ixcap.game, "worst_case_decoded_set",
                        lambda *args: tables.append(args))
    workload = workloads.WORKLOADS["equilibrium"]
    dense = []
    for i, job in enumerate(workload.make_jobs(1, ROOT)):
        calls.clear()
        _, strategy = workload.call(job)
        if calls:
            assert calls == [list(strategy.image())]
            dense.append(i)
    assert dense == [1, 3, 7, 9, 11] and i == 15
    assert not tables


@pytest.mark.parametrize("name", ["equilibrium", "noisy"])
def test_closed_sandwich_builds_no_search_copy(name, monkeypatch):
    # a sandwich that closes answers alpha from its bounds, and on these
    # jobs its witness pass needs no search, so no degree-ordered copy of
    # the graph is built (a seed-1 pass built 16 and 30 of them, one per
    # sandwiched graph, where 11 and 19 sandwiches close)
    closed, copied = [], []
    sandwich = ixcap.graphs._sandwich
    copy_init = ixcap.graphs._SearchCopy.__init__

    def recorded_sandwich(g, *args):
        seed, ceiling, cliques = sandwich(g, *args)
        if seed.bit_count() == ceiling:
            closed.append(g)
        return seed, ceiling, cliques

    def recorded_copy(self, g, *args):
        copy_init(self, g, *args)
        if self.ordered:
            copied.append(g)

    monkeypatch.setattr(ixcap.graphs, "_sandwich", recorded_sandwich)
    monkeypatch.setattr(ixcap.graphs._SearchCopy, "__init__", recorded_copy)
    workload = workloads.WORKLOADS[name]
    for job in workload.make_jobs(1, ROOT):
        try:
            workload.call(job)
        except workloads.EXPECTED_FAILURES:
            pass
    assert closed and copied
    assert not any(g is c for g in closed for c in copied)


def test_bracket_runs_blocklength_2_only_where_blocklength_1_stays_open(monkeypatch):
    # a bracket stops at the first blocklength that closes: of the 35
    # seed-1 jobs only the pentagon and one random input stay open at
    # n = 1, so only they build G_s^2 and search Gamma(U_2)
    workload = workloads.WORKLOADS["bracket"]
    jobs = workload.make_jobs(1, ROOT)
    still_open = [i for i, job in enumerate(jobs)
                  if ixcap.xi_bracket(*job.args, **{**job.kwargs, "n_max": 1}).exact is None]
    assert [jobs[i].label for i in still_open] == ["corpus:pentagon", "random:q4"]

    # Gamma(U_1) runs on every input that is not symmetric; G_s and G_s^Sym
    # at n = 1 come from one letter pass
    calls = []
    gamma_n = ixcap.upper_bounds._gamma_n
    sender_graph = ixcap.upper_bounds.sender_graph
    letter_graphs = ixcap.upper_bounds._letter_graphs
    monkeypatch.setattr(ixcap.upper_bounds, "_letter_graphs", lambda t:
                        calls.append(("_letter_graphs",)) or letter_graphs(t))
    monkeypatch.setattr(ixcap.upper_bounds, "_gamma_n", lambda U, n, *args:
                        calls.append(("gamma_n", n)) or gamma_n(U, n, *args))
    monkeypatch.setattr(ixcap.upper_bounds, "sender_graph", lambda U, n:
                        calls.append(("sender_graph", n)) or sender_graph(U, n))
    for i, job in enumerate(jobs):
        calls.clear()
        workload.call(job)
        gamma = [] if job.args[0].is_symmetric() else [("gamma_n", 1)]
        later = [("sender_graph", 2), ("gamma_n", 2)] if i in still_open else []
        assert calls == [("_letter_graphs",), *gamma, *later]


def test_bracket_searches_each_graph_once(monkeypatch):
    # one seed-1 pass makes 61 alpha searches, and no bracket searches a
    # graph with the rows of one it searched before (62 with 1 repeat when
    # the pentagon's G_s^Sym,2 was searched again for Gamma(U_2))
    searched = []
    for module, name in ((ixcap.upper_bounds, "independence_number"),
                         (ixcap.lower_bounds, "_alpha")):
        def search(g, *args, _search=getattr(module, name), **kw):
            searched.append(g.rows)
            return _search(g, *args, **kw)

        monkeypatch.setattr(module, name, search)
    workload = workloads.WORKLOADS["bracket"]
    total = 0
    for job in workload.make_jobs(1, ROOT):
        searched.clear()
        workload.call(job)
        assert len(set(searched)) == len(searched)
        total += len(searched)
    assert total == 61


def test_bracket_runs_no_theta_solve(monkeypatch):
    # the solver ran once per seed-1 pass, on the pentagon's C5, which the
    # eigenvalue pin now settles: its upper side is the pinned pair, no tol
    solved = []
    solve = ixcap.upper_bounds.lovasz_theta
    monkeypatch.setattr(ixcap.upper_bounds, "lovasz_theta",
                        lambda g, **kw: solved.append(g.rows) or solve(g, **kw))
    workload = workloads.WORKLOADS["bracket"]
    jobs = workload.make_jobs(1, ROOT)
    uppers = [(job.label, workload.call(job).upper_certificate) for job in jobs]
    pinned = [(label, cert) for label, cert in uppers if cert.get("regular")]
    assert (len(jobs), solved, [label for label, _ in pinned]) == (35, [], ["corpus:pentagon"])
    assert pinned[0][1]["name"] == "theta_symmetric_part" and "tol" not in pinned[0][1]
