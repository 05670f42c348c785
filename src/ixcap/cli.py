"""Command-line front end: analysis reports, game replay, thin wrappers over
the bound computations, and the bundled worked-example corpus runner.

Each run writes one document, to stdout or ``--out``: by default a JSON
report.  Only ``analyze`` offers other renderings (``--format csv`` or
``md``), and ``corpus`` prints its checks as markdown unless ``--format
json`` or ``--out`` is given; its ``--out`` file holds the JSON report.
``analyze`` runs one ``xi_bracket`` pass and prints its per-blocklength
records and theta(G_s^Sym) next to the bracket, so the table shows the very
values the bracket compared, one row per blocklength run; its perfect-graph
closure rests on a partition of G_s^Sym into alpha cliques, found within
``--budget-nodes`` and listed in the report, never on a user's word.
``gamma`` reports the largest feasible subset at blocklength ``-n``, searched
within ``--budget-nodes``, or with ``--subset`` the feasibility of one subset
and, when it is infeasible, the closed chain that proves it.  ``game``
reports the sequences any strategy recovers under every best response, over
a noiseless channel by ``game.worst_case_decoded_set`` and over a noisy one
by ``game.verify_noisy_equilibrium``, with each recovered sequence's least
input; no table on X^n is built here.  ``alpha`` takes alpha and its
witness from ``graphs.block_independence_number``, as the game does, on
U's integer table or, at n >= 2, a file graph's closed-neighbourhood
table, so no graph on X^n is built where the letter rule answers; a file
graph at n = 1 is searched as loaded.

Exit codes: 0 success, 1 invalid input (a usage error included) or a failed
internal verification, 2 resource budget exceeded, 3 corpus golden mismatch.
On exit 2, ``analyze`` and ``capacity`` still write their report, with each
skipped search named in its warnings, and ``gamma`` writes its report with
the largest feasible subset found, its certificate flagged not optimal; the
other commands write none.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from importlib.resources import files as resource_files
from pathlib import Path

from . import __version__
from .channel import identity_channel, load_channel
from .errors import BudgetExceededError, ConvergenceError, InputError, IxcapError
from .game import (
    equilibrium_value_noiseless,
    load_strategy,
    naive_receiver_strategy,
    noisy_equilibrium_value,
    strategy_to_json_dict,
    verify_noisy_equilibrium,
    worst_case_decoded_set,
)
from .graphs import (
    DEFAULT_NODE_BUDGET,
    _closed_table,
    block_independence_number,
    cycle_graph,
    independence_number,
    load_graph,
    sender_graph,
    strong_power,
    symmetric_sender_graph,
)
from .lower_bounds import (
    feasibility_report,
    gamma,
    gamma_n,
    is_feasible_O,
    sufficient_margin_check,
)
from .theta import lovasz_theta
from .upper_bounds import asymptotic_rate_bracket, xi_bracket
from .utility import (
    UtilityMatrix,
    _check_cap,
    load_utility,
    sequence_labels,
    utility_from_graph,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_GOLDEN = 3


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def corpus_path(name: str) -> Path:
    """Path of a bundled example file (utility or channel JSON)."""
    return Path(str(resource_files("ixcap.corpus").joinpath(name)))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_output(payload: dict, out, text: str | None = None):
    """Write text, by default the JSON rendering of payload, to out or stdout."""
    if text is None:
        text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _bracket_exit(bracket) -> int:
    """EXIT_BUDGET when a search skipped for its budget leaves the bracket
    open.  The skip stays in the report, but an exact value needs no more,
    so it fails no run."""
    return EXIT_BUDGET if bracket.warnings and bracket.exact is None else EXIT_OK


def _utility_from_args(args) -> UtilityMatrix:
    if getattr(args, "utility", None):
        return load_utility(args.utility)
    raise InputError("--utility is required")


def cmd_analyze(args) -> int:
    U = _utility_from_args(args)
    utility_path = Path(args.utility)
    t0 = time.perf_counter()
    bracket = xi_bracket(U, n_max=args.max_n, tol=args.theta_tol,
                         node_budget=args.budget_nodes)
    seconds = round(time.perf_counter() - t0, 6)

    payload = {
        "tool": {"name": "ixcap", "version": __version__, "command": "analyze"},
        "input": {
            "utility_path": str(utility_path),
            "sha256": _sha256(utility_path),
            "q": U.q,
            "alphabet": list(U.alphabet.symbols),
        },
        "per_n": list(bracket.per_n),
        "theta": {"symmetric_part": bracket.theta_sym},
        "bracket": bracket.to_json_dict(),
        "timings": {"bracket": seconds},
        "budget_exceeded": bool(bracket.warnings),
    }

    # a record lacks the fields of a search skipped for its budget: None here
    columns = ("n", "alpha_sender", "alpha_sender_rate", "gamma", "gamma_rate", "alpha_sym")
    cells = [[_fmt(row[key]) if key.endswith("_rate") and key in row else row.get(key)
              for key in columns] for row in bracket.per_n]
    texts = {
        "csv": "".join(",".join("" if c is None else str(c) for c in row) + "\n"
                       for row in [columns, *cells]),
        "md": "\n".join([
            f"# Capacity analysis: {utility_path.name}",
            "",
            f"- alphabet size q = {U.q}",
            f"- bracket: [{_fmt(bracket.lower)}, {_fmt(bracket.upper)}]"
            + (f", exact = {_fmt(bracket.exact.value)}" if bracket.exact else ""),
            "",
            "| n | alpha(G_s^n) | rate | Gamma(U_n) | rate | alpha sym |",
            "|---|---|---|---|---|---|",
            *("| " + " | ".join("-" if c is None else str(c) for c in row) + " |"
              for row in cells),
            "",
        ]),
    }
    _write_output(payload, args.out, texts.get(args.format))
    return _bracket_exit(bracket)


def _strategy_file(U: UtilityMatrix, receiver: str, n: int):
    strategy = load_strategy(U, receiver[5:])
    if strategy.n != n:
        raise InputError(f"the strategy file is for blocklength {strategy.n}, not -n {n}")
    return strategy


def cmd_game(args) -> int:
    U = _utility_from_args(args)
    n = args.blocklength
    if n < 1:
        raise InputError("blocklength must be at least 1")
    channel = load_channel(args.channel) if args.channel else None
    if channel is not None and channel.q != U.q:
        raise InputError("utility and channel alphabets differ in size")
    receiver = args.receiver
    if receiver not in ("naive", "optimal") and not receiver.startswith("file:"):
        raise InputError(f"unknown receiver spec {receiver!r}")
    if args.budget_nodes is not None and receiver != "optimal":
        raise InputError("--budget-nodes bounds the optimal receiver's search; "
                         f"the {receiver!r} receiver runs none")
    budget = DEFAULT_NODE_BUDGET if args.budget_nodes is None else args.budget_nodes

    payload: dict = {
        "tool": {"name": "ixcap", "version": __version__, "command": "game"},
        "utility": str(args.utility),
        "n": n,
        "receiver": receiver,
    }

    noiseless = channel is None or channel.is_noiseless()
    if receiver == "naive":
        strategy = naive_receiver_strategy(U.q, n)
    elif receiver == "optimal" and noiseless:
        value, strategy = equilibrium_value_noiseless(U, n, budget=budget)
        payload["equilibrium_value"] = value
    elif receiver == "optimal":
        _, strategy = noisy_equilibrium_value(U, channel, n, budget=budget)
    else:
        strategy = _strategy_file(U, receiver, n)
    outcome = (worst_case_decoded_set(U, strategy) if noiseless
               else verify_noisy_equilibrium(U, channel, strategy))
    labels = sequence_labels(U.alphabet, n)
    payload["decoded_set"] = [labels[x] for x in outcome.decoded_worst]
    payload["decoded_size"] = outcome.decoded_size
    payload["rate"] = outcome.rate
    if noiseless:
        payload["best_response_targets"] = {
            label: [labels[x] for x in targets]
            for label, targets in zip(labels, outcome.best_response_summary)
        }
    else:
        payload["channel"] = str(args.channel)
        # each recovered sequence's least best response
        payload["input_set"] = [labels[outcome.best_response_summary[x][0]]
                                for x in outcome.decoded_worst]
    payload["strategy"] = strategy_to_json_dict(U, strategy)

    _write_output(payload, args.out)
    return EXIT_OK


def cmd_alpha(args) -> int:
    n, budget = args.blocklength, args.budget_nodes
    if args.graph:
        g = load_graph(args.graph)
        _check_cap(g.n_vertices, n)  # before the q x q table of a power
        alpha, witness = (independence_number(g, budget) if n == 1 else
                          block_independence_number(_closed_table(g), n, budget))
    else:
        U = _utility_from_args(args)
        alpha, witness = block_independence_number(U.scaled_integer_entries[1], n, budget)
        # a sender graph's vertices are sequences, reported by name
        witness = sequence_labels(U.alphabet, n, witness)
    payload = {
        "alpha": alpha,
        "n": n,
        "rate": alpha ** (1.0 / n),
        "witness": list(witness),
    }
    _write_output(payload, args.out)
    return EXIT_OK


def cmd_gamma(args) -> int:
    if args.subset is not None and args.blocklength is not None:
        raise InputError("--subset tests symbols at blocklength 1 and takes no -n")
    U = _utility_from_args(args)
    if args.subset is not None:
        subset = U.alphabet.indices_of(args.subset)
        payload = feasibility_report(U, subset)
        payload["sufficient_margin"] = sufficient_margin_check(U, subset)
        _write_output(payload, args.out)
        return EXIT_OK
    n = 1 if args.blocklength is None else args.blocklength
    value, cert = gamma_n(U, n, node_budget=args.budget_nodes)
    payload = {"gamma": value, "n": n, "certificate": cert.to_json_dict()}
    _write_output(payload, args.out)
    return EXIT_OK if cert.optimal else EXIT_BUDGET


def cmd_theta(args) -> int:
    if args.graph:
        if args.part:
            raise InputError("--part selects a sender graph and takes no --graph")
        g = load_graph(args.graph)
        source = {"graph": str(args.graph)}
    else:
        U = _utility_from_args(args)
        part = args.part or "sym"
        g = (sender_graph if part == "base" else symmetric_sender_graph)(U, 1)
        source = {"utility": str(args.utility), "part": part}
    value = lovasz_theta(g, tol=args.theta_tol)
    payload = {"theta": value, "tol": args.theta_tol, **source}
    _write_output(payload, args.out)
    return EXIT_OK


def cmd_capacity(args) -> int:
    U = _utility_from_args(args)
    channel = load_channel(args.channel) if args.channel else identity_channel(U.alphabet)
    bracket = asymptotic_rate_bracket(
        U, channel, n_max=args.max_n, tol=args.theta_tol, budget=args.budget_nodes)
    payload = {
        "tool": {"name": "ixcap", "version": __version__, "command": "capacity"},
        "utility": str(args.utility),
        "channel": str(args.channel) if args.channel else "identity",
        "bracket": bracket.to_json_dict(),
    }
    _write_output(payload, args.out)
    return _bracket_exit(bracket)


def _corpus_checks():
    """Golden checks for every bundled worked example."""
    ex1 = load_utility(corpus_path("example1.json"))
    ex1p = load_utility(corpus_path("example1_prime.json"))
    ex2 = load_utility(corpus_path("example2.json"))
    ex3 = load_utility(corpus_path("example3.json"))
    pent = load_utility(corpus_path("pentagon.json"))

    checks = []

    def check(name, expected, got):
        checks.append({"name": name, "expected": repr(expected), "got": repr(got),
                       "pass": expected == got})

    naive = worst_case_decoded_set(ex1, naive_receiver_strategy(3, 1))
    check("example1 naive decoded size", 1, naive.decoded_size)
    value, strategy = equilibrium_value_noiseless(ex1, 1)
    check("example1 equilibrium value", 2, value)
    check("example1 equilibrium set", ("0", "2"),
          sequence_labels(ex1.alphabet, 1, worst_case_decoded_set(ex1, strategy).decoded_worst))

    check("example2 feasible (cycles)", True, is_feasible_O(ex2, (0, 1, 2)))
    check("example2 margin check fails", False, sufficient_margin_check(ex2, (0, 1, 2)))

    check("example3 gamma", 3, gamma(ex3)[0])
    b3 = xi_bracket(ex3, n_max=1, tol=1e-3)
    check("example3 exact capacity", (3, 1),
          (b3.exact.base, b3.exact.root) if b3.exact else None)

    check("pentagon gamma", 2, gamma(pent)[0])
    g2, cert2 = gamma_n(pent, 2)
    check("pentagon gamma_2", 5, g2)
    check("pentagon gamma_2 witness", ("00", "12", "24", "31", "43"), cert2.labels)
    alpha2, _ = block_independence_number(pent.scaled_integer_entries[1], 2)
    check("pentagon alpha(G_s^2)", 5, alpha2)
    theta_pent = lovasz_theta(symmetric_sender_graph(pent, 1), tol=1e-5)
    check("pentagon theta is sqrt(5) within 1e-4", True,
          abs(theta_pent - math.sqrt(5)) < 1e-4)
    bp = xi_bracket(pent, n_max=2, tol=1e-3)
    check("pentagon exact capacity sqrt(5)", (5, 2),
          (bp.exact.base, bp.exact.root) if bp.exact else None)
    check("pentagon upper side is its pinned eigenvalue pair, no tol", (True, False),
          (bp.upper_certificate.get("regular", False), "tol" in bp.upper_certificate))

    gs1 = sender_graph(ex1, 1)
    gs1p = sender_graph(ex1p, 1)
    check("remark1 same base graph", True, gs1 == gs1p)
    g2a = sender_graph(ex1, 2)
    g2b = sender_graph(ex1p, 2)
    words = sequence_labels(ex1.alphabet, 2)
    i01, i10 = words.index("01"), words.index("10")
    check("remark1 01~10 under original", True, g2a.has_edge(i01, i10))
    check("remark1 01~10 absent under variant", False, g2b.has_edge(i01, i10))

    c5 = cycle_graph(5)
    uc5 = utility_from_graph(c5)
    for n in (1, 2, 3):
        check(f"shannon-generalization identity n={n}", True,
              sender_graph(uc5, n) == strong_power(c5, n))
    return checks


def cmd_corpus(args) -> int:
    checks = _corpus_checks()
    payload = {
        "tool": {"name": "ixcap", "version": __version__, "command": "corpus"},
        "passed": sum(1 for c in checks if c["pass"]),
        "failed": sum(1 for c in checks if not c["pass"]),
        "checks": checks,
    }
    lines = []
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        lines.append(f"[{status}] {c['name']}: expected {c['expected']}, got {c['got']}")
    lines.append(f"{payload['passed']} passed, {payload['failed']} failed")
    md_text = None if args.out or args.format == "json" else "\n".join(lines) + "\n"
    _write_output(payload, args.out, md_text)
    return EXIT_GOLDEN if payload["failed"] else EXIT_OK


def _add_budget_nodes(p):
    p.add_argument("--budget-nodes", dest="budget_nodes", type=int,
                   default=DEFAULT_NODE_BUDGET,
                   help="nodes each exact search may spend; every search of the "
                        f"command gets this budget afresh (default: {DEFAULT_NODE_BUDGET})")


def _add_common(p, utility=True, graph=False, blocklength=False, max_n=False,
                channel=False, theta_tol=False, budget_nodes=False):
    # a command that reads a graph file reads it instead of a utility
    source = p.add_mutually_exclusive_group() if graph else p
    if utility:
        source.add_argument("--utility", help="utility matrix JSON file")
    if graph:
        source.add_argument("--graph", help="standalone graph JSON file")
    if channel:
        p.add_argument("--channel", help="channel transition matrix JSON file")
    if blocklength:
        p.add_argument("-n", "--blocklength", type=int, default=1)
    if max_n:
        p.add_argument("--max-n", dest="max_n", type=int, default=2,
                       help="largest blocklength tried; the bracket stops at the first "
                            "that closes")
    if theta_tol:
        p.add_argument("--theta-tol", dest="theta_tol", type=float, default=1e-3)
    if budget_nodes:
        _add_budget_nodes(p)
    p.add_argument("--out", help="write the report to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ixcap",
        description="Certified brackets on the information extraction "
                    "capacity of a strategic sender",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full per-blocklength analysis and bracket")
    _add_common(p, max_n=True, theta_tol=True, budget_nodes=True)
    p.add_argument("--format", choices=("json", "csv", "md"), default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("game", help="replay the leader-follower game")
    _add_common(p, blocklength=True, channel=True, budget_nodes=True)
    p.add_argument("--receiver", default="optimal",
                   help="naive | optimal | file:<strategy.json>")
    # only the optimal receiver searches, so the others take no budget
    p.set_defaults(budget_nodes=None)
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("alpha", help="independence number of a sender graph or file graph")
    _add_common(p, graph=True, blocklength=True, budget_nodes=True)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("gamma", help="largest feasible subset bound")
    _add_common(p, blocklength=True)
    # a single subset's feasibility runs no search, so it takes no budget,
    # and is decided at blocklength 1, so it takes no -n either
    p.set_defaults(blocklength=None)
    exclusive = p.add_mutually_exclusive_group()
    exclusive.add_argument("--subset", help="comma-separated symbol labels: report "
                                            "feasibility of this subset instead")
    _add_budget_nodes(exclusive)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("theta", help="Lovasz theta of a graph")
    _add_common(p, graph=True, theta_tol=True)
    p.add_argument("--part", choices=("sym", "base"),
                   help="which sender graph to use for a utility input")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("capacity", help="noisy-channel extraction rate bracket")
    _add_common(p, channel=True, max_n=True, theta_tol=True, budget_nodes=True)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("corpus", help="run the bundled worked-example corpus")
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--format", choices=("json", "md"), default="md")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; 2 is the budget code here
        return EXIT_OK if not exc.code else EXIT_INPUT
    try:
        return args.func(args)
    except (BudgetExceededError, ConvergenceError) as exc:
        print(f"ixcap: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except IxcapError as exc:
        print(f"ixcap: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"ixcap: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
