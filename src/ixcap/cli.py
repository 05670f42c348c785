"""Command-line front end: analysis reports, game replay, thin wrappers over
the bound computations, and the bundled worked-example corpus runner.

Every sub-command writes a JSON report to stdout or ``--out``.  Only
``analyze`` offers other renderings (``--format csv`` or ``md``), and
``corpus`` prints its checks as markdown unless ``--format json`` is given.
``analyze`` runs one ``xi_bracket`` pass and prints its per-blocklength
records and theta(G_s^Sym) next to the bracket, so the table shows the very
values the bracket compared; its perfect-graph closure rests on an exact
perfectness test run under ``--budget-nodes``, never on a user's word.
``gamma`` reports the largest feasible subset at blocklength ``-n``, or
with ``--subset`` the feasibility of one subset and, when it is
infeasible, the closed chain that proves it.

Exit codes: 0 success, 1 invalid input (a usage error included) or a failed
internal verification, 2 resource budget exceeded, 3 corpus golden mismatch.
On exit 2, ``analyze`` and ``capacity`` still write their report, with each
skipped search named in its warnings; the other commands write none.
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
from .channel import Channel, identity_channel, load_channel
from .errors import BudgetExceededError, ConvergenceError, InputError, IxcapError
from .game import (
    asymptotic_rate_bracket,
    equilibrium_value_noiseless,
    load_strategy,
    naive_receiver_strategy,
    noisy_equilibrium_value,
    output_support_indices,
    strategy_to_json_dict,
    verify_noisy_equilibrium,
    worst_case_decoded_set,
)
from .graphs import (
    DEFAULT_NODE_BUDGET,
    cycle_graph,
    graphs_equal,
    independence_number,
    load_graph,
    sender_graph,
    strong_power,
)
from .lower_bounds import (
    feasibility_report,
    gamma,
    gamma_n,
    is_feasible_O,
    sufficient_margin_check,
)
from .theta import lovasz_theta
from .upper_bounds import xi_bracket
from .utility import (
    BlockSequence,
    UtilityMatrix,
    load_utility,
    sequence_label,
    symmetric_part,
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


def _utility_from_args(args) -> UtilityMatrix:
    if getattr(args, "utility", None):
        return load_utility(args.utility)
    raise InputError("--utility is required")


def cmd_analyze(args) -> int:
    utility_path = Path(args.utility)
    U = _utility_from_args(args)
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

    csv_rows = [(
        "n", "alpha_sender", "alpha_sender_rate", "gamma", "gamma_rate",
        "alpha_sym",
    )]
    for row in bracket.per_n:
        csv_rows.append((
            row["n"],
            row.get("alpha_sender", ""),
            _fmt(row["alpha_sender_rate"]) if "alpha_sender_rate" in row else "",
            row.get("gamma", ""),
            _fmt(row["gamma_rate"]) if "gamma_rate" in row else "",
            row.get("alpha_sym", ""),
        ))

    md_lines = [
        f"# Capacity analysis: {utility_path.name}",
        "",
        f"- alphabet size q = {U.q}",
        f"- bracket: [{_fmt(bracket.lower)}, {_fmt(bracket.upper)}]"
        + (f", exact = {_fmt(bracket.exact.value)}" if bracket.exact else ""),
        "",
        "| n | alpha(G_s^n) | rate | Gamma(U_n) | rate | alpha sym |",
        "|---|---|---|---|---|---|",
    ]
    for row in bracket.per_n:
        md_lines.append(
            f"| {row['n']} | {row.get('alpha_sender', '-')} "
            f"| {_fmt(row['alpha_sender_rate']) if 'alpha_sender_rate' in row else '-'} "
            f"| {row.get('gamma', '-')} "
            f"| {_fmt(row['gamma_rate']) if 'gamma_rate' in row else '-'} "
            f"| {row.get('alpha_sym', '-')} |"
        )
    md_lines.append("")

    texts = {
        "csv": "\n".join(",".join(str(c) for c in row) for row in csv_rows) + "\n",
        "md": "\n".join(md_lines),
    }
    _write_output(payload, args.out, texts.get(args.format))
    return EXIT_BUDGET if bracket.warnings else EXIT_OK


def _labels_for(U: UtilityMatrix, n: int, indices) -> list[str]:
    return [
        sequence_label(U.alphabet, BlockSequence.from_index(U.q, n, i).symbols)
        for i in indices
    ]


def _partition_pairs(U: UtilityMatrix, channel: Channel, strategy, n: int):
    """Recover (protected x, input y) pairs from a partition-form strategy.

    Raises InputError when the strategy is not of the partition family, whose
    worst-case analysis is the only one specified for noisy channels.
    """
    nv = U.q**n
    classes: dict[int, set[int]] = {}
    for z, target in enumerate(strategy.decode):
        if target is not None:
            classes.setdefault(target, set()).add(z)
    supports = {y: output_support_indices(channel, y, n) for y in range(nv)}
    pairs = []
    for x, outputs in sorted(classes.items()):
        matches = [y for y in range(nv) if supports[y] == outputs]
        if not matches:
            raise InputError(
                "strategy is not of the partition form (a decoded class is "
                "not the exact output support of any input); worst-case "
                "analysis of general noisy strategies is unsupported"
            )
        pairs.append((x, matches[0]))
    return pairs


def cmd_game(args) -> int:
    U = _utility_from_args(args)
    n = args.blocklength
    channel = load_channel(args.channel) if args.channel else None
    receiver = args.receiver

    payload: dict = {
        "tool": {"name": "ixcap", "version": __version__, "command": "game"},
        "utility": str(args.utility),
        "n": n,
        "receiver": receiver,
    }

    if channel is None or channel.is_noiseless():
        if receiver == "naive":
            strategy = naive_receiver_strategy(U.q, n)
        elif receiver == "optimal":
            value, strategy = equilibrium_value_noiseless(U, n, budget=args.budget_nodes)
            payload["equilibrium_value"] = value
        elif receiver.startswith("file:"):
            strategy = load_strategy(U, receiver[5:])
        else:
            raise InputError(f"unknown receiver spec {receiver!r}")
        outcome = worst_case_decoded_set(U, strategy)
        payload["decoded_set"] = _labels_for(U, n, outcome.decoded_worst)
        payload["decoded_size"] = outcome.decoded_size
        payload["rate"] = outcome.rate
        payload["best_response_targets"] = {
            label: _labels_for(U, n, targets)
            for label, targets in zip(
                _labels_for(U, n, range(U.q**n)), outcome.best_response_summary)
        }
        payload["strategy"] = strategy_to_json_dict(U, strategy)
    else:
        if receiver == "naive":
            raise InputError(
                "the naive receiver is not in the partition family analyzed "
                "for noisy channels; use optimal or a partition-form file"
            )
        if receiver == "optimal":
            value, strategy = noisy_equilibrium_value(U, channel, n, budget=args.budget_nodes)
            pairs = _partition_pairs(U, channel, strategy, n)
        elif receiver.startswith("file:"):
            strategy = load_strategy(U, receiver[5:])
            pairs = _partition_pairs(U, channel, strategy, n)
            value = len(pairs)
            if not verify_noisy_equilibrium(
                    U, channel, strategy,
                    [x for x, _ in pairs], [y for _, y in pairs], n):
                raise InputError(
                    "partition strategy fails the per-alternative-input "
                    "dominance verification; its decoded set is not guaranteed"
                )
        else:
            raise InputError(f"unknown receiver spec {receiver!r}")
        payload["channel"] = str(args.channel)
        payload["decoded_size"] = value
        payload["rate"] = value ** (1.0 / n)
        payload["decoded_set"] = _labels_for(U, n, [x for x, _ in pairs])
        payload["input_set"] = _labels_for(U, n, [y for _, y in pairs])
        payload["dominance_verified"] = True
        payload["strategy"] = strategy_to_json_dict(U, strategy)

    _write_output(payload, args.out)
    return EXIT_OK


def cmd_alpha(args) -> int:
    if args.graph:
        g = load_graph(args.graph)
        if args.blocklength > 1:
            g = strong_power(g, args.blocklength)
    else:
        U = _utility_from_args(args)
        g = sender_graph(U, args.blocklength)
    alpha, wit = independence_number(g, budget=args.budget_nodes)
    payload = {
        "alpha": alpha,
        "n": args.blocklength,
        "rate": alpha ** (1.0 / args.blocklength),
        "witness": list(wit.labels or wit.vertices),
    }
    _write_output(payload, args.out)
    return EXIT_OK


def cmd_gamma(args) -> int:
    U = _utility_from_args(args)
    if args.subset:
        subset = [U.alphabet.index_of(s.strip()) for s in args.subset.split(",")]
        payload = feasibility_report(U, subset)
        payload["sufficient_margin"] = sufficient_margin_check(U, subset)
        _write_output(payload, args.out)
        return EXIT_OK
    n = args.blocklength
    value, cert = gamma(U) if n == 1 else gamma_n(U, n)
    payload = {"gamma": value, "n": n, "certificate": cert.to_json_dict()}
    _write_output(payload, args.out)
    return EXIT_OK


def cmd_theta(args) -> int:
    if args.graph:
        g = load_graph(args.graph)
        source = {"graph": str(args.graph)}
    else:
        U = _utility_from_args(args)
        base = U if args.part == "base" else symmetric_part(U)
        g = sender_graph(base, 1)
        source = {"utility": str(args.utility), "part": args.part}
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
    return EXIT_BUDGET if bracket.warnings else EXIT_OK


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
          tuple(_labels_for(ex1, 1, worst_case_decoded_set(ex1, strategy).decoded_worst)))

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
    alpha2, _ = independence_number(sender_graph(pent, 2))
    check("pentagon alpha(G_s^2)", 5, alpha2)
    theta_pent = lovasz_theta(sender_graph(symmetric_part(pent), 1), tol=1e-5)
    check("pentagon theta is sqrt(5) within 1e-4", True,
          abs(theta_pent - math.sqrt(5)) < 1e-4)
    bp = xi_bracket(pent, n_max=2, tol=1e-3)
    check("pentagon exact capacity sqrt(5)", (5, 2),
          (bp.exact.base, bp.exact.root) if bp.exact else None)

    gs1 = sender_graph(ex1, 1)
    gs1p = sender_graph(ex1p, 1)
    check("remark1 same base graph", True, graphs_equal(gs1, gs1p))
    g2a = sender_graph(ex1, 2)
    g2b = sender_graph(ex1p, 2)
    i01 = BlockSequence.from_symbols(3, (0, 1)).index
    i10 = BlockSequence.from_symbols(3, (1, 0)).index
    check("remark1 01~10 under original", True, g2a.has_edge(i01, i10))
    check("remark1 01~10 absent under variant", False, g2b.has_edge(i01, i10))

    c5 = cycle_graph(5)
    uc5 = utility_from_graph(c5)
    for n in (1, 2, 3):
        check(f"shannon-generalization identity n={n}", True,
              graphs_equal(sender_graph(uc5, n), strong_power(c5, n)))
    return checks


def cmd_corpus(args) -> int:
    checks = _corpus_checks()
    ok = all(c["pass"] for c in checks)
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
    md_text = "\n".join(lines) + "\n"
    if args.format == "json" or args.out:
        _write_output(payload, args.out)
    if not args.out:
        sys.stdout.write(md_text)
    return EXIT_OK if ok else EXIT_GOLDEN


def _add_common(p, utility=True, graph=False, blocklength=False, max_n=False,
                channel=False, theta_tol=False, budget_nodes=False):
    if utility:
        p.add_argument("--utility", help="utility matrix JSON file")
    if graph:
        p.add_argument("--graph", help="standalone graph JSON file")
    if channel:
        p.add_argument("--channel", help="channel transition matrix JSON file")
    if blocklength:
        p.add_argument("-n", "--blocklength", type=int, default=1)
    if max_n:
        p.add_argument("--max-n", dest="max_n", type=int, default=2)
    if theta_tol:
        p.add_argument("--theta-tol", dest="theta_tol", type=float, default=1e-3)
    if budget_nodes:
        p.add_argument("--budget-nodes", dest="budget_nodes", type=int,
                       default=DEFAULT_NODE_BUDGET)
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
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("alpha", help="independence number of a sender graph or file graph")
    _add_common(p, graph=True, blocklength=True, budget_nodes=True)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("gamma", help="largest feasible subset bound")
    _add_common(p, blocklength=True)
    p.add_argument("--subset", help="comma-separated symbol labels: report "
                                    "feasibility of this subset instead")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("theta", help="Lovasz theta of a graph")
    _add_common(p, graph=True, theta_tol=True)
    p.add_argument("--part", choices=("sym", "base"), default="sym",
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
