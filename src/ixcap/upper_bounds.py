"""Upper-bound certificates and the two-sided capacity bracket.

The capacity itself is a limit and not directly computable; the bracket
combines certified finite-blocklength lower bounds (feasible subsets,
independent sets) with upper bounds that hold at every blocklength (the
theta number of the symmetric-part graph, the trivial alphabet cap, and
special-case closures for symmetric or two-valued inputs whose base graph
is perfect).  Perfectness is decided, not assumed: by the strong perfect
graph theorem a graph is perfect iff it has no induced odd hole and no
induced odd antihole, which an exact induced-path search finds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetExceededError, CapExceededError, ConvergenceError, InputError
from .graphs import (
    DEFAULT_NODE_BUDGET,
    Graph,
    independence_number,
    sender_graph,
    strong_power,
)
from .lower_bounds import DEFAULT_SUBSET_BUDGET, gamma_n
from .theta import MAX_VERTICES, lovasz_theta
from .utility import UtilityMatrix, symmetric_part


def is_two_valued_a_ge_b(U: UtilityMatrix) -> bool:
    """Whether off-diagonal entries take exactly the two values a and -b with
    a >= b > 0 (gain at least the penalty), the shape with the strong-product
    upper bound."""
    values = {U.u[i][j] for i in range(U.q) for j in range(U.q) if i != j}
    if len(values) != 2:
        return False
    hi, lo = max(values), min(values)
    return hi > 0 > lo and hi >= -lo


def in_perfect_whitelist(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Whether g is perfect, decided exactly (the old whitelist's name is
    kept for the benchmark's per-layer metrics).

    By the strong perfect graph theorem (Chudnovsky, Robertson, Seymour and
    Thomas, 2006), g is perfect iff neither g nor its complement has an
    induced cycle of odd length at least 5.  For each vertex s, a depth-first
    search grows induced paths s, p1, ..., pk over vertices above s; a
    neighbour of pk adjacent to s and to no interior vertex closes an induced
    cycle of k + 2 vertices, so every hole is found from its least vertex.

    Each path step costs one node.  Raises BudgetExceededError beyond
    ``budget`` nodes, and InputError if the budget is below 1.
    """
    if budget < 1:
        raise InputError(f"node budget must be at least 1, got {budget}")
    nodes = 0
    full = (1 << g.n_vertices) - 1
    for rows in (g.rows, g.complement_rows()):
        for s in range(g.n_vertices - 4):  # a hole has 4+ vertices above its least
            above = full >> (s + 1) << (s + 1)
            # (last vertex, path vertices and neighbours of its interior, k)
            stack = [(p, 1 << p, 1) for p in _bits(rows[s] & above)]
            while stack:
                last, blocked, k = stack.pop()
                nodes += 1
                if nodes > budget:
                    raise BudgetExceededError(
                        f"perfectness test exceeded {budget} nodes")
                cand = rows[last] & above & ~blocked
                if k >= 3 and k % 2 and cand & rows[s]:
                    return False
                stack.extend((v, blocked | rows[last], k + 1)
                             for v in _bits(cand & ~rows[s]))
    return True


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class ExactValue:
    """An algebraically pinned capacity value, base**(1/root)."""

    base: int
    root: int = 1

    @property
    def value(self) -> float:
        return self.base ** (1.0 / self.root)

    def to_json_dict(self) -> dict:
        return {"base": self.base, "root": self.root, "value": self.value}


@dataclass(frozen=True)
class CapacityBracket:
    """Certified [lower, upper] interval around an uncomputable limit.

    ``per_n`` and ``theta_sym`` report what ``xi_bracket`` computed on the
    way: one record per blocklength, and theta(G_s^Sym), None when it did not
    converge.  Neither is part of ``to_json_dict``."""

    lower: float
    lower_certificate: dict
    upper: float
    upper_certificate: dict
    tol: float
    exact: ExactValue | None = None
    warnings: tuple[str, ...] = field(default=())
    per_n: tuple[dict, ...] = field(default=())
    theta_sym: float | None = None

    def to_json_dict(self) -> dict:
        out = {
            "lower": {"value": self.lower, "certificate": self.lower_certificate},
            "upper": {"value": self.upper, "certificate": self.upper_certificate},
            "exact": self.exact.to_json_dict() if self.exact else None,
            "tol": self.tol,
        }
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


def xi_bracket(U: UtilityMatrix, n_max: int = 2, tol: float = 1e-3,
               node_budget: int = DEFAULT_NODE_BUDGET,
               subset_budget: int = DEFAULT_SUBSET_BUDGET) -> CapacityBracket:
    """Two-sided bracket on the information extraction capacity.

    Lower side: the best of alpha(G_s^n)^(1/n) and Gamma(U_n)^(1/n) for
    n <= n_max, the first of equal values winning, or the trivial bound 1
    when every search ran out of budget.  Only U's own bounds are
    candidates: a utility that dominates U entrywise has a supergraph of
    every G_s^n and fewer feasible subsets, so neither of its bounds can beat
    U's at the same n.  Upper side: min of the alphabet size and
    theta(G_s^Sym) + tol; theta is skipped with a warning when it does not
    converge or G_s^Sym has more vertices than the solver takes.  Exact
    value: for symmetric or two-valued-gain utilities, where G_s and
    G_s^Sym coincide at n = 1, a base graph that ``in_perfect_whitelist``
    proves perfect pins the capacity at alpha(G_s), taken from the n = 1
    pass; otherwise it is reported when the two sides meet within 2*tol
    along an integer or radical closure.  A search that exhausts its budget
    (``node_budget`` for every independent-set search, Gamma's included, and
    for the perfectness test) drops its candidate, and the closure that
    needs it, with a warning.  The result carries the per-blocklength
    records (alpha(G_s^n) and its witness; Gamma(U_n) with its subset,
    optimality and alpha(G_s^Sym,n); or the skip message) and
    theta(G_s^Sym).
    """
    if n_max < 1:
        raise InputError("n_max must be at least 1")
    warnings: list[str] = []
    q = U.q
    base_graph = sender_graph(U, 1)

    lowers: list[tuple[float, dict, tuple[int, int]]] = []
    per_n: list[dict] = []
    alpha_base = None
    for n in range(1, n_max + 1):
        record: dict = {"n": n}
        try:
            g = base_graph if n == 1 else sender_graph(U, n)
            alpha, witness = independence_number(g, budget=node_budget)
            if n == 1:
                alpha_base = alpha
            record.update(alpha_sender=alpha, alpha_sender_rate=alpha ** (1.0 / n),
                          alpha_witness=list(witness.labels or witness.vertices))
            lowers.append((
                record["alpha_sender_rate"],
                {"name": "alpha_sender_power", "n": n, "alpha": alpha,
                 "witness": record["alpha_witness"]},
                (alpha, n),
            ))
        except (BudgetExceededError, CapExceededError) as exc:
            record["alpha_sender_error"] = f"alpha(G_s^{n}) skipped: {exc}"
            warnings.append(record["alpha_sender_error"])
        try:
            value, cert = gamma_n(U, n, budget=subset_budget, node_budget=node_budget)
            record.update(gamma=value, gamma_rate=value ** (1.0 / n),
                          gamma_subset=list(cert.labels), gamma_optimal=cert.optimal,
                          alpha_sym=cert.alpha_sym)
            lowers.append((
                record["gamma_rate"],
                {"name": "gamma_blocklength", "n": n, "gamma": value,
                 "subset": record["gamma_subset"], "optimal": cert.optimal},
                (value, n),
            ))
        except (BudgetExceededError, CapExceededError) as exc:
            record["gamma_error"] = f"gamma(U_{n}) skipped: {exc}"
            warnings.append(record["gamma_error"])
        per_n.append(record)
    lower_value, lower_cert, lower_root = max(
        lowers or [(1.0, {"name": "trivial", "n": 1}, (1, 1))], key=lambda t: t[0])

    uppers: list[tuple[float, dict]] = [
        (float(q), {"name": "alphabet_size", "q": q})
    ]
    sym_graph = sender_graph(symmetric_part(U), 1)
    theta_sym = None
    if sym_graph.n_vertices > MAX_VERTICES:
        warnings.append(f"theta(G_s^Sym) skipped: {sym_graph.n_vertices} vertices "
                        f"exceed the solver's limit of {MAX_VERTICES}")
    else:
        try:
            theta_sym = lovasz_theta(sym_graph, tol=min(tol, 1e-3))
            uppers.append((
                theta_sym + tol,
                {"name": "theta_symmetric_part", "theta": theta_sym, "tol": tol},
            ))
        except ConvergenceError as exc:
            warnings.append(f"theta(G_s^Sym) did not converge: {exc}")

    exact: ExactValue | None = None
    if U.is_symmetric() or is_two_valued_a_ge_b(U):
        try:
            perfect = in_perfect_whitelist(base_graph, budget=node_budget)
        except BudgetExceededError as exc:
            perfect = False
            warnings.append(f"perfect-graph closure skipped: {exc}")
        if perfect and alpha_base is None:
            warnings.append("perfect-graph closure skipped: alpha(G_s^1) was not computed")
        elif perfect:
            # alpha(G_s) is already a lower candidate, so only the upper side moves
            exact = ExactValue(alpha_base, 1)
            uppers.append((
                float(alpha_base),
                {"name": "perfect_graph_closure", "alpha": alpha_base},
            ))

    upper_value, upper_cert = min(uppers, key=lambda t: t[0])

    if exact is None and upper_value - lower_value <= 2 * tol:
        base, root = lower_root
        t = round(base ** (1.0 / root))
        if t**root == base:
            # integer closure: certified integer lower meets the upper side
            if upper_value >= t:
                exact = ExactValue(t, 1)
        elif theta_sym is not None and abs(theta_sym - base ** (1.0 / root)) <= tol:
            # radical closure: the strong power of the symmetric base graph
            # must achieve the same count, pinning Theta(G_s^Sym) from below
            try:
                power = strong_power(sym_graph, root)
                alpha_power, _ = independence_number(power, budget=node_budget)
                if alpha_power == base:
                    exact = ExactValue(base, root)
            except (BudgetExceededError, CapExceededError) as exc:
                warnings.append(f"radical closure check skipped: {exc}")

    return CapacityBracket(
        lower=lower_value,
        lower_certificate=lower_cert,
        upper=upper_value,
        upper_certificate=upper_cert,
        tol=tol,
        exact=exact,
        warnings=tuple(warnings),
        per_n=tuple(per_n),
        theta_sym=theta_sym,
    )
