"""Upper-bound certificates and the two-sided capacity bracket.

The capacity itself is a limit and not directly computable; the bracket
combines certified finite-blocklength lower bounds (feasible subsets,
independent sets) with upper bounds that hold at every blocklength (the
theta number of the symmetric-part graph, the trivial alphabet cap, and
special-case closures for symmetric, two-valued, or perfect-graph inputs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from .errors import BudgetExceededError, CapExceededError, ConvergenceError
from .graphs import (
    DEFAULT_NODE_BUDGET,
    Graph,
    independence_number,
    sender_graph,
    strong_power,
)
from .lower_bounds import DEFAULT_SUBSET_BUDGET, gamma_n
from .theta import lovasz_theta
from .utility import UtilityMatrix, symmetric_part


def alpha_sym_upper(U: UtilityMatrix, n: int,
                    budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Independence number of the symmetric part's sender graph at
    blocklength n: an upper bound on the true per-blocklength count
    alpha(G_s^n), and an anytime estimate of the capacity (the proven
    capacity upper bound is the theta number, not this)."""
    g = sender_graph(symmetric_part(U), n)
    alpha, _ = independence_number(g, budget=budget)
    return alpha


def is_two_valued_a_ge_b(U: UtilityMatrix) -> bool:
    """Whether off-diagonal entries take exactly the two values a and -b with
    a >= b > 0 (gain at least the penalty), the shape with the strong-product
    upper bound."""
    values = {U.u[i][j] for i in range(U.q) for j in range(U.q) if i != j}
    if len(values) != 2:
        return False
    hi, lo = max(values), min(values)
    return hi > 0 > lo and hi >= -lo


def in_perfect_whitelist(g: Graph) -> bool:
    """Perfectness for a small family whitelist: bipartite or chordal graphs
    and their complements.  No general perfect-graph recognition."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n_vertices))
    nxg.add_edges_from(g.edges())
    for cand in (nxg, nx.complement(nxg)):
        if nx.is_bipartite(cand) or nx.is_chordal(cand):
            return True
    return False


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
    """Certified [lower, upper] interval around an uncomputable limit."""

    lower: float
    lower_certificate: dict
    upper: float
    upper_certificate: dict
    tol: float
    exact: ExactValue | None = None
    warnings: tuple[str, ...] = field(default=())

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
               assume_perfect: bool = False,
               node_budget: int = DEFAULT_NODE_BUDGET,
               subset_budget: int = DEFAULT_SUBSET_BUDGET) -> CapacityBracket:
    """Two-sided bracket on the information extraction capacity.

    Lower side: the best of alpha(G_s^n)^(1/n) and Gamma(U_n)^(1/n) for
    n <= n_max, the first of equal values winning.  Only U's own bounds are
    candidates: a utility that dominates U entrywise has a supergraph of
    every G_s^n and fewer feasible subsets, so neither of its bounds can beat
    U's at the same n.  Upper side: min of the alphabet size,
    theta(G_s^Sym) + tol, and theta(G_s) + tol when the symmetric or
    two-valued-gain shape applies.  Exact value: for those shapes, a perfect
    base graph (whitelisted or assumed) pins the capacity at alpha(G_s),
    taken from the n = 1 pass; otherwise it is reported when the two sides
    meet within 2*tol along an integer or radical closure.  A search that
    exhausts its budget drops its candidate, and the closure that needs it,
    with a warning.
    """
    warnings: list[str] = []
    q = U.q
    symmetric = U.is_symmetric()
    two_valued = is_two_valued_a_ge_b(U)
    base_graph = sender_graph(U, 1)

    lowers: list[tuple[float, dict, tuple[int, int]]] = []
    alpha_base = None
    for n in range(1, n_max + 1):
        try:
            g = base_graph if n == 1 else sender_graph(U, n)
            alpha, witness = independence_number(g, budget=node_budget)
            if n == 1:
                alpha_base = alpha
            lowers.append((
                alpha ** (1.0 / n),
                {"name": "alpha_sender_power", "n": n, "alpha": alpha,
                 "witness": list(witness.labels or witness.vertices)},
                (alpha, n),
            ))
        except (BudgetExceededError, CapExceededError) as exc:
            warnings.append(f"alpha(G_s^{n}) skipped: {exc}")
        try:
            value, cert = gamma_n(U, n, budget=subset_budget)
            lowers.append((
                value ** (1.0 / n),
                {"name": "gamma_blocklength", "n": n, "gamma": value,
                 "subset": list(cert.labels), "optimal": cert.optimal},
                (value, n),
            ))
        except (BudgetExceededError, CapExceededError) as exc:
            warnings.append(f"gamma(U_{n}) skipped: {exc}")
    lower_value, lower_cert, lower_root = max(lowers, key=lambda t: t[0])

    uppers: list[tuple[float, dict]] = [
        (float(q), {"name": "alphabet_size", "q": q})
    ]
    sym_graph = sender_graph(symmetric_part(U), 1)
    theta_sym = None
    try:
        theta_sym = lovasz_theta(sym_graph, tol=min(tol, 1e-3))
        uppers.append((
            theta_sym + tol,
            {"name": "theta_symmetric_part", "theta": theta_sym, "tol": tol},
        ))
    except ConvergenceError as exc:
        warnings.append(f"theta(G_s^Sym) did not converge: {exc}")
    if symmetric or two_valued:
        # for symmetric utilities the two graphs coincide; for the two-valued
        # gain-dominant shape the base graph bound holds on its own
        try:
            theta_base = lovasz_theta(base_graph, tol=min(tol, 1e-3))
            uppers.append((
                theta_base + tol,
                {"name": "theta_base_graph", "theta": theta_base, "tol": tol,
                 "route": "symmetric" if symmetric else "two_valued"},
            ))
        except ConvergenceError as exc:
            warnings.append(f"theta(G_s) did not converge: {exc}")

    exact: ExactValue | None = None
    if (symmetric or two_valued) and (assume_perfect or in_perfect_whitelist(base_graph)):
        if alpha_base is None:
            warnings.append("perfect-graph closure skipped: alpha(G_s^1) was not computed")
        else:
            # alpha(G_s) is already a lower candidate, so only the upper side moves
            exact = ExactValue(alpha_base, 1)
            uppers.append((
                float(alpha_base),
                {"name": "perfect_graph_closure", "alpha": alpha_base,
                 "assumed": assume_perfect},
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
    )
