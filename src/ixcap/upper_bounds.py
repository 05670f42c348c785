"""Upper-bound certificates and the two-sided capacity bracket.

The capacity itself is a limit and not directly computable; the bracket
combines certified finite-blocklength lower bounds (feasible subsets,
independent sets) with upper bounds that hold at every blocklength (the
theta number of the symmetric-part graph, the trivial alphabet cap, and
special-case closures for symmetric or two-valued inputs whose base graph
is perfect).  Perfectness is decided, not assumed: a 2-colouring settles
bipartite graphs and their complements, and otherwise, by the strong
perfect graph theorem, a graph is perfect iff it has no induced odd hole
and no induced odd antihole, which an exact induced-path search finds.

On a perfect graph theta equals the independence number (Lovasz 1979), so
the semidefinite solver runs only on a graph that is not proved perfect, or
whose independence number is not known: the bracket takes alpha(G_s^Sym)
from its own blocklength-1 pass, and ``game.asymptotic_rate_bracket``
alpha(G_c) from its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetExceededError, CapExceededError, ConvergenceError, InputError
from .graphs import (
    DEFAULT_NODE_BUDGET,
    Graph,
    _bits,
    _Meter,
    independence_number,
    sender_graph,
    strong_power,
    symmetric_sender_graph,
)
from .lower_bounds import _gamma_n, gamma_n
from .theta import lovasz_theta
from .utility import UtilityMatrix

#: most nodes of a perfectness test whose verdict only spares the theta
#: solver: about 0.1 s, the cost of one mid-sized solve
SHORTCUT_NODE_BUDGET = 10**5


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

    g is perfect iff each of its connected components is, and every odd
    hole or antihole lies inside one component, so each component C is
    decided on its own.  A bipartite graph is perfect, and so is its
    complement (Konig's theorem), so a 2-colouring of C or of its
    complement within C settles it first: the path search below is
    exponential on grid-like bipartite graphs.  Otherwise, by the strong
    perfect graph theorem (Chudnovsky, Robertson, Seymour and Thomas,
    2006), C is perfect iff neither C nor its complement has an induced
    cycle of odd length at least 5.  For each vertex s, a depth-first
    search grows induced paths s, p1, ..., pk over vertices of C above s; a
    neighbour of pk adjacent to s and to no interior vertex closes an
    induced cycle of k + 2 vertices, so every hole is found from its least
    vertex.

    Each path step costs one node; the 2-colourings cost none.  Raises
    BudgetExceededError beyond ``budget`` nodes, and InputError if the
    budget is below 1.
    """
    meter = _Meter(budget)
    left = (1 << g.n_vertices) - 1
    while left:
        comp, flat = _reach(g.rows, left)
        left ^= comp
        co_rows = {v: comp ^ g.rows[v] ^ (1 << v) for v in _bits(comp)}
        if flat or _bipartite(co_rows, comp):
            continue
        if _odd_hole(g.rows, comp, meter) or _odd_hole(co_rows, comp, meter):
            return False
    return True


def _odd_hole(rows, comp: int, meter: _Meter) -> bool:
    """Whether the graph with these rows has an induced odd cycle of 5 or
    more vertices inside comp, which no row leaves."""
    for s in _bits(comp):
        above = comp >> (s + 1) << (s + 1)
        if above.bit_count() < 4:  # a hole has 4+ vertices above its least
            return False
        # (last vertex, path vertices and neighbours of its interior, k)
        stack = [(p, 1 << p, 1) for p in _bits(rows[s] & above)]
        while stack:
            last, blocked, k = stack.pop()
            meter.charge(1, "perfectness test")
            cand = rows[last] & above & ~blocked
            if k >= 3 and k % 2 and cand & rows[s]:
                return True
            stack.extend((v, blocked | rows[last], k + 1)
                         for v in _bits(cand & ~rows[s]))
    return False


def _theta(g: Graph, alpha: int | None, tol: float, name: str,
           warnings: list[str]) -> float | None:
    """theta(g), or None with a warning on ``warnings`` that names it.

    Pass ``alpha`` = alpha(g) only for a g proved perfect: theta(g) is then
    alpha(g) exactly, and no semidefinite program is solved.  Otherwise the
    interior-point solver answers within min(tol, 1e-3), and a graph above
    its vertex limit or a solve that does not converge is skipped.
    """
    if alpha is not None:
        return float(alpha)
    try:
        return lovasz_theta(g, tol=min(tol, 1e-3))
    except CapExceededError as exc:
        warnings.append(f"{name} skipped: {exc}")
    except ConvergenceError as exc:
        warnings.append(f"{name} did not converge: {exc}")
    return None


def _reach(rows, verts: int) -> tuple[int, bool]:
    """(the component of the least vertex of verts, whether it 2-colours):
    breadth-first layers, none of which may hold an edge."""
    seen = layer = verts & -verts
    flat = True
    while layer:
        reach = 0
        for v in _bits(layer):
            reach |= rows[v]
        flat = flat and not reach & layer
        layer = reach & ~seen
        seen |= layer
    return seen, flat


def _bipartite(rows, verts: int) -> bool:
    """Whether the graph with these adjacency rows is 2-colourable on the
    vertex set verts, which no row leaves."""
    while verts:
        comp, flat = _reach(rows, verts)
        if not flat:
            return False
        verts ^= comp
    return True


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
               node_budget: int = DEFAULT_NODE_BUDGET) -> CapacityBracket:
    """Two-sided bracket on the information extraction capacity.

    Lower side: the best of alpha(G_s^n)^(1/n) and Gamma(U_n)^(1/n) for
    n <= n_max, the first of equal values winning, or the trivial bound 1
    when every search ran out of budget.  Only U's own bounds are
    candidates: a utility that dominates U entrywise has a supergraph of
    every G_s^n and fewer feasible subsets, so neither of its bounds can beat
    U's at the same n.  Upper side: min of the alphabet size and
    theta(G_s^Sym) + tol.  G_s^Sym is tested for perfectness once per
    bracket; when ``in_perfect_whitelist`` proves it perfect and the n = 1
    pass found alpha(G_s^Sym), theta is that alpha and no semidefinite
    program is solved (the certificate says ``"perfect": true``).  The
    solver runs otherwise, also when the test ran out of budget, and theta
    is skipped with a warning when it does not converge or G_s^Sym has more
    vertices than the solver takes.  Exact value: for symmetric or
    two-valued-gain utilities, where G_s and G_s^Sym coincide at n = 1, the
    same verdict pins the capacity of a perfect base graph at alpha(G_s),
    taken from the n = 1 pass; otherwise it is reported when the two sides
    meet within 2*tol along an integer or radical closure.  ``node_budget``
    is per search, not per bracket: each of up to 3*n_max + 2 searches gets
    the full budget afresh, namely alpha(G_s^n), alpha(G_s^Sym,n) and
    Gamma's subset search at each n, the perfectness test and the radical
    closure's alpha.  A search that exhausts its budget drops its candidate,
    and the closure that needs it, with a warning, except Gamma's subset
    search, whose largest feasible subset found so far stays a candidate,
    flagged not optimal in its record.  Where no perfect-graph closure
    needs its verdict, the perfectness test only spares the solver: it runs
    within at most ``SHORTCUT_NODE_BUDGET`` nodes and gives up silently.
    The result carries the per-blocklength records (alpha(G_s^n) and its
    witness; Gamma(U_n) with its subset, optimality and alpha(G_s^Sym,n);
    or the skip message) and theta(G_s^Sym).  Its alpha searches take no ``graphs.BlockBase``: at
    n_max = 2 their graphs have at most q**2 vertices, where building the
    bases and their bounds costs more than the search they would save.
    """
    if n_max < 1:
        raise InputError("n_max must be at least 1")
    warnings: list[str] = []
    q = U.q
    base_graph = sender_graph(U, 1)
    # for symmetric or two-valued-gain utilities G_s^Sym is G_s at n = 1
    closure = U.is_symmetric() or is_two_valued_a_ge_b(U)
    sym_graph = base_graph if closure else symmetric_sender_graph(U, 1)

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
            value, cert = (_gamma_n(U, 1, sym_graph, node_budget) if n == 1
                           else gamma_n(U, n, node_budget=node_budget))
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

    perfect_skipped = None
    try:
        perfect = in_perfect_whitelist(sym_graph, budget=node_budget if closure
                                       else min(node_budget, SHORTCUT_NODE_BUDGET))
    except BudgetExceededError as exc:
        perfect, perfect_skipped = False, exc
    uppers: list[tuple[float, dict]] = [
        (float(q), {"name": "alphabet_size", "q": q})
    ]
    alpha_sym = per_n[0].get("alpha_sym") if perfect else None
    theta_sym = _theta(sym_graph, alpha_sym, tol, "theta(G_s^Sym)", warnings)
    if theta_sym is not None:
        cert = {"name": "theta_symmetric_part", "theta": theta_sym, "tol": tol}
        if alpha_sym is not None:
            cert["perfect"] = True
        uppers.append((theta_sym + tol, cert))

    exact: ExactValue | None = None
    if closure:
        # sym_graph is base_graph, so the verdict above is the base graph's
        if perfect_skipped is not None:
            warnings.append(f"perfect-graph closure skipped: {perfect_skipped}")
        elif perfect and alpha_base is None:
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
