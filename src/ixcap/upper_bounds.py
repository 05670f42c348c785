"""Upper-bound certificates and the two capacity brackets.

The capacity itself is a limit and not directly computable; the bracket
combines certified finite-blocklength lower bounds (feasible subsets,
independent sets) with upper bounds that hold at every blocklength (the
theta number of the symmetric-part graph, the trivial alphabet cap, and
special-case closures for symmetric or two-valued inputs).

Over a noisy channel the extraction rate is the smaller of the capacity and
the channel's zero-error capacity C_0 = Theta(G_c), which is itself the
extraction capacity of the 0/-1 utility of G_c.  So ``xi_bracket`` is the
one bracket, and ``asymptotic_rate_bracket`` takes the elementwise minimum
of its brackets on U and on that utility.  Its upper side bounds
Theta(G_s^Sym) by one candidate, chosen by one certificate on G_s^Sym: a
partition into alpha(G_s^Sym) cliques (``in_perfect_whitelist``).  By
Lovasz's sandwich alpha <= theta <= chi-bar, the clique cover number
(Lovasz 1979), such a partition pins theta at the integer alpha(G_s^Sym),
which the bracket's own memo of alpha searches holds; every perfect graph
has one.  Its search asks only whether alpha cliques suffice, and never
goes on to chi-bar.  On a regular G_s^Sym with none found,
``theta._regular_theta`` may pin theta within tol/2 by an eigenvalue pair
that an exact elimination accepts, with no tol added; the semidefinite
solver runs only where neither settles it, giving theta + tol.  Closures compare the integers of
the certificates, never floats (``_integer_closure``), and each bracket
stops at the first blocklength that closes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .channel import Channel
from .errors import BudgetExceededError, CapExceededError, ConvergenceError, InputError
from .graphs import (
    DEFAULT_NODE_BUDGET,
    Graph,
    _bits,
    _clique_cover,
    _Meter,
    confusability_graph,
    independence_number,
    sender_graph,
    strong_power,
    symmetric_sender_graph,
)
from .lower_bounds import _gamma_n
from .theta import _regular_theta, lovasz_theta
from .utility import UtilityMatrix, sequence_labels, utility_from_graph

#: most nodes of the search for a partition of G_s^Sym into alpha cliques,
#: whether or not a closure needs it; the search stops at k = alpha, with
#: no cover number.  Proving that no such partition exists is exponential
#: (C65 has alpha 32 and no cover by 32 cliques).  A node cost 2.2-5.3 us
#: on C33 and C65 (Intel Xeon), so the cap stops within 0.6 s
SHORTCUT_NODE_BUDGET = 10**5


def is_two_valued_a_ge_b(U: UtilityMatrix) -> bool:
    """Whether off-diagonal entries take exactly the two values a and -b with
    a >= b > 0 (gain at least the penalty), the shape with the strong-product
    upper bound.  Read on the integer table scale * u: a positive scale
    keeps every equality, sign and ratio."""
    ints = U.scaled_integer_entries[1]
    values = {x for i, row in enumerate(ints) for j, x in enumerate(row) if i != j}
    if len(values) != 2:
        return False
    hi, lo = max(values), min(values)
    return hi > 0 > lo and hi >= -lo


def in_perfect_whitelist(g: Graph, budget: int = DEFAULT_NODE_BUDGET, *,
                         alpha: int) -> list[int] | None:
    """A partition of g's vertices into alpha(g) cliques, as masks, or None
    when g has none (the name of the perfectness test it replaced is kept
    for the benchmark's per-layer metrics).

    Such a partition pins theta(g), and the Shannon capacity, at alpha(g):
    alpha <= Theta <= theta <= chi-bar, the clique cover number (Shannon
    1956; Lovasz 1979).  Every perfect graph has one, and so do some
    imperfect ones, such as C5 with a pendant vertex.  A reader checks the
    upper bound in O(q^2): the cliques partition the vertices and each is a
    clique, so theta is at most their number.  ``alpha`` is alpha(g),
    which the caller holds.  The one search is ``graphs._clique_cover`` at
    k = alpha, one node per vertex placed: a partition into at most alpha
    cliques has exactly alpha, since an independent set meets each clique
    at most once.  It does not go on to g's clique cover number, which only
    ``graphs._letter_bases`` searches for.  Raises BudgetExceededError
    beyond ``budget`` nodes, and InputError if the budget is below 1.
    """
    return _clique_cover(g, alpha, _Meter(budget))


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
    way: one record per blocklength run, and theta(G_s^Sym): alpha on a
    graph with a partition into alpha cliques, the eigenvalue pin's upper
    bound (within tol/2 of theta, rounded up) on a pinned regular graph,
    else the solver's value, None when the solver was skipped or did not
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


def _integer_closure(base: int, root: int, upper: float, tol: float) -> ExactValue | None:
    """ExactValue(t) when base = t**root for an integer t, so the certified
    lower bound base**(1/root) is t itself, and the upper side lies in
    [t, t + 2*tol]; None otherwise."""
    t = round(base ** (1.0 / root))
    return ExactValue(t, 1) if t**root == base and t <= upper <= t + 2 * tol else None


def xi_bracket(U: UtilityMatrix, n_max: int = 2, tol: float = 1e-3,
               node_budget: int = DEFAULT_NODE_BUDGET) -> CapacityBracket:
    """Two-sided bracket on the information extraction capacity.

    Blocklengths n = 1, 2, ... run in order up to the cap ``n_max``, and the
    bracket stops at the first n where it closes.  Lower side: the best of
    alpha(G_s^n)^(1/n) and Gamma(U_n)^(1/n) over the n run, the first of
    equal values winning, or the trivial bound 1 when every search ran out
    of budget.  Only U's own bounds are candidates: a utility that dominates
    U entrywise has a supergraph of every G_s^n and fewer feasible subsets,
    so neither of its bounds can beat U's at the same n.  Upper side, set
    after the n = 1 pass: the min of the alphabet size and one candidate,
    chosen by one certificate on G_s^Sym, a partition into alpha(G_s^Sym)
    cliques (``in_perfect_whitelist``), alpha read from the memo below.
    Where one is found, theta = alpha and the candidate is that integer,
    with no solver and no tol: ``perfect_graph_closure`` for symmetric or
    two-valued-gain utilities, where G_s^Sym is G_s at n = 1, and
    ``theta_symmetric_part`` otherwise, each with ``cliques``, one list of
    letter labels per clique, which a reader checks in O(q^2).  On a
    regular G_s^Sym with no such partition whose theta
    ``theta._regular_theta`` pins within tol/2, it is that upper bound,
    rounded up to a float, with no tol: ``theta_symmetric_part`` with
    ``"regular": true``, the lower bound ``theta_lower`` and the two
    accepted dyadic eigenvalue bounds ``lambda`` and ``co_lambda``, which
    an exact elimination can recheck.
    Elsewhere it is the solver's theta(G_s^Sym) + tol.  Exact value:
    reported when the two sides meet within 2*tol along an integer or
    radical closure, tried after each n; under the perfect-graph closure
    the integer closure pins the capacity at alpha(G_s) at n = 1, since
    alpha(G_s) is a lower candidate there.  No larger cap moves a closed
    answer t: a later candidate above t would exceed the upper side, at most
    t + 2*tol, and a tie loses to the earlier one.  For a symmetric U,
    Gamma(U_n) is alpha(G_s^n), and the lexicographically first largest
    feasible subset is the lexicographically least maximum independent set,
    so Gamma's record and candidate come from the alpha(G_s^n) search at
    every n, with no subset search and no warning of their own.  Why: the
    letter sums A of a symmetric U are symmetric, so G_s^n joins x and y
    iff A[x, y] >= 0, and is G_s^Sym,n.  A feasible set is independent
    there, since the 2-cycle x -> y -> x sums to 2 A[x, y] < 0; an
    independent set is feasible, since every arc of a chain inside it is
    negative.  Each distinct graph is searched once per bracket:
    alpha(G_s^n), alpha(G_s^Sym,n) for Gamma(U_n), the upper side's
    alpha(G_s^Sym), which the n = 1 pass has always searched, and the
    radical closure's alpha of the strong power of G_s^Sym come from one
    memo keyed by the graph's rows, so the pentagon's G_s^2, G_s^Sym,2 and
    strong square of G_s^Sym cost one search.  A search that ran out of
    budget raises its error again for a graph with the same rows, which
    would search alike: every graph of one bracket is on U's q letters, and
    ``graphs.Graph`` shows why the rows fix the search.  The memo reads no
    letter table.  ``node_budget`` is per search, not per bracket: each
    distinct graph's alpha search gets it afresh, as does Gamma's subset
    search at each n run.  A search that exhausts its budget drops its
    candidate, and the closure that needs it, with a warning, except
    Gamma's subset search, whose largest feasible subset found so far stays
    a candidate, flagged not optimal in its record, with a warning that
    names Gamma(U_n), the budget and the size kept.  The cover search runs
    within at most ``SHORTCUT_NODE_BUDGET`` nodes, whether or not a closure
    needs it, and asks only whether alpha(G_s^Sym) cliques suffice; one
    that runs out counts as none found, with a warning only where the
    perfect-graph closure needed it.  The result carries the
    records of the n run (alpha(G_s^n) and its witness; Gamma(U_n) with its
    subset, optimality and alpha(G_s^Sym,n); or the skip message) and
    theta(G_s^Sym).  At n_max = 2 and q <= 7 its alpha searches run on at
    most 49 vertices, below the size from which
    ``graphs.independence_number`` bounds a block graph by its letter table:
    there the bounds cost more than the search they would save.  Raises
    InputError when n_max < 1 or tol lies outside (0, 1e-2], the solver's
    own range, checked here since a covered or pinned G_s^Sym never
    reaches the solver.
    """
    if n_max < 1:
        raise InputError("n_max must be at least 1")
    if not 0 < tol <= 1e-2:
        raise InputError("tol must lie in (0, 1e-2]")
    warnings: list[str] = []
    q = U.q
    base_graph = sender_graph(U, 1)
    symmetric = U.is_symmetric()
    # for symmetric or two-valued-gain utilities G_s^Sym is G_s at n = 1
    closure = symmetric or is_two_valued_a_ge_b(U)
    sym_graph = base_graph if closure else symmetric_sender_graph(U, 1)
    # rows -> (alpha, witness) or the BudgetExceededError
    searches: dict = {}

    def alpha_of(g: Graph) -> tuple[int, tuple[int, ...]]:
        found = searches.get(g.rows)
        if found is None:
            try:
                found = searches[g.rows] = independence_number(g, budget=node_budget)
            except BudgetExceededError as exc:
                found = searches[g.rows] = exc
        if isinstance(found, BudgetExceededError):
            raise found
        return found

    lowers: list[tuple[float, dict, tuple[int, int]]] = []
    per_n: list[dict] = []
    exact: ExactValue | None = None
    for n in range(1, n_max + 1):
        record: dict = {"n": n}
        gamma = None  # (Gamma(U_n), its subset, optimal, alpha(G_s^Sym,n))
        try:
            alpha, witness = alpha_of(base_graph if n == 1 else sender_graph(U, n))
        except (BudgetExceededError, CapExceededError) as exc:
            record["alpha_sender_error"] = f"alpha(G_s^{n}) skipped: {exc}"
            warnings.append(record["alpha_sender_error"])
        else:
            record.update(alpha_sender=alpha, alpha_sender_rate=alpha ** (1.0 / n),
                          alpha_witness=list(sequence_labels(U.alphabet, n, witness)))
            lowers.append((record["alpha_sender_rate"],
                           {"name": "alpha_sender_power", "n": n, "alpha": alpha,
                            "witness": record["alpha_witness"]}, (alpha, n)))
            if symmetric:
                # Gamma(U_n) = alpha(G_s^n), with the same witness
                gamma = alpha, list(record["alpha_witness"]), True, alpha
        if not symmetric:
            try:
                sym = sym_graph if n == 1 else symmetric_sender_graph(U, n)
                value, gamma_cert = _gamma_n(U, n, sym, alpha_of(sym), node_budget)
                gamma = (value, list(gamma_cert.labels), gamma_cert.optimal,
                         gamma_cert.alpha_sym)
                if not gamma_cert.optimal:
                    warnings.append(f"gamma(U_{n}) cut short: subset search exceeded "
                                    f"{node_budget} nodes, keeping a feasible subset of {value}")
            except (BudgetExceededError, CapExceededError) as exc:
                record["gamma_error"] = f"gamma(U_{n}) skipped: {exc}"
                warnings.append(record["gamma_error"])
        if gamma:
            value, subset, optimal, alpha_sym = gamma
            record.update(gamma=value, gamma_rate=value ** (1.0 / n), gamma_subset=subset,
                          gamma_optimal=optimal, alpha_sym=alpha_sym)
            lowers.append((record["gamma_rate"],
                           {"name": "gamma_blocklength", "n": n, "gamma": value,
                            "subset": subset, "optimal": optimal}, (value, n)))
        per_n.append(record)

        if n == 1:
            # the upper side needs only the n = 1 pass
            uppers = [(float(q), {"name": "alphabet_size", "q": q})]
            cliques = skipped = None  # skipped: why a perfect-graph closure is not tried
            try:
                # a hit or a stored error: the pass above searched sym_graph
                alpha_sym = alpha_of(sym_graph)[0]
            except BudgetExceededError:
                skipped = "alpha(G_s^1) was not computed"
            else:
                try:
                    cliques = in_perfect_whitelist(
                        sym_graph, min(node_budget, SHORTCUT_NODE_BUDGET), alpha=alpha_sym)
                except BudgetExceededError as exc:
                    skipped = exc
            if cliques is not None:
                # alpha <= theta <= chi-bar = alpha (Lovasz 1979); under
                # the closure the integer closure pins the capacity at alpha
                theta_sym = float(alpha_sym)
                labels = sequence_labels(U.alphabet, 1)
                cert = ({"name": "perfect_graph_closure", "alpha": alpha_sym} if closure
                        else {"name": "theta_symmetric_part", "theta": theta_sym})
                cert["cliques"] = [[labels[v] for v in _bits(c)] for c in cliques]
                uppers.append((theta_sym, cert))
            elif pin := _regular_theta(sym_graph, tol):
                # a regular G_s^Sym whose eigenvalue bounds meet: theta
                # within tol/2, rounded up, with no solver and no tol
                theta_sym = pin["theta"]
                uppers.append((theta_sym, {"name": "theta_symmetric_part", **pin}))
            else:
                theta_sym = None
                try:
                    theta_sym = lovasz_theta(sym_graph, tol=min(tol, 1e-3))
                    uppers.append((theta_sym + tol, {"name": "theta_symmetric_part",
                                                     "theta": theta_sym, "tol": tol}))
                except (CapExceededError, ConvergenceError) as exc:
                    fault = "skipped" if isinstance(exc, CapExceededError) else "did not converge"
                    warnings.append(f"theta(G_s^Sym) {fault}: {exc}")
            if closure and skipped:
                warnings.append(f"perfect-graph closure skipped: {skipped}")
            upper_value, upper_cert = min(uppers, key=lambda t: t[0])

        lower_value, lower_cert, lower_root = max(
            lowers or [(1.0, {"name": "trivial", "n": 1}, (1, 1))], key=lambda t: t[0])
        # integer closure: certified integer lower meets the upper side
        exact = _integer_closure(*lower_root, upper_value, tol)
        base, root = lower_root
        if (exact is None and root == n and theta_sym is not None
                and abs(theta_sym - lower_value) <= tol):
            # radical closure, tried once per lower certificate, at the
            # blocklength it comes from: the strong power of the symmetric
            # base graph must achieve the same count, pinning Theta(G_s^Sym)
            # from below; upper <= theta + tol puts the two sides within 2*tol
            try:
                alpha_power, _ = alpha_of(strong_power(sym_graph, root))
                if alpha_power == base:
                    exact = ExactValue(base, root)
            except (BudgetExceededError, CapExceededError) as exc:
                warnings.append(f"radical closure check at n = {root} skipped: {exc}")
        if exact is not None:
            break

    return CapacityBracket(lower_value, lower_cert, upper_value, upper_cert, tol, exact,
                           tuple(warnings), tuple(per_n), theta_sym)


def asymptotic_rate_bracket(U: UtilityMatrix, channel: Channel, n_max: int = 2,
                            tol: float = 1e-3,
                            budget: int = DEFAULT_NODE_BUDGET) -> CapacityBracket:
    """Bracket on the noisy-channel extraction rate min(Xi(U), C_0): the
    elementwise minimum of the capacity bracket and the channel's zero-error
    capacity bracket, the capacity's side winning ties.

    C_0 is the Shannon capacity Theta(G_c) (Shannon 1956), which is the
    extraction capacity of the 0/-1 utility ``utility_from_graph(G_c)``:
    its sender graphs are exactly the strong powers G_c^n, in the same
    numbering.  So the channel side is ``xi_bracket`` of that utility, with
    every rule of the capacity bracket: alpha(G_c^n) below, alpha(G_c) on
    a G_c with a partition into alpha cliques, the eigenvalue pin on a
    regular one, or theta(G_c) + tol above, the perfect-graph, integer and
    radical closures, and the stop at the first blocklength that closes.
    Its certificates and warnings name G_c: ``alpha_confusability_power``,
    ``theta_confusability`` and, e.g., "alpha(G_c^2) skipped"; its
    witnesses name sequences over U's alphabet.  The rate is exact at e
    when one side is exact at e and the other side's certified lower bound
    base**(1/root) reaches it, compared on the integers (e.base**root <=
    base**e.root), the capacity's side tried first.  ``budget`` is per
    search, as in ``xi_bracket``, for each of the two brackets.  Raises
    InputError when U and the channel have alphabets of different sizes.
    """
    if U.q != channel.q:
        raise InputError("utility and channel alphabets differ in size")
    xi = xi_bracket(U, n_max, tol, budget)
    c0 = xi_bracket(utility_from_graph(confusability_graph(channel, 1), U.alphabet),
                    n_max, tol, budget)
    c0 = replace(c0, lower_certificate=_on_g_c(c0.lower_certificate),
                 upper_certificate=_on_g_c(c0.upper_certificate),
                 warnings=tuple(w.replace("G_s^Sym", "G_c").replace("G_s", "G_c")
                                for w in c0.warnings))
    exact = xi.exact if _reaches(c0, xi.exact) else c0.exact if _reaches(xi, c0.exact) else None
    lower = min((xi.lower, xi.lower_certificate), (c0.lower, c0.lower_certificate),
                key=lambda t: t[0])
    upper = min((xi.upper, xi.upper_certificate), (c0.upper, c0.upper_certificate),
                key=lambda t: t[0])
    return CapacityBracket(*lower, *upper, tol, exact, xi.warnings + c0.warnings)


def _on_g_c(cert: dict) -> dict:
    """A channel-side certificate, named after G_c."""
    name = cert["name"].replace("sender_power", "confusability_power")
    return {**cert, "name": name.replace("symmetric_part", "confusability")}


def _reaches(b: CapacityBracket, e: ExactValue | None) -> bool:
    """Whether b's certified lower bound base**(1/root), read from its
    certificate, is at least e, compared on the integers; False for no e."""
    cert = b.lower_certificate
    base = cert.get("alpha", cert.get("gamma", 1))  # 1 for the trivial bound
    return e is not None and e.base ** cert["n"] <= base ** e.root
