"""Independent answer checks for the benchmark workloads.

Every check compares an engine answer against a result computed here in
plain Python, from the generated inputs alone.  The checks decode answer
tuples from their atoms directly (terms are ``Var``/``Const`` pairs), so a
bug in the engine's canonicalization, join or quantifier elimination shows
up as a mismatch instead of being repeated by the oracle.  Each check
returns ``None`` when the answer is right and a one-line reason when it
is not; the benchmark counts every reason as a failed op.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable, NamedTuple, Sequence

HALF = Fraction(1, 2)


# ---------------------------------------------------------------- graphs
class Edge(NamedTuple):
    """A graph edge.  The source is the point ``x = source``, or with
    ``interval`` set the closed range ``source <= x <= source + 1/2``."""

    source: int
    target: int
    interval: bool = False

    def source_contains(self, x: Fraction) -> bool:
        if self.interval:
            return self.source <= x <= self.source + HALF
        return x == self.source


def successors(edges: Iterable[Edge]) -> dict[int, set[int]]:
    """Integer node -> targets one edge away.

    An integer node ``k`` lies in an edge's source exactly when the source
    is ``k``, for point and interval sources alike.
    """
    succ: dict[int, set[int]] = {}
    for edge in edges:
        succ.setdefault(edge.source, set()).add(edge.target)
    return succ


def reach(succ: dict[int, set[int]], start: int) -> set[int]:
    """Nodes reachable from ``start`` by one or more edges."""
    seen: set[int] = set()
    stack = list(succ.get(start, ()))
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(succ.get(node, ()))
    return seen


def closure_pairs(edges: Sequence[Edge]) -> set[tuple[int, int]]:
    """Transitive closure of a point graph as ``(x, y)`` pairs."""
    succ = successors(edges)
    return {(node, other) for node in succ for other in reach(succ, node)}


# ------------------------------------------------------------ atom decoding
def _term_value(term: Any, point: dict[str, Fraction]) -> Fraction:
    name = getattr(term, "name", None)
    if name is not None:
        return point[name]
    return term.value


def atom_holds(atom: Any, point: dict[str, Fraction]) -> bool:
    """Evaluate a dense-order atom ``left op right`` at a point."""
    lhs = _term_value(atom.left, point)
    rhs = _term_value(atom.right, point)
    op = atom.op
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == "=":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    raise ValueError(f"unknown operator {op!r}")


def pinned(atoms: Iterable[Any], variable: str) -> Fraction | None:
    """The constant an ``variable = c`` atom among ``atoms`` fixes, if any."""
    for atom in atoms:
        if atom.op != "=":
            continue
        left, right = atom.left, atom.right
        if getattr(left, "name", None) == variable and hasattr(right, "value"):
            return right.value
        if getattr(right, "name", None) == variable and hasattr(left, "value"):
            return left.value
    return None


def point_tuples(relation: Any) -> list[tuple] | str:
    """Decode a relation of point tuples (values in the relation's variable
    order); a reason string if one tuple is not a point."""
    variables = relation.variables
    rows = []
    for item in relation:
        if len(item.atoms) != len(variables):
            return f"{relation.name}: tuple {item} is not a point"
        row = tuple(pinned(item.atoms, v) for v in variables)
        if any(value is None for value in row):
            return f"{relation.name}: tuple {item} is not a point"
        rows.append(row)
    return rows


def _compare(label: str, got: set, want: set) -> str | None:
    if got == want:
        return None
    missing = sorted(want - got)[:3]
    extra = sorted(got - want)[:3]
    return f"{label}: {len(got)} vs {len(want)} expected; missing {missing} extra {extra}"


# ------------------------------------------------------------- fixpoints
def check_closure(relation: Any, edges: Sequence[Edge]) -> str | None:
    """``T`` must hold exactly the reachability pairs of a point graph."""
    rows = point_tuples(relation)
    if isinstance(rows, str):
        return rows
    got = set(rows)
    if len(got) != len(rows):
        return "T: duplicate tuples"
    return _compare("T", got, closure_pairs(edges))


def check_stratified(world: Any, edges: Sequence[Edge], nodes: Sequence[int]) -> str | None:
    """``T``, ``Src`` and ``Root`` of the stratified program over a point graph."""
    reason = check_closure(world.relation("T"), edges)
    if reason is not None:
        return reason
    targets = {edge.target for edge in edges}
    sources = {node for node in nodes if node not in targets}
    rows = point_tuples(world.relation("Src"))
    if isinstance(rows, str):
        return rows
    reason = _compare("Src", {row[0] for row in rows}, sources)
    if reason is not None:
        return reason
    rows = point_tuples(world.relation("Root"))
    if isinstance(rows, str):
        return rows
    want = {pair for pair in closure_pairs(edges) if pair[0] in sources}
    return _compare("Root", set(rows), want)


# ----------------------------------------------------------- bound queries
def check_bound_query(
    relation: Any,
    edges: Sequence[Edge],
    low: Fraction,
    high: Fraction,
    strict: bool,
) -> str | None:
    """Answers of ``T(x, y)`` with ``x`` restricted to ``(low, high)``.

    ``strict`` False with ``low == high`` is the constant goal ``T(c, y)``.
    Every answer tuple must fix ``y``; for each target its ``x`` region is
    compared with the oracle's at every endpoint either side uses, between
    them and beyond them, which decides equality of the two regions.
    """
    succ = successors(edges)
    relevant = [
        edge
        for edge in edges
        if edge.source <= high and low <= edge.source + (HALF if edge.interval else 0)
    ]
    # the sources each target is reached from
    sources: dict[Fraction, list[Edge]] = {}
    for edge in relevant:
        for node in {edge.target} | reach(succ, edge.target):
            sources.setdefault(Fraction(node), []).append(edge)
    xv, yv = relation.variables
    answers: dict[Fraction, list] = {}
    for item in relation:
        y = pinned(item.atoms, yv)
        if y is None:
            return f"answer tuple {item} does not fix {yv}"
        answers.setdefault(y, []).append(item.atoms)

    def inside(x: Fraction) -> bool:
        return low < x < high if strict else low <= x <= high

    for y in sorted(set(sources) | set(answers)):
        tuples = answers.get(y, [])
        origins = sources.get(y, [])
        # both regions are finite unions of intervals whose endpoints are
        # among these cuts, so probing every cut, every gap between cuts and
        # both outer rays decides their equality on the whole line
        cuts = {low, high}
        for edge in origins:
            cuts.update((Fraction(edge.source), edge.source + HALF))
        for atoms in tuples:
            for atom in atoms:
                for term in (atom.left, atom.right):
                    if hasattr(term, "value"):
                        cuts.add(term.value)
        ordered = sorted(cuts)
        probes = (
            ordered
            + [(a + b) / 2 for a, b in zip(ordered, ordered[1:])]
            + [ordered[0] - 1, ordered[-1] + 1]
        )
        for x in probes:
            point = {xv: x, yv: y}
            got = any(all(atom_holds(atom, point) for atom in atoms) for atoms in tuples)
            want = inside(x) and any(edge.source_contains(x) for edge in origins)
            if got != want:
                return f"T({x}, {y}) answered {got}, expected {want}"
    return None


# ------------------------------------------------------------- geometry
def check_pairs(relation: Any, names: Sequence[int], want: set[tuple[int, int]]) -> str | None:
    """An overlap query's ``(n1, n2)`` answer against the expected pairs.

    Membership is tested at every pair of shape names, and the tuple count
    must match the pair count, which catches tuples off the name grid.
    """
    got = {
        (a, b)
        for a in names
        for b in names
        if relation.contains_values([Fraction(a), Fraction(b)])
    }
    reason = _compare(relation.name, got, want)
    if reason is None and len(relation) != len(want):
        reason = f"{relation.name}: {len(relation)} tuples for {len(want)} pairs"
    return reason


def adjacent_disk_pairs(order: Sequence[int]) -> set[tuple[int, int]]:
    """Disks placed 3/2 apart along a line with radius 1: only neighbours meet."""
    pairs = set()
    for a, b in zip(order, order[1:]):
        pairs.add((a, b))
        pairs.add((b, a))
    return pairs
