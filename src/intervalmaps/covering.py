"""Covering graphs over labeled interval pseudo-partitions.

A pseudo-partition is a chain of closed intervals with disjoint interiors
covering the domain. The graph has an arrow A -> B whenever the image of A
meets the interior of B; the arrow is full when the image covers all of B,
partial otherwise. Primitive cycles (closed edge-walks not obtained by
repeating a shorter one, counted up to rotation) certify absence of periods.
The census counts them by a trace formula on the 0/1 adjacency matrix, whose
powers it steps row by row over each vertex's successors, O(|E| * k) per
length for k vertices; its check, a depth-first listing of the cycles, is
primitive_cycles in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Dict, Iterable, List, Tuple

from .kernel import _within
from .plmap import Interval, PLMap

EDGE_FULL = "full"
EDGE_PARTIAL = "partial"

__all__ = [
    "EDGE_FULL",
    "EDGE_PARTIAL",
    "CoveringGraph",
    "build_covering_graph",
    "check_partition",
    "primitive_cycle_census",
]


@dataclass(frozen=True)
class CoveringGraph:
    """Directed graph on labeled intervals with full/partial arrows."""

    vertices: Tuple[Tuple[str, Interval], ...]
    edges: Tuple[Tuple[str, str, str], ...]

    def labels(self) -> List[str]:
        return [name for name, _ in self.vertices]

    def to_dot(self) -> str:
        """DOT text; solid arrows are full coverings, dashed are partial."""
        lines = ["digraph covering {"]
        for name, _ in self.vertices:
            lines.append(f'  "{name}";')
        for a, b, kind in self.edges:
            style = "solid" if kind == EDGE_FULL else "dashed"
            lines.append(f'  "{a}" -> "{b}" [style={style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_covering_graph(
    f: PLMap, partition: Iterable[Tuple[str, Interval]]
) -> CoveringGraph:
    """Covering graph of f over a labeled pseudo-partition of its domain.

    Edges come from exact images: A -> B iff image(A) meets the interior of
    B, full iff image(A) covers B. Both tests allow the map's tol: none in
    rational mode, FLOAT_TOL in floating mode.
    """
    margin = f.tol
    items = check_partition(f, partition)
    edges = []
    for name_a, a in items:
        img = f.image(a)
        for name_b, b in items:
            if img.meets_interior(b, margin):
                kind = EDGE_FULL if img.encloses(b, margin) else EDGE_PARTIAL
                edges.append((name_a, name_b, kind))
    return CoveringGraph(tuple(items), tuple(edges))


def check_partition(
    f: PLMap, partition: Iterable[Tuple[str, Interval]]
) -> List[Tuple[str, Interval]]:
    """The partition in domain order, once it is checked to tile f's domain:
    uniquely labeled, non-degenerate closed intervals whose ends meet (within
    the map's tol) and reach both ends of the domain. Raises ValueError
    naming the offending element."""
    margin = f.tol
    items = sorted(partition, key=lambda kv: (kv[1].lo, kv[1].hi))
    if not items:
        raise ValueError("empty partition")
    names = [name for name, _ in items]
    if len(set(names)) != len(names):
        raise ValueError("partition labels must be unique")
    dom = f.domain
    first, last = items[0][1], items[-1][1]
    if not (_within(first.lo, dom.lo, margin) and _within(last.hi, dom.hi, margin)):
        raise ValueError("partition does not cover the domain")
    for (na, a), (nb, b) in zip(items, items[1:]):
        if not _within(a.hi, b.lo, margin):
            raise ValueError(f"partition gap or overlap between {na} and {nb}")
    for name, iv in items:
        if iv.is_degenerate:
            raise ValueError(f"degenerate partition element {name}")
    return items


def primitive_cycle_census(graph: CoveringGraph, max_len: int) -> Dict[int, int]:
    """Counts of primitive cycles (up to rotation) for each length <= max_len.

    Necklace counting: with A the 0/1 adjacency matrix, tr(A^d) counts the
    closed walks of length d, and Moebius inversion over the divisors of n
    leaves the primitive ones, n rotations each, so the count of length n is
    (1/n) * sum over d | n of mu(n/d) * tr(A^d).

    From A^0 = I, row i of A^(n+1) is the sum of the rows l of A^n over the
    arrows i -> l (that row itself when there is one), and tr(A^n) is read
    off its diagonal: O(max_len * |E| * k) for k vertices. A repeated arrow
    is one successor, as it is one 1 in A; a vertex with no arrow out has a
    zero row."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    labels = graph.labels()
    index = {name: i for i, name in enumerate(labels)}
    size = len(labels)
    successors = [set() for _ in labels]
    for a, b, _kind in graph.edges:
        successors[index[a]].add(index[b])
    zero = [0] * size
    rows = [zero[:i] + [1] + zero[i + 1 :] for i in range(size)]  # A^0
    traces = [0]  # traces[d] = tr(A^d)
    for _ in range(max_len):
        power, rows = rows, []
        for succ in successors:
            row = zero
            for l in succ:
                row = power[l] if row is zero else list(map(add, row, power[l]))
            rows.append(row)
        traces.append(sum(row[i] for i, row in enumerate(rows)))
    return {
        n: sum(_moebius(n // d) * traces[d] for d in range(1, n + 1) if n % d == 0) // n
        for n in range(1, max_len + 1)
    }


def _moebius(n: int) -> int:
    """The Moebius function mu(n), by trial division."""
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result
