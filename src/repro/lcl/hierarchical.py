"""k-hierarchical 2½- and 3½-coloring (Definitions 8 and 9).

Both problems share the level structure of :mod:`repro.lcl.levels` and the
labels ``W`` (white), ``B`` (black), ``E`` (exempt), ``D`` (decline); the
3½ variant adds the path-3-coloring labels ``R``, ``G``, ``Y`` for level-k
nodes.  Constraints (checkability radius ``O(k)``):

* level-1 nodes are never ``E``; level-(k+1) nodes are always ``E``;
* a node of level ``2 <= i <= k`` is ``E`` iff it has a *lower-level*
  neighbour labeled ``W``, ``B`` or ``E``;
* ``W``/``B`` behave as colours within a level: a ``W`` node has no
  same-level neighbour labeled ``W`` or ``D`` (symmetrically for ``B``);
* 2½: level-k nodes may not output ``D`` (so their non-``E`` part is a
  proper 2-coloring);
* 3½: level-k nodes may not output ``D``, ``W`` or ``B``; their non-``E``
  part must be properly 3-coloured with ``R/G/Y``; levels below ``k`` may
  not use ``R/G/Y``.

The 2½ family has worst-case complexity ``Theta(n^{1/k})`` [CP19] and
node-averaged ``Theta(n^{1/(2^k - 1)})`` [BBK+23b]; the 3½ family has
worst-case ``Theta(log* n)`` (Corollary 10) and node-averaged
``Theta((log* n)^{1/2^{k-1}})`` (Theorem 11).

``verify`` runs through the compiled CSR kernel
(:class:`repro.lcl.kernel.CompiledHierarchicalColoring`, which lowers
these rules to ``(level, label)`` action tables); the per-node
``check_node`` path below stays as the reference oracle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..local.graph import Graph
from .levels import compute_levels
from .problem import LCLProblem, Violation

__all__ = [
    "W", "B", "E", "D", "R", "G", "Y",
    "COLORS_2", "COLORS_3",
    "HierarchicalColoring",
    "Coloring25",
    "Coloring35",
    "valid_coloring25",
]

W, B, E, D = "W", "B", "E", "D"
R, G, Y = "R", "G", "Y"
COLORS_2 = (W, B)
COLORS_3 = (R, G, Y)


class HierarchicalColoring(LCLProblem):
    """Common checker for the 2½ / 3½ families; parameterized by variant."""

    #: "2.5" or "3.5"
    variant: str = "2.5"

    def __init__(self, k: int, variant: Optional[str] = None) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        if variant is not None:
            self.variant = variant
        if self.variant not in ("2.5", "3.5"):
            raise ValueError("variant must be '2.5' or '3.5'")
        self.radius = k + 1
        base = {W, B, E, D}
        if self.variant == "3.5":
            base |= {R, G, Y}
        self.sigma_out = frozenset(base)
        self.name = f"{k}-hierarchical {self.variant}-coloring"

    # -- levels --------------------------------------------------------
    def levels(self, graph: Graph, restrict=None) -> List[int]:
        return compute_levels(graph, self.k, restrict)

    # -- constraint ----------------------------------------------------
    def check_node(self, graph: Graph, outputs: Sequence, v: int) -> List[Violation]:
        levels = self._levels_cached(graph)
        return self.check_node_with_levels(graph, levels, outputs, v)

    def _levels_cached(self, graph: Graph) -> List[int]:
        cached = getattr(self, "_level_cache", None)
        if cached is not None and cached[0] is graph:
            return cached[1]
        levels = self.levels(graph)
        self._level_cache = (graph, levels)
        return levels

    def check_node_with_levels(
        self, graph: Graph, levels: Sequence[int], outputs: Sequence, v: int
    ) -> List[Violation]:
        """The per-node constraint, with levels supplied by the caller
        (the weighted problems compute levels per active component)."""
        k = self.k
        out = outputs[v]
        lv = levels[v]
        bad: List[Violation] = []

        if lv == 1 and out == E:
            bad.append(Violation(v, "level-1 node labeled E"))
        if lv == k + 1 and out != E:
            bad.append(Violation(v, "level-(k+1) node not labeled E", f"got {out}"))

        indptr, indices = graph.adjacency()
        nbrs = indices[indptr[v]:indptr[v + 1]]
        lower = [w for w in nbrs if 0 < levels[w] < lv]
        if 2 <= lv <= k:
            has_colored_lower = any(outputs[w] in (W, B, E) for w in lower)
            if (out == E) != has_colored_lower:
                bad.append(
                    Violation(
                        v,
                        "E-iff rule",
                        f"out={out}, colored-lower-neighbor={has_colored_lower}",
                    )
                )

        same = [w for w in nbrs if levels[w] == lv]
        color_limit = k if self.variant == "2.5" else k - 1
        if out in (W, B):
            if lv > color_limit or lv > k:
                bad.append(Violation(v, f"{out} not allowed at level {lv}"))
            for w in same:
                if outputs[w] == out or outputs[w] == D:
                    bad.append(
                        Violation(v, "same-level color conflict",
                                  f"{out} next to {outputs[w]} at level {lv}")
                    )

        if lv == k:
            if self.variant == "2.5":
                if out == D:
                    bad.append(Violation(v, "level-k node labeled D"))
            else:
                if out in (D, W, B):
                    bad.append(Violation(v, f"level-k node labeled {out} (3.5)"))
                if out in COLORS_3:
                    for w in same:
                        if outputs[w] == out:
                            bad.append(
                                Violation(v, "level-k 3-coloring conflict",
                                          f"{out} next to {out}")
                            )
        if out in COLORS_3 and (self.variant == "2.5" or lv != k):
            bad.append(Violation(v, f"label {out} not allowed at level {lv}"))
        return bad


def valid_coloring25(graph: Graph, k: int) -> List[str]:
    """A canonical valid k-hierarchical 2½-coloring: ``D`` below level
    ``k`` (making the E-iff rule vacuous), ``W``/``B`` alternating along
    the level-``k`` paths, ``E`` at level ``k+1``.

    Valid whenever every level-``k`` component is a path — trees and
    grids qualify.  A level-``k`` component that is not a path, such as
    a cycle (even an even one), raises ``ValueError`` from
    :func:`repro.lcl.levels.level_paths`.
    Benchmark and test call sites assert validity through the checker.
    """
    from .levels import compute_levels, level_paths

    levels = compute_levels(graph, k)
    out = [D] * graph.n
    for v in range(graph.n):
        if levels[v] == k + 1:
            out[v] = E
    for path in level_paths(graph, levels, k):
        for i, v in enumerate(path):
            out[v] = COLORS_2[i % 2]
    return out


class Coloring25(HierarchicalColoring):
    """k-hierarchical 2½-coloring (Definition 8)."""

    variant = "2.5"

    def __init__(self, k: int) -> None:
        super().__init__(k, "2.5")


class Coloring35(HierarchicalColoring):
    """k-hierarchical 3½-coloring (Definition 9)."""

    variant = "3.5"

    def __init__(self, k: int) -> None:
        super().__init__(k, "3.5")
