"""LCLs in the black-white formalism (Definition 70).

A problem is a tuple ``(Sigma_in, Sigma_out, C_W, C_B)`` on properly
2-coloured trees: every *edge* gets an input and must get an output, and
for each node the multiset of incident ``(input, output)`` pairs must
belong to the constraint set of its colour.  Constraints are predicates
over multisets (encoded as sorted tuples), which lets degree-generic
constraints ("all incident outputs equal") be written without enumerating
every degree.

This is the formalism of the Section-11 gap machinery: label-sets,
classes and the testing procedure (:mod:`repro.gap`) all operate on
:class:`BlackWhiteLCL` instances.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

from ..local.graph import Graph
from .problem import LCLResult, Violation

__all__ = ["BlackWhiteLCL", "two_color_tree", "Pair"]

Pair = Tuple[object, object]  # (input label, output label)

WHITE = "W"
BLACK = "B"


class BlackWhiteLCL:
    """A black-white LCL with predicate-style constraints.

    ``constraint_white`` / ``constraint_black`` take the canonicalized
    tuple of incident ``(input, output)`` pairs of a node and return
    whether it is allowed; they must be pure functions of the pair
    *multiset* (order-insensitive).  ``radius`` is 1 by construction.

    Multiset canonicalization interns each distinct pair (by equality) to
    a stable index and sorts by index — never by ``repr``, whose ordering
    can disagree with equality on mixed-type labels (two unequal labels
    with colliding reprs would make equal multisets canonicalize
    differently depending on input order).  Constraint verdicts are
    memoized per ``(color, canonical multiset)``, so the verification
    kernel and the Section-11 gap machinery each evaluate every distinct
    neighbourhood type exactly once per problem instance.
    """

    def __init__(
        self,
        name: str,
        sigma_in: Sequence,
        sigma_out: Sequence,
        constraint_white: Callable[[Tuple[Pair, ...]], bool],
        constraint_black: Callable[[Tuple[Pair, ...]], bool],
    ) -> None:
        self.name = name
        self.sigma_in: Tuple = tuple(sigma_in)
        self.sigma_out: Tuple = tuple(sigma_out)
        self._cw = constraint_white
        self._cb = constraint_black
        self._pair_index: dict = {}
        self._pair_list: List[Pair] = []
        self._allow_memo: dict = {}
        #: ``(delta, white mask, black mask)`` for an extensional problem
        #: whose constraints are exactly the allowed multisets of sizes
        #: ``1..delta`` named by the masks' bits
        #: (:meth:`repro.gap.canonical.CanonicalContext.mask_from_multisets`);
        #: :class:`repro.gap.classes.GapCache` shares compiled tables
        #: between problems with equal masks.  ``None`` for a predicate
        #: problem.
        self.constraint_masks: Optional[Tuple[int, int, int]] = None

    def _canonical_indices(self, pairs: Sequence[Pair]) -> Tuple[int, ...]:
        """Sorted interned indices — a canonical multiset key such that
        equal pair multisets (under ``==``) always coincide."""
        index = self._pair_index
        idxs = []
        for p in pairs:
            i = index.get(p)
            if i is None:
                i = index[p] = len(self._pair_list)
                self._pair_list.append(p)
            idxs.append(i)
        idxs.sort()
        return tuple(idxs)

    def canonical_pairs(self, pairs: Sequence[Pair]) -> Tuple[Pair, ...]:
        """The pairs in canonical (interned-index) order."""
        pair_list = self._pair_list
        return tuple(pair_list[i] for i in self._canonical_indices(pairs))

    def allows(self, color: str, pairs: Sequence[Pair]) -> bool:
        key = (color == WHITE, self._canonical_indices(pairs))
        hit = self._allow_memo.get(key)
        if hit is None:
            pair_list = self._pair_list
            canon = tuple(pair_list[i] for i in key[1])
            hit = self._cw(canon) if key[0] else self._cb(canon)
            self._allow_memo[key] = hit
        return hit

    # ------------------------------------------------------------------
    def verify(
        self,
        graph: Graph,
        colors: Sequence[str],
        edge_inputs,
        edge_outputs,
        early_exit: bool = False,
    ) -> LCLResult:
        """Verify an edge labeling through the CSR kernel.

        ``edge_inputs`` / ``edge_outputs`` map ``frozenset({u, v})`` to a
        label.  See :class:`repro.lcl.kernel.CompiledBlackWhite` for the
        flat-array pass; :meth:`verify_reference` is the per-node oracle.
        """
        return self.compiled().verify(
            graph, edge_outputs, colors=colors, edge_inputs=edge_inputs,
            early_exit=early_exit,
        )

    def compiled(self):
        """This problem's cached kernel checker."""
        try:
            return self._compiled_checker
        except AttributeError:
            from .kernel import CompiledBlackWhite

            self._compiled_checker = CompiledBlackWhite(self)
            return self._compiled_checker

    def verify_reference(
        self,
        graph: Graph,
        colors: Sequence[str],
        edge_inputs,
        edge_outputs,
    ) -> LCLResult:
        """The legacy per-node verification loop (differential oracle)."""
        violations: List[Violation] = []
        for u, v in graph.edges():
            if colors[u] == colors[v]:
                violations.append(Violation(u, "not properly 2-colored", f"edge ({u},{v})"))
        if violations:
            return LCLResult(violations)
        for v in graph.nodes():
            pairs = []
            for w in graph.neighbors(v):
                e = frozenset((v, w))
                i = edge_inputs[e]
                o = edge_outputs[e]
                if i not in self.sigma_in:
                    violations.append(Violation(v, "input alphabet", repr(i)))
                if o not in self.sigma_out:
                    violations.append(Violation(v, "output alphabet", repr(o)))
                pairs.append((i, o))
            if not self.allows(colors[v], pairs):
                violations.append(
                    Violation(v, f"{colors[v]}-constraint",
                              repr(self.canonical_pairs(pairs)))
                )
        return LCLResult(violations)


def two_color_tree(graph: Graph, root: int = 0) -> List[str]:
    """The proper 2-coloring of a tree by distance parity from a root."""
    dist = graph.bfs_distances([root])
    return [WHITE if (d or 0) % 2 == 0 else BLACK for d in dist]
