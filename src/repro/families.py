"""Seeded graph families for family-sup experiments.

The paper's node-averaged complexity is a supremum over a *graph family*
(``AVG_V(A) = max_{G in G} (1/|V|) sum_v T_v``, see
:mod:`repro.local.metrics`), but the seed repo could only build one
hand-picked instance per experiment.  This module provides reproducible
generators for the families the benchmarks sweep over:

* deterministic shapes — paths, cycles, grids, stars, complete binary
  trees — that yield one canonical instance per size;
* seeded random shapes — uniform random trees (a numpy-drawn Prüfer
  sequence through a linear-time decode),
  bounded-degree random trees, caterpillars, spiders, random regular
  graphs (configuration model) — that yield many instances per
  ``(n, seed)``;
* deterministic non-tree constant-ish-degree shapes — hypercubes — that
  stress the checker kernel and sweeps away from the tree setting;
* disjoint-union compositions of any of the above (forests with small and
  single-node components, the shapes that stress ``run_batch`` caching).

Every instance is reproducible from ``(family name, n, seed, index)``
alone: instance ``index`` is built from a private ``random.Random`` seeded
by a stable digest of exactly those values, so a multiprocessing worker
(:mod:`repro.sweep`) can rebuild instance 7 without generating instances
0..6 and without shipping pickled graphs over IPC.

``FAMILIES`` is the registry the sweep CLI resolves names against; use
:func:`register_family` to add project-specific families (benchmarks
register their lower-bound constructions this way).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .constructions.trees import random_tree as _random_attachment_tree
from .parallel import stable_seed
from .local.graph import (
    Graph,
    balanced_tree,
    cycle_graph,
    disjoint_union,
    grid_graph,
    path_graph,
    star_graph,
)

__all__ = [
    "Family",
    "FAMILIES",
    "get_family",
    "register_family",
    "union_family",
    "prufer_tree",
    "prufer_sequence",
    "prufer_decode",
    "bounded_degree_tree",
    "caterpillar_tree",
    "spider_tree",
    "random_regular",
    "hypercube_graph",
    "weighted_construction_graph",
]


def _instance_seed(name: str, n: int, seed: int, index: int) -> int:
    """Stable cross-process seed for instance ``index`` of a family sweep
    (independent of ``PYTHONHASHSEED``, unlike built-in ``hash``)."""
    return stable_seed(name, n, seed, index)


@dataclass(frozen=True)
class Family:
    """A named, seeded graph family.

    ``build`` constructs one instance of target size ``n`` from a private
    RNG.  ``degree_bound`` is the declared maximum degree of every
    instance (``None`` = unbounded); generators must respect it — tests
    check.  ``default_count`` is how many instances one ``(n, seed)``
    sweep cell draws (1 for deterministic shapes).
    """

    name: str
    build: Callable[[int, random.Random], Graph]
    degree_bound: Optional[int] = None
    default_count: int = 1
    description: str = ""

    def instance(self, n: int, seed: int, index: int = 0) -> Graph:
        """Instance ``index`` of the ``(n, seed)`` draw — reproducible
        from the arguments alone."""
        if n < 1:
            raise ValueError("instance size must be >= 1")
        rng = random.Random(_instance_seed(self.name, n, seed, index))
        return self.build(n, rng)

    def instances(
        self, n: int, seed: int = 0, count: Optional[int] = None
    ) -> Iterator[Graph]:
        """Yield ``count`` (default ``default_count``) instances of target
        size ``n``."""
        if count is None:
            count = self.default_count
        for index in range(count):
            yield self.instance(n, seed, index)


# ----------------------------------------------------------------------
# random generators
# ----------------------------------------------------------------------
def prufer_sequence(n: int, rng: random.Random) -> np.ndarray:
    """A uniform Prüfer sequence for ``n >= 2`` nodes: ``n - 2`` draws
    from ``range(n)`` by a ``numpy.random.Generator`` seeded with one
    ``rng.getrandbits(128)`` draw (so callers sharing ``rng`` can keep
    drawing from it)."""
    if n < 2:
        raise ValueError("a Prüfer sequence needs n >= 2")
    gen = np.random.default_rng(rng.getrandbits(128))
    return gen.integers(0, n, size=n - 2)


def prufer_decode(seq: Sequence[int]) -> Graph:
    """The labeled tree on ``len(seq) + 2`` nodes with Prüfer sequence
    ``seq``.

    Linear-time pointer decode: ``ptr`` only moves up, scanning for the
    next leaf, and a node that becomes a leaf below ``ptr`` is used at
    once, so each step joins the *smallest* current leaf to ``seq[i]``
    and the last edge joins the final leaf to ``n - 1`` — the same edges
    in the same order as the textbook min-heap decode, hence the same
    CSR layout.  The decode of an in-range sequence is a tree by
    construction, so the range check is the only validation.
    """
    code = np.asarray(seq, dtype=np.int64)
    n = code.size + 2
    if code.size and (code.min() < 0 or code.max() >= n):
        raise ValueError(f"Prüfer sequence entries must lie in range({n})")
    degree = (np.bincount(code, minlength=n) + 1).tolist()
    ptr = degree.index(1)
    leaf = ptr
    leaves: List[int] = []
    for v in code.tolist():
        leaves.append(leaf)
        d = degree[v] - 1
        degree[v] = d
        if d == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    leaves.append(leaf)
    return Graph.from_arrays(n, leaves, np.append(code, n - 1),
                             validate=False)


def prufer_tree(n: int, rng: random.Random) -> Graph:
    """A uniformly random labeled tree on ``n`` nodes: a
    :func:`prufer_sequence` draw through :func:`prufer_decode`."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return Graph(1, [])
    return prufer_decode(prufer_sequence(n, rng))


def bounded_degree_tree(n: int, rng: random.Random, delta: int = 3) -> Graph:
    """A random tree of maximum degree ``delta``: node ``v`` attaches to a
    uniformly random earlier node that still has degree ``< delta``
    (:func:`repro.constructions.trees.random_tree` with the family
    calling convention)."""
    if delta < 2:
        raise ValueError("delta must be >= 2")
    return _random_attachment_tree(n, max_degree=delta, rng=rng)


def caterpillar_tree(
    n: int, rng: random.Random, max_legs_per_node: int = 3
) -> Graph:
    """A random caterpillar: a spine path with up to ``max_legs_per_node``
    leaf legs per spine node (max degree ``2 + max_legs_per_node``)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # spine long enough that the legs always fit under the per-node cap
    min_spine = max(1, -(-n // (1 + max_legs_per_node)))
    spine = n if n <= 2 else rng.randint(max(min_spine, max(1, n // 3)), n)
    edges = [(i, i + 1) for i in range(spine - 1)]
    capacity = [max_legs_per_node] * spine
    open_slots = list(range(spine))
    handle = spine
    for _ in range(n - spine):
        i = rng.randrange(len(open_slots))
        host = open_slots[i]
        edges.append((host, handle))
        handle += 1
        capacity[host] -= 1
        if capacity[host] == 0:
            open_slots[i] = open_slots[-1]
            open_slots.pop()
    return Graph(n, edges)


def spider_tree(n: int, rng: random.Random, max_legs: int = 8) -> Graph:
    """A random spider: one centre with up to ``max_legs`` paths hanging
    off it, the remaining ``n - 1`` nodes split randomly across legs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 2:
        return path_graph(n)
    legs = rng.randint(2, min(max_legs, n - 1))
    # random composition of n-1 into `legs` positive parts
    cuts = sorted(rng.sample(range(1, n - 1), legs - 1)) if legs > 1 else []
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n - 1])]
    edges: List[Tuple[int, int]] = []
    handle = 1
    for size in sizes:
        prev = 0
        for _ in range(size):
            edges.append((prev, handle))
            prev = handle
            handle += 1
    return Graph(n, edges)


def random_regular(n: int, rng: random.Random, d: int = 3) -> Graph:
    """A random ``d``-regular simple graph via the configuration model.

    ``d`` stubs per node are paired uniformly at random; pairings with
    self-loops or parallel edges are rejected and redrawn (for constant
    ``d`` a pairing is simple with probability ``~exp(-(d^2-1)/4)``, so a
    handful of attempts suffice).  The target size is rounded up to the
    smallest feasible ``n' >= max(n, d+1)`` with ``n' * d`` even — like
    ``grid``, the built size may differ from the target.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    size = max(n, d + 1)
    if (size * d) % 2:
        size += 1
    for _ in range(10_000):
        stubs = [v for v in range(size) for _ in range(d)]
        rng.shuffle(stubs)
        edges = []
        seen = set()
        simple = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            key = (u, v) if u < v else (v, u)
            if u == v or key in seen:
                simple = False
                break
            seen.add(key)
            edges.append(key)
        if simple:
            return Graph(size, edges)
    raise RuntimeError(  # pragma: no cover - probability ~0
        f"no simple {d}-regular pairing found for n={size}"
    )


def hypercube_graph(dim: int) -> Graph:
    """The ``dim``-dimensional hypercube ``Q_dim``: ``2^dim`` nodes,
    neighbours differ in exactly one bit."""
    if dim < 0:
        raise ValueError("dim must be >= 0")
    n = 1 << dim
    edges = [
        (v, v | (1 << b))
        for v in range(n)
        for b in range(dim)
        if not v & (1 << b)
    ]
    return Graph(n, edges)


# ----------------------------------------------------------------------
# deterministic shapes (the rng parameter is part of the uniform builder
# signature and is deliberately unused)
# ----------------------------------------------------------------------
def _build_path(n: int, rng: random.Random) -> Graph:
    return path_graph(n)


def _build_cycle(n: int, rng: random.Random) -> Graph:
    return cycle_graph(max(3, n))


def _build_star(n: int, rng: random.Random) -> Graph:
    return star_graph(max(1, n - 1))


def _build_complete_binary(n: int, rng: random.Random) -> Graph:
    """The largest complete binary tree with at most ``max(3, n)`` nodes."""
    height = max(1, (max(3, n) + 1).bit_length() - 2)
    return balanced_tree(2, height)


def _build_grid(n: int, rng: random.Random) -> Graph:
    """The most-square grid with at most ``n`` nodes."""
    rows = max(1, math.isqrt(n))
    return grid_graph(rows, max(1, n // rows))


def _build_hypercube(n: int, rng: random.Random) -> Graph:
    """The largest hypercube with at most ``max(2, n)`` nodes."""
    return hypercube_graph(max(2, n).bit_length() - 1)


# ----------------------------------------------------------------------
# paper constructions as families (deterministic: one instance per size)
# ----------------------------------------------------------------------
def weighted_construction_graph(
    n: int, delta: int, d: int, k: int, regime: str
) -> Graph:
    """The Theorem-2/5 weighted lower-bound construction at target size
    ``n``, with the exponent vector the benchmarks use for the regime
    (``alpha_vector_poly`` for ``'poly'``, ``alpha_vector_logstar`` for
    ``'logstar'``).  The built size tracks, but need not equal, ``n`` —
    the grid-family convention."""
    from .analysis import (
        alpha_vector_logstar,
        alpha_vector_poly,
        efficiency_factor_relaxed,
    )
    from .constructions import build_weighted_construction
    from .constructions.lowerbound import paper_lengths

    per_level = max(4, n // k)
    if regime == "poly":
        x = math.log(delta - d + 1) / math.log(delta - 1)
        lengths = paper_lengths(per_level, alpha_vector_poly(x, k))
    else:
        xp = efficiency_factor_relaxed(delta, d)
        lengths = paper_lengths(
            per_level, alpha_vector_logstar(xp, k), "logstar"
        )
    return build_weighted_construction(
        lengths, delta, weight_per_level=per_level
    ).graph


def _build_weighted25_d5k2(n: int, rng: random.Random) -> Graph:
    return weighted_construction_graph(n, delta=5, d=2, k=2, regime="poly")


def _build_weighted35_d6k2(n: int, rng: random.Random) -> Graph:
    return weighted_construction_graph(n, delta=6, d=3, k=2, regime="logstar")


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
FAMILIES: Dict[str, Family] = {}


def register_family(family: Family, overwrite: bool = False) -> Family:
    """Add ``family`` to the registry used by name lookups (CLI, sweep
    workers).  Re-registering an existing name requires ``overwrite``."""
    if not overwrite and family.name in FAMILIES:
        raise ValueError(f"family {family.name!r} already registered")
    FAMILIES[family.name] = family
    return family


def get_family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown family {name!r}; known: {sorted(FAMILIES)}"
        ) from None


def union_family(
    name: str,
    members: Sequence[Family],
    weights: Optional[Sequence[int]] = None,
    default_count: int = 4,
) -> Family:
    """A family of disjoint unions: one instance takes one instance from
    each member (sizes split ``weights``-proportionally, default evenly)
    and composes them.  The degree bound is the max of the members'
    bounds (unbounded if any member is unbounded)."""
    if not members:
        raise ValueError("union_family needs at least one member")
    if weights is None:
        weights = [1] * len(members)
    if len(weights) != len(members) or any(w < 1 for w in weights):
        raise ValueError("weights must be positive, one per member")
    total = sum(weights)
    bounds = [m.degree_bound for m in members]
    bound = None if any(b is None for b in bounds) else max(bounds)

    def build(n: int, rng: random.Random) -> Graph:
        parts = []
        for member, w in zip(members, weights):
            size = max(1, n * w // total)
            parts.append(member.build(size, rng))
        return disjoint_union(parts)

    return Family(
        name=name,
        build=build,
        degree_bound=bound,
        default_count=default_count,
        description="disjoint union of "
        + ", ".join(m.name for m in members),
    )


_RANDOM_TREE = Family(
    "random_tree", prufer_tree, degree_bound=None, default_count=4,
    description="uniform random labeled tree (Prüfer decode)",
)
_BOUNDED_TREE = Family(
    "bounded_tree_d3",
    lambda n, rng: bounded_degree_tree(n, rng, delta=3),
    degree_bound=3, default_count=4,
    description="random attachment tree with max degree 3",
)
_CATERPILLAR = Family(
    "caterpillar", caterpillar_tree, degree_bound=5, default_count=4,
    description="random spine-plus-legs caterpillar (<= 3 legs per node)",
)
_SPIDER = Family(
    "spider", spider_tree, degree_bound=8, default_count=4,
    description="centre with up to 8 random-length legs",
)
_RANDOM_REGULAR = Family(
    "random_regular_d3",
    lambda n, rng: random_regular(n, rng, d=3),
    degree_bound=3, default_count=4,
    description="random 3-regular simple graph (configuration model)",
)

for _family in (
    Family("path", _build_path, degree_bound=2,
           description="the path 0-1-...-(n-1)"),
    Family("cycle", _build_cycle, degree_bound=2,
           description="the n-cycle (n >= 3)"),
    Family("star", _build_star, degree_bound=None,
           description="one centre with n-1 leaves"),
    Family("complete_binary_tree", _build_complete_binary, degree_bound=3,
           description="largest complete binary tree with <= n nodes"),
    Family("grid", _build_grid, degree_bound=4,
           description="most-square grid with <= n nodes"),
    Family("hypercube", _build_hypercube, degree_bound=None,
           description="largest hypercube with <= n nodes"),
    Family("weighted25_d5k2", _build_weighted25_d5k2, degree_bound=None,
           description="Theorem-2 weighted construction, Pi^{2.5} at "
           "(delta, d, k) = (5, 2, 2), poly regime"),
    Family("weighted35_d6k2", _build_weighted35_d6k2, degree_bound=None,
           description="Theorem-5 weighted construction, Pi^{3.5} at "
           "(delta, d, k) = (6, 3, 2), log* regime"),
    _RANDOM_TREE,
    _BOUNDED_TREE,
    _CATERPILLAR,
    _SPIDER,
    _RANDOM_REGULAR,
    union_family(
        "random_forest", [_RANDOM_TREE, _BOUNDED_TREE, _SPIDER]
    ),
    union_family(
        "fragmented_forest",
        [_BOUNDED_TREE, Family("singleton", lambda n, rng: Graph(1, []),
                               degree_bound=0),
         _CATERPILLAR],
        weights=[8, 1, 8],
        default_count=4,
    ),
):
    register_family(_family)
del _family
