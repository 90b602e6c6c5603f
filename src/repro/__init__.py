"""repro — Node-averaged complexity of LCLs on bounded-degree trees.

A full reproduction of "Completing the Node-Averaged Complexity Landscape of
LCLs on Trees" (PODC 2024): a LOCAL-model simulator, every problem family
the paper defines, the paper's algorithms and lower-bound constructions, the
landscape formulas, and the Section-11 decidability machinery.

Quickstart::

    from repro.local import LocalSimulator, path_graph, random_ids
    from repro.algorithms import ColeVishkin3Coloring

    g = path_graph(1000)
    trace = LocalSimulator().run(g, ColeVishkin3Coloring(), random_ids(g.n))
    print(trace.node_averaged(), trace.worst_case())

``LocalSimulator`` executes all algorithm formulations (view-based,
message-passing and batched) on a flat-CSR graph core.  Its default
batched engine executes one vectorized round over all live nodes at
once for algorithms with ``decide_batch`` and runs the others
unmodified (view algorithms through the reference loop, message
algorithms through one shared global execution); pass
``engine="reference"`` for the recompute-everything-from-the-view
oracle when cross-checking semantics.  Use ``run_batch`` to sweep many
ID assignments over one topology.
"""

__version__ = "1.0.0"

import importlib

# The subpackages load on first attribute access (PEP 562), so a tool
# that needs one of them — ``python -m repro.lint`` needs neither numpy
# nor the decider — does not pay for the others.  ``repro.sweep`` is not
# listed: it doubles as the ``python -m repro.sweep`` CLI, and runpy
# warns when the module it is about to execute was already imported.
_SUBPACKAGES = (
    "algorithms",
    "analysis",
    "constructions",
    "families",
    "gap",
    "lcl",
    "local",
)

__all__ = [*_SUBPACKAGES, "__version__"]


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBPACKAGES))
