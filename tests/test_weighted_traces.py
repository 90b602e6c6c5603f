"""Pinned traces of the Pi^Z solvers and of the two d-free weight solvers.

Each Pi^Z entry pins the sha256 of ``repr((rounds, outputs))`` plus the
trace's ``algorithm`` name and ``meta`` dict, for ``run_apoly``,
``run_a35``, ``run_weighted35``, ``run_naive_weighted25`` and
``run_weight_augmented_solver`` on Pi^Z constructions, on the two
weighted sweep families, and on mixed caterpillars whose weight side
connects as well as copies and declines (all but the naive baseline and
Lemma 69's solver, which raise there).  The d-free entries pin the fast solver's
outputs, rounds and Copy components, and Algorithm A's outputs and Copy
components, on random ``A``/``W`` caterpillars.

Print the table afresh with ``PYTHONPATH=src python
tests/test_weighted_traces.py``.
"""

import hashlib
import random

import pytest

from repro.algorithms import (
    run_a35,
    run_algorithm_a,
    run_apoly,
    run_fast_dfree,
    run_weight_augmented_solver,
    run_weighted35,
)
from repro.algorithms.baselines import run_naive_weighted25
from repro.analysis import alpha_vector_poly, efficiency_factor
from repro.constructions import build_weighted_construction
from repro.constructions.lowerbound import paper_lengths
from repro.families import caterpillar_tree, get_family
from repro.lcl.dfree import A_INPUT, W_INPUT
from repro.lcl.weighted import ACTIVE, WEIGHT
from repro.local import random_ids


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------
CONSTRUCTIONS = [(300, 5, 2, 2), (600, 6, 3, 2), (2500, 6, 3, 2), (6000, 6, 3, 3)]
FAMILIES = [("weighted25_d5k2", (5, 2, 2)), ("weighted35_d6k2", (6, 3, 2))]
FAMILY_SIZES = [200, 3000]
MIXED_SIZES = [400, 3000]
DFREE_SIZES = [120, 900, 5000]


def _construction(n_target, delta, d, k):
    """A Pi^Z construction built as ``test_integration.poly_instance``
    builds it, with seed 0."""
    x = efficiency_factor(delta, d)
    lengths = paper_lengths(n_target // k, alpha_vector_poly(x, k))
    wi = build_weighted_construction(lengths, delta, n_target // k)
    return wi.graph, random_ids(wi.n, rng=random.Random(0))


def _family(name, n):
    g = get_family(name).instance(n, 0, 0)
    return g, random_ids(g.n, rng=random.Random(n))


def _mixed(n):
    """A random caterpillar with 5% active nodes: its weight components
    touch several active nodes, so some weight nodes connect."""
    rng = random.Random(n)
    g = caterpillar_tree(n, rng)
    inputs = [ACTIVE if rng.random() < 0.05 else WEIGHT for _ in range(g.n)]
    return g.with_inputs(inputs), random_ids(g.n, rng=random.Random(n + 1))


def _dfree_tree(n, d):
    """A random caterpillar with 5% ``A``-nodes: long enough that both
    solvers produce Connect, Copy and Decline nodes at every size."""
    rng = random.Random(n * 10 + d)
    g = caterpillar_tree(n, rng)
    inputs = [A_INPUT if rng.random() < 0.05 else W_INPUT for _ in range(g.n)]
    return g.with_inputs(inputs)


SOLVERS = {
    "apoly": lambda g, ids, delta, d, k: run_apoly(g, ids, delta, d, k),
    "a35": lambda g, ids, delta, d, k: run_a35(g, ids, delta, d, k),
    "weighted35": lambda g, ids, delta, d, k: run_weighted35(g, ids, delta, d, k),
    "naive": lambda g, ids, delta, d, k: run_naive_weighted25(g, ids, delta, d, k),
    "augmented": lambda g, ids, delta, d, k: run_weight_augmented_solver(g, ids, k),
}


def _weighted_cases():
    """``(case id, graph, ids, (delta, d, k))`` for every Pi^Z instance."""
    for n_target, delta, d, k in CONSTRUCTIONS:
        g, ids = _construction(n_target, delta, d, k)
        yield f"construction-{n_target}-{delta}-{d}-{k}", g, ids, (delta, d, k)
    for name, params in FAMILIES:
        for n in FAMILY_SIZES:
            g, ids = _family(name, n)
            yield f"{name}-{n}", g, ids, params
    for n in MIXED_SIZES:
        g, ids = _mixed(n)
        yield f"mixed-{n}", g, ids, (6, 3, 2)


def _solver_applies(solver, case, delta, d):
    if solver == "weighted35":
        # Theorem 5's hypotheses: the fast Pi^{3.5} solver refuses the rest
        return d >= 3 and delta >= d + 3
    # the naive baseline and Lemma 69's solver take one active-adjacent
    # node per weight component
    return solver not in ("naive", "augmented") or not case.startswith("mixed")


def weighted_table():
    table = {}
    for case, g, ids, (delta, d, k) in _weighted_cases():
        for solver, run in SOLVERS.items():
            if not _solver_applies(solver, case, delta, d):
                continue
            tr = run(g, ids, delta, d, k)
            table[(solver, case)] = (
                _digest((tr.rounds, tr.outputs)), tr.algorithm, tr.meta
            )
    return table


def dfree_table():
    table = {}
    for n in DFREE_SIZES:
        for d in (2, 3):
            g = _dfree_tree(n, d)
            fast = run_fast_dfree(g, d)
            table[("fast", n, d)] = _digest(
                (fast.outputs, fast.rounds, fast.copy_component_of)
            )
            a = run_algorithm_a(g, d)
            table[("algorithm_a", n, d)] = _digest(
                (a.outputs, a.copy_component_of)
            )
    return table


# ----------------------------------------------------------------------
# pins, taken before the Pi^Z solvers shared one composition
# ----------------------------------------------------------------------
WEIGHTED_PINS = {
    ('a35', 'construction-2500-6-3-2'): ('8eee056a7c94415714cb2fcc866ca4b95838733a778c5d9021c55ffd77d47584', 'a_poly-3.5', {'gammas': [3], 'dfree_rounds': 21}),
    ('a35', 'construction-300-5-2-2'): ('0805b24e9a5db2bf336154268e42091bc235ebb3eea826df7f8908b09bcbeeac', 'a_poly-3.5', {'gammas': [4], 'dfree_rounds': 21}),
    ('a35', 'construction-600-6-3-2'): ('f1538c9a31aabd6ed4b86576f727137757162dbba4ad813cd1bb1571b62a7206', 'a_poly-3.5', {'gammas': [3], 'dfree_rounds': 18}),
    ('a35', 'construction-6000-6-3-3'): ('f02ce2bd92e9a7765307ba346a177a23af015b812e1823c9333a216a1de66589', 'a_poly-3.5', {'gammas': [3, 3], 'dfree_rounds': 24}),
    ('a35', 'mixed-3000'): ('afa2d6d2b1a9bfbc304a1c50a79db93b1509fd578d529906559cd5ec1c1600aa', 'a_poly-3.5', {'gammas': [3], 'dfree_rounds': 21}),
    ('a35', 'mixed-400'): ('a260ca3e862a49ecac4b2a78211686355220efa36dac3453a09113b2c0f75962', 'a_poly-3.5', {'gammas': [3], 'dfree_rounds': 18}),
    ('a35', 'weighted25_d5k2-200'): ('d4f13f6e14565cde41b877f9ac557573ec8545e99aa5d20875bbfbe43137ae5e', 'a_poly-3.5', {'gammas': [4], 'dfree_rounds': 18}),
    ('a35', 'weighted25_d5k2-3000'): ('f0ac5035c482747078bab49471b58f22bbec60960ab3acca609bb46f4b692eb2', 'a_poly-3.5', {'gammas': [4], 'dfree_rounds': 27}),
    ('a35', 'weighted35_d6k2-200'): ('bc2a11dc9ea9b77c6d3bfd704f36400dc882ffc203f64ba99b67e24e12ff0c1f', 'a_poly-3.5', {'gammas': [3], 'dfree_rounds': 15}),
    ('a35', 'weighted35_d6k2-3000'): ('642ebe45fe878127d8248a9868c5e8accbd8b6ed0cb01c2df6b60d2e4fae7b1a', 'a_poly-3.5', {'gammas': [3], 'dfree_rounds': 21}),
    ('apoly', 'construction-2500-6-3-2'): ('e454b90d99069b592c45b014d497f9efeded2dfdc76628bb02843bae8f9ce1ea', 'a_poly-2.5', {'gammas': [21], 'dfree_rounds': 21}),
    ('apoly', 'construction-300-5-2-2'): ('77aebc9d4de4a78d4e8e86885f71f92e33d57fde99d279731e976f88489ef7a3', 'a_poly-2.5', {'gammas': [10], 'dfree_rounds': 21}),
    ('apoly', 'construction-600-6-3-2'): ('f851f352fff2d96dd235dbf2028840b809b1a25a558dfb6ea565fb05404352b6', 'a_poly-2.5', {'gammas': [12], 'dfree_rounds': 18}),
    ('apoly', 'construction-6000-6-3-3'): ('849e88cdd8f7bb3806bf82b3923d2c5f0330065463e143045b7438afa733e61f', 'a_poly-2.5', {'gammas': [6, 15], 'dfree_rounds': 24}),
    ('apoly', 'mixed-3000'): ('1ce0406963640672364b0f3cde0f9e5d46d815556ef22e1aabe0baad31403ba0', 'a_poly-2.5', {'gammas': [23], 'dfree_rounds': 21}),
    ('apoly', 'mixed-400'): ('cff802e4fb30500315525554aed017e65e2a60c0d81161b0dd0da856d7e18be1', 'a_poly-2.5', {'gammas': [10], 'dfree_rounds': 18}),
    ('apoly', 'weighted25_d5k2-200'): ('d50febbbea91fa5c05cad485022953c1b156a79935cb3db9212c9215b97e6ace', 'a_poly-2.5', {'gammas': [8], 'dfree_rounds': 18}),
    ('apoly', 'weighted25_d5k2-3000'): ('848fc5eedda4beff07213c415a47bb4b1cd26cb9308b63389043048beb9a0f7b', 'a_poly-2.5', {'gammas': [25], 'dfree_rounds': 27}),
    ('apoly', 'weighted35_d6k2-200'): ('eb8296015b0617ea2c30120d87d824c45be976a25b0a45d4e352755c621a3af2', 'a_poly-2.5', {'gammas': [8], 'dfree_rounds': 15}),
    ('apoly', 'weighted35_d6k2-3000'): ('f9935bc40a0b72378cb4a386d275442a6e0d5f7c86348e880bdda8f57cb05ad2', 'a_poly-2.5', {'gammas': [24], 'dfree_rounds': 21}),
    ('augmented', 'construction-2500-6-3-2'): ('a49bf2232496291f2adee3cec4fe84e7e01e7a74a95a49bcf2976a7183817371', 'weight-augmented-2.5', {}),
    ('augmented', 'construction-300-5-2-2'): ('da8ca9e26644e6da620efe8a481345de029e997e5dfd8d5b6c40afad0ad4fadd', 'weight-augmented-2.5', {}),
    ('augmented', 'construction-600-6-3-2'): ('d42d9fff0246a430c70f0498bc2a55cd67f7d9c307bb81228e7b931179386a42', 'weight-augmented-2.5', {}),
    ('augmented', 'construction-6000-6-3-3'): ('f9ab9b1677d28128e74424588b90697e73873c71eddf6d6df7c885d0f47a731d', 'weight-augmented-2.5', {}),
    ('augmented', 'weighted25_d5k2-200'): ('2b1a75c9359b124a63b97504a4cd3805ae9041ae909f5f7123e4965ca075322e', 'weight-augmented-2.5', {}),
    ('augmented', 'weighted25_d5k2-3000'): ('f91f2db1f8bcc71bb02369f203656411c02b21b3563cbf48071876c9af17e8b6', 'weight-augmented-2.5', {}),
    ('augmented', 'weighted35_d6k2-200'): ('d9b8558de7d059198d64c34b7358f854351d1996349659e5ffd45b5afb66ca0e', 'weight-augmented-2.5', {}),
    ('augmented', 'weighted35_d6k2-3000'): ('69d9f13f326b6aa0e3675354469a5ba63a67f981471af693f1f83a6434532f4f', 'weight-augmented-2.5', {}),
    ('naive', 'construction-2500-6-3-2'): ('ad5f933ea7eb342cd24ddcac83006597529bf6d1ec47ff92935792626b7878de', 'naive-weighted25', {}),
    ('naive', 'construction-300-5-2-2'): ('e31e9bd3808812ce340b4ae63e9030f40b86c2847729f5dad77b9d02a2cf0efb', 'naive-weighted25', {}),
    ('naive', 'construction-600-6-3-2'): ('be05538adfff14061deab3508f82c801b27fe3d7d40b575016e613b0e91d9de5', 'naive-weighted25', {}),
    ('naive', 'construction-6000-6-3-3'): ('15ca4f0926bfd0d9c8526b2a4f41fa06ec907da7c9de87ff4dd364dc1d7bd7b7', 'naive-weighted25', {}),
    ('naive', 'weighted25_d5k2-200'): ('ac83bb02f6f460fa4390a976f4f5996a08684508a6509d5f204203e21cc2b8ff', 'naive-weighted25', {}),
    ('naive', 'weighted25_d5k2-3000'): ('0587318958bda56e60d3fe2bda2cc9876c379f0e41556b5383675e31bb9f054a', 'naive-weighted25', {}),
    ('naive', 'weighted35_d6k2-200'): ('b9c9057f5b510275827edaffa08634f377dda3a868b7eacc881ac8117e8a8468', 'naive-weighted25', {}),
    ('naive', 'weighted35_d6k2-3000'): ('8b4b1eef38bc1e3c575e6b8a8b9a8f797c178c8d72f8a5bc6f08262f60a41ee5', 'naive-weighted25', {}),
    ('weighted35', 'construction-2500-6-3-2'): ('cef19f6a1deeaa4726ce8315f025fa4aedc719713041925334c8e0bd4d0d57b0', 'weighted35-fast', {'gammas': [3]}),
    ('weighted35', 'construction-600-6-3-2'): ('560e681d835f9b71bf9b870f285a016cc9f0707c27fbbc80cdd0f437c4e39b89', 'weighted35-fast', {'gammas': [3]}),
    ('weighted35', 'construction-6000-6-3-3'): ('beb7163d3c4c60b58004f611c7e7022568fd276cf6a8f1bd14a046cbaa557286', 'weighted35-fast', {'gammas': [3, 3]}),
    ('weighted35', 'mixed-3000'): ('a17dc6fe8deaccedcc7c8e560c5387fce0d5e54e35891b689ec4bef1cc7d4f95', 'weighted35-fast', {'gammas': [3]}),
    ('weighted35', 'mixed-400'): ('00f47963f4dddf084a6f12ceaad65d0367e679496076fae7f0e1ab5a14dbefe4', 'weighted35-fast', {'gammas': [3]}),
    ('weighted35', 'weighted35_d6k2-200'): ('4166c7c86b66badf8c5e10ffb52de84d397412b96660969fde86e2bd994b71de', 'weighted35-fast', {'gammas': [3]}),
    ('weighted35', 'weighted35_d6k2-3000'): ('68e0aff9cfb82c5fea2c8ab807346de1785f9686ddf26fc2272ea201a1e42c30', 'weighted35-fast', {'gammas': [3]}),
}

DFREE_PINS = {
    ('algorithm_a', 120, 2): 'e06e70413511236fa0d1e6f8d033596434f1a84d23ded852e24ec09786c87f7f',
    ('algorithm_a', 120, 3): '6a653e7b5b58a4bc11709a7e8230520d548a494247c91a0d14a560bac5127a9e',
    ('algorithm_a', 900, 2): '9faeb940972e0e982c5bf66270953cdbb27e50984a8b203e7f4ba1ed5dee9ebc',
    ('algorithm_a', 900, 3): '3e78a05528e94d382fc411a5bc975ce2d8325cdb4e03eb38622423c1c29b3e71',
    ('algorithm_a', 5000, 2): '0312508aadb8cad385acc465397259287f386894e9ab3680d5c213adecd92d0d',
    ('algorithm_a', 5000, 3): 'f4dd320bb2ae88eeac6925c98eeae03855cdbdd294abbae600433805d135e7a6',
    ('fast', 120, 2): '3db0672ef73529a819bd7fe2c391fb9c3922129924cbdf4192a288af186b8e74',
    ('fast', 120, 3): 'a62bcf69cc402b7cd259ba688580c8327eaffa08f84e7146e9605e50675c240b',
    ('fast', 900, 2): '9519d48a5da2bbc15e210fd30ed1c77058ba707f7ddbf0a06c2a84ac3197d2d6',
    ('fast', 900, 3): 'a203107e60ce1e0906c8a5167cd7694c215425eafae520e16cf716468b334bcb',
    ('fast', 5000, 2): '969cbb92103161575633d52f3c76d6aca3ac99c3d5932a93b0fb03ca8038f339',
    ('fast', 5000, 3): 'd511137ac55cf1a9bbdfdb5fc194ae442572903f306573ad7593bc053013e318',
}


@pytest.fixture(scope="module")
def weighted():
    return weighted_table()


@pytest.fixture(scope="module")
def dfree():
    return dfree_table()


def test_weighted_corpus_is_complete(weighted):
    assert set(weighted) == set(WEIGHTED_PINS)


def _pin_id(key):
    """A pin's test id, from its key: ``algorithm_a-120-2``."""
    return "-".join(map(str, key))


@pytest.mark.parametrize("key", sorted(WEIGHTED_PINS), ids=_pin_id)
def test_weighted_trace_pinned(weighted, key):
    assert weighted[key] == WEIGHTED_PINS[key]


@pytest.mark.parametrize("key", sorted(DFREE_PINS), ids=_pin_id)
def test_dfree_solution_pinned(dfree, key):
    assert dfree[key] == DFREE_PINS[key]


@pytest.mark.parametrize("solver", ["naive", "augmented"])
@pytest.mark.parametrize("n", MIXED_SIZES)
def test_single_root_solvers_reject_mixed_components(solver, n):
    # a mixed caterpillar's weight components touch several active nodes:
    # one copied output cannot match all of them (P5), so both solvers
    # refuse instead of returning a labeling the checker rejects
    g, ids = _mixed(n)
    with pytest.raises(ValueError, match="several active-adjacent nodes"):
        SOLVERS[solver](g, ids, 6, 3, 2)


if __name__ == "__main__":
    print("WEIGHTED_PINS = {")
    for key, pin in sorted(weighted_table().items()):
        print(f"    {key!r}: {pin!r},")
    print("}\n\nDFREE_PINS = {")
    for key, pin in sorted(dfree_table().items()):
        print(f"    {key!r}: {pin!r},")
    print("}")
