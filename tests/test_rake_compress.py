"""Tests for the (gamma, ell, L)-decomposition (Definition 71, Lemma 72)."""

import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.rake_compress import (
    Layer,
    RakeCompressLayering,
    gamma_for_k_layers,
    rake_compress,
    validate_decomposition,
)
from repro.constructions import build_lower_bound_graph, caterpillar, random_tree
from repro.families import get_family
from repro.local import Graph, balanced_tree, path_graph


class TestLayerOrdering:
    def test_definition_75_order(self):
        r11 = Layer.rake(1, 1)
        r12 = Layer.rake(1, 2)
        c1 = Layer.compress(1)
        r21 = Layer.rake(2, 1)
        assert r11 < r12 < c1 < r21

    def test_repr(self):
        assert repr(Layer.rake(2, 3)) == "R(2,3)"
        assert repr(Layer.compress(1)) == "C(1)"


class TestDecompositionValidity:
    @pytest.mark.parametrize("gamma,ell", [(1, 3), (2, 4), (3, 2)])
    def test_path(self, gamma, ell):
        dec = rake_compress(path_graph(200), gamma, ell)
        assert not validate_decomposition(dec)

    def test_balanced_tree(self):
        dec = rake_compress(balanced_tree(3, 5), 1, 4)
        assert not validate_decomposition(dec)

    def test_lower_bound_graph(self):
        lb = build_lower_bound_graph([8, 8, 10])
        dec = rake_compress(lb.graph, 2, 3)
        assert not validate_decomposition(dec)

    def test_caterpillar(self):
        dec = rake_compress(caterpillar(50, 2), 1, 3)
        assert not validate_decomposition(dec)

    def test_every_node_assigned(self):
        # both twins: 127 nodes run per node, 1023 as array passes
        for g in (balanced_tree(2, 6), balanced_tree(2, 9)):
            dec = rake_compress(g, 1, 4)
            assert (dec.step >= 0).all()
            assert all(layer is not None for layer in dec.layer_of)

    def test_rejects_cycle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            rake_compress(g, 1, 3)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=150),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_random_trees_property(self, n, gamma, ell, seed):
        g = random_tree(n, 4, random.Random(seed))
        dec = rake_compress(g, gamma, ell)
        issues = validate_decomposition(dec)
        assert not issues, issues[:3]


class TestLayerCounts:
    def test_gamma_one_log_layers(self):
        # Lemma 72: gamma=1 gives O(log n) iterations on bushy trees
        for height in (4, 6, 8):
            g = balanced_tree(2, height)
            dec = rake_compress(g, 1, 4)
            assert dec.num_iterations <= 3 * math.ceil(math.log2(g.n)) + 3

    def test_gamma_poly_constant_layers(self):
        # Lemma 72: gamma ~ n^{1/k} gives <= k+1 iterations
        lb = build_lower_bound_graph([30, 40])
        g = lb.graph
        for k in (2, 3):
            gamma = gamma_for_k_layers(g.n, k, 4)
            dec = rake_compress(g, gamma, 4)
            assert dec.num_iterations <= k + 1, (k, dec.num_iterations)

    def test_compress_needed_on_long_paths(self):
        # a bare path cannot be raked away quickly: compress must fire
        dec = rake_compress(path_graph(100), 1, 4)
        assert dec.compress_paths, "no compress layer used on a long path"

    def test_star_rakes_entirely(self):
        from repro.local import star_graph

        dec = rake_compress(star_graph(10), 1, 4)
        assert not dec.compress_paths


class TestSplitRun:
    def test_chunk_sizes(self):
        from repro.algorithms.rake_compress import _split_run

        for m in range(3, 200):
            chunks, seps = _split_run(list(range(m)), 3)
            assert all(3 <= len(c) <= 6 for c in chunks), (m, [len(c) for c in chunks])
            assert sum(len(c) for c in chunks) + len(seps) == m
            # separators are interior nodes
            assert 0 not in seps and m - 1 not in seps


def _step_rule(layer: Layer, gamma: int) -> int:
    """R(i,j) -> (i-1)(gamma+1) + j - 1, C(i) -> (i-1)(gamma+1) + gamma."""
    base = (layer.i - 1) * (gamma + 1)
    return base + layer.j - 1 if layer.kind == "R" else base + gamma


#: sha256 of the layering's ``[[rounds, labels], ...]`` (compact JSON)
#: over the instances of ``test_step_layer_and_schedule_agree``, as the
#: per-layer loop computed them before layers were recorded as steps.
PINNED_SCHEDULES = {
    (1, 2): "ee19341b7f5ba26c3789590fbd6576185b4a8557a7fa8bbc468ef1e1c80dac1c",
    (2, 2): "a04fdb50ff716df4bf43a2e389f06048f8eb37973348013c5e1f6bbe115244a8",
    (3, 4): "2ca9352c123921305b7f9abc59d2aa62996d89f21dabeb76f884b8c9e87f889c",
}


class TestStepEncoding:
    @pytest.mark.parametrize("gamma,ell", sorted(PINNED_SCHEDULES))
    def test_step_layer_and_schedule_agree(self, gamma, ell):
        schedules = []
        for family in ("path", "random_tree", "caterpillar", "spider",
                       "fragmented_forest"):
            for n in (1, 2, 30, 600):
                g = get_family(family).instance(n, 5, 0)
                dec = rake_compress(g, gamma, ell)
                assert dec.step.dtype.name == "int64"
                assert not dec.step.flags.writeable
                assert dec.step.tolist() == [
                    _step_rule(layer, gamma) for layer in dec.layer_of]
                algorithm = RakeCompressLayering(gamma, ell)
                algorithm.setup(g, g.n)
                rounds, labels = algorithm._rounds(g)
                schedules.append([rounds.tolist(), labels])
        digest = hashlib.sha256(json.dumps(
            schedules, separators=(",", ":")).encode()).hexdigest()
        assert digest == PINNED_SCHEDULES[gamma, ell]

    def test_steps_order_like_layers(self):
        dec = rake_compress(path_graph(300), 2, 3)
        for u in range(0, 300, 7):
            for v in range(0, 300, 11):
                assert dec.is_higher(u, v) == \
                    (dec.layer_of[u] > dec.layer_of[v])

    def test_empty_forest(self):
        dec = rake_compress(Graph(0, []), 1, 2)
        assert dec.layer_of == [] and dec.step.size == 0
