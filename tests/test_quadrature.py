"""Quadrature building blocks: tensor rules, the pruned tensor Gauss-Hermite rule and the G7K15 pair."""

import itertools

import numpy as np
import pytest

from parabound import verify
from parabound.quadrature import (
    G7_WEIGHTS,
    GK15_NODES,
    GK15_WEIGHTS,
    HERMITE_PRUNE_REL,
    hermite_tensor,
    legendre_rule,
    panel_edges,
    panel_edges_batch,
    pruned_hermite_tensor,
    tensor_nodes,
    tensor_rule,
)
from parabound.solver import _hermite_keys


class TestTensorRule:
    @pytest.mark.parametrize("sizes", [(5,), (3, 4), (2, 5, 3)])
    def test_layout_matches_nested_loops_bitwise(self, sizes):
        rng = np.random.default_rng(len(sizes))
        rules = [(rng.normal(size=m), rng.uniform(0.1, 2.0, m)) for m in sizes]
        nodes, weights = tensor_rule(rules)
        # C order, last axis fastest; each weight multiplied left to right
        expected_nodes, expected_weights = [], []
        for index in itertools.product(*[range(m) for m in sizes]):
            expected_nodes.append([x[i] for (x, _), i in zip(rules, index)])
            weight = rules[0][1][index[0]]
            for (_, w), i in zip(rules[1:], index[1:]):
                weight = weight * w[i]
            expected_weights.append(weight)
        assert nodes.shape == (np.prod(sizes), len(sizes)) and weights.shape == (np.prod(sizes),)
        assert np.array_equal(nodes, expected_nodes)
        assert np.array_equal(weights, expected_weights)
        assert np.array_equal(tensor_nodes([x for x, _ in rules]), nodes)


class TestPrunedHermiteTensor:
    @pytest.mark.parametrize("dim, orders", [(1, (63, 64, 255, 256)), (2, (63, 64, 128)),
                                             (3, (47, 48, 64))])
    def test_kept_set_is_reflection_paired(self, dim, orders):
        for order in orders:
            nodes, weights, _, _ = pruned_hermite_tensor(order, dim)
            assert np.array_equal(nodes, -nodes[::-1])
            assert np.array_equal(weights, weights[::-1])
            if order % 2:
                assert np.array_equal(nodes[len(weights) // 2], np.zeros(dim))

    @pytest.mark.parametrize("dim, order", [(1, 8), (1, 256), (2, 64), (2, 256), (3, 48), (3, 128)])
    def test_dropped_mass_and_moment(self, dim, order):
        full_nodes, full_weights = hermite_tensor(order, dim)
        nodes, weights, mass, moment = pruned_hermite_tensor(order, dim)
        threshold = HERMITE_PRUNE_REL * full_weights.sum()
        drop = full_weights <= threshold
        assert np.all(weights > threshold)
        assert len(weights) + int(drop.sum()) == len(full_weights)
        assert np.array_equal(nodes, full_nodes[~drop])
        # every dropped weight is at most the threshold, so D <= threshold x count
        assert mass <= threshold * max(int(drop.sum()), 1)
        assert mass == pytest.approx(float(full_weights[drop].sum()), rel=1e-12, abs=0.0)
        radius = np.linalg.norm(full_nodes[drop], axis=1)
        assert moment == pytest.approx(float(full_weights[drop] @ radius), rel=1e-12, abs=0.0)
        assert weights.sum() + mass == pytest.approx(np.pi ** (dim / 2.0), rel=1e-13)
        if order == 8:
            assert mass == 0.0 and moment == 0.0 and len(weights) == order**dim

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_pruning_the_full_tensor_bitwise(self, dim):
        for order in _hermite_keys(dim):
            # the full rule uncached, so the test leaves no large tensor behind
            full_nodes, full_weights = hermite_tensor.__wrapped__(order, dim)
            drop = full_weights <= HERMITE_PRUNE_REL * full_weights.sum()
            nodes, weights, mass, moment = pruned_hermite_tensor(order, dim)
            assert np.array_equal(nodes, full_nodes[~drop])
            assert np.array_equal(weights, full_weights[~drop])
            radius = np.sqrt(np.einsum("ij,ij->i", full_nodes[drop], full_nodes[drop]))
            assert mass == pytest.approx(float(full_weights[drop].sum()), rel=1e-14, abs=0.0)
            assert moment == pytest.approx(float(full_weights[drop] @ radius), rel=1e-14, abs=0.0)

    def test_builds_no_full_tensor(self):
        hermite_tensor.cache_clear()
        pruned_hermite_tensor.cache_clear()
        pruned_hermite_tensor(128, 3)
        assert hermite_tensor.cache_info().currsize == 0

    def test_oracles_keep_the_full_rule(self):
        assert verify.hermite_tensor is hermite_tensor
        assert not hasattr(verify, "pruned_hermite_tensor")


class TestGaussKronrod:
    def test_exact_to_its_degree(self):
        # K15 integrates monomials exactly to degree 3 * 7 + 1 = 22, G7 to 13
        for degree in range(24):
            exact = (1.0 - (-1.0) ** (degree + 1)) / (degree + 1)
            powers = GK15_NODES**degree
            assert GK15_WEIGHTS @ powers == pytest.approx(exact, abs=1e-15)
            if degree <= 13:
                assert G7_WEIGHTS @ powers == pytest.approx(exact, abs=1e-15)
        assert abs(GK15_WEIGHTS @ GK15_NODES**24 - 2.0 / 25) > 1e-12
        assert abs(G7_WEIGHTS @ GK15_NODES**14 - 2.0 / 15) > 1e-6

    def test_gauss_part_is_gauss_legendre_7(self):
        nodes, weights = legendre_rule(7)
        gauss = G7_WEIGHTS != 0.0
        assert np.count_nonzero(gauss) == 7
        assert np.allclose(GK15_NODES[gauss], nodes, rtol=0.0, atol=4e-16)
        assert np.allclose(G7_WEIGHTS[gauss], weights, rtol=0.0, atol=4e-16)
        assert np.array_equal(GK15_NODES, -GK15_NODES[::-1])
        assert np.array_equal(GK15_WEIGHTS, GK15_WEIGHTS[::-1])


def _edges_one_by_one(lo, hi, kinks, base_panels, levels):
    """The graded edges of one interval, kink by kink, as np.unique of all points."""
    width = hi - lo
    steps = width * 0.5 ** np.arange(1, levels + 1)
    edges = [np.linspace(lo, hi, base_panels + 1)]
    for kink in kinks:
        if lo < kink < hi:
            graded = np.concatenate([[kink], kink - steps, kink + steps])
            edges.append(graded[(graded > lo) & (graded < hi)])
    edges = np.unique(np.concatenate(edges))
    return edges[np.concatenate([[True], np.diff(edges) > 1e-15 * width])]


class TestPanelEdges:
    def test_batch_matches_interval_by_interval_bitwise(self):
        # kinks inside, outside, at an end, repeated, and none; widths from 1e-9 to 1e3
        rng = np.random.default_rng(5)
        for base_panels, levels in ((32, 44), (4, 24)):
            lo = rng.normal(size=40) * 10.0 ** rng.integers(-6, 3, 40)
            hi = lo + 10.0 ** rng.uniform(-9, 3, 40)
            kinks = [tuple(l + (h - l) * rng.uniform(-0.3, 1.3, rng.integers(0, 4)))
                     for l, h in zip(lo, hi)]
            kinks[0], kinks[1], kinks[2] = (), (lo[1], hi[1]), (kinks[3] + kinks[3])
            edges, counts = panel_edges_batch(lo, hi, kinks, base_panels, levels)
            parts = np.split(edges, np.cumsum(counts)[:-1])
            for part, l, h, at in zip(parts, lo, hi, kinks):
                expected = _edges_one_by_one(l, h, at, base_panels, levels)
                assert np.array_equal(part, expected)
                assert np.array_equal(panel_edges(l, h, at, base_panels, levels), expected)

    def test_empty_interval(self):
        with pytest.raises(ValueError, match="empty panel interval"):
            panel_edges_batch([0.0, 1.0], [1.0, 1.0], [(), ()])
