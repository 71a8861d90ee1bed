"""Contour codings: decoded trees and level-sphere combs."""

import itertools
import json

import numpy as np
import pytest

from ultracomb import (ContourFunction, EmptySphereError, ValidationError,
                       comb_distance, sphere_comb_from_contour,
                       tree_from_contour)

from reference_tree import reference_sphere_comb, reference_tree_from_contour


def test_contour_validation():
    with pytest.raises(ValidationError):
        ContourFunction((0.0,), (1.0,), (0.5,))  # negative jump
    with pytest.raises(ValidationError):
        ContourFunction((0.0,), (1.0,), (1.0,))  # zero jump
    with pytest.raises(ValidationError):
        # inconsistent value before the second jump (slope must be -1)
        ContourFunction((0.0, 1.0), (0.0, 3.0), (3.0, 4.0))
    with pytest.raises(ValidationError):
        ContourFunction((1.0, 0.5), (0.0, 0.0), (2.0, 1.0))  # unordered times


def test_contour_evaluation():
    h = ContourFunction.from_jumps([(0.0, 3.0), (1.0, 2.0)])
    assert h.value(0.0) == 3.0
    assert h.value(0.5) == 2.5
    assert h.value(1.0) == 4.0
    assert h.support_end == 5.0
    assert h.value(5.0) == 0.0
    assert h.infimum(0.0, 1.0) == 2.0
    assert h.tree_distance(0.0, 1.0) == 3.0


def test_contour_flat_zero_stretch():
    # path dies at t=1 and restarts at t=2: the infimum in between is 0
    h = ContourFunction.from_jumps([(0.0, 1.0), (2.0, 1.0)])
    assert h.value(1.5) == 0.0
    assert h.infimum(0.5, 2.0) == 0.0


def test_contour_queries_at_jump_times():
    # jumps at 0, 1.25, 2, 5.5 with troughs 1.75, 3.75, 1.5 just before them
    h = ContourFunction((0.0, 1.25, 2.0, 5.5), (0.0, 1.75, 3.75, 1.5),
                        (3.0, 4.5, 5.0, 2.75))
    # cadlag: at a jump time the value is the top of the jump
    assert [h.value(t) for t in h.times] == [3.0, 4.5, 5.0, 2.75]
    assert h.value(-1.0) == 0.0
    # an empty window is the path value itself
    assert [h.infimum(t, t) for t in (0.0, 1.25, 3.0)] == [3.0, 4.5, 4.0]
    # a window starting at a jump excludes that jump's trough; ending at
    # one includes it
    assert h.infimum(1.25, 2.0) == 3.75
    assert h.infimum(0.0, 1.25) == 1.75
    assert h.infimum(1.25, 5.5) == 1.5
    assert h.infimum(2.0, 5.0) == 2.0
    # reversed arguments give the same window
    for s, t in ((1.25, 2.0), (0.0, 1.25), (0.5, 6.0), (2.0, 5.0)):
        assert h.infimum(t, s) == h.infimum(s, t)


def test_contour_json_round_trip():
    h = ContourFunction.from_jumps([(0.0, 3.0), (1.0, 2.0), (2.5, 0.25)])
    assert ContourFunction.from_dict(json.loads(json.dumps(h.to_dict()))) == h


def test_single_jump_tree():
    t = tree_from_contour(ContourFunction.from_jumps([(0.0, 2.5)]))
    assert t.newick() == "(0:2.5);"


def test_two_jump_tree_matches_direct_formula():
    h = ContourFunction.from_jumps([(0.0, 3.0), (1.0, 2.0)])
    t = tree_from_contour(h)
    # grid check of the quotient pseudo-distance at the jump times
    grid = np.linspace(0.0, h.support_end, 100)
    for s in grid:
        assert h.tree_distance(s, s) == 0.0
    assert t.distance("0", "1") == pytest.approx(h.tree_distance(0.0, 1.0))
    assert t.distance("0", "1") == pytest.approx(3.0)
    assert t.leaf_depths() == [3.0, 4.0]


def test_three_leaf_round_trip():
    # contour of a known 3-leaf tree: leaves at depths (4, 3.5, 2), the
    # first two diverging at 1.5, the third at 0.5
    h = ContourFunction((0.0, 2.5, 5.5), (0.0, 1.5, 0.5), (4.0, 3.5, 2.0))
    t = tree_from_contour(h)
    assert t.leaf_depths() == [4.0, 3.5, 2.0]
    assert t.mrca_depth("0", "1") == 1.5
    assert t.mrca_depth("1", "2") == 0.5
    assert t.mrca_depth("0", "2") == 0.5
    # visit order is preserved
    assert t.leaf_labels() == ["0", "1", "2"]


def test_tree_matches_recursive_reference():
    # jump sizes and gaps on a coarse grid give tied troughs, some at 0
    gen = np.random.default_rng(77)
    for _ in range(300):
        k = int(gen.integers(1, 30))
        sizes = gen.choice([0.5, 1.0, 2.0, 3.0], size=k)
        gaps = gen.choice([0.5, 1.0, 2.0, 4.0], size=k)
        h = ContourFunction.from_jumps(list(zip(np.cumsum(gaps).tolist(), sizes.tolist())))
        assert tree_from_contour(h).newick(17) == reference_tree_from_contour(h).newick(17)


def test_deep_contour_tree_without_recursion():
    # every jump overshoots the next gap, so troughs increase: a caterpillar
    n = 5000
    t = tree_from_contour(ContourFunction.from_jumps([(float(i), 2.0) for i in range(n)]))
    assert t.leaf_labels() == [str(i) for i in range(n)]
    assert t.leaf_depths() == [i + 2.0 for i in range(n)]


def test_pseudo_metric_four_point_condition():
    gen = np.random.default_rng(200)
    for _ in range(25):
        k = int(gen.integers(1, 6))
        jumps = sorted(zip(np.cumsum(gen.random(k) * 2), 0.2 + gen.random(k) * 3))
        h = ContourFunction.from_jumps([(float(t), float(s)) for t, s in jumps])
        grid = gen.random(8) * h.support_end
        for x1, x2, x3, x4 in itertools.permutations(grid, 4):
            d = h.tree_distance
            assert d(x1, x2) + d(x3, x4) <= max(
                d(x1, x3) + d(x2, x4), d(x1, x4) + d(x2, x3)) + 1e-12


def test_sphere_comb_triangle_at_level():
    # a single triangle peaking exactly at the level: one visit, no teeth
    h = ContourFunction.from_jumps([(0.0, 2.0)])
    comb = sphere_comb_from_contour(h, 2.0)
    assert comb.n_teeth == 0
    assert comb.interval_length == 1.0


def test_sphere_comb_never_reaches():
    with pytest.raises(EmptySphereError):
        sphere_comb_from_contour(ContourFunction.from_jumps([(0.0, 1.0)]), 5.0)


def test_sphere_comb_trough_depths():
    # three crossings of level 6 with troughs at 4 and 1: teeth (2, 5)
    h = ContourFunction.from_jumps([(0.0, 8.0), (4.0, 3.0), (10.0, 8.0)])
    comb = sphere_comb_from_contour(h, 6.0)
    assert comb.heights.tolist() == [2.0, 5.0]
    assert comb.origin_height == 6.0
    assert comb.interval_length == 3.0


def test_sphere_comb_tangency_counts_as_visit():
    # the second jump lands exactly on the level: a zero-width visit
    h = ContourFunction((0.0, 2.0), (0.0, 2.0), (4.0, 3.0))
    comb = sphere_comb_from_contour(h, 3.0)
    assert comb.n_teeth == 1
    assert comb.heights[0] == 1.0


def test_sphere_comb_merges_visits_without_dip():
    # the trough sits exactly at the level, so the two crossings are the
    # same boundary point (their quotient distance is zero)
    h = ContourFunction((0.0, 2.0), (0.0, 3.0), (5.0, 6.0))
    comb = sphere_comb_from_contour(h, 3.0)
    assert comb.n_teeth == 0
    assert comb.interval_length == 1.0


def test_sphere_comb_matches_contour_distances():
    gen = np.random.default_rng(201)
    for _ in range(50):
        k = int(gen.integers(2, 7))
        times = np.cumsum(gen.random(k) * 1.5)
        sizes = 0.3 + gen.random(k) * 3
        h = ContourFunction.from_jumps(list(zip(map(float, times), map(float, sizes))))
        level = float(0.3 + gen.random() * (max(h.after) - 0.3))
        try:
            comb = sphere_comb_from_contour(h, level)
        except (EmptySphereError, ValidationError):
            continue
        # recover the visit times of the level directly
        visits = []
        for i in range(k):
            seg_end = h.times[i + 1] if i + 1 < k else h.support_end
            bottom = max(h.after[i] - (seg_end - h.times[i]), 0.0)
            if h.after[i] >= level >= bottom:
                visits.append(h.times[i] + (h.after[i] - level))
        kept = [visits[0]]
        for v in visits[1:]:
            if h.infimum(kept[-1], v) < level:
                kept.append(v)
        assert len(kept) == comb.n_teeth + 1
        mids = 0.5 + np.arange(len(kept))
        for i, j in itertools.combinations(range(len(kept)), 2):
            want = 2.0 * (level - h.infimum(kept[i], kept[j]))
            assert comb_distance(comb, mids[i], mids[j]) == pytest.approx(want, rel=1e-12)


def test_sphere_comb_consistent_with_decoded_tree():
    # distances of the level points in the decoded tree equal the comb's
    h = ContourFunction.from_jumps([(0.0, 8.0), (4.0, 3.0), (10.0, 8.0)])
    level = 6.0
    comb = sphere_comb_from_contour(h, level)
    tree = tree_from_contour(h)
    # survivors of the tree at the level: leaves deeper than the level,
    # pairwise distance 2 (level - mrca depth)
    deep = [leaf.label for leaf in tree.leaves() if leaf.depth >= level]
    mids = 0.5 + np.arange(len(deep))
    for i, j in itertools.combinations(range(len(deep)), 2):
        want = 2.0 * (level - tree.mrca_depth(deep[i], deep[j]))
        assert comb_distance(comb, mids[i], mids[j]) == pytest.approx(want)


def test_sphere_comb_rejects_lineages_meeting_at_depth_zero():
    # the path touches 0 between its jumps: two trees, not one comb
    h = ContourFunction.from_jumps([(0.0, 1.0), (2.0, 1.0)])
    with pytest.raises(ValidationError, match="forest"):
        sphere_comb_from_contour(h, 0.5)


def test_sphere_comb_matches_reference():
    # jumps on a coarse grid: ties, tangencies, troughs exactly at the
    # level and touches of 0 all turn up
    gen = np.random.default_rng(202)
    compared = 0
    for _ in range(500):
        k = int(gen.integers(1, 9))
        times = np.cumsum(0.5 * gen.integers(1, 6, k)) - 0.5
        sizes = 0.5 * gen.integers(1, 8, k)
        h = ContourFunction.from_jumps(list(zip(times.tolist(), sizes.tolist())))
        for level in (0.5, 1.0, 1.5, 2.25, 3.0):
            try:
                want = reference_sphere_comb(h, level)
            except ValidationError:
                with pytest.raises(ValidationError):
                    sphere_comb_from_contour(h, level)
                continue
            assert sphere_comb_from_contour(h, level) == want
            compared += 1
    assert compared > 1000
