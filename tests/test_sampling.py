"""Samplers: determinism, distributional oracles, reductions."""

import json
import math

import numpy as np
import pytest
from scipy import stats

from ultracomb import (BoundaryPoint, Comb, ExponentialLifetime, FixedLifetime,
                       Immortal, IntensityModel, PopulationModel, RandomSource, ResourceError,
                       Tree, TreeNode, ValidationError, comb_distance, padic_comb,
                       parse_newick, reduce_population_tree, rescale_comb,
                       sample_cpp, sample_cpp_fixed_width, sample_kingman_comb,
                       sample_splitting_tree, solve_scale_function,
                       unrescale_comb)
from ultracomb.sampling import _distinct_uniforms

from reference_tree import (reference_reduce_population_tree,
                            reference_sample_splitting_tree)


def test_seed_determinism_byte_identical():
    a = sample_kingman_comb(200, RandomSource(77))
    b = sample_kingman_comb(200, RandomSource(77))
    assert a == b and json.dumps(a.to_dict()) == json.dumps(b.to_dict())
    c1 = sample_cpp(IntensityModel.brownian(), 1.0, 0.01, RandomSource(5))
    c2 = sample_cpp(IntensityModel.brownian(), 1.0, 0.01, RandomSource(5))
    assert c1.comb == c2.comb and c1.killing_height == c2.killing_height


def test_spawned_streams_differ():
    root = RandomSource(9)
    a = sample_kingman_comb(50, root.spawn(1))
    b = sample_kingman_comb(50, root.spawn(2))
    assert a != b
    # distinct (seed, replicate) pairs never share a stream, across seeds too
    for (s1, r1), (s2, r2) in [((7, 1), (6, 0)), ((0, 1), (1, 0)), ((3, 4), (7, 0))]:
        x = sample_kingman_comb(50, RandomSource(s1).spawn(r1))
        assert x != sample_kingman_comb(50, RandomSource(s2).spawn(r2))
    assert sample_kingman_comb(50, root.spawn(0)) != sample_kingman_comb(50, RandomSource(9))
    firsts = {RandomSource(s).spawn(r).gen.integers(2**63) for s in range(16) for r in range(16)}
    assert len(firsts) == 256


def test_spawn_only_from_a_root():
    sub = RandomSource(9).spawn(3)
    assert (sub.seed, sub.replicate) == (9, 3)
    with pytest.raises(ValidationError, match="cannot spawn"):
        sub.spawn(0)
    with pytest.raises(ValidationError):
        RandomSource(9).spawn(-1)


def test_seed_must_be_an_integer():
    assert RandomSource(np.uint64(2**63)).seed == 2**63
    for seed in (True, 1.0, 1.5, "1", None):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            RandomSource(seed)


def test_replicate_index_must_be_an_integer():
    # a fractional index would otherwise alias another replicate's stream
    root = RandomSource(3)
    assert root.spawn(np.int32(2)).gen.random() == root.spawn(2).gen.random()
    for index in (True, 2.7, 2.0, "2"):
        with pytest.raises(ValidationError, match="replicate index must be an integer"):
            root.spawn(index)


# ----------------------------------------------------------------------
# exchangeable-coalescent comb

class Draws:
    """A generator stub whose ``random`` returns the given draws in turn."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, size):
        return np.array(self.draws.pop(0), dtype=float)


def test_distinct_uniforms_redraws_collisions_and_returns_the_sort_order():
    gen = Draws([0.5, 0.5, 0.25], [0.0, 0.75, 0.5], [0.75, 0.25, 0.5])
    positions, marks = _distinct_uniforms(gen, 3, 2.0, np.array([10, 20, 30]))
    assert positions.tolist() == [0.5, 1.0, 1.5] and marks.tolist() == [20, 30, 10]
    assert not gen.draws
    # without marks, the same draws give the same sorted positions
    gen = Draws([0.5, 0.5, 0.25], [0.0, 0.75, 0.5], [0.75, 0.25, 0.5])
    assert [a.tolist() for a in _distinct_uniforms(gen, 3, 2.0)] == [[0.5, 1.0, 1.5]]
    assert [a.size for a in _distinct_uniforms(Draws(), 0, 1.0, np.empty(0))] == [0, 0]
    with pytest.raises(ResourceError, match="^could not draw distinct interior positions$"):
        _distinct_uniforms(Draws(*[[0.5, 0.5]] * 8), 2, 1.0)


def test_kingman_tooth_count_must_be_an_integer():
    assert sample_kingman_comb(np.int64(10), RandomSource(1)) == sample_kingman_comb(10, RandomSource(1))
    for n_teeth in (10.5, 10.0, True):
        with pytest.raises(ValidationError, match="n_teeth must be an integer"):
            sample_kingman_comb(n_teeth, RandomSource(1))


def test_kingman_heights_strictly_decreasing():
    rng = RandomSource(11)
    for i in range(50):
        c = sample_kingman_comb(30, rng.spawn(i))
        ranked = np.sort(c.heights)[::-1]
        assert np.all(np.diff(ranked) < 0)
        assert c.origin_height == ranked[0] + 1.0
        assert c.interval_length == 1.0


def test_kingman_mean_depths():
    # the analytic tail handling makes E of the j-th tallest exactly 2/j
    reps, n = 4000, 400
    rng = RandomSource(12)
    tops = np.empty((reps, 4))
    for i in range(reps):
        c = sample_kingman_comb(n, rng.spawn(i))
        tops[i] = np.sort(c.heights)[::-1][:4]
    for j in (1, 4):
        want = 2.0 / j
        got = tops[:, j - 1].mean()
        assert abs(got - want) / want < 0.03


def test_kingman_pair_distance_is_double_exponential():
    # two uniform points coalesce at an Exp(1) depth, distance twice that
    reps = 3000
    rng = RandomSource(13)
    dist = np.empty(reps)
    for i in range(reps):
        sub = rng.spawn(i)
        c = sample_kingman_comb(500, sub)
        u, v = sub.gen.random(2)
        dist[i] = comb_distance(c, u, v)
    assert abs(dist.mean() - 2.0) < 0.08
    assert stats.kstest(dist / 2.0, "expon").pvalue > 0.01


def test_kingman_three_point_topologies_uniform():
    # each labelled three-leaf topology within 2% (relative) of 1/3
    reps = 20_000
    rng = RandomSource(14)
    wins = np.zeros(3)
    for i in range(reps):
        sub = rng.spawn(i)
        c = sample_kingman_comb(300, sub)
        pts = sub.gen.random(3)
        d = [comb_distance(c, pts[1], pts[2]),
             comb_distance(c, pts[0], pts[2]),
             comb_distance(c, pts[0], pts[1])]
        wins[int(np.argmin(d))] += 1
    assert np.all(np.abs(wins / reps - 1 / 3) * 3 < 0.02)


# ----------------------------------------------------------------------
# coalescent point processes

def test_cpp_mean_width_brownian():
    # tail 1/(2x) at the horizon T gives mean width 2T
    reps = 4000
    rng = RandomSource(15)
    widths = [sample_cpp(IntensityModel.brownian(), 1.0, 0.05, rng.spawn(i)).width
              for i in range(reps)]
    assert abs(np.mean(widths) - 2.0) < 0.1


def test_cpp_width_is_exponential():
    reps = 2000
    rng = RandomSource(16)
    widths = [sample_cpp(IntensityModel.critical_bd(), 1.0, 0.0, rng.spawn(i)).width
              for i in range(reps)]
    assert stats.kstest(np.asarray(widths) / 2.0, "expon").pvalue > 0.01


def test_cpp_teeth_density_finite_intensity():
    # finite intensity allows eps = 0; teeth per unit width is
    # tail(0) - tail(T) = 1 - 1/(1+T)
    reps = 10_000
    rng = RandomSource(17)
    teeth, width = 0, 0.0
    for i in range(reps):
        s = sample_cpp(IntensityModel.critical_bd(), 1.0, 0.0, rng.spawn(i))
        teeth += s.comb.n_teeth
        width += s.width
    assert abs(teeth / width - 0.5) < 0.02


def test_cpp_height_tail_matches_conditioned_intensity():
    model = IntensityModel.brownian()
    horizon, eps = 1.0, 0.05
    rng = RandomSource(18)
    heights = []
    i = 0
    while len(heights) < 10_000:
        heights.extend(sample_cpp(model, horizon, eps, rng.spawn(i)).comb.heights)
        i += 1
    nu_e, nu_t = model.tail(eps), model.tail(horizon)

    def cdf(x):
        x = np.clip(np.asarray(x, dtype=float), eps, horizon)
        return (nu_e - model.tail(x)) / (nu_e - nu_t)

    assert stats.kstest(np.asarray(heights), cdf).pvalue > 0.01


def test_cpp_heights_below_horizon_and_killing_above():
    rng = RandomSource(19)
    for i in range(200):
        s = sample_cpp(IntensityModel.critical_bd(), 0.8, 0.0, rng.spawn(i))
        assert s.killing_height > 0.8
        if s.comb.n_teeth:
            assert s.comb.heights.max() < 0.8


def test_cpp_grid_model_killing_unresolved():
    sol = solve_scale_function(PopulationModel.yule(1.0), 1.0, 200)
    s = sample_cpp(sol.intensity_model(), 1.0, 0.0, RandomSource(20))
    assert s.killing_height == math.inf


def test_cpp_horizon_past_support_top_is_rejected_before_any_draw():
    # a grid model's tail is known only up to its horizon
    model = solve_scale_function(PopulationModel.yule(1.0), 1.0, 200).intensity_model()
    rng = RandomSource(20)
    for horizon in (1.0 + 1e-12, 3.0):
        with pytest.raises(ValidationError, match="support top"):
            sample_cpp(model, horizon, 0.0, rng)
    assert rng.gen.random() == RandomSource(20).gen.random()


def test_cpp_infinite_intensity_needs_eps():
    with pytest.raises(ValidationError):
        sample_cpp(IntensityModel.brownian(), 1.0, 0.0, RandomSource(21))


def test_cpp_fixed_width_window():
    rng = RandomSource(22)
    comb = sample_cpp_fixed_width(IntensityModel.critical_bd(), 7.5, 0.0, rng)
    assert comb.interval_length == 7.5
    assert comb.origin_height > comb.heights.max()


# ----------------------------------------------------------------------
# p-adic combs

def test_padic_tooth_count():
    assert padic_comb(3, 2).n_teeth == 8
    assert padic_comb(2, 4).n_teeth == 15
    with pytest.raises(ValidationError):
        padic_comb(1, 3)
    with pytest.raises(ValidationError):
        padic_comb(3, 60)
    assert padic_comb(np.int64(3), np.int32(2)) == padic_comb(3, 2)
    for p, depth in ((2.5, 2), (3.0, 2), (3, 2.0), (True, 2), (3, True), ("3", 2)):
        with pytest.raises(ValidationError, match="must be an integer"):
            padic_comb(p, depth)


def test_triadic_figure_distances():
    c = padic_comb(3, 4)
    white = 93 / 162   # a point of the (1,2,0,1) interval
    black = 121 / 162  # (2,0,2,0)
    grey = 125 / 162   # (2,0,2,2)
    assert comb_distance(c, white, black) == 1 / 3
    assert comb_distance(c, white, grey) == 1 / 3
    assert comb_distance(c, black, grey) == 1 / 81


def test_dyadic_faces_distance():
    c = padic_comb(2, 5)
    d = comb_distance(c, BoundaryPoint(5 / 8, "left"), BoundaryPoint(5 / 8, "right"))
    assert d == 1 / 8


# ----------------------------------------------------------------------
# splitting trees

def test_single_survivor_reduces_to_bare_comb():
    # a fast-dying population conditioned on survival usually keeps one line
    rng = RandomSource(23)
    for i in range(100):
        tree = sample_splitting_tree(0.05, ExponentialLifetime(3.0), 1.0, rng.spawn(i))
        comb = reduce_population_tree(tree, 1.0)
        assert comb.origin_height == 1.0
        if comb.interval_length == 1.0:
            assert comb.n_teeth == 0
            break
    else:
        pytest.fail("never saw a single-survivor genealogy")


def test_survivor_count_geometric():
    # killed-width discretization: survivor count is geometric with
    # success 1/W(T) = e^{-bT} for the pure-birth case
    reps = 4000
    rng = RandomSource(24)
    counts = np.array([reduce_population_tree(
        sample_splitting_tree(1.0, Immortal(), 1.0, rng.spawn(i)), 1.0).interval_length
        for i in range(reps)], dtype=int)
    p = math.exp(-1.0)
    assert abs(counts.mean() - math.e) < 0.1
    ks = np.arange(1, 9)
    pmf = p * (1 - p) ** (ks - 1)
    emp = np.array([(counts == k).mean() for k in ks])
    assert np.abs(emp - pmf).max() < 0.02


def test_reduction_matches_solved_intensity():
    # the two routes to the pure-birth genealogy agree in law
    rng = RandomSource(25)
    reduced = []
    i = 0
    while len(reduced) < 3000:
        tree = sample_splitting_tree(1.0, Immortal(), 1.0, rng.spawn(i))
        reduced.extend(reduce_population_tree(tree, 1.0).heights)
        i += 1
    model = solve_scale_function(PopulationModel.yule(1.0), 1.0, 4000).intensity_model()
    nu0, nuT = model.tail(0.0), model.tail(1.0)

    def cdf(x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return (nu0 - model.tail(x)) / (nu0 - nuT)

    assert stats.kstest(np.asarray(reduced), cdf).pvalue > 0.01


def test_reduce_requires_survivors():
    rng = RandomSource(26)
    tree = sample_splitting_tree(1.0, Immortal(), 1.0, rng)
    with pytest.raises(ValidationError):
        reduce_population_tree(tree, 5.0)  # nothing reaches that horizon


def _reduce_or_none(reduce, tree, level):
    try:
        return reduce(tree, level)
    except ValidationError:
        return None


@pytest.mark.parametrize("birth_rate,lifetime,horizon", [
    (0.5, ExponentialLifetime(1.0), 3.0),   # subcritical
    (1.0, ExponentialLifetime(1.0), 3.0),   # critical
    (1.0, Immortal(), 2.0),                 # pure birth
    (2.0, FixedLifetime(1.0), 2.0),         # supercritical, deaths at a fixed age
])
def test_splitting_tree_matches_reference(birth_rate, lifetime, horizon):
    # same draws, same tree to the last bit, same reduced combs
    root = RandomSource(31)
    for i in range(250):
        tree = sample_splitting_tree(birth_rate, lifetime, horizon, root.spawn(i))
        want = reference_sample_splitting_tree(birth_rate, lifetime, horizon, root.spawn(i))
        assert tree.newick(17) == want.newick(17)
        for level in (horizon, 0.7 * horizon, 0.25 * horizon):
            got = _reduce_or_none(reduce_population_tree, tree, level)
            ref = _reduce_or_none(reference_reduce_population_tree, want, level)
            assert (got is None and ref is None) or got == ref


def _random_grid_tree(gen) -> Tree:
    # depths on a coarse grid, so ties, zero-length edges, multifurcations
    # and nodes exactly at a level all turn up; most trees grow from a
    # stem, the others split at the root
    root = TreeNode(depth=0.0)
    if gen.random() < 0.8:
        root.children.append(TreeNode(depth=0.5))
    frontier, n_nodes = list(root.children) or [root], 1
    while frontier:
        node = frontier.pop(int(gen.integers(len(frontier))))
        if n_nodes > 30 or gen.random() < 0.2:
            continue
        for _ in range(int(gen.integers(2, 4))):
            child = TreeNode(depth=node.depth + 0.5 * int(gen.integers(0, 4)))
            node.children.append(child)
            frontier.append(child)
            n_nodes += 1
    view = Tree(root).nodes()  # label the leaves of a view, in planar order
    for k, leaf in enumerate(node for node in view if node.is_leaf):
        leaf.label = f"L{k}"
    return parse_newick(Tree(view[0]).newick(17))


def test_reduce_parsed_trees_matches_reference():
    gen = np.random.default_rng(32)
    compared = 0
    for _ in range(500):
        tree = _random_grid_tree(gen)
        for level in (0.5, 1.0, 1.5, 2.0, 2.75):
            got = _reduce_or_none(reduce_population_tree, tree, level)
            ref = _reduce_or_none(reference_reduce_population_tree, tree, level)
            assert (got is None and ref is None) or got == ref
            compared += got is not None
    assert compared > 1000


def test_reduce_rejects_lineages_meeting_at_root():
    with pytest.raises(ValidationError, match="forest"):
        reduce_population_tree(parse_newick("(A:1,B:1);"), 0.5)


def test_reduce_deep_tree_without_recursion():
    # a 5000-level caterpillar: each spine node sheds one leaf above the level
    levels, top = 5000, 2.0
    root = TreeNode(depth=0.0)
    node = root
    spine = [(k + 1) / (levels + 1) for k in range(levels)]
    for depth in spine:
        child = TreeNode(depth=depth)
        node.children.append(child)
        node = child
        node.children.append(TreeNode(depth=top))
    node.children.append(TreeNode(depth=top))
    comb = reduce_population_tree(Tree(root), 1.0)
    want = Comb(levels + 1.0, 1.0, np.arange(1, levels + 1, dtype=float), 1.0 - np.asarray(spine))
    assert comb == want


def test_splitting_tree_rejects_nonfinite_horizon():
    for horizon in (math.nan, math.inf, 0.0):
        with pytest.raises(ValidationError, match="horizon"):
            sample_splitting_tree(0.5, Immortal(), horizon, RandomSource(33))


# ----------------------------------------------------------------------
# rescaling

def test_rescale_identity_at_one():
    gen = np.random.default_rng(400)
    from conftest import random_comb
    c = random_comb(gen, min_teeth=2, interval=1.0)
    assert rescale_comb(c, 1.0) == c


def test_rescale_round_trip_exact_dyadic():
    # a power-of-two eps makes the float scaling exact
    rng = RandomSource(27)
    c = sample_kingman_comb(500, rng)
    eps = 2.0 ** -6
    back = unrescale_comb(rescale_comb(c, eps), eps)
    keep = c.positions < eps
    assert np.array_equal(back.positions, c.positions[keep])
    assert np.array_equal(back.heights, c.heights[keep])


def test_rescaled_kingman_tooth_counts():
    # zooming into [0, eps] at scale 1/eps: mean count of teeth above h
    # approaches 2/h, the small-scale coalescent-point-process intensity
    reps, eps = 600, 1e-3
    rng = RandomSource(28)
    counts = {0.5: 0, 1.0: 0}
    for i in range(reps):
        c = rescale_comb(sample_kingman_comb(6000, rng.spawn(i)), eps)
        for h in counts:
            counts[h] += int((c.heights > h).sum())
    for h, total in counts.items():
        assert abs(total / reps - 2.0 / h) / (2.0 / h) < 0.15
