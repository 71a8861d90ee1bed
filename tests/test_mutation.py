"""Mutation scattering, clades, allelic assignment, clonal sets."""

import itertools
import json
import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from ultracomb import (ClonalSet, Comb, IntensityModel, MutationMeasure,
                       MutationSet, ORIGIN_BRANCH, RandomSource, ValidationError,
                       assign_alleles, clonal_laplace_exponent, clonal_set,
                       sample_cpp_fixed_width, scatter_mutations)

from conftest import random_comb

EXAMPLE = Comb(1.0, 4.0, [0.2, 0.5, 0.8], [3.0, 1.0, 2.0])


def lineage_walk_allele(comb, mutations, t):
    """Independent oracle: walk the lineage of t through the teeth left
    of it in decreasing position order, keeping atoms whose depth beats
    the running maximum, then take the shallowest."""
    idx = int(np.searchsorted(comb.positions, t, side="right"))
    atoms = list(enumerate(zip(mutations.branch.tolist(), mutations.depth.tolist())))
    best, best_depth = None, math.inf
    running = 0.0
    for k in range(idx - 1, -1, -1):
        for i, (branch, depth) in atoms:
            if branch == k and depth >= running and depth < best_depth:
                best, best_depth = i, depth
        running = max(running, float(comb.heights[k]))
    for i, (branch, depth) in atoms:
        if branch == ORIGIN_BRANCH and depth >= running and depth < best_depth:
            best, best_depth = i, depth
    return best


# ----------------------------------------------------------------------
# measures and scattering

def test_mutation_measure_validation():
    MutationMeasure.homogeneous(2.0).validate_on([0.1, 1.0, 3.0])
    with pytest.raises(ValidationError):
        MutationMeasure.homogeneous(-1.0)


def test_zero_rate_scatters_nothing():
    ms = scatter_mutations(EXAMPLE, MutationMeasure.homogeneous(0.0), True, RandomSource(1))
    assert len(ms) == 0


def test_scatter_mean_count():
    # Poisson masses add: heights (1,2,3) plus origin 4 give mean 10
    comb = Comb(1.0, 4.0, [0.25, 0.5, 0.75], [1.0, 2.0, 3.0])
    rng = RandomSource(2)
    total = sum(len(scatter_mutations(comb, MutationMeasure.homogeneous(1.0), True,
                                      rng.spawn(i))) for i in range(4000))
    assert abs(total / 4000 - 10.0) / 10.0 < 0.03


def test_scatter_depths_uniform_on_branch():
    # with the constant clock, depths on a height-2 branch are Uniform(0, 2)
    comb = Comb(1.0, 3.0, [0.5], [2.0])
    rng = RandomSource(3)
    depths = []
    for i in range(3000):
        ms = scatter_mutations(comb, MutationMeasure.homogeneous(1.0), False, rng.spawn(i))
        depths.extend(ms.depth.tolist())
    assert stats.kstest(np.asarray(depths) / 2.0, "uniform").pvalue > 0.01


def test_scatter_origin_flag():
    comb = Comb(1.0, 50.0, [0.5], [0.01])
    rng = RandomSource(4)
    with_origin = scatter_mutations(comb, MutationMeasure.homogeneous(1.0), True, rng)
    assert np.any(with_origin.branch == ORIGIN_BRANCH)
    without = scatter_mutations(comb, MutationMeasure.homogeneous(1.0), False, rng)
    assert np.all(without.branch != ORIGIN_BRANCH)


def test_scatter_rejects_infinite_origin_mass():
    comb = Comb(1.0, 2.0, [0.5], [1.0])
    unbounded = MutationMeasure(
        lambda t: np.where(np.asarray(t) >= 2.0, np.inf, np.asarray(t, dtype=float)),
        lambda y: y)
    with pytest.raises(ValidationError):
        scatter_mutations(comb, unbounded, True, RandomSource(5))
    # excluding the origin keeps the finite tooth masses usable
    scatter_mutations(comb, unbounded, False, RandomSource(5))


def test_scatter_never_rains_on_zero_mass_branches():
    # no mass below depth 1: teeth of height <= 1, the last one too, carry nothing
    late = MutationMeasure(lambda t: np.maximum(np.asarray(t, dtype=float) - 1.0, 0.0),
                           lambda y: 1.0 + np.asarray(y, dtype=float))
    comb = Comb(1.0, 4.0, [0.1, 0.3, 0.5, 0.7, 0.9], [0.5, 2.0, 1.0, 3.0, 0.8])
    rng = RandomSource(21)
    branches = []
    for i in range(500):
        ms = scatter_mutations(comb, late, i % 2 == 0, rng.spawn(i))
        assert np.all(ms.depth > 1.0)
        branches.extend(ms.branch.tolist())
    assert set(branches) == {ORIGIN_BRANCH, 1, 3}


def test_scatter_splits_atoms_by_branch_mass():
    # masses: teeth 1, 2, 3 and origin 4, so atoms split 1:2:3:4
    comb = Comb(1.0, 4.0, [0.25, 0.5, 0.75], [1.0, 2.0, 3.0])
    rng = RandomSource(22)
    counts = np.zeros(4)
    for i in range(2000):
        branch = scatter_mutations(comb, MutationMeasure.homogeneous(1.0), True,
                                   rng.spawn(i)).branch
        counts += np.bincount(np.where(branch == ORIGIN_BRANCH, 3, branch), minlength=4)
    expected = counts.sum() * np.array([0.1, 0.2, 0.3, 0.4])
    assert stats.chisquare(counts, expected).pvalue > 0.01


def test_scatter_on_toothless_comb_rains_on_origin_only():
    comb = Comb(1.0, 2.0)
    rng = RandomSource(23)
    sets = [scatter_mutations(comb, MutationMeasure.homogeneous(1.0), True, rng.spawn(i))
            for i in range(200)]
    assert sum(map(len, sets)) > 0
    for ms in sets:
        assert np.all(ms.branch == ORIGIN_BRANCH)
        ms.validate_for(comb)
    assert len(scatter_mutations(comb, MutationMeasure.homogeneous(1.0), False, rng)) == 0


def test_mutation_set_rejects_duplicates_and_bad_atoms():
    with pytest.raises(ValidationError):
        MutationSet([0, 0], [0.5, 0.5])
    ms = MutationSet([0], [3.5])
    with pytest.raises(ValidationError):
        ms.validate_for(EXAMPLE)  # depth above the branch height
    with pytest.raises(ValidationError):
        MutationSet([7], [0.5]).validate_for(EXAMPLE)


def test_mutation_json_round_trip():
    ms = MutationSet([ORIGIN_BRANCH, 0, 2], [3.5, 1.25, 0.5])
    assert MutationSet.from_list(json.loads(json.dumps(ms.to_list()))) == ms
    assert ms.to_list()[0]["branch"] == "origin"


@pytest.mark.parametrize("branch", [2 ** 63, 1.7, True, "1"])
def test_mutation_document_branch_must_be_an_int64_index(branch):
    doc = json.loads(json.dumps([{"branch": branch, "depth": 0.5}]))
    with pytest.raises(ValidationError, match="^malformed mutation document: branch"):
        MutationSet.from_list(doc)
    assert MutationSet.from_list([{"branch": 2 ** 63 - 1, "depth": 0.5}]).branch[0] == 2 ** 63 - 1


# ----------------------------------------------------------------------
# clades

def clade(comb, branch, depth):
    """The carrier interval [start, end) of one atom."""
    start, end = MutationSet([branch], [depth]).clade_bounds(comb)
    return start.item(), end.item()


def test_clade_spec_example():
    start, end = clade(EXAMPLE, 1, 0.7)
    assert (start, end) == (0.5, 0.8)
    assert end - start == pytest.approx(0.3)


def test_origin_clade_above_all_teeth_is_everything():
    assert clade(EXAMPLE, ORIGIN_BRANCH, 3.5) == (0.0, 1.0)


def test_clades_are_laminar():
    gen = np.random.default_rng(500)
    rng = RandomSource(6)
    for i in range(200):
        c = random_comb(gen, min_teeth=1, max_teeth=10)
        ms = scatter_mutations(c, MutationMeasure.homogeneous(2.0), True, rng.spawn(i))
        start, end = ms.clade_bounds(c)
        spans = list(zip(start.tolist(), end.tolist()))
        for (s1, e1), (s2, e2) in itertools.combinations(spans, 2):
            disjoint = e1 <= s2 or e2 <= s1
            nested = (s1 <= s2 and e2 <= e1) or (s2 <= s1 and e1 <= e2)
            assert disjoint or nested


# ----------------------------------------------------------------------
# allelic assignment

def test_assign_no_mutations_single_clonal_block():
    part, labels = assign_alleles(EXAMPLE, MutationSet([], []), [0.1, 0.4, 0.9])
    assert len(part.blocks) == 1 and labels == [None, None, None]


def test_assign_single_origin_mutation_single_block():
    part, labels = assign_alleles(EXAMPLE, MutationSet([ORIGIN_BRANCH], [3.5]),
                                  [0.1, 0.4, 0.9])
    assert len(part.blocks) == 1 and labels == [0, 0, 0]


def test_assign_nested_clades():
    # outer mutation on the origin above all teeth, inner on the middle
    # tooth: inner positions take the inner allele, the annulus the outer
    ms = MutationSet([ORIGIN_BRANCH, 1], [3.5, 0.7])
    _, labels = assign_alleles(EXAMPLE, ms, [0.1, 0.6, 0.9])
    inner = list(zip(ms.branch.tolist(), ms.depth.tolist())).index((1, 0.7))
    outer = 1 - inner
    assert labels == [outer, inner, outer]


def test_assign_rejects_positions_outside_the_interval():
    ms = MutationSet([1], [0.7])
    for pts in ([0.1, float("nan")], [float("nan")], [-0.1, 0.5], [1.5]):
        with pytest.raises(ValidationError, match="outside"):
            assign_alleles(EXAMPLE, ms, pts)


def test_assign_matches_lineage_walk_oracle():
    gen = np.random.default_rng(501)
    rng = RandomSource(7)
    for i in range(300):
        c = random_comb(gen, min_teeth=0, max_teeth=10)
        ms = scatter_mutations(c, MutationMeasure.homogeneous(3.0), bool(i % 2),
                               rng.spawn(i))
        pts = gen.random(10) * c.interval_length
        _, labels = assign_alleles(c, ms, pts)
        for t, lab in zip(pts, labels):
            assert lab == lineage_walk_allele(c, ms, t)


def test_assign_blocks_partition_sample():
    gen = np.random.default_rng(502)
    rng = RandomSource(8)
    for i in range(50):
        c = random_comb(gen, min_teeth=1, max_teeth=8)
        ms = scatter_mutations(c, MutationMeasure.homogeneous(1.0), True, rng.spawn(i))
        pts = gen.random(12) * c.interval_length
        part, _ = assign_alleles(c, ms, pts)
        assert part.n == 12


# ----------------------------------------------------------------------
# clonal sets

def test_clonal_set_trivial_cases():
    assert clonal_set(EXAMPLE, MutationSet([], [])).intervals == ((0.0, 1.0),)
    cs = clonal_set(EXAMPLE, MutationSet([1], [0.7]))
    assert cs.intervals == ((0.0, 0.5), (0.8, 1.0))
    assert cs.total_measure == pytest.approx(0.7)
    assert cs.contains(0.3) and not cs.contains(0.6)
    assert cs.covers(0.0, 0.5) and not cs.covers(0.4, 0.6)


def test_clonal_set_queries_at_interval_ends():
    cs = ClonalSet(((0.25, 0.5), (0.75, 1.0)))
    # right-open intervals: a start is inside, an end is outside
    assert cs.contains(0.25) and cs.contains(0.75)
    assert not cs.contains(0.5) and not cs.contains(1.0)
    assert not cs.contains(0.0) and not cs.contains(0.1)
    assert cs.covers(0.25, 0.5) and cs.covers(0.75, 1.0)
    assert not cs.covers(0.25, 0.75) and not cs.covers(0.1, 0.3)
    assert not ClonalSet(()).contains(0.5)


def test_clonal_set_agrees_with_assignment_grid():
    gen = np.random.default_rng(503)
    rng = RandomSource(9)
    grid = np.linspace(1e-6, 1.0 - 1e-6, 1000)
    for i in range(30):
        c = random_comb(gen, min_teeth=1, max_teeth=10, interval=1.0)
        ms = scatter_mutations(c, MutationMeasure.homogeneous(2.0), True, rng.spawn(i))
        cs = clonal_set(c, ms)
        _, labels = assign_alleles(c, ms, grid)
        for t, lab in zip(grid, labels):
            assert (lab is None) == cs.contains(t)


def test_adding_mutation_never_grows_clonal_set():
    gen = np.random.default_rng(504)
    rng = RandomSource(10)
    for i in range(50):
        c = random_comb(gen, min_teeth=2, max_teeth=10)
        ms = scatter_mutations(c, MutationMeasure.homogeneous(1.0), True, rng.spawn(i))
        if not len(ms):
            continue
        smaller = MutationSet(ms.branch[:-1], ms.depth[:-1])
        bigger_cs = clonal_set(c, ms)
        smaller_cs = clonal_set(c, smaller)
        # every interval of the bigger set lies inside the smaller set
        for s, e in bigger_cs.intervals:
            assert smaller_cs.covers(s, e)


def test_fully_clonal_window_probability():
    # chance that [0, t] carries no mutation clade, origin excluded,
    # against the product-over-teeth quadrature
    theta, eps, t = 1.0, 1e-3, 1.0
    model = IntensityModel.critical_bd()
    integral, _ = integrate.quad(lambda x: (1 - math.exp(-theta * x)) / (1 + x) ** 2,
                                 eps, np.inf)
    want = math.exp(-t * integral)
    rng = RandomSource(11)
    reps, hits = 4000, 0
    for i in range(reps):
        sub = rng.spawn(i)
        comb = sample_cpp_fixed_width(model, 2 * t, eps, sub)
        ms = scatter_mutations(comb, MutationMeasure.homogeneous(theta), False, sub)
        if clonal_set(comb, ms).covers(0.0, t):
            hits += 1
    assert abs(hits / reps - want) / want < 0.05


# ----------------------------------------------------------------------
# the clonal subordinator exponent

def test_clonal_exponent_critical_bd_fixture():
    # 1/phi(1) = 1 - e^2 E1(2) by reduction of the defining integral
    phi = clonal_laplace_exponent(IntensityModel.critical_bd().tail,
                                  MutationMeasure.homogeneous(1.0), 1.0)
    want = 1.0 / (1.0 - math.e ** 2 * special.exp1(2.0))
    assert phi == pytest.approx(want, rel=1e-8)
    assert phi == pytest.approx(1.5657, abs=1e-4)


def test_clonal_exponent_large_lambda_limit():
    # lam / phi(lam) -> total mass of e^{-M(x)} M(dx) = 1 for the
    # unbounded constant clock
    for tail in (IntensityModel.critical_bd().tail, IntensityModel.brownian().tail):
        lam = 1e6
        phi = clonal_laplace_exponent(tail, MutationMeasure.homogeneous(1.0), lam)
        assert abs(lam / phi - 1.0) < 1e-3


def test_clonal_exponent_scaling_identity():
    # scaling the clock by c rescales both the weight and the measure
    tail = IntensityModel.critical_bd().tail
    c, lam = 2.5, 0.7
    scaled = clonal_laplace_exponent(tail, MutationMeasure.homogeneous(c), lam)
    direct, _ = integrate.quad(
        lambda x: math.exp(-c * x) / (lam + tail(x)) * c, 0.0, np.inf)
    assert 1.0 / scaled == pytest.approx(direct, rel=1e-7)
