"""The comb's range-max pass and the array clade code, against the
per-query reference definitions in ``reference_clades``.  Every
comparison is exact."""

import tracemalloc

import numpy as np
import pytest

from ultracomb import (ORIGIN_BRANCH, Comb, MutationMeasure, MutationSet,
                       RandomSource, ValidationError, assign_alleles,
                       ball_partition, clonal_set, comb_distance,
                       population_spectrum, scatter_mutations)
from ultracomb.comb import _BLOCK

from reference_clades import (reference_ball_partition, reference_clade,
                              reference_clonal_intervals, reference_comb_distance,
                              reference_labels, reference_max_height_between,
                              reference_next_taller, reference_population_masses)

# around the range-max pass's block size and its sparse-table level boundaries,
# and around the reference's sqrt-block boundaries
SIZES = sorted({0, 1, 2, 3, 4, 15, 16, 17, 24, 25, 26}
               | {_BLOCK * k + d for k in (1, 2, 3, 4, 8, 33) for d in (-1, 0, 1)})


def make_comb(gen, n: int, tied: bool) -> Comb:
    pos = np.sort(gen.choice(10 ** 8, n, replace=False) + 1) / 1e8
    heights = gen.integers(1, 5, n).astype(float) if tied else 0.01 + gen.random(n)
    return Comb(1.0, 6.0, pos, heights)


def rich_mutations(gen, comb: Comb) -> MutationSet:
    """Several atoms per branch, atoms on the origin, and atoms sitting
    exactly at other teeth's heights."""
    branch, depth = [], []
    for b in range(comb.n_teeth):
        h = float(comb.heights[b])
        ds = [float(d) for d in np.unique(gen.random(int(gen.integers(0, 4))) * h) if 0.0 < d < h]
        if b and comb.heights[b - 1] < h:
            ds.append(float(comb.heights[b - 1]))
        branch += [b] * len(ds)
        depth += ds
    ds = [float(d) for d in np.unique(gen.random(3) * comb.origin_height) if d > 0.0]
    return MutationSet(branch + [ORIGIN_BRANCH] * len(ds), depth + ds)


def check_queries(comb: Comb, gen, count: int) -> None:
    n = comb.n_teeth
    starts = gen.integers(0, n + 3, count)
    pool = np.concatenate((comb.heights, [0.0, 10.0]))
    levels = np.where(gen.random(count) < 0.5, gen.choice(pool, count), gen.random(count) * 6.0 - 0.5)
    got = comb.next_taller_batch(starts, levels)
    want = [reference_next_taller(comb, int(s), float(v)) for s, v in zip(starts, levels)]
    assert got.tolist() == want
    assert [comb.next_taller(int(s), float(v)) for s, v in zip(starts[:20], levels[:20])] == want[:20]
    lo = gen.integers(0, n + 3, count)
    hi = np.where(gen.random(count) < 0.5, lo + gen.integers(0, 2 * _BLOCK + 2, count),
                  gen.integers(0, n + 3, count))
    want = [reference_max_height_between(comb, int(a), int(min(b, n))) for a, b in zip(lo, hi)]
    assert [comb.max_height_between(int(a), int(b)) for a, b in zip(lo, hi)] == want


def pairs(ms: MutationSet) -> list[tuple[int, float]]:
    """The atoms as (branch, depth) pairs, in the set's order."""
    return list(zip(ms.branch.tolist(), ms.depth.tolist()))


def check_clade_code(comb: Comb, ms: MutationSet, gen) -> None:
    atoms = pairs(ms)
    assert population_spectrum(comb, ms).masses == reference_population_masses(comb, atoms)
    pts = np.concatenate((gen.random(40), comb.positions[:5], [0.0, comb.interval_length]))
    part, labels = assign_alleles(comb, ms, pts)
    assert labels == reference_labels(comb, atoms, pts)
    assert clonal_set(comb, ms).intervals == reference_clonal_intervals(comb, atoms)
    start, end = ms.clade_bounds(comb)
    assert list(zip(start.tolist(), end.tolist())) == [reference_clade(comb, b, d) for b, d in atoms]
    for radius in (0.5, 2.0, 4.0, 2.0 * float(comb.heights[0]) if comb.n_teeth else 1.0):
        assert ball_partition(comb, pts, radius) == reference_ball_partition(comb, pts, radius)
    for p, q in gen.random((10, 2)).tolist():
        assert comb_distance(comb, p, q) == reference_comb_distance(comb, p, q)


@pytest.mark.parametrize("tied", [False, True])
def test_index_matches_reference_scan(tied):
    gen = np.random.default_rng(901 + tied)
    for n in SIZES:
        check_queries(make_comb(gen, n, tied), gen, 400)


def test_index_on_a_large_comb():
    gen = np.random.default_rng(903)
    for tied in (False, True):
        check_queries(make_comb(gen, 10 ** 5, tied), gen, 300)


def test_queries_at_and_past_the_last_tooth():
    c = Comb(1.0, 4.0, [0.2, 0.5, 0.8], [3.0, 1.0, 2.0])
    assert [c.next_taller(s, 0.5) for s in (2, 3, 4, 100)] == [2, 3, 3, 3]
    assert c.next_taller(0, 3.0) == 3  # ties are not taller
    assert c.max_height_between(1, 3) == 2.0
    assert c.max_height_between(3, 3) == 0.0
    assert c.max_height_between(2, 1) == 0.0
    empty = Comb(1.0, 1.0)
    assert empty.next_taller(0, 0.0) == 0
    assert [empty.max_height_between(0, hi) for hi in (0, 5)] == [0.0, 0.0]


@pytest.mark.parametrize("n", [1, 31, 32, 33, 100])
def test_an_infinite_level_finds_no_taller_tooth(n):
    c = Comb(1.0, 2.0, np.arange(1, n + 1) / (n + 2), np.full(n, 0.5))
    starts = np.arange(n + 1)
    assert c.next_taller_batch(starts, np.full(n + 1, np.inf)).tolist() == [n] * (n + 1)
    even = starts % 2 == 0  # finite levels in the same batch keep their answers
    got = c.next_taller_batch(starts, np.where(even, np.inf, 0.25))
    assert got.tolist() == np.where(even, n, starts).tolist()


def direct_next_taller(heights, start: int, level: float) -> int:
    return next((i for i in range(max(start, 0), heights.size) if heights[i] > level), heights.size)


@pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 64, 65, 1000])
def test_two_pass_range_max_at_block_boundaries(n):
    # the first scan covers _BLOCK teeth from the start; hits one short of,
    # at and one block past its end, or past the last tooth, take the
    # lifted second pass
    starts = sorted({-3, 0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, n - 2 * _BLOCK - 1,
                     n - _BLOCK - 1, n - _BLOCK, n - 2, n - 1, n, n + 7})
    levels = [-np.inf, 0.5, 1.0, 2.0, np.inf]
    spikes = {s + d for s in starts for d in (_BLOCK - 1, _BLOCK, 2 * _BLOCK)} | {None}
    pos = np.arange(1, n + 1) / (n + 1)
    for spike in spikes:
        heights = np.ones(n)  # tied everywhere but at the spike
        if spike is not None and 0 <= spike < n:
            heights[spike] = 2.0
        c = Comb(1.0, 4.0, pos, heights)
        s, v = np.array([(s, v) for s in starts for v in levels]).T
        got = c.next_taller_batch(s.astype(np.int64), v)
        assert got.tolist() == [direct_next_taller(heights, int(a), b) for a, b in zip(s, v)]
    gen = np.random.default_rng(911)
    heights = gen.integers(1, 4, n).astype(float)
    s = np.repeat(starts, 5)
    v = np.tile(levels, len(starts))
    got = Comb(1.0, 4.0, pos, heights).next_taller_batch(s, v)
    assert got.tolist() == [direct_next_taller(heights, int(a), b) for a, b in zip(s, v)]


def test_range_max_pass_is_small():
    c = make_comb(np.random.default_rng(904), 10 ** 5, False)
    # slotted: a comb cannot grow a cache
    assert not hasattr(c, "__dict__")
    gen = np.random.default_rng(910)
    starts, levels = gen.integers(0, c.n_teeth, 100), gen.choice(c.heights, 100)
    tracemalloc.start()
    try:
        c.next_taller_batch(starts, levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one call of 100 queries peaks far below a float64 sparse table over
    # every tooth (17 levels at 10**5 teeth)
    assert peak < 0.05 * c.n_teeth * 8 * 17


@pytest.mark.parametrize("tied", [False, True])
def test_clade_code_matches_reference(tied):
    gen = np.random.default_rng(905 + tied)
    for n in SIZES:
        c = make_comb(gen, n, tied)
        check_clade_code(c, rich_mutations(gen, c), gen)


def test_clade_code_on_scattered_mutations():
    gen = np.random.default_rng(907)
    for i in range(60):
        c = make_comb(gen, int(gen.integers(0, 300)), bool(i % 2))
        ms = scatter_mutations(c, MutationMeasure.homogeneous(float(gen.uniform(0.5, 20.0))),
                               bool(i % 3), RandomSource(9000 + i))
        check_clade_code(c, ms, gen)


def test_clade_code_on_a_large_comb():
    gen = np.random.default_rng(908)
    c = make_comb(gen, 10 ** 5, False)
    ms = scatter_mutations(c, MutationMeasure.homogeneous(0.05), True, RandomSource(908))
    assert len(ms) > 1000
    check_clade_code(c, ms, gen)


def test_single_clade_matches_batch():
    gen = np.random.default_rng(909)
    c = make_comb(gen, 70, True)
    ms = rich_mutations(gen, c)
    start, end = ms.clade_bounds(c)
    assert len(ms) > 50
    for (b, d), s, e in zip(pairs(ms), start.tolist(), end.tolist()):
        one = MutationSet([b], [d]).clade_bounds(c)
        assert [x.tolist() for x in one] == [[s], [e]]


# ----------------------------------------------------------------------
# mutation sets as arrays

def test_mutation_set_arrays_and_atom_order():
    branch, depth = [2, ORIGIN_BRANCH, 0, 2, 0], [0.5, 3.5, 1.25, 0.25, 0.75]
    ms = MutationSet(branch, depth)
    assert pairs(ms) == sorted(zip(branch, depth))
    assert ms.branch.dtype == np.int64 and ms.depth.dtype == np.float64
    assert ms.branch.tolist() == [-1, 0, 0, 2, 2]
    assert not ms.branch.flags.writeable and not ms.depth.flags.writeable
    assert len(ms) == 5 and len(MutationSet([], [])) == 0
    # unsorted numpy arrays build the set the lists do, and are left as they were
    arrays = np.array(branch, dtype=np.int32), np.array(depth)
    assert MutationSet(*arrays) == ms
    assert arrays[0].tolist() == branch and arrays[1].flags.writeable
    assert MutationSet.from_list(ms.to_list()) == ms
    assert ms.to_list()[1] == {"branch": 0, "depth": 0.75}
    assert ms != MutationSet(branch[:4], depth[:4])


def test_mutation_set_messages_name_the_first_bad_atom():
    with pytest.raises(ValidationError, match=r"^duplicate mutation atom "
                       r"on branch 1 at depth 0\.5$"):
        MutationSet([3, 1, 3, 1], [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValidationError, match=r"^branch and depth must be 1-d arrays"):
        MutationSet([0, 1], [0.5])
    c = Comb(1.0, 4.0, [0.2, 0.5, 0.8], [3.0, 1.0, 2.0])
    with pytest.raises(ValidationError, match=r"^atom depth 1\.5 outside \(0, 1\.0\) on branch 1$"):
        MutationSet([1, 2, 7], [1.5, 2.5, 0.1]).validate_for(c)
    with pytest.raises(ValidationError, match=r"^atom branch -2 is not a tooth of the comb$"):
        MutationSet([1, -2], [1.5, 0.1]).validate_for(c)
    with pytest.raises(ValidationError, match=r"^atom depth 4\.0 outside \(0, 4\.0\) on branch -1$"):
        MutationSet([ORIGIN_BRANCH], [4.0]).validate_for(c)
    with pytest.raises(ValidationError, match=r"^atom depth 0\.0 outside"):
        MutationSet([0], [0.0]).validate_for(c)
    with pytest.raises(ValidationError, match=r"^atom branch 0 is not a tooth"):
        MutationSet([0], [0.5]).validate_for(Comb(1.0, 1.0))
    MutationSet([ORIGIN_BRANCH], [0.5]).validate_for(Comb(1.0, 1.0))
