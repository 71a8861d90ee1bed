"""Frequency spectra: exact sampling formula, oracles, population mode."""

import math

import numpy as np
import pytest

from ultracomb import (Comb, FrequencySpectrum, IntensityModel, MutationMeasure, MutationSet,
                       ORIGIN_BRANCH, Partition, RandomSource, ResourceError, ValidationError,
                       esf_probability, expected_sample_spectrum,
                       gem_ranked_oracle, integer_partition_counts,
                       normalized_tail_spectrum, population_spectrum,
                       sample_esf_spectra, sample_kingman_allelic_partition,
                       spectrum_of_partition)
from ultracomb.spectrum import (_BAND_RATIO, _POP_BLOCK, _band_comb, _critical_bd_block,
                                _insert_in_regions, _merge, _tail_spectrum_block,
                                _tail_spectrum_blocks)

from reference_population import (critical_bd_rain, full_brownian_rain, pruned,
                                   replicate_statistics, split_block)

EXAMPLE = Comb(1.0, 4.0, [0.2, 0.5, 0.8], [3.0, 1.0, 2.0])


# ----------------------------------------------------------------------
# exact sampling formula

def test_esf_two_and_three():
    assert esf_probability(1.0, (2, 0)) == pytest.approx(0.5)
    assert esf_probability(1.0, (0, 1)) == pytest.approx(0.5)
    assert esf_probability(1.0, (3, 0, 0)) == pytest.approx(1 / 6)
    assert esf_probability(1.0, (1, 1, 0)) == pytest.approx(1 / 2)
    assert esf_probability(1.0, (0, 0, 1)) == pytest.approx(1 / 3)


def test_esf_small_theta_concentrates_on_one_block():
    n = 6
    single = [0] * n
    single[-1] = 1
    assert esf_probability(1e-9, single) == pytest.approx(1.0, abs=1e-6)


def test_esf_normalizes_over_partitions():
    for theta in (0.5, 1.0, 2.0):
        for n in (4, 8, 12):
            total = sum(esf_probability(theta, a) for a in integer_partition_counts(n))
            assert abs(total - 1.0) < 1e-12


def test_esf_validation():
    with pytest.raises(ValidationError):
        esf_probability(1.0, (1, 1))  # sum k a_k = 3 but length 2
    with pytest.raises(ValidationError):
        esf_probability(-1.0, (1,))


def test_partition_count_vectors():
    assert sorted(integer_partition_counts(4)) == sorted([
        (4, 0, 0, 0), (2, 1, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1)])


# ----------------------------------------------------------------------
# spectra of partitions

def test_spectrum_of_partition_counts():
    singles = Partition(list(range(4)))
    assert spectrum_of_partition(singles).counts == (4, 0, 0, 0)
    one = Partition([0] * 5)
    assert spectrum_of_partition(one).counts == (0, 0, 0, 0, 1)
    mixed = Partition([0, 0, 1, 2, 2, 2])
    spec = spectrum_of_partition(mixed)
    assert spec.counts == (1, 1, 1, 0, 0, 0)
    assert spec.sample_size == 6


def test_one_block_for_each_size_up_to_five():
    labels = [0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4]
    spec = spectrum_of_partition(Partition(labels))
    assert spec.counts[:5] == (1, 1, 1, 1, 1)


def test_counts_must_be_integers():
    for bad in ([1.7], [1.0], [True], ["1"], [np.float64(1.0)]):
        with pytest.raises(ValidationError, match="must be an integer"):
            esf_probability(1.0, bad)
        with pytest.raises(ValidationError, match="must be an integer"):
            FrequencySpectrum.from_counts(bad)
        with pytest.raises(ValidationError, match="must be an integer"):
            FrequencySpectrum(counts=tuple(bad))
    # numpy integers pass and are stored as a tuple of ints
    spec = FrequencySpectrum.from_counts(np.array([1, 1, 0]))
    assert spec.counts == (1, 1, 0) and all(type(c) is int for c in spec.counts)
    assert FrequencySpectrum(counts=[np.int32(2), 0]).counts == (2, 0)
    assert esf_probability(1.0, np.array([1])) == 1.0


def test_frequency_spectrum_validation():
    with pytest.raises(ValidationError):
        FrequencySpectrum(counts=(1,), masses=(1.0,))
    with pytest.raises(ValidationError):
        FrequencySpectrum(masses=(0.0,))
    spec = FrequencySpectrum(masses=(0.5, 0.2, 1.5))
    assert spec.masses == (0.2, 0.5, 1.5)
    assert spec.tail_count(0.5) == 2


# ----------------------------------------------------------------------
# exact means

def test_expected_sample_spectrum_frozen_values():
    # frozen outputs of the exhaustive-enumeration oracle at theta = 1
    assert expected_sample_spectrum(1.0, 1, 1) == pytest.approx(1.0)
    assert expected_sample_spectrum(1.0, 8, 1) == pytest.approx(1.0, abs=1e-12)
    assert expected_sample_spectrum(1.0, 8, 2) == pytest.approx(0.5, abs=1e-12)
    assert expected_sample_spectrum(1.0, 8, 8) == pytest.approx(0.125, abs=1e-12)
    assert expected_sample_spectrum(2.0, 6, 1) == pytest.approx(12.0 / 7.0, abs=1e-12)


def test_expected_sample_spectrum_rejects_large_n():
    with pytest.raises(ValidationError):
        expected_sample_spectrum(1.0, 13, 1)


def test_esf_sampler_agrees_with_exact_mean():
    spectra = sample_esf_spectra(1.0, 8, 20_000, RandomSource(40))
    n = spectra.shape[1]
    assert np.all((spectra * np.arange(1, n + 1)).sum(axis=1) == n)
    assert abs(spectra[:, 0].mean() - 1.0) < 0.05
    assert abs(spectra[:, 1].mean() - 0.5) < 0.04


def test_harmonic_spectrum_limit():
    # singleton count tends to a Poisson(theta) in mean and variance
    spectra = sample_esf_spectra(1.0, 1000, 10_000, RandomSource(41))
    a1 = spectra[:, 0].astype(float)
    assert abs(a1.mean() - 1.0) < 0.1
    assert abs(a1.var(ddof=1) - 1.0) < 0.1


# ----------------------------------------------------------------------
# population spectra

def test_population_spectrum_trivial():
    assert population_spectrum(EXAMPLE, MutationSet([], [])).masses == ()
    spec = population_spectrum(EXAMPLE, MutationSet([ORIGIN_BRANCH], [3.5]))
    assert spec.masses == (1.0,)


def test_population_spectrum_nested_pair():
    # outer clade [0, 0.8) and inner [0.5, 0.8): atoms at 0.5 and 0.3
    comb = Comb(1.0, 4.0, [0.5, 0.8], [1.0, 2.0])
    ms = MutationSet([ORIGIN_BRANCH, 0], [1.5, 0.7])
    spec = population_spectrum(comb, ms)
    assert spec.masses == pytest.approx((0.3, 0.5))


def test_population_spectrum_fully_overwritten_allele():
    # the deeper same-branch atom only keeps the annulus its shallower
    # twin does not reach; identical extents leave it carrierless
    comb = Comb(1.0, 4.0, [0.5], [1.0])
    ms = MutationSet([0, 0], [0.3, 0.6])
    spec = population_spectrum(comb, ms)
    assert spec.masses == (0.5,)


def test_population_spectrum_measures_sum():
    # carrier masses of all alleles plus the clonal remainder tile [0, a]
    from ultracomb import MutationMeasure, clonal_set, scatter_mutations
    rng = RandomSource(42)
    for i in range(50):
        sub = rng.spawn(i)
        comb = sample_kingman_comb_for_test(sub)
        ms = scatter_mutations(comb, MutationMeasure.homogeneous(1.5), True, sub)
        spec = population_spectrum(comb, ms)
        clonal = clonal_set(comb, ms).total_measure
        assert sum(spec.masses) + clonal == pytest.approx(comb.interval_length)


def sample_kingman_comb_for_test(rng):
    from ultracomb import sample_kingman_comb
    return sample_kingman_comb(64, rng)


# ----------------------------------------------------------------------
# stick-breaking oracle

def test_esf_sampler_counts_must_be_integers():
    same = sample_esf_spectra(1.0, np.int64(3), np.int32(4), RandomSource(2))
    assert np.array_equal(same, sample_esf_spectra(1.0, 3, 4, RandomSource(2)))
    for n, reps in ((2.5, 3), (3, 4.0), (True, 3)):
        with pytest.raises(ValidationError, match="must be an integer"):
            sample_esf_spectra(1.0, n, reps, RandomSource(2))


def test_gem_oracle_counts_must_be_integers():
    same = gem_ranked_oracle(1.0, np.int64(2), np.int32(3), RandomSource(2))
    assert np.array_equal(same, gem_ranked_oracle(1.0, 2, 3, RandomSource(2)))
    for depth, reps in ((2.5, 2), (2, 3.0), (2, False)):
        with pytest.raises(ValidationError, match="must be an integer"):
            gem_ranked_oracle(1.0, depth, reps, RandomSource(2))


def test_pipeline_partition_sizes_must_be_integers():
    same = sample_kingman_allelic_partition(np.int64(5), 1.0, RandomSource(2), n_teeth=np.int32(10))
    assert same == sample_kingman_allelic_partition(5, 1.0, RandomSource(2), n_teeth=10)
    for n, n_teeth in ((2.5, 10), (5, 10.0), (5.0, 10), (5, True)):
        with pytest.raises(ValidationError, match="must be an integer"):
            sample_kingman_allelic_partition(n, 1.0, RandomSource(2), n_teeth=n_teeth)


def test_pipeline_names_the_theta_it_was_given():
    for theta in (-1.0, math.nan, math.inf):
        rng = RandomSource(2)
        with pytest.raises(ValidationError, match=rf"^theta must be nonnegative and finite, "
                                                  rf"got {theta}$"):
            sample_kingman_allelic_partition(5, theta, rng, n_teeth=10)
        assert rng.gen.random() == RandomSource(2).gen.random()  # checked before any draw


def test_gem_stick_mean():
    rng = RandomSource(43)
    z = rng.gen.beta(1.0, 2.0, size=200_000)
    assert abs(z.mean() - 1.0 / 3.0) < 0.01 / 3.0


def test_gem_ranked_properties():
    ranked = gem_ranked_oracle(1.0, 64, 2000, RandomSource(44))
    assert np.all(np.diff(ranked, axis=1) <= 0)
    assert np.all(ranked.sum(axis=1) <= 1.0 + 1e-12)
    tiny = gem_ranked_oracle(1e-4, 64, 500, RandomSource(45))
    assert tiny[:, 0].mean() > 0.99


# ----------------------------------------------------------------------
# pipeline and per-capita limits (small smoke versions; the acceptance
# suite runs the full-size gates)

def test_pipeline_partition_is_esf_distributed_smoke():
    reps, n = 4000, 4
    rng = RandomSource(46)
    freq: dict = {}
    for i in range(reps):
        part = sample_kingman_allelic_partition(n, 1.0, rng.spawn(i), n_teeth=2000)
        key = tuple(spectrum_of_partition(part).counts)
        freq[key] = freq.get(key, 0) + 1
    tv = 0.5 * sum(abs(freq.get(a, 0) / reps - esf_probability(1.0, a))
                   for a in integer_partition_counts(n))
    assert tv < 0.04


def test_normalized_tail_spectrum_smoke():
    rows = normalized_tail_spectrum("critical-bd", 1.0, 30.0, [1.0, 2.0], 200,
                                    RandomSource(47))
    assert rows[0].target == pytest.approx(0.5)
    assert rows[1].target == pytest.approx(0.125)
    assert abs(rows[0].estimate - rows[0].target) < 0.1
    rows = normalized_tail_spectrum("brownian", 1.0, 30.0, [1.0], 60,
                                    RandomSource(48))
    assert abs(rows[0].estimate - rows[0].target) < 0.06
    with pytest.raises(ValidationError):
        normalized_tail_spectrum("kingman", 1.0, 10.0, [1.0], 10, RandomSource(49))


@pytest.mark.parametrize("model, q", [("critical-bd", 0.0), ("critical-bd", math.nan),
                                      ("critical-bd", -1.0), ("critical-bd", 1.5),
                                      ("brownian", 0.0), ("brownian", math.nan),
                                      ("brownian", -1.0), ("brownian", math.inf)])
def test_normalized_tail_spectrum_rejects_bad_q(model, q):
    rng = RandomSource(50)
    with pytest.raises(ValidationError, match="q must be"):
        normalized_tail_spectrum(model, 1.0, 10.0, [1.0, q], 4, rng)
    assert rng.gen.random() == RandomSource(50).gen.random()  # rejected before any draw


@pytest.mark.parametrize("model, theta, eps", [("critical-bd", math.nan, 1e-3),
                                               ("critical-bd", math.inf, 1e-3),
                                               ("brownian", math.nan, 1e-3),
                                               ("brownian", 1.0, 0.0),
                                               ("brownian", 1.0, -1.0),
                                               ("brownian", 1.0, math.nan),
                                               ("brownian", 1.0, 10.0)])
def test_normalized_tail_spectrum_checks_theta_and_eps_before_any_draw(monkeypatch, model,
                                                                       theta, eps):
    def no_block(*args):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr("ultracomb.spectrum._tail_spectrum_block", no_block)
    with pytest.raises(ValidationError):
        normalized_tail_spectrum(model, theta, 10.0, [1.0], 4, RandomSource(50), eps=eps)


# ----------------------------------------------------------------------
# the band sampler of Brownian population replicates

@pytest.mark.parametrize("model, eps", [("brownian", 1e-2), ("brownian", 1e-3),
                                        ("critical-bd", None)])
def test_teeth_without_atoms_or_clade_stops_leave_the_spectrum_unchanged(model, eps):
    for r in range(6):
        rng = RandomSource(2300).spawn(r)
        if model == "critical-bd":
            comb, ms = critical_bd_rain(1.0, 50.0, rng)
        else:
            comb, ms = full_brownian_rain(1.0, 50.0, eps, rng)
        small, small_ms = pruned(comb, ms)
        assert small.n_teeth < comb.n_teeth or model == "critical-bd"
        assert len(small_ms) == len(ms)
        assert population_spectrum(small, small_ms).masses == population_spectrum(comb, ms).masses


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_band_sampler_matches_the_full_comb_in_law(eps):
    """Blocks of ``_POP_BLOCK`` replicates, cut into their replicates, each
    paired with a full comb drawn on its width from another stream; every
    other statistic is compared by its mean paired difference, within 4
    standard errors.  Summed carrier masses nearly always equal the width,
    so their paired differences are rounding noise: a 1e-9 floor on the
    error covers it."""
    qs, reps = np.array([0.5, 1.0, 2.0, 4.0]), 800
    model, measure = IntensityModel.brownian(mass_scale=1.0), MutationMeasure.homogeneous(1.0)
    blocks = [_band_comb(model, measure, 50.0, eps, _POP_BLOCK, RandomSource(2400).spawn(b).gen)
              for b in range(reps // _POP_BLOCK)]
    band = np.array([replicate_statistics(comb, ms, qs)
                     for block in blocks for comb, ms in split_block(*block, 50.0)])
    full = np.array([replicate_statistics(
        *full_brownian_rain(1.0, 50.0, eps, RandomSource(2401).spawn(r), width), qs)
        for r, width in enumerate(band[:, 0])])
    assert band.shape[0] == reps and np.array_equal(band[:, 0], full[:, 0])
    diff = band[:, 1:] - full[:, 1:]  # alleles, tails at each q, summed carrier mass
    se = np.maximum(diff.std(axis=0, ddof=1) / math.sqrt(reps), 1e-9)
    assert np.all(np.abs(diff.mean(axis=0)) <= 4.0 * se), (diff.mean(axis=0), se)
    assert full[:, 1].mean() > 200 and full[:, 5].mean() > 0.1  # the statistics are not empty


def band_region_counts(comb, ms, tops, bottoms):
    """Per band [b, t): the unmarked teeth of height in it, and the summed
    length of the regions rebuilt from the output.  A branch is active at
    t if it is the origin or a tooth whose shallowest atom has depth < t;
    its region runs to the first tooth of height >= t on its right.
    Asserts that every such unmarked tooth lies in a region."""
    pos, hgt, width = comb.positions, comb.heights, comb.interval_length
    tooth = ms.branch != ORIGIN_BRANCH
    shallowest = np.full(comb.n_teeth, math.inf)
    np.minimum.at(shallowest, ms.branch[tooth], ms.depth[tooth])
    counts, lengths = [], []
    for top, bottom in zip(tops, bottoms):
        x = np.append(0.0, pos[shallowest < top])
        tall = np.append(pos[hgt >= top], width)
        end = tall[np.searchsorted(tall, x, side="right")]
        # the union of the intervals [x, end), sorted by start
        reach = np.maximum.accumulate(end)
        lengths.append(np.sum(np.maximum(end - np.maximum(x, np.append(0.0, reach[:-1])), 0.0)))
        p = pos[~np.isfinite(shallowest) & (hgt >= bottom) & (hgt < top)]
        assert np.all(p < reach[np.searchsorted(x, p, side="right") - 1]), top
        counts.append(p.size)
    return np.array(counts), np.array(lengths)


def test_band_sampler_draws_unmarked_teeth_in_its_regions():
    """Unmarked teeth of a band are Poisson on its regions given what was
    drawn before them, with intensity exp(-h) h^-2 dh (theta 1, tail 1/h):
    their count sums to the regions' length times its integral, within
    4 sd over all bands and 5 sd in each.  Regions are rebuilt on each
    replicate cut from blocks of ``_POP_BLOCK``."""
    from scipy.special import exp1

    horizon, eps, reps = 50.0, 1e-3, 200
    model, measure = IntensityModel.brownian(mass_scale=1.0), MutationMeasure.homogeneous(1.0)
    tops = horizon * _BAND_RATIO ** -np.arange(20.0)
    tops = tops[tops > eps]
    bottoms = np.maximum(tops / _BAND_RATIO, eps)
    rate = (np.exp(-bottoms) / bottoms - np.exp(-tops) / tops
            + exp1(tops) - exp1(bottoms))  # of exp(-h) h^-2 dh over [b, t)
    counts, lengths = map(sum, zip(*(
        band_region_counts(comb, ms, tops, bottoms)
        for b in range(reps // _POP_BLOCK)
        for comb, ms in split_block(*_band_comb(model, measure, horizon, eps, _POP_BLOCK,
                                                RandomSource(2600).spawn(b).gen), horizon))))
    mean = lengths * rate
    z = (counts - mean) / np.sqrt(mean)
    assert tops.size == 8 and counts.sum() > 10 ** 5
    assert abs((counts.sum() - mean.sum()) / math.sqrt(mean.sum())) <= 4.0, (counts, mean)
    assert np.all(np.abs(z) <= 5.0), z


class CollidingMarks:
    """A generator whose third uniform draw, the band sampler's marked
    positions, repeats its first value."""

    def __init__(self, gen):
        self.gen, self.calls = gen, 0

    def __getattr__(self, name):
        return getattr(self.gen, name)

    def random(self, size):
        self.calls += 1
        u = self.gen.random(size)
        if self.calls == 3:
            u[1] = u[0]
        return u


def test_band_sampler_redraws_colliding_marked_positions():
    # a collision among marked teeth is redrawn with them, not left to
    # fail every band's merge check
    model, measure = IntensityModel.brownian(mass_scale=1.0), MutationMeasure.homogeneous(1.0)
    gen = CollidingMarks(RandomSource(7).gen)
    comb, ms = _band_comb(model, measure, 20.0, 1e-2, 1, gen)
    # tooth 0 is the replicate's origin; more than one marked tooth keeps atoms
    assert len(set(ms.branch.tolist()) - {0}) > 1 and gen.calls > 4


def test_band_sampler_keeps_positions_distinct_or_raises():
    model, measure = IntensityModel.brownian(mass_scale=1.0), MutationMeasure.homogeneous(1.0)
    comb, ms = _band_comb(model, measure, 50.0, 1e-9, 1, RandomSource(2500).gen)
    assert comb.n_teeth < 10 ** 4 and len(ms) > 0
    # below the float spacing of positions near the width, regions stop
    # shrinking; the collision guard stops the ladder instead of growing it
    with pytest.raises(ResourceError, match="distinct interior positions"):
        _band_comb(model, measure, 5.0, 1e-300, 1, RandomSource(1).spawn(0).gen)


def test_merge_equals_np_insert_on_both_arrays():
    gen = np.random.default_rng(2600)
    ends = set()
    for n, m in [(0, 0), (0, 3), (5, 0), (1, 1), (1, 8), (40, 7), (300, 120)]:
        old = np.sort(gen.random(n)), gen.random(n)
        # new positions spill past both ends of the old ones
        new = np.sort(gen.uniform(-0.5, 1.5, m)), gen.random(m)
        at = np.searchsorted(old[0], new[0])
        ends |= {(n, i) for i in at.tolist() if i in (0, n)}
        copies = [a.copy() for a in old]
        got = _merge(at, old, new)
        assert [a.tolist() for a in got] == [np.insert(o, at, v).tolist() for o, v in zip(old, new)]
        assert all(np.array_equal(a, b) for a, b in zip(old, copies))
    assert {(1, 0), (1, 1), (40, 0), (40, 40), (300, 0), (300, 300)} <= ends
    # repeated indices keep the new values in their order
    got = _merge(np.array([0, 0, 2, 2]), (np.array([1.0, 2.0]),), (np.array([-2.0, -1.0, 3.0, 4.0]),))
    assert got[0].tolist() == [-2.0, -1.0, 1.0, 2.0, 3.0, 4.0]


class ScriptedUniforms:
    """A generator whose ``random`` returns the given draws in turn."""

    def __init__(self, *draws):
        self.draws = [np.array(d) for d in draws]
        self.calls = 0

    def random(self, size):
        self.calls += 1
        u = self.draws.pop(0)
        assert u.size == size
        return u


def test_insert_in_regions_redraws_a_forced_collision():
    # one region [0, 1) around a tooth at 0.5, between sentinels at 0 and 1
    edges, hgt = np.array([0.0, 0.5, 1.0]), np.array([math.inf, 1.0, math.inf])
    gen = ScriptedUniforms([0.5, 0.25], [0.3, 0.3], [0.75, 0.25])
    new, e, h = _insert_in_regions(gen, edges, hgt, np.array([0.0]), np.array([1.0]),
                                   np.array([2.0, 3.0]))
    # a new tooth on the old one, then two new teeth on one spot, are redrawn
    assert gen.calls == 3
    assert new.tolist() == [0.25, 0.75]
    assert e.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert h.tolist() == [math.inf, 2.0, 1.0, 3.0, math.inf]


@pytest.mark.parametrize("model", ["brownian", "critical-bd"])
def test_a_block_reads_as_its_replicates_side_by_side(model):
    """Cut into its single replicates, each a comb with its own origin, a
    block gives each replicate the tail counts the block function reports
    for it.  Every origin is a tooth of height horizon, whose rain has
    mass M(horizon) exactly, and the block's own origin carries no atom."""
    horizon, eps, qs = 20.0, 1e-3, np.array([1.0, 2.0, 4.0])
    measure = MutationMeasure.homogeneous(1.0)
    for b in range(4):
        size = _POP_BLOCK - b  # a full block, then partial ones
        rng = RandomSource(2700).spawn(b)
        if model == "critical-bd":
            comb, ms = _critical_bd_block(measure, horizon, size, rng)
        else:
            comb, ms = _band_comb(IntensityModel.brownian(1.0), measure, horizon, eps, size,
                                  rng.gen)
        widths, counts = _tail_spectrum_block(model, 1.0, horizon, eps, qs, size,
                                              RandomSource(2700).spawn(b))
        origins = comb.heights == horizon
        assert np.count_nonzero(origins) == size and comb.positions[origins][0] == 1.0
        assert np.all(measure.cumulative(comb.heights[origins]) == measure.cumulative(horizon))
        replicates = split_block(comb, ms, horizon)
        assert [c.interval_length for c, _ in replicates] == widths.tolist()
        for (single, single_ms), row in zip(replicates, counts):
            assert single.origin_height == horizon
            masses = np.asarray(population_spectrum(single, single_ms).masses)[:, None]
            hits = masses == qs if model == "critical-bd" else masses >= qs
            assert np.count_nonzero(hits, axis=0).tolist() == row.tolist()
        assert counts.sum() > 0


def test_population_runs_share_their_full_blocks_across_reps():
    def blocks(reps):
        return _tail_spectrum_blocks("brownian", 1.0, 20.0, 1e-2, [1.0], reps, RandomSource(2800),
                                     range(reps))

    short, long = blocks(_POP_BLOCK + 3), blocks(2 * _POP_BLOCK)
    assert [w.size for w, _ in short] == [_POP_BLOCK, 3]
    assert np.array_equal(short[0][0], long[0][0]) and np.array_equal(short[0][1], long[0][1])
