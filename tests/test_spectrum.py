"""Frequency spectra: exact sampling formula, oracles, population mode."""

import math

import numpy as np
import pytest

from ultracomb import (Comb, FrequencySpectrum, MutationSet, ORIGIN_BRANCH,
                       Partition, RandomSource, ValidationError,
                       esf_probability, expected_sample_spectrum,
                       gem_ranked_oracle, integer_partition_counts,
                       normalized_tail_spectrum, population_spectrum,
                       sample_esf_spectra, sample_kingman_allelic_partition,
                       spectrum_of_partition)

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
    def no_replicate(*args):
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr("ultracomb.spectrum._tail_spectrum_replicate", no_replicate)
    with pytest.raises(ValidationError):
        normalized_tail_spectrum(model, theta, 10.0, [1.0], 4, RandomSource(50), eps=eps)
