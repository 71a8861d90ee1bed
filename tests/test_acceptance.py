"""Acceptance gates.

One test per criterion, each printing a [PASS]/[FAIL] line with its
wall time (run with ``pytest tests/test_acceptance.py -v -s``).
Tolerances are pinned here; seeds are fixed so every gate is
reproducible.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import integrate, special, stats

from ultracomb import (BoundaryPoint, Immortal, IntensityModel,
                       MutationMeasure, PopulationModel, RandomSource,
                       clonal_laplace_exponent, clonal_set, comb_distance,
                       comb_from_ultrametric, esf_probability,
                       gem_ranked_oracle, integer_partition_counts,
                       normalized_tail_spectrum, padic_comb,
                       reduce_population_tree, rescale_comb, sample_cpp,
                       sample_cpp_fixed_width, sample_esf_spectra,
                       sample_kingman_allelic_partition, sample_kingman_comb,
                       sample_splitting_tree, scatter_mutations,
                       solve_scale_function, spectrum_of_partition)

from conftest import random_comb


_started = {}


@pytest.fixture(autouse=True)
def _clock():
    """Record when each gate's test starts, for the wall time its verdict prints."""
    _started["test"] = time.perf_counter()


def gate(criterion: str, ok: bool, detail: str) -> None:
    wall = time.perf_counter() - _started["test"]
    print(f"[{'PASS' if ok else 'FAIL'}] ({wall:.1f} s) criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def pairwise_distances(comb, points):
    n = len(points)
    d = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        d[i, j] = d[j, i] = comb_distance(comb, points[i], points[j])
    return d


def test_criterion_01_ultrametric_triples():
    gen = np.random.default_rng(1001)
    violations = 0
    for _ in range(1000):
        comb = random_comb(gen, max_teeth=20)
        pts = gen.random(10) * comb.interval_length
        d = pairwise_distances(comb, pts)
        bound = np.maximum(d[:, :, None], d[None, :, :])
        violations += int(np.sum(d[:, None, :] > bound))
    gate("1 (ultrametric suite)", violations == 0,
         f"{violations} violations over 1000 combs x 10 points, exact arithmetic")


def test_criterion_02_matrix_round_trip():
    gen = np.random.default_rng(1002)
    mismatches = 0
    for _ in range(1000):
        comb = random_comb(gen, max_teeth=20)
        edges = np.concatenate(([0.0], comb.positions, [comb.interval_length]))
        mids = (edges[:-1] + edges[1:]) / 2
        d = pairwise_distances(comb, mids)
        rebuilt, placements = comb_from_ultrametric(d)
        reps = [(s + e) / 2 for s, e in placements]
        back = pairwise_distances(rebuilt, reps)
        mismatches += int(np.sum(back != d))
    gate("2 (matrix round trip)", mismatches == 0,
         f"{mismatches} unequal pairwise distances over 1000 combs (exact equality)")


def test_criterion_03_padic_fixtures():
    triadic = padic_comb(3, 4)
    white, black, grey = 93 / 162, 121 / 162, 125 / 162
    ok = (comb_distance(triadic, white, black) == 1 / 3
          and comb_distance(triadic, white, grey) == 1 / 3
          and comb_distance(triadic, black, grey) == 1 / 81)
    dyadic = padic_comb(2, 5)
    faces = comb_distance(dyadic, BoundaryPoint(5 / 8, "left"),
                          BoundaryPoint(5 / 8, "right"))
    ok = ok and faces == 1 / 8
    gate("3 (p-adic fixtures)", ok,
         "triadic (1/3)^1 and (1/3)^4, dyadic (1/2)^3 reproduced exactly")


def test_criterion_04_scale_solver():
    yule = solve_scale_function(PopulationModel.yule(1.0), 1.0, 10_000)
    err_yule = abs(yule.values[-1] - math.e) / math.e
    crit = solve_scale_function(PopulationModel.birth_death(1.0, 1.0), 1.0, 10_000)
    err_crit = float(np.abs(crit.values - (1.0 + crit.times)).max() / 2.0)
    errs = [abs(solve_scale_function(PopulationModel.yule(1.0), 1.0, steps).values[-1]
                - math.e) for steps in (250, 500, 1000)]
    order = min(math.log2(a / b) for a, b in zip(errs, errs[1:]))
    ok = err_yule < 1e-6 and err_crit < 1e-6 and order >= 1.0
    gate("4 (scale solver)", ok,
         f"rel errs yule {err_yule:.2e}, critical {err_crit:.2e} (tol 1e-6); "
         f"observed order {order:.2f} (>= 1)")


def test_criterion_05_reduction_matches_solved_intensity():
    rng = RandomSource(1005)
    reduced: list[float] = []
    i = 0
    while len(reduced) < 10_000:
        tree = sample_splitting_tree(1.0, Immortal(), 1.0, rng.spawn(i))
        reduced.extend(reduce_population_tree(tree, 1.0).heights)
        i += 1
    model = solve_scale_function(PopulationModel.yule(1.0), 1.0, 10_000).intensity_model()
    cpp_heights: list[float] = []
    j = 0
    while len(cpp_heights) < 10_000:
        cpp_heights.extend(sample_cpp(model, 1.0, 0.0, rng.spawn(500_000 + j)).comb.heights)
        j += 1
    p = stats.ks_2samp(reduced, cpp_heights).pvalue
    gate("5 (population reduction vs solved intensity)", p > 0.01,
         f"two-sample KS p = {p:.3f} on {len(reduced)} vs {len(cpp_heights)} "
         "tooth heights (threshold 0.01)")


def test_criterion_06_kingman_depth_means():
    reps, n_teeth = 100_000, 64
    rng = RandomSource(1006)
    tops = np.empty((reps, 8))
    dist = np.empty(reps)
    for i in range(reps):
        sub = rng.spawn(i)
        comb = sample_kingman_comb(n_teeth, sub)
        tops[i] = np.sort(comb.heights)[::-1][:8]
        u, v = sub.gen.random(2)
        dist[i] = comb_distance(comb, u, v)
    rel = np.abs(tops.mean(axis=0) - 2.0 / np.arange(1, 9)) * np.arange(1, 9) / 2.0
    mean_dist = dist.mean()
    ok = bool(rel.max() < 0.02 and abs(mean_dist - 2.0) / 2.0 < 0.02)
    gate("6 (exchangeable-coalescent depths)", ok,
         f"max rel err of E[depth_j], j<=8: {rel.max():.3%} (tol 2%); "
         f"pair distance mean {mean_dist:.4f} vs 2 (tol 2%)")


def test_criterion_07_ewens_sampling_formula():
    # exact normalization
    defect = 0.0
    for n in range(1, 13):
        for theta in (0.5, 1.0, 2.0):
            total = sum(esf_probability(theta, a) for a in integer_partition_counts(n))
            defect = max(defect, abs(total - 1.0))
    # full pipeline against the exact law
    reps, n, n_teeth = 100_000, 5, 3000
    rng = RandomSource(1007)
    freq: dict = {}
    for i in range(reps):
        part = sample_kingman_allelic_partition(n, 1.0, rng.spawn(i), n_teeth=n_teeth)
        key = tuple(spectrum_of_partition(part).counts)
        freq[key] = freq.get(key, 0) + 1
    tv = 0.5 * sum(abs(freq.get(a, 0) / reps - esf_probability(1.0, a))
                   for a in integer_partition_counts(n))
    ok = tv < 0.01 and defect < 1e-12
    gate("7 (sampling formula)", ok,
         f"pipeline TV {tv:.4f} at {reps} reps (tol 0.01); "
         f"normalization defect {defect:.2e} for n <= 12 (tol 1e-12)")


def test_criterion_08_harmonic_spectrum():
    spectra = sample_esf_spectra(1.0, 1000, 10_000, RandomSource(1008))
    singles = spectra[:, 0].astype(float)
    mean, var = singles.mean(), singles.var(ddof=1)
    ok = abs(mean - 1.0) < 0.1 and abs(var - 1.0) < 0.1
    gate("8 (harmonic spectrum)", ok,
         f"A_n(1) mean {mean:.3f}, variance {var:.3f} vs Poisson(theta=1) limit "
         "(tol 10% each)")


def test_criterion_09_gem_largest_block():
    reps, n, n_teeth = 800, 2000, 100_000
    rng = RandomSource(31)
    largest = np.empty(reps)
    for i in range(reps):
        part = sample_kingman_allelic_partition(n, 1.0, rng.spawn(i), n_teeth=n_teeth)
        largest[i] = max(len(b) for b in part.blocks) / n
    oracle = gem_ranked_oracle(1.0, 256, 4000, RandomSource(91009))[:, 0]
    p = stats.ks_2samp(largest, oracle).pvalue
    gate("9 (largest-block limit)", p > 0.01,
         f"two-sample KS p = {p:.3f}, X_n(1)/n (n={n}, {reps} reps) vs ranked "
         "stick-breaking oracle (threshold 0.01)")


def test_criterion_10_per_capita_spectra():
    crit = normalized_tail_spectrum("critical-bd", 1.0, 50.0, [1.0], 1000,
                                    RandomSource(1010))[0]
    brow = normalized_tail_spectrum("brownian", 1.0, 50.0, [1.0], 1000,
                                    RandomSource(1110))[0]
    rel_c = abs(crit.estimate - crit.target) / crit.target
    rel_b = abs(brow.estimate - brow.target) / brow.target
    ok = rel_c < 0.10 and rel_b < 0.10
    gate("10 (per-capita spectrum limits)", ok,
         f"critical-bd singleton rate {crit.estimate:.4f} vs 0.5 "
         f"(rel {rel_c:.2%}); brownian tail {brow.estimate:.4f} vs "
         f"{brow.target:.5f} (rel {rel_b:.2%}); tol 10%")


def test_criterion_11_clonal_set_and_exponent():
    theta, eps, window = 1.0, 1e-3, 1.0
    model = IntensityModel.critical_bd()
    integral, _ = integrate.quad(
        lambda x: (1 - math.exp(-theta * x)) / (1 + x) ** 2, eps, np.inf)
    target = math.exp(-window * integral)
    rng = RandomSource(1011)
    reps, hits = 100_000, 0
    for i in range(reps):
        sub = rng.spawn(i)
        comb = sample_cpp_fixed_width(model, 2 * window, eps, sub)
        ms = scatter_mutations(comb, MutationMeasure.homogeneous(theta), False, sub)
        if clonal_set(comb, ms).covers(0.0, window):
            hits += 1
    rel = abs(hits / reps - target) / target

    phi = clonal_laplace_exponent(model.tail, MutationMeasure.homogeneous(1.0), 1.0)
    phi_target = 1.0 / (1.0 - math.e ** 2 * special.exp1(2.0))
    phi_ok = abs(phi - phi_target) / phi_target < 1e-8 and abs(phi - 1.5657) < 1e-4

    lam = 1e6
    ratio = lam / clonal_laplace_exponent(model.tail, MutationMeasure.homogeneous(1.0), lam)
    ok = rel < 0.05 and phi_ok and abs(ratio - 1.0) < 1e-3
    gate("11 (clonal structure)", ok,
         f"clonal-window MC vs quadrature rel {rel:.2%} (tol 5%); phi(1) = "
         f"{phi:.6f} vs 1.5657 fixture; lam/phi at 1e6 = {ratio:.6f} (tol 1e-3)")


def test_criterion_12_rescaled_tooth_counts():
    reps, eps, n_teeth = 10_000, 1e-3, 6000
    rng = RandomSource(1012)
    totals = {0.5: 0, 1.0: 0}
    for i in range(reps):
        zoomed = rescale_comb(sample_kingman_comb(n_teeth, rng.spawn(i)), eps)
        for h in totals:
            totals[h] += int((zoomed.heights > h).sum())
    rels = {h: abs(totals[h] / reps - 2.0 / h) / (2.0 / h) for h in totals}
    ok = max(rels.values()) < 0.10
    gate("12 (small-scale rescaling)", ok,
         f"mean tooth counts above 0.5 / 1.0: {totals[0.5] / reps:.3f} / "
         f"{totals[1.0] / reps:.3f} vs 4 / 2 (max rel {max(rels.values()):.2%}, tol 10%)")
