"""Allele frequency spectra: exact sampling formula, harmonic limit,
stick-breaking oracle, population spectra and their per-capita limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .comb import Comb, Partition
from .errors import ValidationError, _integer
from .intensity import IntensityModel
from .mutation import (MutationMeasure, MutationSet, _clade_forest, assign_alleles,
                       scatter_mutations)
from .rng import RandomSource
from .sampling import _killed_comb, _killed_tails, _tail_heights, sample_kingman_comb

__all__ = [
    "FrequencySpectrum",
    "esf_probability",
    "integer_partition_counts",
    "spectrum_of_partition",
    "expected_sample_spectrum",
    "sample_esf_spectra",
    "sample_kingman_allelic_partition",
    "population_spectrum",
    "normalized_tail_spectrum",
    "TailSpectrumRow",
    "gem_ranked_oracle",
]


@dataclass(frozen=True)
class FrequencySpectrum:
    """Either sample-mode counts A(k), k = 1..n, or the multiset of
    carrier measures of a whole population's alleles.  Counts are stored
    as a tuple of ints; a float, bool or string count raises."""

    counts: tuple[int, ...] | None = None
    masses: tuple[float, ...] | None = None

    def __post_init__(self):
        if (self.counts is None) == (self.masses is None):
            raise ValidationError("exactly one of counts and masses must be given")
        if self.counts is not None:
            object.__setattr__(self, "counts", tuple(
                c if type(c) is int else _integer("spectrum counts", c) for c in self.counts))
            if any(c < 0 for c in self.counts):
                raise ValidationError("spectrum counts must be nonnegative")
        else:
            object.__setattr__(self, "masses", tuple(sorted(self.masses)))
            if any(m <= 0 for m in self.masses):
                raise ValidationError("carrier masses must be positive")

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "FrequencySpectrum":
        """``FrequencySpectrum(counts=counts)``; kept because ``perfbench/`` calls it."""
        return cls(counts=counts)

    @property
    def sample_size(self) -> int:
        if self.counts is None:
            raise ValidationError("population spectra have no sample size")
        return sum((k + 1) * c for k, c in enumerate(self.counts))

    def tail_count(self, q: float) -> int:
        """Number of alleles with carrier measure (or block size) >= q."""
        if self.masses is not None:
            return int(sum(1 for m in self.masses if m >= q))
        return int(sum(c for k, c in enumerate(self.counts) if k + 1 >= q))


def spectrum_of_partition(partition: Partition) -> FrequencySpectrum:
    """Counts A(k) of blocks of each cardinality; sum of k A(k) is n.  Block
    sizes are label multiplicities, so nothing is allocated by label value."""
    _, sizes = np.unique(partition.labels, return_counts=True)
    return FrequencySpectrum(counts=tuple(np.bincount(sizes, minlength=partition.n + 1)[1:].tolist()))


def esf_probability(theta: float, counts: Sequence[int]) -> float:
    """Exact probability of a sample spectrum under the
    infinitely-many-alleles sampling formula.

    ``counts[k-1]`` is the number of alleles carried by exactly k of the
    n sampled individuals; the counts must be nonnegative integers with
    sum k a_k = n, and theta must be positive and finite.
    """
    if not 0 < theta < math.inf:
        raise ValidationError(f"theta must be positive and finite, got {theta}")
    a = FrequencySpectrum(counts=counts).counts  # nonnegative ints
    n = sum((k + 1) * c for k, c in enumerate(a))
    if n == 0 or n != len(a):
        raise ValidationError(f"counts must satisfy sum k*a_k = n = len(counts); got {n} vs {len(a)}")
    norm = math.factorial(n)
    for i in range(n):
        norm /= theta + i
    prob = norm
    for k, c in enumerate(a, start=1):
        if c:
            prob *= (theta / k) ** c / math.factorial(c)
    return prob


def integer_partition_counts(n: int) -> Iterator[tuple[int, ...]]:
    """All spectra of partitions of n, as count vectors (a_1, ..., a_n)."""
    if n < 1:
        raise ValidationError("n must be at least 1")

    def rec(remaining: int, largest: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(acc)
            return
        for part in range(min(remaining, largest), 0, -1):
            acc[part - 1] += 1
            yield from rec(remaining - part, part, acc)
            acc[part - 1] -= 1

    yield from rec(n, n, [0] * n)


_EXACT_LIMIT = 12


def expected_sample_spectrum(theta: float, n: int, k: int) -> float:
    """Exact mean number of alleles carried by k of n individuals, by
    exhaustive summation over integer partitions (n <= 12)."""
    if not 1 <= k <= n:
        raise ValidationError("need 1 <= k <= n")
    if n > _EXACT_LIMIT:
        raise ValidationError(f"exact mode is limited to n <= {_EXACT_LIMIT}; "
                              f"use sample_esf_spectra for Monte Carlo")
    total = 0.0
    for counts in integer_partition_counts(n):
        if counts[k - 1]:
            total += counts[k - 1] * esf_probability(theta, counts)
    return total


def sample_esf_spectra(theta: float, n: int, reps: int, rng: RandomSource) -> np.ndarray:
    """Monte Carlo spectra from the sequential description of the
    sampling formula: individual i starts a new allele with probability
    theta / (theta + i), otherwise copies a uniformly chosen predecessor.

    Returns an int32 array of shape (reps, n); row r holds A(1)..A(n).
    theta must be positive and finite.
    """
    if not 0 < theta < math.inf or n < 1 or reps < 1:
        raise ValidationError("need a finite theta > 0, n >= 1, reps >= 1")
    gen = rng.gen
    idx = np.arange(n, dtype=float)
    new_allele = gen.random((reps, n)) < theta / (theta + idx)
    targets = (gen.random((reps, n)) * idx).astype(np.int64)  # uniform in [0, i)
    cols = np.broadcast_to(np.arange(n), (reps, n))
    parents = np.where(new_allele, cols, targets)
    parents[:, 0] = 0
    # resolve pointer forests by path doubling: compose the map with
    # itself until every entry reaches its allele root
    labels = parents
    rows = np.arange(reps)[:, None]
    while True:
        nxt = labels[rows, labels]
        if np.array_equal(nxt, labels):
            break
        labels = nxt
    # block sizes, then counts-of-counts, per replicate
    flat = (labels + (np.arange(reps)[:, None] * n)).ravel()
    sizes = np.bincount(flat, minlength=reps * n).reshape(reps, n)
    spectra = np.zeros((reps, n + 1), dtype=np.int32)
    rep_idx = np.repeat(np.arange(reps), n)
    np.add.at(spectra, (rep_idx, sizes.ravel()), 1)
    return spectra[:, 1:]


def sample_kingman_allelic_partition(n: int, theta: float, rng: RandomSource,
                                     n_teeth: int) -> Partition:
    """One replicate of the full pipeline: an exchangeable-coalescent
    comb, a homogeneous mutation rain (origin branch included), and the
    allelic partition of n uniform sample positions.

    ``theta`` is the sampling-formula parameter: a new allele appears
    with probability theta / (theta + k - 1) behind k lineages.  On
    this comb pairs of lineages coalesce at unit rate per unit depth,
    so that convention corresponds to mutation density theta/2 per unit
    depth (one unit of pairwise distance spans two units of depth).

    The comb is truncated to ``n_teeth`` teeth, which bounds the
    unresolved depth by roughly 2/n_teeth.
    """
    if n < 1:
        raise ValidationError("n must be at least 1")
    comb = sample_kingman_comb(n_teeth, rng)
    mutations = scatter_mutations(comb, MutationMeasure.homogeneous(theta / 2.0),
                                  include_origin=True, rng=rng)
    return assign_alleles(comb, mutations, rng.gen.random(n))[0]


def population_spectrum(comb: Comb, mutations: MutationSet) -> FrequencySpectrum:
    """Carrier measures of every allele present on the boundary.

    Sweeping atoms from shallow to deep, each atom's carriers are its
    clade minus the clades of shallower atoms; atoms overwritten
    everywhere contribute nothing, and the clonal remainder is not an
    allele of the mutation measure.

    Clades are laminar and strictly nested clades are strictly
    shallower, so the carriers of a distinct clade are its length minus
    the lengths of its child clades, subtracted in start order (one
    ``subtract.reduceat``); a clade repeated by deeper atoms on the
    same branch counts once.  That is the sweep's float arithmetic,
    operation for operation.
    """
    start, end, parent, _ = _clade_forest(*mutations.clade_bounds(comb))
    length = end - start
    child = np.flatnonzero(parent >= 0)
    # per clade: its own length, then its children's lengths in start order
    group = np.concatenate((np.arange(start.size), parent[child]))
    rank = np.concatenate((np.full(start.size, -1), child))
    order = np.lexsort((rank, group))
    carriers = np.subtract.reduceat(np.concatenate((length, length[child]))[order],
                                    np.flatnonzero(rank[order] < 0))
    return FrequencySpectrum(masses=tuple(carriers[carriers > 0.0].tolist()))


def gem_ranked_oracle(theta: float, depth: int, reps: int, rng: RandomSource) -> np.ndarray:
    """Ranked stick-breaking fractions: residual-fraction sticks with
    Beta(1, theta) pieces, sorted decreasing per replicate.

    This is the limit law of the ranked largest allele blocks of the
    exchangeable coalescent, used as the simulation oracle.  theta must
    be positive and finite.
    """
    if not 0 < theta < math.inf or depth < 1 or reps < 1:
        raise ValidationError("need a finite theta > 0, depth >= 1, reps >= 1")
    z = rng.gen.beta(1.0, theta, size=(reps, depth))
    pieces = np.empty_like(z)
    pieces[:, 0] = z[:, 0]
    if depth > 1:
        pieces[:, 1:] = z[:, 1:] * np.cumprod(1.0 - z, axis=1)[:, :-1]
    return np.sort(pieces, axis=1)[:, ::-1]


@dataclass(frozen=True)
class TailSpectrumRow:
    q: float
    estimate: float
    stderr: float
    target: float


def _check_tail_spectrum(model_name: str, theta: float, horizon: float, eps: float,
                         qs: Sequence[float], reps: int) -> list[float]:
    """Validate a tail-spectrum request before any draw; return the qs as floats.
    The Brownian-type model also gets its killed comb's checks on eps."""
    if model_name not in ("critical-bd", "brownian"):
        raise ValidationError(f"model must be 'critical-bd' or 'brownian', got {model_name!r}")
    if not 0 < theta < math.inf or not 0 < horizon < math.inf or reps < 2:
        raise ValidationError("need a finite theta > 0, a finite horizon > 0, reps >= 2")
    if model_name == "brownian":
        _killed_tails(IntensityModel.brownian(mass_scale=1.0), horizon, eps)
    qs = [float(q) for q in qs]
    for q in qs:
        if not 0 < q < math.inf:
            raise ValidationError(f"q must be positive and finite, got {q}")
        if model_name == "critical-bd" and not q.is_integer():
            raise ValidationError(f"critical-bd allele sizes are integers, so q must be; got {q}")
    return qs


def _tail_spectrum_replicate(model_name: str, theta: float, horizon: float, eps: float,
                             qs: Sequence[float], rng: RandomSource) -> tuple[float, np.ndarray]:
    """Width of one killed genealogy and, per q, its number of alleles of carrier
    measure exactly q (critical-bd: unit individuals, so sizes) or at least q (brownian)."""
    gen = rng.gen
    if model_name == "critical-bd":
        model = IntensityModel.critical_bd()
        nu_top, nu_zero = model.tail(horizon), model.tail(0.0)
        n = int(gen.geometric(nu_top / nu_zero))
        heights = _tail_heights(model, gen, n - 1, nu_top, nu_zero, horizon)
        comb = Comb(float(n), horizon, np.arange(1, n, dtype=float), heights)
    else:
        comb, _ = _killed_comb(IntensityModel.brownian(mass_scale=1.0), horizon, eps, gen)
    mutations = scatter_mutations(comb, MutationMeasure.homogeneous(theta), True, rng)
    masses = np.asarray(population_spectrum(comb, mutations).masses)[:, None]
    hits = masses == np.asarray(qs) if model_name == "critical-bd" else masses >= np.asarray(qs)
    return comb.interval_length, np.count_nonzero(hits, axis=0)


def _tail_spectrum_rows(model_name: str, theta: float, qs: Sequence[float],
                        replicates: Sequence[tuple[float, np.ndarray]]) -> list[TailSpectrumRow]:
    """Ratio estimates over ``(width, counts)`` replicates against the large-horizon limits."""
    weights, counts = (np.array(column, dtype=float) for column in zip(*replicates))
    rows = []
    for j, q in enumerate(qs):
        est = counts[:, j].sum() / weights.sum()
        resid = counts[:, j] - est * weights
        se = float(np.std(resid, ddof=1) / (weights.mean() * math.sqrt(len(replicates))))
        if model_name == "critical-bd":
            target = (theta / q) * (1.0 + theta) ** (-q)
        else:
            from scipy.special import exp1  # slow to import; only this target needs it
            target = theta * float(exp1(theta * q))
        rows.append(TailSpectrumRow(q=q, estimate=float(est), stderr=se, target=target))
    return rows


def normalized_tail_spectrum(model_name: str, theta: float, horizon: float,
                             qs: Sequence[float], reps: int, rng: RandomSource,
                             eps: float = 1e-3) -> list[TailSpectrumRow]:
    """Per-capita allele counts of a killed genealogy against their
    large-horizon limits.

    Each replicate reads the carrier measures of its alleles from
    :func:`population_spectrum`.  For the critical birth-death model
    the boundary is discrete and the estimate at integer q is the
    per-individual number of alleles carried by exactly q survivors,
    with limit (theta/q)(1+theta)^-q.  For the Brownian-type model
    (intensity tail 1/x) the estimate at q is the per-unit-width number
    of alleles of carrier measure at least q, with limit
    theta E1(theta q).  Every q must be positive and finite, and an
    integer for the critical birth-death model; theta and the horizon
    must be positive and finite, and the Brownian-type model needs
    0 < eps < horizon, all checked before any draw.  Estimates are
    ratios of sums over replicates with a linearized standard error.
    """
    qs = _check_tail_spectrum(model_name, theta, horizon, eps, qs, reps)
    return _tail_spectrum_rows(model_name, theta, qs, [
        _tail_spectrum_replicate(model_name, theta, horizon, eps, qs, rng.spawn(r))
        for r in range(reps)])
