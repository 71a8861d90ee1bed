"""Allele frequency spectra: exact sampling formula, harmonic limit,
stick-breaking oracle, population spectra and their per-capita limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .comb import Comb, Partition
from .errors import ResourceError, ValidationError, _integer
from .intensity import IntensityModel
from .mutation import (MutationMeasure, MutationSet, _clade_forest, assign_alleles,
                       scatter_mutations)
from .rng import RandomSource
from .sampling import _killed_tails, _tail_heights, sample_kingman_comb

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
    """All spectra of partitions of n, as count vectors (a_1, ..., a_n);
    n is checked at the call, before the first one is asked for."""
    if _integer("n", n) < 1:
        raise ValidationError("n must be at least 1")

    def rec(remaining: int, largest: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(acc)
            return
        for part in range(min(remaining, largest), 0, -1):
            acc[part - 1] += 1
            yield from rec(remaining - part, part, acc)
            acc[part - 1] -= 1

    return rec(n, n, [0] * n)


_EXACT_LIMIT = 12


def expected_sample_spectrum(theta: float, n: int, k: int) -> float:
    """Exact mean number of alleles carried by k of n individuals, by
    exhaustive summation over integer partitions (n <= 12)."""
    n, k = _integer("n", n), _integer("k", k)
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
    if not 0 < theta < math.inf or _integer("n", n) < 1 or _integer("reps", reps) < 1:
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
    if not 0 <= theta < math.inf:
        raise ValidationError(f"theta must be nonnegative and finite, got {theta}")
    if _integer("n", n) < 1:
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
    """
    _, carriers = _carriers(comb, mutations)
    return FrequencySpectrum(masses=tuple(carriers[carriers > 0.0].tolist()))


def _carriers(comb: Comb, mutations: MutationSet) -> tuple[np.ndarray, np.ndarray]:
    """Start and carrier measure (possibly 0) of each distinct clade, in preorder.

    Clades are laminar and strictly nested clades are strictly
    shallower, so the carriers of a distinct clade are its length minus
    the lengths of its child clades, subtracted in start order (one
    ``subtract.at`` over the children in preorder); a clade repeated by
    deeper atoms on the same branch counts once.  That is the sweep's
    float arithmetic, operation for operation.
    """
    start, end, parent, _ = _clade_forest(*mutations.clade_bounds(comb))
    length = end - start
    carriers = length.copy()
    child = np.flatnonzero(parent >= 0)
    np.subtract.at(carriers, parent[child], length[child])
    return start, carriers


def gem_ranked_oracle(theta: float, depth: int, reps: int, rng: RandomSource) -> np.ndarray:
    """Ranked stick-breaking fractions: residual-fraction sticks with
    Beta(1, theta) pieces, sorted decreasing per replicate.

    This is the limit law of the ranked largest allele blocks of the
    exchangeable coalescent, used as the simulation oracle.  theta must
    be positive and finite.
    """
    if not 0 < theta < math.inf or _integer("depth", depth) < 1 or _integer("reps", reps) < 1:
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
    if (not 0 < theta < math.inf or not 0 < horizon < math.inf or theta * horizon == math.inf
            or _integer("reps", reps) < 2):
        raise ValidationError("need a finite theta > 0, a finite horizon > 0, a finite "
                              "mutation mass theta * horizon, reps >= 2")
    if model_name == "brownian":
        _killed_tails(IntensityModel.brownian(mass_scale=1.0), horizon, eps)
    qs = [float(q) for q in qs]
    for q in qs:
        if not 0 < q < math.inf:
            raise ValidationError(f"q must be positive and finite, got {q}")
        if model_name == "critical-bd" and not q.is_integer():
            raise ValidationError(f"critical-bd allele sizes are integers, so q must be; got {q}")
    return qs


_BAND_RATIO = 4.0  # between the tops of consecutive height bands in _band_comb
# population replicates drawn side by side in one comb, from one stream
_POP_BLOCK = 8


def _lay_out(widths: np.ndarray) -> tuple[np.ndarray, float]:
    """Replicates of these widths side by side after a lead gap [0, 1),
    so that every replicate's origin is a tooth of the block: the
    position where each one starts (its origin), and the block's end."""
    origins = np.cumsum(np.append(1.0, widths[:-1]))
    return origins, float(origins[-1] + widths[-1])


def _merge(at: np.ndarray, old: tuple[np.ndarray, ...], new: tuple[np.ndarray, ...]
           ) -> tuple[np.ndarray, ...]:
    """``np.insert(o, at, v)`` for each old array o and its new values v,
    for indices ``at`` sorted ascending: the new values go to ``at +
    arange(m)`` and the old ones, in order, to every other slot."""
    dest = at + np.arange(at.size)
    keep = np.ones(old[0].size + at.size, dtype=bool)
    keep[dest] = False
    merged = tuple(np.empty(keep.size, dtype=o.dtype) for o in old)
    for out, o, v in zip(merged, old, new):
        out[dest], out[keep] = v, o
    return merged


def _insert_in_regions(gen, edges: np.ndarray, hgt: np.ndarray, x: np.ndarray,
                       length: np.ndarray, h: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Teeth of heights ``h`` at uniform positions on the union of the
    disjoint intervals [x, x + length), merged into the sorted teeth
    (edges, hgt): the new positions, sorted, and the merged arrays.

    The uniforms are sorted first, so their map to positions is monotone
    and one ``searchsorted`` places them; a position that repeats another
    or meets a tooth already drawn redraws them all, up to 8 times.
    """
    cum = np.cumsum(length)
    for _ in range(8):
        u = np.sort(cum[-1] * gen.random(h.size))
        k = np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)
        new = x[k] + (u - (cum[k] - length[k]))
        at = np.minimum(np.searchsorted(edges, new), edges.size - 1)
        if np.all(edges[at] > new) and np.all(new[1:] > new[:-1]):
            return (new, *_merge(at, (edges, hgt), (new, h)))
    raise ResourceError("could not draw distinct interior positions")


def _band_comb(model: IntensityModel, measure: MutationMeasure, horizon: float, eps: float,
               size: int, gen) -> tuple[Comb, MutationSet]:
    """``size`` killed combs side by side and their rain, origins included,
    on the teeth their clades read.

    The widths are drawn first, as in ``_killed_comb``, and laid out by
    ``_lay_out``: replicate k's origin is a tooth of height ``horizon``,
    taller than every atom, that carries its origin atoms, so no clade
    crosses into the next replicate.  Teeth with and without atoms
    (probability 1 - exp(-M(h)) at height h) are independent Poisson
    processes.  On the bands [b, t) of the ladder horizon, horizon/4, ...
    down to eps, marked teeth are thinned proposals over every width.
    Unmarked ones are drawn from the top band down, only from each origin
    and each tooth with an atom shallower than t to the first tooth of
    height >= t on its right: no other one ends a clade, and the taller
    teeth there were drawn in earlier bands.
    """
    nu_top, _ = _killed_tails(model, horizon, eps)
    widths = gen.exponential(1.0 / nu_top, size)
    origins, end = _lay_out(widths)
    n_bands = math.ceil((math.log(horizon) - math.log(eps)) / math.log(_BAND_RATIO))
    tops = horizon * _BAND_RATIO ** -np.arange(n_bands + 1.0)
    tops = tops[tops > eps]
    bottoms = np.maximum(tops / _BAND_RATIO, eps)
    nu_t, nu_b, m_b = model.tail(tops), model.tail(bottoms), measure.cumulative(bottoms)
    cap = np.minimum(measure.cumulative(tops), 1.0)  # bounds 1 - exp(-M(h)) on the band
    # proposals in random order, since sorted positions take the marks in draw order
    band = gen.permutation(np.repeat(np.arange(tops.size),
                                     gen.poisson(widths.sum() * (nu_b - nu_t) * cap)))
    heights = _tail_heights(model, gen, band.size, nu_t[band], nu_b[band], tops[band])
    mass = measure.cumulative(heights)
    keep = gen.random(band.size) * cap[band] < -np.expm1(-mass)
    mark_h, mass = heights[keep], mass[keep]
    # every tooth drawn so far by position, between sentinels of infinite height at 0 and
    # end; the origins' height, the horizon, is at least every band top, so they end regions
    edges = np.concatenate(([0.0], origins, [end]))
    hgt = np.concatenate(([math.inf], np.full(size, horizon), [math.inf]))
    pos, edges, hgt = _insert_in_regions(gen, edges, hgt, origins, widths, mark_h)
    n = pos.size
    # in mass coordinates: a marked tooth's first atom, then a rain above it (origins: above 0)
    first = -np.log1p(gen.random(n) * np.expm1(-mass))
    m_lo = np.append(first, np.zeros(size))
    m_hi = np.append(mass, np.full(size, measure.cumulative(horizon)))
    more = np.repeat(np.arange(n + size), gen.poisson(np.maximum(m_hi - m_lo, 0.0)))
    branch = np.append(np.arange(n), more)
    atom_mass = np.append(first, m_lo[more] + gen.random(more.size) * (m_hi - m_lo)[more])
    depth = np.clip(measure.inverse(atom_mass), np.nextafter(0.0, 1.0),
                    np.nextafter(np.append(mark_h, np.full(size, horizon))[branch], 0.0))
    # branches by position, origins always active, and their shallowest atoms
    at = np.searchsorted(origins, pos)
    bx, bz = _merge(at, (origins, np.full(size, -math.inf)), (pos, depth[:n]))
    for top, lo, hi, shift, rate in zip(tops, nu_t, nu_b, m_b, (nu_b - nu_t) * np.exp(-m_b)):
        x, tall = bx[bz < top], edges[hgt >= top]
        stop = tall[np.searchsorted(tall, x, side="right")]  # regions share ends or are disjoint
        length = np.minimum(stop, np.append(x[1:], end)) - x
        h = _tail_heights(model, gen, gen.poisson(length.sum() * rate), lo, hi, top)
        h = h[gen.random(h.size) < np.exp(shift - measure.cumulative(h))]
        _, edges, hgt = _insert_in_regions(gen, edges, hgt, x, length, h)
    index = np.searchsorted(edges, np.append(pos, origins)) - 1  # each branch's tooth
    return (Comb(end, np.nextafter(horizon, math.inf), edges[1:-1], hgt[1:-1]),
            MutationSet(index[branch], depth))


def _critical_bd_block(measure: MutationMeasure, horizon: float, size: int,
                       rng: RandomSource) -> tuple[Comb, MutationSet]:
    """``size`` critical birth-death genealogies side by side and their rain.

    Each has a geometric number of unit individuals, laid out by
    ``_lay_out`` on one integer grid: replicate k's origin is the tooth
    of height ``horizon`` at its start, so its origin rain has mass
    M(horizon) as the origin of a single genealogy would, and the block's
    own origin, above the lead gap, carries no atom.
    """
    model, gen = IntensityModel.critical_bd(), rng.gen
    nu_top, nu_zero = model.tail(horizon), model.tail(0.0)
    origins, end = _lay_out(gen.geometric(nu_top / nu_zero, size).astype(float))
    heights = np.full(int(end) - 1, horizon)  # the teeth at 1, 2, ..., end - 1
    inner = np.ones(heights.size, dtype=bool)
    inner[origins.astype(np.int64) - 1] = False
    heights[inner] = _tail_heights(model, gen, heights.size - size, nu_top, nu_zero, horizon)
    comb = Comb(end, np.nextafter(horizon, math.inf), np.arange(1.0, end), heights)
    return comb, scatter_mutations(comb, measure, False, rng)


def _tail_spectrum_block(model_name: str, theta: float, horizon: float, eps: float,
                         qs: Sequence[float], size: int, rng: RandomSource
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Widths of ``size`` killed genealogies drawn as one block and, per
    replicate (rows) and q, their numbers of alleles of carrier measure
    exactly q (critical-bd: unit individuals, so sizes) or at least q
    (brownian).  Replicate k starts at the k-th tooth of height
    ``horizon``, and one clade pass serves the block: each clade belongs
    to the replicate its start lies in."""
    measure = MutationMeasure.homogeneous(theta)
    if model_name == "critical-bd":
        comb, mutations = _critical_bd_block(measure, horizon, size, rng)
    else:
        comb, mutations = _band_comb(IntensityModel.brownian(1.0), measure, horizon, eps,
                                     size, rng.gen)
    origins = comb.positions[comb.heights == horizon]
    start, carriers = _carriers(comb, mutations)
    qs = np.asarray(qs)
    hits = carriers[:, None] == qs if model_name == "critical-bd" else carriers[:, None] >= qs
    clade, col = np.nonzero(hits)
    rep = np.searchsorted(origins, start[clade], side="right") - 1
    counts = np.bincount(rep * qs.size + col, minlength=size * qs.size).reshape(size, qs.size)
    return np.diff(np.append(origins, comb.interval_length)), counts


def _tail_spectrum_blocks(model_name: str, theta: float, horizon: float, eps: float,
                          qs: Sequence[float], reps: int, rng: RandomSource,
                          replicates: range) -> list[tuple[np.ndarray, np.ndarray]]:
    """The blocks of ``reps`` replicates that start in ``replicates``:
    block b holds replicates ``b * _POP_BLOCK`` onward, ``_POP_BLOCK`` of
    them or the rest, drawn from ``rng.spawn(b)``.  Ranges that tile
    ``range(reps)`` draw every block once, wherever they are cut."""
    starts = replicates[-replicates.start % _POP_BLOCK::_POP_BLOCK]
    return [_tail_spectrum_block(model_name, theta, horizon, eps, qs,
                                 min(_POP_BLOCK, reps - r), rng.spawn(r // _POP_BLOCK))
            for r in starts]


def _tail_spectrum_rows(model_name: str, theta: float, qs: Sequence[float],
                        blocks: Sequence[tuple[np.ndarray, np.ndarray]]) -> list[TailSpectrumRow]:
    """Ratio estimates over the ``(widths, counts)`` of blocks of replicates
    against the large-horizon limits."""
    weights, counts = (np.concatenate(column) for column in zip(*blocks))
    rows = []
    for j, q in enumerate(qs):
        est = counts[:, j].sum() / weights.sum()
        resid = counts[:, j] - est * weights
        se = float(np.std(resid, ddof=1) / (weights.mean() * math.sqrt(weights.size)))
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

    Replicates are drawn in blocks of ``_POP_BLOCK``, side by side in one
    comb, and read the carrier measures of their alleles through the
    clade pass of :func:`population_spectrum`.  For the critical
    birth-death model the boundary is discrete and the estimate at
    integer q is the per-individual number of alleles carried by exactly
    q survivors, with limit (theta/q)(1+theta)^-q.  For the Brownian-type model
    (intensity tail 1/x) the estimate at q is the per-unit-width number
    of alleles of carrier measure at least q, with limit
    theta E1(theta q).  Every q must be positive and finite, and an
    integer for the critical birth-death model; theta and the horizon
    must be positive and finite, and the Brownian-type model needs
    0 < eps < horizon, all checked before any draw.  Estimates are
    ratios of sums over replicates with a linearized standard error.
    """
    qs = _check_tail_spectrum(model_name, theta, horizon, eps, qs, reps)
    return _tail_spectrum_rows(model_name, theta, qs, _tail_spectrum_blocks(
        model_name, theta, horizon, eps, qs, reps, rng, range(reps)))
