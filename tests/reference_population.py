"""Reference oracle for population replicates.

``full_brownian_rain`` is the Brownian-type replicate as it was drawn
before the band sampler: every tooth of the killed comb, and a Poisson
rain on every branch.  ``pruned`` is the rule the band sampler rests
on: a population spectrum reads only the teeth that carry an atom and
the teeth that end some atom's clade.
"""

from __future__ import annotations

import numpy as np

from ultracomb import (ORIGIN_BRANCH, Comb, IntensityModel, MutationMeasure, MutationSet,
                       RandomSource, population_spectrum, scatter_mutations)
from ultracomb.sampling import _killed_comb, _tail_heights


def full_brownian_rain(theta: float, horizon: float, eps: float,
                       rng: RandomSource) -> tuple[Comb, MutationSet]:
    """The full killed comb of tail 1/x and a rain of mass theta per unit
    depth on all its branches, origin included."""
    comb, _ = _killed_comb(IntensityModel.brownian(mass_scale=1.0), horizon, eps, rng.gen)
    return comb, scatter_mutations(comb, MutationMeasure.homogeneous(theta), True, rng)


def critical_bd_rain(theta: float, horizon: float, rng: RandomSource) -> tuple[Comb, MutationSet]:
    """The critical birth-death replicate's unit-spaced comb and its rain."""
    model, gen = IntensityModel.critical_bd(), rng.gen
    nu_top, nu_zero = model.tail(horizon), model.tail(0.0)
    n = int(gen.geometric(nu_top / nu_zero))
    heights = _tail_heights(model, gen, n - 1, nu_top, nu_zero, horizon)
    comb = Comb(float(n), horizon, np.arange(1, n, dtype=float), heights)
    return comb, scatter_mutations(comb, MutationMeasure.homogeneous(theta), True, rng)


def pruned(comb: Comb, ms: MutationSet) -> tuple[Comb, MutationSet]:
    """The comb cut down to the teeth that carry an atom or are some atom's
    clade stop, with the atoms moved to their teeth's new indices."""
    tooth = ms.branch != ORIGIN_BRANCH
    stop = comb.next_taller_batch(np.where(tooth, ms.branch + 1, 0), ms.depth)
    keep = np.zeros(comb.n_teeth + 1, dtype=bool)  # the last slot takes "no stop"
    keep[ms.branch[tooth]] = True
    keep[stop] = True
    keep = keep[:-1]
    index = np.cumsum(keep) - 1
    branch = np.where(tooth, index[np.maximum(ms.branch, 0)], ORIGIN_BRANCH)
    return (Comb(comb.interval_length, comb.origin_height, comb.positions[keep],
                 comb.heights[keep]), MutationSet(branch, ms.depth))


def replicate_statistics(comb: Comb, ms: MutationSet, qs: np.ndarray) -> list[float]:
    """Width, allele count, alleles of carrier mass >= q per q, and summed carrier mass."""
    masses = np.asarray(population_spectrum(comb, ms).masses)
    return [comb.interval_length, masses.size, *(masses[:, None] >= qs).sum(axis=0),
            masses.sum()]
