"""Reference oracle for population replicates.

``full_brownian_rain`` is the Brownian-type replicate as it was drawn
before the band sampler: every tooth of the killed comb, and a Poisson
rain on every branch.  ``pruned`` is the rule the band sampler rests
on: a population spectrum reads only the teeth that carry an atom and
the teeth that end some atom's clade.  ``split_block`` cuts a block of
replicates drawn side by side back into single replicates.
"""

from __future__ import annotations

import numpy as np

from ultracomb import (ORIGIN_BRANCH, Comb, IntensityModel, MutationMeasure, MutationSet,
                       RandomSource, population_spectrum, scatter_mutations)
from ultracomb.sampling import _distinct_uniforms, _killed_comb, _tail_heights


def full_brownian_rain(theta: float, horizon: float, eps: float, rng: RandomSource,
                       width: float | None = None) -> tuple[Comb, MutationSet]:
    """The full killed comb of tail 1/x and a rain of mass theta per unit
    depth on all its branches, origin included.  Given a width, the comb
    is drawn on it: its teeth are a Poisson process on that width."""
    model = IntensityModel.brownian(mass_scale=1.0)
    if width is None:
        comb, _ = _killed_comb(model, horizon, eps, rng.gen)
    else:
        nu_top, nu_eps = model.tail(horizon), model.tail(eps)
        heights = _tail_heights(model, rng.gen, rng.gen.poisson(width * (nu_eps - nu_top)),
                                nu_top, nu_eps, horizon)
        positions, = _distinct_uniforms(rng.gen, heights.size, width)
        comb = Comb(width, horizon, positions, heights)
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


def split_block(comb: Comb, ms: MutationSet, horizon: float) -> list[tuple[Comb, MutationSet]]:
    """The single replicates of a block.  Replicate k runs from the k-th
    tooth of height ``horizon`` (its origin) to the next one or the end;
    it becomes a comb of height ``horizon`` on [0, its width], whose
    origin branch takes the atoms of that tooth.  The block's own origin
    must carry no atom."""
    assert not np.any(ms.branch == ORIGIN_BRANCH)
    origins = np.flatnonzero(comb.heights == horizon)
    out = []
    for o, stop in zip(origins, np.append(origins[1:], comb.n_teeth)):
        x0 = comb.positions[o]
        end = comb.positions[stop] if stop < comb.n_teeth else comb.interval_length
        mine = (ms.branch >= o) & (ms.branch < stop)
        branch = np.where(ms.branch[mine] == o, ORIGIN_BRANCH, ms.branch[mine] - o - 1)
        out.append((Comb(end - x0, horizon, comb.positions[o + 1:stop] - x0,
                         comb.heights[o + 1:stop]), MutationSet(branch, ms.depth[mine])))
    return out
