"""Error paths that no other in-process test reaches: each bad call, the
exception it raises and its whole message, one row each."""

import math
import re

import numpy as np
import pytest

from ultracomb import (BoundaryPoint, Comb, ContourFunction, FrequencySpectrum,
                       IntensityModel, MutationMeasure, RandomSource, TimeChange, ValidationError,
                       comb_from_ultrametric, comb_to_tree, expected_sample_spectrum,
                       integer_partition_counts, normalized_tail_spectrum, padic_comb,
                       reduce_population_tree, rescale_comb, sample_cpp_fixed_width,
                       sphere_comb_from_contour, time_change_comb, unrescale_comb,
                       validate_ultrametric)
from ultracomb.intensity import mutation_rate_pushforward

PAIR = [[0.0, 1.0], [1.0, 0.0]]
COMB = Comb(1.0, 2.0, [0.25, 0.75], [0.5, 0.8])
# a tail known up to 1.0: a grid model's support top
GRID = IntensityModel.from_scale_grid([0.0, 1.0], [1.0, 2.0])


def _contour(times, before, after):
    return ContourFunction(tuple(times), tuple(before), tuple(after))


CASES = [
    ("comb-origin-zero", lambda: Comb(1.0, 0.0), "origin_height must be positive, got 0.0"),
    ("comb-origin-negative", lambda: Comb(1.0, -1.0), "origin_height must be positive, got -1.0"),
    ("comb-unequal-shapes", lambda: Comb(1.0, 2.0, [0.5], [0.5, 0.6]),
     "positions and heights must be 1-d arrays of equal length"),
    ("ultrametric-not-square", lambda: validate_ultrametric(np.zeros((2, 3))),
     "distance matrix must be square"),
    ("ultrametric-empty", lambda: validate_ultrametric(np.zeros((0, 0))),
     "distance matrix must contain at least one point"),
    ("masses-wrong-length", lambda: comb_from_ultrametric(PAIR, [1.0]),
     "masses must match the number of points"),
    ("masses-nonpositive", lambda: comb_from_ultrametric(PAIR, [1.0, 0.0]),
     "masses must be positive and finite"),
    ("boundary-point-face", lambda: BoundaryPoint(0.5, "up"),
     "face must be 'left' or 'right', got 'up'"),
    ("boundary-point-negative", lambda: BoundaryPoint(-0.5),
     "position must be nonnegative, got -0.5"),
    ("boundary-point-nan", lambda: BoundaryPoint(math.nan),
     "position must be nonnegative, got nan"),
    ("contour-empty", lambda: _contour([], [], []), "a contour needs at least one jump"),
    ("contour-unequal", lambda: _contour([0.0], [0.0, 1.0], [1.0]),
     "times, before and after must have equal length"),
    ("contour-not-finite", lambda: _contour([0.0], [0.0], [math.inf]),
     "contour breakpoints must be finite"),
    ("contour-negative-time", lambda: _contour([-1.0], [0.0], [1.0]),
     "jump times must be nonnegative"),
    ("contour-negative-value", lambda: _contour([0.0], [-1.0], [1.0]),
     "contour values must be nonnegative"),
    ("sphere-level-zero",
     lambda: sphere_comb_from_contour(ContourFunction.from_jumps([(0.0, 1.0)]), 0.0),
     "level must be positive"),
    ("grid-shape", lambda: IntensityModel.from_scale_grid([0.0], [1.0]),
     "grid model needs matching 1-d arrays of length >= 2"),
    ("grid-times", lambda: IntensityModel.from_scale_grid([0.0, 0.0], [1.0, 2.0]),
     "grid times must be increasing"),
    ("grid-values", lambda: IntensityModel.from_scale_grid([0.0, 1.0], [0.0, 1.0]),
     "scale values must be positive"),
    ("grid-nan-time",
     lambda: IntensityModel.from_scale_grid([0.0, math.nan, 2.0], [1.0, 2.0, 3.0]),
     "grid times and scale values must be finite"),
    ("grid-nan-value",
     lambda: IntensityModel.from_scale_grid([0.0, 1.0, 2.0], [1.0, math.nan, 3.0]),
     "grid times and scale values must be finite"),
    ("grid-infinite-value", lambda: IntensityModel.from_scale_grid([0.0, 1.0], [1.0, math.inf]),
     "grid times and scale values must be finite"),
    ("grid-decreasing", lambda: IntensityModel.from_scale_grid([0.0, 1.0], [2.0, 1.0]),
     "scale grid is not nondecreasing; 1/W would not be a tail"),
    ("tail-increasing",
     lambda: IntensityModel("up", lambda x: x, lambda y: y).validate_on([1.0, 2.0]),
     "intensity tail is not nonincreasing"),
    ("tail-inverse",
     lambda: IntensityModel("bad", lambda x: 1.0 / x, lambda y: 2.0 / y).validate_on([1.0, 2.0]),
     "intensity tail round-trip failed at 1.0: got 2.0"),
    ("time-change-inverse",
     lambda: TimeChange(lambda x: 2.0 * x, lambda y: y).validate_on([1.0]),
     "time change round-trip failed at 1.0: got 2.0"),
    ("measure-decreasing",
     lambda: MutationMeasure(lambda t: -t, lambda y: -y).validate_on([1.0, 2.0]),
     "mutation measure must be nondecreasing"),
    ("measure-inverse",
     lambda: MutationMeasure(lambda t: t, lambda y: 2.0 * y).validate_on([1.0]),
     "mutation measure inverse inconsistent at 1.0"),
    ("time-change-nonpositive",
     lambda: time_change_comb(COMB, TimeChange(lambda x: x - 1.0, lambda y: y + 1.0)),
     "time change must keep depths positive"),
    ("time-change-reaches-origin",
     lambda: time_change_comb(COMB, TimeChange(lambda x: np.minimum(x, 0.5), lambda y: y)),
     "time change is not monotone increasing up to the origin height"),
    ("pushforward-interval",
     lambda: mutation_rate_pushforward(MutationMeasure.homogeneous(1.0),
                                       TimeChange.identity()).mass(2.0, 1.0),
     "need 0 <= a <= b"),
    ("pushforward-not-callable", lambda: mutation_rate_pushforward(3.0, TimeChange.identity()),
     "measure must be callable or expose a cumulative callable"),
    ("spectrum-negative-count", lambda: FrequencySpectrum(counts=(1, -1)),
     "spectrum counts must be nonnegative"),
    ("population-sample-size", lambda: FrequencySpectrum(masses=(0.5,)).sample_size,
     "population spectra have no sample size"),
    ("partitions-of-zero", lambda: integer_partition_counts(0), "n must be at least 1"),
    ("partitions-of-float", lambda: integer_partition_counts(2.5),
     "n must be an integer, got 2.5"),
    ("partitions-of-integral-float", lambda: integer_partition_counts(3.0),
     "n must be an integer, got 3.0"),
    ("partitions-of-bool", lambda: integer_partition_counts(True),
     "n must be an integer, got True"),
    ("expected-k-above-n", lambda: expected_sample_spectrum(1.0, 3, 4), "need 1 <= k <= n"),
    ("expected-n-float", lambda: expected_sample_spectrum(1.0, 3.0, 1),
     "n must be an integer, got 3.0"),
    ("expected-k-float", lambda: expected_sample_spectrum(1.0, 3, 1.5),
     "k must be an integer, got 1.5"),
    ("newick-digits-negative", lambda: comb_to_tree(COMB).newick(-1),
     "digits must be nonnegative, got -1"),
    ("newick-digits-float", lambda: comb_to_tree(COMB).newick(1.5),
     "digits must be an integer, got 1.5"),
    ("padic-depth-zero", lambda: padic_comb(2, 0), "depth must be at least 1"),
    ("rescale-eps-zero", lambda: rescale_comb(COMB, 0.0), "eps must be in (0, 1]"),
    ("rescale-eps-above-one", lambda: rescale_comb(COMB, 1.5), "eps must be in (0, 1]"),
    ("unrescale-eps-zero", lambda: unrescale_comb(COMB, 0.0), "eps must be in (0, 1]"),
    ("unrescale-eps-above-one", lambda: unrescale_comb(COMB, 1.5), "eps must be in (0, 1]"),
    ("reduce-horizon-zero", lambda: reduce_population_tree(comb_to_tree(COMB), 0.0),
     "horizon must be positive"),
    ("tail-spectrum-reps-float",
     lambda: normalized_tail_spectrum("brownian", 1.0, 10.0, [1.0], 2.5, RandomSource(1)),
     "reps must be an integer, got 2.5"),
    ("tail-spectrum-reps-integral-float",
     lambda: normalized_tail_spectrum("critical-bd", 1.0, 10.0, [1.0], 3.0, RandomSource(1)),
     "reps must be an integer, got 3.0"),
    ("tail-spectrum-mass-overflow",
     lambda: normalized_tail_spectrum("brownian", 1e308, 50.0, [1.0], 2, RandomSource(1)),
     "need a finite theta > 0, a finite horizon > 0, a finite mutation mass theta * horizon, "
     "reps >= 2"),
    ("window-eps-at-support-top",
     lambda: sample_cpp_fixed_width(GRID, 1.0, 1.0, RandomSource(1)),
     "need 0 <= eps < support_top"),
]


@pytest.mark.parametrize("call, message", [(c, m) for _, c, m in CASES],
                         ids=[name for name, _, _ in CASES])
def test_error_path_raises_its_message(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
