"""The scale-function solver, intensity models, and time changes."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from ultracomb import (Comb, ExponentialLifetime, Immortal, IntensityModel, NumericError,
                       PopulationModel, TimeChange, ValidationError, ball_partition,
                       cpp_intensity_from_pure_birth, CustomLifetime,
                       FixedLifetime, RandomSource, mutation_rate_pushforward,
                       sample_cpp, sample_cpp_fixed_width,
                       solve_scale_function, time_change_comb, MutationMeasure)

from conftest import random_comb
from reference_intensity import reference_solve

IDENTITY = TimeChange(lambda x: x, lambda x: x)


# ----------------------------------------------------------------------
# solver closed forms

def test_yule_closed_form():
    # immortal individuals: W' = b W, so W(t) = e^{bt}
    sol = solve_scale_function(PopulationModel(1.0), 1.0, 10_000)
    assert sol.values[0] == 1.0
    assert abs(sol.values[-1] - math.e) / math.e < 1e-6
    assert np.all(np.diff(sol.values) >= 0)


def test_critical_bd_closed_form():
    # unit birth and death rates: W(t) = 1 + t
    sol = solve_scale_function(PopulationModel(1.0, ExponentialLifetime(1.0)), 1.0, 10_000)
    err = np.abs(sol.values - (1.0 + sol.times)).max()
    assert err / 2.0 < 1e-6


def test_initial_condition_exact():
    for model in (PopulationModel(0.7), PopulationModel(2.0, ExponentialLifetime(0.5))):
        sol = solve_scale_function(model, 3.0, 64)
        assert sol.values[0] == 1.0


def test_convergence_order_at_least_one():
    errs = []
    for steps in (250, 500, 1000):
        sol = solve_scale_function(PopulationModel(1.0), 1.0, steps)
        errs.append(abs(sol.values[-1] - math.e))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 1.0


def test_fixed_lifetime_delay_term():
    # fixed lifetime ell turns the convolution into the delayed value
    # W(t - ell); for ell >= horizon it never kicks in, matching pure birth
    long_lived = PopulationModel(1.0, FixedLifetime(5.0))
    sol = solve_scale_function(long_lived, 1.0, 2000)
    assert abs(sol.values[-1] - math.e) / math.e < 1e-5
    short = solve_scale_function(PopulationModel(1.0, FixedLifetime(0.25)), 1.0, 2000)
    assert short.values[-1] < sol.values[-1]  # deaths slow the growth down


def test_custom_lifetime_matches_exponential():
    dens = CustomLifetime(lambda t, u: np.exp(-np.maximum(np.asarray(u) - t, 0.0))
                          * (np.asarray(u) >= t))
    got = solve_scale_function(PopulationModel(1.0, dens), 1.0, 400)
    want = solve_scale_function(PopulationModel(1.0, ExponentialLifetime(1.0)), 1.0, 400)
    assert np.abs(got.values - want.values).max() < 1e-6


def test_bad_density_raises_numeric_error():
    bad = CustomLifetime(lambda t, u: np.full_like(np.asarray(u, dtype=float), np.inf))
    with pytest.raises(NumericError):
        solve_scale_function(PopulationModel(1.0, bad), 1.0, 64)


def test_solver_validation():
    with pytest.raises(ValidationError):
        solve_scale_function(PopulationModel(1.0), 1.0, 8)  # too few steps
    with pytest.raises(ValidationError):
        solve_scale_function(PopulationModel(1.0), -1.0, 64)
    for horizon in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="finite"):
            solve_scale_function(PopulationModel(1.0), horizon, 64)
    # 16.5 used to run on a 17-point grid
    for steps in (16.5, 64.0, True, "64"):
        with pytest.raises(ValidationError, match="steps must be an integer"):
            solve_scale_function(PopulationModel(1.0), 1.0, steps)
    assert solve_scale_function(PopulationModel(1.0), 1.0, np.int64(64)).times.size == 65


def test_birth_rate_checks():
    with pytest.raises(NumericError, match="finite and nonnegative"):
        solve_scale_function(PopulationModel(math.nan, ExponentialLifetime(1.0)), 1.0, 64)
    with pytest.raises(NumericError, match="finite and nonnegative"):
        solve_scale_function(PopulationModel(lambda s: -1.0), 1.0, 64)
    with pytest.raises(NumericError, match="evaluation failed"):
        solve_scale_function(PopulationModel(lambda s: math.log(s - 5.0)), 1.0, 64)


# ----------------------------------------------------------------------
# the solver against the step-by-step loop (tests/reference_intensity.py)

SCAN_BIRTH_RATES = [0.1, 0.6, 1.3, 1.9, 2.5, lambda s: 1.0 + 0.5 * math.sin(3.0 * s)]


@pytest.mark.parametrize("life", [Immortal(), ExponentialLifetime(0.5),
                                  ExponentialLifetime(1.0), ExponentialLifetime(3.0)],
                         ids=["immortal", "exp0.5", "exp1", "exp3"])
def test_scan_matches_loop(life):
    # immortal and exponential lifetimes are solved by a prefix-product scan
    for b, horizon, steps in itertools.product(SCAN_BIRTH_RATES, (0.5, 1.5, 2.5, 3.5),
                                               (16, 17, 1000, 4000, 10_000)):
        model = PopulationModel(b, life)
        times, want = reference_solve(model, horizon, steps)
        got = solve_scale_function(model, horizon, steps)
        assert np.array_equal(got.times, times)
        assert got.values[0] == 1.0
        np.testing.assert_allclose(got.values, want, rtol=1e-11, atol=0.0)
        rising = np.diff(want) >= 0
        assert np.all(np.diff(got.values)[rising] >= 0)


def _exponential_density(t, u):
    u = np.asarray(u)
    return 0.8 * np.exp(-0.8 * np.maximum(u - t, 0.0)) * (u >= t)


@pytest.mark.parametrize("life", [FixedLifetime(0.3), FixedLifetime(1.0), FixedLifetime(5.0),
                                  CustomLifetime(_exponential_density)],
                         ids=["fixed0.3", "fixed1", "fixed5", "custom"])
def test_loop_lifetimes_are_bit_identical(life):
    for b, horizon, steps in itertools.product([0.7, 2.0, SCAN_BIRTH_RATES[-1]], (1.0, 2.5),
                                               (16, 17, 400)):
        model = PopulationModel(b, life)
        assert np.array_equal(solve_scale_function(model, horizon, steps).values,
                              reference_solve(model, horizon, steps)[1])


def test_nonpositive_w_reported_like_the_loop():
    model = PopulationModel(50.0, ExponentialLifetime(1000.0))
    with pytest.raises(NumericError) as want:
        reference_solve(model, 1.0, 16)
    with pytest.raises(NumericError) as got:
        solve_scale_function(model, 1.0, 16)
    assert str(got.value) == str(want.value)


def _reported_t(excinfo) -> float:
    return float(re.search(r"at t=(\S+) ", str(excinfo.value)).group(1))


def test_overflow_raises_without_warning():
    # the loop overflows early in its intermediate b*W and warns; the scan
    # overflows in W itself, so it may report a later grid point
    model = PopulationModel(400.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericError) as want:
            reference_solve(model, 2.0, 4000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as got:
            solve_scale_function(model, 2.0, 4000)
    assert _reported_t(want) <= _reported_t(got) <= _reported_t(want) + 0.02 * 2.0
    # the lifetimes that still step one point at a time report exactly as before
    fixed = PopulationModel(400.0, FixedLifetime(5.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericError) as want:
            reference_solve(fixed, 2.0, 4000)
        with pytest.raises(NumericError) as got:
            solve_scale_function(fixed, 2.0, 4000)
    assert str(got.value) == str(want.value)


# ----------------------------------------------------------------------
# intensity models

def test_intensity_tail_round_trips():
    xs = [0.01, 0.1, 0.5, 1.0, 5.0]
    IntensityModel.brownian().validate_on(xs)
    IntensityModel.critical_bd().validate_on(xs)
    sol = solve_scale_function(PopulationModel(1.0), 1.0, 1000)
    grid_model = IntensityModel.from_scale_grid(sol.times, sol.values)
    grid_model.validate_on([0.1, 0.4, 0.9])
    assert grid_model.support_top == 1.0
    # 1/W from the solver tracks the pure-birth closed form e^{-bt}
    assert grid_model.tail(0.5) == pytest.approx(math.exp(-0.5), rel=1e-6)


def test_scale_grid_tail_is_one_over_w():
    sol = solve_scale_function(PopulationModel(1.0, ExponentialLifetime(1.0)), 2.0, 500)
    model = IntensityModel.from_scale_grid(sol.times, sol.values)
    for t in (0.0, 0.7, 1.3, 2.0):
        assert model.tail(t) == pytest.approx(1.0 / (1.0 + t), rel=1e-5)


# ----------------------------------------------------------------------
# time changes

def test_time_change_identity():
    gen = np.random.default_rng(300)
    c = random_comb(gen, min_teeth=1)
    assert time_change_comb(c, IDENTITY) == c


def test_time_change_round_trip_exact():
    gen = np.random.default_rng(301)
    up = TimeChange(np.sqrt, np.square)
    down = TimeChange(np.square, np.sqrt)
    for _ in range(25):
        c = random_comb(gen, min_teeth=1)
        back = time_change_comb(time_change_comb(c, up), down)
        assert np.abs(back.heights - c.heights).max() <= 1e-12 * c.heights.max()
        assert back.positions is not None and np.array_equal(back.positions, c.positions)


def test_time_change_takes_a_scalar_only_map():
    # math.log1p rejects arrays, so the change is applied height by height
    change = TimeChange(lambda t: math.log1p(t), lambda y: math.expm1(y))
    mapped = time_change_comb(Comb(1.0, 3.0, [0.25, 0.5], [1.0, 2.0]), change)
    assert mapped.heights.tolist() == [math.log1p(1.0), math.log1p(2.0)]
    assert mapped.heights.tolist() == pytest.approx([0.6931471805599453, 1.0986122886681098])
    assert mapped.origin_height == math.log1p(3.0)
    # one tooth: numpy would convert a 1-element array with a DeprecationWarning
    assert time_change_comb(Comb(1.0, 3.0, [0.5], [1.0]), change).heights.tolist() == [
        math.log1p(1.0)]


def test_time_change_rejects_decreasing():
    gen = np.random.default_rng(302)
    c = random_comb(gen, min_teeth=2)
    with pytest.raises(ValidationError):
        time_change_comb(c, TimeChange.exponential_decay(1.0))


def test_time_change_preserves_ball_structure():
    # partition at radius 2r equals the transformed partition at 2 psi(r)
    gen = np.random.default_rng(303)
    psi = TimeChange(lambda h: h + h * h,
                     lambda y: 0.5 * (-1 + np.sqrt(1 + 4 * y)))
    for _ in range(25):
        c = random_comb(gen, min_teeth=2)
        c2 = time_change_comb(c, psi)
        pts = gen.random(8) * c.interval_length
        r = float(gen.random() * c.origin_height + 1e-6)
        assert ball_partition(c, pts, 2 * r) == ball_partition(c2, pts, 2 * float(psi.forward(r)))


def test_pure_birth_intensity_tail():
    # constant birth rate b with the exponential depth change gives the
    # power-law tail 1/t on (0, 1]
    b = 1.3
    model = cpp_intensity_from_pure_birth(lambda t: b * t,
                                          TimeChange.exponential_decay(b), 1.0)
    for t in (0.05, 0.2, 0.5, 1.0):
        assert model.tail(t) == pytest.approx(1.0 / t, rel=1e-12)
        assert model.tail_inverse(model.tail(t)) == pytest.approx(t, rel=1e-9)


def test_pure_birth_intensity_is_samplable():
    # the samplers evaluate tail and tail_inverse on arrays
    model = cpp_intensity_from_pure_birth(lambda t: t, TimeChange.exponential_decay(1.0), 1.0)
    ys = np.array([1.0, 1.5, 3.0, 9.0])
    assert np.array_equal(model.tail_inverse(ys), [model.tail_inverse(float(y)) for y in ys])
    ts = np.array([0.1, 0.5, 1.0])
    assert np.array_equal(model.tail(ts), [model.tail(float(t)) for t in ts])
    cpp = sample_cpp(model, 1.0, 0.1, RandomSource(5))
    assert cpp.comb.n_teeth > 0
    assert np.all((cpp.comb.heights > 0.1) & (cpp.comb.heights < 1.0))
    window = sample_cpp_fixed_width(model, 1.0, 0.1, RandomSource(5))
    assert window.n_teeth > 0
    assert np.all((window.heights > 0.1) & (window.heights < 1.0))


def test_fixed_width_window_on_a_finite_support():
    # tail 1/t on (0, 1]: a window of width 50 above eps = 0.1 holds
    # Poisson(50 (tail(0.1) - tail(1))) = Poisson(450) teeth, all below 1
    model = cpp_intensity_from_pure_birth(lambda t: t, TimeChange.exponential_decay(1.0), 1.0)
    counts = []
    for seed in range(200):
        window = sample_cpp_fixed_width(model, 50.0, 0.1, RandomSource(seed))
        assert np.all((window.heights >= 0.1) & (window.heights < model.support_top)), seed
        counts.append(window.n_teeth)
    assert abs(np.mean(counts) - 450.0) < 4.0 * math.sqrt(450.0 / 200)


# ----------------------------------------------------------------------
# measure pushforwards

def test_pushforward_identity():
    pf = mutation_rate_pushforward(MutationMeasure.homogeneous(2.0), IDENTITY)
    assert pf.mass(0.25, 1.5) == pytest.approx(2.0 * 1.25)


def test_pushforward_exponential_decay():
    # Lebesgue mass theta through t -> e^{-at}: mass((x, 1]) = -(theta/a) ln x
    theta, a = 3.0, 2.0
    pf = mutation_rate_pushforward(MutationMeasure.homogeneous(theta),
                                   TimeChange.exponential_decay(a))
    for x in (0.1, 0.3, 0.9):
        assert pf.mass(x, 1.0) == pytest.approx(-(theta / a) * math.log(x))
        assert pf.density(x) == pytest.approx(theta / (a * x), rel=1e-4)


def test_pushforward_finite_mass_constant_rate():
    # a finite measure through its own normalized tail becomes the
    # constant clock on (0, 1]
    theta = 2.5
    cumulative = lambda t: theta * (1.0 - math.exp(-float(t)))  # noqa: E731
    change = TimeChange(
        lambda t: math.exp(-float(t)),            # theta^{-1} * tail mass
        lambda y: -math.log(float(y)))
    pf = mutation_rate_pushforward(cumulative, change)
    for x, xp in ((0.1, 0.4), (0.2, 1.0), (0.9, 0.95)):
        assert pf.mass(x, xp) == pytest.approx(theta * (xp - x))


def test_pushforward_rejects_decreasing_cumulative():
    with pytest.raises(ValidationError):
        mutation_rate_pushforward(lambda t: -t, IDENTITY)
