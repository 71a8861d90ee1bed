"""Coalescent intensity measures, population models, and time changes.

An :class:`IntensityModel` wraps the tail function ``nu_tail(x)`` of a
coalescent point process intensity with its inverse, which is all the
samplers and closed-form checks need.  :func:`solve_scale_function`
integrates the reduced-genealogy equation for a population model and
returns the grid of ``W`` values whose reciprocal is the intensity
tail.  Time changes rescale depth axes of combs and push mutation
measures between depth scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .comb import Comb
from .errors import NumericError, ResourceError, ValidationError, _integer

__all__ = [
    "Immortal",
    "ExponentialLifetime",
    "FixedLifetime",
    "CustomLifetime",
    "parse_lifetime",
    "PopulationModel",
    "IntensityModel",
    "ScaleSolution",
    "solve_scale_function",
    "TimeChange",
    "time_change_comb",
    "mutation_rate_pushforward",
    "cpp_intensity_from_pure_birth",
]


# ----------------------------------------------------------------------
# lifetimes

@dataclass(frozen=True)
class Immortal:
    """Individuals never die; the death-density term vanishes."""

    def sample_death(self, birth: float, gen) -> float:
        return math.inf


@dataclass(frozen=True)
class ExponentialLifetime:
    rate: float

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ValidationError("exponential lifetime rate must be positive and finite")

    def sample_death(self, birth: float, gen) -> float:
        return birth + gen.exponential(1.0 / self.rate)


@dataclass(frozen=True)
class FixedLifetime:
    length: float

    def __post_init__(self):
        if not self.length > 0:
            raise ValidationError("fixed lifetime length must be positive")

    def sample_death(self, birth: float, gen) -> float:
        return birth + self.length


@dataclass(frozen=True)
class CustomLifetime:
    """Arbitrary death-time density g(birth, death); not samplable.

    ``density`` must accept a scalar birth time and a numpy array of
    death times.
    """

    density: Callable[[float, np.ndarray], np.ndarray]

    def sample_death(self, birth: float, gen) -> float:
        raise ValidationError("custom lifetime densities cannot be simulated, only solved")


Lifetime = Immortal | ExponentialLifetime | FixedLifetime | CustomLifetime


def parse_lifetime(spec: str) -> Lifetime:
    """Parse 'immortal', 'exponential(r)' or 'fixed(l)'."""
    s = spec.strip().lower()
    if s == "immortal":
        return Immortal()
    for name, cls in (("exponential", ExponentialLifetime), ("fixed", FixedLifetime)):
        if s.startswith(name + "(") and s.endswith(")"):
            try:
                return cls(float(s[len(name) + 1:-1]))
            except ValueError as exc:
                raise ValidationError(f"bad lifetime parameter in {spec!r}") from exc
    raise ValidationError(f"unknown lifetime spec {spec!r}")


@dataclass(frozen=True)
class PopulationModel:
    """Birth rate (density of the birth measure) plus a lifetime law."""

    birth_rate: float | Callable[[float], float]
    lifetime: Lifetime = field(default_factory=Immortal)

    def __post_init__(self):
        # a NaN constant is left to the solver's grid check, like a NaN-valued callable
        if isinstance(self.birth_rate, (int, float)) and (self.birth_rate <= 0
                                                          or math.isinf(self.birth_rate)):
            raise ValidationError("birth rate must be positive and finite")

    def birth_rate_at(self, t):
        if callable(self.birth_rate):
            return self.birth_rate(t)
        return self.birth_rate


# ----------------------------------------------------------------------
# intensity models

_SPOT_CHECK_RTOL = 1e-9  # relative tolerance of every validate_on spot check


def _roundtrip_check(forward, backward, points, what):
    for x in points:
        y = forward(x)
        if not math.isfinite(y):
            continue
        back = backward(y)
        if abs(back - x) > _SPOT_CHECK_RTOL * max(abs(x), 1e-300):
            raise ValidationError(f"{what} round-trip failed at {x}: got {back}")


@dataclass(frozen=True)
class IntensityModel:
    """Tail function of a CPP intensity measure with its inverse.

    ``tail`` is nonincreasing and finite for positive arguments;
    ``tail_inverse(tail(x)) == x`` to relative 1e-9 on the declared
    support.  Both accept a scalar or an array (the samplers pass
    arrays) and act element by element.  ``support_top`` bounds where
    the tail is known; grid-backed models cannot resolve heights beyond
    their horizon.
    """

    name: str
    tail: Callable
    tail_inverse: Callable
    support_top: float = math.inf

    @classmethod
    def brownian(cls, mass_scale: float = 0.5) -> "IntensityModel":
        """Tail ``mass_scale / x`` (mass_scale positive and finite), the
        excursion-depth intensity family.

        The canonical excursion pushforward has mass_scale 1/2; the
        doubled variant (mass_scale 1) is the one whose population
        spectrum has the exponential-integral tail.
        """
        if not 0 < mass_scale < math.inf:
            raise ValidationError(f"mass_scale must be positive and finite, got {mass_scale}")
        c = float(mass_scale)

        def tail(x):
            arr = np.asarray(x, dtype=float)
            with np.errstate(divide="ignore"):
                out = c / arr
            return out if arr.ndim else float(out)

        return cls(name="brownian", tail=tail, tail_inverse=tail)

    @classmethod
    def critical_bd(cls) -> "IntensityModel":
        """Tail ``1/(1+x)``: the unit-rate critical birth-death genealogy."""
        return cls(name="critical_bd",
                   tail=lambda x: 1.0 / (1.0 + x),
                   tail_inverse=lambda y: 1.0 / y - 1.0)

    @classmethod
    def from_scale_grid(cls, times: np.ndarray, values: np.ndarray) -> "IntensityModel":
        """Tail ``1/W`` interpolated on a solved grid; support ends at the horizon."""
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise ValidationError("grid model needs matching 1-d arrays of length >= 2")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValidationError("grid times and scale values must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("grid times must be increasing")
        if np.any(values <= 0):
            raise ValidationError("scale values must be positive")
        tails = 1.0 / values
        if np.any(np.diff(tails) > 0):
            # W must be nondecreasing for 1/W to be a tail
            raise ValidationError("scale grid is not nondecreasing; 1/W would not be a tail")
        rev_tails = tails[::-1].copy()
        rev_times = times[::-1].copy()

        def tail(x):
            return np.interp(x, times, tails)

        def tail_inverse(y):
            return np.interp(y, rev_tails, rev_times)

        return cls(name="from_W", tail=tail, tail_inverse=tail_inverse,
                   support_top=float(times[-1]))

    def validate_on(self, points: Sequence[float]) -> None:
        """Spot-check monotonicity and the inverse round-trip."""
        pts = sorted(float(p) for p in points)
        vals = [self.tail(p) for p in pts]
        for a, b in zip(vals, vals[1:]):
            if b > a * (1 + _SPOT_CHECK_RTOL) + _SPOT_CHECK_RTOL:
                raise ValidationError("intensity tail is not nonincreasing")
        _roundtrip_check(self.tail, self.tail_inverse, pts, "intensity tail")


# ----------------------------------------------------------------------
# the scale equation

@dataclass(frozen=True)
class ScaleSolution:
    """Grid solution W of the reduced-genealogy equation on [0, times[-1]],
    the horizon.

    ``1/W`` is the intensity tail of the coalescent point process that
    is isometric to the population's genealogy at the horizon:
    ``IntensityModel.from_scale_grid(times, values)``.
    """

    times: np.ndarray
    values: np.ndarray
    model: PopulationModel


def _heun_scan(b: np.ndarray, dt: float, rate: float) -> np.ndarray:
    """W on the grid for an exponential(rate) lifetime (immortal: rate 0).

    One Heun step maps (W_i, conv_i) linearly to (W_{i+1}, conv_{i+1}) by
    a 2x2 matrix M_i, so W_i is the top-left entry of M_{i-1} ... M_0:
    Hillis-Steele doubling forms every prefix in log2(n) passes.
    """
    h, hr, decay = 0.5 * dt, 0.5 * dt * rate, math.exp(-rate * dt)
    hb0, hb1 = h * b[:-1], h * b[1:]
    P = np.empty((2, 2, b.size))  # P[..., i] = M_{i-1} ... M_0
    P[..., 0] = np.eye(2)
    M = P[..., 1:]
    M[0, 0] = 1 + hb0 + hb1 * ((1 - hr) * (1 + 2 * hb0) - hr * decay)
    M[0, 1] = -hb0 - hb1 * (2 * (1 - hr) * hb0 + decay)
    M[1, 0] = hr * (decay + M[0, 0])  # conv_{i+1} = decay conv_i + hr (decay W_i + W_{i+1})
    M[1, 1] = decay + hr * M[0, 1]
    d = 1
    while d < b.size:
        P[..., d:] = np.einsum("ikm,kjm->ijm", P[..., d:], P[..., :-d])
        d *= 2
    return P[0, 0].copy()


def solve_scale_function(model: PopulationModel, horizon: float, steps: int) -> ScaleSolution:
    """Integrate W'(t) = b(horizon-t) (W(t) - conv(t)), W(0) = 1, where
    conv(t) integrates W against the death-time density of the lifetime.

    Explicit trapezoidal (Heun) stepping with trapezoidal product
    integration of the convolution term; observed order is two against
    the closed forms (pure birth: W = e^{bt}; unit-rate critical
    birth-death: W = 1 + t).  Immortal lifetimes drop the convolution
    term entirely, which the pure-birth closed form confirms.  Immortal
    and exponential lifetimes solve all steps in one prefix-product scan
    (O(n log n) vectorised work), matching the step-by-step loop that
    fixed and custom lifetimes use to about 1e-12 relative.  ``steps``
    must be an integer of at least 16; a float or bool raises.
    """
    n = _integer("steps", steps)
    if n < 16:
        raise ValidationError("steps must be at least 16")
    if not 0 < horizon < math.inf:
        raise ValidationError("horizon must be positive and finite")
    if float(n + 1) >= 2.0 ** 63:  # np.linspace would count past int64 into an empty grid
        raise ResourceError(f"{n} steps need a grid larger than any array numpy can hold")
    dt = horizon / n
    ts = np.linspace(0.0, horizon, n + 1)
    try:
        b = (np.array([model.birth_rate_at(horizon - t) for t in ts], dtype=float)
             if callable(model.birth_rate) else np.full(n + 1, model.birth_rate, dtype=float))
    except Exception as exc:
        raise NumericError(f"birth rate evaluation failed: {exc}") from exc
    if np.any(~np.isfinite(b)) or np.any(b < 0):
        raise NumericError("birth rate must be finite and nonnegative on [0, horizon]")

    life = model.lifetime
    if isinstance(life, (Immortal, ExponentialLifetime)):
        with np.errstate(over="ignore", invalid="ignore"):
            W = _heun_scan(b, dt, getattr(life, "rate", 0.0))
    else:
        W = np.zeros(n + 1)
        W[0] = 1.0
        conv = np.zeros(n + 1)  # W against the death-time density

        # the lifetime's step: conv_next(i, w) is conv[i + 1] when W[i + 1] = w
        if isinstance(life, FixedLifetime):
            def conv_next(i: int, w: float) -> float:
                # W(t_{i+1} - length) by linear interpolation, 0 before the delay
                # kicks in; w stands in for W[i+1] when the delay is under one step
                t = ts[i + 1] - life.length
                if t <= 0.0:
                    return 0.0
                x = t / dt
                j = int(x)
                frac = x - j
                if frac == 0.0:
                    return float(W[j])
                hi = w if j == i else W[j + 1]
                return float(W[j] * (1 - frac) + frac * hi)
        elif isinstance(life, CustomLifetime):
            def conv_next(i: int, w: float) -> float:
                # trapezoid of W(s) g(horizon - t_{i+1}, horizon - s) over s in [0, t_{i+1}]
                t_next = ts[i + 1]
                kernel = life.density(horizon - t_next, horizon - ts[:i + 2])
                kernel = np.asarray(kernel, dtype=float)
                if np.any(~np.isfinite(kernel)) or np.any(kernel < 0):
                    raise NumericError(
                        f"death-time density is not finite and nonnegative at t={t_next} "
                        f"(non-integrable lifetime density?)"
                    )
                return float(np.trapezoid(np.append(W[:i + 1], w) * kernel, dx=dt))
        else:  # pragma: no cover - exhaustive above
            raise ValidationError(f"unsupported lifetime {life!r}")

        for i in range(n):
            f_i = b[i] * (W[i] - conv[i])
            pred = W[i] + dt * f_i
            # convolution at the next node, using the predictor where needed
            f_next = b[i + 1] * (pred - conv_next(i, pred))
            W[i + 1] = W[i] + 0.5 * dt * (f_i + f_next)
            if not 0.0 < W[i + 1] < math.inf:
                break  # reported below
            conv[i + 1] = conv_next(i, W[i + 1])

    ok = (W > 0.0) & (W < math.inf)
    if not ok.all():
        i = int(np.argmin(ok))
        raise NumericError(
            f"scale solution left (0, inf) at t={ts[i]:.6g} "
            f"(W={W[i]}); check the model parameters"
        )
    W.flags.writeable = False
    ts.flags.writeable = False
    return ScaleSolution(times=ts, values=W, model=model)


# ----------------------------------------------------------------------
# time changes

@dataclass(frozen=True)
class TimeChange:
    """A monotone bijection between depth scales, with its inverse."""

    forward: Callable
    inverse: Callable

    @classmethod
    def exponential_decay(cls, rate: float) -> "TimeChange":
        """t -> e^{-rate t}, the decreasing bijection [0, inf) -> (0, 1]
        (rate positive and finite)."""
        if not 0 < rate < math.inf:
            raise ValidationError(f"rate must be positive and finite, got {rate}")
        return cls(forward=lambda t: np.exp(-rate * t),
                   inverse=lambda y: -np.log(y) / rate)

    def validate_on(self, points: Sequence[float]) -> None:
        """Spot-check the inverse round-trip."""
        _roundtrip_check(self.forward, self.inverse, [float(p) for p in points], "time change")


def time_change_comb(comb: Comb, change: TimeChange) -> Comb:
    """Map every tooth height and the origin height through an increasing
    depth change; positions and the interval are untouched, so the
    boundary measure and the order of coalescence events are preserved.

    A decreasing map would reverse the event order and is rejected;
    decreasing bijections belong in measure pushforwards instead.
    ``change.forward`` is applied to one height at a time, so a scalar
    function such as ``math.log1p`` serves.
    """
    new_heights = _elementwise(change.forward)(comb.heights)
    new_origin = float(change.forward(comb.origin_height))
    if comb.n_teeth:
        order = np.argsort(comb.heights, kind="stable")
        mapped = new_heights[order]
        if np.any(np.diff(mapped) < 0):
            raise ValidationError("time change is not monotone increasing on the tooth heights")
        if not np.all(new_heights > 0):
            raise ValidationError("time change must keep depths positive")
    if comb.n_teeth and not np.all(new_heights < new_origin):
        raise ValidationError("time change is not monotone increasing up to the origin height")
    return Comb(comb.interval_length, new_origin, comb.positions, new_heights)


class PushforwardMeasure:
    """The image of a cumulative measure under a monotone depth change.

    Only interval masses are exposed: the pushforward of an infinite
    measure under a decreasing change has infinite mass near 0, so a
    cumulative function from 0 need not exist.
    """

    def __init__(self, cumulative: Callable, change: TimeChange):
        self._cumulative = cumulative
        self._change = change

    def mass(self, a: float, b: float) -> float:
        """Mass of (a, b] under the transformed measure (diffuse originals)."""
        if not 0.0 <= a <= b:
            raise ValidationError("need 0 <= a <= b")
        if a == b:
            return 0.0
        ca = self._cumulative(self._change.inverse(a))
        cb = self._cumulative(self._change.inverse(b))
        return abs(float(cb) - float(ca))

    def density(self, x: float) -> float:
        """Two-sided finite-difference density estimate at x, step 1e-6."""
        h = 1e-6
        lo = max(x - h / 2, 0.0)
        return self.mass(lo, lo + h) / h


def mutation_rate_pushforward(measure, change: TimeChange) -> PushforwardMeasure:
    """Push a mutation measure through a depth change.

    ``measure`` may be a cumulative callable or any object with a
    ``cumulative`` attribute.  The result assigns mass
    ``|cumulative(inverse(b)) - cumulative(inverse(a))|`` to (a, b],
    which covers both increasing and decreasing changes for diffuse
    measures.
    """
    cumulative = getattr(measure, "cumulative", measure)
    if not callable(cumulative):
        raise ValidationError("measure must be callable or expose a cumulative callable")
    probe = [0.0, 0.5, 1.0, 2.0]
    vals = [cumulative(p) for p in probe]
    if any(b < a - 1e-12 for a, b in zip(vals, vals[1:])):
        raise ValidationError("mutation measure cumulative must be nondecreasing")
    return PushforwardMeasure(cumulative, change)


def cpp_intensity_from_pure_birth(birth_cumulative: Callable, change: TimeChange,
                                  horizon: float) -> IntensityModel:
    """Intensity tail ``exp(birth_cumulative(inverse(t)))`` on (0, horizon]:
    the coalescent point process a time-changed pure-birth boundary give
    rise to.  The inverse is solved by bisection on the tail.
    """
    if not horizon > 0:
        raise ValidationError("horizon must be positive")

    def tail(t):
        return math.exp(birth_cumulative(change.inverse(t)))

    def tail_inverse(y):
        # tail is decreasing on (0, horizon]; bisect on log-spaced depths
        lo, hi = horizon * 1e-15, horizon
        if tail(hi) >= y:
            return hi
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if tail(mid) >= y:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12 * hi:
                break
        return 0.5 * (lo + hi)

    return IntensityModel(name="time_changed_pure_birth", tail=_elementwise(tail),
                          tail_inverse=_elementwise(tail_inverse), support_top=float(horizon))


def _elementwise(fn: Callable) -> Callable:
    """A scalar function extended to arrays element by element."""
    vec = np.vectorize(fn, otypes=[float])
    return lambda x: fn(x) if np.ndim(x) == 0 else vec(x)
