"""Random and deterministic comb generators.

Covers the exchangeable-coalescent comb, coalescent point processes
sampled by inverse-tail transform from an intensity model, the p-adic
comb, event-driven splitting-tree simulation with its reduction to a
comb at a horizon, and the small-scale zoom operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comb import Comb
from .contour import _sphere_comb
from .errors import ResourceError, ValidationError, _integer
from .intensity import IntensityModel, Lifetime
from .rng import RandomSource
from .tree import Tree, _tree_from_separators

__all__ = [
    "CppSample",
    "sample_kingman_comb",
    "sample_cpp",
    "sample_cpp_fixed_width",
    "padic_comb",
    "sample_splitting_tree",
    "reduce_population_tree",
    "rescale_comb",
    "unrescale_comb",
]

# attempts sample_splitting_tree makes before it reports extinction
_SPLITTING_RETRIES = 10_000


@dataclass(frozen=True)
class CppSample:
    """A killed coalescent point process: the comb, whose interval length
    is the killed width, and the height of the killing atom (> the comb
    height; inf when the model's tail is unknown past the horizon)."""

    comb: Comb
    killing_height: float

    def __post_init__(self):
        if not self.killing_height > self.comb.origin_height:
            raise ValidationError("killing height must exceed the comb height")


def _distinct_uniforms(gen, n: int, width: float, *marks: np.ndarray) -> tuple[np.ndarray, ...]:
    """n sorted distinct uniforms on (0, width), then each of ``marks``
    (n values drawn with them) carried into their order; collisions
    trigger a redraw.  Without marks the draw is sorted in place."""
    if n == 0:
        return (np.empty(0), *marks)
    for _ in range(8):
        pos = width * gen.random(n)
        if marks:
            order = np.argsort(pos)
            pos = pos[order]
        else:
            pos.sort()
        if pos[0] > 0.0 and np.all(pos[1:] > pos[:-1]):
            return (pos, *(m[order] for m in marks))
    raise ResourceError("could not draw distinct interior positions")


def sample_kingman_comb(n_teeth: int, rng: RandomSource) -> Comb:
    """The exchangeable-coalescent comb truncated to its n tallest teeth.

    The j-th tallest tooth is the tail sum of independent exponentials
    with rates k(k-1)/2 for k up to n+1; the remaining tail beyond the
    truncation is replaced by its analytic mean 2/(n+1), so each tooth
    has mean exactly 2/j and the truncation only hides structure finer
    than about 2/n.  Positions are i.i.d. uniform on (0, 1) and the
    origin branch extends one unit above the tallest tooth.
    """
    if _integer("n_teeth", n_teeth) < 1:
        raise ValidationError("n_teeth must be at least 1")
    gen = rng.gen
    ks = np.arange(2, n_teeth + 2, dtype=float)
    waits = gen.exponential(2.0 / (ks * (ks - 1.0)))
    heights_by_rank = np.cumsum(waits[::-1])[::-1] + 2.0 / (n_teeth + 1)
    positions, heights = _distinct_uniforms(gen, n_teeth, 1.0, heights_by_rank)
    return Comb(1.0, float(heights_by_rank[0]) + 1.0, positions, heights)


def _tail_heights(model: IntensityModel, gen, count: int, nu_lo: float | np.ndarray,
                  nu_hi: float | np.ndarray, cap: float | np.ndarray) -> np.ndarray:
    """``count`` independent heights whose tail values are uniform on
    (nu_lo, nu_hi] (scalars, or one bound per height), by inverse-tail
    sampling; each stays below ``cap``, where the tail is ``nu_lo``."""
    u = gen.random(count)
    heights = np.asarray(model.tail_inverse(nu_lo + (1.0 - u) * (nu_hi - nu_lo)), dtype=float)
    # float guard: inverse evaluation may land exactly on the cap
    return np.minimum(heights, np.nextafter(cap, 0.0))


def _killed_tails(model: IntensityModel, horizon: float, eps: float) -> tuple[float, float]:
    """Check a killed-comb request without drawing; return the intensity
    tail at the horizon and at eps.  The horizon may reach the model's
    ``support_top`` but not pass it: past it the tail is unknown."""
    if not horizon > 0:
        raise ValidationError("horizon must be positive")
    if horizon > model.support_top:
        raise ValidationError(f"horizon {horizon} exceeds the intensity's support top "
                              f"{model.support_top}")
    if not 0 <= eps < horizon:
        raise ValidationError("need 0 <= eps < horizon")
    nu_top = float(model.tail(horizon))
    nu_eps = float(model.tail(eps))
    if not (math.isfinite(nu_eps) and nu_eps >= 0):
        raise ValidationError(f"intensity tail at eps={eps} must be finite; "
                              f"got {nu_eps} (raise eps)")
    if not (math.isfinite(nu_top) and nu_top > 0):
        raise ValidationError(f"intensity tail at the horizon must be positive and finite, got {nu_top}")
    return nu_top, nu_eps


def _killed_comb(model: IntensityModel, horizon: float, eps: float, gen
                 ) -> tuple[Comb, float]:
    """The comb of :func:`sample_cpp` before its killing atom, and the
    intensity tail at the horizon.  Checks through :func:`_killed_tails`,
    then draws width, count, heights, positions."""
    nu_top, nu_eps = _killed_tails(model, horizon, eps)
    width = gen.exponential(1.0 / nu_top)
    count = int(gen.poisson(width * (nu_eps - nu_top)))
    heights = _tail_heights(model, gen, count, nu_top, nu_eps, horizon)
    positions, = _distinct_uniforms(gen, count, width)
    return Comb(width, horizon, positions, heights), nu_top


def sample_cpp(model: IntensityModel, horizon: float, eps: float,
               rng: RandomSource) -> CppSample:
    """A coalescent point process of height ``horizon``, teeth below
    ``eps`` truncated away.

    Uses the killed-width decomposition: width ~ Exp(tail(horizon)),
    tooth count ~ Poisson(width * (tail(eps) - tail(horizon))), positions
    i.i.d. uniform, heights i.i.d. from the intensity restricted to
    [eps, horizon) by inverse-tail sampling.
    """
    gen = rng.gen
    comb, nu_top = _killed_comb(model, horizon, eps, gen)
    if model.support_top <= horizon:
        killing = math.inf
    else:
        v = gen.random()
        while v == 0.0:
            v = gen.random()
        killing = float(model.tail_inverse(v * nu_top))
        killing = max(killing, float(np.nextafter(horizon, math.inf)))
    return CppSample(comb=comb, killing_height=killing)


def sample_cpp_fixed_width(model: IntensityModel, width: float, eps: float,
                           rng: RandomSource) -> Comb:
    """Teeth of an unkilled coalescent point process on a fixed window.

    By independence of the underlying point process, conditioning the
    killed width to exceed ``width`` leaves the teeth on [0, width]
    unconditioned, so this is the window every almost-sure statement
    about unbounded-height processes gets checked on.  Tail values are
    drawn in (tail(support_top), tail(eps)], 0 standing for the tail of
    an unbounded support, and heights stay below ``support_top``.  The
    origin is one unit above the tallest tooth (1.0 for an empty window).
    """
    if not 0 < width < math.inf:
        raise ValidationError(f"width must be positive and finite, got {width}")
    top = model.support_top
    if not 0 <= eps < top:
        raise ValidationError("need 0 <= eps < support_top")
    nu_eps = float(model.tail(eps))
    if not math.isfinite(nu_eps):
        raise ValidationError(f"intensity tail at eps={eps} must be finite (raise eps)")
    nu_top = float(model.tail(top)) if math.isfinite(top) else 0.0
    gen = rng.gen
    count = int(gen.poisson(width * (nu_eps - nu_top)))
    heights = _tail_heights(model, gen, count, nu_top, nu_eps, top)
    positions, = _distinct_uniforms(gen, count, width)
    origin = float(heights.max()) + 1.0 if count else 1.0
    return Comb(width, origin, positions, heights)


def padic_comb(p: int, depth: int) -> Comb:
    """The comb of the boundary of the infinite p-ary tree, truncated at
    ``depth`` levels.

    A level-n point k/p^n (k not divisible by p) carries a tooth of
    height p^-n / 2, so the doubled-max comb metric reproduces the
    p-adic distances exactly: sequences first differing at coordinate n
    sit at distance p^-n, and the two faces of a level-n point are
    p^-n apart.  The interval is [0, 1] and the origin height 1.
    """
    p, depth = _integer("p", p), _integer("depth", depth)
    if p < 2:
        raise ValidationError("p must be at least 2")
    if depth < 1:
        raise ValidationError("depth must be at least 1")
    if p ** depth > 2 ** 50:
        raise ValidationError(f"p^depth = {p}^{depth} exceeds the representable position grid")
    positions: list[np.ndarray] = []
    heights: list[np.ndarray] = []
    for n in range(1, depth + 1):
        denom = p ** n
        ks = np.arange(1, denom)
        ks = ks[ks % p != 0]
        positions.append(ks / float(denom))
        heights.append(np.full(ks.size, 0.5 / denom))
    return Comb(1.0, 1.0, np.concatenate(positions), np.concatenate(heights))


def sample_splitting_tree(birth_rate: float, lifetime: Lifetime, horizon: float,
                          rng: RandomSource) -> Tree:
    """Simulate a binary splitting tree up to a horizon, conditioned on
    having at least one individual alive there.

    Individuals give birth at constant rate over their lifetime
    (event-driven; births after the horizon are not generated).  The
    returned tree is planar in contour order: each individual's tip
    comes first, then its children latest-born first, which is the
    orientation whose reduced comb is a coalescent point process.  The
    stack pops individuals in that order, so the tree is built as their
    jumping contour: tips ``min(death, horizon)``, each diverging from
    the one before at its birth time.  Leaves are labelled by draw
    index; leaves of survivors sit exactly at the horizon.  Raises
    ResourceError if all ``_SPLITTING_RETRIES`` attempts die out before
    the horizon.
    """
    if not 0 < birth_rate < math.inf:
        raise ValidationError(f"birth rate must be positive and finite, got {birth_rate}")
    if not 0 < horizon < math.inf:
        raise ValidationError(f"horizon must be positive and finite, got {horizon}")
    gen = rng.gen
    for _ in range(_SPLITTING_RETRIES):
        births = [0.0]
        deaths = [float(lifetime.sample_death(0.0, gen))]
        order: list[int] = []  # individuals in contour order
        stack = [0]
        while stack:
            i = stack.pop()
            order.append(i)
            window = min(deaths[i], horizon) - births[i]
            if window <= 0:
                continue
            m = int(gen.poisson(birth_rate * window))
            if m == 0:
                continue
            times = births[i] + window * gen.random(m)
            times.sort()
            for t in times:
                stack.append(len(births))
                births.append(float(t))
                deaths.append(float(lifetime.sample_death(float(t), gen)))
        if any(d > horizon for d in deaths):
            break
    else:
        raise ResourceError(f"no attempt out of {_SPLITTING_RETRIES} survived to the horizon")

    splits = [births[i] for i in order[1:]]
    return _tree_from_separators([min(deaths[i], horizon) for i in order], splits, splits,
                                 [str(i) for i in order])


def reduce_population_tree(tree: Tree, horizon: float) -> Comb:
    """The comb of a population tree's boundary at a horizon.

    Survivors are the edges crossing the horizon, in planar order; each
    gets a unit of interval, and consecutive survivors are separated by
    a tooth whose height is the time back to their divergence.  A few
    array passes over the tree's preorder layout read it as a contour,
    in O(n): leaf depths, and between neighbouring leaves the depth of
    the node where the later one branches off.  Raises if nothing
    reaches the horizon, or if survivors only meet at depth 0.
    """
    if not horizon > 0:
        raise ValidationError("horizon must be positive")
    parent, depth = tree._parent, tree._depth
    # a node branches off at its parent's depth, but a first child (the
    # node right after its parent) inherits its parent's branch point:
    # read it at the top of the run of first children (the root: its depth)
    nodes = np.arange(parent.size)
    top = np.maximum.accumulate(np.where(parent == nodes - 1, 0, nodes))
    gaps = depth[np.maximum(parent, 0)[top]]
    leaves = tree._leaves()
    # each leaf falls to where the next one branches off; the last to the root
    return _sphere_comb(depth[leaves], np.append(gaps[leaves[1:]], depth[0]), horizon)


def rescale_comb(comb: Comb, eps: float) -> Comb:
    """Zoom in on the initial eps-window: keep teeth with position below
    eps and divide positions and heights (and the origin) by eps.

    With eps = 1 on a unit-interval comb this is the identity.  A tooth
    exactly at position eps would land on the new interval boundary and
    is dropped (a measure-zero difference from the closed window).
    """
    if not 0.0 < eps <= 1.0:
        raise ValidationError("eps must be in (0, 1]")
    keep = comb.positions < eps
    new_interval = min(comb.interval_length, eps) / eps
    return Comb(new_interval, comb.origin_height / eps,
                comb.positions[keep] / eps, comb.heights[keep] / eps)


def unrescale_comb(comb: Comb, eps: float) -> Comb:
    """Inverse of :func:`rescale_comb` on the retained window."""
    if not 0.0 < eps <= 1.0:
        raise ValidationError("eps must be in (0, 1]")
    return Comb(comb.interval_length * eps, comb.origin_height * eps,
                comb.positions * eps, comb.heights * eps)
