"""Reference oracle for the scale-function solver.

This is the original definition: one explicit trapezoidal (Heun) step
per grid interval, in a Python loop, with the convolution term advanced
by a per-lifetime step function.  The tests compare the prefix-product
scan in ``ultracomb.intensity`` against it, and require the lifetimes
that still use a loop to match it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ultracomb import (CustomLifetime, ExponentialLifetime, FixedLifetime, Immortal,
                       NumericError, PopulationModel, ValidationError)


def reference_solve(model: PopulationModel, horizon: float, steps: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(times, W)`` on the ``steps + 1`` point grid."""
    if steps < 16:
        raise ValidationError("steps must be at least 16")
    if not horizon > 0:
        raise ValidationError("horizon must be positive")
    n = int(steps)
    dt = horizon / n
    ts = np.linspace(0.0, horizon, n + 1)
    try:
        b = np.array([model.birth_rate_at(horizon - t) for t in ts], dtype=float)
    except Exception as exc:
        raise NumericError(f"birth rate evaluation failed: {exc}") from exc
    if np.any(~np.isfinite(b)) or np.any(b < 0):
        raise NumericError("birth rate must be finite and nonnegative on [0, horizon]")

    W = np.empty(n + 1)
    W[0] = 1.0
    conv = np.zeros(n + 1)
    life = model.lifetime

    if isinstance(life, Immortal):
        conv_next = lambda i, w: 0.0  # noqa: E731
    elif isinstance(life, ExponentialLifetime):
        r = life.rate
        decay = math.exp(-r * dt)
        conv_next = lambda i, w: decay * conv[i] + 0.5 * dt * (r * decay * W[i] + r * w)  # noqa: E731
    elif isinstance(life, FixedLifetime):
        def conv_next(i: int, w: float) -> float:
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
            t_next = ts[i + 1]
            kernel = life.density(horizon - t_next, horizon - ts[:i + 2])
            kernel = np.asarray(kernel, dtype=float)
            if np.any(~np.isfinite(kernel)) or np.any(kernel < 0):
                raise NumericError(
                    f"death-time density is not finite and nonnegative at t={t_next} "
                    f"(non-integrable lifetime density?)"
                )
            return float(np.trapezoid(np.append(W[:i + 1], w) * kernel, dx=dt))
    else:
        raise ValidationError(f"unsupported lifetime {life!r}")

    for i in range(n):
        f_i = b[i] * (W[i] - conv[i])
        pred = W[i] + dt * f_i
        f_next = b[i + 1] * (pred - conv_next(i, pred))
        W[i + 1] = W[i] + 0.5 * dt * (f_i + f_next)
        if not math.isfinite(W[i + 1]) or W[i + 1] <= 0.0:
            raise NumericError(
                f"scale solution left (0, inf) at t={ts[i + 1]:.6g} "
                f"(W={W[i + 1]}); check the model parameters"
            )
        conv[i + 1] = conv_next(i, W[i + 1])
    return ts, W
