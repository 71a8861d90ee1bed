import numpy as np
import pytest

from ultracomb import Comb, RandomSource


def random_comb(gen: np.random.Generator, max_teeth: int = 20,
                min_teeth: int = 0, interval: float | None = None) -> Comb:
    """A random comb for property tests: uniform distinct positions,
    uniform heights, origin a margin above the tallest tooth."""
    n = int(gen.integers(min_teeth, max_teeth + 1))
    length = float(interval) if interval is not None else float(0.5 + 1.5 * gen.random())
    while True:
        pos = np.sort(length * gen.random(n))
        if n == 0 or (pos[0] > 0.0 and np.all(np.diff(pos) > 0.0)):
            break
    heights = 0.05 + gen.random(n)
    top = float(heights.max()) if n else 1.0
    return Comb(length, top + 0.5, pos, heights)


@pytest.fixture
def rs():
    def make(seed: int) -> RandomSource:
        return RandomSource(seed)
    return make
