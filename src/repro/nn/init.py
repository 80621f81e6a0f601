"""Parameter initialisation schemes.

The attention models in the paper follow Kool et al. (2019), who initialise
every weight uniformly in ``[-1/sqrt(d), 1/sqrt(d)]``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["uniform_attention", "zeros"]


def uniform_attention(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) — Kool et al. initialisation."""
    fan_in = shape[0] if len(shape) >= 1 else 1
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zeros initialisation (biases)."""
    return np.zeros(shape)
