"""Counter-free splittable RNG with a pinned cross-language specification.

The generator is SplitMix64: a 64-bit state advanced by the golden-gamma
increment 0x9E3779B97F4A7C15, with the Stafford "variant 13" output mix

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Uniform doubles take the top 53 bits: u = ((z >> 11) + 1) * 2**-53, so
u lies in (0, 1].  Gaussians come from the Box-Muller transform applied to
consecutive uniform pairs, with the sine sample cached.  Every ensemble in
this package is a pure function of the 64-bit seed, so any implementation
of this recipe in another language reproduces the same matrices bit for bit.

The gue_like pair (:func:`gue_like_pair`) is drawn here, and its request is
checked by :func:`check_draw`, so a seeded derivative needs no check harness.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import _MEMORY_BUDGET_BYTES, ConfigError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator; see the module docstring for the spec."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK
        self._spare_normal = None

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in (0, 1]."""
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53

    def normal(self) -> float:
        """Standard normal via Box-Muller on consecutive uniforms."""
        if self._spare_normal is not None:
            out = self._spare_normal
            self._spare_normal = None
            return out
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def normals(self, shape) -> np.ndarray:
        flat = np.array([self.normal() for _ in range(int(np.prod(shape)))])
        return flat.reshape(shape)

    def complex_normals(self, shape) -> np.ndarray:
        re = self.normals(shape)
        im = self.normals(shape)
        return re + 1j * im


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def check_draw(seed, dimension) -> None:
    """Raise ConfigError unless seed is an integer in [0, 2**64) and dimension
    an integer >= 1 whose gue_like pair fits the memory budget."""
    if not (_is_int(seed) and 0 <= seed < 1 << 64):
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    if not (_is_int(dimension) and dimension >= 1):
        raise ConfigError(f"dimension must be an integer >= 1, got {dimension!r}")
    # the 4 d^2 normals of the two gue_like matrices: d = 2896 is the largest
    if 4 * dimension ** 2 * 8 > _MEMORY_BUDGET_BYTES:
        raise ConfigError(
            f"dimension {dimension} needs {4 * dimension ** 2} normals, more "
            f"than the {_MEMORY_BUDGET_BYTES >> 20} MiB memory budget holds"
        )


def _hermitian_from(gen: SplitMix64, d: int) -> np.ndarray:
    X = gen.complex_normals((d, d))
    return (X + X.conj().T) / 2.0


def gue_like_pair(seed: int, d: int):
    """The gue_like (A, B) of the seed: two Hermitian d x d draws of one
    SplitMix64 stream, B scaled to unit 2-norm (unless it is 0)."""
    gen = SplitMix64(seed)
    A = _hermitian_from(gen, d)
    B = _hermitian_from(gen, d)
    bnorm = float(np.linalg.norm(B, 2))
    if bnorm > 0:
        B = B / bnorm
    return A, B
