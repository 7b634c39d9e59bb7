import numpy as np

from moilab.rng import SplitMix64


def random_hermitian(gen: SplitMix64, d: int) -> np.ndarray:
    X = gen.complex_normals((d, d))
    return (X + X.conj().T) / 2.0


def pair(seed: int, d: int, scale: float = 1.0):
    """Seeded Hermitian (A, B) pair; B has operator norm scale."""
    gen = SplitMix64(seed)
    A = random_hermitian(gen, d)
    B = random_hermitian(gen, d)
    return A, scale * B / np.linalg.norm(B, 2)
