"""Dense enumeration oracles and the plain forms of optimized kernels,
shared by the tests."""

import math

import numpy as np

from csstat.channels import InternalInvariantError, exact_sum
from csstat.css import TooLarge
from csstat.gf2 import BitMatrix
from csstat.statmech import SPECIES_COUPLED, SmModel

MAX_OBSERVABLE_SPINS = 18  # exact_observables holds every configuration in memory


def _parity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(-1)**popcount(a & b), broadcast: spin or term values per configuration."""
    return 1.0 - 2.0 * (np.bitwise_count(a & b) & np.uint8(1))


def exact_observables(model: SmModel, beta: float):
    """(ln Z, <H>, pair-correlation matrix) for a single-register model.

    H = -sum_t sign_t * prod(spins), the energy the mc module samples; the
    Boltzmann weight is exp(-beta*H). Correlations <s_i s_j> give an exact
    overlap oracle: for independent replicas <q**2> is the mean of their
    squares. Dense enumeration, one term at a time, so limited to
    MAX_OBSERVABLE_SPINS spins.
    """
    if model.species == SPECIES_COUPLED:
        raise ValueError("exact_observables handles single-register models only")
    if model.num_spins > MAX_OBSERVABLE_SPINS:
        raise TooLarge(
            f"exact_observables stores all 2**{model.num_spins} configurations; "
            f"limit is {MAX_OBSERVABLE_SPINS} spins"
        )
    configs = np.arange(1 << model.num_spins, dtype=np.uint64)
    neg_h = np.zeros(len(configs))
    for mask, sign in zip(model.masks, model.signs):
        neg_h += sign * _parity(configs, np.uint64(mask))
    expo = beta * neg_h
    shift = float(expo.max())
    w = np.exp(expo - shift)
    zw = float(w.sum())
    ln_z = shift + math.log(zw)
    mean_h = float(-(neg_h * w).sum() / zw)
    spins = _parity(
        configs[:, None], 1 << np.arange(model.num_spins, dtype=np.uint64)
    )
    corr = (spins * w[:, None]).T @ spins / zw
    return ln_z, mean_h, corr


def scalar_derive_seed(seed: int, *indices: int) -> int:
    """mc.derive_seed with the splitmix64 mixer written out in Python ints."""
    mask = (1 << 64) - 1
    z = seed & mask
    for ix in indices:
        z = (z + (ix + 1) * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
    return z


def butterfly_walsh_hadamard(a: np.ndarray) -> None:
    """In-place unnormalized Walsh–Hadamard transform of a float or int64
    array along axis 0: the butterfly network, bit 0 first, each stage
    mapping (x, y) to (x + y, x − y) with a copy of x. The constant-geometry
    transform must equal it bit for bit on floats, and the blocked radix-4
    transform on int64."""
    size, half = a.shape[0], 1
    while half < size:
        top, bottom = a.reshape(size // (2 * half), 2, half, -1).swapaxes(0, 1)
        x = top.copy()
        top += bottom
        np.subtract(x, bottom, out=bottom)
        half *= 2


def exact_check(table: np.ndarray) -> None:
    """SectorDistribution.check() with no float estimate: every table's sum
    goes through exact_sum."""
    bad = np.flatnonzero(~(table >= 0.0))
    if bad.size:
        raise InternalInvariantError(f"negative or NaN probability at index {bad[0]}")
    total = exact_sum(table)
    if not abs(total - 1.0) <= 1e-12:
        raise InternalInvariantError(f"table sums to {total:.17g}, not 1 within 1e-12")


def transpose_by_bits(m: BitMatrix) -> BitMatrix:
    """BitMatrix.transpose one (row, column) bit at a time."""
    out = []
    for c in range(m.cols):
        acc = 0
        for r, bits in enumerate(m.row_bits):
            acc |= ((bits >> c) & 1) << r
        out.append(acc)
    return BitMatrix(m.rows, tuple(out))
