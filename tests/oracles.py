"""Dense enumeration oracles shared by the statmech and Monte Carlo tests."""

import math

import numpy as np

from csstat import statmech
from csstat.css import TooLarge
from csstat.statmech import SPECIES_COUPLED, SmModel

MAX_OBSERVABLE_SPINS = 18  # exact_observables holds every configuration in memory


def exact_observables(model: SmModel, beta: float):
    """(ln Z, <H>, pair-correlation matrix) for a single-register model.

    H = -sum_t sign_t * prod(spins), the energy the mc module samples; the
    Boltzmann weight is exp(-beta*H). Correlations <s_i s_j> give an exact
    overlap oracle: for independent replicas <q**2> is the mean of their
    squares. Dense enumeration, so limited to MAX_OBSERVABLE_SPINS spins.
    """
    if model.species == SPECIES_COUPLED:
        raise ValueError("exact_observables handles single-register models only")
    if model.num_spins > MAX_OBSERVABLE_SPINS:
        raise TooLarge(
            f"exact_observables stores all 2**{model.num_spins} configurations; "
            f"limit is {MAX_OBSERVABLE_SPINS} spins"
        )
    weights = np.array(model.signs, float)
    blocks = statmech._parity_blocks(model)
    neg_h = np.concatenate(list(statmech._exponent_chunks(weights, blocks)))
    expo = beta * neg_h
    shift = float(expo.max())
    w = np.exp(expo - shift)
    zw = float(w.sum())
    ln_z = shift + math.log(zw)
    mean_h = float(-(neg_h * w).sum() / zw)
    configs = np.arange(1 << model.num_spins, dtype=np.uint64)
    spins = statmech._parity(
        configs[:, None], 1 << np.arange(model.num_spins, dtype=np.uint64)
    )
    corr = (spins * w[:, None]).T @ spins / zw
    return ln_z, mean_h, corr
