"""Metropolis sampling of the disorder models along the Nishimori line.

Randomness is counter-based splitmix64 throughout: every uniform is a pure
function of (stream seed, counter), so results are a pure function of the
config seed. Counter layout per stream:
the first num_spins counters draw the initial configuration, and sweep s
proposal i uses counter (1 + s)*num_spins + i.

Replica streams and per-disorder-sample streams are derived from the base
seed with the same mixer, so a scan over noise points is reproducible from a
single integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from .css import CssCode
from .gf2 import BitVector
from .statmech import (
    SPECIES_COUPLED, SmModel, _signs, build_sm_x, build_sm_z, mask_sites,
    nishimori_beta,
)

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

N_BLOCKS = 16
_UNIFORMS_PER_DRAW = 4096  # whole sweeps per draw, at least one


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *indices: int) -> int:
    """Deterministic child stream: fold each index through the mixer."""
    z = seed & _MASK
    for ix in indices:
        z = _mix((z + (ix + 1) * _GOLDEN) & _MASK)
    return z


def splitmix64(counters: np.ndarray, seed: int) -> np.ndarray:
    """splitmix64 output at the given counters (uint64 in, uint64 out)."""
    z = np.uint64(seed & _MASK) + (counters + np.uint64(1)) * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def uniforms(counters: np.ndarray, seed: int) -> np.ndarray:
    """Uniforms in [0, 1) with 53-bit mantissas from the counter stream."""
    return (splitmix64(counters, seed) >> np.uint64(11)).astype(np.float64) * (
        2.0 ** -53
    )


@dataclass(frozen=True)
class McConfig:
    """Run lengths and seeding for one Metropolis chain."""

    sweeps: int
    burn_in: int
    seed: int = 1
    replicas: int = 2

    def __post_init__(self) -> None:
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.sweeps <= self.burn_in:
            raise ValueError("sweeps must exceed burn_in")
        if self.sweeps - self.burn_in < N_BLOCKS:
            raise ValueError(
                f"need at least {N_BLOCKS} measured sweeps for blocking errors"
            )
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")


@dataclass(frozen=True)
class McObservables:
    """Blocked estimates from one disorder realization.

    mean_energy is per spin with H = -sum_t sign_t * prod(spins). ea_overlap
    is <q**2> for q the site-averaged product of two independent replicas
    (NaN when replicas < 2).
    """

    mean_energy: float
    energy_err: float
    ea_overlap: float
    ea_err: float


def _blocked(series: np.ndarray) -> Tuple[float, float]:
    """Mean and its error from N_BLOCKS block means (ddof=1)."""
    usable = (len(series) // N_BLOCKS) * N_BLOCKS
    blocks = series[:usable].reshape(N_BLOCKS, -1).mean(axis=1)
    return float(series.mean()), float(blocks.std(ddof=1) / math.sqrt(N_BLOCKS))


def _run_replica(
    model: SmModel, beta: float, sweeps: int, burn_in: int, stream_seed: int
):
    """One chain; returns (energy-per-spin series, spin snapshots) post burn."""
    num_spins = model.num_spins
    sites = [mask_sites(mask) for mask in model.masks]
    by_spin: List[List[int]] = [[] for _ in range(num_spins)]
    for t_idx, term_sites in enumerate(sites):
        for s in term_sites:
            by_spin[s].append(t_idx)
    spin_terms = [tuple(lst) for lst in by_spin]
    max_deg = max((len(t) for t in spin_terms), default=0)
    # Acceptance lookup for dH = 2*m, m = 1..max_deg (dH <= 0 always accepts).
    accept = [1.0] + [math.exp(-2.0 * beta * m) for m in range(1, max_deg + 1)]

    init = uniforms(np.arange(num_spins, dtype=np.uint64), stream_seed)
    spins = [1 if u < 0.5 else -1 for u in init.tolist()]
    prod = []
    for sign, term_sites in zip(model.signs, sites):
        v = sign
        for s in term_sites:
            v *= spins[s]
        prod.append(v)

    meas = sweeps - burn_in
    energy = np.empty(meas, dtype=np.float64)
    snaps = np.empty((meas, num_spins), dtype=np.int8)
    block = max(1, _UNIFORMS_PER_DRAW // num_spins)
    for sweep in range(sweeps):
        at = sweep % block
        if at == 0:  # sweeps [s0, s1) take counters [(1+s0)*S, (1+s1)*S)
            end = (1 + min(sweeps, sweep + block)) * num_spins
            counters = np.arange((1 + sweep) * num_spins, end, dtype=np.uint64)
            drawn = uniforms(counters, stream_seed).tolist()
        u = drawn[at * num_spins:(at + 1) * num_spins]
        for i in range(num_spins):
            terms_i = spin_terms[i]
            m = 0
            for t in terms_i:
                m += prod[t]
            # dH = 2*m; accept with min(1, exp(-beta*dH))
            if m <= 0 or u[i] < accept[m]:
                spins[i] = -spins[i]
                for t in terms_i:
                    prod[t] = -prod[t]
        if sweep >= burn_in:
            j = sweep - burn_in
            energy[j] = -sum(prod) / num_spins if num_spins else 0.0
            snaps[j] = spins
    return energy, snaps


def metropolis(model: SmModel, beta: float, cfg: McConfig) -> McObservables:
    """Sample a single-register model at coupling beta.

    Fixed proposal order (spin 0..S-1 each sweep), cached term products for
    O(degree) energy differences, and each sweep's uniforms sliced from one
    draw of up to _UNIFORMS_PER_DRAW that covers whole sweeps. Replicas
    run sequentially on streams derived from cfg.seed; the overlap pairs every
    two replicas and averages.

    Caveat: zero-cost flips are always accepted (min(1, e^0) = 1), so on a
    landscape with flat directions the fixed-order sweep traverses them
    deterministically and end-of-sweep samples can skip individual degenerate
    microstates. Energies are unaffected (the skipped states are replaced by
    equal-energy ones), but fine-grained state statistics on such models —
    every spin having even degree is the warning sign — should come from
    exact enumeration instead.
    """
    if model.species == SPECIES_COUPLED:
        raise ValueError("metropolis samples single-register models only")
    if model.num_spins == 0:
        raise ValueError("model has no spins")
    energies = []
    snapshots = []
    for r in range(cfg.replicas):
        e, s = _run_replica(
            model, beta, cfg.sweeps, cfg.burn_in, derive_seed(cfg.seed, r)
        )
        energies.append(e)
        snapshots.append(s)
    mean_e, err_e = _blocked(np.mean(energies, axis=0))
    if cfg.replicas < 2:
        return McObservables(mean_e, err_e, math.nan, math.nan)
    q2 = np.zeros(cfg.sweeps - cfg.burn_in, dtype=np.float64)
    pairs = 0
    for a in range(cfg.replicas):
        for b in range(a + 1, cfg.replicas):
            q = (snapshots[a].astype(np.float64) * snapshots[b]).mean(axis=1)
            q2 += q * q
            pairs += 1
    mean_q2, err_q2 = _blocked(q2 / pairs)
    return McObservables(mean_e, err_e, mean_q2, err_q2)


def sample_disorder(code: CssCode, p: float, rng_seed: int) -> BitVector:
    """An iid rate-p error pattern over the qubits from the counter stream."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {p}")
    u = uniforms(np.arange(code.n, dtype=np.uint64), rng_seed)
    return BitVector.from_bits(1 if x < p else 0 for x in u.tolist())


@dataclass(frozen=True)
class ScanRow:
    """Disorder-averaged observables at one point of a Nishimori scan."""

    p: float
    beta: float
    mean_energy: float
    energy_err: float
    ea_overlap: float
    ea_err: float
    samples: int


def _scan_point(
    code: CssCode, base: SmModel, p: float, p_index: int, disorder_samples: int,
    cfg: McConfig,
) -> ScanRow:
    beta = nishimori_beta(p)
    results: List[McObservables] = []
    for j in range(disorder_samples):
        e_rep = sample_disorder(code, p, derive_seed(cfg.seed, p_index, j, 0))
        model = replace(base, signs=_signs(e_rep))
        run_cfg = replace(cfg, seed=derive_seed(cfg.seed, p_index, j, 1))
        results.append(metropolis(model, beta, run_cfg))
    n_s = len(results)
    e_means = np.array([r.mean_energy for r in results])
    e_errs = np.array([r.energy_err for r in results])
    q_means = np.array([r.ea_overlap for r in results])
    q_errs = np.array([r.ea_err for r in results])

    def combine(means: np.ndarray, errs: np.ndarray) -> Tuple[float, float]:
        # Disorder spread plus propagated within-run errors, in quadrature.
        between = means.std(ddof=1) ** 2 / n_s if n_s > 1 else 0.0
        within = float((errs ** 2).mean()) / n_s
        return float(means.mean()), math.sqrt(between + within)

    mean_e, err_e = combine(e_means, e_errs)
    mean_q, err_q = combine(q_means, q_errs)
    return ScanRow(p, beta, mean_e, err_e, mean_q, err_q, n_s)


def nishimori_scan(
    code: CssCode,
    side: str,
    p_grid: Sequence[float],
    disorder_samples: int,
    cfg: McConfig,
) -> List[ScanRow]:
    """Disorder-averaged Metropolis runs at beta = nishimori_beta(p).

    Every sample's streams are derived from (cfg.seed, point index, sample
    index), so the output is a pure function of cfg.seed. The side's model is
    built once; each disorder sample swaps in only its signs.
    """
    if side not in ("x", "z"):
        raise ValueError(f"side must be 'x' or 'z', got {side!r}")
    if disorder_samples < 1:
        raise ValueError("disorder_samples must be >= 1")
    for p in p_grid:
        if not 0.0 < p < 1.0:
            raise ValueError(f"scan rates must satisfy 0 < p < 1, got {p}")
    base = (build_sm_x if side == "x" else build_sm_z)(code, BitVector(code.n, 0))
    return [
        _scan_point(code, base, p, idx, disorder_samples, cfg)
        for idx, p in enumerate(p_grid)
    ]
