"""Metropolis sampling of the disorder models along the Nishimori line.

Randomness is counter-based splitmix64 throughout: every uniform is a pure
function of (stream seed, counter), so results are a pure function of the
config seed. Counter layout per stream:
the first num_spins counters draw the initial configuration, and sweep s
proposal i uses counter (1 + s)*num_spins + i.

Replica streams and per-disorder-sample streams are derived from the base
seed with the same mixer, so a scan over noise points is reproducible from a
single integer. Chains on one model's masks run together, as the bit lanes
of lockstep passes (_chains), each on its own stream, so no chain depends on
the chains beside it.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .channels import InternalInvariantError
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
_UNIFORMS_PER_DRAW = 1 << 14  # over a pass's lanes, whole sweeps, at least one

Lane = Tuple[Tuple[int, ...], float, int]  # a chain's signs, beta, stream seed


def derive_seed(seed: int, *indices: int) -> int:
    """Deterministic child stream: each index (0 <= ix < 2^64) in turn is the
    counter of one splitmix64 draw seeded with the fold so far."""
    z = seed & _MASK
    for ix in indices:
        z = int(splitmix64(np.array([ix], dtype=np.uint64), z)[0])
    return z


def splitmix64(counters: np.ndarray, seed) -> np.ndarray:
    """splitmix64 output at the given counters (uint64 in, uint64 out). seed
    is an int, or a uint64 array of stream seeds broadcast against counters."""
    z = np.uint64(seed & _MASK) + (counters + np.uint64(1)) * np.uint64(_GOLDEN)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def uniforms(counters: np.ndarray, seed) -> np.ndarray:
    """Uniforms in [0, 1) with 53-bit mantissas from the counter stream."""
    z = splitmix64(counters, seed)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= 2.0 ** -53
    return u


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


def _spin_tables(num_spins: int, masks: Tuple[int, ...]):
    """Per-term sites and per-spin terms, as tuples."""
    sites = tuple(mask_sites(mask) for mask in masks)
    spin_terms: List[List[int]] = [[] for _ in range(num_spins)]
    for t_idx, term_sites in enumerate(sites):
        for s in term_sites:
            spin_terms[s].append(t_idx)
    return sites, tuple(map(tuple, spin_terms))


def _lockstep(num_spins: int, tables, lanes: Sequence[Lane], sweeps: int, burn_in: int):
    """One pass: every lane's chain on one topology, stepped together.

    Lane c is the F bits at c*F of each state int (F = _lane_bits, and
    len(lanes) * F <= 64): spin i's int has 1 at c*F where the spin is down,
    term t's int 1 where its product is -1. Returns the spins' ints after
    each measured sweep, shape (measured sweeps, spins), as uint64.
    """
    sites, spin_terms = tables
    n, terms = len(lanes), len(sites)
    deg = np.array([len(t) for t in spin_terms])
    max_deg = int(deg.max())
    field = _lane_bits(max_deg)
    half, k_max = 1 << (field - 1), (max_deg + 1) >> 1
    # cut[j, c, 0, i] = accept_c[m] for m = deg_i - 2j > 0, else 2 (never u >= 2)
    cost = deg - 2 * np.arange(k_max)[:, None]
    cut = np.empty((k_max, n, 1, num_spins))
    for c, (_, beta, _) in enumerate(lanes):
        # Acceptance probability of dH = 2*m for m = 1..max_deg (m <= 0 always
        # accepts); the thresholds below need it non-increasing when beta >= 0.
        accept = [math.exp(-2.0 * beta * m) for m in range(1, max_deg + 1)]
        if beta >= 0 and any(a < b for a, b in zip(accept, accept[1:])):
            raise InternalInvariantError(
                f"acceptance table increases at beta={beta}: {accept}"
            )
        cut[:, c, 0] = np.array([2.0] + accept)[cost.clip(0)]
    shift = (np.arange(n, dtype=np.uint64) * np.uint64(field)).reshape(n, 1, 1)

    def pack(values: np.ndarray) -> List[int]:
        # lane c's value (< 2^field) at bit c*field of one int per column;
        # shifts a uint64 argument in place
        words = np.asarray(values, dtype=np.uint64)
        words <<= shift
        return np.bitwise_or.reduce(words, axis=0).ravel().tolist()

    seeds = np.array([seed & _MASK for *_, seed in lanes], dtype=np.uint64)
    seeds = seeds.reshape(n, 1, 1)
    init = uniforms(np.arange(num_spins, dtype=np.uint64), seeds)
    state = pack(init >= 0.5)  # spins, then the terms' negative products
    lane_signs = np.array([signs for signs, _, _ in lanes]).reshape(n, 1, terms)
    negative = pack(lane_signs < 0)
    for t_idx, term_sites in enumerate(sites):
        for s in term_sites:
            negative[t_idx] ^= state[s]
    state += negative
    proposals = [(i, tuple(num_spins + t for t in spin_terms[i]))
                 for i in range(num_spins)]
    top, low = sum(half << c * field for c in range(n)), field - 1
    get = state.__getitem__

    spins = np.empty((sweeps - burn_in, num_spins), dtype=np.uint64)
    block = max(1, _UNIFORMS_PER_DRAW // (n * num_spins))
    for sweep in range(sweeps):
        at = sweep % block
        if at == 0:  # sweeps [s0, s1) take counters [(1+s0)*S, (1+s1)*S)
            drawn_sweeps = min(sweeps, sweep + block) - sweep
            counters = np.arange((1 + sweep) * num_spins,
                                 (1 + sweep + drawn_sweeps) * num_spins,
                                 dtype=np.uint64).reshape(drawn_sweeps, num_spins)
            u = uniforms(counters, seeds)
            # half - K per lane, K = #{j : u >= cut_j} the spin's threshold
            need = np.full(u.shape, half - k_max, dtype=np.uint64)
            for cut_j in cut:
                need += u < cut_j
            offsets = pack(need)
        row = offsets[at * num_spins:(at + 1) * num_spins]
        for (i, negs), offset in zip(proposals, row):
            # field c of the sum is h_c + half - K_c: its top bit is h_c >= K_c
            flip = (sum(map(get, negs), offset) & top) >> low
            if flip:
                state[i] ^= flip
                for t in negs:
                    state[t] ^= flip
        if sweep >= burn_in:
            spins[sweep - burn_in] = state[:num_spins]
    return spins


def _lane_bits(max_deg: int) -> int:
    """Bits per lane: a count of up to max_deg negative terms, plus a top bit."""
    return max_deg.bit_length() + 1


def _chains(model: SmModel, lanes: Sequence[Lane], sweeps: int, burn_in: int):
    """Each lane's (energy-per-spin series, int8 +-1 spin snapshots) post
    burn, in lane order. A lane is a chain's (signs, beta, stream seed) on
    model's masks; the lanes run in passes of as many as fit one 64-bit word,
    each pass when its first lane is asked for."""
    num_spins = model.num_spins
    sites, spin_terms = tables = _spin_tables(num_spins, model.masks)
    field = _lane_bits(max(map(len, spin_terms)))
    # term t's sites, padded with spin index num_spins: an up spin
    padded = np.full((max(map(len, sites), default=0), len(sites)), num_spins)
    for t_idx, term_sites in enumerate(sites):
        padded[:len(term_sites), t_idx] = term_sites
    width = 64 // field
    for start in range(0, len(lanes), width):
        batch = lanes[start:start + width]
        words = _lockstep(num_spins, tables, batch, sweeps, burn_in)
        as_bytes = words.astype("<u8", copy=False).view(np.uint8).reshape(
            len(words), num_spins, 8)  # bit at of a word is bit at % 8 of byte at // 8
        down = np.zeros((len(words), num_spins + 1), dtype=np.uint8)
        for c, (signs, _, _) in enumerate(batch):
            at = c * field
            down[:, :num_spins] = (as_bytes[:, :, at >> 3] >> (at & 7)) & 1
            negative = np.empty((len(words), len(sites)), dtype=np.uint8)
            negative[:] = np.array(signs) < 0
            for column in padded:
                negative ^= down[:, column]
            # -(sum of the term products) / S, the products summing to
            # T - 2 * (negative terms)
            count = negative.sum(axis=1, dtype=np.int64)
            yield ((2 * count - len(sites)) / num_spins,
                   1 - 2 * down[:, :num_spins].astype(np.int8))


def _check_model(model: SmModel) -> None:
    """Refuse a model the lockstep kernel cannot sample."""
    if model.species == SPECIES_COUPLED:
        raise ValueError("metropolis samples single-register models only")
    if model.num_spins == 0:
        raise ValueError("model has no spins")


def metropolis(
    model: SmModel,
    beta: float,
    cfg: McConfig,
    *,
    chains: Optional[Iterable[Tuple[np.ndarray, np.ndarray]]] = None,
) -> McObservables:
    """Sample a single-register model at coupling beta.

    Fixed proposal order (spin 0..S-1 each sweep). Replica r runs on stream
    derive_seed(cfg.seed, r), all replicas as lanes of one lockstep pass
    (_chains); the overlap pairs every two replicas and averages. chains, if
    given, are the replicas' (energies, snapshots) already run that way
    (nishimori_scan runs every chain of a scan as lanes and passes each
    sample its own); every chain is a pure function of its lane, so the
    observables are bit-identical either way.

    The rule is min(1, e^{-beta dH}): flipping spin i, with m = deg_i -
    2*h[i] for h[i] its count of negative terms, costs dH = 2*m and is
    accepted iff m <= 0 or u < accept[m] = e^{-2 beta m}. For beta >= 0 the
    table is non-increasing (checked), so the flip condition holds exactly
    when h[i] >= K = #{j < ceil(deg_i / 2) : u >= accept[deg_i - 2j]}; for
    beta <= 0 no entry is below 1 > u, so K = 0 and every proposal flips.
    The same uniforms meet the same float compares, so each chain is the one
    the direct rule gives, bit for bit. Each draw of uniforms, up to
    _UNIFORMS_PER_DRAW over whole sweeps of every lane, becomes one int per
    proposal holding half - K in every lane's field; a proposal sums it with
    the ints of its deg_i terms, which puts h + half - K in each field, and
    the fields' top bits are the lanes that flip. So a proposal costs
    deg_i + 2 integer operations for all lanes together, plus deg_i + 1 XORs
    when any lane flips, and F = bit_length(max degree) + 1 bits per lane
    give 64 // F lanes a pass (16 at degree 4, 6 at degree 510).

    Caveat: zero-cost flips are always accepted (min(1, e^0) = 1), so on a
    landscape with flat directions the fixed-order sweep traverses them
    deterministically and end-of-sweep samples can skip individual degenerate
    microstates. Energies are unaffected (the skipped states are replaced by
    equal-energy ones), but fine-grained state statistics on such models —
    every spin having even degree is the warning sign — should come from
    exact enumeration instead.
    """
    _check_model(model)
    if chains is None:
        seeds = [derive_seed(cfg.seed, r) for r in range(cfg.replicas)]
        chains = _chains(model, [(model.signs, beta, seed) for seed in seeds],
                         cfg.sweeps, cfg.burn_in)
    energies, snapshots = zip(*chains)
    mean_e, err_e = _blocked(np.mean(energies, axis=0))
    if cfg.replicas < 2:
        return McObservables(mean_e, err_e, math.nan, math.nan)
    q2 = np.zeros(cfg.sweeps - cfg.burn_in, dtype=np.float64)
    pairs = 0
    for a in range(cfg.replicas):
        for b in range(a + 1, cfg.replicas):
            q = (snapshots[a] * snapshots[b]).mean(axis=1)  # int8 +-1, summed exactly
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


def _disorder_average(p: float, beta: float, results: List[McObservables]) -> ScanRow:
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
    *,
    log: Optional[Callable[[str], None]] = None,
) -> List[ScanRow]:
    """Disorder-averaged Metropolis runs at beta = nishimori_beta(p).

    Every sample's streams are derived from (cfg.seed, point index, sample
    index), so the output is a pure function of cfg.seed. The side's model is
    built and checked once; each disorder sample swaps in only its signs.

    The scan builds every sample's model first. Its chains, one per (point,
    sample, replica) in that order, are the lanes of lockstep passes on the
    side's masks (_chains), run in this process as the metropolis calls ask
    for them; each (point, sample) takes its replicas' lanes, so every chain
    is the one a metropolis call of its own would run. log, if given,
    receives "mc lanes=<chains>" once and, per point, "time p=<p>: <s>s",
    the wall time of the point's metropolis calls, the passes they start and
    their disorder average.
    """
    if side not in ("x", "z"):
        raise ValueError(f"side must be 'x' or 'z', got {side!r}")
    if disorder_samples < 1:
        raise ValueError("disorder_samples must be >= 1")
    for p in p_grid:
        if not 0.0 < p < 1.0:
            raise ValueError(f"scan rates must satisfy 0 < p < 1, got {p}")
    base = (build_sm_x if side == "x" else build_sm_z)(code, BitVector(code.n, 0))
    _check_model(base)
    betas = [nishimori_beta(p) for p in p_grid]
    runs = [  # per point, every sample's (model, run config)
        [
            (replace(base, signs=_signs(
                sample_disorder(code, p, derive_seed(cfg.seed, idx, j, 0)))),
             replace(cfg, seed=derive_seed(cfg.seed, idx, j, 1)))
            for j in range(disorder_samples)
        ]
        for idx, p in enumerate(p_grid)
    ]
    lanes = [
        (model.signs, beta, derive_seed(run_cfg.seed, r))
        for beta, point in zip(betas, runs)
        for model, run_cfg in point
        for r in range(cfg.replicas)
    ]
    if log is not None:
        log(f"mc lanes={len(lanes)}")
    chains = _chains(base, lanes, cfg.sweeps, cfg.burn_in)
    rows = []
    for p, beta, point in zip(p_grid, betas, runs):
        start = time.perf_counter()
        results = [
            metropolis(model, beta, run_cfg,
                       chains=itertools.islice(chains, cfg.replicas))
            for model, run_cfg in point
        ]
        rows.append(_disorder_average(p, beta, results))
        if log is not None:
            log(f"time p={p:.6g}: {time.perf_counter() - start:.4f}s")
    return rows
