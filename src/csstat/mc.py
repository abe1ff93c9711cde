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

import functools
import itertools
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

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
_UNIFORMS_PER_DRAW = 4096  # whole sweeps per draw, at least one


def derive_seed(seed: int, *indices: int) -> int:
    """Deterministic child stream: each index (0 <= ix < 2^64) in turn is the
    counter of one splitmix64 draw seeded with the fold so far."""
    z = seed & _MASK
    for ix in indices:
        z = int(splitmix64(np.array([ix], dtype=np.uint64), z)[0])
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


@functools.lru_cache(maxsize=1)
def _spin_tables(num_spins: int, masks: Tuple[int, ...]):
    """Per-term sites, per-spin terms, per-spin (term, other site) pairs and
    per-spin degrees, as tuples. Every chain of a mask set reads the same
    tables, so the last mask set's are kept."""
    sites = tuple(mask_sites(mask) for mask in masks)
    spin_terms: List[List[int]] = [[] for _ in range(num_spins)]
    # (term, other site) pairs of each spin: flipping the spin moves the
    # term's sign out of (or into) the other site's count of negative terms
    spin_pairs: List[List[Tuple[int, int]]] = [[] for _ in range(num_spins)]
    for t_idx, term_sites in enumerate(sites):
        for s in term_sites:
            spin_terms[s].append(t_idx)
            spin_pairs[s] += [(t_idx, o) for o in term_sites if o != s]
    deg = tuple(len(t) for t in spin_terms)
    return sites, tuple(map(tuple, spin_terms)), tuple(map(tuple, spin_pairs)), deg


def _run_replica(
    model: SmModel, beta: float, sweeps: int, burn_in: int, stream_seed: int
):
    """One chain; returns (energy-per-spin series, spin snapshots) post burn.

    State: the +-1 term products prod, total = sum(prod) and h[i], the number
    of negative terms at spin i; metropolis describes the thresholds.
    """
    num_spins = model.num_spins
    sites, spin_terms, spin_pairs, deg = _spin_tables(num_spins, model.masks)
    max_deg = max(deg, default=0)
    # Acceptance probability of dH = 2*m for m = 1..max_deg (m <= 0 always
    # accepts); the thresholds below need it non-increasing when beta >= 0.
    accept = [math.exp(-2.0 * beta * m) for m in range(1, max_deg + 1)]
    if beta >= 0 and any(a < b for a, b in zip(accept, accept[1:])):
        raise InternalInvariantError(
            f"acceptance table increases at beta={beta}: {accept}"
        )

    init = uniforms(np.arange(num_spins, dtype=np.uint64), stream_seed)
    spins = bytearray(0 if u < 0.5 else 1 for u in init.tolist())  # 1: down
    prod = []
    h = [0] * num_spins
    for sign, term_sites in zip(model.signs, sites):
        v = sign
        for s in term_sites:
            if spins[s]:
                v = -v
        prod.append(v)
        if v < 0:
            for s in term_sites:
                h[s] += 1
    total = sum(prod)

    meas = sweeps - burn_in
    energy = np.empty(meas, dtype=np.float64)
    snaps = []
    block = max(1, _UNIFORMS_PER_DRAW // num_spins)
    # deg_i + 1 for every proposal of a full draw; int16 holds it less any A(u)
    deg_plus_one = np.tile(np.array(deg, dtype=np.int16) + 1, min(block, sweeps))
    for sweep in range(sweeps):
        at = sweep % block
        if at == 0:  # sweeps [s0, s1) take counters [(1+s0)*S, (1+s1)*S)
            drawn_sweeps = min(sweeps, sweep + block) - sweep
            end = (1 + sweep + drawn_sweeps) * num_spins
            counters = np.arange((1 + sweep) * num_spins, end, dtype=np.uint64)
            u = uniforms(counters, stream_seed)
            # flip iff m <= A(u) = #{m : u < accept[m]}, i.e. h[i] >= K =
            # max(0, ceil((deg_i - A) / 2)) = max(0, (deg_i + 1 - A) >> 1)
            need = deg_plus_one[:len(u)].copy()
            for a in accept:
                need -= u < a
            need >>= 1
            thresholds = np.maximum(need, 0).astype(np.uint8).tobytes()
        k_row = thresholds[at * num_spins:(at + 1) * num_spins]
        for i in range(num_spins):
            h_i = h[i]
            if h_i >= k_row[i]:
                d = deg[i]
                total += 4 * h_i - 2 * d
                h[i] = d - h_i
                spins[i] ^= 1
                for t, s in spin_pairs[i]:
                    h[s] += prod[t]
                for t in spin_terms[i]:
                    prod[t] = -prod[t]
        if sweep >= burn_in:
            energy[sweep - burn_in] = -total / num_spins
            snaps.append(bytes(spins))
    down = np.frombuffer(b"".join(snaps), dtype=np.int8).reshape(meas, num_spins)
    return energy, 1 - 2 * down


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


MAX_DEGREE = 510  # a threshold is at most ceil(deg / 2) and is stored as uint8


def _check_model(model: SmModel) -> None:
    """Refuse a model the threshold kernel cannot sample."""
    if model.species == SPECIES_COUPLED:
        raise ValueError("metropolis samples single-register models only")
    if model.num_spins == 0:
        raise ValueError("model has no spins")
    if len(model.masks) > MAX_DEGREE:  # no spin has more terms than the model
        deg = max(Counter(s for mask in model.masks for s in mask_sites(mask)).values())
        if deg > MAX_DEGREE:
            raise ValueError(
                f"a spin in {deg} terms is past the {MAX_DEGREE} metropolis supports"
            )


def _replica_args(model: SmModel, beta: float, cfg: McConfig, replica: int):
    """The _run_replica arguments of one replica of a run."""
    return model, beta, cfg.sweeps, cfg.burn_in, derive_seed(cfg.seed, replica)


def metropolis(
    model: SmModel, beta: float, cfg: McConfig, *, pending=None
) -> McObservables:
    """Sample a single-register model at coupling beta.

    Fixed proposal order (spin 0..S-1 each sweep), and each sweep's uniforms
    sliced from one draw of up to _UNIFORMS_PER_DRAW that covers whole
    sweeps. Replica r runs on stream derive_seed(cfg.seed, r); the overlap
    pairs every two replicas and averages. pending, if given, maps replica
    indices to futures of _run_replica(*_replica_args(model, beta, cfg, r))
    that some other process runs (nishimori_scan queues them); this call
    runs every other replica itself first, then collects those. Each chain
    is a pure function of its arguments and the results are combined in
    replica order, so the observables are bit-identical to running every
    replica here.

    The rule is min(1, e^{-beta dH}): flipping spin i, with m = deg_i -
    2*h[i] for h[i] its count of negative terms, costs dH = 2*m and is
    accepted iff m <= 0 or u < accept[m] = e^{-2 beta m}. Each uniform is
    turned, once per draw, into A(u) = #{m in 1..max_deg : u < accept[m]}.
    For beta >= 0 the table is non-increasing (checked), so that set is the
    prefix 1..A(u); for beta < 0 every entry exceeds 1 > u, so A(u) =
    max_deg. Either way the rule holds exactly when m <= A(u), which is
    h[i] >= K = max(0, ceil((deg_i - A(u)) / 2)). The same uniforms meet
    the same float compares, so the chain is the one the direct rule gives,
    bit for bit. Each draw's thresholds K are stored as bytes, so a spin's
    degree may be at most MAX_DEGREE (checked). A rejected proposal costs
    one integer compare; a flip updates h at the other sites of its terms,
    so the cost follows the flip rate, not the proposal count.

    Caveat: zero-cost flips are always accepted (min(1, e^0) = 1), so on a
    landscape with flat directions the fixed-order sweep traverses them
    deterministically and end-of-sweep samples can skip individual degenerate
    microstates. Energies are unaffected (the skipped states are replaced by
    equal-energy ones), but fine-grained state statistics on such models —
    every spin having even degree is the warning sign — should come from
    exact enumeration instead.
    """
    _check_model(model)
    pending = pending or {}
    chains = {
        r: _run_replica(*_replica_args(model, beta, cfg, r))
        for r in range(cfg.replicas) if r not in pending
    }
    chains.update((r, future.result()) for r, future in pending.items())
    energies, snapshots = zip(*(chains[r] for r in range(cfg.replicas)))
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

    The scan builds every sample's model first, then runs its chains, one
    per (point, sample, replica), in P = min(chains, CPUs) processes: this
    one plus a pool of forked workers, opened once for the scan and joined
    before it returns or raises (a raise cancels the chains still queued).
    Chain i in that order runs here when i % P == 0; every other chain is
    queued to the pool before the first metropolis call, so the workers
    never wait on this process between samples. Without the fork start
    method every chain runs here. log, if given, receives "mc processes=<P>"
    once and, per point, "time p=<p>: <s>s", this process's wall time for
    the point's metropolis calls and their disorder average.
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
    # Imported here, not at the top: after `import csstat.cli` they take
    # another 15-30 ms and 1.2 MiB, which every command would pay for them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = "fork" in multiprocessing.get_all_start_methods()
    chains = len(p_grid) * disorder_samples * cfg.replicas
    processes = min(chains, _cpu_count()) if fork else 1
    if log is not None:
        log(f"mc processes={processes}")

    def scan(pool) -> List[ScanRow]:
        queued = {}  # (point, sample) -> {replica: future of a pool chain}
        chain = itertools.count()
        for idx, beta in enumerate(betas):
            for j, (model, run_cfg) in enumerate(runs[idx]):
                for r in range(cfg.replicas):
                    if next(chain) % processes:
                        queued.setdefault((idx, j), {})[r] = pool.submit(
                            _run_replica, *_replica_args(model, beta, run_cfg, r))
        rows = []
        for idx, (p, beta) in enumerate(zip(p_grid, betas)):
            start = time.perf_counter()
            results = [
                metropolis(model, beta, run_cfg, pending=queued.get((idx, j)))
                for j, (model, run_cfg) in enumerate(runs[idx])
            ]
            rows.append(_disorder_average(p, beta, results))
            if log is not None:
                log(f"time p={p:.6g}: {time.perf_counter() - start:.4f}s")
        return rows

    if processes == 1:
        return scan(None)
    # fork, not spawn: a spawned worker imports numpy and csstat afresh, about
    # 0.2 s a scan, more than a pooled mc_scan call takes. Chains call no
    # BLAS routine, so the parent's idle OpenBLAS threads do not matter.
    pool = ProcessPoolExecutor(
        max_workers=processes - 1, mp_context=multiprocessing.get_context("fork")
    )
    try:
        return scan(pool)
    finally:
        pool.shutdown(cancel_futures=True)
