"""Metropolis sampling of the disorder models along the Nishimori line.

Randomness is counter-based splitmix64 throughout: every draw is a pure
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

import functools
import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

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
    return int(derive_seeds(seed, *([ix] for ix in indices))[0])


def derive_seeds(seed: int, *levels) -> np.ndarray:
    """derive_seed over grids of indices, one splitmix64 call a level: each
    level's indices (uint64, or ints) broadcast against the seeds folded so
    far, so levels shaped (P, 1, 1), (J, 1) and (2,) give the (P, J, 2)
    array of derive_seed(seed, p, j, k)."""
    z = np.array([seed & _MASK], dtype=np.uint64)
    for ix in levels:
        z = splitmix64(np.asarray(ix, dtype=np.uint64), z)
    return z


def splitmix64(counters: np.ndarray, seed, out: Optional[np.ndarray] = None) -> np.ndarray:
    """splitmix64 output at the given counters (uint64 in, uint64 out). seed
    is an int, or a uint64 array of stream seeds broadcast against counters.
    out, if given, is a uint64 array of the broadcast shape that receives
    the output, so a caller can reuse one buffer across calls."""
    z = np.add(np.uint64(seed & _MASK), (counters + np.uint64(1)) * np.uint64(_GOLDEN),
               out=out)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


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
    """Term t's sites as column t of one array, padded with the zero column
    num_spins of _term_words, and per-spin terms as tuples."""
    sites = [mask_sites(mask) for mask in masks]
    padded = np.full((max(map(len, sites), default=0), len(sites)), num_spins)
    spin_terms: List[List[int]] = [[] for _ in range(num_spins)]
    for t_idx, term_sites in enumerate(sites):
        padded[:len(term_sites), t_idx] = term_sites
        for s in term_sites:
            spin_terms[s].append(t_idx)
    return padded, tuple(map(tuple, spin_terms))


def _term_words(words: np.ndarray, padded: np.ndarray,
                sign_word: np.ndarray) -> np.ndarray:
    """Per row of spins' words (the last column zero), each term's word: the
    XOR of its sites' words and its sign word, set where its product is -1."""
    negative = np.bitwise_xor.reduce(words[..., padded], axis=-2)
    negative ^= sign_word
    return negative


_INLINE_DEGREE = 64  # a spin in more terms sums them with one sum() call


@functools.lru_cache(maxsize=8)
def _sweep_kernel(num_spins: int, terms: int,
                  spin_terms: Tuple[Tuple[int, ...], ...]) -> Callable:
    """The Metropolis sweep of one topology, compiled to straight-line code.

    kernel(state, offsets, drawn, skip, top) runs drawn sweeps. state is the
    spins' lane ints, then the terms' (_lockstep), and is updated in place;
    proposal i of sweep at takes offsets[at * S + i]. The spins' ints after
    every sweep at >= skip are returned, one tuple a sweep. Each int is a
    local (s<i>, t<t>, o<i>), so proposal i is one line of additions, an AND
    with top and a test: f = (t3 + t7 + ... + o5) & top, then, if f, the
    shifted f is XORed into s5, t3, t7, ... A spin in more than
    _INLINE_DEGREE terms sums them with sum((...), o5) instead: a flat
    a + b + ... nests one level a term, and CPython's compiler runs out of
    recursion depth near 3000 terms. The source holds integer indices only.

    The cache exists because every metropolis call would compile its
    kernel again otherwise, which costs about 5 ms at toric2d:8 and 65 ms at
    toric2d:32 (2-vCPU Xeon, Python 3.11).
    """
    low = _lane_bits(max(map(len, spin_terms))) - 1
    spins = [f"s{i}" for i in range(num_spins)]
    ints = ", ".join(spins + [f"t{t}" for t in range(terms)])
    offsets = ", ".join(f"o{i}" for i in range(num_spins))
    lines = [
        "def sweep(state, offsets, drawn, skip, top):",
        f"    {ints}, = state",
        "    rows = []",
        "    for at in range(drawn):",
        f"        {offsets}, = offsets[{num_spins} * at:{num_spins} * (at + 1)]",
    ]
    for i, negs in enumerate(spin_terms):
        names = [f"t{t}" for t in negs]
        if len(names) > _INLINE_DEGREE:
            total = f"sum(({', '.join(names)},), o{i})"
        else:
            total = " + ".join(names + [f"o{i}"])
        lines += [f"        f = ({total}) & top", "        if f:",
                  f"            f >>= {low}"]
        lines += [f"            {name} ^= f" for name in [spins[i]] + names]
    lines += [
        "        if at >= skip:",
        f"            rows.append(({', '.join(spins)},))",
        f"    state[:] = {ints},",
        "    return rows",
    ]
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<sweep of {num_spins} spins>", "exec"),
         namespace)
    return namespace["sweep"]


def _lockstep(num_spins: int, tables, kernel: Callable, lanes: Sequence[Lane],
              sign_word: np.ndarray, sweeps: int, burn_in: int):
    """One pass: every lane's chain on one topology, stepped together.

    Lane c is the F bits at c*F of each state int (F = _lane_bits, and
    len(lanes) * F <= 64): spin i's int has 1 at c*F where the spin is down,
    term t's int 1 where its product is -1. sign_word is the lanes' signs
    packed the same way, 1 where a term's sign is -1. kernel, the topology's
    _sweep_kernel, runs each block of drawn sweeps in one call. Returns the
    spins' ints after each measured sweep as uint64, shape (measured sweeps,
    spins + 1); the last column is zero, so a term's sites padded with index
    spins XOR to its product.

    Draws stay integers. The uniform of draw z is u = (z >> 11) * 2^-53, so
    u < a holds exactly when the integer z >> 11 is below ceil(a * 2^53)
    (_integer_cuts): scaling a float by 2^53 and taking its ceiling are
    exact, and the sentinel a = 2 becomes 2^54, above every draw. Each block
    runs splitmix64 into one reused (lanes, sweeps, spins) buffer and
    compares it with these integer cuts.
    """
    padded, spin_terms = tables
    n = len(lanes)
    deg = np.array([len(t) for t in spin_terms])
    max_deg = int(deg.max())
    field = _lane_bits(max_deg)
    # one threshold at least: a cut of cost <= 0 adds 1 to the count and 1
    # to k_max, which leaves half - K as it is
    half, k_max = 1 << (field - 1), max(1, (max_deg + 1) >> 1)
    # cut[j, c, 0, i] = accept_c[m] for m = deg_i - 2j > 0, else 2 (never u >= 2)
    cost = deg - 2 * np.arange(k_max)[:, None]
    cut = np.empty((k_max, n, 1, num_spins))
    for c, (_, beta, _) in enumerate(lanes):
        # Acceptance probability min(1, e^{-beta dH}) of dH = 2*m for m =
        # 1..max_deg (m <= 0 always accepts), taken as e^{min(0, .)} so beta < 0
        # cannot overflow; the thresholds below need it non-increasing when
        # beta >= 0.
        accept = [math.exp(min(0.0, -2.0 * beta * m)) for m in range(1, max_deg + 1)]
        if beta >= 0 and any(a < b for a, b in zip(accept, accept[1:])):
            raise InternalInvariantError(
                f"acceptance table increases at beta={beta}: {accept}"
            )
        cut[:, c, 0] = np.array([2.0] + accept)[cost.clip(0)]
    cut = _integer_cuts(cut)

    seeds = np.array([seed & _MASK for *_, seed in lanes], dtype=np.uint64)
    seeds = seeds.reshape(n, 1, 1)
    # spin i starts down where u >= 1/2, the top bit of its draw
    init = splitmix64(np.arange(num_spins, dtype=np.uint64), seeds)
    init >>= np.uint64(63)
    start = np.zeros(num_spins + 1, dtype=np.uint64)
    start[:num_spins] = _pack(init, field)
    # spins, then the terms' negative products
    state = start[:num_spins].tolist() + _term_words(start, padded, sign_word).tolist()
    top = sum(half << c * field for c in range(n))
    base = np.uint64(sum((half - k_max) << c * field for c in range(n)))

    spins = np.zeros((sweeps - burn_in, num_spins + 1), dtype=np.uint64)
    block = max(1, _UNIFORMS_PER_DRAW // (n * num_spins))
    draws = np.empty((n, block, num_spins), dtype=np.uint64)
    counts = np.empty_like(draws)
    for first in range(0, sweeps, block):
        # sweeps [first, end) take counters [(1+first)*S, (1+end)*S)
        end = min(sweeps, first + block)
        counters = np.arange((1 + first) * num_spins, (1 + end) * num_spins,
                             dtype=np.uint64).reshape(end - first, num_spins)
        z = splitmix64(counters, seeds, out=draws[:, :end - first])
        z >>= np.uint64(11)
        # half - K per lane, K = #{j : u >= cut_j} the spin's threshold; field
        # c of a proposal's sum is h_c + half - K_c, its top bit h_c >= K_c
        need = np.less(z, cut[0], out=counts[:, :end - first])
        for cut_j in cut[1:]:
            need += z < cut_j
        words = _pack(need, field)
        words += base
        rows = kernel(state, words.ravel().tolist(), end - first, burn_in - first, top)
        if rows:
            spins[end - burn_in - len(rows):end - burn_in, :num_spins] = rows
    return spins


def _pack(values: np.ndarray, field: int) -> np.ndarray:
    """Lane c's values (axis 0, each < 2^field) at bit c*field of one uint64
    per remaining index; shifts a uint64 argument in place."""
    words = np.asarray(values, dtype=np.uint64)
    shift = np.arange(len(words), dtype=np.uint64) * np.uint64(field)
    words <<= shift.reshape((-1,) + (1,) * (words.ndim - 1))
    return np.bitwise_or.reduce(words, axis=0)


def _integer_cuts(cut: np.ndarray) -> np.ndarray:
    """ceil(cut * 2^53) as uint64: k < it exactly when k * 2^-53 < cut."""
    return np.ceil(np.ldexp(cut, 53)).astype(np.uint64)


def _lane_bits(max_deg: int) -> int:
    """Bits per lane: a count of up to max_deg negative terms, plus a top bit."""
    return max_deg.bit_length() + 1


def _chains(model: SmModel, lanes: Sequence[Lane], sweeps: int,
            burn_in: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Each lane's (energy-per-spin series, int8 +-1 spin snapshots) post
    burn, in lane order. A lane is a chain's (signs, beta, stream seed) on
    model's masks. The call fetches the masks' sweep kernel, compiling it on
    a cache miss; the lanes run in passes of as many as fit one 64-bit word,
    each pass when its first lane is asked for.

    A pass's energies come from its words, all lanes at once: XORing each
    term's site words and the lanes' sign word puts lane c's negative-term
    bit at c*F. A lane's count of negative terms needs bit_length(T) bits,
    so the lanes are split into g residue classes mod g, which places a
    class's fields g*F >= bit_length(T) bits apart, and g is raised until
    the class's top field fits the word; a uint64 sum over the terms then
    carries no lane into the next. The snapshots of one lane are unpacked
    when it is yielded.
    """
    num_spins = model.num_spins
    padded, spin_terms = tables = _spin_tables(num_spins, model.masks)
    terms = padded.shape[1]
    kernel = _sweep_kernel(num_spins, terms, spin_terms)
    field = _lane_bits(max(map(len, spin_terms)))
    width, count_bits = 64 // field, terms.bit_length()
    # sweeps a readout step gathers: no more site words than a draw's uniforms
    chunk = max(1, _UNIFORMS_PER_DRAW // max(1, padded.size))

    def energies(words: np.ndarray, n: int, sign_word: np.ndarray) -> np.ndarray:
        groups = max(1, -(-count_bits // field))
        while (n - 1) // groups * groups * field + count_bits > 64:
            groups += 1
        # lane c of class r = c % groups sits at bit at[c] of its class's
        # words shifted down by r * field
        lane = np.arange(n)
        at = (lane // groups * groups * field).astype(np.uint64)
        masks = [np.uint64(sum(1 << int(b) for b in at[r::groups]))
                 for r in range(groups)]
        sums = np.empty((groups, len(words)), dtype=np.uint64)
        for a in range(0, len(words), chunk):
            negative = _term_words(words[a:a + chunk], padded, sign_word)
            for r, mask in enumerate(masks):
                part = negative >> np.uint64(r * field)
                part &= mask
                part.sum(axis=1, out=sums[r, a:a + chunk])
        counts = sums[lane % groups]
        counts >>= at[:, None]
        counts &= np.uint64((1 << count_bits) - 1)
        # -(sum of the term products) / S, the products summing to
        # T - 2 * (negative terms)
        counts = counts.view(np.int64)
        counts *= 2
        counts -= terms
        return counts / num_spins

    def passes():
        for start in range(0, len(lanes), width):
            batch = lanes[start:start + width]
            sign_word = _pack(np.array([signs for signs, _, _ in batch]) < 0, field)
            words = _lockstep(num_spins, tables, kernel, batch, sign_word,
                              sweeps, burn_in)
            series = energies(words, len(batch), sign_word)
            # bit at of a word is bit at % 8 of byte at // 8
            as_bytes = words.astype("<u8", copy=False).view(np.uint8).reshape(
                len(words), num_spins + 1, 8)
            for c in range(len(batch)):
                at = c * field
                down = (as_bytes[:, :num_spins, at >> 3] >> (at & 7)) & 1
                yield series[c], 1 - 2 * down.astype(np.int8)

    return passes()


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
    The compares are made on the integers behind the uniforms: u = k * 2^-53
    for k = z >> 11 of a splitmix64 output z, and u < a exactly when k <
    ceil(a * 2^53), since k is an integer and scaling by 2^53 and the
    ceiling are exact in floats. So each chain is the one the direct rule
    gives, bit for bit. Each draw, up to _UNIFORMS_PER_DRAW outputs over
    whole sweeps of every lane, becomes one int per proposal holding half -
    K in every lane's field; a proposal sums it with the ints of its deg_i
    terms, which puts h + half - K in each field, and the fields' top bits
    are the lanes that flip. The sweeps run in code
    compiled once per topology (_sweep_kernel) with every int a local, so a
    proposal is deg_i additions, an AND and a test for all lanes together,
    plus a shift and deg_i + 1 XORs when any lane flips, and no call. F =
    bit_length(max degree) + 1 bits per lane give 64 // F lanes a pass (16
    at degree 4, 6 at degree 510).

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
    """An iid rate-p error pattern over the qubits from the counter stream:
    qubit l errs where its draw's uniform is below p, compared as integers
    (_integer_cuts), exactly for every p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {p}")
    z = splitmix64(np.arange(code.n, dtype=np.uint64), rng_seed)
    z >>= np.uint64(11)
    return BitVector.from_bits((z < _integer_cuts(np.float64(p))).tolist())


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
    receives "mc lanes=<chains> kernel=<s>s" once, with the time _chains
    took to build its tables and fetch or compile the sweep kernel, and, per
    point, "time p=<p>: <s>s", the wall time of the point's metropolis
    calls, the passes they start and their disorder average, then
    "accept p=<p>: <rate>", the share of the point's proposals accepted in
    every measured sweep after the first, counted from the snapshots.
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
    # sample j at point idx draws its disorder on derive_seed(cfg.seed, idx,
    # j, 0), and its replica r runs on derive_seed(cfg.seed, idx, j, 1, r),
    # the stream metropolis gives replica r of run seed derive_seed(cfg.seed,
    # idx, j, 1)
    grid = (np.arange(len(p_grid)).reshape(-1, 1, 1),
            np.arange(disorder_samples).reshape(-1, 1))
    disorder = derive_seeds(cfg.seed, *grid, [0])[..., 0].tolist()
    streams = derive_seeds(cfg.seed, *grid, [1], np.arange(cfg.replicas)).tolist()
    models = [  # per point, every sample's model
        [replace(base, signs=_signs(sample_disorder(code, p, seed))) for seed in seeds]
        for p, seeds in zip(p_grid, disorder)
    ]
    lanes = [
        (model.signs, beta, stream)
        for beta, point, point_streams in zip(betas, models, streams)
        for model, sample_streams in zip(point, point_streams)
        for stream in sample_streams
    ]
    start = time.perf_counter()
    chains = _chains(base, lanes, cfg.sweeps, cfg.burn_in)
    if log is not None:
        log(f"mc lanes={len(lanes)} kernel={time.perf_counter() - start:.4f}s")
    # a spin changes only at its own proposal, once a sweep, so two
    # consecutive snapshots of a chain differ exactly where one was accepted
    proposed = (disorder_samples * cfg.replicas * base.num_spins
                * (cfg.sweeps - cfg.burn_in - 1))
    rows = []
    for p, beta, point in zip(p_grid, betas, models):
        start = time.perf_counter()
        results, accepted = [], 0
        for model in point:
            replicas = list(itertools.islice(chains, cfg.replicas))
            accepted += sum(np.count_nonzero(spins[1:] != spins[:-1])
                            for _, spins in replicas)
            results.append(metropolis(model, beta, cfg, chains=replicas))
        rows.append(_disorder_average(p, beta, results))
        if log is not None:
            log(f"time p={p:.6g}: {time.perf_counter() - start:.4f}s")
            log(f"accept p={p:.6g}: {accepted / proposed:.4f}")
    return rows
