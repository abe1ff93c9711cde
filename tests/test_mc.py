"""Metropolis sampling against exact enumeration oracles."""

import dataclasses
import dis
import hashlib
import json
import math
import tracemalloc
from types import SimpleNamespace
from typing import List

import numpy as np
import pytest

from csstat import mc
from csstat.channels import InternalInvariantError
from csstat.gf2 import BitVector
from csstat.mc import (
    _UNIFORMS_PER_DRAW,
    McConfig,
    _chains,
    _integer_cuts,
    _lane_bits,
    derive_seed,
    derive_seeds,
    metropolis,
    nishimori_scan,
    sample_disorder,
    splitmix64,
)
from csstat.statmech import (
    SmModel,
    _signs,
    build_sm_coupled,
    build_sm_x,
    build_sm_z,
    mask_sites,
    nishimori_beta,
)
from csstat.zoo import four22, from_selector, surface2d, toric2d
from oracles import exact_observables, scalar_derive_seed, uniforms


def test_splitmix64_known_vectors():
    # the first three outputs of the reference stream at seed 0
    got = splitmix64(np.arange(3, dtype=np.uint64), 0)
    assert [hex(int(x)) for x in got] == [
        "0xe220a8397b1dcdaf",
        "0x6e789e6aa1b965f4",
        "0x6c45d188009454f",
    ]


def test_uniforms_in_unit_interval():
    u = uniforms(np.arange(4096, dtype=np.uint64), 123)
    assert u.min() >= 0.0 and u.max() < 1.0
    # 53-bit mantissa construction: mean near 1/2
    assert abs(float(u.mean()) - 0.5) < 0.02


def test_derive_seed_separates_indices():
    seeds = {derive_seed(7, i, j) for i in range(8) for j in range(8)}
    assert len(seeds) == 64
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


def test_derive_seed_matches_scalar_mixer():
    # derive_seed folds each index through splitmix64 itself; the scalar
    # copy of the mixer it replaced gives the same seed for every input
    rng = np.random.default_rng(29)
    for _ in range(2000):
        seed = int(rng.integers(-(1 << 62), 1 << 62)) << int(rng.integers(0, 4))
        indices = [int(ix) for ix in rng.integers(0, 1 << 63, rng.integers(0, 4))]
        indices += [(1 << 64) - 1] if rng.random() < 0.1 else []
        assert derive_seed(seed, *indices) == scalar_derive_seed(seed, *indices)


def test_derive_seeds_folds_each_level_over_a_grid():
    # one splitmix64 call a level gives derive_seed at every grid point
    got = derive_seeds(-5, np.arange(3).reshape(-1, 1, 1), np.arange(4).reshape(-1, 1),
                       [0, 1, (1 << 64) - 1])
    assert got.shape == (3, 4, 3) and got.dtype == np.uint64
    for (p, j, k), seed in np.ndenumerate(got):
        assert int(seed) == scalar_derive_seed(-5, p, j, [0, 1, (1 << 64) - 1][k])
    assert derive_seeds(9).tolist() == [9] and derive_seed(9) == 9


def test_splitmix64_fills_a_given_buffer():
    seeds = np.array([3, 1 << 63], dtype=np.uint64).reshape(2, 1, 1)
    counters = np.arange(12, dtype=np.uint64).reshape(3, 4)
    out = np.zeros((2, 5, 4), dtype=np.uint64)
    got = splitmix64(counters, seeds, out=out[:, 1:4])
    assert np.shares_memory(got, out)
    assert np.array_equal(out[:, 1:4], splitmix64(counters, seeds))
    assert not out[:, 0].any() and not out[:, 4].any()


# accept values at and around the 2^-53 grid of the uniforms: grid points,
# one ulp either side, 0, a subnormal, 1/2, 1 and the sentinel 2
_GRID = [k * 2.0 ** -53 for k in (1, 3, 12345, (1 << 52) + 1, (1 << 53) - 1)]
_EDGE_CUTS = sorted(
    {0.0, 5e-324, 2.0 ** -60, 0.5, 1.0, 2.0}
    | set(_GRID)
    | {math.nextafter(g, 0.0) for g in _GRID}
    | {math.nextafter(g, 2.0) for g in _GRID}
)


@pytest.mark.parametrize("beta", [0.7, 0.0, -0.4])
def test_integer_cuts_are_the_float_compare(beta):
    # k < _integer_cuts(a) exactly when the uniform k * 2^-53 is below a,
    # for the edge values, for the acceptance table at beta >= 0, beta = 0
    # and beta < 0, and for every k next to each cut plus random draws
    table = [math.exp(min(0.0, -2.0 * beta * m)) for m in range(1, 9)]
    cuts = np.array(_EDGE_CUTS + table)
    ints = _integer_cuts(cuts)
    assert ints.dtype == np.uint64 and int(_integer_cuts(np.array(2.0))) == 1 << 54
    near = {k + d for k in map(int, ints) for d in (-2, -1, 0, 1)}
    draws = splitmix64(np.arange(200_000, dtype=np.uint64), 77) >> np.uint64(11)
    ks = np.concatenate([np.array(sorted(k for k in near if 0 <= k < 1 << 53),
                                  dtype=np.uint64), draws])
    u = ks.astype(np.float64) * 2.0 ** -53
    for a, c in zip(cuts, ints):
        assert np.array_equal(ks < c, u < a), a


def test_mcconfig_validation():
    McConfig(sweeps=100, burn_in=10)
    with pytest.raises(ValueError):
        McConfig(sweeps=10, burn_in=10)  # nothing left to measure
    with pytest.raises(ValueError):
        McConfig(sweeps=20, burn_in=10)  # fewer kept sweeps than blocks
    with pytest.raises(ValueError):
        McConfig(sweeps=100, burn_in=-1)
    with pytest.raises(ValueError):
        McConfig(sweeps=100, burn_in=10, replicas=0)


def seeded_model(code, p, seed):
    b = code.syndrome_z(sample_disorder(code, p, seed))
    kz = BitVector(code.k, 0)
    from csstat.css import representative_x

    return build_sm_x(code, representative_x(code, b, kz))


@pytest.mark.parametrize("beta,sweeps", [(0.2, 4000), (0.5, 6000), (1.0, 40000)])
def test_energy_matches_exact_within_3_sigma(beta, sweeps):
    # disorder realization fixed by seed; the blocked error bar must cover
    # the enumeration value (per spin). Larger beta mixes slower, hence
    # more sweeps so the 16-block errors stay valid.
    code = toric2d(2)
    model = seeded_model(code, 0.3, seed=200)
    cfg = McConfig(sweeps=sweeps, burn_in=sweeps // 5, seed=11, replicas=2)
    obs = metropolis(model, beta, cfg)
    _, exact_energy, _ = exact_observables(model, beta)
    pull = (obs.mean_energy - exact_energy / model.num_spins) / obs.energy_err
    assert abs(pull) < 3.0


def test_overlap_matches_exact_correlations():
    # odd-degree spins never see a zero-cost flip, so the fixed-order
    # dynamics is ergodic and the replica overlap must reproduce the
    # enumeration value <q^2> = mean_ij <s_i s_j>^2. (Even-degree models
    # have flat directions that fixed-order updates traverse
    # deterministically; see the metropolis docstring.)
    code = surface2d(2, 4)
    model = seeded_model(code, 0.25, seed=31)
    beta = nishimori_beta(0.3)
    cfg = McConfig(sweeps=12000, burn_in=2000, seed=3, replicas=4)
    obs = metropolis(model, beta, cfg)
    _, _, corr = exact_observables(model, beta)
    q2_exact = float((corr**2).mean())
    assert abs(obs.ea_overlap - q2_exact) < 4 * obs.ea_err


def test_single_replica_has_no_overlap():
    model = seeded_model(toric2d(2), 0.2, seed=5)
    cfg = McConfig(sweeps=400, burn_in=100, seed=1, replicas=1)
    obs = metropolis(model, 0.4, cfg)
    assert math.isnan(obs.ea_overlap) and math.isnan(obs.ea_err)
    assert math.isfinite(obs.mean_energy)


def test_metropolis_is_deterministic():
    model = seeded_model(surface2d(2, 2), 0.2, seed=9)
    cfg = McConfig(sweeps=600, burn_in=120, seed=42, replicas=2)
    a = metropolis(model, 0.55, cfg)
    b = metropolis(model, 0.55, cfg)
    assert a == b
    # and the seed actually matters
    c = metropolis(model, 0.55, McConfig(sweeps=600, burn_in=120, seed=43, replicas=2))
    assert c.mean_energy != a.mean_energy


def test_coupled_models_rejected():
    code = four22()
    model = build_sm_coupled(code, BitVector(4, 0), BitVector(4, 0))
    with pytest.raises(ValueError):
        metropolis(model, 0.3, McConfig(sweeps=100, burn_in=10))


def test_sample_disorder_statistics():
    code = toric2d(3)  # n = 18
    p = 0.3
    counts = sum(
        sample_disorder(code, p, seed).weight() for seed in range(400)
    )
    total = 400 * code.n
    # binomial(total, p): 5 sigma band
    sigma = math.sqrt(total * p * (1 - p))
    assert abs(counts - total * p) < 5 * sigma
    assert sample_disorder(code, 0.0, 1).is_zero()
    assert sample_disorder(code, 1.0, 1).weight() == code.n


def test_scan_rows_are_repeatable():
    code = toric2d(2)
    grid = [0.08, 0.2]
    cfg = McConfig(sweeps=500, burn_in=100, seed=6, replicas=2)
    rows1 = nishimori_scan(code, "x", grid, disorder_samples=3, cfg=cfg)
    rows2 = nishimori_scan(code, "x", grid, disorder_samples=3, cfg=cfg)
    assert rows1 == rows2  # a pure function of the seed
    for row, p in zip(rows1, grid):
        assert row.p == p
        assert abs(row.beta - nishimori_beta(p)) < 1e-15
        assert row.samples == 3
        assert row.energy_err > 0


def test_scan_rows_are_pinned():
    # sha256 of the rows pins the mc output bit for bit: any change to the
    # sampled values, their order or their rounding shows here
    code = toric2d(3)
    rows = nishimori_scan(
        code, "x", [0.08, 0.2], 2,
        McConfig(sweeps=300, burn_in=60, seed=3, replicas=2),
    )
    rows += nishimori_scan(
        code, "z", [0.11], 2,
        McConfig(sweeps=300, burn_in=60, seed=4, replicas=3),
    )
    payload = json.dumps([dataclasses.astuple(r) for r in rows])
    assert hashlib.sha256(payload.encode()).hexdigest() == (
        "f0e381281a5f9ee2cbced593355fbb1a88440aba936efe793b9a8595cfd17da4"
    )


@pytest.mark.parametrize("replicas, samples", [(1, 6), (3, 2)])
def test_scan_rows_are_those_of_each_sample_run_alone(replicas, samples):
    # 18 chains, two passes of lanes (16 + 2) with a sample split between
    # them at 3 replicas: every row is the disorder average of metropolis
    # run alone on each sample's model and streams (NaN overlaps at one
    # replica, so compared as JSON)
    code, grid = toric2d(3), [0.08, 0.2, 0.3]
    cfg = McConfig(sweeps=60, burn_in=12, seed=8, replicas=replicas)
    base = build_sm_x(code, BitVector(code.n, 0))
    alone = []
    for idx, p in enumerate(grid):
        results = []
        for j in range(samples):
            error = sample_disorder(code, p, derive_seed(cfg.seed, idx, j, 0))
            run_cfg = dataclasses.replace(cfg, seed=derive_seed(cfg.seed, idx, j, 1))
            model = dataclasses.replace(base, signs=_signs(error))
            results.append(metropolis(model, nishimori_beta(p), run_cfg))
        alone.append(mc._disorder_average(p, nishimori_beta(p), results))
    rows = nishimori_scan(code, "x", grid, samples, cfg)
    assert json.dumps([dataclasses.astuple(r) for r in rows]) == json.dumps(
        [dataclasses.astuple(r) for r in alone])


@pytest.mark.parametrize(
    "size, sweeps, burn_in, digest",
    [
        # 9 spins: 455 sweeps per draw, so 1001 sweeps cross two draw edges
        (3, 1001, 100, "c4e6173293517ac6c938792bb320d8bb1ce7b4161db23c96adc2f147e88e3b40"),
        # 64 spins: 64 sweeps per draw, so 130 sweeps end in a partial draw
        (8, 130, 3, "c2a3a71e6c0affed913d0ca00ddbf2e8a9301b57d7f3bc5ecd0016c3190d816e"),
    ],
)
def test_block_drawn_uniforms_are_pinned(size, sweeps, burn_in, digest):
    # recorded when every sweep drew its own uniforms: the counters, and so
    # the chains, are the same however the draws are grouped
    model = seeded_model(toric2d(size), 0.1, seed=7)
    cfg = McConfig(sweeps=sweeps, burn_in=burn_in, seed=5, replicas=2)
    obs = metropolis(model, nishimori_beta(0.1), cfg)
    payload = json.dumps(dataclasses.astuple(obs))
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


def test_scan_input_validation():
    code = toric2d(2)
    cfg = McConfig(sweeps=200, burn_in=50)
    with pytest.raises(ValueError):
        nishimori_scan(code, "y", [0.1], 1, cfg)
    with pytest.raises(ValueError):
        nishimori_scan(code, "x", [0.0], 1, cfg)  # beta undefined at p = 0
    with pytest.raises(ValueError):
        nishimori_scan(code, "x", [0.1], 0, cfg)


# The direct rule as a sequential loop: every proposal sums its terms and
# compares its uniform with accept[m]. Oracle for the threshold kernel.
def _oracle_replica(
    model: SmModel, beta: float, sweeps: int, burn_in: int, stream_seed: int
):
    """One chain; returns (energy-per-spin series, spin snapshots, accepted
    proposals per sweep) post burn."""
    num_spins = model.num_spins
    sites = [mask_sites(mask) for mask in model.masks]
    by_spin: List[List[int]] = [[] for _ in range(num_spins)]
    for t_idx, term_sites in enumerate(sites):
        for s in term_sites:
            by_spin[s].append(t_idx)
    spin_terms = [tuple(lst) for lst in by_spin]
    max_deg = max((len(t) for t in spin_terms), default=0)
    # Acceptance lookup min(1, exp(-beta*dH)) for dH = 2*m, m = 1..max_deg
    # (dH <= 0 always accepts), as exp(min(0, .)) so beta < 0 cannot overflow.
    accept = [1.0] + [math.exp(min(0.0, -2.0 * beta * m))
                      for m in range(1, max_deg + 1)]

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
    accepted = np.zeros(meas, dtype=np.int64)
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
                if sweep >= burn_in:
                    accepted[sweep - burn_in] += 1
                spins[i] = -spins[i]
                for t in terms_i:
                    prod[t] = -prod[t]
        if sweep >= burn_in:
            j = sweep - burn_in
            energy[j] = -sum(prod) / num_spins if num_spins else 0.0
            snaps[j] = spins
    return energy, snaps, accepted


_SELECTOR_SIDES = [
    ("toric2d:3", "x"),
    ("toric2d:3", "z"),
    ("surface2d:3x4", "x"),  # boundary spins of odd degree, 1-site terms
    ("color666:3x3", "z"),  # 3-site terms
    ("steane", "x"),
]


def _model_at(selector, side, p, seed):
    code = from_selector(selector)
    base = (build_sm_x if side == "x" else build_sm_z)(code, BitVector(code.n, 0))
    return dataclasses.replace(base, signs=_signs(sample_disorder(code, p, seed)))


def _assert_lanes_follow_oracle(model, lanes, sweeps, burn_in):
    # every lane's chain against the direct rule on its own signs, bit for bit
    got = list(_chains(model, lanes, sweeps, burn_in))
    assert len(got) == len(lanes)
    for (signs, beta, seed), (energy, spins) in zip(lanes, got):
        want = _oracle_replica(
            dataclasses.replace(model, signs=signs), beta, sweeps, burn_in, seed)
        assert np.array_equal(energy, want[0])
        assert spins.dtype == want[1].dtype
        assert np.array_equal(spins, want[1])


@pytest.mark.parametrize("p", [0.05, 0.11, 0.3, 0.5, 0.7])
@pytest.mark.parametrize("selector, side", _SELECTOR_SIDES)
def test_thresholds_match_direct_rule(selector, side, p):
    # one lane against the direct rule, bit for bit. p = 0.5 is beta = 0
    # and p = 0.7 is beta < 0, where every K = 0 and every proposal flips;
    # the run crosses two draw edges and ends in a partial draw
    model = _model_at(selector, side, p, derive_seed(17, round(p * 100)))
    sweeps = 2 * (_UNIFORMS_PER_DRAW // model.num_spins) + 7
    lane = (model.signs, nishimori_beta(p), derive_seed(3, round(p * 100)))
    _assert_lanes_follow_oracle(model, [lane], sweeps, 5)


@pytest.mark.parametrize("selector, side", _SELECTOR_SIDES)
def test_lanes_match_direct_rule(selector, side):
    # one more lane than a pass holds, so a full pass and a 1-lane pass:
    # beta > 0, beta = 0 (p = 0.5) and beta < 0 (p = 0.7) side by side, each
    # lane with its own disorder and stream, over two draw edges of the
    # full pass and a partial draw
    rates = [0.05, 0.11, 0.3, 0.5, 0.7]
    model = _model_at(selector, side, 0.1, 1)
    degree = max(sum(mask >> s & 1 for mask in model.masks)
                 for s in range(model.num_spins))
    width = 64 // _lane_bits(degree)
    lanes = []
    for c in range(width + 1):
        p = rates[c % len(rates)]
        signs = _model_at(selector, side, p, derive_seed(19, c)).signs
        lanes.append((signs, nishimori_beta(p), derive_seed(23, c)))
    sweeps = 2 * (_UNIFORMS_PER_DRAW // (width * model.num_spins)) + 7
    _assert_lanes_follow_oracle(model, lanes, sweeps, 5)


def test_lanes_follow_the_direct_rule_at_degrees_510_and_511():
    # one spin in 510 or 511 terms: 10 bits a lane, so 6 lanes a pass, and
    # thresholds up to 256; the rates share one pass and follow the direct rule
    for degree in (510, 511):
        model = SmModel(num_spins=1, masks=(1,) * degree,
                        signs=((1, -1) * 256)[:degree], species="x", sigma_spins=1)
        lanes = [(model.signs, nishimori_beta(p), 9 + c)
                 for c, p in enumerate((0.05, 0.3, 0.7))]
        _assert_lanes_follow_oracle(model, lanes, 40, 5)
    obs = metropolis(model, 0.3, McConfig(sweeps=40, burn_in=8))
    assert math.isfinite(obs.mean_energy)


def test_a_spin_in_4096_terms_follows_the_direct_rule():
    # past _INLINE_DEGREE the kernel sums a spin's terms with one sum() call:
    # a flat sum of 4096 terms would exhaust the compiler's recursion depth
    degree = 4096
    model = SmModel(num_spins=1, masks=(1,) * degree,
                    signs=(1, -1, -1) * (degree // 3) + (1,) * (degree % 3),
                    species="x", sigma_spins=1)
    lanes = [(model.signs, nishimori_beta(p), 31 + c)
             for c, p in enumerate((0.01, 0.05, 0.3, 0.7))]
    _assert_lanes_follow_oracle(model, lanes, 40, 5)


@pytest.mark.parametrize(
    "num_spins, masks, signs",
    [
        (4, (0b011, 0b110, 0b001), (1, -1, 1)),  # spin 3 in no term
        (3, (0b011, 0, 0b110, 0), (-1, -1, 1, 1)),  # two terms on no sites
    ],
    ids=["degree 0", "empty term"],
)
def test_hand_built_edge_models_follow_the_direct_rule(num_spins, masks, signs):
    # a spin of degree 0 flips at every proposal (m = 0); a term on no
    # sites keeps its sign's product and enters only the energy. Four
    # lanes over two draw edges and a partial draw
    model = SmModel(num_spins=num_spins, masks=masks, signs=signs,
                    species="z", sigma_spins=num_spins)
    lanes = [(model.signs, nishimori_beta(p), 41 + c)
             for c, p in enumerate((0.05, 0.2, 0.5, 0.7))]
    sweeps = 2 * (_UNIFORMS_PER_DRAW // (len(lanes) * num_spins)) + 7
    _assert_lanes_follow_oracle(model, lanes, sweeps, 5)


@pytest.mark.parametrize("degree, terms", [(2, 63), (2, 64), (4, 255), (4, 256)])
def test_counts_at_a_group_edge_follow_the_direct_rule(degree, terms):
    # a lane counts up to T = 2^(g*F) - 1 or 2^(g*F) negative terms, which
    # fill g lanes' fields of a word or need one class more. Each spin
    # carries up to degree one-site terms, and every lane's signs make all
    # terms negative at its initial configuration, so at beta < 0 (every
    # proposal flips) the counts alternate between T and 0, in the top lane
    # of a full pass and in a 3-lane pass, whose top field fits without
    # more groups; beta > 0 lanes ride along
    spins = -(-terms // degree)
    masks = tuple(1 << (t // degree) for t in range(terms))
    field = _lane_bits(degree)
    lanes = []
    for c in range(64 // field + 3):
        seed = derive_seed(43, c)
        down = uniforms(np.arange(spins, dtype=np.uint64), seed) >= 0.5
        signs = tuple(1 if down[t // degree] else -1 for t in range(terms))
        lanes.append((signs, nishimori_beta(0.3 if c % 5 == 2 else 0.8), seed))
    model = SmModel(num_spins=spins, masks=masks, signs=lanes[0][0],
                    species="x", sigma_spins=spins)
    got = list(_chains(model, lanes, 30, 4))
    for top, _ in (got[64 // field - 1], got[-1]):
        assert top.max() == terms / spins and top.min() == -terms / spins
    _assert_lanes_follow_oracle(model, lanes, 30, 4)


def test_a_second_chains_call_on_the_same_masks_compiles_nothing(monkeypatch):
    # the kernel is cached per topology: other signs, betas, seeds and lane
    # counts on the same masks reuse it
    model = _model_at("toric2d:3", "z", 0.1, 3)
    list(_chains(model, [(model.signs, 0.4, 1)], 40, 8))
    before = mc._sweep_kernel.cache_info()

    def no_compile(*args):
        raise AssertionError("a kernel was compiled")

    monkeypatch.setattr(mc, "compile", no_compile, raising=False)
    other = _model_at("toric2d:3", "z", 0.3, 4)
    lanes = [(other.signs, beta, 2 + c) for c, beta in enumerate((0.1, 0.9, -0.2))]
    _assert_lanes_follow_oracle(other, lanes, 40, 8)
    after = mc._sweep_kernel.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 1)
    monkeypatch.undo()
    # and it keeps at most maxsize kernels, however many topologies run
    for degree in range(1, after.maxsize + 3):
        wide = SmModel(num_spins=1, masks=(1,) * degree, signs=(1,) * degree,
                       species="x", sigma_spins=1)
        list(_chains(wide, [(wide.signs, 0.4, 1)], 40, 8))
    assert mc._sweep_kernel.cache_info().currsize == after.maxsize


def test_a_proposal_calls_nothing():
    # the toric2d:8 kernel's proposals are straight-line integer code: no
    # CALL between one proposal's AND with top and the next one's
    model = build_sm_x(toric2d(8), BitVector(128, 0))
    _, spin_terms = mc._spin_tables(model.num_spins, model.masks)
    kernel = mc._sweep_kernel(model.num_spins, len(model.masks), spin_terms)
    ops = [(ins.opname, ins.argrepr) for ins in dis.get_instructions(kernel)]
    ands = [k for k, (name, arg) in enumerate(ops)
            if name == "BINARY_AND" or (name == "BINARY_OP" and arg == "&")]
    assert len(ands) == model.num_spins
    for a, b in zip(ands, ands[1:]):
        assert not [name for name, _ in ops[a:b] if "CALL" in name], (a, b)


def test_the_logged_acceptance_is_the_direct_rule_count():
    # accept p= counts the flips between consecutive snapshots; the direct
    # rule counts its accepted proposals in the same sweeps
    code, grid = toric2d(3), [0.08, 0.2]
    cfg = McConfig(sweeps=60, burn_in=12, seed=8, replicas=2)
    lines: List[str] = []
    nishimori_scan(code, "x", grid, 2, cfg, log=lines.append)
    base = build_sm_x(code, BitVector(code.n, 0))
    for idx, p in enumerate(grid):
        accepted = 0
        for j in range(2):
            error = sample_disorder(code, p, derive_seed(cfg.seed, idx, j, 0))
            model = dataclasses.replace(base, signs=_signs(error))
            run_seed = derive_seed(cfg.seed, idx, j, 1)
            for r in range(cfg.replicas):
                *_, per_sweep = _oracle_replica(
                    model, nishimori_beta(p), cfg.sweeps, cfg.burn_in,
                    derive_seed(run_seed, r))
                accepted += int(per_sweep[1:].sum())
        rate = accepted / (2 * cfg.replicas * base.num_spins
                           * (cfg.sweeps - cfg.burn_in - 1))
        assert f"accept p={p:.6g}: {rate:.4f}" in lines
    assert len(lines) == 1 + 2 * len(grid)


def test_increasing_acceptance_table_is_refused(monkeypatch):
    # the thresholds are exact only for a non-increasing table at beta >= 0
    monkeypatch.setattr(mc, "math", SimpleNamespace(exp=lambda x: -x))
    model = build_sm_x(toric2d(2), BitVector(8, 0))
    with pytest.raises(InternalInvariantError, match="increases"):
        next(_chains(model, [(model.signs, 0.3, 1)], 40, 8))


def test_a_scan_keeps_its_snapshots_packed():
    # the benchmark's mc scan (toric2d:8, 16 chains of 1000 sweeps): the
    # pass keeps every chain's snapshots packed in one uint64 per spin and
    # sweep, and a sample unpacks only its own replicas, so the scan's
    # Python allocations, draws included, stay under 1.5 MiB. The sweep
    # kernel is compiled first, so the bound holds the scan and not compile
    cfg = McConfig(sweeps=1000, burn_in=250, seed=1, replicas=2)
    model = build_sm_x(toric2d(8), BitVector(128, 0))
    list(_chains(model, [(model.signs, 0.5, 1)], 20, 4))
    tracemalloc.start()
    try:
        nishimori_scan(toric2d(8), "x", [0.05, 0.1, 0.15, 0.2], 2, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20, peak
