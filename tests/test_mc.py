"""Metropolis sampling against exact enumeration oracles."""

import dataclasses
import hashlib
import json
import math
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
    _run_replica,
    derive_seed,
    metropolis,
    nishimori_scan,
    sample_disorder,
    splitmix64,
    uniforms,
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
from oracles import exact_observables


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


@pytest.mark.parametrize("p", [0.05, 0.11, 0.3, 0.5, 0.7])
@pytest.mark.parametrize(
    "selector, side",
    [
        ("toric2d:3", "x"),
        ("toric2d:3", "z"),
        ("surface2d:3x4", "x"),  # boundary spins of odd degree, 1-site terms
        ("color666:3x3", "z"),  # 3-site terms
        ("steane", "x"),
    ],
)
def test_thresholds_match_direct_rule(selector, side, p):
    # the integer thresholds against the direct rule, bit for bit. p = 0.5
    # is beta = 0 and p = 0.7 is beta < 0, where every A(u) = max_deg and
    # every proposal flips; the run crosses two draw edges and ends in a
    # partial draw
    code = from_selector(selector)
    base = (build_sm_x if side == "x" else build_sm_z)(code, BitVector(code.n, 0))
    error = sample_disorder(code, p, derive_seed(17, round(p * 100)))
    model = dataclasses.replace(base, signs=_signs(error))
    beta = nishimori_beta(p)
    sweeps = 2 * (_UNIFORMS_PER_DRAW // model.num_spins) + 7
    got = _run_replica(model, beta, sweeps, 5, derive_seed(3, round(p * 100)))
    want = _oracle_replica(model, beta, sweeps, 5, derive_seed(3, round(p * 100)))
    assert np.array_equal(got[0], want[0])
    assert got[1].dtype == want[1].dtype
    assert np.array_equal(got[1], want[1])


def test_increasing_acceptance_table_is_refused(monkeypatch):
    # the thresholds are exact only for a non-increasing table at beta >= 0
    monkeypatch.setattr(mc, "math", SimpleNamespace(exp=lambda x: -x))
    model = build_sm_x(toric2d(2), BitVector(8, 0))
    with pytest.raises(InternalInvariantError, match="increases"):
        _run_replica(model, 0.3, 40, 8, 1)
