"""Acceptance gate: eleven numbered criteria, one printed line each.

Every criterion prints `criterion NN PASS/FAIL — name: detail` (visible with
`pytest -s` or by running this file directly) and asserts at its pinned
tolerance. Bound-chain checks allow an absolute slack of 1e-10 on top of the
stated inequalities: the compared quantities are sums of up to 2^26 doubles,
so pure-rounding violations below that scale carry no information.
"""

import math
import random
import sys
import time

from csstat.channels import (
    depolarizing_from_independent,
    sector_distribution_joint,
    sector_distribution_x,
    sector_distribution_z,
)
from csstat.css import new_css, representative_x, with_logical_basis
from csstat.gf2 import BitMatrix, BitVector, kernel_basis
from csstat.info import (
    bound_report,
    coherent_information_factorized,
    coherent_information_general,
    ml_success,
    relative_entropy,
    sampling_success,
)
from csstat.mc import McConfig, metropolis, nishimori_scan, sample_disorder
from csstat.statmech import (
    Couplings,
    build_sm_x,
    domain_wall_free_energy,
    kw_check,
    partition_exact,
    verify_sector_identity,
)
from csstat.zoo import (
    color666,
    four22,
    steane,
    surface2d,
    toric2d,
    toric3d,
    xcube,
)

SMALL_ZOO = {
    "four22": four22,
    "steane": steane,
    "surface2d(2,2)": lambda: surface2d(2, 2),
    "surface2d(3,3)": lambda: surface2d(3, 3),
    "toric2d(2)": lambda: toric2d(2),
    "toric2d(3)": lambda: toric2d(3),
    "color666(3,3)": lambda: color666(3, 3),
}

GRID_CODES = {
    "steane": steane,
    "four22": four22,
    "toric2d(2)": lambda: toric2d(2),
    "toric2d(3)": lambda: toric2d(3),
    "surface2d(2,2)": lambda: surface2d(2, 2),
}

SLACK = 1e-10


def report(num, name, ok, detail):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'} — {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def ic_factorized(code, p):
    return coherent_information_factorized(
        sector_distribution_x(code, p),
        sector_distribution_z(code, p),
    ).value


def grid21():
    return [0.5 * i / 20 for i in range(21)]


def test_criterion_1_endpoints():
    t0 = time.monotonic()
    worst = 0.0
    for name, make in SMALL_ZOO.items():
        code = make()
        assert code.n <= 20, name
        worst = max(worst, abs(ic_factorized(code, 0.0) - code.k))
        worst = max(worst, abs(ic_factorized(code, 0.5) + code.k))
        rel0 = relative_entropy(
            sector_distribution_x(code, 0.0),
            BitVector(code.k, 0),
            BitVector.unit(code.k, 0),
        ).value
        if not math.isinf(rel0):
            worst = math.inf
    elapsed = time.monotonic() - t0
    report(
        1, "endpoint exactness",
        worst < 1e-9 and elapsed < 10,
        f"max endpoint deviation {worst:.3e} over {len(SMALL_ZOO)} codes, "
        f"rel-entropy inf marker at p=0 confirmed, {elapsed:.1f}s",
    )


def test_criterion_2_bound_chain():
    t0 = time.monotonic()
    violations = 0
    checked = 0
    for name, make in GRID_CODES.items():
        code = make()
        for p in grid21():
            rep = bound_report(
                (
                    sector_distribution_x(code, p),
                    sector_distribution_z(code, p),
                ),
            )
            violations += len(rep.violations)
            if not (-code.k - SLACK <= rep.ic_bits <= code.k + SLACK):
                violations += 1
            checked += 1
    elapsed = time.monotonic() - t0
    report(
        2, "decoder bound chain",
        violations == 0 and elapsed < 120,
        f"{checked} grid points across {len(GRID_CODES)} codes, "
        f"{violations} violations (slack {SLACK}), {elapsed:.1f}s",
    )


def test_criterion_3_monotonicity():
    worst_rise = 0.0
    for name, make in GRID_CODES.items():
        code = make()
        values = [ic_factorized(code, p) for p in grid21()]
        for lo, hi in zip(values[1:], values[:-1]):
            worst_rise = max(worst_rise, lo - hi)
    report(
        3, "coherent-information monotonicity",
        worst_rise < 1e-9,
        f"largest increase along the grid {worst_rise:.3e} (tolerance 1e-9)",
    )


def test_criterion_4_sector_identity():
    t0 = time.monotonic()
    cases = [
        (four22(), (0.1, 0.3)),
        (toric2d(2), (0.1, 0.15)),
        (steane(), (0.05,)),
    ]
    worst = 0.0
    sectors = 0
    for code, ps in cases:
        for p in ps:
            rep = verify_sector_identity(code, p, side="x")
            worst = max(worst, rep.max_abs_dev)
            sectors += rep.sectors_checked
    elapsed = time.monotonic() - t0
    report(
        4, "sector-probability identity",
        worst < 1e-12 and elapsed < 60,
        f"max |P_sector − Z·C| = {worst:.3e} over {sectors} sectors, "
        f"{elapsed:.1f}s",
    )


def random_8q_code():
    """Deterministic 'random' CSS code on 8 qubits (fixed seed, k >= 1)."""
    rng = random.Random(88)
    while True:
        hz = BitMatrix(8, tuple(rng.randrange(1, 256) for _ in range(2)))
        ker = kernel_basis(hz)
        if ker.rows < 3:
            continue
        picks = []
        for row in ker.row_list():
            if rng.random() < 0.6:
                picks.append(row)
        if len(picks) < 2:
            continue
        hx = BitMatrix.from_rows(picks[:2])
        try:
            code = new_css(hz, hx)
        except Exception:
            continue
        if code.k >= 1 and code.rank_x >= 1:
            return code


def test_criterion_5_depolarizing_consistency():
    t0 = time.monotonic()
    worst = 0.0
    for code in (four22(), random_8q_code()):
        for p in (0.02, 0.08, 0.15, 0.25, 0.4):
            px, pz = p, p / 2 + 0.01
            joint = sector_distribution_joint(
                code, depolarizing_from_independent(px, pz)
            )
            a = coherent_information_general(joint).value
            b = coherent_information_factorized(
                sector_distribution_x(code, px),
                sector_distribution_z(code, pz),
            ).value
            worst = max(worst, abs(a - b))
    elapsed = time.monotonic() - t0
    report(
        5, "joint/factorized consistency",
        worst < 1e-10 and elapsed < 120,
        f"max |Ic_joint − Ic_factorized| = {worst:.3e} on four22 and a "
        f"seeded random [[8,k]] code, {elapsed:.1f}s",
    )


def test_criterion_6_duality():
    worst = 0.0
    for code in (four22(), toric2d(2)):
        for beta_x in (0.3, 0.5, 0.8):
            worst = max(worst, kw_check(code, beta_x).summed_residual)
    report(
        6, "high/low temperature duality",
        worst < 1e-9,
        f"max homology-summed residual {worst:.3e} (tolerance 1e-9)",
    )


def test_criterion_7_domain_wall():
    code = toric2d(2)
    shift = BitVector(code.k, 1)
    worst = 0.0
    for p in (0.08, 0.15, 0.22, 0.3, 0.42):
        dw = domain_wall_free_energy(code, p, shift)
        re = relative_entropy(
            sector_distribution_x(code, p), BitVector(code.k, 0), shift
        ).value
        worst = max(worst, abs(dw - re))
    report(
        7, "domain-wall / divergence identity",
        worst < 1e-12,
        f"max |ΔF − D| = {worst:.3e} over 5 grid points on toric2d(2)",
    )


def test_criterion_8_basis_independence():
    # documented basis changes: stabilizer-shifted logical pair on steane,
    # pairwise row mixing (with the transpose-inverse fix) on toric2d(2)
    worst = 0.0
    s = steane()
    s2 = with_logical_basis(
        s,
        BitMatrix.from_rows([s.logical_x.row(0) ^ s.Hx.row(1)]),
        BitMatrix.from_rows([s.logical_z.row(0) ^ s.Hz.row(2)]),
    )
    t = toric2d(2)
    t2 = with_logical_basis(
        t,
        BitMatrix.from_rows(
            [t.logical_x.row(0) ^ t.logical_x.row(1), t.logical_x.row(1)]
        ),
        BitMatrix.from_rows(
            [t.logical_z.row(0), t.logical_z.row(1) ^ t.logical_z.row(0)]
        ),
    )
    for base, changed in ((s, s2), (t, t2)):
        for p in (0.06, 0.18):
            worst = max(worst, abs(ic_factorized(base, p) - ic_factorized(changed, p)))
            for fn in (ml_success, sampling_success):
                worst = max(
                    worst,
                    abs(
                        fn(sector_distribution_x(base, p))
                        - fn(sector_distribution_x(changed, p))
                    ),
                    abs(
                        fn(sector_distribution_z(base, p))
                        - fn(sector_distribution_z(changed, p))
                    ),
                )
    report(
        8, "logical-basis independence",
        worst < 1e-12,
        f"max change under basis substitution {worst:.3e} (tolerance 1e-12)",
    )


def test_criterion_9_zoo_structure():
    t0 = time.monotonic()
    checks = []
    c = color666(3, 3)
    checks.append(c.k == 4)
    t3 = toric3d(2)
    checks.append(t3.k == 3 and t3.Dx == 1 and t3.Dz == 2**3 + 2)
    for L in (2, 3):
        checks.append(xcube(L).k == 6 * L - 3)
    elapsed = time.monotonic() - t0
    report(
        9, "family structure counts",
        all(checks) and elapsed < 10,
        f"color666 k=4, toric3d(2) k=3/Dx=1/Dz=10, xcube k∈{{9,15}}; "
        f"{elapsed:.1f}s",
    )


def test_criterion_10_mc_validity():
    t0 = time.monotonic()
    code = toric2d(2)
    # a fixed frustrated disorder realization (syndrome 100): the clean
    # all-positive realization has flat directions that the always-accepted
    # zero-cost flips of the fixed-order sweep traverse deterministically,
    # biasing end-of-sweep sampling (see the metropolis docstring); a
    # generic quenched realization is the object the sampler exists for
    disorder = sample_disorder(code, 0.3, 200)
    model = build_sm_x(
        code,
        representative_x(code, code.syndrome_z(disorder), BitVector(code.k, 0)),
    )
    h = 1e-4
    worst_pull = 0.0
    for beta, sweeps in ((0.2, 4000), (0.5, 8000), (1.0, 48000)):
        up = partition_exact(model, Couplings.uniform(beta + h))
        down = partition_exact(model, Couplings.uniform(beta - h))
        exact_energy = -(up - down) / (2 * h) / model.num_spins
        obs = metropolis(
            model, beta,
            McConfig(sweeps=sweeps, burn_in=sweeps // 5, seed=11, replicas=2),
        )
        worst_pull = max(
            worst_pull, abs(obs.mean_energy - exact_energy) / obs.energy_err
        )
    rows = nishimori_scan(
        toric2d(8), "x", [0.05, 0.20], disorder_samples=4,
        cfg=McConfig(sweeps=1200, burn_in=300, seed=5, replicas=2),
    )
    contrast = rows[0].ea_overlap - rows[1].ea_overlap
    elapsed = time.monotonic() - t0
    report(
        10, "MC against enumeration",
        worst_pull < 3.0 and contrast > 0.3 and elapsed < 300,
        f"worst energy pull {worst_pull:.2f}σ (3σ allowed); toric2d(8) "
        f"overlap contrast {contrast:.3f} (> 0.3 required); {elapsed:.0f}s",
    )


def test_criterion_11_size_crossing():
    t0 = time.monotonic()
    small, large = toric2d(2), toric2d(3)
    ps = [0.05 + 0.15 * i / 8 for i in range(9)]
    diff = [
        ic_factorized(small, p) / small.k - ic_factorized(large, p) / large.k
        for p in ps
    ]
    crossings = sum(
        1 for a, b in zip(diff[:-1], diff[1:]) if (a < 0) != (b < 0)
    )
    elapsed = time.monotonic() - t0
    report(
        11, "finite-size crossing",
        crossings >= 1 and elapsed < 120,
        f"normalized curves for L=2 vs L=3 cross {crossings}x in "
        f"[0.05, 0.20], {elapsed:.1f}s",
    )


if __name__ == "__main__":
    names = sorted(
        (k for k in dir() if k.startswith("test_criterion")),
        key=lambda k: int(k.split("_")[2]),
    )
    failed = 0
    for fn_name in names:
        try:
            globals()[fn_name]()
        except AssertionError:
            failed += 1
    sys.exit(1 if failed else 0)
