"""Information quantities: endpoints, inequalities, basis independence."""

import math

import numpy as np
import pytest

from csstat.channels import (
    MODE_X,
    depolarizing_from_independent,
    marginalize,
    sector_distribution_joint,
    sector_distribution_x,
    sector_distribution_z,
    sector_distributions,
)
from csstat.css import with_logical_basis
from csstat.gf2 import BitMatrix, BitVector
from csstat.info import (
    bound_report,
    ml_success,
    relative_entropy,
    sampling_success,
    _fold,
    _row_sums,
)
from csstat.zoo import four22, steane, surface2d, toric2d


def ic_factorized(code, p):
    return bound_report((
        sector_distribution_x(code, p), sector_distribution_z(code, p)
    )).ic_bits


def test_endpoints():
    for code in (four22(), steane(), toric2d(2)):
        assert abs(ic_factorized(code, 0.0) - code.k) < 1e-12
        assert abs(ic_factorized(code, 0.5) + code.k) < 1e-12


def test_joint_agrees_with_factorized():
    # independent X/Z noise expressed as a Pauli channel must reproduce the
    # factorized value exactly (the joint table factorizes)
    code = four22()
    for px, pz in ((0.05, 0.05), (0.12, 0.03)):
        joint = sector_distribution_joint(
            code, depolarizing_from_independent(px, pz)
        )
        a = bound_report(joint).ic_bits
        b = bound_report((
            sector_distribution_x(code, px),
            sector_distribution_z(code, pz),
        )).ic_bits
        assert abs(a - b) < 1e-12


def test_ic_monotone_down_to_half():
    code = toric2d(2)
    values = [ic_factorized(code, 0.05 * i) for i in range(11)]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-9


def test_ml_equals_uniform_guess_at_half():
    for code in (four22(), steane()):
        dist = sector_distribution_x(code, 0.5)
        assert abs(ml_success(dist) - 0.5**code.k) < 1e-13
        assert abs(sampling_success(dist) - 0.5**code.k) < 1e-13


def test_decoder_chain_holds():
    # 2*ml - 1 <= jensen <= sampling <= ml <= 1 across the sweep, both for a
    # factorized pair and a genuinely correlated joint channel
    code = four22()
    for p in (0.01, 0.1, 0.2, 0.35, 0.5):
        pair = (
            sector_distribution_x(code, p),
            sector_distribution_z(code, p),
        )
        rep = bound_report(pair)
        assert not rep.violations
        assert rep.appendix_lower <= rep.sampling + 1e-10
        assert rep.jensen_lower <= rep.sampling + 1e-10
        assert rep.sampling <= rep.ml + 1e-10
        assert rep.ml <= 1.0 + 1e-10
        joint = sector_distribution_joint(
            code, depolarizing_from_independent(p, min(0.49, p + 0.07))
        )
        rep = bound_report(joint)
        assert not rep.violations


def test_basis_change_leaves_quantities_alone():
    code = toric2d(2)
    lx = BitMatrix.from_rows(
        [code.logical_x.row(0) ^ code.logical_x.row(1), code.logical_x.row(1)]
    )
    lz = BitMatrix.from_rows(
        [code.logical_z.row(0), code.logical_z.row(1) ^ code.logical_z.row(0)]
    )
    remixed = with_logical_basis(code, lx, lz)
    for p in (0.08, 0.19):
        assert abs(ic_factorized(code, p) - ic_factorized(remixed, p)) < 1e-12
        a = ml_success(sector_distribution_x(code, p))
        b = ml_success(sector_distribution_x(remixed, p))
        assert abs(a - b) < 1e-12
        a = sampling_success(sector_distribution_x(code, p))
        b = sampling_success(sector_distribution_x(remixed, p))
        assert abs(a - b) < 1e-12


def test_self_dual_sides_contribute_equally():
    # steane: identical check matrices on both sides, so at equal rates the
    # X- and Z-side conditional terms agree and Ic splits evenly
    code = steane()
    p = 0.13
    dx = sector_distribution_x(code, p)
    dz = sector_distribution_z(code, p)
    full = bound_report((dx, dz)).ic_bits
    # swap-in a fresh Z table at the same rate: value unchanged
    assert abs(bound_report((dx, sector_distribution_z(code, p))).ic_bits - full) < 1e-15
    half = (full - code.k) / 2
    one_sided = bound_report((dx, sector_distribution_z(code, 0.0))).ic_bits
    assert abs((one_sided - code.k) - half) < 1e-12


def test_mode_and_code_mismatch_rejected():
    code = four22()
    dx = sector_distribution_x(code, 0.1)
    dz = sector_distribution_z(code, 0.1)
    with pytest.raises(ValueError):
        bound_report((dz, dx))  # swapped modes
    with pytest.raises(ValueError):
        bound_report((dx, sector_distribution_z(steane(), 0.1)))  # different codes
    with pytest.raises(ValueError):
        bound_report(dx)  # not a joint table


def test_relative_entropy_shift_only():
    code = toric2d(2)
    dist = sector_distribution_x(code, 0.11)
    k = code.k
    pairs = [(0, 1), (2, 3), (1, 0), (3, 2)]  # all have shift 01
    values = {
        relative_entropy(dist, BitVector(k, a), BitVector(k, b))
        for a, b in pairs
    }
    assert len(values) == 1
    # a genuinely different shift gives a different value (shift 11 flips
    # both pairs; shifts 01/10 coincide here by the lattice's x-y symmetry)
    other = relative_entropy(dist, BitVector(k, 0), BitVector(k, 3))
    assert other not in values


def test_relative_entropy_edge_cases():
    code = steane()
    k = code.k
    zero = BitVector(k, 0)
    one = BitVector(k, 1)
    # identical labels: exactly zero, not just small
    dist = sector_distribution_x(code, 0.2)
    assert relative_entropy(dist, one, one) == 0.0
    # perfectly distinguishable at p = 0
    assert math.isinf(relative_entropy(sector_distribution_x(code, 0.0), zero, one))
    # indistinguishable at p = 1/2
    assert abs(relative_entropy(sector_distribution_x(code, 0.5), zero, one)) < 1e-12
    # decreasing toward 0.5
    vals = [
        relative_entropy(sector_distribution_x(code, p), zero, one)
        for p in (0.1, 0.2, 0.3, 0.4, 0.5)
    ]
    assert all(lo <= hi + 1e-12 for lo, hi in zip(vals[1:], vals[:-1]))


def test_relative_entropy_validates_labels():
    code = four22()
    dist = sector_distribution_x(code, 0.1)
    with pytest.raises(ValueError):
        relative_entropy(dist, BitVector(1, 0), BitVector(1, 1))  # wrong width


def _fields(widths, label):
    """{field: value} of a packed label: kz in the lowest bits, then b, kx, a."""
    out = {}
    for f in ("kz", "b", "kx", "a"):
        if f in widths:
            out[f] = label & ((1 << widths[f]) - 1)
            label >>= widths[f]
    return out


def _loop_reductions(dist, shift=0):
    """Per-entry loops over the labels: (Σ P log2 P/P_syn, ml, sampling, D)."""
    syn_fields = [f for f in ("a", "b") if f in dist.widths]
    keys = [_fields(dist.widths, i) for i in range(len(dist.table))]
    groups = {}
    for key, p in zip(keys, dist.table.tolist()):
        groups.setdefault(tuple(key[f] for f in syn_fields), []).append(p)
    cond = samp = 0.0
    for ps in groups.values():
        p_syn = math.fsum(ps)
        cond += math.fsum(p * math.log2(p / p_syn) for p in ps if p > 0.0)
        if p_syn > 0.0:
            samp += math.fsum(p * p / p_syn for p in ps)
    ml = math.fsum(max(ps) for ps in groups.values())
    rel = None
    if dist.mode == MODE_X:
        table = {(key["b"], key["kz"]): p for key, p in zip(keys, dist.table.tolist())}
        rel = 0.0
        for (b, kz), p in table.items():
            partner = table[(b, kz ^ shift)]
            if p > 0.0 and partner <= 0.0:
                rel = math.inf
            elif p > 0.0:
                rel += p * math.log2(p / partner)
    return cond, ml, samp, rel


@pytest.mark.parametrize("code", [four22(), steane(), toric2d(2)],
                         ids=["four22", "steane", "toric2d:2"])
def test_reductions_match_per_entry_loops(code):
    # the array reductions sum in another order than the loops, so they agree
    # to rounding only; ml_success sums exactly, as fsum does, and matches exactly
    for p in (0.0, 0.07, 0.3):
        joint = sector_distribution_joint(code, depolarizing_from_independent(p, p))
        dx, dz = sector_distribution_x(code, p), sector_distribution_z(code, p)
        for dist in (joint, dx, dz, marginalize(joint, ["b", "kz"])):
            cond, ml, samp, rel = _loop_reductions(dist, shift=1)
            assert ml_success(dist) == ml
            assert abs(sampling_success(dist) - samp) < 1e-13
            if dist is joint:
                got = bound_report(dist).ic_bits - code.k
                assert abs(got - cond) < 1e-13
            if rel is not None:
                got = relative_entropy(
                    dist, BitVector(code.k, 0), BitVector(code.k, 1)
                )
                assert got == rel or abs(got - rel) < 1e-13
        factorized = bound_report((dx, dz)).ic_bits
        want = code.k + _loop_reductions(dx)[0] + _loop_reductions(dz)[0]
        assert abs(factorized - want) < 1e-13


def test_finite_size_ordering_of_coherent_information():
    # the decoding transition near p_c ~ 0.11: below it ic_bits/k grows with
    # the code size, above it it shrinks (exact tables, every size)
    ps = [0.05, 0.10, 0.12, 0.15]
    for family in ((toric2d(2), toric2d(3), toric2d(4)),
                   (surface2d(3, 3), surface2d(4, 4))):
        curves = []
        for code in family:
            xs = sector_distributions(code, "x", ps)
            zs = sector_distributions(code, "z", ps)
            curves.append([
                bound_report((x, z)).ic_bits / code.k
                for x, z in zip(xs, zs)
            ])
        for i, p in enumerate(ps):
            by_size = [curve[i] for curve in curves]
            if p < 0.11:
                assert all(a < b for a, b in zip(by_size, by_size[1:])), (p, by_size)
            else:
                assert all(a > b for a, b in zip(by_size, by_size[1:])), (p, by_size)


@pytest.mark.parametrize("num_rows", [3, 4096])
@pytest.mark.parametrize("cols", [1, 2, 3, 4, 7, 8, 9, 16, 24, 128, 136, 256, 1000])
def test_column_reductions_match_row_reductions(num_rows, cols):
    # bound_report folds narrow rows column by column; the pinned sweep
    # outputs rely on this being rows.sum(axis=1) and rows.max(axis=1) bit
    # for bit
    rng = np.random.default_rng(cols)
    rows = rng.random((num_rows, cols)) * np.exp(rng.normal(0.0, 5.0, (num_rows, cols)))
    assert np.array_equal(_row_sums(rows), rows.sum(axis=1))
    assert np.array_equal(_fold(np.maximum, rows), rows.max(axis=1))
