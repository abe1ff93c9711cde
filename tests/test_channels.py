"""Exact sector-probability tables: normalization, marginals, serialization."""

import hashlib
import json
import math

import numpy as np
import pytest

from csstat.channels import (
    MODE_JOINT,
    MODE_X,
    MODE_Z,
    PauliNoise,
    depolarizing_from_independent,
    error_weight_prob,
    from_json_dict,
    load_json,
    marginalize,
    save_json,
    sector_distribution_joint,
    sector_distribution_x,
    sector_distribution_z,
    to_json_dict,
    _check_enumerator_size,
    _coset_enumerator,
    _x_side_functionals,
    _z_side_functionals,
)
from csstat.css import TooLarge, sector_of
from csstat.gf2 import BitVector
from csstat.info import coherent_information_factorized
from csstat.statmech import kw_check
from csstat.zoo import color666, four22, steane, surface2d, toric2d


def brute_force_enumerator(rows, n):
    """(label, weight) bincount over all 2^n strings; label bit j = <row_j, E>."""
    errors = np.arange(1 << n, dtype=np.uint64)
    labels = np.zeros(errors.shape, dtype=np.int64)
    for j, row in enumerate(rows):
        parity = np.bitwise_count(errors & np.uint64(row)) & np.uint8(1)
        labels |= parity.astype(np.int64) << j
    weights = np.bitwise_count(errors).astype(np.int64)
    flat = np.bincount(labels * (n + 1) + weights, minlength=(n + 1) << len(rows))
    return flat.reshape(1 << len(rows), n + 1)


def test_tables_are_dense_and_normalized():
    for code in (four22(), steane(), toric2d(2), surface2d(2, 2)):
        for p in (0.0, 0.08, 0.31, 1.0):
            dist = sector_distribution_x(code, p)
            assert len(dist.table) == 1 << (code.rank_z + code.k)
            assert abs(dist.total() - 1.0) < 1e-12
            dist.check()


def test_four22_even_weight_mass():
    # the single Z check is full weight, so b = 0 collects exactly the
    # even-weight errors: (1-p)^4 + 6 p^2 (1-p)^2 + p^4
    p = 0.1
    dist = sector_distribution_x(four22(), p)
    mass_b0 = math.fsum(
        prob for key, prob in zip(dist.keys(), dist.table) if key.b.bits == 0
    )
    expect = (1 - p) ** 4 + 6 * p**2 * (1 - p) ** 2 + p**4
    assert abs(mass_b0 - expect) < 1e-15
    assert abs(expect - 0.7048) < 1e-12


def test_half_rate_is_uniform():
    code = toric2d(2)
    dist = sector_distribution_x(code, 0.5)
    want = 0.5 ** (code.rank_z + code.k)
    assert all(abs(p - want) < 1e-15 for p in dist.table)


def test_zero_rate_is_point_mass():
    dist = sector_distribution_z(steane(), 0.0)
    for key, p in zip(dist.keys(), dist.table):
        trivial = key.a.is_zero() and key.kx.is_zero()
        assert p == (1.0 if trivial else 0.0)


def test_thread_count_does_not_change_values():
    code = toric2d(2)
    base = sector_distribution_x(code, 0.13, threads=1)
    for threads in (2, 4):
        other = sector_distribution_x(code, 0.13, threads=threads)
        assert np.array_equal(other.table, base.table)  # bit-identical


def test_modes_and_metadata():
    code = four22()
    dx = sector_distribution_x(code, 0.2)
    dz = sector_distribution_z(code, 0.2)
    assert dx.mode == MODE_X and set(dx.widths) == {"b", "kz"}
    assert dz.mode == MODE_Z and set(dz.widths) == {"a", "kx"}
    assert dx.noise == {"px": 0.2} and dz.noise == {"pz": 0.2}


def test_self_dual_code_mirror_symmetry():
    # steane has Hz = Hx, so the X-side table at p equals the Z-side table
    # under the (b, kz) -> (a, kx) relabeling
    p = 0.17
    dx = sector_distribution_x(steane(), p)
    dz = sector_distribution_z(steane(), p)
    for key, prob in zip(dx.keys(), dx.table):
        twins = [
            kz for kz in dz.keys()
            if kz.a == key.b and kz.kx == key.kz
        ]
        assert len(twins) == 1
        assert abs(dz.table[dz.index(twins[0])] - prob) < 1e-15


def test_joint_marginals_match_factorized():
    code = four22()
    px, pz = 0.1, 0.07
    joint = sector_distribution_joint(code, depolarizing_from_independent(px, pz))
    assert abs(joint.total() - 1.0) < 1e-12
    mx = marginalize(joint, ["b", "kz"])
    mz = marginalize(joint, ["a", "kx"])
    assert mx.mode == MODE_X and mz.mode == MODE_Z
    fx = sector_distribution_x(code, px)
    fz = sector_distribution_z(code, pz)
    for key, prob in zip(fx.keys(), fx.table):
        assert abs(mx.table[mx.index(key)] - prob) < 1e-13
    for key, prob in zip(fz.keys(), fz.table):
        assert abs(mz.table[mz.index(key)] - prob) < 1e-13


def test_joint_mode_populates_all_fields():
    joint = sector_distribution_joint(four22(), PauliNoise(0.05, 0.02, 0.08))
    assert joint.mode == MODE_JOINT
    key = joint.keys()[0]
    assert key.fields() == ("a", "b", "kx", "kz")
    code = four22()
    assert len(joint.table) == 1 << (code.rank_x + code.rank_z + 2 * code.k)


def test_marginal_of_non_canonical_fields():
    joint = sector_distribution_joint(four22(), PauliNoise(0.05, 0.02, 0.08))
    only_b = marginalize(joint, ["b"])
    assert only_b.mode == "marginal"
    assert abs(only_b.total() - 1.0) < 1e-12


@pytest.mark.parametrize(
    "code",
    [steane(), four22(), toric2d(2), toric2d(3), color666(3, 3), surface2d(3, 4)],
    ids=["steane", "four22", "toric2d:2", "toric2d:3", "color666:3x3",
         "surface2d:3x4"],
)
def test_coset_enumerator_matches_brute_force(code):
    for functionals in (_x_side_functionals, _z_side_functionals):
        rows, _ = functionals(code)
        counts = _coset_enumerator(rows, code.n)
        assert np.array_equal(counts, brute_force_enumerator(rows, code.n))
        m = len(rows)
        assert counts.shape == (1 << m, code.n + 1)
        assert np.all(counts.sum(axis=1) == 1 << (code.n - m))
        binomials = [math.comb(code.n, w) for w in range(code.n + 1)]
        assert counts.sum(axis=0).tolist() == binomials


def test_enumerator_reaches_toric2d_4():
    # n = 32: four billion strings per species, but only 2^17 label
    # combinations for the coset enumerator
    code = toric2d(4)
    assert code.n == 32 and code.rank_z + code.k == 17
    assert kw_check(code, 0.8).summed_residual < 1e-12


def test_size_guards():
    with pytest.raises(TooLarge, match="m = 65"):
        # the guard is on what the enumerator costs: m = rank_z + k = 65
        # label bits exceeds MAX_LABEL_BITS, reported before n = 128
        sector_distribution_x(toric2d(8), 0.1)
    with pytest.raises(TooLarge):
        sector_distribution_joint(
            toric2d(3), PauliNoise(0.01, 0.01, 0.01)
        )  # n = 18 > 13


@pytest.mark.parametrize(
    "n, m, limit",
    [(40, 21, "m <= 20"), (64, 3, "n <= 63"), (50, 20, "int64")],
)
def test_enumerator_guards_name_m(n, m, limit):
    with pytest.raises(TooLarge, match=limit) as exc:
        _check_enumerator_size(n, m)
    assert f"m = {m}" in str(exc.value)


def test_noise_validation():
    with pytest.raises(ValueError):
        PauliNoise(0.5, 0.4, 0.2)  # total > 1
    with pytest.raises(ValueError):
        PauliNoise(-0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        sector_distribution_x(four22(), 1.5)


def test_error_weight_prob():
    assert error_weight_prob(0, 5, 0.0) == 1.0
    assert error_weight_prob(3, 5, 0.0) == 0.0
    assert error_weight_prob(5, 5, 1.0) == 1.0
    assert abs(error_weight_prob(2, 4, 0.1) - 0.1**2 * 0.9**2) < 1e-17
    with pytest.raises(ValueError):
        error_weight_prob(6, 5, 0.1)


def test_json_round_trip_exact(tmp_path):
    code = toric2d(2)
    for dist in (
        sector_distribution_x(code, 0.11),
        sector_distribution_z(code, 0.23),
        sector_distribution_joint(four22(), PauliNoise(0.03, 0.01, 0.05)),
    ):
        back = from_json_dict(to_json_dict(dist))
        assert np.array_equal(back.table, dist.table)
        assert back.mode == dist.mode
        assert back.widths == dist.widths
        assert back.code_hash == dist.code_hash
        path = tmp_path / f"{dist.mode}.json"
        save_json(dist, str(path))
        assert np.array_equal(load_json(str(path)).table, dist.table)


def _json_tables():
    code = toric2d(2)
    return {
        "four22 joint": sector_distribution_joint(
            four22(), PauliNoise(0.03, 0.01, 0.05)
        ),
        "toric2d:2 x": sector_distribution_x(code, 0.11),
        "toric2d:2 z": sector_distribution_z(code, 0.23),
    }


def test_json_bytes_are_pinned():
    # sha256 of the JSON text as written by the dict-backed tables, so the
    # array layout must reproduce every key, value and entry order
    want = {
        "four22 joint":
            "f4c16261565c4a7dcc6862ca92f82939fd725739dc2dc068ed931e304f459cad",
        "toric2d:2 x":
            "6654385955650cc0f7407cd8252b1a4df4f352143000d733aba8041695705e43",
        "toric2d:2 z":
            "7724be577c9c9f7f1e634481b24bc2b07a22a9de261ba168641305ecb10facfb",
    }
    for name, dist in _json_tables().items():
        text = json.dumps(to_json_dict(dist), indent=1)
        assert hashlib.sha256(text.encode()).hexdigest() == want[name], name


def test_json_rejects_incomplete_or_repeated_labels():
    for dist in _json_tables().values():
        data = to_json_dict(dist)
        last = list(data["table"])[-1]
        truncated = {**data, "table": dict(list(data["table"].items())[:-1])}
        with pytest.raises(ValueError, match="cover"):
            from_json_dict(truncated)
        # the same label twice ("0..01" and "1"), one label missing
        repeated = dict(truncated["table"])
        repeated[format(int(list(data["table"])[1], 16), "x")] = 0.0
        with pytest.raises(ValueError, match="cover"):
            from_json_dict({**data, "table": repeated})
        beyond = dict(truncated["table"])
        beyond[format(int(last, 16) + 1, "x")] = 0.0
        with pytest.raises(ValueError, match="cover"):
            from_json_dict({**data, "table": beyond})


def _pauli_pair_prob(ex, ez, noise, n):
    prob = 1.0
    for i in range(n):
        x, z = (ex >> i) & 1, (ez >> i) & 1
        prob *= (1.0 - noise.ptot, noise.ptz, noise.ptx, noise.pty)[2 * x + z]
    return prob


def _check_layout(dist, brute):
    assert np.all(np.abs(brute - dist.table) <= 1e-15)
    for i, key in enumerate(dist.keys()):
        assert dist.index(key) == i
        cell = tuple(getattr(key, f).bits for f in dist.axes)
        assert dist.view()[cell] == dist.table[i]


@pytest.mark.parametrize("code", [four22(), steane()], ids=["four22", "steane"])
def test_joint_layout_matches_brute_force(code):
    noise = PauliNoise(0.05, 0.02, 0.08)
    dist = sector_distribution_joint(code, noise)
    brute = np.zeros(len(dist.table))
    for ex in range(1 << code.n):
        vx = BitVector(code.n, ex)
        for ez in range(1 << code.n):
            key = sector_of(code, vx, BitVector(code.n, ez))
            brute[dist.index(key)] += _pauli_pair_prob(ex, ez, noise, code.n)
    _check_layout(dist, brute)


def test_factorized_layout_matches_brute_force():
    code = toric2d(2)
    zero = BitVector(code.n, 0)
    p = 0.13
    for side in ("x", "z"):
        build = sector_distribution_x if side == "x" else sector_distribution_z
        dist = build(code, p)
        brute = np.zeros(len(dist.table))
        for bits in range(1 << code.n):
            e = BitVector(code.n, bits)
            key = sector_of(code, e, zero) if side == "x" else sector_of(code, zero, e)
            brute[dist.index(key)] += error_weight_prob(e.weight(), code.n, p)
        _check_layout(dist, brute)


def test_round_trip_preserves_info_quantities(tmp_path):
    code = steane()
    dx = sector_distribution_x(code, 0.1)
    dz = sector_distribution_z(code, 0.1)
    before = coherent_information_factorized(dx, dz, code.k).value
    px = tmp_path / "x.json"
    pz = tmp_path / "z.json"
    save_json(dx, str(px))
    save_json(dz, str(pz))
    after = coherent_information_factorized(
        load_json(str(px)), load_json(str(pz)), code.k
    ).value
    assert after == before  # identical, not merely close
