"""Exact sector-probability tables: normalization, marginals, layout."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csstat import channels
from csstat.channels import (
    MODE_JOINT,
    MODE_X,
    MODE_Z,
    InternalInvariantError,
    PauliNoise,
    SectorDistribution,
    depolarizing_from_independent,
    error_weight_prob,
    exact_sum,
    marginalize,
    sector_distribution_joint,
    sector_distribution_x,
    sector_distribution_z,
    sector_distributions,
    _check_enumerator_size,
    _constant_geometry_transform,
    _coset_enumerator,
    _krawtchouk_table,
    _walsh_hadamard,
)
from csstat.cli import parse_noise
from csstat.css import EmptyCodeWarning, TooLarge, code_hash, label_functionals, new_css
from csstat.gf2 import BitVector, matvec
from csstat.statmech import kw_check
from csstat.zoo import color666, four22, from_selector, steane, surface2d, toric2d
from oracles import butterfly_walsh_hadamard, exact_check
from test_css import random_css_pairs


def _fields(widths, label):
    """{field: value} of a packed label: kz in the lowest bits, then b, kx, a."""
    out = {}
    for f in ("kz", "b", "kx", "a"):
        if f in widths:
            out[f] = label & ((1 << widths[f]) - 1)
            label >>= widths[f]
    return out


def _packed_label(code, widths, ex, ez):
    """Packed label of (ex, ez) over widths' fields, from the syndromes and
    logical parities of the code (not from label_functionals)."""
    values = {
        "a": code.syndrome_x(ez), "b": code.syndrome_z(ex),
        "kx": matvec(code.logical_x, ez), "kz": matvec(code.logical_z, ex),
    }
    label = 0
    for f in ("a", "kx", "b", "kz"):
        if f in widths:
            label = label << widths[f] | values[f].bits
    return label


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


def _label_columns(rows, n):
    """Per-error-bit label contributions for a stack of F2 functionals.

    rows are packed functional supports (length-n ints); the label of error
    E is the bit-vector of parities <row_j, E>, encoded with functional j at
    bit j. Returns an (n,)-array where entry i is the label of unit error i.
    """
    cols = np.zeros(n, dtype=np.uint64)
    for j, bits in enumerate(rows):
        for i in range(n):
            if (bits >> i) & 1:
                cols[i] |= np.uint64(1 << j)
    return cols


def _joint_pairs_oracle(code, noise):
    """The joint table by walking all 4^n (Ex, Ez) pairs; n <= 13 in practice.

    An error applies X where Ex-only, Z where Ez-only, and Y where both
    overlap, so a pair's probability is (1−ptot)^(n−wx−wy−wz) · ptx^wx ·
    pty^wy · ptz^wz with the species weights read off the element-wise
    overlaps.
    """
    n = code.n
    x_rows, x_widths = label_functionals(code, "x")
    z_rows, z_widths = label_functionals(code, "z")
    x_cols = _label_columns(x_rows, n)
    z_cols = _label_columns(z_rows, n)
    x_bits = sum(x_widths.values())  # width of the (b, kz) part
    z_bits = sum(z_widths.values())

    # Labels of every Ex in one shot (n ≤ 13 keeps this at 8192 entries).
    labels_x = np.zeros(1 << n, dtype=np.uint64)
    for i in range(n):
        half = 1 << i
        labels_x[half : 2 * half] = labels_x[:half] ^ x_cols[i]
    ex_arr = np.arange(1 << n, dtype=np.uint64)

    # Per-species log weights with 0-rate handling: weight(wx, wy | Ez) =
    # prefix(wz) · ptx^wx · pty^wy where wz = popcount(Ez) − wy.
    rest = 1.0 - noise.ptot

    def pow_or_zero(p: float, w: int) -> float:
        if w == 0:
            return 1.0
        return p**w if p > 0.0 else 0.0

    weight_of = np.zeros((n + 1, n + 1, n + 1))  # [pc_ez, wx, wy]
    for pc_ez in range(n + 1):
        for wx in range(n + 1 - pc_ez):
            for wy in range(pc_ez + 1):
                wz = pc_ez - wy
                weight_of[pc_ez, wx, wy] = (
                    pow_or_zero(rest, n - wx - wy - wz)
                    * pow_or_zero(noise.ptx, wx)
                    * pow_or_zero(noise.pty, wy)
                    * pow_or_zero(noise.ptz, wz)
                )

    probs = np.zeros((1 << z_bits, 1 << x_bits), dtype=np.float64)
    z_label = 0
    prev_ez = 0
    for ez in range(1 << n):
        # Incremental Gray-style label update is unnecessary at 2^13; recompute
        # the XOR directly from the flipped bits for clarity.
        flipped = ez ^ prev_ez
        while flipped:
            low = (flipped & -flipped).bit_length() - 1
            z_label ^= int(z_cols[low])
            flipped &= flipped - 1
        prev_ez = ez
        ez64 = np.uint64(ez)
        wx = np.bitwise_count(ex_arr & ~ez64).astype(np.int64)
        wy = np.bitwise_count(ex_arr & ez64).astype(np.int64)
        weights = weight_of[ez.bit_count()][wx, wy]
        probs[z_label] += np.bincount(
            labels_x.view(np.int64), weights=weights, minlength=1 << x_bits
        )

    # row (a, kx) over column (b, kz): the flattened array is the packed index
    widths = {"a": code.rank_x, "b": code.rank_z, "kx": code.k, "kz": code.k}
    dist = SectorDistribution(
        code_hash=code_hash(code),
        n=n,
        k=code.k,
        widths=widths,
        table=probs.ravel(),
        noise={"ptx": noise.ptx, "pty": noise.pty, "ptz": noise.ptz},
    )
    dist.check()
    return dist


def _joint_bound(code):
    """The transform's stated absolute error bound, (m + 4)·2^-52."""
    return (code.n + code.k + 4) * 2.0**-52


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
        prob for i, prob in enumerate(dist.table) if _fields(dist.widths, i)["b"] == 0
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
    for i, p in enumerate(dist.table):
        key = _fields(dist.widths, i)
        trivial = key["a"] == 0 and key["kx"] == 0
        assert p == (1.0 if trivial else 0.0)


def test_repeated_calls_are_bit_identical():
    code = toric2d(2)
    noise = PauliNoise(0.05, 0.02, 0.04)
    for build in (
        lambda: sector_distribution_x(code, 0.13),
        lambda: sector_distribution_z(code, 0.13),
        lambda: sector_distribution_joint(code, noise),
    ):
        base = build()
        for _ in range(2):
            assert np.array_equal(build().table, base.table)  # bit-identical


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
    for i, prob in enumerate(dx.table):
        key = _fields(dx.widths, i)
        twins = [
            j for j in range(len(dz.table))
            if _fields(dz.widths, j) == {"a": key["b"], "kx": key["kz"]}
        ]
        assert len(twins) == 1
        assert abs(dz.table[twins[0]] - prob) < 1e-15


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
    # equal widths, in the same order, give each sector the same index
    for marginal, factorized in ((mx, fx), (mz, fz)):
        assert list(marginal.widths.items()) == list(factorized.widths.items())
        assert np.all(np.abs(marginal.table - factorized.table) < 1e-13)


def test_joint_mode_populates_all_fields():
    joint = sector_distribution_joint(four22(), PauliNoise(0.05, 0.02, 0.08))
    assert joint.mode == MODE_JOINT
    assert tuple(joint.widths) == ("a", "b", "kx", "kz")
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
    for side in ("x", "z"):
        rows, _ = label_functionals(code, side)
        counts = _coset_enumerator(rows, code.n)
        assert np.array_equal(counts, brute_force_enumerator(rows, code.n))
        m = len(rows)
        assert counts.shape == (1 << m, code.n + 1)
        assert np.all(counts.sum(axis=1) == 1 << (code.n - m))
        binomials = [math.comb(code.n, w) for w in range(code.n + 1)]
        assert counts.sum(axis=0).tolist() == binomials


def _complement_label(rows):
    """c: the label of the all-ones string, bit j = |row_j| mod 2."""
    return sum((row.bit_count() & 1) << j for j, row in enumerate(rows))


@settings(max_examples=150, deadline=None)
@given(random_css_pairs())
@example((four22().Hz, four22().Hx))  # even n, c = 0 on both sides
@example((steane().Hz, steane().Hx))  # odd n, c = 1 on both sides
def test_coset_enumerator_matches_brute_force_on_random_codes(pair):
    # the enumerator transforms only the columns w <= n/2 and fills the rest
    # from A[l, n - w] = A[l ^ c, w]; both must equal a direct count
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyCodeWarning)
        code = new_css(*pair)
    for side in ("x", "z"):
        rows, _ = label_functionals(code, side)
        counts = _coset_enumerator(rows, code.n)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, brute_force_enumerator(rows, code.n))
        partners = np.arange(len(counts)) ^ _complement_label(rows)
        assert np.array_equal(counts[:, ::-1], counts[partners])


@pytest.mark.parametrize("selector", ["steane", "four22", "surface2d:3x4"])
def test_enumerator_transforms_half_the_weights(monkeypatch, selector):
    # the Walsh–Hadamard transform sees only the floor(n/2) + 1 columns
    # w <= n/2, one row per label combination
    real, shapes = channels._walsh_hadamard, []

    def recording(a):
        shapes.append(a.shape)
        real(a)

    monkeypatch.setattr(channels, "_walsh_hadamard", recording)
    code = from_selector(selector)
    rows, _ = label_functionals(code, "z")
    counts = _coset_enumerator(rows, code.n)
    assert shapes == [(1 << len(rows), code.n // 2 + 1)]
    assert counts.shape == (1 << len(rows), code.n + 1)


def _krawtchouk_oracle(n):
    """K[d, w] by the defining sum, term by term in Python ints."""
    table = np.zeros((n + 1, n + 1), dtype=np.int64)
    for d in range(n + 1):
        row = [0] * (n + 1)
        for j in range(d + 1):
            signed = -math.comb(d, j) if j & 1 else math.comb(d, j)
            for i in range(n - d + 1):
                row[i + j] += signed * math.comb(n - d, i)
        table[d] = row
    return table


def test_krawtchouk_table_matches_defining_sum():
    for n in range(64):
        assert np.array_equal(_krawtchouk_table(n), _krawtchouk_oracle(n)), n


def test_krawtchouk_table_is_built_once_and_read_only():
    table = _krawtchouk_table(9)
    assert not table.flags.writeable
    assert _krawtchouk_table(9) is table


def test_integer_walsh_hadamard_is_exact():
    # the transform's int64 sums wrap modulo 2^64; it must equal the
    # transform in Python ints wherever every result fits, also at the edge
    # of int64, where a wrapped intermediate sum would show
    rng = np.random.default_rng(7)
    a = rng.integers(-(1 << 57), 1 << 57, size=(32, 3), dtype=np.int64)
    a[:, 2] = 1 << 57  # this column sums to 2^62 in the first row
    got = a.copy()
    _walsh_hadamard(got)
    want = [[sum((-1) ** (u & v).bit_count() * int(a[v, c]) for v in range(32))
             for c in range(3)] for u in range(32)]
    assert got.tolist() == want
    wraps = np.array([[1], [(1 << 62) + 5]], dtype=np.int64)
    _walsh_hadamard(wraps)
    assert wraps.tolist() == [[(1 << 62) + 6], [-(1 << 62) - 4]]


@pytest.mark.parametrize("m", range(18))
def test_walsh_hadamard_matches_butterfly(m):
    # m <= 12 is a single block of rows; past it come several row blocks and
    # column chunks of the high view; an odd m ends in a radix-2 pass; cols
    # = 1 makes the narrowest chunks. Entries span int64, so sums wrap
    rng = np.random.default_rng(m)
    for cols in (1, 5, 17):
        a = rng.integers(-(1 << 63), 1 << 63, size=(1 << m, cols), dtype=np.int64)
        want = a.copy()
        butterfly_walsh_hadamard(want)
        _walsh_hadamard(a)
        assert np.array_equal(a, want), cols


def test_walsh_hadamard_allocates_one_block():
    # besides A, the transform's temporaries are one block of _BLOCK_ROWS
    # rows (32 row blocks and 32 column chunks at m = 17), plus the buffers
    # numpy's ufuncs take for short strided rows, np.getbufsize() entries
    # for each of at most three operands
    cols = 17
    a = np.random.default_rng(5).integers(-99, 99, size=(1 << 17, cols), dtype=np.int64)
    tracemalloc.start()
    try:
        _walsh_hadamard(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (channels._BLOCK_ROWS * cols + 3 * np.getbufsize())


def test_enumerator_memory_peaks_near_one_table():
    # the transform, the divisibility check and the float conversion each
    # work in place or one block at a time, so no step holds a second A
    code = toric2d(4)
    rows, _ = label_functionals(code, "x")
    a_bytes = 8 * (code.n + 1) << len(rows)
    tracemalloc.start()
    try:
        _coset_enumerator(rows, code.n)
        enumerator_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        sector_distributions(code, "x", [0.1])
        sweep_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert enumerator_peak < 1.1 * a_bytes
    assert sweep_peak < 1.25 * a_bytes


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
    with pytest.raises(TooLarge, match="m = 34"):
        # the joint transform costs 2^m with m = n + k = 34 > MAX_LABEL_BITS
        sector_distribution_joint(toric2d(4), PauliNoise(0.01, 0.01, 0.01))


@pytest.mark.parametrize(
    "n, m, limit",
    [(40, 21, "m <= 20"), (64, 3, "n <= 63"), (50, 20, "int64")],
)
def test_enumerator_guards_name_m(n, m, limit):
    with pytest.raises(TooLarge, match=limit) as exc:
        _check_enumerator_size(n, m)
    assert f"m = {m}" in str(exc.value)
    # the message names what A[label, w] would occupy
    assert f"int64 = {8 * (n + 1) << m:,} bytes" in str(exc.value)


@pytest.mark.parametrize(
    "selector, digest",
    [
        ("steane", "a61a33c6cdfef1cfe6110f90af794767b229d4ba1a6152830038d5fbddbaafd6"),
        ("four22", "edacbcd7998c39e95dc5b6810d30eb823d308bd3c6cfdc9d9be88d0e9895b5b5"),
        ("toric2d:2", "d90813aa7dd4bd896f6e6efa291a7a07fa0b70d29edf17946969141dc43d73b3"),
        ("toric2d:3", "b3c32a1a3d5a84b358cf7b85b5062e4c30c3da6a63872e81e7b8b07b32ada7ea"),
        ("color666:3x3", "7813df9e35f9dbaf155816013f4d4039e3efc17aa040db2275b6ed3717742933"),
        ("surface2d:3x4", "1b951b7824ff82a4779c9936faca508f820fd55769b8f461d4017d593fd30017"),
        ("surface2d:4x4", "4540cd1427e8f4079e6572401d544debc0bc235555179842414cb814a1c9a7d8"),
    ],
)
def test_sweep_tables_equal_per_call_tables(selector, digest):
    # one enumerator per side for every rate gives each rate's table bit for
    # bit; the digest of all ten tables was recorded when every table built
    # its own enumerator
    code = from_selector(selector)
    rates = [0.0, 0.03, 0.11, 0.5, 1.0]
    h = hashlib.sha256()
    for side, one in (("x", sector_distribution_x), ("z", sector_distribution_z)):
        dists = sector_distributions(code, side, rates)
        assert len(dists) == len(rates)
        for p, dist in zip(rates, dists):
            single = one(code, p)
            assert np.array_equal(dist.table, single.table)
            assert (dist.mode, dist.widths, dist.noise) == (
                single.mode, single.widths, single.noise
            )
            h.update(dist.table.tobytes())
    assert h.hexdigest() == digest
    assert sector_distributions(code, "x", []) == []
    with pytest.raises(ValueError, match="pz = 1.5"):
        sector_distributions(code, "z", [0.1, 1.5])


def test_repeated_rate_shares_one_table():
    # a fixed-pz sweep asks for the same rate at every point: one table is
    # built and the same (frozen, read-only) object is returned each time
    code = steane()
    dists = sector_distributions(code, "z", [0.07] * 3)
    assert dists[0] is dists[1] is dists[2]
    assert not dists[0].table.flags.writeable
    assert np.array_equal(dists[0].table, sector_distribution_z(code, 0.07).table)
    mixed = sector_distributions(code, "x", [0.07, 0.2, 0.07])
    assert mixed[0] is mixed[2] and mixed[1] is not mixed[0]


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


def test_table_bytes_are_pinned():
    # sha256 of table.tobytes(), so the dense layout and every float of the
    # joint, marginal and factorized tables stay bit for bit
    want = {
        "four22 joint":
            "9f87eda6251b00d33c08a7360f41dafe642f05dbec3cd6406639e2bd42e3c428",
        "four22 marginal b":
            "651bf844b6410786a9ae367a52365b1fab1ca3ab548d266846ba8f23df0f084b",
        "toric2d:2 x":
            "a797b5c4ca0e6869e938a1b38c6a00f9ab937459545a99f8392f7927d59de369",
        "toric2d:2 z":
            "931be71cbabeb0419313d87da6a009064dd46e5bf64b3bf233dd2c51acab624e",
    }
    joint = _joint_pairs_oracle(four22(), PauliNoise(0.03, 0.01, 0.05))
    tables = {
        "four22 joint": joint,
        "four22 marginal b": marginalize(joint, ["b"]),
        "toric2d:2 x": sector_distribution_x(toric2d(2), 0.11),
        "toric2d:2 z": sector_distribution_z(toric2d(2), 0.23),
    }
    assert tables["four22 marginal b"].mode == "marginal"
    for name, dist in tables.items():
        assert hashlib.sha256(dist.table.tobytes()).hexdigest() == want[name], name


def test_multi_block_table_is_pinned():
    # toric2d:4, x side, m = 17: the transform runs 32 row blocks and 32
    # column chunks; sha256 of the table as the in-place butterfly built it
    table = sector_distribution_x(toric2d(4), 0.1).table
    assert hashlib.sha256(table.tobytes()).hexdigest() == (
        "c106575082bd85d43a41825bd14651e57728e8fd43e1dac3f59fca8c081ac8f3"
    )


def _pauli_pair_prob(ex, ez, noise, n):
    prob = 1.0
    for i in range(n):
        x, z = (ex >> i) & 1, (ez >> i) & 1
        prob *= (1.0 - noise.ptot, noise.ptz, noise.ptx, noise.pty)[2 * x + z]
    return prob


def _check_layout(dist, brute):
    assert np.all(np.abs(brute - dist.table) <= 1e-15)
    for i in range(len(dist.table)):
        key = _fields(dist.widths, i)
        cell = tuple(key[f] for f in dist.axes)
        assert dist.view()[cell] == dist.table[i]


@pytest.mark.parametrize("code", [four22(), steane()], ids=["four22", "steane"])
def test_joint_layout_matches_brute_force(code):
    noise = PauliNoise(0.05, 0.02, 0.08)
    dist = sector_distribution_joint(code, noise)
    brute = np.zeros(len(dist.table))
    for ex in range(1 << code.n):
        vx = BitVector(code.n, ex)
        for ez in range(1 << code.n):
            label = _packed_label(code, dist.widths, vx, BitVector(code.n, ez))
            brute[label] += _pauli_pair_prob(ex, ez, noise, code.n)
    _check_layout(dist, brute)


@pytest.mark.parametrize(
    "code", [four22(), steane(), toric2d(2)], ids=["four22", "steane", "toric2d:2"]
)
def test_joint_transform_matches_pairs_oracle(code):
    bound = _joint_bound(code)
    for mix in ("1,1,1", "1,0,0", "1,0,2", "3,1,0.2"):
        for p in (1e-3, 0.1, 0.6, 1.0):
            noise = parse_noise("general:" + mix).rates_at(p)
            dist = sector_distribution_joint(code, noise)
            oracle = _joint_pairs_oracle(code, noise)
            assert np.max(np.abs(dist.table - oracle.table)) <= bound, (mix, p)
            assert dist.widths == oracle.widths and dist.noise == oracle.noise
            for name in ("code_hash", "n", "k", "mode", "axes"):
                assert getattr(dist, name) == getattr(oracle, name), name


def test_joint_json_keys_match_oracle():
    # the keys a table is labelled by: the same fields, widths and layout,
    # and the same code and noise metadata, as the pairs oracle's
    noise = PauliNoise(0.03, 0.01, 0.05)
    engine = sector_distribution_joint(four22(), noise)
    oracle = _joint_pairs_oracle(four22(), noise)
    assert len(engine.table) == len(oracle.table)
    assert engine.view().shape == oracle.view().shape
    for name in ("code_hash", "n", "k", "mode", "axes", "widths", "noise"):
        assert getattr(engine, name) == getattr(oracle, name), name


@pytest.mark.parametrize(
    "noise",
    [PauliNoise(0.05, 0.02, 0.08), parse_noise("general:3,1,0.2").rates_at(0.3)],
    ids=["0.05,0.02,0.08", "0.3:3,1,0.2"],
)
def test_joint_transform_matches_pairs_oracle_at_n13(noise):
    code = surface2d(3, 3)
    assert code.n == 13
    dist = sector_distribution_joint(code, noise)
    oracle = _joint_pairs_oracle(code, noise)
    assert np.max(np.abs(dist.table - oracle.table)) <= _joint_bound(code)


def test_joint_transform_reaches_toric2d_3():
    # n = 18: 4^18 error pairs, but 2^20 label combinations
    code = toric2d(3)
    assert code.n + code.k == 20
    px, pz = 0.1, 0.07
    joint = sector_distribution_joint(code, depolarizing_from_independent(px, pz))
    dx = sector_distribution_x(code, px)
    dz = sector_distribution_z(code, pz)
    product = np.outer(dz.table, dx.table).ravel()
    assert np.max(np.abs(joint.table - product)) <= _joint_bound(code)


def test_joint_transform_raises_on_impossible_entries(monkeypatch):
    # a transform that came out far negative is an internal fault, not noise
    def corrupt(a):
        out = _constant_geometry_transform(a)
        out[-1] = -1e-9 * len(out)
        return out

    monkeypatch.setattr("csstat.channels._constant_geometry_transform", corrupt)
    with pytest.raises(InternalInvariantError, match="below"):
        sector_distribution_joint(four22(), PauliNoise(0.05, 0.02, 0.08))


@pytest.mark.parametrize(
    "selector, digests",
    [
        ("four22", ("24c0570de73fd70e32d815f48b8eac5b16ab4700c7ef9bedca4e3045e90a3d09",
                    "81f57f16221d351c349c50fb33eb9317656205fc927800a6a003b40de7d1494a")),
        ("steane", ("913f15c36c00819a637b9584e301b86dfa97fd3a1e96755afbb94faaa6ae184a",
                    "a8b07b574bd32adfe0b0500e43ea39d5efda10403b4efa50b1be3cb7b6db1a13")),
        ("surface2d:3x3",
         ("fc2c4769ad7916cbc308849606ef33bdfa30f9eff0a260ac34c796d9774833aa",
          "34758054d0b6e76cd562d2fb055cf19c550ea1f84daa08c814b4890993894277")),
        ("toric2d:2", ("d24b3f658fa6d311a09253e814fbf2516a6d756f23612cd36d10084806574c87",
                       "80817bd83753b4fd8bbbf523561c0c8a6a27358a64fac2aa4f7ec9503ac7192a")),
        ("toric2d:3", ("a318fbed080a9a1f06e2e8c292115d9d593cf17995037ef493a8aae50fd89820",
                       "24c2b94f3b962fee77075f24bb647b67715bac2e7ccb3175ca2211057f600427")),
    ],
)
def test_joint_tables_are_pinned(selector, digests):
    # sha256 of the table bytes as the in-place butterfly network built them
    code = from_selector(selector)
    noises = (depolarizing_from_independent(0.1, 0.1), PauliNoise(0.05, 0.02, 0.08))
    for noise, digest in zip(noises, digests):
        table = sector_distribution_joint(code, noise).table
        assert hashlib.sha256(table.tobytes()).hexdigest() == digest, noise


@pytest.mark.parametrize("m", range(17))
def test_constant_geometry_transform_equals_butterfly(m):
    # signed entries from subnormal to 2^64, with +-0.0 and subnormals planted
    rng = np.random.default_rng(m)
    size = 1 << m
    a = rng.normal(size=size) * np.exp2(rng.integers(-1074, 64, size=size))
    a[rng.integers(0, size, size=size // 8 + 1)] = 0.0
    a[rng.integers(0, size, size=size // 8 + 1)] = -0.0
    sub = rng.integers(0, size, size=size // 8 + 1)
    a[sub] = rng.integers(-(1 << 52), 1 << 52, size=len(sub)) * 5e-324
    want = a.copy()
    butterfly_walsh_hadamard(want)
    got = _constant_geometry_transform(a.copy())
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_check_rejects_nan_and_inf(bad):
    table = np.full(4, 0.25)
    table[1] = bad
    dist = SectorDistribution(
        code_hash="", n=2, k=1, widths={"b": 1, "kz": 1}, table=table
    )
    with pytest.raises(InternalInvariantError):
        dist.check()


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
            ex, ez = (e, zero) if side == "x" else (zero, e)
            label = _packed_label(code, dist.widths, ex, ez)
            brute[label] += error_weight_prob(e.weight(), code.n, p)
        _check_layout(dist, brute)


# ---------------------------------------------------------------------------
# exact_sum: math.fsum's correctly rounded sum, without a Python float list
# ---------------------------------------------------------------------------


def _same_float(a, b):
    """Equal bit for bit, so 0.0 and -0.0 differ and NaN equals NaN."""
    return a.hex() == b.hex()


def _ties(draw_pairs):
    """Entries whose exact sums fall halfway between two doubles."""
    out = []
    for a, sign in draw_pairs:
        out += [a, sign * math.ulp(a) / 2]
    return out


_finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
_probabilities = st.one_of(
    st.just(0.0), st.just(-0.0), st.floats(min_value=1e-300, max_value=1.0)
)
_subnormals = st.integers(-(1 << 52) + 1, (1 << 52) - 1).map(lambda f: f * 5e-324)
_tie_pairs = st.lists(
    st.tuples(st.floats(min_value=2.0**-1000, max_value=1.0), st.sampled_from([1, -1])),
    min_size=1, max_size=4,
).map(_ties)
_summands = st.one_of(
    st.lists(_finite, max_size=200),
    st.lists(_probabilities, min_size=1, max_size=200),
    st.lists(_subnormals, min_size=1, max_size=50),
    st.lists(st.one_of(_subnormals, _probabilities), min_size=1, max_size=50),
    st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=5),
    _tie_pairs,
    _finite.map(lambda x: [x]),
)


@settings(max_examples=500, deadline=None)
@given(_summands)
def test_exact_sum_equals_fsum(values):
    assert _same_float(exact_sum(np.array(values, dtype=np.float64)), math.fsum(values))


@pytest.mark.parametrize(
    "values",
    [[], [-0.0], [0.0, -0.0], [5e-324], [-5e-324], [1.0, 2.0**-53],
     [1.0, 2.0**-53, 2.0**-1074], [1.0 + 2.0**-52, 2.0**-53], [2.0**-1022, -5e-324],
     [1e300, -1e300, 1e-300], [0.1] * 10],
)
def test_exact_sum_edge_values(values):
    assert _same_float(exact_sum(np.array(values, dtype=np.float64)), math.fsum(values))


@pytest.mark.parametrize(
    "values", [[math.inf, 1.0], [-math.inf, 2.0], [math.nan, 1.0], [math.inf, math.nan]]
)
def test_exact_sum_non_finite_like_fsum(values):
    assert _same_float(exact_sum(np.array(values)), math.fsum(values))


def test_exact_sum_raises_like_fsum():
    with pytest.raises(ValueError):
        exact_sum(np.array([math.inf, 1.0, -math.inf]))
    with pytest.raises(OverflowError):
        exact_sum(np.array([1.7e308, 1.7e308]))


def test_exact_sum_on_a_2_20_array():
    # several blocks, every sign and magnitude from subnormal to 1e300
    rng = np.random.default_rng(7)
    size = 1 << 20
    values = rng.normal(size=size) * np.exp2(rng.integers(-1074, 990, size=size))
    values[::97] = -0.0
    values[::89] = rng.integers(-(1 << 52), 1 << 52, size=len(values[::89])) * 5e-324
    assert _same_float(exact_sum(values), math.fsum(values.tolist()))
    probabilities = rng.random(size) ** 16
    assert _same_float(exact_sum(probabilities), math.fsum(probabilities.tolist()))


def test_check_makes_no_per_entry_python_objects():
    # a Python float per entry would be 32 bytes, four times the table
    table = np.random.default_rng(3).random(1 << 20)
    table /= table.sum()
    dist = SectorDistribution(
        code_hash="", n=20, k=1, widths={"b": 19, "kz": 1}, table=table
    )
    tracemalloc.start()
    try:
        dist.check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * table.nbytes


# ---------------------------------------------------------------------------
# check(): a certified float estimate, exact_sum for every other table
# ---------------------------------------------------------------------------


def _outcome(check, table):
    try:
        check(table)
    except Exception as exc:  # the type and text must match, whatever they are
        return type(exc), str(exc)
    return None


def _table_summing_to(target, size, rng):
    """A table of `size` entries whose exact sum is within an ulp or so of
    the double target: random entries with full-width significands, so a
    float sum of them rounds, and one entry near 0.5 corrected twice by the
    residual of the exact sum."""
    table = rng.random(size) ** 4
    table *= 0.5 / table.sum()
    table[rng.integers(size)] = 0.5
    for _ in range(2):
        i = np.argmax(table)
        table[i] += target - exact_sum(table)
    return table


def _dist(table):
    bits = len(table).bit_length() - 1
    return SectorDistribution(code_hash="", n=bits, k=0, widths={"b": bits}, table=table)


def _near_the_bounds():
    targets = [1.0, 1.0 - 5e-13, 1.0 + 5e-13, 1.0 - 2e-12, 1.0 + 2e-12]
    for edge in (1.0 - 1e-12, 1.0 + 1e-12):
        for steps in range(-4, 5):
            target = edge
            for _ in range(abs(steps)):
                target = np.nextafter(target, 2.0 if steps > 0 else 0.0)
            targets.append(float(target))
    return targets


@pytest.mark.parametrize("bits", [0, 1, 10, 16, 20])
def test_check_decides_like_exact_sum_near_the_bounds(bits):
    rng = np.random.default_rng(bits)
    passed = set()
    for target in _near_the_bounds():
        table = _table_summing_to(target, 1 << bits, rng)
        assert abs(exact_sum(table) - target) <= 2 * math.ulp(target)
        want = _outcome(exact_check, table)
        assert _outcome(lambda t: _dist(t).check(), table) == want, target.hex()
        passed.add(want is None)
    assert passed == {True, False}


@pytest.mark.parametrize("bits", [0, 2, 10])
@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, -1e-300, "overflow"],
    ids=["nan", "inf", "-inf", "negative", "overflow"],
)
def test_check_fails_like_exact_sum(bits, bad):
    table = np.full(1 << bits, 2.0**-bits)
    if bad == "overflow":
        table[:] = 1.7e308
        if bits == 0:
            table = np.array([1.7e308])
    else:
        table[-1] = bad
    want = _outcome(exact_check, table)
    assert want is not None
    assert _outcome(lambda t: _dist(t).check(), table) == want


def test_check_calls_exact_sum_only_when_the_estimate_is_inconclusive(monkeypatch):
    calls = []

    def counting(values):
        calls.append(len(values))
        return exact_sum(values)

    monkeypatch.setattr(channels, "exact_sum", counting)
    dist = sector_distribution_joint(
        surface2d(3, 3), depolarizing_from_independent(0.1, 0.1)
    )
    assert len(dist.table) == 1 << 14
    assert calls == []
    # the exact sum sits two ulps inside 1 + 1e-12: it passes, but only
    # exact_sum can tell
    edge = np.nextafter(np.nextafter(1.0 + 1e-12, 0.0), 0.0)
    _dist(_table_summing_to(float(edge), 1 << 14, np.random.default_rng(0))).check()
    assert calls == [1 << 14]
