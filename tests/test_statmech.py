"""Disorder-model mapping: sector identities, dualities, serialization."""

import hashlib
import json
import math
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest

from csstat import statmech
from csstat.cli import parse_noise

from csstat.channels import (
    PauliNoise,
    depolarizing_from_independent,
    sector_distribution_joint,
    sector_distribution_x,
)
from csstat.css import TooLarge, from_text, representative_x, representative_z
from csstat.gf2 import BitVector
from csstat.info import relative_entropy
from csstat.statmech import (
    SPECIES_COUPLED,
    SPECIES_X,
    Couplings,
    build_sm_coupled,
    build_sm_x,
    build_sm_z,
    domain_wall_free_energy,
    kw_check,
    load_model_json,
    log_normalization,
    log_sector_probability,
    nishimori_beta,
    partition_exact,
    partition_sums,
    save_model_json,
    sm_from_json_dict,
    sm_to_json_dict,
    verify_sector_identity,
    verify_sector_identity_coupled,
)
from csstat.zoo import four22, from_selector, steane, surface2d, toric2d
from oracles import exact_observables


def trivial_x_model(code):
    return build_sm_x(code, BitVector(code.n, 0))


def test_nishimori_beta():
    assert nishimori_beta(0.5) == 0.0
    assert abs(nishimori_beta(0.1) - 0.5 * math.log(9)) < 1e-15
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            nishimori_beta(bad)
    # (1 - p)/p overflows to inf below about 5.6e-309
    assert nishimori_beta(1e-300) == 0.5 * math.log((1.0 - 1e-300) / 1e-300)
    for tiny in (1e-320, 5e-324):
        with pytest.raises(ValueError, match="not finite"):
            nishimori_beta(tiny)


def test_four22_partition_closed_form():
    # one spin (the single X check) hit by four single-site terms, one per
    # qubit: Z = sum_{s=+-1} e^(4 beta s) = 2 cosh(4 beta)
    code = four22()
    model = trivial_x_model(code)
    assert model.num_spins == 1
    assert len(model.masks) == len(model.signs) == code.n
    beta = 0.37
    lnz = partition_exact(model, Couplings.uniform(beta))
    assert abs(lnz - math.log(2 * math.cosh(4 * beta))) < 1e-14


def test_sector_identity_exact():
    # the central correspondence: every sector probability equals its
    # partition function times the shared normalization
    for code in (four22(), steane(), toric2d(2)):
        for p in (0.07, 0.25):
            for side in ("x", "z"):
                rep = verify_sector_identity(code, p, side=side)
                assert rep.sectors_checked == 1 << (
                    (code.rank_z if side == "x" else code.rank_x) + code.k
                )
                assert rep.max_abs_dev < 1e-12


def test_sector_identity_coupled():
    code = four22()
    noise = PauliNoise(0.06, 0.03, 0.1)
    joint = sector_distribution_joint(code, noise)
    rep = verify_sector_identity_coupled(code, noise, joint)
    assert rep.sectors_checked == len(joint.table)
    assert rep.max_abs_dev < 1e-12
    with pytest.raises(ValueError, match="joint"):
        verify_sector_identity_coupled(code, noise, sector_distribution_x(code, 0.1))
    with pytest.raises(ValueError, match="widths"):
        verify_sector_identity_coupled(steane(), noise, joint)


def test_gauge_covariance():
    # shifting the representative by a stabilizer row relabels spins/signs
    # but cannot move the partition function
    code = toric2d(2)
    b = BitVector(code.rank_z, 3)
    kz = BitVector(code.k, 1)
    e = representative_x(code, b, kz)
    couplings = Couplings.uniform(0.44)
    base = partition_exact(build_sm_x(code, e), couplings)
    for r in range(code.Hx.rows):
        shifted = partition_exact(
            build_sm_x(code, e ^ code.Hx.row(r)), couplings
        )
        assert abs(shifted - base) < 1e-12


def test_symmetry_basis_is_a_symmetry():
    # flipping every spin in a symmetry-basis row fixes each term's product
    code = toric2d(2)
    model = trivial_x_model(code)
    assert len(model.symmetry_basis) == code.Dx
    for s in model.symmetry_basis:
        for mask in model.masks:
            assert (s.bits & mask).bit_count() % 2 == 0


def test_high_temperature_series():
    # four22 trivial sector holds {0000, 1111}, so its probability is
    # (1-p)^4 + p^4; and the tanh expansion of Z closes after two orders:
    # Z / (2 cosh(b)^4) = 1 + 6 t^2 + t^4 with t = tanh(b), making the
    # truncation error of the quadratic high-temperature series exactly t^4
    code = four22()
    model = trivial_x_model(code)
    for beta in (0.05, 0.1, 0.2):
        lnp = log_sector_probability(model, Couplings.uniform(beta), code.n)
        p = 1.0 / (1.0 + math.exp(2 * beta))
        assert abs(math.exp(lnp) - ((1 - p) ** 4 + p**4)) < 1e-14
        t = math.tanh(beta)
        ratio = math.exp(
            partition_exact(model, Couplings.uniform(beta))
            - math.log(2) - 4 * math.log(math.cosh(beta))
        )
        assert abs(ratio - (1 + 6 * t**2 + t**4)) < 1e-13
        assert abs(ratio - (1 + 6 * t**2)) <= t**4 * (1 + 1e-10)


def test_beta_zero_counts_states():
    # at infinite temperature Z literally counts configurations
    code = toric2d(2)
    model = trivial_x_model(code)
    lnz = partition_exact(model, Couplings.uniform(0.0))
    assert abs(lnz - model.num_spins * math.log(2)) < 1e-12


def test_couplings_from_pauli():
    # depolarizing rates force the cross-register family off exactly
    noise = depolarizing_from_independent(0.1, 0.1)
    c = Couplings.from_pauli(noise)
    assert abs(c.cy) < 1e-13
    assert c.cx > 0 and c.cz > 0
    with pytest.raises(ValueError):
        Couplings.from_pauli(PauliNoise(0.1, 0.0, 0.1))  # zero rate: beta infinite


def test_coupled_model_structure():
    code = four22()
    model = build_sm_coupled(code, BitVector(code.n, 0), BitVector(code.n, 0))
    assert model.species == SPECIES_COUPLED
    assert model.num_spins == code.Hx.rows + code.Hz.rows
    assert model.sigma_spins == code.Hx.rows
    # three coupling families, n terms each
    by_family = {}
    for family in model.families:
        by_family[family] = by_family.get(family, 0) + 1
    assert by_family == {"x": code.n, "z": code.n, "y": code.n}
    with pytest.raises(ValueError):
        build_sm_coupled(code, BitVector(code.n - 1, 0), BitVector(code.n, 0))


def test_kw_residuals():
    # the homology-summed relation is an identity at any temperature; the
    # raw single-sector form is only an approximation and its residual
    # shrinks as beta_x grows
    code = toric2d(2)
    raws = []
    for beta_x in (0.5, 0.9, 1.4):
        rep = kw_check(code, beta_x)
        assert abs(rep.beta_z + 0.5 * math.log(math.tanh(beta_x))) < 1e-15
        assert rep.summed_residual < 1e-12
        raws.append(rep.raw_residual)
    assert raws[0] > raws[1] > raws[2]


def test_domain_wall_matches_relative_entropy():
    # free-energy cost of inserting a logical domain wall, computed purely
    # from partition functions, equals the information-theoretic divergence
    code = toric2d(2)
    shift = BitVector(code.k, 1)
    for p in (0.12, 0.3):
        dw = domain_wall_free_energy(code, p, shift)
        re = relative_entropy(
            sector_distribution_x(code, p), BitVector(code.k, 0), shift
        ).value
        assert abs(dw - re) < 1e-12
    with pytest.raises(ValueError):
        domain_wall_free_energy(code, 0.1, BitVector(code.k, 0))  # zero shift
    with pytest.raises(ValueError):
        domain_wall_free_energy(code, 0.1, BitVector(5, 1))  # wrong width


def test_spin_limit_is_checked_before_the_parity_block():
    # 70 X-side spins: masks wider than 64 bits must reach the spin limit,
    # not overflow while packing the parity block
    code = from_text("css-code v1\nn 4\nHz 1\n1111\nHx 70\n" + "1111\n" * 70)
    model = trivial_x_model(code)
    assert model.num_spins == 70
    with pytest.raises(TooLarge, match="24-spin limit"):
        next(partition_sums(model, [model.signs], Couplings.uniform(0.5)))
    with pytest.raises(TooLarge, match="24-spin limit"):
        domain_wall_free_energy(code, 0.1, BitVector(code.k, 1))


def test_exact_observables_four22():
    # H = -4s on a single spin: <H> = -4 tanh(4 beta)
    code = four22()
    model = trivial_x_model(code)
    beta = 0.8
    lnz, energy, corr = exact_observables(model, beta)
    assert abs(lnz - math.log(2 * math.cosh(4 * beta))) < 1e-14
    assert abs(energy + 4 * math.tanh(4 * beta)) < 1e-12
    assert corr.shape == (1, 1) and abs(corr[0, 0] - 1.0) < 1e-15


def test_exact_observables_matches_finite_difference():
    code = surface2d(2, 2)
    model = trivial_x_model(code)
    beta, h = 0.6, 1e-5
    _, energy, _ = exact_observables(model, beta)
    up = partition_exact(model, Couplings.uniform(beta + h))
    down = partition_exact(model, Couplings.uniform(beta - h))
    assert abs(energy + (up - down) / (2 * h)) < 1e-7


def test_json_round_trip(tmp_path):
    code = toric2d(2)
    e = representative_x(code, BitVector(code.rank_z, 5), BitVector(code.k, 2))
    model = build_sm_x(code, e)
    couplings = Couplings.uniform(nishimori_beta(0.17))

    back, cback = sm_from_json_dict(sm_to_json_dict(model, couplings))
    assert back == model
    assert cback == couplings

    path = tmp_path / "model.json"
    save_model_json(str(path), model, couplings)
    loaded, cloaded = load_model_json(str(path))
    assert partition_exact(loaded, cloaded) == partition_exact(model, couplings)

    # couplings are optional in the format
    bare, none = sm_from_json_dict(sm_to_json_dict(model))
    assert bare == model and none is None


def test_normalization_is_shared_across_sectors():
    # sum over all sectors of exp(lnZ + lnC) must be exactly 1: the
    # normalization carries no per-sector data
    code = four22()
    p = 0.21
    couplings = Couplings.uniform(nishimori_beta(p))
    total = 0.0
    for b_int in range(1 << code.rank_z):
        for kz_int in range(1 << code.k):
            e = representative_x(
                code, BitVector(code.rank_z, b_int), BitVector(code.k, kz_int)
            )
            total += math.exp(
                log_sector_probability(build_sm_x(code, e), couplings, code.n)
            )
    assert abs(total - 1.0) < 1e-12
    # and the species tag matters: the coupled normalization differs
    single = log_normalization(couplings, code.n, code.Dx, SPECIES_X)
    coupled = log_normalization(couplings, code.n, code.Dx, SPECIES_COUPLED)
    assert single != coupled


# ---------------------------------------------------------------------------
# Per-term oracle for the exact sums: one pass over the configurations per
# term, accumulating coupling * sign * parity, with the chunked log-sum-exp.
# ---------------------------------------------------------------------------


def _term_arrays(model, couplings):
    masks = np.array(model.masks, dtype=np.uint64)
    weights = np.array(
        [s * couplings.for_family(f) for s, f in zip(model.signs, model.families)],
        dtype=np.float64,
    )
    return masks, weights


def _exponents(configs, masks, weights):
    """Sum of coupling*sign*prod(spins) for each configuration."""
    acc = np.zeros(len(configs), dtype=np.float64)
    for mask, w in zip(masks, weights):
        parity = (np.bitwise_count(configs & mask) & np.uint64(1)).astype(
            np.float64
        )
        acc += w * (1.0 - 2.0 * parity)
    return acc


def _partition_oracle(model, couplings, chunk=1 << 20):
    masks, weights = _term_arrays(model, couplings)
    total = 1 << model.num_spins
    ln_z = None
    for start in range(0, total, chunk):
        configs = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        expo = _exponents(configs, masks, weights)
        shift = float(expo.max())
        part = shift + math.log(float(np.exp(expo - shift).sum()))
        if ln_z is None:
            ln_z = part
        else:
            hi, lo = max(ln_z, part), min(ln_z, part)
            ln_z = hi + math.log1p(math.exp(lo - hi))
    return ln_z


def _sector_models(code, side):
    """The side's model at a handful of sectors: first, second, middle, last."""
    syn_bits = code.rank_z if side == "x" else code.rank_x
    build = build_sm_x if side == "x" else build_sm_z
    representative = representative_x if side == "x" else representative_z
    total = 1 << (syn_bits + code.k)
    for label in sorted({0, 1, total // 2, total - 1}):
        syn = BitVector(syn_bits, label >> code.k)
        log = BitVector(code.k, label & ((1 << code.k) - 1))
        yield build(code, representative(code, syn, log))


@pytest.mark.parametrize("side", ["x", "z"])
@pytest.mark.parametrize(
    "make",
    [four22, steane, lambda: toric2d(2), lambda: surface2d(3, 4), lambda: toric2d(4)],
    ids=["four22", "steane", "toric2d:2", "surface2d:3x4", "toric2d:4"],
)
def test_partition_exact_matches_per_term_oracle(make, side):
    code = make()
    for model in _sector_models(code, side):
        for beta in (0.0, 0.3, nishimori_beta(0.1)):
            couplings = Couplings.uniform(beta)
            got = partition_exact(model, couplings)
            assert abs(got - _partition_oracle(model, couplings)) < 1e-12


def test_partition_exact_matches_oracle_on_coupled_model():
    code = four22()
    couplings = Couplings.from_pauli(PauliNoise(0.06, 0.03, 0.1))
    for b, kz, a, kx in ((0, 0, 0, 0), (1, 2, 0, 1), (1, 3, 1, 3)):
        model = build_sm_coupled(
            code,
            representative_x(code, BitVector(code.rank_z, b), BitVector(code.k, kz)),
            representative_z(code, BitVector(code.rank_x, a), BitVector(code.k, kx)),
        )
        got = partition_exact(model, couplings)
        assert abs(got - _partition_oracle(model, couplings)) < 1e-12


def test_partition_exact_across_many_chunks(monkeypatch):
    # a 3-bit low block and a budget of 576 = 4 * 18 * 2^3 multiply-adds
    # give chunks of 4 high rows (32 configurations): 16 chunks for 2^9
    code = surface2d(3, 4)
    couplings = Couplings.uniform(nishimori_beta(0.1))
    whole = [partition_exact(m, couplings) for m in _sector_models(code, "x")]
    observed = [exact_observables(m, 0.7) for m in _sector_models(code, "x")]
    monkeypatch.setattr(statmech, "_LOW_BITS", 3)
    monkeypatch.setattr(statmech, "_CHUNK", 576)
    for model, ln_z, obs in zip(_sector_models(code, "x"), whole, observed):
        assert len(model.masks) == 18 and model.num_spins == 9
        blocks = statmech._parity_blocks(model)
        assert len(list(statmech._exponent_chunks(np.ones(18), blocks))) == 16
        chunked = partition_exact(model, couplings)
        assert abs(chunked - _partition_oracle(model, couplings, chunk=32)) < 1e-12
        assert abs(chunked - ln_z) < 1e-12
        # exact_observables pairs each exponent with its configuration's spins
        lnz_obs, energy, corr = exact_observables(model, 0.7)
        assert abs(lnz_obs - _partition_oracle(model, Couplings.uniform(0.7))) < 1e-12
        assert abs(lnz_obs - obs[0]) < 1e-12 and abs(energy - obs[1]) < 1e-12
        assert np.allclose(corr, obs[2], rtol=0, atol=1e-12)


def test_sign_swap_equals_a_fresh_build():
    # the per-sector loops reuse one model and replace only its signs
    code = toric2d(2)
    base = build_sm_x(code, BitVector(code.n, 0))
    for label in range(1 << (code.rank_z + code.k)):
        syn = BitVector(code.rank_z, label >> code.k)
        log = BitVector(code.k, label & ((1 << code.k) - 1))
        e = representative_x(code, syn, log)
        fresh = build_sm_x(code, e)
        assert replace(base, signs=fresh.signs) == fresh
        assert fresh.signs == tuple(-1 if bit else 1 for bit in e)
    zero = BitVector(code.n, 0)
    e_x = representative_x(code, BitVector(code.rank_z, 3), BitVector(code.k, 1))
    e_z = representative_z(code, BitVector(code.rank_x, 5), BitVector(code.k, 2))
    coupled = build_sm_coupled(code, e_x, e_z)
    assert replace(build_sm_coupled(code, zero, zero), signs=coupled.signs) == coupled
    for col in range(code.n):
        sx, sz, sy = coupled.signs[3 * col:3 * col + 3]
        assert (sx, sz, sy) == (1 - 2 * e_x[col], 1 - 2 * e_z[col], sx * sz)


def _error_rows(n, count, salt):
    """count fixed pseudo-random n-bit error patterns."""
    mask = (1 << n) - 1
    return [
        BitVector(n, ((i + salt) * 0x9E3779B97F4A7C15 >> 7) & mask)
        for i in range(count)
    ]


@pytest.mark.parametrize(
    "selector, digest",
    [
        ("four22", "e6b94a723a1409f2a63c4358f065afd9deb0f1d32f3605af1ee9f1027678aaa6"),
        ("steane", "0d6388aa9e778e7888c3e1eda1e1b3d612083ad3313cc7719710b314d0b6fb52"),
        ("toric2d:3", "c68ed97acd2732943960d38dc8197153f7827a8f081884b15063ea0ae89b469b"),
        ("surface2d:3x4", "5d0a6b28252046bf3dbf08d27b66f828019b0c221a5d94e42df7c58e478cd553"),
    ],
)
def test_partition_sums_equal_per_model_sums(selector, digest, monkeypatch):
    # one set of parity blocks for many sign rows gives each row's ln Z bit
    # for bit; the digest was recorded when every sum built its own block
    monkeypatch.setattr(statmech, "_ROW_BLOCK", 3)
    code = from_selector(selector)
    zero = BitVector(code.n, 0)
    uniform = Couplings.uniform(nishimori_beta(0.1))
    coupled = Couplings.from_pauli(depolarizing_from_independent(0.1, 0.1))
    x_errors, z_errors = _error_rows(code.n, 8, 1), _error_rows(code.n, 8, 2)
    values = []
    for base, couplings, rows, reps in (
        (build_sm_x(code, zero), uniform,
         [statmech._signs(e) for e in x_errors], [e.bits for e in x_errors]),
        (build_sm_z(code, zero), uniform,
         [statmech._signs(e) for e in z_errors], [e.bits for e in z_errors]),
        (build_sm_coupled(code, zero, zero), coupled,
         [statmech._coupled_signs(ex, ez) for ex, ez in
          zip(_error_rows(code.n, 4, 3), _error_rows(code.n, 4, 4))], None),
    ):
        got = list(partition_sums(base, rows, couplings))
        assert got == [partition_exact(replace(base, signs=r), couplings) for r in rows]
        values += got
        # rows are drawn one at a time, not gathered up front
        pending = iter(rows)
        next(partition_sums(base, pending, couplings))
        assert len(list(pending)) == len(rows) - 1
        if reps is None:
            continue
        # int8 rows from the block builder give the same sums, and it reads
        # the representatives one block of _ROW_BLOCK at a time
        built = chain.from_iterable(statmech._sign_blocks(code.n, reps))
        assert list(partition_sums(base, built, couplings)) == got
        pending = iter(reps)
        built = chain.from_iterable(statmech._sign_blocks(code.n, pending))
        next(partition_sums(base, built, couplings))
        assert len(list(pending)) == len(reps) - 3
    assert hashlib.sha256(json.dumps(values).encode()).hexdigest() == digest


def _wide_rows(n, count):
    """count pseudo-random n-bit patterns that reach every bit up to 256."""
    return [
        int.from_bytes(hashlib.sha256(f"{n}:{i}".encode()).digest(), "little")
        & ((1 << n) - 1)
        for i in range(count)
    ]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 81])
def test_sign_blocks_equal_per_row_signs(n, monkeypatch):
    monkeypatch.setattr(statmech, "_ROW_BLOCK", 4)
    reps = [0, (1 << n) - 1] + _wide_rows(n, 9)
    blocks = list(statmech._sign_blocks(n, reps))
    assert [b.shape for b in blocks] == [(4, n), (4, n), (3, n)]
    assert all(b.dtype == np.int8 for b in blocks)
    rows = [tuple(row.tolist()) for b in blocks for row in b]
    assert rows == [statmech._signs(BitVector(n, e)) for e in reps]
    # coupled rows run Z outer, X inner, as the joint index z << m_x | x
    reps_x, reps_z = reps[:6], reps[5:]
    blocks = list(statmech._coupled_sign_blocks(n, reps_x, reps_z))
    assert all(b.dtype == np.int8 and len(b) <= 4 for b in blocks)
    rows = [tuple(row.tolist()) for b in blocks for row in b]
    assert rows == [
        statmech._coupled_signs(BitVector(n, ex), BitVector(n, ez))
        for ez in reps_z for ex in reps_x
    ]
    # Z representatives are read one block at a time too
    pending = iter(reps_z)
    next(statmech._coupled_sign_blocks(n, reps_x, pending))
    assert len(list(pending)) == len(reps_z) - 4


@pytest.mark.parametrize("side, sectors, spins", [("x", 512, 9), ("z", 1024, 8)])
def test_sector_identity_surface_3x4(side, sectors, spins):
    rep = verify_sector_identity(surface2d(3, 4), 0.1, side)
    assert rep.sectors_checked == sectors
    assert rep.num_spins == spins
    assert rep.max_abs_dev < 1e-12


def test_identity_deviations_are_pinned():
    # exact floats recorded when each sector's representative was solved
    # for separately; the sector loops must pair the same rows and values
    code = surface2d(3, 4)
    assert verify_sector_identity(code, 0.1, "x").max_abs_dev == 2.7755575615628914e-16
    assert verify_sector_identity(code, 0.1, "z").max_abs_dev == 4.718447854656915e-16
    st = steane()
    noise = parse_noise("depolarizing").rates_at(0.1)
    joint = sector_distribution_joint(st, noise)
    assert (verify_sector_identity_coupled(st, noise, joint).max_abs_dev
            == 1.6653345369377348e-16)
    dw = domain_wall_free_energy(toric2d(3), 0.1, BitVector.from01("01"))
    assert dw.hex() == "0x1.c3b5d3b4c74e5p+1"
    with pytest.raises(ValueError, match="side"):
        verify_sector_identity(code, 0.1, "y")


def _sm_export_models():
    code, small = toric2d(2), four22()
    b01 = BitVector.from01
    return {
        "toric2d:2 x:101:01": (
            build_sm_x(code, representative_x(code, b01("101"), b01("01"))),
            Couplings.uniform(nishimori_beta(0.2)),
        ),
        "toric2d:2 z:011:10": (
            build_sm_z(code, representative_z(code, b01("011"), b01("10"))),
            None,
        ),
        "four22 coupled:1:00:1:00": (
            build_sm_coupled(
                small,
                representative_x(small, b01("1"), b01("00")),
                representative_z(small, b01("1"), b01("00")),
            ),
            Couplings.from_pauli(parse_noise("depolarizing").rates_at(0.1)),
        ),
    }


def test_sm_export_bytes_are_pinned():
    # sha256 of the JSON text written when models held Term tuples, so the
    # array-backed model must reproduce every term, site order and field
    want = {
        "toric2d:2 x:101:01":
            "a589d556d67b34c02c6c410f4f1174fddf8ba4a9547a7faa633532ab405556d3",
        "toric2d:2 z:011:10":
            "2cb6dd5ead16b46217c4e1644d836d798b61a2b3bb897cf5641aa10d8f99e4eb",
        "four22 coupled:1:00:1:00":
            "5804929cebb7b4bbf450a9c687147ad2b890e2d56ebfb7d45d81b09f883f091a",
    }
    for name, (model, couplings) in _sm_export_models().items():
        text = json.dumps(sm_to_json_dict(model, couplings), indent=1)
        assert hashlib.sha256(text.encode()).hexdigest() == want[name], name
        back, _ = sm_from_json_dict(json.loads(text))
        assert back == model


def test_sm_from_json_rejects_bad_terms():
    model, _ = _sm_export_models()["toric2d:2 x:101:01"]
    good = sm_to_json_dict(model)
    for bad_term in (
        {"sites": [0, 1], "sign": 2, "family": "x"},
        {"sites": [0, 1], "sign": 1, "family": "w"},
        {"sites": [1, 0], "sign": 1, "family": "x"},
        {"sites": [0, 0], "sign": 1, "family": "x"},
        {"sites": [0, model.num_spins], "sign": 1, "family": "x"},
        {"sites": [-1, 0], "sign": 1, "family": "x"},
    ):
        data = dict(good, terms=good["terms"][:-1] + [bad_term])
        with pytest.raises(ValueError):
            sm_from_json_dict(data)
