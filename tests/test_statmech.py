"""Disorder-model mapping: sector identities, dualities, serialization."""

import hashlib
import json
import math
import warnings
from dataclasses import replace
from functools import reduce
from operator import xor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from csstat import statmech
from csstat.cli import main as cli_main, parse_noise

from csstat.channels import (
    PauliNoise,
    depolarizing_from_independent,
    sector_distribution_joint,
    sector_distribution_x,
)
from csstat.css import (
    EmptyCodeWarning,
    TooLarge,
    from_text,
    label_functionals,
    new_css,
    representative_x,
    representative_z,
)
from csstat.gf2 import BitMatrix, BitVector
from csstat.info import relative_entropy
from csstat.statmech import (
    SPECIES_COUPLED,
    Couplings,
    build_sm_coupled,
    build_sm_x,
    build_sm_z,
    domain_wall_free_energy,
    kw_check,
    log_normalization,
    log_sector_probability,
    mask_sites,
    nishimori_beta,
    partition_exact,
    sm_from_json_dict,
    sm_to_json_dict,
    verify_sector_identity,
    verify_sector_identity_coupled,
)
from csstat.zoo import four22, from_selector, steane, surface2d, toric2d, toric3d
from oracles import exact_observables
from test_css import random_css_pairs


def trivial_x_model(code):
    return build_sm_x(code, BitVector(code.n, 0))


def _sites_by_position(mask):
    """mask_sites as first written: one step per bit position."""
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=(1 << 200) - 1)
    | st.sets(st.integers(0, 300), max_size=6).map(lambda s: sum(1 << i for i in s))
)
def test_mask_sites_matches_bit_positions(mask):
    assert mask_sites(mask) == _sites_by_position(mask)


def test_mask_sites_edges():
    for mask in (0, 1, 1 << 63, 1 << 64, (1 << 65) - 1, 1 << 64 | 1 << 3):
        assert mask_sites(mask) == _sites_by_position(mask)


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
    rep = verify_sector_identity_coupled(code, noise)
    assert rep.sectors_checked == len(joint.table)
    assert rep.max_abs_dev < 1e-12


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


@settings(max_examples=100, deadline=None)
@given(random_css_pairs())
@example((toric2d(2).Hz, toric2d(2).Hx))
def test_symmetry_basis_is_a_symmetry(pair):
    # flipping every spin in a symmetry-basis row fixes each term's product,
    # and the basis spans Dx, Dz and Dx + Dz gauge directions
    hz, hx = pair
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyCodeWarning)
        code = new_css(hz, hx)
    zero = BitVector(code.n, 0)
    for model, dim in (
        (build_sm_x(code, zero), code.Dx),
        (build_sm_z(code, zero), code.Dz),
        (build_sm_coupled(code, zero, zero), code.Dx + code.Dz),
    ):
        assert model.degeneracy_exponent == len(model.symmetry_basis) == dim
        for s in model.symmetry_basis:
            assert len(s) == model.num_spins
            for mask in model.masks:
                assert (s.bits & mask).bit_count() % 2 == 0
    # the derived coupled basis is the x basis widened, then the z basis shifted
    x, z = build_sm_x(code, zero), build_sm_z(code, zero)
    both = build_sm_coupled(code, zero, zero)
    oracle = [BitVector(both.num_spins, v.bits) for v in x.symmetry_basis]
    oracle += [BitVector(both.num_spins, w.bits << x.num_spins) for w in z.symmetry_basis]
    assert list(both.symmetry_basis) == oracle


def test_high_temperature_series():
    # four22 trivial sector holds {0000, 1111}, so its probability is
    # (1-p)^4 + p^4; and the tanh expansion of Z closes after two orders:
    # Z / (2 cosh(b)^4) = 1 + 6 t^2 + t^4 with t = tanh(b), making the
    # truncation error of the quadratic high-temperature series exactly t^4
    code = four22()
    model = trivial_x_model(code)
    for beta in (0.05, 0.1, 0.2):
        lnp = log_sector_probability(model, Couplings.uniform(beta))
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
        )
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
        partition_exact(model, Couplings.uniform(0.5))
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


def test_json_round_trip():
    code = toric2d(2)
    e = representative_x(code, BitVector(code.rank_z, 5), BitVector(code.k, 2))
    model = build_sm_x(code, e)
    couplings = Couplings.uniform(nishimori_beta(0.17))

    back, cback = sm_from_json_dict(sm_to_json_dict(model, couplings))
    assert back == model
    assert cback == couplings

    text = json.dumps(sm_to_json_dict(model, couplings), indent=1)
    loaded, cloaded = sm_from_json_dict(json.loads(text))
    assert partition_exact(loaded, cloaded) == partition_exact(model, couplings)

    # couplings are optional in the format
    bare, none = sm_from_json_dict(sm_to_json_dict(model))
    assert bare == model and none is None


@settings(max_examples=100, deadline=None)
@given(random_css_pairs(), st.integers(0, (1 << 10) - 1), st.integers(0, (1 << 10) - 1))
def test_loader_accepts_every_written_model(pair, ex, ez):
    # the loader's canonical-basis comparison takes back whatever
    # sm_to_json_dict writes, on either side and coupled
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyCodeWarning)
        code = new_css(*pair)
    mask = (1 << code.n) - 1
    ex, ez = BitVector(code.n, ex & mask), BitVector(code.n, ez & mask)
    for model in (build_sm_x(code, ex), build_sm_z(code, ez),
                  build_sm_coupled(code, ex, ez)):
        data = sm_to_json_dict(model)
        back, _ = sm_from_json_dict(data)
        assert back == model
        assert sm_to_json_dict(back) == data


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
                log_sector_probability(build_sm_x(code, e), couplings)
            )
    assert abs(total - 1.0) < 1e-12
    # and the species tag matters: the coupled normalization differs
    zero = BitVector(code.n, 0)
    single = log_normalization(build_sm_x(code, zero), couplings)
    coupled = log_normalization(build_sm_coupled(code, zero, zero), couplings)
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


class _CountingNumpy:
    """numpy with a count of np.exp calls; partition_exact makes one per chunk."""

    def __init__(self):
        self.exp_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, *args, **kwargs):
        self.exp_calls += 1
        return np.exp(*args, **kwargs)


def test_partition_exact_across_many_chunks(monkeypatch):
    # a 3-bit low block and a budget of 576 = 4 * 18 * 2^3 multiply-adds
    # give chunks of 4 high rows (32 configurations): 16 chunks for 2^9
    code = surface2d(3, 4)
    couplings = Couplings.uniform(nishimori_beta(0.1))
    whole = [partition_exact(m, couplings) for m in _sector_models(code, "x")]
    observed = [exact_observables(m, 0.7) for m in _sector_models(code, "x")]
    monkeypatch.setattr(statmech, "_LOW_BITS", 3)
    monkeypatch.setattr(statmech, "_CHUNK", 576)
    counting = _CountingNumpy()
    monkeypatch.setattr(statmech, "np", counting)
    for model, ln_z, obs in zip(_sector_models(code, "x"), whole, observed):
        assert len(model.masks) == 18 and model.num_spins == 9
        high, low = statmech._parity_blocks(model, couplings)
        assert high.shape == (64, 18) and low.shape == (18, 8)
        counting.exp_calls = 0
        chunked = partition_exact(model, couplings)
        assert counting.exp_calls == 16
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


def _coupled_signs(ex, ez):
    """Per-qubit (sx, sz, sx*sz) sign triples of a coupled model, flattened."""
    pairs = zip(statmech._signs(ex), statmech._signs(ez))
    return tuple(s for sx, sz in pairs for s in (sx, sz, sx * sz))


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
def test_partition_sums_equal_per_model_sums(selector, digest):
    # one set of parity blocks for many sign rows gives each row's ln Z bit
    # for bit; the digest was recorded when every sum built its own block
    code = from_selector(selector)
    zero = BitVector(code.n, 0)
    uniform = Couplings.uniform(nishimori_beta(0.1))
    coupled = Couplings.from_pauli(depolarizing_from_independent(0.1, 0.1))
    values = []
    for base, couplings, rows in (
        (build_sm_x(code, zero), uniform,
         [statmech._signs(e) for e in _error_rows(code.n, 8, 1)]),
        (build_sm_z(code, zero), uniform,
         [statmech._signs(e) for e in _error_rows(code.n, 8, 2)]),
        (build_sm_coupled(code, zero, zero), coupled,
         [_coupled_signs(ex, ez) for ex, ez in
          zip(_error_rows(code.n, 4, 3), _error_rows(code.n, 4, 4))]),
    ):
        blocks = statmech._parity_blocks(base, couplings)
        got = [partition_exact(replace(base, signs=r), couplings, blocks) for r in rows]
        assert got == [partition_exact(replace(base, signs=r), couplings) for r in rows]
        values += got
        # float64 rows, as sector_ln_z builds them, give the same sums
        assert [partition_exact(replace(base, signs=r), couplings, blocks)
                for r in np.array(rows, float)] == got
    assert hashlib.sha256(json.dumps(values).encode()).hexdigest() == digest


def test_sector_ln_z_reads_one_sign_block_at_a_time(monkeypatch):
    # the first ln Z builds the parity blocks and only the first block of
    # sign rows; each later block is built when its first sector is asked for
    monkeypatch.setattr(statmech, "_ROW_BLOCK", 4)
    sign_blocks, parity_blocks, built = statmech._sector_signs, statmech._parity_blocks, []

    def counted_signs(*args):
        for block in sign_blocks(*args):
            built.append("signs")
            yield block

    def counted_parity(*args):
        built.append("parity")
        return parity_blocks(*args)

    monkeypatch.setattr(statmech, "_sector_signs", counted_signs)
    monkeypatch.setattr(statmech, "_parity_blocks", counted_parity)
    code, zero = steane(), BitVector(7, 0)
    uniform = Couplings.uniform(nishimori_beta(0.1))
    for side, base, couplings in (
        ("x", build_sm_x(code, zero), uniform),
        ("z", build_sm_z(code, zero), uniform),
        ("coupled", build_sm_coupled(code, zero, zero),
         Couplings.from_pauli(depolarizing_from_independent(0.1, 0.1))),
    ):
        first = partition_exact(base, couplings)  # sector 0: every sign +1
        built.clear()
        sector_base, ln_z = statmech.sector_ln_z(code, side, couplings)
        assert sector_base == base and built == []
        assert next(ln_z) == first
        assert built == ["parity", "signs"]
        sectors = 1 + sum(1 for _ in ln_z)
        assert built == ["parity"] + ["signs"] * (sectors // 4)


def _representative(code, side, label):
    """representative_x/z of the sector labelled syndrome << k | logical."""
    representative = representative_x if side == "x" else representative_z
    syn_bits = code.rank_z if side == "x" else code.rank_x
    low = label & ((1 << code.k) - 1)
    syndrome = BitVector(syn_bits, label >> code.k)
    return representative(code, syndrome, BitVector(code.k, low))


@settings(max_examples=100, deadline=None)
@given(random_css_pairs())
def test_sector_signs_equal_representative_signs(pair):
    hz, hx = pair
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyCodeWarning)
        code = new_css(hz, hx)
    assume(code.n + code.k <= 14)  # the coupled side lists 2**(n + k) rows
    m_x = code.rank_z + code.k
    reps_x = [_representative(code, "x", u) for u in range(1 << m_x)]
    reps_z = [_representative(code, "z", u) for u in range(1 << code.rank_x + code.k)]
    x_rows = [statmech._signs(e) for e in reps_x]
    z_rows = [statmech._signs(e) for e in reps_z]
    # coupled rows run over the joint label z_label << m_x | x_label
    coupled_rows = [_coupled_signs(ex, ez) for ez in reps_z for ex in reps_x]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statmech, "_ROW_BLOCK", 4)
        for side, want in (("x", x_rows), ("z", z_rows), ("coupled", coupled_rows)):
            masks, m = statmech._sector_masks(code, side)
            blocks = list(statmech._sector_signs(masks, m))
            assert all(1 <= len(b) <= 4 for b in blocks)
            rows = [tuple(row.tolist()) for b in blocks for row in b]
            assert len(rows) == 1 << m == len(want)
            assert rows == want


def _wide_rows(n, count):
    """count pseudo-random n-bit patterns that reach every bit up to 256."""
    return [
        int.from_bytes(hashlib.sha256(f"{n}:{i}".encode()).digest(), "little")
        & ((1 << n) - 1)
        for i in range(count)
    ]


def _xor_at(gens, label):
    """XOR of gens at the set bits of label."""
    return reduce(xor, (g for j, g in enumerate(gens) if label >> j & 1), 0)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 81])
def test_sign_blocks_equal_per_row_signs(n, monkeypatch):
    # n terms of any width: only the label width m must fit uint64
    monkeypatch.setattr(statmech, "_ROW_BLOCK", 3)
    gens = [(1 << n) - 1] + _wide_rows(n, 3)
    cols = BitMatrix(n, tuple(gens)).transpose().row_bits
    blocks = list(statmech._sector_signs(np.array(cols, dtype=np.uint64), 4))
    assert [b.shape for b in blocks] == [(3, n)] * 5 + [(1, n)]
    rows = [tuple(row.tolist()) for b in blocks for row in b]
    assert rows == [statmech._signs(BitVector(n, _xor_at(gens, u))) for u in range(16)]
    # coupled masks: the first two generators on the x side, the rest on z
    gx, gz = (BitMatrix(n, tuple(g)).transpose().row_bits for g in (gens[:2], gens[2:]))
    masks = np.array(statmech._coupled_masks(gx, gz, 2), dtype=np.uint64)
    rows = [tuple(row.tolist()) for b in statmech._sector_signs(masks, 4) for row in b]
    assert rows == [
        _coupled_signs(BitVector(n, _xor_at(gens[:2], u & 3)),
                                BitVector(n, _xor_at(gens[2:], u >> 2)))
        for u in range(16)
    ]


def test_sector_signs_of_wide_codes(monkeypatch):
    # toric3d:3 has 81 qubits: only the label width m must fit uint64
    monkeypatch.setattr(statmech, "_ROW_BLOCK", 16)
    code = toric3d(3)
    for side, width in (("x", 55), ("z", code.n - code.rank_z)):
        masks, m = statmech._sector_masks(code, side)
        assert m == width
        block = next(statmech._sector_signs(masks, m))
        assert block.shape == (16, code.n)
        assert [tuple(row.tolist()) for row in block] == [
            statmech._signs(_representative(code, side, u)) for u in range(16)
        ]


def test_sector_loops_refuse_labels_past_64_bits(monkeypatch):
    # one spin, but 2**69 X sectors: refused before any row or parity block
    code = new_css(BitMatrix(70, ()), BitMatrix(70, (0b11,)))
    assert (code.rank_x, code.k) == (1, 69)

    def unreachable(*args):
        raise AssertionError("a parity matrix was built")

    monkeypatch.setattr(statmech, "_parity", unreachable)
    with pytest.raises(TooLarge, match="m = 69"):
        domain_wall_free_energy(code, 0.1, BitVector(code.k, 1))


def test_sector_loops_refuse_past_the_configuration_bound(monkeypatch):
    # surface2d:5x5: 2^21 X sectors x 2^20 configurations each, refused
    # before any parity block or sign row is built
    def unreachable(*args):
        raise AssertionError("a parity matrix was built")

    monkeypatch.setattr(statmech, "_parity", unreachable)
    with pytest.raises(TooLarge) as exc:
        domain_wall_free_energy(surface2d(5, 5), 0.1, BitVector(1, 1))
    assert str(exc.value) == (
        "sector loop sums 2**21 sectors x 2**20 configurations "
        "(m = 21 label bits, 20 spins) = 2**41, past its 2**36 bound"
    )
    with pytest.raises(TooLarge, match="2\\*\\*39, past its 2\\*\\*36 bound"):
        verify_sector_identity(surface2d(4, 6), 0.1, "x")
    # the runs the bound must keep: verify toric3d:2 (2^34 on its Z side),
    # the toric2d:4 domain wall (2^33) and verify xcube:2 (2^28)
    for selector, side, bits in (("toric3d:2", "z", 34), ("toric2d:4", "x", 33),
                                 ("xcube:2", "x", 28)):
        code = from_selector(selector)
        spins = (code.Hx if side == "x" else code.Hz).rows
        assert spins + len(label_functionals(code, side)[0]) == bits
        statmech.check_sector_loop(code, side)


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
    assert (verify_sector_identity_coupled(st, noise).max_abs_dev
            == 1.6653345369377348e-16)
    dw = domain_wall_free_energy(toric2d(3), 0.1, BitVector.from01("01"))
    assert dw.hex() == "0x1.c3b5d3b4c74e5p+1"
    with pytest.raises(ValueError, match="side"):
        verify_sector_identity(code, 0.1, "y")
    # a bad side is refused before the size guard, which the coupled model
    # of surface2d:4x6 (2**38 configurations) would fail
    with pytest.raises(ValueError, match="side"):
        verify_sector_identity(surface2d(4, 6), 0.1, "coupled")


def _sector_ln_z(selector, side):
    """ln Z of every sector of one side (or the depolarizing coupled model),
    in sector order, through the loop the identity checks use."""
    if side == "coupled":
        couplings = Couplings.from_pauli(parse_noise("depolarizing").rates_at(0.1))
    else:
        couplings = Couplings.uniform(nishimori_beta(0.1))
    return list(statmech.sector_ln_z(from_selector(selector), side, couplings)[1])


@pytest.mark.parametrize(
    "selector, side, low_bits, digest",
    [
        ("surface2d:3x4", "x", None,
         "4737dc967bfbebaef8fd0aacd05dc30e8f2b165216a276f509477d6028c8081d"),
        ("surface2d:3x4", "z", None,
         "84fd3872f56b37549ef0201ffa5ac69c188f5629251c5b40208af0dd512db221"),
        ("toric2d:3", "z", None,
         "ec501c57d4993bee6cd4e4c53f97e8ab2bd46aa321bf11c02a3ac947bb730793"),
        ("steane", "coupled", None,
         "f5b678dff84fb3a7a19d39ee5f9f18947179a6b71c931e0c6e2dfc6ee5743cb7"),
        ("toric2d:3", "x", 3,
         "b0c2b5f407acbf407635907d6a72cf29b8d11f15f3ab1dfb180eacfbe76b3cfd"),
    ],
)
def test_sector_ln_z_is_pinned(selector, side, low_bits, digest, monkeypatch):
    # sha256 of float.hex of every sector's ln Z, recorded when each sum
    # multiplied its couplings into the weights per call; a 3-bit low block
    # and a budget of 576 multiply-adds spread each sum over 16 chunks of 4
    # high rows
    if low_bits is not None:
        monkeypatch.setattr(statmech, "_LOW_BITS", low_bits)
        monkeypatch.setattr(statmech, "_CHUNK", 576)
    text = " ".join(v.hex() for v in _sector_ln_z(selector, side))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


def test_sm_export_bytes_are_pinned(tmp_path):
    # sha256 of the JSON text written when models held Term tuples, so the
    # array-backed model must reproduce every term, site order and field;
    # the sm-export command writes the same payload plus its provenance
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
    exports = {
        "toric2d:2 x:101:01": ["--p", "0.2"],
        "toric2d:2 z:011:10": [],
        "four22 coupled:1:00:1:00": ["--p", "0.1"],
    }
    path = tmp_path / "model.json"
    for name, flags in exports.items():
        selector, sector = name.split()
        assert cli_main(["sm-export", selector, sector, str(path), *flags]) == 0
        payload = json.loads(path.read_text())
        assert payload.pop("provenance")[1] == "command: sm-export"
        text = json.dumps(payload, indent=1)
        assert hashlib.sha256(text.encode()).hexdigest() == want[name], name


def test_sm_from_json_rejects_bad_terms(monkeypatch):
    models = _sm_export_models()
    model, _ = models["toric2d:2 x:101:01"]
    good = sm_to_json_dict(model)
    bad_inputs = [
        dict(good, terms=good["terms"][:-1] + [bad_term]) for bad_term in (
            {"sites": [0, 1], "sign": 2, "family": "x"},
            {"sites": [0, 1], "sign": 1, "family": "w"},
            {"sites": [1, 0], "sign": 1, "family": "x"},
            {"sites": [0, 0], "sign": 1, "family": "x"},
            {"sites": [0, model.num_spins], "sign": 1, "family": "x"},
            {"sites": [-1, 0], "sign": 1, "family": "x"},
        )
    ]
    # a model that contradicts itself: its stored degeneracy against its
    # one-vector basis, a basis vector of the wrong length or one that
    # flips some term, an unknown species, and a first register that is
    # not all of a single-register model or does not fit a coupled one
    assert good["symmetry_basis"] == ["1111"]
    coupled = sm_to_json_dict(models["four22 coupled:1:00:1:00"][0])
    bad_inputs += [
        dict(good, degeneracy_exponent=7),
        dict(good, degeneracy_exponent=3),
        dict(good, symmetry_basis=["11110"]),
        dict(good, symmetry_basis=["1000"]),
        dict(good, species="q"),
        dict(good, sigma_spins=99),
        dict(good, sigma_spins=model.num_spins - 1),
        dict(coupled, sigma_spins=coupled["num_spins"] + 1),
        dict(coupled, sigma_spins=-1),
    ]
    # a stored basis the masks do not derive: empty, repeated, or spanning
    # the right space but not the canonical basis
    toric = sm_to_json_dict(build_sm_coupled(toric2d(2), *[BitVector(8, 0)] * 2))
    assert toric["symmetry_basis"] == ["11110000", "00001111"]
    bad_inputs += [
        dict(good, symmetry_basis=[], degeneracy_exponent=0),
        dict(good, symmetry_basis=["1111", "1111"], degeneracy_exponent=2),
        dict(toric, symmetry_basis=["11111111", "00001111"]),
    ]
    for data in bad_inputs:
        with pytest.raises(ValueError):
            sm_from_json_dict(data)
    # the unedited dicts load
    for data in (good, coupled, toric):
        assert sm_to_json_dict(sm_from_json_dict(data)[0]) == data
    # a 10^8-spin model with no terms and no basis: refused by its length
    # alone, before a kernel basis of 10^8 vectors is built

    def unreachable(*args):
        raise AssertionError("a kernel basis was built")

    monkeypatch.setattr(statmech, "kernel_basis", unreachable)
    huge = dict(good, num_spins=10**8, sigma_spins=10**8, terms=[],
                symmetry_basis=[], degeneracy_exponent=0)
    with pytest.raises(ValueError, match="symmetry_basis"):
        sm_from_json_dict(huge)


def test_sm_from_json_rejects_missing_or_mistyped_fields():
    # a missing field, an int where a basis string belongs and a string
    # where num_spins' int belongs raise ValueError, not KeyError/TypeError
    good = sm_to_json_dict(_sm_export_models()["toric2d:2 x:101:01"][0])
    assert sm_to_json_dict(sm_from_json_dict(good)[0]) == good
    no_basis = {key: value for key, value in good.items() if key != "symmetry_basis"}
    bad_inputs = [
        (no_basis, "symmetry_basis must be a list"),
        (dict(good, symmetry_basis=[1111]), "symmetry_basis vector must be a string"),
        (dict(good, num_spins="4"), "num_spins must be an integer"),
        (dict(good, num_spins=True), "num_spins must be an integer"),
        (dict(good, num_spins=-1), "num_spins must be >= 0"),
        (dict(good, terms=[5]), "term must be an object"),
        (dict(good, terms=[{"sites": [0, 1], "sign": 1}]), "family must be a string"),
        (dict(good, terms=[{"sites": [0, 1.0], "sign": 1, "family": "x"}]),
         "term site must be an integer"),
        (dict(good, couplings={"cx": 0.1, "cz": "0.1", "cy": 0.0}),
         "cz must be a number"),
        ([good], "sm-model must be an object"),
    ]
    for data, message in bad_inputs:
        with pytest.raises(ValueError, match=message):
            sm_from_json_dict(data)


@pytest.mark.parametrize(
    "literal", ["NaN", "Infinity", "-Infinity", "-1" + "0" * 400],
    ids=["NaN", "Infinity", "-Infinity", "-10^400"],
)
@pytest.mark.parametrize("field", ["cx", "cz", "cy"])
def test_sm_from_json_rejects_non_finite_couplings(field, literal):
    # json reads NaN, +-Infinity and integers no float holds; such a coupling
    # makes a partition sum NaN or raise OverflowError, so the loader names
    # the field instead
    data = sm_to_json_dict(*_sm_export_models()["toric2d:2 x:101:01"])
    data["couplings"][field] = "placeholder"
    text = json.dumps(data).replace('"placeholder"', literal)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        sm_from_json_dict(json.loads(text))


def test_sm_from_json_rejects_foreign_families():
    # a term whose family is not the model's own would take another coupling
    # in the partition sum than the normalization assumes
    models = _sm_export_models()
    single = sm_to_json_dict(models["toric2d:2 x:101:01"][0])
    coupled = sm_to_json_dict(models["four22 coupled:1:00:1:00"][0])

    def relabel(data, t, family):
        terms = [dict(term) for term in data["terms"]]
        terms[t]["family"] = family
        return dict(data, terms=terms)

    bad_inputs = [relabel(single, 0, "y"), relabel(single, 3, "z"),
                  relabel(sm_to_json_dict(models["toric2d:2 z:011:10"][0]), 0, "x"),
                  relabel(coupled, 0, "z"), relabel(coupled, 2, "x"),
                  dict(coupled, terms=coupled["terms"][:-1])]
    for data in bad_inputs:
        with pytest.raises(ValueError, match="famil"):
            sm_from_json_dict(data)
