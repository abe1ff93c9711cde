"""CSS code construction: invariants, sector labels, serialization."""

import hashlib
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csstat import css, gf2, statmech
from csstat.css import (
    CodeFormatError,
    CommutationViolation,
    EmptyCodeWarning,
    code_hash,
    distance,
    dot,
    from_text,
    matvec,
    label_functionals,
    label_generators,
    new_css,
    representative_x,
    representative_z,
    to_text,
    with_logical_basis,
)
from csstat.gf2 import BitMatrix, BitVector, kernel_basis, rank, row_reduce
from csstat.zoo import (
    four22,
    from_selector,
    steane,
    surface2d,
    toric2d,
)


def all_errors(n):
    return (BitVector(n, bits) for bits in range(1 << n))


def test_construction_invariants():
    for code in (four22(), steane(), toric2d(2), surface2d(2, 3)):
        assert code.k == code.n - code.rank_x - code.rank_z
        assert code.Dx == code.Hx.rows - code.rank_x
        assert code.Dz == code.Hz.rows - code.rank_z
        # logicals live in the right kernels and pair symplectically
        for i in range(code.k):
            assert matvec(code.Hz, code.logical_x.row(i)).is_zero()
            assert matvec(code.Hx, code.logical_z.row(i)).is_zero()
            for j in range(code.k):
                want = 1 if i == j else 0
                assert dot(code.logical_x.row(i), code.logical_z.row(j)) == want
        # reduced checks span the same row spaces, independently
        assert rank(code.Hz_red) == code.Hz_red.rows == code.rank_z
        assert rank(code.Hx_red) == code.Hx_red.rows == code.rank_x
        assert rank(code.Hz.vstack(code.Hz_red)) == code.rank_z


# sha256 of logical_x.to01_lines() + logical_z.to01_lines(), one per line.
# Every printed number depends on this canonical basis, so it is pinned.
LOGICAL_BASIS_DIGESTS = [
    ("toric2d:2", 2, "fab7189c96d4f0c24dfc8239471c1913a4359c59c423ed83b9affc565650ea68"),
    ("toric2d:3", 2, "1928e6678a70b2a0ed7aa3843fbb9128113c5e7e7714da723d361601232bdd2d"),
    ("toric2d:4", 2, "bc1c38d0657336b29c98390ed7f91042ec5b3f023cd75018549d1544447575cd"),
    ("toric2d:5", 2, "8afff3e9e06c1074b266ff61d3b3bcffa76f4a6e2830c3721edd36d23d968c3e"),
    ("toric2d:8", 2, "d2424f1536c33c34149a4e520d36991db675af0c61ebe3673674768e3be80783"),
    ("surface2d:3x4", 1, "e632c88ea9a87957f934ab713b02e3065f418929c0625abd5a7c5aa715a06861"),
    ("surface2d:5x5", 1, "95e2577c7f7c8615f3c2b2033c87a739127326ed91b7e299d5ddb00f5a5b5746"),
    ("color666:3x3", 4, "1a6412dfafe4be7751a1331982df86a5fd69035f2be64b1eb088bd14c7e84108"),
    ("toric3d:2", 3, "2ff5111cb9d61ce35c6f74cea763b4328c21ff46ed61c11d25b64fd12e00da51"),
    ("toric3d:3", 3, "f01f6b46957020db8fa8ff40457a883d590a8d794370d42aa81effe3c8a9ef83"),
    ("xcube:2", 9, "c42bf5cf7fe1f69cd4e3069b2557d1d0521e1a543bb5a2206bf9bf882d903da3"),
    ("xcube:3", 15, "be4f3bc0f34a35093b1adb25d03c62fff4101044343395a2f98018304e398a3c"),
    ("steane", 1, "36c0eb69f3b7b8f7436ecb978d82b9030a58dcec248674104d4678de1bfe6583"),
    ("four22", 2, "957c9aec4b4b50683d79d6703eed77b9335df36746931c83da02556de1620655"),
]


@pytest.mark.parametrize("selector,k,digest", LOGICAL_BASIS_DIGESTS)
def test_logical_basis_is_pinned(selector, k, digest):
    code = from_selector(selector)
    assert code.k == k
    lines = code.logical_x.to01_lines() + code.logical_z.to01_lines()
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


@pytest.mark.parametrize("selector", [row[0] for row in LOGICAL_BASIS_DIGESTS])
def test_from_selector_reduces_each_check_matrix_once(monkeypatch, selector):
    # new_css hands its two row reductions to the kernel bases, so building
    # a code reduces Hz and then Hx, and nothing else
    reduced = []

    def recording(m):
        reduced.append(m)
        return row_reduce(m)

    monkeypatch.setattr(gf2, "row_reduce", recording)
    monkeypatch.setattr(css, "row_reduce", recording)
    code = from_selector(selector)
    assert reduced == [code.Hz, code.Hx]


@st.composite
def random_css_pairs(draw):
    """(Hz, Hx) with Hx random and Hz a nonempty subset of ker(Hx)'s basis,
    so every Z row commutes with every X row."""
    n = draw(st.integers(1, 10))
    hx = BitMatrix(n, tuple(draw(st.lists(st.integers(0, (1 << n) - 1),
                                          min_size=1, max_size=6))))
    ker = kernel_basis(hx)
    assume(ker.rows > 0)
    picks = draw(st.sets(st.integers(0, ker.rows - 1), min_size=1))
    return BitMatrix(n, tuple(ker.row_bits[i] for i in sorted(picks))), hx


@settings(max_examples=200)
@given(random_css_pairs())
def test_logical_pairing_on_random_codes(pair):
    hz, hx = pair
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyCodeWarning)
        code = new_css(hz, hx)
    assert code.logical_x.rows == code.logical_z.rows == code.k
    # re-validates the kernels, the δ_ij pairing and that no logical lies in
    # the stabilizer row space
    with_logical_basis(code, code.logical_x, code.logical_z)


def test_anticommuting_checks_rejected():
    with pytest.raises(CommutationViolation):
        new_css(BitMatrix.from01(["1111"]), BitMatrix.from01(["1000"]))


@settings(max_examples=200)
@given(st.integers(1, 70).flatmap(lambda n: st.tuples(
    *[st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6)
      .map(lambda rows, n=n: BitMatrix(n, tuple(rows))) for _ in range(2)])))
def test_commutation_violation_names_the_first_pair(pair):
    # the first odd (X row, Z row) pair in row-major order, as a scan of
    # every pair finds it
    hz, hx = pair
    first = next(((i, j) for i, x in enumerate(hx.row_bits)
                  for j, z in enumerate(hz.row_bits) if (x & z).bit_count() & 1),
                 None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyCodeWarning)
        if first is None:
            new_css(hz, hx)
            return
        with pytest.raises(CommutationViolation) as info:
            new_css(hz, hx)
    assert (info.value.row_x, info.value.row_z) == first


def test_k_zero_warns():
    # repetition-code checks on both sides: n=2, rank_x=rank_z=1, k=0
    with pytest.warns(EmptyCodeWarning):
        code = new_css(BitMatrix.from01(["11"]), BitMatrix.from01(["11"]))
    assert code.k == 0
    assert code.logical_x.rows == 0


def test_sector_label_is_homomorphism():
    code = four22()
    for e1 in all_errors(code.n):
        for e2 in all_errors(code.n):
            e = e1 ^ e2
            assert code.syndrome_z(e) == code.syndrome_z(e1) ^ code.syndrome_z(e2)
            assert matvec(code.logical_z, e) == (
                matvec(code.logical_z, e1) ^ matvec(code.logical_z, e2)
            )


def test_stabilizer_shift_fixes_sector():
    code = steane()
    e = BitVector.from01("1100100")
    for r in range(code.Hx.rows):
        shifted = e ^ code.Hx.row(r)
        assert code.syndrome_z(shifted) == code.syndrome_z(e)
        assert matvec(code.logical_z, shifted) == matvec(code.logical_z, e)


def test_sector_counting_exhaustive():
    # every (b, kz) class contains exactly 2^rank_x strings,
    # and exactly 2^(rank_z + k) classes appear
    for code in (four22(), toric2d(2)):
        seen = {}
        for e in all_errors(code.n):
            key = (code.syndrome_z(e).bits, matvec(code.logical_z, e).bits)
            seen[key] = seen.get(key, 0) + 1
        assert len(seen) == 1 << (code.rank_z + code.k)
        assert set(seen.values()) == {1 << code.rank_x}


def test_representatives_hit_their_sector():
    for code in (toric2d(2), surface2d(3, 4)):
        for b_bits in range(1 << code.rank_z):
            for kz_bits in range(1 << code.k):
                b = BitVector(code.rank_z, b_bits)
                kz = BitVector(code.k, kz_bits)
                e = representative_x(code, b, kz)
                assert code.syndrome_z(e) == b
                assert matvec(code.logical_z, e) == kz
        # and the mirror side
        for a_bits in range(1 << code.rank_x):
            for kx_bits in range(1 << code.k):
                a = BitVector(code.rank_x, a_bits)
                kx = BitVector(code.k, kx_bits)
                ez = representative_z(code, a, kx)
                assert code.syndrome_x(ez) == a
                assert matvec(code.logical_x, ez) == kx


# sha256 of each side's representatives as hex ints in packed-label order
# (index syndrome << k | logical), recorded when every representative was a
# pivot lift plus a logical fix-up. The representatives set every sector
# model's disorder, so every statmech number depends on them.
REPRESENTATIVE_DIGESTS = [
    ("four22", "x", "28ef92254f8cc2dcd0056feea8556b216658c574a53eadabba6a29e9e08a85e2"),
    ("four22", "z", "67397c22e8fc72c43b6e5ee44ca975d8890e1d51361bf89854f36f10e377c05b"),
    ("steane", "x", "ad976c370bcbf24bb1c4664a65d41db3c2a9aed11994450dc7e35f76c18f9f41"),
    ("steane", "z", "ad976c370bcbf24bb1c4664a65d41db3c2a9aed11994450dc7e35f76c18f9f41"),
    ("toric2d:2", "x", "c8e60d2c0173cdf4e52c1b5afca77d3c8496a4490aefcb8f8c95f6a9c0dff51e"),
    ("toric2d:2", "z", "370f3cce611266b7dc314f4524c66917e77fb05c1f14da0d7eab0e68852845cf"),
    ("toric2d:3", "x", "f38ad13e410f37f6e06962d319f71c5c2914773f04cf2bd41b5b6d411ad53f33"),
    ("toric2d:3", "z", "94b4ab4d19d0a7acf97bef2799688f1761eab73a91f5d49f19a11baf242e62ef"),
    ("surface2d:3x4", "x", "d247005d6ab53dff21cc24a417ff8fc45380b5af39812b1c72ca8403da3eff3d"),
    ("surface2d:3x4", "z", "1229d65ba0147ba42a3ffd1887f0f625d1ecf777090ffa4000e03177f050ac75"),
    ("color666:3x3", "x", "0a239f83fad6942af7d1ca4af37fae164e5fb26c43b07bdf776a14d7e1d9fca5"),
    ("color666:3x3", "z", "a044ef779c774b3114f65f12f985624f07bcf3ba29538ba9298f245071d6db84"),
]


def _hex_digest(ints):
    return hashlib.sha256(" ".join(format(e, "x") for e in ints).encode()).hexdigest()


@pytest.mark.parametrize("selector,side,digest", REPRESENTATIVE_DIGESTS)
def test_representatives_are_pinned(selector, side, digest):
    code = from_selector(selector)
    syn_bits = code.rank_z if side == "x" else code.rank_x
    representative = representative_x if side == "x" else representative_z
    reps = [
        representative(code, BitVector(syn_bits, label >> code.k),
                       BitVector(code.k, label & ((1 << code.k) - 1))).bits
        for label in range(1 << (syn_bits + code.k))
    ]
    assert _hex_digest(reps) == digest
    # the sector loops' sign rows are the pinned representatives' bits
    masks, m = statmech._sector_masks(code, side)
    rows = np.concatenate(list(statmech._sector_signs(masks, m)))
    bits = np.array([[e >> l & 1 for l in range(code.n)] for e in reps])
    assert np.array_equal(rows, 1 - 2 * bits)


@settings(max_examples=200)
@given(random_css_pairs())
def test_label_generators_are_the_dual_basis(pair):
    hz, hx = pair
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyCodeWarning)
        code = new_css(hz, hx)
    for side in ("x", "z"):
        rows, widths = label_functionals(code, side)
        gens = label_generators(code, side)
        assert len(rows) == len(gens) == sum(widths.values())
        for i, row in enumerate(rows):
            for j, gen in enumerate(gens):
                assert (row & gen).bit_count() & 1 == (i == j)


def test_label_side_must_be_x_or_z():
    code = steane()
    for fn in (label_functionals, label_generators):
        with pytest.raises(ValueError, match="side"):
            fn(code, "y")


def test_distance_goldens():
    assert distance(four22()) == (2, 2)
    assert distance(steane()) == (3, 3)
    assert distance(toric2d(2)) == (2, 2)
    assert distance(surface2d(3, 3)) == (3, 3)
    assert distance(toric2d(3)) == (3, 3)
    assert distance(surface2d(5, 5)) == (5, 5)  # n = 41, near the kernel guard


def _min_odd_weight(n, checks, logicals):
    """Lightest n-bit string with zero syndrome against checks and odd
    overlap with some logical row, by walking all 2^n strings."""
    return min(
        e.bit_count() for e in range(1 << n)
        if not any((e & h).bit_count() & 1 for h in checks)
        and any((e & l).bit_count() & 1 for l in logicals)
    )


@settings(max_examples=200, deadline=None)
@given(random_css_pairs())
def test_distance_matches_exhaustive_oracle(pair):
    # dz is the lightest Z string that commutes with every X check and
    # anticommutes with some X logical; dx mirrors it
    hz, hx = pair
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyCodeWarning)
        code = new_css(hz, hx)
    assume(code.k > 0)
    dz = _min_odd_weight(code.n, hx.row_bits, code.logical_x.row_bits)
    dx = _min_odd_weight(code.n, hz.row_bits, code.logical_z.row_bits)
    assert distance(code) == (dx, dz)


def test_text_round_trip():
    for code in (four22(), steane(), toric2d(3)):
        text = to_text(code)
        back = from_text(text)
        assert to_text(back) == text
        assert code_hash(back) == code_hash(code)


def test_hash_distinguishes_codes():
    hashes = {code_hash(c) for c in (four22(), steane(), toric2d(2), toric2d(3))}
    assert len(hashes) == 4


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("css-code v2\nn 4\nHz 1\n1111\nHx 1\n1111\n", 1),
        ("css-code v1\nn four\nHz 1\n1111\nHx 1\n1111\n", 2),
        ("css-code v1\nn 4\nHz one\n1111\nHx 1\n1111\n", 3),
        ("css-code v1\nn 4\nHz 1\n121\nHx 1\n1111\n", 4),
        ("css-code v1\nn 4\nHz 1\n111\nHx 1\n1111\n", 4),
        ("css-code v1\nn 4\nHz 1\n1111\nHx 1\n1111\nextra\n", 7),
    ],
)
def test_malformed_files_carry_line_numbers(text, line_no):
    with pytest.raises(CodeFormatError) as exc:
        from_text(text)
    assert exc.value.line_no == line_no


def test_with_logical_basis_accepts_row_mixing():
    code = toric2d(2)
    # add pair 1 into pair 0 on the X side; fix the pairing by the mirrored
    # move on the Z side (inverse-transpose of the mixing matrix)
    lx = BitMatrix.from_rows(
        [code.logical_x.row(0) ^ code.logical_x.row(1), code.logical_x.row(1)]
    )
    lz = BitMatrix.from_rows(
        [code.logical_z.row(0), code.logical_z.row(1) ^ code.logical_z.row(0)]
    )
    remixed = with_logical_basis(code, lx, lz)
    assert remixed.k == code.k
    assert code_hash(remixed) == code_hash(code)  # checks unchanged


def test_with_logical_basis_rejects_broken_pairing():
    code = toric2d(2)
    lx = BitMatrix.from_rows([code.logical_x.row(1), code.logical_x.row(0)])
    with pytest.raises(ValueError):
        with_logical_basis(code, lx, code.logical_z)


def test_with_logical_basis_rejects_stabilizer_row():
    code = steane()
    lx = BitMatrix.from_rows([code.logical_x.row(0) ^ code.Hx.row(0)])
    # still a valid logical (stabilizer shift preserves everything)
    shifted = with_logical_basis(code, lx, code.logical_z)
    assert shifted.k == 1
    # but a *pure* stabilizer row is not
    with pytest.raises(ValueError):
        with_logical_basis(
            code, BitMatrix.from_rows([code.Hx.row(0)]), code.logical_z
        )
