"""CSS code construction: invariants, sector labels, serialization."""

import itertools
import warnings

import pytest

from csstat.css import (
    CodeFormatError,
    CommutationViolation,
    EmptyCodeWarning,
    code_hash,
    distance,
    dot,
    from_text,
    matvec,
    new_css,
    pivot_columns,
    representative_x,
    representative_z,
    to_text,
    with_logical_basis,
)
from csstat.gf2 import BitMatrix, BitVector, rank, row_reduce
from csstat.zoo import color666, four22, steane, surface2d, toric2d, toric3d, xcube


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


def test_anticommuting_checks_rejected():
    with pytest.raises(CommutationViolation):
        new_css(BitMatrix.from01(["1111"]), BitMatrix.from01(["1000"]))


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
            assert code.logical_parities_z(e) == (
                code.logical_parities_z(e1) ^ code.logical_parities_z(e2)
            )


def test_stabilizer_shift_fixes_sector():
    code = steane()
    e = BitVector.from01("1100100")
    for r in range(code.Hx.rows):
        shifted = e ^ code.Hx.row(r)
        assert code.syndrome_z(shifted) == code.syndrome_z(e)
        assert code.logical_parities_z(shifted) == code.logical_parities_z(e)


def test_sector_counting_exhaustive():
    # every (b, kz) class contains exactly 2^rank_x strings,
    # and exactly 2^(rank_z + k) classes appear
    for code in (four22(), toric2d(2)):
        seen = {}
        for e in all_errors(code.n):
            key = (code.syndrome_z(e).bits, code.logical_parities_z(e).bits)
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
                assert code.logical_parities_z(e) == kz
        # and the mirror side
        for a_bits in range(1 << code.rank_x):
            for kx_bits in range(1 << code.k):
                a = BitVector(code.rank_x, a_bits)
                kx = BitVector(code.k, kx_bits)
                ez = representative_z(code, a, kx)
                assert code.syndrome_x(ez) == a
                assert code.logical_parities_x(ez) == kx


def test_pivots_read_from_reduced_checks():
    # representatives lift syndromes through the pivots of Hz_red / Hx_red;
    # they must be the pivots row_reduce reports, so outputs stay unchanged
    for code in (four22(), steane(), toric2d(2), toric2d(3), surface2d(3, 4),
                 color666(3, 3), toric3d(2), xcube(2)):
        assert pivot_columns(code.Hz_red) == row_reduce(code.Hz)[1]
        assert pivot_columns(code.Hx_red) == row_reduce(code.Hx)[1]


def test_distance_goldens():
    assert distance(four22()) == (2, 2)
    assert distance(steane()) == (3, 3)
    assert distance(toric2d(2)) == (2, 2)
    assert distance(surface2d(3, 3)) == (3, 3)
    assert distance(toric2d(3)) == (3, 3)
    assert distance(surface2d(5, 5)) == (5, 5)  # n = 41, near the kernel guard


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
