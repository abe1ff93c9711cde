"""Packed GF(2) linear algebra, cross-checked against dense numpy mod-2."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csstat.gf2 import (
    BitMatrix,
    BitVector,
    dot,
    kernel_basis,
    matvec,
    rank,
    row_reduce,
    row_space_basis,
)
from oracles import transpose_by_bits


def to_dense(m: BitMatrix) -> np.ndarray:
    return np.array([[m[r, c] for c in range(m.cols)] for r in range(m.rows)],
                    dtype=np.uint8)


def from_dense(arr: np.ndarray) -> BitMatrix:
    lines = ["".join(str(int(x)) for x in row) for row in arr]
    return BitMatrix.from01(lines, cols=arr.shape[1])


matrices = st.integers(1, 9).flatmap(
    lambda c: st.lists(st.integers(0, (1 << c) - 1), min_size=1, max_size=9).map(
        lambda rows: BitMatrix(c, tuple(rows))
    )
)


# --- BitVector basics -------------------------------------------------------


def test_bitvector_round_trips():
    v = BitVector.from01("10110")
    assert v.n == 5
    assert v.to01() == "10110"
    assert list(v) == [1, 0, 1, 1, 0]
    assert v.weight() == 3
    assert BitVector.from_bits([1, 0, 1, 1, 0]) == v
    assert BitVector.unit(5, 2) == BitVector.from01("00100")


def test_to01_equals_per_bit_join():
    # one format call, reversed, gives bit 0 first like the per-bit join
    rng = random.Random(11)
    for n in range(131):
        for bits in (0, (1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n)):
            want = "".join(str((bits >> i) & 1) for i in range(n))
            assert BitVector(n, bits).to01() == want, (n, bits)
    assert BitVector(0).to01() == ""


def test_bitvector_low_bit_first():
    # from01("10") means bit 0 set, bit 1 clear
    v = BitVector.from01("10")
    assert v[0] == 1 and v[1] == 0
    assert v.bits == 1


def test_bitvector_validation():
    with pytest.raises(ValueError):
        BitVector(3, 8)  # bit outside length
    with pytest.raises(ValueError):
        BitVector.from_bits([2])
    with pytest.raises(ValueError):
        BitVector.from01("01") ^ BitVector.from01("011")
    with pytest.raises(IndexError):
        BitVector.from01("01")[5]


def test_xor_and_dot():
    u = BitVector.from01("1100")
    v = BitVector.from01("1010")
    assert (u ^ v).to01() == "0110"
    assert dot(u, v) == 1
    assert dot(u, u) == 0  # even weight


# --- row reduction ----------------------------------------------------------


def test_row_reduce_known():
    m = BitMatrix.from01(["110", "011", "101"])
    r, pivots = row_reduce(m)
    # rows sum to zero, so rank 2 with pivots at the first two columns
    assert list(pivots) == [0, 1]
    assert r.to01_lines()[:2] == ["101", "011"]
    assert r.row(2).is_zero()


def test_rank_matches_numpy_gaussian():
    rng = np.random.default_rng(5)
    for _ in range(40):
        arr = rng.integers(0, 2, size=(rng.integers(1, 8), rng.integers(1, 8)))
        assert rank(from_dense(arr)) == _dense_rank(arr)


def _dense_rank(arr: np.ndarray) -> int:
    a = arr.copy() % 2
    r = 0
    for c in range(a.shape[1]):
        nz = [i for i in range(r, a.shape[0]) if a[i, c]]
        if not nz:
            continue
        a[[r, nz[0]]] = a[[nz[0], r]]
        for i in range(a.shape[0]):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        r += 1
    return r


@settings(max_examples=150)
@given(matrices)
def test_row_reduce_idempotent_and_rank_consistent(m):
    r, pivots = row_reduce(m)
    r2, pivots2 = row_reduce(r)
    assert r2 == r
    assert pivots2 == pivots
    assert len(pivots) == rank(m)
    # pivot columns each contain exactly one 1, in their own row
    for i, c in enumerate(pivots):
        col = [r[j, c] for j in range(r.rows)]
        assert col[i] == 1 and sum(col) == 1


@settings(max_examples=150)
@given(matrices)
def test_kernel_is_exact_null_space(m):
    ker = kernel_basis(m)
    assert ker.rows == m.cols - rank(m)
    for v in ker.row_list():
        assert matvec(m, v).is_zero()
    assert rank(ker) == ker.rows  # independent rows
    # exhaustively confirm the kernel size on small widths
    if m.cols <= 12:
        count = sum(
            1 for bits in range(1 << m.cols)
            if matvec(m, BitVector(m.cols, bits)).is_zero()
        )
        assert count == 1 << ker.rows
    # a caller that holds the row reduction gets the same basis from it
    assert kernel_basis(m, row_reduce(m)) == ker


def test_row_space_basis_spans():
    m = BitMatrix.from01(["1100", "0110", "1010", "0000"])
    basis = row_space_basis(m)
    assert basis.rows == rank(m) == 2
    # every original row is a combination of the basis rows: adjoining the
    # rows of m to the basis does not raise its rank
    assert rank(basis.vstack(m)) == basis.rows


def test_matvec_dimension_check():
    with pytest.raises(ValueError):
        matvec(BitMatrix.from01(["101"]), BitVector.from01("10"))


# zero rows, zero columns, and widths on both sides of 64 bits
any_shape = st.tuples(st.integers(0, 140), st.integers(0, 140)).flatmap(
    lambda rc: st.lists(
        st.integers(0, (1 << rc[1]) - 1), min_size=rc[0], max_size=rc[0]
    ).map(lambda rows: BitMatrix(rc[1], tuple(rows)))
)


@settings(max_examples=200)
@given(any_shape)
@example(BitMatrix(0, ()))
@example(BitMatrix(0, (0, 0, 0)))
@example(BitMatrix(70, ()))
@example(BitMatrix(65, ((1 << 65) - 1, 1, 1 << 64)))
@example(BitMatrix(64, tuple(1 << i for i in range(64)) + ((1 << 64) - 1,)))
def test_transpose_equals_per_bit_oracle(m):
    t = m.transpose()
    assert t == transpose_by_bits(m)
    assert (t.rows, t.cols) == (m.cols, m.rows)
    assert t.transpose() == m
