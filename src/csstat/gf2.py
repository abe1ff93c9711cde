"""Dense linear algebra over GF(2) on bit-packed vectors and matrices.

Vectors and matrix rows are packed little-endian into Python ints (bit i of
the int is coordinate i), with padding beyond the declared length kept zero.
All operations are pure; BitVector and BitMatrix are immutable and hashable,
so they can be used as dict keys.

Determinism contracts (relied on by golden tests downstream):
  * row_reduce picks pivots first-nonzero-column, first-row;
  * kernel_basis orders its rows by ascending free column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class BitVector:
    """A length-n vector over F2, packed little-endian into an int."""

    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative length")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("bits outside the declared length")

    @staticmethod
    def from_bits(values: Iterable[int]) -> "BitVector":
        acc = 0
        n = 0
        for v in values:
            if v not in (0, 1):
                raise ValueError(f"bit value {v!r} is not 0/1")
            acc |= v << n
            n += 1
        return BitVector(n, acc)

    @staticmethod
    def from01(text: str) -> "BitVector":
        return BitVector.from_bits(int(c) for c in text)

    @staticmethod
    def unit(n: int, i: int) -> "BitVector":
        if not 0 <= i < n:
            raise ValueError("unit index out of range")
        return BitVector(n, 1 << i)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __iter__(self) -> Iterator[int]:
        return ((self.bits >> i) & 1 for i in range(self.n))

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return BitVector(self.n, self.bits ^ other.bits)

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def to01(self) -> str:
        return format(self.bits, f"0{self.n}b")[::-1] if self.n else ""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BitVector({self.to01()!r})"


@dataclass(frozen=True)
class BitMatrix:
    """A rows×cols matrix over F2; each row packed like a BitVector."""

    cols: int
    row_bits: tuple = ()

    def __post_init__(self) -> None:
        if self.cols < 0:
            raise ValueError("negative column count")
        for r in self.row_bits:
            if r < 0 or r >> self.cols:
                raise ValueError("row bits outside the declared width")

    @staticmethod
    def from_rows(rows: Sequence[BitVector]) -> "BitMatrix":
        if not rows:
            raise ValueError("cannot infer width from an empty row list")
        cols = rows[0].n
        for r in rows:
            if r.n != cols:
                raise ValueError("ragged rows")
        return BitMatrix(cols, tuple(r.bits for r in rows))

    @staticmethod
    def from01(lines: Sequence[str], cols: Optional[int] = None) -> "BitMatrix":
        if cols is None:
            if not lines:
                raise ValueError("cannot infer width from an empty line list")
            cols = len(lines[0])
        bits = []
        for line in lines:
            if len(line) != cols:
                raise ValueError(f"row of length {len(line)}, expected {cols}")
            bits.append(BitVector.from01(line).bits)
        return BitMatrix(cols, tuple(bits))

    @property
    def rows(self) -> int:
        return len(self.row_bits)

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.row_bits[i])

    def row_list(self) -> list:
        return [BitVector(self.cols, b) for b in self.row_bits]

    def __getitem__(self, rc) -> int:
        r, c = rc
        if not 0 <= c < self.cols:
            raise IndexError(rc)
        return (self.row_bits[r] >> c) & 1

    def transpose(self) -> "BitMatrix":
        """The cols×rows transpose, through one numpy bit matrix: each row's
        little-endian bytes are unpacked, the bits transposed and packed back."""
        rows, cols = self.rows, self.cols
        if not rows or not cols:
            return BitMatrix(rows, (0,) * cols)
        width = (cols + 7) // 8
        packed = b"".join(r.to_bytes(width, "little") for r in self.row_bits)
        bits = np.unpackbits(
            np.frombuffer(packed, np.uint8).reshape(rows, width), axis=1,
            count=cols, bitorder="little",
        )
        data = np.packbits(bits.T, axis=1, bitorder="little").tobytes()
        step = (rows + 7) // 8
        return BitMatrix(rows, tuple(
            int.from_bytes(data[i : i + step], "little")
            for i in range(0, len(data), step)
        ))

    def vstack(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.cols:
            raise ValueError("width mismatch")
        return BitMatrix(self.cols, self.row_bits + other.row_bits)

    def to01_lines(self) -> list:
        return [self.row(i).to01() for i in range(self.rows)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BitMatrix({self.rows}x{self.cols})"


def dot(u: BitVector, v: BitVector) -> int:
    """Inner product of two vectors mod 2."""
    if u.n != v.n:
        raise ValueError(f"length mismatch: {u.n} vs {v.n}")
    return (u.bits & v.bits).bit_count() & 1


def matvec(m: BitMatrix, v: BitVector) -> BitVector:
    """Matrix-vector product over F2 (syndrome map)."""
    if m.cols != v.n:
        raise ValueError(f"dimension mismatch: {m.cols} cols vs {v.n}")
    acc = 0
    for i, bits in enumerate(m.row_bits):
        acc |= ((bits & v.bits).bit_count() & 1) << i
    return BitVector(m.rows, acc)


def row_reduce(m: BitMatrix):
    """Reduced row echelon form over F2.

    Returns:
        (R, pivot_cols): R spans the same row space as m and is in RREF;
        pivot_cols is strictly increasing. Pivot choice is first nonzero
        column, first row, so the output is canonical for a given input.
    """
    rows = list(m.row_bits)
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(m.cols):
        sel = None
        for i in range(r, nrows):
            if (rows[i] >> c) & 1:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        for i in range(nrows):
            if i != r and (rows[i] >> c) & 1:
                rows[i] ^= rows[r]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return BitMatrix(m.cols, tuple(rows)), pivots


def rank(m: BitMatrix) -> int:
    """Dimension of the row space of m over F2."""
    _, pivots = row_reduce(m)
    return len(pivots)


def row_space_basis(m: BitMatrix) -> BitMatrix:
    """Canonical (RREF) basis of the row space of m."""
    red, pivots = row_reduce(m)
    return BitMatrix(m.cols, red.row_bits[: len(pivots)])


def kernel_basis(m: BitMatrix, reduced=None) -> BitMatrix:
    """Basis of {v : m v = 0}, one row per free column, ascending.

    Row count is cols − rank(m). For free column f the basis vector has a 1
    at f and picks up R[j, f] at each pivot column j, which zeroes the product.
    reduced, if given, is row_reduce(m), so a caller that already holds it
    does not reduce m again.
    """
    red, pivots = row_reduce(m) if reduced is None else reduced
    pivot_set = set(pivots)
    out = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = 1 << f
        for j, pc in enumerate(pivots):
            if (red.row_bits[j] >> f) & 1:
                v |= 1 << pc
        out.append(v)
    return BitMatrix(m.cols, tuple(out))
