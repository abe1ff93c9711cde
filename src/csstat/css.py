"""CSS code construction, logical-operator extraction, and sector labels.

A CSS code is a pair of classical parity-check matrices (Hz, Hx) over F2 with
Hx·Hz^T = 0: rows of Hz are Z-type stabilizer supports, rows of Hx X-type.
Logical qubit count is k = n − rank(Hx) − rank(Hz); redundancy among the raw
check rows is tracked by Dx = dim ker(Hx^T) and Dz = dim ker(Hz^T).

Logical operators pair the kernel basis of Hx (Z-type candidates) with that
of Hz (X-type candidates): each Z candidate in order takes the first X
candidate it overlaps oddly, and both sides are cleaned so the pairs commute.
Every CSS logical is pure X or pure Z, so the two types never mix. The basis
is fixed by the canonical kernel bases plus this pairing order, making every
derived quantity reproducible; basis independence of the physical quantities
is established by tests, not assumed.

An error pair (Ex, Ez) is classified by its sector label: the syndrome of Ex
against the independent Z checks (b), the syndrome of Ez against the
independent X checks (a), and the logical parities kz_i = <logical_z[i], Ex>,
kx_i = <logical_x[i], Ez>. label_functionals packs one side's label as parity
rows and label_generators gives the dual basis: the representative error of
each sector is the XOR of the generators at its label's set bits.
combination_supports enumerates the span of a few packed rows, for the coset
search in distance and the character transforms in channels.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .gf2 import (
    BitMatrix,
    BitVector,
    dot,
    kernel_basis,
    matvec,
    rank as gf2_rank,
    row_reduce,
    row_space_basis,
)


class CommutationViolation(Exception):
    """Hx and Hz rows that anticommute; carries the offending row pair."""

    def __init__(self, row_x: int, row_z: int):
        self.row_x = row_x
        self.row_z = row_z
        super().__init__(
            f"X check row {row_x} and Z check row {row_z} overlap on an odd "
            f"number of qubits"
        )


class TooLarge(Exception):
    """An exhaustive enumeration would exceed its documented bound."""


class EmptyCodeWarning(UserWarning):
    """Issued when a valid check pair encodes zero logical qubits."""


class CodeFormatError(ValueError):
    """Malformed code file; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass(frozen=True)
class CssCode:
    """A validated CSS code with derived structure. Immutable."""

    n: int
    Hz: BitMatrix
    Hx: BitMatrix
    rank_z: int
    rank_x: int
    k: int
    Dx: int
    Dz: int
    logical_x: BitMatrix  # k × n, X-type supports, rows in ker(Hz)
    logical_z: BitMatrix  # k × n, Z-type supports, rows in ker(Hx)
    # Canonical independent checks: the nonzero rows of RREF(Hz) / RREF(Hx).
    # Syndromes are reported against these, so sector labels have fixed width.
    Hz_red: BitMatrix = field(repr=False, default=None)
    Hx_red: BitMatrix = field(repr=False, default=None)

    def syndrome_z(self, ex: BitVector) -> BitVector:
        """Syndrome of an X-error against the independent Z checks (b)."""
        return matvec(self.Hz_red, ex)

    def syndrome_x(self, ez: BitVector) -> BitVector:
        """Syndrome of a Z-error against the independent X checks (a)."""
        return matvec(self.Hx_red, ez)


def logical_operators(
    Hz: BitMatrix, Hx: BitMatrix, reduced_z, reduced_x
) -> Tuple[BitMatrix, BitMatrix]:
    """Extract k paired logical operators, each pure X- or pure Z-type.

    Z candidates are the kernel basis of Hx, X candidates that of Hz, each
    read off the matrix's row_reduce output (reduced_x, reduced_z). Each Z
    candidate in order is paired with the first remaining X candidate it
    overlaps oddly; z is then XORed into every later Z candidate that
    overlaps x oddly, and x into every remaining X candidate that overlaps z
    oddly, so later pairs commute with this one. A Z candidate left without
    a partner is a stabilizer direction. The candidate order fixes the
    canonical basis.

    Returns:
        (logical_x, logical_z): k×n support matrices with
        <logical_z[i], logical_x[j]> = δ_ij.
    """
    zs = list(kernel_basis(Hx, reduced_x).row_bits)  # Z-type: commute with X checks
    xs = list(kernel_basis(Hz, reduced_z).row_bits)
    lx, lz = [], []
    for i in range(len(zs)):
        z = zs[i]
        j = next((j for j, x in enumerate(xs) if (z & x).bit_count() & 1), None)
        if j is None:
            continue
        x = xs.pop(j)
        zs[i + 1:] = [w ^ z if (w & x).bit_count() & 1 else w for w in zs[i + 1:]]
        xs = [w ^ x if (w & z).bit_count() & 1 else w for w in xs]
        lx.append(x)
        lz.append(z)
    return BitMatrix(Hz.cols, tuple(lx)), BitMatrix(Hz.cols, tuple(lz))


def new_css(Hz: BitMatrix, Hx: BitMatrix) -> CssCode:
    """Validate a check pair and derive the full CssCode structure.

    Raises:
        CommutationViolation: some X row and Z row overlap oddly (reports the
            first offending pair in row-major scan order).
        ValueError: mismatched widths or n < 1.
    Warns:
        EmptyCodeWarning: the pair is valid but encodes k = 0 qubits.
    """
    if Hz.cols != Hx.cols:
        raise ValueError(f"Hz has {Hz.cols} columns, Hx has {Hx.cols}")
    n = Hz.cols
    if n < 1:
        raise ValueError("a code needs at least one qubit")
    for i, xbits in enumerate(Hx.row_bits):
        for j, zbits in enumerate(Hz.row_bits):
            if (xbits & zbits).bit_count() & 1:
                raise CommutationViolation(i, j)
    Rz, pz = row_reduce(Hz)
    Rx, px = row_reduce(Hx)
    rank_z, rank_x = len(pz), len(px)
    k = n - rank_x - rank_z
    if k == 0:
        warnings.warn("check pair encodes zero logical qubits", EmptyCodeWarning)
    lx, lz = logical_operators(Hz, Hx, (Rz, pz), (Rx, px))
    if lx.rows != k:
        raise AssertionError(f"expected {k} logical pairs, extracted {lx.rows}")
    return CssCode(
        n=n,
        Hz=Hz,
        Hx=Hx,
        rank_z=rank_z,
        rank_x=rank_x,
        k=k,
        Dx=Hx.rows - rank_x,
        Dz=Hz.rows - rank_z,
        logical_x=lx,
        logical_z=lz,
        Hz_red=BitMatrix(n, Rz.row_bits[:rank_z]),
        Hx_red=BitMatrix(n, Rx.row_bits[:rank_x]),
    )


def label_functionals(code: CssCode, side: str) -> Tuple[List[int], Dict[str, int]]:
    """(rows, widths) of the packed sector label of one side's errors.

    Label bit j is the error's parity against rows[j]: the k parity logicals
    (kz for X errors) in the low bits, then the independent checks (b), so
    the label syndrome << k | logical is the sector's table index.
    """
    if side == "x":
        rows = code.logical_z.row_bits + code.Hz_red.row_bits
        return list(rows), {"b": code.rank_z, "kz": code.k}
    if side == "z":
        rows = code.logical_x.row_bits + code.Hx_red.row_bits
        return list(rows), {"a": code.rank_x, "kx": code.k}
    raise ValueError(f"side must be 'x' or 'z', got {side!r}")


def label_generators(code: CssCode, side: str) -> List[int]:
    """Dual basis of label_functionals: generator j's label is bit j alone.

    The first k are the shift logicals (logical_x on the X side). Check row
    j's is the unit error on its RREF pivot column (its lowest set bit, which
    no other reduced row touches), XOR the shift logicals whose parity it trips.
    """
    rows, _ = label_functionals(code, side)
    shifts = (code.logical_x if side == "x" else code.logical_z).row_bits
    gens = list(shifts)
    for row in rows[code.k:]:
        unit = gen = row & -row
        for z, x in zip(rows[:code.k], shifts):
            if z & unit:
                gen ^= x
        gens.append(gen)
    return gens


def _representative(
    code: CssCode, side: str, syndrome: BitVector, logical: BitVector
) -> BitVector:
    gens = label_generators(code, side)
    if syndrome.n != len(gens) - code.k or logical.n != code.k:
        raise ValueError("sector label widths do not match the code")
    label, e = syndrome.bits << code.k | logical.bits, 0
    for j, gen in enumerate(gens):
        if label >> j & 1:
            e ^= gen
    return BitVector(code.n, e)


def representative_x(code: CssCode, b: BitVector, kz: BitVector) -> BitVector:
    """Canonical X-error with syndrome b and logical parities kz.

    The XOR of the X-side label generators at the set bits of the packed
    label b << k | kz. Deterministic; any other representative differs by an
    X-stabilizer.
    """
    return _representative(code, "x", b, kz)


def representative_z(code: CssCode, a: BitVector, kx: BitVector) -> BitVector:
    """Mirror of representative_x for Z-errors (syndrome a, parities kx)."""
    return _representative(code, "z", a, kx)


def combination_supports(rows: Sequence[int]) -> np.ndarray:
    """Support of Σ_j u_j row_j for every u ∈ F2^m, indexed by u (bit j = u_j):
    the span of m packed rows, each at most 64 bits wide."""
    supports = np.zeros(1 << len(rows), dtype=np.uint64)
    for j, bits in enumerate(rows):
        half = 1 << j
        supports[half : 2 * half] = supports[:half] ^ np.uint64(bits)
    return supports


def _min_weight_coset(logicals: BitMatrix, stabilizers: BitMatrix) -> int:
    """Min weight over (nonzero logical combos) ⊕ (all stabilizer combos)."""
    if logicals.rows == 0:
        raise ValueError("no logical operators; distance undefined")
    # uint64 suffices: distance's kernel-dimension guards give n + k <= 48.
    stab = combination_supports(stabilizers.row_bits)
    return min(
        int(np.bitwise_count(stab ^ logical).min())
        for logical in combination_supports(logicals.row_bits)[1:]
    )


def distance(code: CssCode) -> Tuple[int, int]:
    """(dx, dz) by exhaustive coset search.

    dz = min weight over ker(Hx) \\ rowspace(Hz): the lightest Z-type logical;
    dx mirrors with the roles swapped. Enumerates (2^k − 1)·2^rank cosets, so
    both kernel dimensions must be ≤ 24.

    Raises:
        TooLarge: a kernel dimension exceeds 24.
    """
    dim_ker_hx = code.n - code.rank_x
    dim_ker_hz = code.n - code.rank_z
    if dim_ker_hx > 24 or dim_ker_hz > 24:
        raise TooLarge(
            f"distance enumeration needs kernel dims <= 24 "
            f"(got {dim_ker_hx} and {dim_ker_hz})"
        )
    dz = _min_weight_coset(code.logical_z, row_space_basis(code.Hz))
    dx = _min_weight_coset(code.logical_x, row_space_basis(code.Hx))
    return dx, dz


def with_logical_basis(code: CssCode, logical_x: BitMatrix, logical_z: BitMatrix) -> CssCode:
    """The same code with a replacement logical basis, fully re-validated.

    The replacement must satisfy every logical-operator invariant: rows in the
    right kernels, symplectic pairing δ_ij, and no row inside the matching
    stabilizer row space. Used to demonstrate basis independence of derived
    quantities.
    """
    if logical_x.rows != code.k or logical_z.rows != code.k:
        raise ValueError("logical basis must have exactly k rows per type")
    for i in range(code.k):
        if not matvec(code.Hz, logical_x.row(i)).is_zero():
            raise ValueError(f"logical_x[{i}] anticommutes with a Z check")
        if not matvec(code.Hx, logical_z.row(i)).is_zero():
            raise ValueError(f"logical_z[{i}] anticommutes with an X check")
        for j in range(code.k):
            if dot(logical_z.row(i), logical_x.row(j)) != (1 if i == j else 0):
                raise ValueError("symplectic pairing is not the identity")
    if gf2_rank(code.Hx.vstack(logical_x)) != code.rank_x + code.k:
        raise ValueError("an X logical lies in the X stabilizer row space")
    if gf2_rank(code.Hz.vstack(logical_z)) != code.rank_z + code.k:
        raise ValueError("a Z logical lies in the Z stabilizer row space")
    return replace(code, logical_x=logical_x, logical_z=logical_z)


# ---------------------------------------------------------------------------
# Code file format (css-code v1)
# ---------------------------------------------------------------------------

def to_text(code: CssCode) -> str:
    """Serialize to the css-code v1 line format (deterministic, byte-exact)."""
    lines = [
        "css-code v1",
        f"n {code.n}",
        f"Hz {code.Hz.rows}",
        *code.Hz.to01_lines(),
        f"Hx {code.Hx.rows}",
        *code.Hx.to01_lines(),
    ]
    return "\n".join(lines) + "\n"


def code_hash(code: CssCode) -> str:
    """Short content hash of the canonical file form, for provenance lines."""
    return hashlib.sha256(to_text(code).encode("ascii")).hexdigest()[:12]


def _parse_count(line_no: int, line: str, keyword: str) -> int:
    parts = line.split(" ")
    if len(parts) != 2 or parts[0] != keyword:
        raise CodeFormatError(line_no, f"expected '{keyword} <int>', got {line!r}")
    try:
        value = int(parts[1])
    except ValueError:
        raise CodeFormatError(line_no, f"expected an integer, got {parts[1]!r}")
    if value < 0 or parts[1] != str(value):
        raise CodeFormatError(line_no, f"invalid count {parts[1]!r}")
    return value


def from_text(text: str) -> CssCode:
    """Parse the css-code v1 format; rejects any stray characters.

    Raises:
        CodeFormatError: with the offending 1-based line number.
        CommutationViolation: the parsed pair is not a valid CSS code.
    """
    if text.endswith("\n"):
        text = text[:-1]
    lines = text.split("\n")
    pos = 0

    def next_line() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise CodeFormatError(len(lines) + 1, "unexpected end of file")
        pos += 1
        return lines[pos - 1]

    header = next_line()
    if header != "css-code v1":
        raise CodeFormatError(1, f"expected 'css-code v1', got {header!r}")
    n = _parse_count(pos + 1, next_line(), "n")
    if n < 1:
        raise CodeFormatError(pos, "n must be >= 1")

    def read_block(keyword: str) -> BitMatrix:
        count = _parse_count(pos + 1, next_line(), keyword)
        rows = []
        for _ in range(count):
            line = next_line()
            if len(line) != n or any(c not in "01" for c in line):
                raise CodeFormatError(pos, f"expected {n} chars of 0/1, got {line!r}")
            rows.append(line)
        return BitMatrix.from01(rows, cols=n)

    hz = read_block("Hz")
    hx = read_block("Hx")
    if pos != len(lines):
        raise CodeFormatError(pos + 1, f"trailing content {lines[pos]!r}")
    return new_css(hz, hx)
