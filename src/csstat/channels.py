"""Noise models and exact sector-probability tables.

The central objects are SectorDistribution tables: the exact probability that
a random error lands in each (syndrome, logical-parity) sector. For
independent bit/phase flips the X and Z error species factorize and each side
is a table over (b, kz) or (a, kx); a general single-qubit Pauli channel
correlates the species and needs the joint table over (a, b, kx, kz).

Factorized tables come from exact integer coset weight enumerators: the
sector label of an error string is F2-linear in its bits, so by MacWilliams
duality the number of weight-w strings in each sector follows from the 2^m
combinations of the m label functionals (Krawtchouk polynomials and a
Walsh–Hadamard transform) rather than from the 2^n strings. A probability
is then a positive sum over weights, with no cancellation. The joint table
uses the same characters in floating point: the character sum of a Pauli
channel over the m = n + k joint label functionals is a product of three
per-qubit factors, and one Walsh–Hadamard transform over its 2^m
combinations gives every sector at once, within a stated rounding bound,
instead of walking the 4^n (Ex, Ez) pairs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .css import CssCode, TooLarge, code_hash, combination_supports, label_functionals

MAX_LABEL_BITS = 20  # 2^m label combinations per transform
MAX_SUPPORT_BITS = 63  # functional supports are packed into uint64
_BLOCK_ROWS = 1 << 12  # rows of A transformed, moved or converted to float64 at once

MODE_X = "factorized-x"
MODE_Z = "factorized-z"
MODE_JOINT = "joint"


class InternalInvariantError(AssertionError):
    """A computed table violated one of its own invariants."""


@dataclass(frozen=True)
class PauliNoise:
    """Single-qubit Pauli channel rates (ptx, pty, ptz); identity rest."""

    ptx: float
    pty: float
    ptz: float

    def __post_init__(self) -> None:
        for name, p in (("ptx", self.ptx), ("pty", self.pty), ("ptz", self.ptz)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} = {p} is not a probability")
        if self.ptot > 1.0 + 1e-15:
            raise ValueError(f"total error rate {self.ptot} exceeds 1")

    @property
    def ptot(self) -> float:
        return self.ptx + self.pty + self.ptz


def depolarizing_from_independent(px: float, pz: float) -> PauliNoise:
    """The Pauli channel equal to independent X(px) ∘ Z(pz) noise.

    Composing the two independent flips yields X with px(1−pz), Z with
    pz(1−px), and Y with px·pz (both flips on the same qubit).
    """
    return PauliNoise(px * (1.0 - pz), px * pz, pz * (1.0 - px))


def error_weight_prob(weight: int, n: int, p: float) -> float:
    """p^weight · (1−p)^(n−weight), in log space, with 0^0 = 1.

    Args:
        weight: number of flipped qubits (0 ≤ weight ≤ n).
        n: total qubits.
        p: per-qubit flip probability.
    """
    if not 0 <= weight <= n:
        raise ValueError(f"weight {weight} outside [0, {n}]")
    if p == 0.0:
        return 1.0 if weight == 0 else 0.0
    if p == 1.0:
        return 1.0 if weight == n else 0.0
    return math.exp(weight * math.log(p) + (n - weight) * math.log1p(-p))


# Packed sector label: from the lowest bit up, the bits of kz, b, kx and a
# (each field's bit 0 first), skipping absent fields. The N-d view therefore
# has one axis per present field in C order (a, kx, b, kz).
AXES = ("a", "kx", "b", "kz")
SYNDROME_FIELDS = ("a", "b")
_MODES = {
    frozenset({"b", "kz"}): MODE_X,
    frozenset({"a", "kx"}): MODE_Z,
    frozenset(AXES): MODE_JOINT,
}


_SUM_BLOCK = 1 << 16  # entries per exact_sum pass: keeps its bincounts exact
_SUM_LEVEL_BITS = 10  # check() sums at most 2^10 terms per level of its estimate

# exact_sum buckets entries by key = bits >> 52 (sign bit, then the biased
# exponent e). An entry with e ≥ 1 is (2^52 + f)·2^(e−1075) and one with
# e = 0 is 2f·2^(0−1075), for the 52-bit fraction f; bits >> 27 is
# key·2^25 + (f >> 27), so subtracting _KEY_OFFSET per entry leaves the high
# part of the significand with its hidden bit.
_KEY_OFFSET = np.array([(key - (key % 2048 > 0)) << 25 for key in range(4096)])
_LOW_27 = np.uint64((1 << 27) - 1)
_OCTAVE_WEIGHTS = 1 << np.arange(8)


def exact_sum(values) -> float:
    """math.fsum(values) for a float64 array, with no Python float list.

    The correctly rounded sum of every entry, as exact as fsum (Shewchuk,
    DCG 18, 1997): bit for bit equal to math.fsum(values.tolist()), −0.0
    and subnormals included. Each block of entries is bucketed by sign and
    exponent; per bucket, np.bincount adds the count, the significands'
    high parts (below 2^26) and their low 27 bits, all exactly in float64.
    Eight buckets at a time are folded in int64, then into one Python int N,
    and the result is the single correctly rounded division N / 2^1075.
    As in fsum, an inf or NaN entry makes the result the fsum of the
    non-finite entries, and an overflowing sum raises OverflowError.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    total = 0
    for start in range(0, x.size, _SUM_BLOCK):
        bits = x[start:start + _SUM_BLOCK].view(np.uint64)
        key = (bits >> np.uint64(52)).view(np.int64)
        count = np.bincount(key)
        size = count.size
        if size > 2047 and count[2047::2048].any():  # e = 2047: inf or NaN
            return math.fsum(x[~np.isfinite(x)].tolist())
        # rows: significand sums in units of 2^27 and of 1, per key
        sums = np.zeros((2, -(-size // 8) * 8), dtype=np.int64)
        sums[0, :size] = np.bincount(key, bits >> np.uint64(27))
        sums[0, :size] -= count * _KEY_OFFSET[:size]
        sums[1, :size] = np.bincount(key, bits & _LOW_27)
        sums[:, ::2048] <<= 1  # e = 0 has the scale of e = 1
        high, low = (sums.reshape(2, -1, 8) @ _OCTAVE_WEIGHTS).tolist()
        for octave, (h, l) in enumerate(zip(high, low)):
            if h or l:
                part = ((h << 27) + l) << (8 * (octave % 256))
                total += -part if octave >= 256 else part
    return total / (1 << 1075)


@dataclass(frozen=True, eq=False)
class SectorDistribution:
    """Exact probability table over sector labels.

    widths names the present label fields and their bit widths. table is a
    read-only float64 array of length 2^(Σ widths), one entry per realizable
    sector (zero-probability ones included), indexed by the packed label: kz
    in the lowest bits, then b, kx and a. view() gives one axis per present
    field in (a, kx, b, kz) order and by_syndrome() a (syndrome, logical)
    matrix.
    """

    code_hash: str
    n: int
    k: int
    widths: Dict[str, int]  # field name -> bit width, in (a, b, kx, kz) order
    table: np.ndarray
    noise: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=np.float64).view()
        size = 1 << sum(self.widths.values())
        if table.shape != (size,):
            raise ValueError(f"table has shape {table.shape}, expected ({size},)")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def mode(self) -> str:
        """factorized-x for (b, kz), factorized-z for (a, kx), joint for all
        four fields, marginal for any other set."""
        return _MODES.get(frozenset(self.widths), "marginal")

    @property
    def axes(self) -> Tuple[str, ...]:
        """Present fields in view() axis order."""
        return tuple(name for name in AXES if name in self.widths)

    def view(self) -> np.ndarray:
        """The table with one axis of length 2^width per field in `axes`."""
        return self.table.reshape([1 << self.widths[f] for f in self.axes])

    def by_syndrome(self) -> np.ndarray:
        """(syndrome, logical) matrix: rows over the present (a, b) fields,
        a-major, and columns over the present (kx, kz) fields, kx-major."""
        axes = self.axes
        syn = [i for i, f in enumerate(axes) if f in SYNDROME_FIELDS]
        log = [i for i, f in enumerate(axes) if f not in SYNDROME_FIELDS]
        rows = 1 << sum(self.widths[axes[i]] for i in syn)
        return self.view().transpose(syn + log).reshape(rows, -1)

    def total(self) -> float:
        return exact_sum(self.table)

    def check(self) -> None:
        """Raise InternalInvariantError unless every entry is >= 0 (not NaN)
        and the exact sum S of the entries, correctly rounded, lies within
        1e-12 of 1.

        A float estimate ŝ settles almost every table without exact_sum. The
        table is summed in levels of at most 2^_SUM_LEVEL_BITS terms (row
        sums of a reshape, then sums of those), so each entry passes through
        at most D = Σ (terms per level − 1) roundings, in whatever order
        numpy adds. As no entry is negative, the any-order summation bound
        (Higham, Accuracy and Stability of Numerical Algorithms, §4.2) gives
        |ŝ − S| ≤ γ_D·S ≤ 2·D·2^−53·ŝ, and rounding S moves it by at most
        2^−53 < 2^−52. So |ŝ − 1| + 2·D·2^−53·ŝ + 2^−52 ≤ 1e-12 with ŝ finite
        proves the exact test passes; the bounds' margins absorb the rounding
        of this test itself. Any other table (inconclusive, an overflowing
        sum, +inf) takes the exact_sum path, so every table passes or fails,
        with the same error, as under the exact test alone.
        """
        # both tests are written so that a NaN entry fails them
        bad = np.flatnonzero(~(self.table >= 0.0))
        if bad.size:
            raise InternalInvariantError(
                f"negative or NaN probability at index {bad[0]}"
            )
        partial, depth = self.table, 0
        bits = partial.size.bit_length() - 1
        with np.errstate(over="ignore"):  # an overflow goes to exact_sum
            for levels in range(-(-bits // _SUM_LEVEL_BITS), 0, -1):
                width = bits // levels
                partial = partial.reshape(-1, 1 << width).sum(axis=1)
                depth += (1 << width) - 1
                bits -= width
        estimate = float(partial[0])
        slack = 2 * depth * 2.0**-53 * estimate + 2.0**-52
        if math.isfinite(estimate) and abs(estimate - 1.0) + slack <= 1e-12:
            return
        total = self.total()
        if not abs(total - 1.0) <= 1e-12:
            raise InternalInvariantError(
                f"table sums to {total:.17g}, not 1 within 1e-12"
            )


@functools.cache
def _krawtchouk_table(n: int) -> np.ndarray:
    """K[d, w] = Σ_j (−1)^j C(d, j) C(n−d, w−j), the Krawtchouk polynomial.

    K_w(d; n) is the signed count of weight-w strings against a fixed
    weight-d support: Σ_{|E|=w} (−1)^<s, E> for any s with |s| = d. Row d is
    an int64 convolution, exact: |partial sums| ≤ C(n, w) < 2^63 for n ≤ 63.
    Built once per n and returned read-only, as every caller shares it.
    """
    table = np.empty((n + 1, n + 1), dtype=np.int64)
    for d in range(n + 1):
        signed = np.array([(-1) ** j * math.comb(d, j) for j in range(d + 1)])
        table[d] = np.convolve(signed, [math.comb(n - d, i) for i in range(n - d + 1)])
    table.flags.writeable = False
    return table


def _walsh_hadamard(a: np.ndarray) -> None:
    """In-place unnormalized Walsh–Hadamard transform of a C-contiguous
    (2^m, cols) int64 array along axis 0, cache-blocked (Johnson & Püschel,
    ICASSP 2000).

    Each block of _BLOCK_ROWS rows takes the stages of every low row bit
    while it sits in cache. A, viewed as (2^m / rows, rows·cols), then takes
    the stages of the remaining high bits one column chunk of at most
    rows·cols entries at a time. Besides A, it allocates one block of
    temporaries, the float conversion's budget, and numpy's fixed-size ufunc
    buffers for the short strided rows of its first passes. Every output is
    the same signed sum of inputs as in the butterfly network; int64 wraps
    modulo 2^64, so every result that fits is exact. Float arrays use
    _constant_geometry_transform, whose rounding matches the butterfly's.
    """
    size, cols = a.shape
    rows = min(size, _BLOCK_ROWS)
    scratch = np.empty(rows * cols, dtype=a.dtype)
    for lo in range(0, size, rows):
        _radix4_stages(a[lo : lo + rows], scratch)
    high = a.reshape(size // rows, rows * cols)
    width = scratch.size // len(high)
    for lo in range(0, high.shape[1], width):
        _radix4_stages(high[:, lo : lo + width], scratch)


def _radix4_stages(x: np.ndarray, scratch: np.ndarray) -> None:
    """Walsh–Hadamard transform of an (n, w) view along axis 0, in place.

    Each pass takes two row bits at once: the rows x0 … x3 that differ only
    in those bits become s01 + s23, d01 + d23, s01 − s23 and d01 − d23, with
    s01 = x0 + x1, d01 = x0 − x1, s23 = x2 + x3 and d23 = x2 − x3 held in
    four quarters of scratch, which needs n·w entries. An odd bit count ends
    with one radix-2 pass.
    """
    n, w = x.shape
    quarter = 1
    while 4 * quarter <= n:
        groups = n // (4 * quarter)
        x0, x1, x2, x3 = x.reshape(groups, 4, quarter, w).swapaxes(0, 1)
        s01, d01, s23, d23 = scratch[: n * w].reshape(4, groups, quarter, w)
        np.add(x0, x1, out=s01)
        np.subtract(x0, x1, out=d01)
        np.add(x2, x3, out=s23)
        np.subtract(x2, x3, out=d23)
        np.add(s01, s23, out=x0)
        np.add(d01, d23, out=x1)
        np.subtract(s01, s23, out=x2)
        np.subtract(d01, d23, out=x3)
        quarter *= 4
    if quarter < n:  # n = 2·quarter: the last bit
        x0, x1 = x.reshape(2, quarter, w)
        d01 = scratch[: quarter * w].reshape(quarter, w)
        np.subtract(x0, x1, out=d01)
        x0 += x1
        x1[...] = d01


def _constant_geometry_transform(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh–Hadamard transform of a flat float64 array of 2^m
    entries, in Pease's constant geometry (J. ACM 15, 252, 1968).

    Each of the m passes reads the pairs (x, y) = (2i, 2i + 1) of one buffer
    and writes x + y to entry i and x − y to entry i + 2^(m−1) of the other,
    so its reads have stride 2 and its writes are contiguous. A pass rotates
    the index bits right by one, so pass j pairs entries that differ in the
    input's bit j, and after m passes the order is natural again. Every
    output is the same x + y or x − y of the same operands as in the in-place
    butterfly network taken bit 0 first, so the result is bit-identical to
    it. a is overwritten; the result is a or one scratch array of its size.
    """
    src, dst = a, np.empty_like(a)
    half = a.size // 2
    for _ in range(a.size.bit_length() - 1):
        pairs = src.reshape(half, 2)
        np.add(pairs[:, 0], pairs[:, 1], out=dst[:half])
        np.subtract(pairs[:, 0], pairs[:, 1], out=dst[half:])
        src, dst = dst, src
    return src


def _check_label_size(engine: str, n: int, m: int, cost: str) -> None:
    """Raise TooLarge unless m <= MAX_LABEL_BITS and n <= MAX_SUPPORT_BITS:
    engine transforms 2^m label combinations of n-bit packed supports, and
    cost says what its arrays would occupy."""
    if m > MAX_LABEL_BITS or n > MAX_SUPPORT_BITS:
        raise TooLarge(
            f"{engine} bounds are m <= {MAX_LABEL_BITS} label bits and "
            f"n <= {MAX_SUPPORT_BITS}; got m = {m}, n = {n}; {cost}"
        )


def _check_enumerator_size(n: int, m: int) -> None:
    """Raise TooLarge unless the enumerator's arrays and int64 sums fit."""
    cost = f"A[label, w] is 2^{m} x {n + 1} int64 = {8 * (n + 1) << m:,} bytes"
    _check_label_size("coset enumerator", n, m, cost)
    if (1 << m) * math.comb(n, n // 2) >= 1 << 63:
        raise TooLarge(
            f"coset enumerator needs 2^m * C(n, n/2) < 2^63 for int64 sums; "
            f"got m = {m}, n = {n}; {cost}"
        )


def _coset_enumerator(rows: Sequence[int], n: int) -> np.ndarray:
    """A[label, w]: the number of weight-w error strings with each label.

    rows are the m packed label functionals, functional j at label bit j,
    and must be linearly independent. By MacWilliams duality, A is 2^-m
    times the Walsh–Hadamard transform over u ∈ F2^m of K_w(|Σ u_j row_j|),
    so the cost scales with 2^m combinations, not 2^n strings, and every
    step is exact int64 arithmetic.

    Complementing every qubit maps weight w to n − w and label l to l ⊕ c,
    with c the label of the all-ones string, so A[l, n − w] = A[l ⊕ c, w].
    Only the h = ⌊n/2⌋ + 1 columns w ≤ n/2 are transformed, packed at the
    front of A's own buffer; the rows are then spread out and the columns
    w > n/2 copied from their mirrors, so A is the only large allocation,
    plus at most one block of temporaries: the float conversion's budget of
    _BLOCK_ROWS rows.
    """
    m = len(rows)
    _check_enumerator_size(n, m)
    size, h = 1 << m, n // 2 + 1
    krawtchouk = _krawtchouk_table(n)  # row 0 is C(n, w)
    flat = np.empty(size * (n + 1), dtype=np.int64)
    half = flat[: size * h].reshape(size, h)
    # mode="clip" writes straight into out; "raise" would buffer a copy
    weights = np.bitwise_count(combination_supports(rows))
    np.take(krawtchouk[:, :h], weights, axis=0, out=half, mode="clip")
    _walsh_hadamard(half)
    if np.bitwise_or.reduce(half, axis=None) & (size - 1):
        raise InternalInvariantError(f"Walsh–Hadamard sums not divisible by 2^{m}")
    half >>= m
    if half.min() < 0:
        raise InternalInvariantError("negative coset weight count")
    if np.any(half.sum(axis=0) != krawtchouk[0, :h]):
        raise InternalInvariantError("weight-w counts do not sum to C(n, w)")
    counts = flat.reshape(size, n + 1)
    block = min(size, _BLOCK_ROWS)
    # row l moves from l·h to l·(n + 1), never below where it was: moving the
    # last block first overwrites only rows that have already moved
    for lo in range(size - block, -1, -block):
        counts[lo : lo + block, :h] = flat[lo * h : (lo + block) * h].reshape(block, h)
    c = sum((row.bit_count() & 1) << j for j, row in enumerate(rows))
    mirrors = counts[:, : n + 1 - h][:, ::-1]  # column n − w for w = h … n
    for lo in range(0, size, block):
        counts[lo : lo + block, h:] = mirrors[np.arange(lo, lo + block) ^ c]
    if np.any(counts.sum(axis=1, dtype=np.uint64) != np.uint64(1 << (n - m))):
        raise InternalInvariantError(f"a coset does not hold 2^{n - m} strings")
    return counts


def sector_distributions(
    code: CssCode, side: str, rates: Sequence[float]
) -> List[SectorDistribution]:
    """Exact tables of independent errors on side "x" ((b, kz) tables, rates
    px) or "z" ((a, kx) tables, rates pz), one per rate in rates.

    The coset weight enumerator over the side's m = rank + k <= MAX_LABEL_BITS
    label bits is built once, and each distinct rate takes one mat-vec (a
    single product over all rates sums in another order: not bit-identical).
    Each table has exactly 2^m entries (each sector is realized by 2^(n − m)
    strings) and sums to 1 within 1e-12. Tables are frozen, so a repeated
    rate shares one object.
    """
    name = "p" + side
    for p in rates:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} = {p} is not a probability")
    rows, widths = label_functionals(code, side)
    n, digest = code.n, code_hash(code)
    counts = _coset_enumerator(rows, n)
    for block in counts.reshape(-1, min(len(counts), _BLOCK_ROWS), n + 1):
        block.view(np.float64)[...] = block  # numpy copies the int64 block first
    counts = counts.view(np.float64)
    tables = {}
    for p in rates:
        if p in tables:
            continue
        wtab = np.array([error_weight_prob(w, n, p) for w in range(n + 1)])
        # label = syndrome << k | logical is already the packed table index
        dist = SectorDistribution(
            code_hash=digest, n=n, k=code.k, widths=widths,
            table=counts @ wtab, noise={name: p},
        )
        dist.check()
        tables[p] = dist
    return [tables[p] for p in rates]


def sector_distribution_x(code: CssCode, px: float) -> SectorDistribution:
    """Exact (b, kz) table for independent X errors at rate px."""
    return sector_distributions(code, "x", [px])[0]


def sector_distribution_z(code: CssCode, pz: float) -> SectorDistribution:
    """Exact (a, kx) table for independent Z errors at rate pz."""
    return sector_distributions(code, "z", [pz])[0]


def sector_distribution_joint(code: CssCode, noise: PauliNoise) -> SectorDistribution:
    """(a, b, kx, kz) table for a general Pauli channel, by character transform.

    The X-side functionals (the (b, kz) label, m_x = rank_z + k of them) act
    on Ex and the Z-side ones (the (a, kx) label, m_z = rank_x + k) on Ez. For
    the supports s of a combination of X-side functionals and t of Z-side
    ones, the character sum Σ P(Ex, Ez) (−1)^(<s, Ex> + <t, Ez>) factorizes
    over qubits into f10^|s∖t| · f01^|t∖s| · f11^|s∩t|, with
    f10 = 1 − 2(ptx + pty), f01 = 1 − 2(pty + ptz) and f11 = 1 − 2(ptx + ptz).
    Laid out as [t, s], these 2^m values (m = m_x + m_z = n + k) are already
    in the packed (a, kx | b, kz) order, and their Walsh–Hadamard transform
    divided by 2^m is the table; m ≤ MAX_LABEL_BITS and n ≤ MAX_SUPPORT_BITS.
    The transform runs in constant geometry (_constant_geometry_transform):
    m contiguous passes between the values' buffer and one scratch buffer of
    its size, bit-identical to the in-place butterfly network.

    The arithmetic is floating point, with an absolute error bound of
    (m + 4)·2^−52 per entry. Each f is correctly rounded (math.fsum), so an
    input has magnitude at most 1 and relative error at most (n + 5)·2^−53
    (powers, two products); the transform carries that over unamplified
    after the exact 2^−m scaling, and its m stages add at most 2^−53 each.
    An entry below −bound raises InternalInvariantError; entries in
    [−bound, 0) are set to 0.
    """
    n = code.n
    x_rows, x_widths = label_functionals(code, "x")
    z_rows, z_widths = label_functionals(code, "z")
    m = len(x_rows) + len(z_rows)
    cost = f"2^{m} float64 values and a scratch copy = {16 << m:,} bytes"
    _check_label_size("joint transform", n, m, cost)
    s = combination_supports(x_rows)
    t = combination_supports(z_rows)[:, None]
    both = np.bitwise_count(t & s)
    exponents = np.arange(n + 1)
    pow10, pow01, pow11 = (
        np.power(math.fsum((1.0, -2.0 * p, -2.0 * q)), exponents)
        for p, q in ((noise.ptx, noise.pty), (noise.pty, noise.ptz),
                     (noise.ptx, noise.ptz))
    )
    probs = pow10[np.bitwise_count(s) - both] * pow01[np.bitwise_count(t) - both]
    probs *= pow11[both]
    probs = _constant_geometry_transform(probs.reshape(-1))
    probs /= 1 << m
    bound = (m + 4) * 2.0**-52
    if probs.min() < -bound:
        raise InternalInvariantError(
            f"joint transform entry {probs.min():.3g} is below -{bound:.3g}"
        )
    probs[probs < 0.0] = 0.0

    # row (a, kx) over column (b, kz): the flattened array is the packed index
    dist = SectorDistribution(
        code_hash=code_hash(code),
        n=n,
        k=code.k,
        widths=dict(sorted({**x_widths, **z_widths}.items())),  # a, b, kx, kz
        table=probs,
        noise={"ptx": noise.ptx, "pty": noise.pty, "ptz": noise.ptz},
    )
    dist.check()
    return dist


def marginalize(dist: SectorDistribution, keep: Iterable[str]) -> SectorDistribution:
    """Sum probabilities over every sector field not in `keep`.

    A sum over the dropped axes of dist.view(); the kept axes stay in
    (a, kx, b, kz) order, so the result uses the same packed-label layout
    over its own fields.
    """
    keep_set = frozenset(keep)
    present = frozenset(dist.widths)
    if not keep_set <= present:
        raise ValueError(f"cannot keep {sorted(keep_set - present)}: absent")
    dropped = tuple(i for i, f in enumerate(dist.axes) if f not in keep_set)
    widths = {f: w for f, w in dist.widths.items() if f in keep_set}
    return SectorDistribution(
        code_hash=dist.code_hash,
        n=dist.n,
        k=dist.k,
        widths=widths,
        table=dist.view().sum(axis=dropped).ravel(),
        noise=dist.noise,
    )
