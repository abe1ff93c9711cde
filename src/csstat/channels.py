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
still walks all 4^n (Ex, Ez) pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence

import numpy as np

from .css import CssCode, SectorKey, TooLarge, code_hash
from .gf2 import BitVector

MAX_LABEL_BITS = 20  # 2^m label combinations per coset enumerator
MAX_SUPPORT_BITS = 63  # functional supports are packed into uint64
MAX_JOINT_QUBITS = 13  # 4^n (Ex, Ez) pairs

MODE_X = "factorized-x"
MODE_Z = "factorized-z"
MODE_JOINT = "joint"


class InternalInvariantError(AssertionError):
    """A computed table violated one of its own invariants."""


@dataclass(frozen=True)
class IndependentNoise:
    """Independent per-qubit bit-flip (px) and phase-flip (pz) rates."""

    px: float
    pz: float

    def __post_init__(self) -> None:
        for name, p in (("px", self.px), ("pz", self.pz)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} = {p} is not a probability")


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


@dataclass(frozen=True)
class SectorDistribution:
    """Exact probability table over sector labels.

    mode fixes which SectorKey fields are populated: factorized-x uses
    (b, kz), factorized-z uses (a, kx), joint all four. Tables are dense:
    every realizable sector appears, including zero-probability ones.
    """

    code_hash: str
    n: int
    k: int
    mode: str
    widths: Dict[str, int]  # field name -> bit width, in (a, b, kx, kz) order
    table: Dict[SectorKey, float]
    noise: Dict[str, float] = field(default_factory=dict)

    def total(self) -> float:
        return math.fsum(self.table.values())

    def check(self) -> None:
        for key, p in self.table.items():
            if p < 0.0:
                raise InternalInvariantError(f"negative probability at {key}")
        if abs(self.total() - 1.0) > 1e-12:
            raise InternalInvariantError(
                f"table sums to {self.total():.17g}, not 1 within 1e-12"
            )


def _label_columns(rows: Iterable[int], n: int) -> np.ndarray:
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


def _x_side_functionals(code: CssCode):
    """(rows, widths) for the (b, kz) label of an X error: kz low, b high."""
    rows = [code.logical_z.row_bits[i] for i in range(code.k)]
    rows += [code.Hz_red.row_bits[j] for j in range(code.rank_z)]
    return rows, {"b": code.rank_z, "kz": code.k}


def _z_side_functionals(code: CssCode):
    """(rows, widths) for the (a, kx) label of a Z error: kx low, a high."""
    rows = [code.logical_x.row_bits[i] for i in range(code.k)]
    rows += [code.Hx_red.row_bits[j] for j in range(code.rank_x)]
    return rows, {"a": code.rank_x, "kx": code.k}


def _krawtchouk_table(n: int) -> np.ndarray:
    """K[d, w] = Σ_j (−1)^j C(d, j) C(n−d, w−j), the Krawtchouk polynomial.

    K_w(d; n) is the signed count of weight-w strings against a fixed
    weight-d support: Σ_{|E|=w} (−1)^<s, E> for any s with |s| = d.
    """
    table = np.zeros((n + 1, n + 1), dtype=np.int64)
    for d in range(n + 1):
        row = [0] * (n + 1)
        for j in range(d + 1):
            signed = -math.comb(d, j) if j & 1 else math.comb(d, j)
            for i in range(n - d + 1):
                row[i + j] += signed * math.comb(n - d, i)
        table[d] = row
    return table


def _walsh_hadamard(a: np.ndarray) -> None:
    """In-place unnormalized Walsh–Hadamard transform along axis 0."""
    size = a.shape[0]
    half = 1
    while half < size:
        pairs = a.reshape(size // (2 * half), 2, half, -1)
        top = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        np.subtract(top, pairs[:, 1], out=pairs[:, 1])
        half *= 2


def _check_enumerator_size(n: int, m: int) -> None:
    """Raise TooLarge unless the enumerator's arrays and int64 sums fit."""
    if m > MAX_LABEL_BITS:
        raise TooLarge(
            f"coset enumerator bound is m <= {MAX_LABEL_BITS} label bits, "
            f"got m = {m} (n = {n})"
        )
    if n > MAX_SUPPORT_BITS:
        raise TooLarge(
            f"coset enumerator packs supports in 64 bits, so n <= "
            f"{MAX_SUPPORT_BITS}; got n = {n} (m = {m})"
        )
    if (1 << m) * math.comb(n, n // 2) >= 1 << 63:
        raise TooLarge(
            f"coset enumerator needs 2^m * C(n, n/2) < 2^63 for int64 sums; "
            f"got m = {m}, n = {n}"
        )


def _coset_enumerator(rows: Sequence[int], n: int) -> np.ndarray:
    """A[label, w]: the number of weight-w error strings with each label.

    rows are the m packed label functionals, functional j at label bit j,
    and must be linearly independent. By MacWilliams duality, A is 2^-m
    times the Walsh–Hadamard transform over u ∈ F2^m of K_w(|Σ u_j row_j|),
    so the cost scales with 2^m combinations, not 2^n strings, and every
    step is exact int64 arithmetic.
    """
    m = len(rows)
    _check_enumerator_size(n, m)
    supports = np.zeros(1 << m, dtype=np.uint64)
    for j, bits in enumerate(rows):
        half = 1 << j
        supports[half : 2 * half] = supports[:half] ^ np.uint64(bits)
    counts = _krawtchouk_table(n)[np.bitwise_count(supports)]
    _walsh_hadamard(counts)
    if np.any(counts & ((1 << m) - 1)):
        raise InternalInvariantError(
            f"Walsh–Hadamard sums not divisible by 2^{m}"
        )
    counts >>= m
    if counts.min() < 0:
        raise InternalInvariantError("negative coset weight count")
    if np.any(counts.sum(axis=1, dtype=np.uint64) != np.uint64(1 << (n - m))):
        raise InternalInvariantError(f"a coset does not hold 2^{n - m} strings")
    binomials = np.array([math.comb(n, w) for w in range(n + 1)], dtype=np.uint64)
    if np.any(counts.sum(axis=0, dtype=np.uint64) != binomials):
        raise InternalInvariantError("weight-w counts do not sum to C(n, w)")
    return counts


def _factorized_distribution(code, p, rows, widths, mode, noise):
    n = code.n
    counts = _coset_enumerator(rows, n)
    wtab = np.array([error_weight_prob(w, n, p) for w in range(n + 1)])
    probs = (counts.astype(np.float64) @ wtab).tolist()

    # label = high << k | low, so high-major order lists the labels ascending
    k = code.k
    lows = [BitVector(k, i) for i in range(1 << k)]
    highs = [BitVector(len(rows) - k, h) for h in range(1 << (len(rows) - k))]
    if mode == MODE_X:
        keys = [SectorKey(b=high, kz=low) for high in highs for low in lows]
    else:
        keys = [SectorKey(a=high, kx=low) for high in highs for low in lows]
    table = dict(zip(keys, probs))
    dist = SectorDistribution(
        code_hash=code_hash(code),
        n=n,
        k=k,
        mode=mode,
        widths=widths,
        table=table,
        noise=noise,
    )
    dist.check()
    return dist


def sector_distribution_x(code: CssCode, px: float, threads: int = 1) -> SectorDistribution:
    """Exact (b, kz) table for independent X errors at rate px.

    Evaluates the coset weight enumerator over m = rank_z + k label bits;
    m ≤ MAX_LABEL_BITS. The table has exactly 2^m entries (each sector is
    realized by 2^(n − m) strings) and sums to 1 within 1e-12. threads is
    accepted for compatibility and has no effect.
    """
    if not 0.0 <= px <= 1.0:
        raise ValueError(f"px = {px} is not a probability")
    rows, widths = _x_side_functionals(code)
    return _factorized_distribution(
        code, px, rows, widths, MODE_X, {"px": px}
    )


def sector_distribution_z(code: CssCode, pz: float, threads: int = 1) -> SectorDistribution:
    """Exact (a, kx) table for independent Z errors at rate pz (mirror of X)."""
    if not 0.0 <= pz <= 1.0:
        raise ValueError(f"pz = {pz} is not a probability")
    rows, widths = _z_side_functionals(code)
    return _factorized_distribution(
        code, pz, rows, widths, MODE_Z, {"pz": pz}
    )


def sector_distribution_joint(
    code: CssCode, noise: PauliNoise, threads: int = 1
) -> SectorDistribution:
    """Exact (a, b, kx, kz) table for a general Pauli channel.

    Enumerates all 4^n pairs (Ex, Ez); n ≤ 13. An error applies X where
    Ex-only, Z where Ez-only, and Y where both overlap, so a pair's
    probability is (1−ptot)^(n−wx−wy−wz) · ptx^wx · pty^wy · ptz^wz with the
    species weights read off the element-wise overlaps.
    """
    n = code.n
    if n > MAX_JOINT_QUBITS:
        raise TooLarge(
            f"joint enumeration bound is n <= {MAX_JOINT_QUBITS}, got n = {n}"
        )
    x_rows, x_widths = _x_side_functionals(code)
    z_rows, z_widths = _z_side_functionals(code)
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

    k = code.k
    table: Dict[SectorKey, float] = {}
    for zi in range(1 << z_bits):
        kx = BitVector(k, zi & ((1 << k) - 1))
        a = BitVector(code.rank_x, zi >> k)
        for xi in range(1 << x_bits):
            kz = BitVector(k, xi & ((1 << k) - 1))
            b = BitVector(code.rank_z, xi >> k)
            table[SectorKey(a=a, b=b, kx=kx, kz=kz)] = float(probs[zi, xi])
    widths = {"a": code.rank_x, "b": code.rank_z, "kx": k, "kz": k}
    dist = SectorDistribution(
        code_hash=code_hash(code),
        n=n,
        k=k,
        mode=MODE_JOINT,
        widths=widths,
        table=table,
        noise={"ptx": noise.ptx, "pty": noise.pty, "ptz": noise.ptz},
    )
    dist.check()
    return dist


def marginalize(dist: SectorDistribution, keep: Iterable[str]) -> SectorDistribution:
    """Sum probabilities over every sector field not in `keep`.

    Accumulation follows the source table's canonical iteration order, so
    results are deterministic. The result's mode is the canonical one when
    the kept fields match it, else 'marginal'.
    """
    keep_set = frozenset(keep)
    present = frozenset(dist.widths)
    if not keep_set <= present:
        raise ValueError(f"cannot keep {sorted(keep_set - present)}: absent")
    out: Dict[SectorKey, float] = {}
    for key, p in dist.table.items():
        reduced = SectorKey(
            a=key.a if "a" in keep_set else None,
            b=key.b if "b" in keep_set else None,
            kx=key.kx if "kx" in keep_set else None,
            kz=key.kz if "kz" in keep_set else None,
        )
        out[reduced] = out.get(reduced, 0.0) + p
    if keep_set == {"b", "kz"}:
        mode = MODE_X
    elif keep_set == {"a", "kx"}:
        mode = MODE_Z
    elif keep_set == {"a", "b", "kx", "kz"}:
        mode = dist.mode
    else:
        mode = "marginal"
    widths = {f: w for f, w in dist.widths.items() if f in keep_set}
    return SectorDistribution(
        code_hash=dist.code_hash,
        n=dist.n,
        k=dist.k,
        mode=mode,
        widths=widths,
        table=out,
        noise=dist.noise,
    )


# ---------------------------------------------------------------------------
# JSON round-tripping
# ---------------------------------------------------------------------------

def _key_bitstring(key: SectorKey, widths: Dict[str, int]) -> str:
    parts = []
    for name in ("a", "b", "kx", "kz"):
        if name in widths:
            vec: BitVector = getattr(key, name)
            parts.append(vec.to01())
    return "".join(parts)


def to_json_dict(dist: SectorDistribution) -> dict:
    """JSON-ready dict: keys as hex of the concatenated (a|b|kx|kz) bits."""
    total_bits = sum(dist.widths.values())
    hex_width = max(1, (total_bits + 3) // 4)
    entries = {}
    for key, p in dist.table.items():
        bits = _key_bitstring(key, dist.widths)
        # First character of the bitstring is the lowest-order bit.
        value = int(bits[::-1], 2) if bits else 0
        entries[f"{value:0{hex_width}x}"] = p
    return {
        "code_hash": dist.code_hash,
        "n": dist.n,
        "k": dist.k,
        "mode": dist.mode,
        "widths": dict(dist.widths),
        "noise": dict(dist.noise),
        "table": entries,
    }


def from_json_dict(data: dict) -> SectorDistribution:
    """Inverse of to_json_dict (bit-exact on probabilities)."""
    widths = {str(f): int(w) for f, w in data["widths"].items()}
    total_bits = sum(widths.values())
    table: Dict[SectorKey, float] = {}
    for hex_key, p in data["table"].items():
        packed = int(hex_key, 16)
        bits = "".join(str((packed >> i) & 1) for i in range(total_bits))
        fields = {}
        pos = 0
        for name in ("a", "b", "kx", "kz"):
            if name in widths:
                w = widths[name]
                fields[name] = BitVector.from01(bits[pos : pos + w])
                pos += w
        table[SectorKey(**fields)] = float(p)
    return SectorDistribution(
        code_hash=str(data["code_hash"]),
        n=int(data["n"]),
        k=int(data["k"]),
        mode=str(data["mode"]),
        widths=widths,
        table=table,
        noise={str(k): float(v) for k, v in data.get("noise", {}).items()},
    )


def save_json(dist: SectorDistribution, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(to_json_dict(dist), fh, indent=1)
        fh.write("\n")


def load_json(path: str) -> SectorDistribution:
    with open(path, "r", encoding="ascii") as fh:
        return from_json_dict(json.load(fh))
