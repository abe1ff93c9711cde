"""Quenched-disorder Ising models dual to CSS sector probabilities.

Each X-error sector probability equals a partition function of a classical
spin model: one spin per X-check row, one multi-spin term per qubit whose
sign is set by the representative error (the quenched disorder), evaluated
at the coupling matched to the noise rate (nishimori_beta). Concretely

    P(sector) = Z / (2^degeneracy · (2 cosh beta)^n),

where the degeneracy exponent counts redundant check rows (gauge copies of
each configuration). The Z side mirrors this with Hz rows, and correlated
X/Z noise produces a two-register model whose per-qubit interaction has
three bracket couplings (x, z and a y cross-term coupling both registers).

partition_exact enumerates spin configurations, so it is limited to small
models; the mc module handles larger single-register models by sampling.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .channels import (
    MODE_JOINT,
    PauliNoise,
    SectorDistribution,
    sector_distribution_x,
    sector_distribution_z,
)
from .css import CssCode, TooLarge, sector_representatives
from .gf2 import BitMatrix, BitVector, kernel_basis

MAX_EXACT_SPINS = 24  # partition_exact streams 2^spins configurations
_LOW_BITS = 10  # spins enumerated inside each chunk's parity block
_CHUNK = 1 << 18  # multiply-adds per chunk; bigger products wake BLAS threads, a loss
_ROW_BLOCK = 1 << 12  # sign rows unpacked at once, so memory does not grow with sectors

SPECIES_X = "x"
SPECIES_Z = "z"
SPECIES_COUPLED = "coupled"

# Term families: which bracket coupling a term picks up. Single-register
# models use the family matching their species; the y family appears only in
# coupled models.
FAMILIES = ("x", "z", "y")


@dataclass(frozen=True)
class Couplings:
    """Bracket couplings (cx, cz, cy) multiplying the three term families.

    For a single-register model cx == cz == cy == beta (uniform). For the
    coupled model they come from the three effective inverse temperatures
    bt_i = -ln(rate_i / (1 - total_rate)) / 2 via

        cx = (bt_x - bt_z + bt_y) / 2
        cz = (bt_z - bt_x + bt_y) / 2
        cy = (bt_x + bt_z - bt_y) / 2
    """

    cx: float
    cz: float
    cy: float

    @classmethod
    def uniform(cls, beta: float) -> "Couplings":
        return cls(beta, beta, beta)

    @classmethod
    def from_pauli(cls, noise: PauliNoise) -> "Couplings":
        rest = 1.0 - noise.ptot
        if min(noise.ptx, noise.pty, noise.ptz) <= 0.0 or rest <= 0.0:
            raise ValueError(
                "coupled-model couplings need strictly positive X, Y, Z rates "
                "and total rate < 1 (a zero rate means an infinite coupling)"
            )
        bt_x = -0.5 * math.log(noise.ptx / rest)
        bt_z = -0.5 * math.log(noise.ptz / rest)
        bt_y = -0.5 * math.log(noise.pty / rest)
        return cls(
            cx=(bt_x - bt_z + bt_y) / 2.0,
            cz=(bt_z - bt_x + bt_y) / 2.0,
            cy=(bt_x + bt_z - bt_y) / 2.0,
        )

    def for_family(self, family: str) -> float:
        if family == "x":
            return self.cx
        if family == "z":
            return self.cz
        if family == "y":
            return self.cy
        raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class SmModel:
    """A disorder realization of the dual spin model, held as parallel arrays.

    Term t is signs[t] * prod(spins in the int bitmask masks[t]), coupled by
    families[t]. Only signs depend on the sector, so per-sector loops build
    one model per (code, side) and pass partition_sums one sign row per sector.

    sigma_spins is the size of the first register (equal to num_spins for
    single-register models); coupled models append the second register after
    it. symmetry_basis spans the spin flips that leave every term invariant
    (left null vectors of the check matrices), so Z is a 2**degeneracy_exponent
    -fold sum over gauge copies.
    """

    num_spins: int
    masks: Tuple[int, ...]
    families: Tuple[str, ...]
    signs: Tuple[int, ...]
    symmetry_basis: Tuple[BitVector, ...]
    degeneracy_exponent: int
    species: str
    sigma_spins: int


def mask_sites(mask: int) -> Tuple[int, ...]:
    """Spin indices set in a term mask, lowest first."""
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def nishimori_beta(p: float) -> float:
    """Coupling matched to flip rate p: exp(-2*beta) = p / (1 - p)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"nishimori_beta needs 0 < p < 1, got {p}")
    beta = 0.5 * math.log((1.0 - p) / p)
    if not math.isfinite(beta):
        raise ValueError(f"nishimori_beta({p}) is not finite: (1 - p)/p overflows")
    return beta


def _signs(e_rep: BitVector) -> Tuple[int, ...]:
    """Per-qubit term signs (-1)**e_rep[l]."""
    return tuple(1 - 2 * (e_rep.bits >> l & 1) for l in range(e_rep.n))


def _single_register(h: BitMatrix, e_rep: BitVector, species: str) -> SmModel:
    if len(e_rep) != h.cols:
        raise ValueError(f"e_rep has length {len(e_rep)}, expected {h.cols}")
    # Column l of h, read as an int over the rows, is the spin mask of qubit l.
    columns = h.transpose()
    sym = tuple(kernel_basis(columns).row_list())
    return SmModel(
        num_spins=h.rows,
        masks=columns.row_bits,
        families=(species,) * h.cols,
        signs=_signs(e_rep),
        symmetry_basis=sym,
        degeneracy_exponent=len(sym),
        species=species,
        sigma_spins=h.rows,
    )


def build_sm_x(code: CssCode, e_rep: BitVector) -> SmModel:
    """Spin model whose Z equals an X-error sector probability (up to norm).

    One spin per row of Hx; qubit l contributes sign (-1)**e_rep[l] times the
    product of spins whose X check touches l.
    """
    return _single_register(code.Hx, e_rep, SPECIES_X)


def build_sm_z(code: CssCode, e_rep: BitVector) -> SmModel:
    """Mirror of build_sm_x for Z errors: one spin per row of Hz."""
    return _single_register(code.Hz, e_rep, SPECIES_Z)


def _coupled_signs(ex_rep: BitVector, ez_rep: BitVector) -> Tuple[int, ...]:
    """Per-qubit (sx, sz, sx*sz) sign triples, flattened in term order."""
    pairs = zip(_signs(ex_rep), _signs(ez_rep))
    return tuple(s for sx, sz in pairs for s in (sx, sz, sx * sz))


def build_sm_coupled(code: CssCode, ex_rep: BitVector, ez_rep: BitVector) -> SmModel:
    """Two-register model for correlated X/Z noise.

    Register one holds the Hx spins, register two the Hz spins (offset by
    sigma_spins). Each qubit contributes an x term (first register), a z term
    (second register), and a y term on the union of both supports, with signs
    (-1)**ex, (-1)**ez and their product. The model is noise-independent:
    couplings are supplied at evaluation time.
    """
    if len(ex_rep) != code.n or len(ez_rep) != code.n:
        raise ValueError("representative errors must have length n")
    m_x, m_z = code.Hx.rows, code.Hz.rows
    sigma_cols, tau_cols = code.Hx.transpose(), code.Hz.transpose()
    masks: List[int] = []
    for sigma, tau in zip(sigma_cols.row_bits, tau_cols.row_bits):
        masks += (sigma, tau << m_x, sigma | tau << m_x)
    sym = [BitVector(m_x + m_z, v) for v in kernel_basis(sigma_cols).row_bits]
    sym += [BitVector(m_x + m_z, w << m_x) for w in kernel_basis(tau_cols).row_bits]
    return SmModel(
        num_spins=m_x + m_z,
        masks=tuple(masks),
        families=("x", "z", "y") * code.n,
        signs=_coupled_signs(ex_rep, ez_rep),
        symmetry_basis=tuple(sym),
        degeneracy_exponent=len(sym),
        species=SPECIES_COUPLED,
        sigma_spins=m_x,
    )


# ---------------------------------------------------------------------------
# Exact evaluation
# ---------------------------------------------------------------------------


def _parity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(-1)**popcount(a & b), broadcast: the +-1 parity matrix of spins and terms."""
    return 1.0 - 2.0 * (np.bitwise_count(a & b) & np.uint8(1))


def _parity_blocks(model: SmModel) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parts of every sum over model that do not depend on its signs.

    The high block P[hi, t] pairs each term with each configuration of the
    bits above _LOW_BITS, the low block P[t, lo] with each configuration of
    the bits below, and family[t] indexes the term's coupling in FAMILIES.
    """
    masks = np.array(model.masks, dtype=np.uint64)
    low = min(model.num_spins, _LOW_BITS)
    hi = np.arange(0, 1 << model.num_spins, 1 << low, dtype=np.uint64)
    lo = np.arange(1 << low, dtype=np.uint64)
    family = np.array([FAMILIES.index(f) for f in model.families], dtype=np.intp)
    return _parity(hi[:, None], masks), _parity(masks[:, None], lo), family


def _exponent_chunks(weights: np.ndarray, blocks) -> Iterator[np.ndarray]:
    """sum_t weights[t] * prod(spins of term t) for every configuration c, in order.

    Spin i of c is (-1)**bit_i(c), so the exponents are P @ weights with the
    parity matrix P[c, t] = (-1)**popcount(c & mask_t). P factors over the
    configuration bits below and above _LOW_BITS, so each chunk of high rows
    is one product with the low block, at most _CHUNK multiply-adds. blocks
    is _parity_blocks(model).
    """
    high, low, _ = blocks
    rows = max(1, _CHUNK // (max(1, high.shape[1]) * low.shape[1]))
    for start in range(0, len(high), rows):
        yield ((high[start:start + rows] * weights) @ low).ravel()


def _check_exact_size(model: SmModel) -> None:
    """Refuse models past MAX_EXACT_SPINS, before any mask meets uint64."""
    if model.num_spins > MAX_EXACT_SPINS:
        raise TooLarge(
            f"exact partition sum over 2**{model.num_spins} configurations "
            f"exceeds the {MAX_EXACT_SPINS}-spin limit"
        )


def partition_exact(model: SmModel, couplings: Couplings, blocks=None) -> float:
    """ln Z by exhaustive enumeration (num_spins <= MAX_EXACT_SPINS). blocks,
    if given, is _parity_blocks(model), which does not depend on the signs."""
    _check_exact_size(model)
    blocks = _parity_blocks(model) if blocks is None else blocks
    coupling = np.array([couplings.for_family(f) for f in FAMILIES])
    weights = np.asarray(model.signs) * coupling[blocks[2]]
    ln_z = -math.inf
    for expo in _exponent_chunks(weights, blocks):
        shift = float(expo.max())
        part = shift + math.log(float(np.exp(expo - shift).sum()))
        ln_z = max(ln_z, part) + math.log1p(math.exp(-abs(ln_z - part)))
    return ln_z


def partition_sums(
    model: SmModel, sign_rows: Iterable[Sequence[int]], couplings: Couplings
) -> Iterator[float]:
    """ln Z of model with each row of term signs in turn, read lazily, one
    sector at a time; the parity blocks are built once for all rows."""
    _check_exact_size(model)
    blocks = _parity_blocks(model)
    head = (model.num_spins, model.masks, model.families)
    tail = (model.symmetry_basis, model.degeneracy_exponent, model.species,
            model.sigma_spins)
    for signs in sign_rows:
        # positional, in field order: half the cost of dataclasses.replace
        yield partition_exact(SmModel(*head, signs, *tail), couplings, blocks)


def log_normalization(
    couplings: Couplings, n: int, degeneracy_exponent: int, species: str
) -> float:
    """ln of the factor turning Z into a sector probability.

    Single register: -degeneracy*ln2 - n*ln(2 cosh beta). Coupled: the same
    degeneracy term with the per-qubit constant of the three-bracket weight,
    -ln(1 + sum_i exp(-2*bt_i)) - (cx + cz + cy) per qubit.
    """
    if species == SPECIES_COUPLED:
        bt_x = couplings.cx + couplings.cy
        bt_z = couplings.cz + couplings.cy
        bt_y = couplings.cx + couplings.cz
        per_qubit = -math.log1p(
            math.exp(-2.0 * bt_x) + math.exp(-2.0 * bt_z) + math.exp(-2.0 * bt_y)
        ) - (couplings.cx + couplings.cz + couplings.cy)
    else:
        beta = couplings.for_family(species)
        per_qubit = -math.log(2.0 * math.cosh(beta))
    return n * per_qubit - degeneracy_exponent * math.log(2.0)


def log_sector_probability(
    model: SmModel, couplings: Couplings, n: int
) -> float:
    """ln P(sector) = ln Z + normalization, for any species."""
    return partition_exact(model, couplings) + log_normalization(
        couplings, n, model.degeneracy_exponent, model.species
    )


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """Worst-case agreement between spin-model and enumerated probabilities.

    times holds the seconds per stage: the sector table ("table", when the
    check built it), the representatives ("rows"), their sign rows and sums
    ("sums").
    """

    sectors_checked: int
    max_abs_dev: float
    num_spins: int  # each sector enumerated 2**num_spins configurations
    times: Dict[str, float] = field(compare=False)


def _sign_blocks(n: int, reps: Iterable[int]) -> Iterator[np.ndarray]:
    """Per-qubit signs (-1)**bit_l(e) of each representative e, as int8 rows.

    Representatives are read lazily, _ROW_BLOCK at a time, and each block is
    unpacked from little-endian bytes at once; row for row this equals
    _signs(BitVector(n, e)).
    """
    width = (n + 7) // 8
    reps = iter(reps)
    while block := list(islice(reps, _ROW_BLOCK)):
        packed = np.frombuffer(
            b"".join(e.to_bytes(width, "little") for e in block), dtype=np.uint8
        ).reshape(len(block), width)
        bits = np.unpackbits(packed, axis=1, count=n, bitorder="little")
        yield 1 - 2 * bits.astype(np.int8)


def _coupled_sign_blocks(
    n: int, reps_x: Sequence[int], reps_z: Iterable[int]
) -> Iterator[np.ndarray]:
    """Rows of _coupled_signs(ex, ez), Z outer and X inner (the joint index
    z_label << m_x | x_label), in blocks of at most _ROW_BLOCK rows."""
    for sz in chain.from_iterable(_sign_blocks(n, reps_z)):
        for sx in _sign_blocks(n, reps_x):
            triples = (sx, np.broadcast_to(sz, sx.shape), sx * sz)
            yield np.stack(triples, axis=2).reshape(len(sx), 3 * n)


def _identity_report(base, sign_rows, couplings, n, p_true, times) -> IdentityReport:
    """Worst |normalized Z - p| over sectors given as sign rows of base; NaN
    if any deviation is NaN (np.max propagates it, max() would drop it).
    times gains the seconds spent on the rows and their sums ("sums")."""
    ln_norm = log_normalization(couplings, n, base.degeneracy_exponent, base.species)
    start = time.perf_counter()
    devs = np.fromiter(
        (abs(math.exp(ln_z + ln_norm) - p)
         for ln_z, p in zip(partition_sums(base, sign_rows, couplings), p_true)),
        float, count=len(p_true),
    )
    times["sums"] = time.perf_counter() - start
    return IdentityReport(len(p_true), float(np.max(devs)), base.num_spins, times)


def verify_sector_identity(
    code: CssCode, p: float, side: str = "x"
) -> IdentityReport:
    """Check P(sector) == normalized Z across every sector of one side.

    The side's model is built once; each sector swaps in only its signs.
    """
    couplings = Couplings.uniform(nishimori_beta(p))
    zero = BitVector(code.n, 0)
    start = time.perf_counter()
    if side == "x":
        dist, base = sector_distribution_x(code, p), build_sm_x(code, zero)
    elif side == "z":
        dist, base = sector_distribution_z(code, p), build_sm_z(code, zero)
    else:
        raise ValueError(f"side must be 'x' or 'z', got {side!r}")
    table = time.perf_counter()
    reps = sector_representatives(code, side)
    times = {"table": table - start, "rows": time.perf_counter() - table}
    rows = chain.from_iterable(_sign_blocks(code.n, reps))
    return _identity_report(base, rows, couplings, code.n, dist.table.tolist(), times)


def verify_sector_identity_coupled(
    code: CssCode, noise: PauliNoise, dist: SectorDistribution
) -> IdentityReport:
    """Check the two-register model against a joint sector table."""
    if dist.mode != MODE_JOINT:
        raise ValueError(f"dist must be {MODE_JOINT}, got {dist.mode}")
    if dist.widths != {"a": code.rank_x, "b": code.rank_z, "kx": code.k, "kz": code.k}:
        raise ValueError("dist's sector label widths do not match the code")
    couplings = Couplings.from_pauli(noise)
    base = build_sm_coupled(code, BitVector(code.n, 0), BitVector(code.n, 0))
    start = time.perf_counter()
    reps_x, reps_z = (sector_representatives(code, side) for side in "xz")
    times = {"rows": time.perf_counter() - start}
    rows = chain.from_iterable(_coupled_sign_blocks(code.n, reps_x, reps_z))
    return _identity_report(base, rows, couplings, code.n, dist.table.tolist(), times)


@dataclass(frozen=True)
class KwReport:
    """Residuals of the high/low temperature duality between the two sides.

    The homology-summed form is an identity: the trivial-syndrome X-side mass
    summed over logical classes matches the Z-side trivial sector at the dual
    coupling exactly. The raw form keeps only the trivial logical class on
    the left, so its residual measures the weight of nontrivial classes
    (negligible deep in the ordered phase, order one near criticality).
    """

    beta_x: float
    beta_z: float
    raw_residual: float
    summed_residual: float


def kw_check(code: CssCode, beta_x: float) -> KwReport:
    """Evaluate both duality residuals at coupling beta_x (> 0)."""
    if beta_x <= 0.0:
        raise ValueError("kw_check needs beta_x > 0 so tanh(beta_x) > 0")
    t = math.tanh(beta_x)
    beta_z = -0.5 * math.log(t)
    try:
        p_x = 1.0 / (1.0 + math.exp(2.0 * beta_x))
        p_z = 1.0 / (1.0 + math.exp(2.0 * beta_z))
    except OverflowError:
        raise ValueError(
            f"beta_x = {beta_x} is out of range: exp(2*beta) overflows for "
            f"beta_x or its dual beta_z = {beta_z}"
        ) from None
    trivial_x = sector_distribution_x(code, p_x).by_syndrome()[0]  # b = 0
    trivial_z = sector_distribution_z(code, p_z).by_syndrome()[0, 0]
    summed = math.fsum(trivial_x.tolist())
    raw = float(trivial_x[0])
    rhs = (
        code.n * math.log1p(t)
        - code.rank_z * math.log(2.0)
        + math.log(trivial_z)
    )
    return KwReport(
        beta_x=beta_x,
        beta_z=beta_z,
        raw_residual=abs(math.log(raw) - rhs),
        summed_residual=abs(math.log(summed) - rhs),
    )


def domain_wall_free_energy(
    code: CssCode, p: float, k_shift: BitVector
) -> float:
    """Disorder-averaged free-energy cost (bits) of a logical twist.

    Sum over every X-error sector of P(b, kz) * log2[P(b, kz) / P(b,
    kz + k_shift)], with each probability obtained through a partition sum
    (never the error enumerator), so this is an independent route to the
    relative entropy between the two logical sectors. Large when the noise is
    recoverable, zero at p = 0.5.
    """
    if len(k_shift) != code.k:
        raise ValueError(f"k_shift must have length k={code.k}")
    if k_shift.is_zero():
        raise ValueError("k_shift must be nonzero (the cost is trivially 0)")
    beta = nishimori_beta(p)
    couplings = Couplings.uniform(beta)
    ln_norm = log_normalization(couplings, code.n, code.Dx, SPECIES_X)
    base = build_sm_x(code, BitVector(code.n, 0))
    _check_exact_size(base)  # before the 2^(rank_z + k) representatives
    sign_rows = chain.from_iterable(
        _sign_blocks(code.n, sector_representatives(code, "x"))
    )
    ln_z = np.fromiter(partition_sums(base, sign_rows, couplings), float)
    ln_z = ln_z.reshape(-1, 1 << code.k)
    partner = ln_z[:, np.arange(ln_z.shape[1]) ^ k_shift.bits]
    prob = np.exp(ln_z + ln_norm)
    return float((prob * (ln_z - partner)).sum()) / math.log(2.0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def sm_to_json_dict(
    model: SmModel, couplings: Optional[Couplings] = None
) -> dict:
    out = {
        "format": "sm-model v1",
        "species": model.species,
        "num_spins": model.num_spins,
        "sigma_spins": model.sigma_spins,
        "degeneracy_exponent": model.degeneracy_exponent,
        "terms": [
            {"sites": list(mask_sites(mask)), "sign": sign, "family": family}
            for mask, sign, family in zip(model.masks, model.signs, model.families)
        ],
        "symmetry_basis": [v.to01() for v in model.symmetry_basis],
    }
    if couplings is not None:
        out["couplings"] = {
            "cx": couplings.cx,
            "cz": couplings.cz,
            "cy": couplings.cy,
        }
    return out


def sm_from_json_dict(data: dict) -> Tuple[SmModel, Optional[Couplings]]:
    if data.get("format") != "sm-model v1":
        raise ValueError(f"unsupported model format {data.get('format')!r}")
    num_spins, terms = data["num_spins"], data["terms"]
    if any(t["sign"] not in (+1, -1) or t["family"] not in FAMILIES for t in terms):
        raise ValueError(f"term signs must be +-1 and families one of {FAMILIES}")
    sites = [tuple(t["sites"]) for t in terms]
    masks = tuple(sum(1 << i for i in s) for s in sites)
    if any(m >> num_spins or mask_sites(m) != s for m, s in zip(masks, sites)):
        raise ValueError(f"term sites must be increasing spin indices < {num_spins}")
    sym = tuple(BitVector.from01(s) for s in data["symmetry_basis"])
    model = SmModel(
        num_spins=num_spins,
        masks=masks,
        families=tuple(t["family"] for t in terms),
        signs=tuple(t["sign"] for t in terms),
        symmetry_basis=sym,
        degeneracy_exponent=data["degeneracy_exponent"],
        species=data["species"],
        sigma_spins=data["sigma_spins"],
    )
    couplings = None
    if "couplings" in data:
        c = data["couplings"]
        couplings = Couplings(cx=c["cx"], cz=c["cz"], cy=c["cy"])
    return model, couplings


def save_model_json(
    path: str, model: SmModel, couplings: Optional[Couplings] = None
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sm_to_json_dict(model, couplings), fh, indent=1)
        fh.write("\n")


def load_model_json(path: str) -> Tuple[SmModel, Optional[Couplings]]:
    with open(path, "r", encoding="utf-8") as fh:
        return sm_from_json_dict(json.load(fh))
