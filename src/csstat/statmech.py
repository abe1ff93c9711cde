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
The two-register model is the X-side and Z-side models side by side
(build_sm_coupled composes build_sm_x and build_sm_z) plus the y terms.

A model stores its term masks and signs, species and register split; its
term families, symmetry basis and normalization sizes are derived from them,
so a model, even one read back from an sm-export file, cannot contradict
itself.

Each sector's representative is the XOR of css.label_generators at its
label's set bits, so the term signs of all 2^m sectors of a side are one
parity matrix of labels against per-term masks (_sector_masks, _sector_signs).

partition_exact enumerates spin configurations, so it is limited to small
models; the mc module handles larger single-register models by sampling.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .channels import (
    MAX_SUPPORT_BITS,
    MODE_JOINT,
    PauliNoise,
    SectorDistribution,
    exact_sum,
    sector_distribution_x,
    sector_distribution_z,
)
from .css import CssCode, TooLarge, label_functionals, label_generators
from .gf2 import BitMatrix, BitVector, kernel_basis

MAX_EXACT_SPINS = 24  # partition_exact streams 2^spins configurations
MAX_SECTOR_LOOP_BITS = 36  # a sector loop sums 2^m sectors x 2^spins configurations
_LOW_BITS = 10  # spins enumerated inside each chunk's parity block
_CHUNK = 1 << 18  # multiply-adds per chunk; bigger products wake BLAS threads, a loss
_ROW_BLOCK = 1 << 12  # sign rows built at once, so memory does not grow with sectors

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
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        return getattr(self, "c" + family)


@dataclass(frozen=True)
class SmModel:
    """A disorder realization of the dual spin model, held as parallel arrays.

    Term t is signs[t] * prod(spins in the int bitmask masks[t]), coupled by
    families[t]. Only signs depend on the sector, so per-sector loops build
    one model per (code, side) and pass partition_sums blocks of sign rows,
    one row per sector.

    sigma_spins is the size of the first register (equal to num_spins for
    single-register models); coupled models append the second register after
    it. These five fields are all a model stores. families, symmetry_basis
    and degeneracy_exponent are derived from the masks and the species.
    """

    num_spins: int
    masks: Tuple[int, ...]
    signs: Tuple[int, ...]
    species: str
    sigma_spins: int

    @property
    def families(self) -> Tuple[str, ...]:
        """Each term's coupling family: the species, or x, z, y per qubit."""
        if self.species == SPECIES_COUPLED:
            return FAMILIES * (len(self.masks) // 3)
        return (self.species,) * len(self.masks)

    @cached_property
    def symmetry_basis(self) -> Tuple[BitVector, ...]:
        """Canonical basis of the spin flips that leave every term invariant,
        so Z is a 2**degeneracy_exponent-fold sum over gauge copies."""
        return tuple(kernel_basis(BitMatrix(self.num_spins, self.masks)).row_list())

    @property
    def degeneracy_exponent(self) -> int:
        """len(symmetry_basis): log2 of the gauge copies of each configuration."""
        return len(self.symmetry_basis)


def mask_sites(mask: int) -> Tuple[int, ...]:
    """Spin indices set in a term mask (>= 0), lowest first, one step per set bit."""
    sites = []
    while mask > 0:
        sites.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(sites)


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
    return SmModel(
        num_spins=h.rows,
        masks=h.transpose().row_bits,
        signs=_signs(e_rep),
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


def _coupled_masks(sigma: Sequence[int], tau: Sequence[int], shift: int) -> tuple:
    """Per-qubit (x, z, y) term masks, the second register shifted up by shift."""
    return tuple(m for s, t in zip(sigma, tau) for m in (s, t << shift, s | t << shift))


def build_sm_coupled(code: CssCode, ex_rep: BitVector, ez_rep: BitVector) -> SmModel:
    """Two-register model for correlated X/Z noise.

    Register one holds the Hx spins, register two the Hz spins (offset by
    sigma_spins). Each qubit contributes an x term (first register), a z term
    (second register), and a y term on the union of both supports, with signs
    (-1)**ex, (-1)**ez and their product. The model is noise-independent:
    couplings are supplied at evaluation time. The registers and their x
    and z terms are those of build_sm_x and build_sm_z.
    """
    sigma, tau = build_sm_x(code, ex_rep), build_sm_z(code, ez_rep)
    shift = sigma.num_spins
    return SmModel(
        num_spins=shift + tau.num_spins,
        masks=_coupled_masks(sigma.masks, tau.masks, shift),
        signs=tuple(s for x, z in zip(sigma.signs, tau.signs) for s in (x, z, x * z)),
        species=SPECIES_COUPLED,
        sigma_spins=shift,
    )


# ---------------------------------------------------------------------------
# Exact evaluation
# ---------------------------------------------------------------------------


def _parity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(-1)**popcount(a & b), broadcast: the +-1 parity matrix of spins and terms."""
    return 1.0 - 2.0 * (np.bitwise_count(a & b) & np.uint8(1))


def _parity_blocks(model: SmModel, couplings: Couplings) -> Tuple[np.ndarray, ...]:
    """The parts of every sum over model that do not depend on its signs:
    the high block P[hi, t] over the configurations of the bits above
    _LOW_BITS, and the low block c_t * P[t, lo] over those below, each term's
    parity times its family coupling c_t."""
    masks = np.array(model.masks, dtype=np.uint64)
    low = min(model.num_spins, _LOW_BITS)
    hi = np.arange(0, 1 << model.num_spins, 1 << low, dtype=np.uint64)
    lo = np.arange(1 << low, dtype=np.uint64)
    coupling = np.array([couplings.for_family(f) for f in model.families])
    return _parity(hi[:, None], masks), coupling[:, None] * _parity(masks[:, None], lo)


def _check_exact_size(num_spins: int) -> None:
    """Refuse models past MAX_EXACT_SPINS, before any mask meets uint64."""
    if num_spins > MAX_EXACT_SPINS:
        raise TooLarge(
            f"exact partition sum over 2**{num_spins} configurations "
            f"exceeds the {MAX_EXACT_SPINS}-spin limit"
        )


def check_sector_loop(code: CssCode, side: str) -> None:
    """Raise TooLarge unless a loop over every sector of side "x", "z" or
    "coupled" fits: its model within MAX_EXACT_SPINS spins, and its 2^m
    sectors of 2^spins configurations each within 2^MAX_SECTOR_LOOP_BITS.
    It reads only the code's sizes, so a loop calls it before it builds any
    table, parity block or sign row."""
    sides = ("x", "z") if side == SPECIES_COUPLED else (side,)
    m = sum(len(label_functionals(code, s)[0]) for s in sides)
    spins = sum((code.Hx if s == "x" else code.Hz).rows for s in sides)
    _check_exact_size(spins)
    if m + spins > MAX_SECTOR_LOOP_BITS:
        raise TooLarge(
            f"sector loop sums 2**{m} sectors x 2**{spins} configurations "
            f"(m = {m} label bits, {spins} spins) = 2**{m + spins}, past its "
            f"2**{MAX_SECTOR_LOOP_BITS} bound"
        )


def partition_exact(model: SmModel, couplings: Couplings, blocks=None) -> float:
    """ln Z by exhaustive enumeration (num_spins <= MAX_EXACT_SPINS).

    The exponents are P @ (signs * couplings) for the parity matrix
    P[c, t] = (-1)**popcount(c & mask_t), which factors over the bits above
    and below _LOW_BITS: each chunk of high rows is one product
    (high * signs) @ low of at most _CHUNK multiply-adds. blocks, if given,
    is _parity_blocks(model, couplings)."""
    _check_exact_size(model.num_spins)
    high, low = _parity_blocks(model, couplings) if blocks is None else blocks
    rows = max(1, _CHUNK // (max(1, high.shape[1]) * low.shape[1]))
    ln_z = -math.inf
    for start in range(0, len(high), rows):
        expo = (high[start:start + rows] * model.signs) @ low
        shift = float(np.maximum.reduce(expo, axis=None))
        np.exp(np.subtract(expo, shift, out=expo), out=expo)
        part = shift + math.log(np.add.reduce(expo, axis=None))
        ln_z = max(ln_z, part) + math.log1p(math.exp(-abs(ln_z - part)))
    return ln_z


def partition_sums(
    model: SmModel, sign_blocks: Iterable[np.ndarray], couplings: Couplings
) -> Iterator[float]:
    """ln Z of model with each row of term signs in turn, from 2-D blocks of
    rows read lazily; the parity blocks are built once for all rows."""
    _check_exact_size(model.num_spins)
    blocks = _parity_blocks(model, couplings)
    head = (model.num_spins, model.masks)
    tail = (model.species, model.sigma_spins)
    for block in sign_blocks:
        for signs in block:
            # positional, in field order: half the cost of dataclasses.replace
            yield partition_exact(SmModel(*head, signs, *tail), couplings, blocks)


def _sector_masks(code: CssCode, side: str) -> Tuple[np.ndarray, int]:
    """(masks, m): term t's sign in the sector labelled u is _parity(u,
    masks[t]), for the m-bit labels of side "x", "z" or "coupled".

    Qubit l's mask is column l of the label generators. Coupled terms follow
    build_sm_coupled over the joint label z_label << m_x | x_label, whose two
    bit ranges are disjoint, so each y sign is the x sign times the z sign.
    Raises TooLarge if m > MAX_SUPPORT_BITS (labels are packed into uint64).
    """
    coupled = side == SPECIES_COUPLED
    gens = [label_generators(code, s) for s in (("x", "z") if coupled else (side,))]
    cols = [BitMatrix(code.n, tuple(g)).transpose().row_bits for g in gens]
    m = sum(map(len, gens))
    if m > MAX_SUPPORT_BITS:
        raise TooLarge(
            f"sector labels of m = {m} bits exceed the {MAX_SUPPORT_BITS}-bit "
            f"uint64 label limit"
        )
    masks = _coupled_masks(*cols, len(gens[0])) if coupled else cols[0]
    return np.array(masks, dtype=np.uint64), m


def _sector_signs(masks: np.ndarray, m: int) -> Iterator[np.ndarray]:
    """Sign rows of all 2**m sectors in label order, _ROW_BLOCK rows a block:
    row u is _parity(u, masks)."""
    for start in range(0, 1 << m, _ROW_BLOCK):
        labels = np.arange(start, min(start + _ROW_BLOCK, 1 << m), dtype=np.uint64)
        yield _parity(labels[:, None], masks)


def log_normalization(model: SmModel, couplings: Couplings) -> float:
    """ln of the factor turning model's Z into a sector probability.

    Single register, one term per qubit: -degeneracy*ln2 - n*ln(2 cosh
    beta). Coupled, three terms per qubit: the same degeneracy term with the
    per-qubit constant of the three-bracket weight, -ln(1 + sum_i
    exp(-2*bt_i)) - (cx + cz + cy) per qubit.
    """
    n = len(model.masks)
    if model.species == SPECIES_COUPLED:
        n //= 3
        bt_x = couplings.cx + couplings.cy
        bt_z = couplings.cz + couplings.cy
        bt_y = couplings.cx + couplings.cz
        per_qubit = -math.log1p(
            math.exp(-2.0 * bt_x) + math.exp(-2.0 * bt_z) + math.exp(-2.0 * bt_y)
        ) - (couplings.cx + couplings.cz + couplings.cy)
    else:
        beta = couplings.for_family(model.species)
        per_qubit = -math.log(2.0 * math.cosh(beta))
    return n * per_qubit - model.degeneracy_exponent * math.log(2.0)


def log_sector_probability(model: SmModel, couplings: Couplings) -> float:
    """ln P(sector) = ln Z + normalization, for any species."""
    return partition_exact(model, couplings) + log_normalization(model, couplings)


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """Worst-case agreement between spin-model and enumerated probabilities.

    times holds the seconds per stage: the sector table ("table", when the
    check built it), the label generator columns ("rows"), the sign rows and
    their sums ("sums").
    """

    sectors_checked: int
    max_abs_dev: float
    num_spins: int  # each sector enumerated 2**num_spins configurations
    times: Dict[str, float] = field(compare=False)


def _identity_report(base, masks, couplings, p_true, times) -> IdentityReport:
    """Worst |normalized Z - p| over the sectors of the side whose
    _sector_masks are masks; NaN if any deviation is NaN (np.max propagates
    it, max() would drop it). times gains the seconds spent on the sign rows
    and their sums ("sums")."""
    ln_norm = log_normalization(base, couplings)
    start = time.perf_counter()
    ln_z = partition_sums(base, _sector_signs(*masks), couplings)
    devs = np.fromiter(
        (abs(math.exp(v + ln_norm) - p) for v, p in zip(ln_z, p_true)),
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
    check_sector_loop(code, side)
    zero = BitVector(code.n, 0)
    start = time.perf_counter()
    if side == "x":
        dist, base = sector_distribution_x(code, p), build_sm_x(code, zero)
    elif side == "z":
        dist, base = sector_distribution_z(code, p), build_sm_z(code, zero)
    else:
        raise ValueError(f"side must be 'x' or 'z', got {side!r}")
    table = time.perf_counter()
    masks = _sector_masks(code, side)
    times = {"table": table - start, "rows": time.perf_counter() - table}
    return _identity_report(base, masks, couplings, dist.table.tolist(), times)


def verify_sector_identity_coupled(
    code: CssCode, noise: PauliNoise, dist: SectorDistribution
) -> IdentityReport:
    """Check the two-register model against a joint sector table."""
    if dist.mode != MODE_JOINT:
        raise ValueError(f"dist must be {MODE_JOINT}, got {dist.mode}")
    if dist.widths != {**label_functionals(code, "x")[1], **label_functionals(code, "z")[1]}:
        raise ValueError("dist's sector label widths do not match the code")
    couplings = Couplings.from_pauli(noise)
    check_sector_loop(code, SPECIES_COUPLED)
    base = build_sm_coupled(code, BitVector(code.n, 0), BitVector(code.n, 0))
    start = time.perf_counter()
    masks = _sector_masks(code, SPECIES_COUPLED)
    times = {"rows": time.perf_counter() - start}
    return _identity_report(base, masks, couplings, dist.table.tolist(), times)


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
    """Evaluate both duality residuals at a finite coupling beta_x > 0."""
    if not 0.0 < beta_x < math.inf:  # NaN fails too
        raise ValueError(
            f"kw_check needs a finite beta_x > 0 so tanh(beta_x) > 0, got {beta_x}"
        )
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
    summed = exact_sum(trivial_x)
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
    couplings = Couplings.uniform(nishimori_beta(p))
    check_sector_loop(code, SPECIES_X)
    base = build_sm_x(code, BitVector(code.n, 0))
    ln_norm = log_normalization(base, couplings)
    sign_blocks = _sector_signs(*_sector_masks(code, SPECIES_X))
    ln_z = np.fromiter(partition_sums(base, sign_blocks, couplings), float)
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
        out["couplings"] = asdict(couplings)
    return out


_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list",
          dict: "an object"}
_MODEL_FIELDS = {"species": str, "num_spins": int, "sigma_spins": int,
                 "degeneracy_exponent": int, "terms": list, "symmetry_basis": list}
_TERM_FIELDS = {"sites": list, "sign": int, "family": str}


def _expect_json(value, kind: type, what: str):
    """value, or ValueError unless it is a kind (an int counts as a float, and
    a bool as neither)."""
    if not isinstance(value, (int, float) if kind is float else kind) or isinstance(
        value, bool
    ):
        raise ValueError(f"{what} must be {_KINDS[kind]}, got {value!r:.40}")
    return value


def sm_from_json_dict(data: dict) -> Tuple[SmModel, Optional[Couplings]]:
    """Inverse of sm_to_json_dict. Raises ValueError on a missing or mistyped
    field or a non-finite coupling. The stored families, canonical basis and
    degeneracy must be the derived ones; a basis below D >= spins - terms
    vectors is refused first, so a short file builds no large kernel basis."""
    if _expect_json(data, dict, "an sm-model").get("format") != "sm-model v1":
        raise ValueError(f"unsupported model format {data.get('format')!r}")
    for key, kind in _MODEL_FIELDS.items():
        _expect_json(data.get(key), kind, key)
    for t in data["terms"]:
        for key, kind in _TERM_FIELDS.items():
            _expect_json(_expect_json(t, dict, "a term").get(key), kind, f"a term's {key}")
        for site in t["sites"]:
            _expect_json(site, int, "a term site")
    for v in data["symmetry_basis"]:
        _expect_json(v, str, "a symmetry_basis vector")
    num_spins, terms = data["num_spins"], data["terms"]
    if num_spins < 0:
        raise ValueError(f"num_spins must be >= 0, got {num_spins}")
    if any(t["sign"] not in (+1, -1) for t in terms):
        raise ValueError("term signs must be +-1")
    sites = [tuple(t["sites"]) for t in terms]
    masks = tuple(sum(1 << i for i in s) for s in sites)
    if any(m >> num_spins or mask_sites(m) != s for m, s in zip(masks, sites)):
        raise ValueError(f"term sites must be increasing spin indices < {num_spins}")
    species, sigma_spins = data["species"], data["sigma_spins"]
    if species not in (SPECIES_X, SPECIES_Z, SPECIES_COUPLED):
        raise ValueError(f"unknown species {species!r}")
    fits = range(num_spins + 1) if species == SPECIES_COUPLED else [num_spins]
    if sigma_spins not in fits:
        raise ValueError(f"sigma_spins = {sigma_spins} does not fit {num_spins} "
                         f"{species} spins")
    basis = data["symmetry_basis"]
    if any(len(v) != num_spins for v in basis) or len(basis) < num_spins - len(terms):
        raise ValueError(f"symmetry_basis needs at least num_spins - len(terms) "
                         f"vectors of {num_spins} bits")
    model = SmModel(
        num_spins=num_spins,
        masks=masks,
        signs=tuple(t["sign"] for t in terms),
        species=species,
        sigma_spins=sigma_spins,
    )
    stored = [t["family"] for t in terms], list(basis), data["degeneracy_exponent"]
    derived = (list(model.families), [v.to01() for v in model.symmetry_basis],
               model.degeneracy_exponent)
    if stored != derived:
        raise ValueError("stored term families, symmetry_basis or degeneracy_exponent "
                         "differ from those the masks and species derive")
    couplings = None
    if "couplings" in data:
        c = _expect_json(data["couplings"], dict, "couplings")
        values = {f: _expect_json(c.get(f), float, f) for f in ("cx", "cz", "cy")}
        for f, value in values.items():
            # json reads NaN, +-Infinity and integers beyond any float
            if not -sys.float_info.max <= value <= sys.float_info.max:
                raise ValueError(f"{f} must be finite, got {value!r:.40}")
        couplings = Couplings(**values)
    return model, couplings
