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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .channels import PauliNoise, sector_distribution_x, sector_distribution_z
from .css import CssCode, SectorKey, TooLarge, representative_x, representative_z
from .gf2 import BitMatrix, BitVector, kernel_basis

MAX_EXACT_SPINS = 24  # partition_exact streams 2^spins configurations
MAX_OBSERVABLE_SPINS = 18  # exact_observables holds them all in memory
_CHUNK = 1 << 20

SPECIES_X = "x"
SPECIES_Z = "z"
SPECIES_COUPLED = "coupled"

# Term families: which bracket coupling a term picks up. Single-register
# models use the family matching their species; the y family appears only in
# coupled models.
FAMILIES = ("x", "z", "y")


@dataclass(frozen=True)
class Term:
    """One multi-spin interaction: sign * prod(spins at sites)."""

    sites: Tuple[int, ...]
    sign: int  # +1 or -1, from the representative error bit(s)
    family: str

    def __post_init__(self) -> None:
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +-1, got {self.sign}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")


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
    """A disorder realization of the dual spin model.

    sigma_spins is the size of the first register (equal to num_spins for
    single-register models); coupled models append the second register after
    it. symmetry_basis spans the spin flips that leave every term invariant
    (left null vectors of the check matrices), so Z is a 2**degeneracy_exponent
    -fold sum over gauge copies.
    """

    num_spins: int
    terms: Tuple[Term, ...]
    symmetry_basis: Tuple[BitVector, ...]
    degeneracy_exponent: int
    species: str
    sigma_spins: int


def nishimori_beta(p: float) -> float:
    """Coupling matched to flip rate p: exp(-2*beta) = p / (1 - p)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"nishimori_beta needs 0 < p < 1, got {p}")
    return 0.5 * math.log((1.0 - p) / p)


def _column_support(h: BitMatrix, col: int) -> Tuple[int, ...]:
    return tuple(j for j, bits in enumerate(h.row_bits) if (bits >> col) & 1)


def _single_register(
    h: BitMatrix, e_rep: BitVector, n: int, species: str
) -> SmModel:
    terms = tuple(
        Term(
            sites=_column_support(h, col),
            sign=-1 if e_rep[col] else +1,
            family=species,
        )
        for col in range(n)
    )
    sym = tuple(kernel_basis(h.transpose()).row_list())
    return SmModel(
        num_spins=h.rows,
        terms=terms,
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
    if len(e_rep) != code.n:
        raise ValueError(f"e_rep has length {len(e_rep)}, expected {code.n}")
    return _single_register(code.Hx, e_rep, code.n, SPECIES_X)


def build_sm_z(code: CssCode, e_rep: BitVector) -> SmModel:
    """Mirror of build_sm_x for Z errors: one spin per row of Hz."""
    if len(e_rep) != code.n:
        raise ValueError(f"e_rep has length {len(e_rep)}, expected {code.n}")
    return _single_register(code.Hz, e_rep, code.n, SPECIES_Z)


def build_sm_coupled(
    code: CssCode,
    ex_rep: BitVector,
    ez_rep: BitVector,
    noise: Optional[PauliNoise] = None,
) -> SmModel:
    """Two-register model for correlated X/Z noise.

    Register one holds the Hx spins, register two the Hz spins (offset by
    sigma_spins). Each qubit contributes an x term (first register), a z term
    (second register), and a y term on the union of both supports, with signs
    (-1)**ex, (-1)**ez and their product.

    The model itself is noise-independent (couplings are supplied at
    evaluation time); passing noise here just validates early that finite
    bracket couplings exist for it — zero rates are rejected up front.
    """
    if len(ex_rep) != code.n or len(ez_rep) != code.n:
        raise ValueError("representative errors must have length n")
    if noise is not None:
        Couplings.from_pauli(noise)
    m_x, m_z = code.Hx.rows, code.Hz.rows
    terms: List[Term] = []
    for col in range(code.n):
        sx = -1 if ex_rep[col] else +1
        sz = -1 if ez_rep[col] else +1
        sigma_sites = _column_support(code.Hx, col)
        tau_sites = tuple(m_x + j for j in _column_support(code.Hz, col))
        terms.append(Term(sites=sigma_sites, sign=sx, family="x"))
        terms.append(Term(sites=tau_sites, sign=sz, family="z"))
        terms.append(Term(sites=sigma_sites + tau_sites, sign=sx * sz, family="y"))
    sym: List[BitVector] = []
    for v in kernel_basis(code.Hx.transpose()).row_list():
        sym.append(BitVector(m_x + m_z, v.bits))
    for w in kernel_basis(code.Hz.transpose()).row_list():
        sym.append(BitVector(m_x + m_z, w.bits << m_x))
    return SmModel(
        num_spins=m_x + m_z,
        terms=tuple(terms),
        symmetry_basis=tuple(sym),
        degeneracy_exponent=len(sym),
        species=SPECIES_COUPLED,
        sigma_spins=m_x,
    )


# ---------------------------------------------------------------------------
# Exact evaluation
# ---------------------------------------------------------------------------


def _term_arrays(model: SmModel, couplings: Couplings):
    masks = np.array(
        [sum(1 << s for s in t.sites) for t in model.terms], dtype=np.uint64
    )
    weights = np.array(
        [t.sign * couplings.for_family(t.family) for t in model.terms],
        dtype=np.float64,
    )
    return masks, weights


def _exponents(configs: np.ndarray, masks: np.ndarray, weights: np.ndarray):
    """Sum of coupling*sign*prod(spins) for each configuration."""
    acc = np.zeros(len(configs), dtype=np.float64)
    for mask, w in zip(masks, weights):
        parity = (np.bitwise_count(configs & mask) & np.uint64(1)).astype(
            np.float64
        )
        acc += w * (1.0 - 2.0 * parity)
    return acc


def partition_exact(model: SmModel, couplings: Couplings) -> float:
    """ln Z by exhaustive enumeration (num_spins <= MAX_EXACT_SPINS)."""
    if model.num_spins > MAX_EXACT_SPINS:
        raise TooLarge(
            f"exact partition sum over 2**{model.num_spins} configurations "
            f"exceeds the {MAX_EXACT_SPINS}-spin limit"
        )
    masks, weights = _term_arrays(model, couplings)
    total = 1 << model.num_spins
    ln_z: Optional[float] = None
    for start in range(0, total, _CHUNK):
        configs = np.arange(start, min(start + _CHUNK, total), dtype=np.uint64)
        expo = _exponents(configs, masks, weights)
        shift = float(expo.max())
        chunk = shift + math.log(float(np.exp(expo - shift).sum()))
        if ln_z is None:
            ln_z = chunk
        else:
            hi, lo = max(ln_z, chunk), min(ln_z, chunk)
            ln_z = hi + math.log1p(math.exp(lo - hi))
    assert ln_z is not None
    return ln_z


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


def exact_observables(model: SmModel, beta: float):
    """(ln Z, <H>, pair-correlation matrix) for a single-register model.

    H = -sum_t sign_t * prod(spins), the energy the mc module samples; the
    Boltzmann weight is exp(-beta*H). Correlations <s_i s_j> give an exact
    overlap oracle: for independent replicas <q**2> is the mean of their
    squares. Dense enumeration, so limited to MAX_OBSERVABLE_SPINS spins.
    """
    if model.species == SPECIES_COUPLED:
        raise ValueError("exact_observables handles single-register models only")
    if model.num_spins > MAX_OBSERVABLE_SPINS:
        raise TooLarge(
            f"exact_observables stores all 2**{model.num_spins} configurations; "
            f"limit is {MAX_OBSERVABLE_SPINS} spins"
        )
    masks, _ = _term_arrays(model, Couplings.uniform(1.0))
    signs = np.array([t.sign for t in model.terms], dtype=np.float64)
    total = 1 << model.num_spins
    configs = np.arange(total, dtype=np.uint64)
    neg_h = np.zeros(total, dtype=np.float64)
    for mask, s in zip(masks, signs):
        parity = (np.bitwise_count(configs & mask) & np.uint64(1)).astype(
            np.float64
        )
        neg_h += s * (1.0 - 2.0 * parity)
    expo = beta * neg_h
    shift = float(expo.max())
    w = np.exp(expo - shift)
    zw = float(w.sum())
    ln_z = shift + math.log(zw)
    mean_h = float(-(neg_h * w).sum() / zw)
    idx = np.arange(model.num_spins, dtype=np.uint64)
    spins = 1.0 - 2.0 * ((configs[:, None] >> idx[None, :]) & np.uint64(1)).astype(
        np.float64
    )
    corr = (spins * w[:, None]).T @ spins / zw
    return ln_z, mean_h, corr


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """Worst-case agreement between spin-model and enumerated probabilities."""

    sectors_checked: int
    max_abs_dev: float


def verify_sector_identity(
    code: CssCode, p: float, side: str = "x"
) -> IdentityReport:
    """Check P(sector) == normalized Z across every sector of one side."""
    beta = nishimori_beta(p)
    couplings = Couplings.uniform(beta)
    if side == "x":
        dist = sector_distribution_x(code, p)
        syn_bits, log_bits = code.rank_z, code.k
    elif side == "z":
        dist = sector_distribution_z(code, p)
        syn_bits, log_bits = code.rank_x, code.k
    else:
        raise ValueError(f"side must be 'x' or 'z', got {side!r}")
    worst = 0.0
    checked = 0
    for syn_int in range(1 << syn_bits):
        syn = BitVector(syn_bits, syn_int)
        for log_int in range(1 << log_bits):
            log = BitVector(log_bits, log_int)
            if side == "x":
                e_rep = representative_x(code, syn, log)
                model = build_sm_x(code, e_rep)
                key = SectorKey(b=syn, kz=log)
            else:
                e_rep = representative_z(code, syn, log)
                model = build_sm_z(code, e_rep)
                key = SectorKey(a=syn, kx=log)
            p_model = math.exp(log_sector_probability(model, couplings, code.n))
            worst = max(worst, abs(p_model - dist.table[key]))
            checked += 1
    return IdentityReport(sectors_checked=checked, max_abs_dev=worst)


def verify_sector_identity_coupled(
    code: CssCode, noise: PauliNoise, joint_table: Dict[SectorKey, float]
) -> IdentityReport:
    """Check the two-register model against a joint sector table."""
    couplings = Couplings.from_pauli(noise)
    worst = 0.0
    checked = 0
    for key, p_true in joint_table.items():
        ex_rep = representative_x(code, key.b, key.kz)
        ez_rep = representative_z(code, key.a, key.kx)
        model = build_sm_coupled(code, ex_rep, ez_rep)
        p_model = math.exp(log_sector_probability(model, couplings, code.n))
        worst = max(worst, abs(p_model - p_true))
        checked += 1
    return IdentityReport(sectors_checked=checked, max_abs_dev=worst)


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
    p_x = 1.0 / (1.0 + math.exp(2.0 * beta_x))
    p_z = 1.0 / (1.0 + math.exp(2.0 * beta_z))
    dist_x = sector_distribution_x(code, p_x)
    dist_z = sector_distribution_z(code, p_z)
    b0 = BitVector(code.rank_z, 0)
    a0 = BitVector(code.rank_x, 0)
    k0 = BitVector(code.k, 0)
    summed = math.fsum(
        dist_x.table[SectorKey(b=b0, kz=BitVector(code.k, i))]
        for i in range(1 << code.k)
    )
    raw = dist_x.table[SectorKey(b=b0, kz=k0)]
    rhs = (
        code.n * math.log1p(t)
        - code.rank_z * math.log(2.0)
        + math.log(dist_z.table[SectorKey(a=a0, kx=k0)])
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
    ln_z: Dict[Tuple[int, int], float] = {}
    for b_int in range(1 << code.rank_z):
        b = BitVector(code.rank_z, b_int)
        for u_int in range(1 << code.k):
            u = BitVector(code.k, u_int)
            model = build_sm_x(code, representative_x(code, b, u))
            ln_z[(b_int, u_int)] = partition_exact(model, couplings)
    total = 0.0
    for (b_int, u_int), lz in ln_z.items():
        prob = math.exp(lz + ln_norm)
        if prob > 0.0:
            partner = ln_z[(b_int, u_int ^ k_shift.bits)]
            total += prob * (lz - partner)
    return total / math.log(2.0)


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
            {"sites": list(t.sites), "sign": t.sign, "family": t.family}
            for t in model.terms
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
    terms = tuple(
        Term(sites=tuple(t["sites"]), sign=t["sign"], family=t["family"])
        for t in data["terms"]
    )
    sym = tuple(BitVector.from01(s) for s in data["symmetry_basis"])
    model = SmModel(
        num_spins=data["num_spins"],
        terms=terms,
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
