"""Entropic quantities and optimal-decoder success from sector tables.

Everything here is a pure function of exact SectorDistribution tables. All
entropies are in bits, so the noiseless limits are integers: the coherent
information runs from +k (perfect channel) down to −k (maximally mixed), and
the distinguishability of two logical sectors is +infinity at zero noise.

Conventions for degenerate terms: 0·log(0/x) = 0, and a positive numerator
over a zero denominator marks the whole sum as +infinity (returned as
math.inf; serialization layers tag it rather than emitting float specials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .channels import MODE_JOINT, MODE_X, MODE_Z, SectorDistribution, exact_sum
from .gf2 import BitVector

# Inequalities below hold exactly in exact arithmetic; this absolute slack
# covers pure rounding from sums of up to 2^26 doubles.
BOUND_SLACK = 1e-10

FactorizedPair = Tuple[SectorDistribution, SectorDistribution]
DistOrPair = Union[SectorDistribution, FactorizedPair]


@dataclass(frozen=True)
class InfoResult:
    """A scalar information quantity in bits."""

    value: float


def _fold(ufunc: np.ufunc, rows: np.ndarray) -> np.ndarray:
    """ufunc over each row's entries left to right, one vector operation per
    column view rather than a reduction over rows only 2^k wide. Any order
    gives the same maxima; for sums it is numpy's own order below 8 columns.
    """
    acc = rows[:, 0].copy()
    for column in rows.T[1:]:
        ufunc(acc, column, out=acc)
    return acc


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """rows.sum(axis=1) bit for bit, folded where numpy adds left to right."""
    return _fold(np.add, rows) if rows.shape[1] < 8 else rows.sum(axis=1)


def _syndrome_rows(dist: SectorDistribution) -> Tuple[np.ndarray, np.ndarray]:
    """by_syndrome() and its row sums P(syndrome)."""
    rows = dist.by_syndrome()
    return rows, _row_sums(rows)


def _conditional_term(rows: np.ndarray, p_syn: np.ndarray) -> float:
    """Σ P·log2(P / P_syndrome) — minus the conditional logical entropy."""
    live = rows > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):  # rows with P_syndrome = 0
        ratio = (rows / p_syn[:, None])[live]
    return float(np.sum(rows[live] * np.log2(ratio)))


def _ml_term(rows: np.ndarray) -> float:
    """Σ over syndromes of the largest sector probability, correctly rounded."""
    return exact_sum(_fold(np.maximum, rows))


def _sampling_term(rows: np.ndarray, p_syn: np.ndarray) -> float:
    """Σ P² / P_syndrome over syndromes of positive probability."""
    live = p_syn > 0.0
    return float(np.sum(rows[live] ** 2 / p_syn[live, None]))


def _sides(dist: DistOrPair) -> Tuple[SectorDistribution, ...]:
    """The tables of one noise point, each read as one side's (syndrome,
    logical) rows: (dist,) for a joint table, or (dist_z, dist_x) for a
    (dist_x, dist_z) pair from one code. ValueError for anything else."""
    if isinstance(dist, SectorDistribution):
        if dist.mode != MODE_JOINT:
            raise ValueError(f"dist must be {MODE_JOINT}, got {dist.mode}")
        return (dist,)
    dist_x, dist_z = dist
    if dist_x.mode != MODE_X:
        raise ValueError(f"dist_x must be {MODE_X}, got {dist_x.mode}")
    if dist_z.mode != MODE_Z:
        raise ValueError(f"dist_z must be {MODE_Z}, got {dist_z.mode}")
    if dist_x.code_hash != dist_z.code_hash:
        raise ValueError("dist_x and dist_z come from different codes")
    return dist_z, dist_x


def _coherent_information(dist: DistOrPair) -> InfoResult:
    """k plus each side's conditional term, folded Z side first."""
    sides = _sides(dist)
    value = sides[0].k
    for side in sides:
        value += _conditional_term(*_syndrome_rows(side))
    return InfoResult(value)


def coherent_information_factorized(
    dist_x: SectorDistribution, dist_z: SectorDistribution
) -> InfoResult:
    """Coherent information in bits for independent X/Z noise.

    value = k + Σ_(a,kx) P·log2(P/P_a) + Σ_(b,kz) P·log2(P/P_b); each sum is
    minus a conditional entropy, so the result lies in [−k, k], equals k at
    zero noise and −k at px = pz = 1/2.
    """
    return _coherent_information((dist_x, dist_z))


def coherent_information_general(dist: SectorDistribution) -> InfoResult:
    """Coherent information in bits from a joint (correlated-species) table.

    value = k + Σ P·log2(P / P_(a,b)) with the syndrome marginal taken over
    both logical labels. Reduces to the factorized form when the table is a
    product.
    """
    return _coherent_information(dist)


def relative_entropy(
    dist_x: SectorDistribution, k0: BitVector, k0p: BitVector
) -> InfoResult:
    """Relative entropy (bits) between the sectors of two logical labels.

    value = Σ_(b,kz) P(b, kz⊕k0) · log2[P(b, kz⊕k0) / P(b, kz⊕k0p)], which
    depends on (k0, k0p) only through the shift k0⊕k0p. Returns +infinity
    when some shifted sector has positive mass where its partner has none
    (orthogonal sectors — always the case at zero noise).
    """
    if dist_x.mode != MODE_X:
        raise ValueError(f"dist_x must be {MODE_X}, got {dist_x.mode}")
    if k0.n != dist_x.k or k0p.n != dist_x.k:
        raise ValueError(f"logical labels must have k = {dist_x.k} bits")
    rows = dist_x.by_syndrome()  # (b, kz)
    partner = rows[:, np.arange(rows.shape[1]) ^ (k0 ^ k0p).bits]
    live = rows > 0.0
    if np.any(partner[live] <= 0.0):
        return InfoResult(math.inf)
    return InfoResult(float(np.sum(rows[live] * np.log2(rows[live] / partner[live]))))


def ml_success(dist: SectorDistribution) -> float:
    """Success probability of the most-likely-sector decoder.

    Σ over syndromes of the largest sector probability. On a factorized
    single side this is the per-side success; multiply the two sides for the
    total (bound_report does).
    """
    return _ml_term(dist.by_syndrome())


def sampling_success(dist: SectorDistribution) -> float:
    """Success probability of the posterior-sampling decoder.

    Σ P² / P_syndrome — the chance that an error and an independent sample
    from the same posterior share a sector. Never exceeds ml_success.
    """
    return _sampling_term(*_syndrome_rows(dist))


@dataclass(frozen=True)
class BoundReport:
    """The decoder/entropy inequality chain evaluated at one noise point."""

    ic_bits: float
    jensen_lower: float  # 2^(ic_bits − k)
    sampling: float
    ml: float
    appendix_lower: float  # 2·ml − 1
    violations: Tuple[str, ...]


def bound_report(dist: DistOrPair) -> BoundReport:
    """Evaluate ic, decoder successes, and their inequality chain.

    Args:
        dist: a joint SectorDistribution, or a (dist_x, dist_z) pair for
            factorized noise (both sides are needed for the coherent
            information, and the per-side successes multiply).

    Checks 2·ml − 1 ≤ sampling ≤ ml ≤ 1 and 2^(ic−k) ≤ sampling ≤ 1 plus
    |ic| ≤ k, reporting violations as flags instead of raising, so sweeps can
    use this as a property harness.
    """
    sides = _sides(dist)
    k = sides[0].k
    ic, ml, samp = k, 1.0, 1.0
    for side in sides:
        # one by_syndrome() and one row sum per side, shared by two terms
        rows, p_syn = _syndrome_rows(side)
        ic += _conditional_term(rows, p_syn)
        ml *= _ml_term(rows)
        samp *= _sampling_term(rows, p_syn)
    jensen = 2.0 ** (ic - k)
    lower = 2.0 * ml - 1.0
    violations = []
    if not -k - BOUND_SLACK <= ic <= k + BOUND_SLACK:
        violations.append(f"ic_bits {ic} outside [-k, k]")
    if ml > 1.0 + BOUND_SLACK:
        violations.append(f"ml {ml} exceeds 1")
    if samp > ml + BOUND_SLACK:
        violations.append(f"sampling {samp} exceeds ml {ml}")
    if jensen > samp + BOUND_SLACK:
        violations.append(f"jensen lower bound {jensen} exceeds sampling {samp}")
    if lower > samp + BOUND_SLACK:
        violations.append(f"2·ml − 1 = {lower} exceeds sampling {samp}")
    return BoundReport(
        ic_bits=ic,
        jensen_lower=jensen,
        sampling=samp,
        ml=ml,
        appendix_lower=lower,
        violations=tuple(violations),
    )

