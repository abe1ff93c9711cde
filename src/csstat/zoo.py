"""Deterministic constructors for the built-in code families.

Every constructor documents its qubit indexing so exported files and the
spin labels of the mapped classical models are reproducible byte-for-byte.

Families and CLI selectors:
    toric2d:L       periodic square lattice, qubits on edges, k = 2
    surface2d:LxxLy open patch, smooth left/right, rough top/bottom, k = 1
    color666:LxxLy  honeycomb torus with 3-colorable faces, k = 4
    toric3d:L       periodic cubic lattice, qubits on edges, k = 3
    xcube:L         cube + two vertex-cross stabilizer types, k = 6L − 3
    steane          [[7,1,3]], Hz = Hx = Hamming(7,4) check
    four22          [[4,2,2]], single full-weight check per type
"""

from __future__ import annotations

import os
import re
from typing import List

from .css import CssCode, new_css
from .gf2 import BitMatrix


def _matrix(n: int, supports: List[List[int]]) -> BitMatrix:
    rows = []
    for support in supports:
        bits = 0
        for q in support:
            assert 0 <= q < n
            bits |= 1 << q
        rows.append(bits)
    return BitMatrix(n, tuple(rows))


def toric2d(L: int) -> CssCode:
    """Toric code on an L×L periodic square lattice (n = 2L², k = 2).

    Qubit indexing: edge (x, y, o) -> 2·(L·y + x) + o, where o = 0 is the
    horizontal edge leaving vertex (x, y) toward +x and o = 1 the vertical
    edge toward +y. X stabilizers sit on vertices, Z stabilizers on
    plaquettes (row index L·y + x for cell (x, y)); coordinates wrap mod L.
    """
    if L < 2:
        raise ValueError("toric2d needs L >= 2")
    n = 2 * L * L

    def h(x: int, y: int) -> int:
        return 2 * (L * (y % L) + (x % L))

    def v(x: int, y: int) -> int:
        return 2 * (L * (y % L) + (x % L)) + 1

    stars = []
    plaqs = []
    for y in range(L):
        for x in range(L):
            stars.append([h(x, y), h(x - 1, y), v(x, y), v(x, y - 1)])
            plaqs.append([h(x, y), h(x, y + 1), v(x, y), v(x + 1, y)])
    return new_css(_matrix(n, plaqs), _matrix(n, stars))


def surface2d(Lx: int, Ly: int) -> CssCode:
    """Open-boundary surface code patch, k = 1.

    Boundaries: smooth on the left/right (no dangling horizontal edges),
    rough on the top/bottom (dangling vertical edges). The logical X is a
    horizontal chain joining the smooth boundaries (weight Lx); the logical
    Z is a vertical chain joining the rough boundaries (weight Ly).

    Layout: Lx columns and Ly−1 rows of vertices. Vertical edges
    v(i, j) = i·Ly + j for j in [0, Ly): v(i, 0) dangles below, v(i, Ly−1)
    above. Horizontal edges h(i, j) = Lx·Ly + i·(Ly−1) + j join vertex
    (i, j) to (i+1, j). n = Lx·Ly + (Lx−1)(Ly−1); all stabilizers are
    independent (no check redundancy).
    """
    if Lx < 2 or Ly < 2:
        raise ValueError("surface2d needs Lx, Ly >= 2")
    n = Lx * Ly + (Lx - 1) * (Ly - 1)

    def v(i: int, j: int) -> int:
        return i * Ly + j

    def h(i: int, j: int) -> int:
        return Lx * Ly + i * (Ly - 1) + j

    stars = []
    for i in range(Lx):
        for j in range(Ly - 1):
            support = [v(i, j), v(i, j + 1)]
            if i > 0:
                support.append(h(i - 1, j))
            if i < Lx - 1:
                support.append(h(i, j))
            stars.append(support)
    plaqs = []
    for i in range(Lx - 1):
        for j in range(Ly):
            support = [v(i, j), v(i + 1, j)]
            if j > 0:
                support.append(h(i, j - 1))
            if j < Ly - 1:
                support.append(h(i, j))
            plaqs.append(support)
    return new_css(_matrix(n, plaqs), _matrix(n, stars))


def color666(Lx: int, Ly: int) -> CssCode:
    """Hexagonal color code on a torus of Lx×Ly unit cells, k = 4.

    Two qubits per unit cell: site s ∈ {0 (A), 1 (B)} at cell (x, y) gets
    index 2·(x·Ly + y) + s. Each hexagonal face f(x, y) supports both an X
    and a Z stabilizer on vertices {A(x,y), A(x+1,y), A(x+1,y−1), B(x,y),
    B(x,y−1), B(x+1,y−1)} (coordinates mod Lx / mod Ly). Faces are
    3-colored by (x − y) mod 3, which is globally consistent only when both
    Lx and Ly are multiples of 3; each color class multiplies to the full
    vertex set, leaving two redundant checks per type (Dx = Dz = 2).
    """
    if Lx < 3 or Ly < 3 or Lx % 3 or Ly % 3:
        raise ValueError("color666 needs Lx, Ly >= 3 and multiples of 3")
    n = 2 * Lx * Ly

    def idx(x: int, y: int, s: int) -> int:
        return 2 * ((x % Lx) * Ly + (y % Ly)) + s

    faces = []
    for x in range(Lx):
        for y in range(Ly):
            faces.append(
                [
                    idx(x, y, 0),
                    idx(x + 1, y, 0),
                    idx(x + 1, y - 1, 0),
                    idx(x, y, 1),
                    idx(x, y - 1, 1),
                    idx(x + 1, y - 1, 1),
                ]
            )
    m = _matrix(n, faces)
    return new_css(m, m)


def toric3d(L: int) -> CssCode:
    """3D toric code on an L³ periodic cubic lattice (n = 3L³, k = 3).

    Qubit indexing: edge at vertex (x, y, z) in direction mu ∈ {0: +x,
    1: +y, 2: +z} gets index 3·(x + L·(y + L·z)) + mu. X stabilizers are
    vertex stars (6 edges, one redundancy: the product of all stars is
    trivial, Dx = 1). Z stabilizers are the 3L³ plaquettes: face row index
    3·cell + plane with plane ∈ {0: xy, 1: yz, 2: zx}; heavy redundancy
    (Dz = L³ + 2).
    """
    if L < 2:
        raise ValueError("toric3d needs L >= 2")
    n = 3 * L * L * L

    def e(x: int, y: int, z: int, mu: int) -> int:
        return 3 * ((x % L) + L * ((y % L) + L * (z % L))) + mu

    stars = []
    plaqs = []
    axes = {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1)}
    planes = [(0, 1), (1, 2), (2, 0)]  # xy, yz, zx
    for z in range(L):
        for y in range(L):
            for x in range(L):
                star = []
                for mu in range(3):
                    dx, dy, dz = axes[mu]
                    star.append(e(x, y, z, mu))
                    star.append(e(x - dx, y - dy, z - dz, mu))
                stars.append(star)
                for mu, nu in planes:
                    dmx, dmy, dmz = axes[mu]
                    dnx, dny, dnz = axes[nu]
                    plaqs.append(
                        [
                            e(x, y, z, mu),
                            e(x, y, z, nu),
                            e(x + dmx, y + dmy, z + dmz, nu),
                            e(x + dnx, y + dny, z + dnz, mu),
                        ]
                    )
    return new_css(_matrix(n, plaqs), _matrix(n, stars))


def xcube(L: int) -> CssCode:
    """X-cube model on an L³ periodic cubic lattice (n = 3L³, k = 6L − 3).

    Edge indexing matches toric3d. X stabilizers are the 12-edge cube
    operators (row index = cell index). Z stabilizers are vertex crosses:
    only the x- and y-normal types are emitted (rows 2·vertex and
    2·vertex + 1) because the three per-vertex types multiply to identity;
    the z-normal type is their product and would only inflate Dz.
    """
    if L < 2:
        raise ValueError("xcube needs L >= 2")
    n = 3 * L * L * L

    def e(x: int, y: int, z: int, mu: int) -> int:
        return 3 * ((x % L) + L * ((y % L) + L * (z % L))) + mu

    cubes = []
    crosses = []
    for z in range(L):
        for y in range(L):
            for x in range(L):
                edges = []
                for a in (0, 1):
                    for b in (0, 1):
                        edges.append(e(x, y + a, z + b, 0))
                        edges.append(e(x + a, y, z + b, 1))
                        edges.append(e(x + a, y + b, z, 2))
                cubes.append(edges)
                # Cross normal to x: the four incident y- and z-edges.
                crosses.append(
                    [e(x, y, z, 1), e(x, y - 1, z, 1), e(x, y, z, 2), e(x, y, z - 1, 2)]
                )
                # Cross normal to y: the four incident x- and z-edges.
                crosses.append(
                    [e(x, y, z, 0), e(x - 1, y, z, 0), e(x, y, z, 2), e(x, y, z - 1, 2)]
                )
    return new_css(_matrix(n, crosses), _matrix(n, cubes))


def steane() -> CssCode:
    """Steane [[7,1,3]] code: Hz = Hx = the Hamming(7,4) check matrix."""
    rows = ["0001111", "0110011", "1010101"]
    m = BitMatrix.from01(rows)
    return new_css(m, m)


def four22() -> CssCode:
    """[[4,2,2]] code: one full-weight X check and one full-weight Z check."""
    m = BitMatrix.from01(["1111"])
    return new_css(m, m)


# family -> (constructor, number of 'x'-separated dims it takes)
_FAMILIES = {
    "steane": (steane, 0), "four22": (four22, 0), "toric2d": (toric2d, 1),
    "toric3d": (toric3d, 1), "xcube": (xcube, 1), "surface2d": (surface2d, 2),
    "color666": (color666, 2),
}
_SELECTOR_RE = re.compile(r"^(?P<family>[a-z0-9]+)(?::(?P<dims>[0-9x]+))?$")


def from_selector(selector: str) -> CssCode:
    """Resolve a CLI selector: 'family[:dims]' or a css-code v1 file path.

    Examples: 'toric2d:3', 'surface2d:3x4', 'steane', 'codes/my.css'.

    Raises:
        ValueError: unknown family or malformed dims.
        CodeFormatError / CommutationViolation: from file parsing.
    """
    match = _SELECTOR_RE.match(selector)
    if match and not os.path.exists(selector):
        family, dims_text = match.group("family"), match.group("dims")
        if family not in _FAMILIES:
            raise ValueError(f"unknown code family {family!r}")
        build, arity = _FAMILIES[family]
        dims = dims_text.split("x") if dims_text else []
        if len(dims) != arity or not all(dims):
            raise ValueError(f"bad dims for {family}: {dims_text!r}")
        return build(*map(int, dims))
    from .css import from_text

    with open(selector, "r", encoding="ascii") as fh:
        return from_text(fh.read())
