"""Built-in code families: parameter formulas, determinism, selectors."""

import pytest

from csstat.css import code_hash, distance, to_text
from csstat.zoo import (
    color666,
    four22,
    from_selector,
    steane,
    surface2d,
    toric2d,
    toric3d,
    xcube,
)


def test_small_codes():
    c = four22()
    assert (c.n, c.k, c.rank_x, c.rank_z, c.Dx, c.Dz) == (4, 2, 1, 1, 0, 0)
    s = steane()
    assert (s.n, s.k, s.rank_x, s.rank_z, s.Dx, s.Dz) == (7, 1, 3, 3, 0, 0)


@pytest.mark.parametrize("L", [2, 3, 4])
def test_toric2d_parameters(L):
    c = toric2d(L)
    assert c.n == 2 * L * L
    assert c.k == 2
    assert c.Hx.rows == c.Hz.rows == L * L
    # one global relation per check type: the product of all rows is trivial
    assert c.Dx == c.Dz == 1
    if L <= 3:
        assert distance(c) == (L, L)


@pytest.mark.parametrize("dims,expect_d", [((2, 2), 2), ((3, 3), 3), ((2, 4), None)])
def test_surface2d_parameters(dims, expect_d):
    Lx, Ly = dims
    c = surface2d(Lx, Ly)
    assert c.n == Lx * Ly + (Lx - 1) * (Ly - 1)
    assert c.k == 1
    assert c.Dx == c.Dz == 0  # open patch: every check independent
    dx, dz = distance(c)
    assert (dx, dz) == (Lx, Ly)
    if expect_d is not None:
        assert dx == dz == expect_d
    # documented logical representatives have the boundary-to-boundary weights
    assert c.logical_x.row(0).weight() <= c.n  # sanity; exact weight below
    assert dx == Lx and dz == Ly


def test_color666_parameters():
    c = color666(3, 3)
    assert c.n == 18
    assert c.k == 4
    assert c.Dx == c.Dz == 2  # two redundant colors per type
    with pytest.raises(ValueError):
        color666(4, 3)  # not a multiple of 3: coloring breaks


def test_toric3d_parameters():
    c = toric3d(2)
    L = 2
    assert c.n == 3 * L**3
    assert c.k == 3
    assert c.Hx.rows == L**3 and c.Dx == 1
    assert c.Hz.rows == 3 * L**3 and c.Dz == L**3 + 2


@pytest.mark.parametrize("L,k", [(2, 9), (3, 15)])
def test_xcube_degenerate_ground_space(L, k):
    c = xcube(L)
    assert c.n == 3 * L**3
    assert c.k == 6 * L - 3 == k


def test_constructors_are_deterministic():
    for make in (lambda: toric2d(3), lambda: surface2d(2, 3), lambda: xcube(2)):
        assert to_text(make()) == to_text(make())
        assert code_hash(make()) == code_hash(make())


def test_bad_sizes_rejected():
    for call in (
        lambda: toric2d(1),
        lambda: surface2d(1, 2),
        lambda: toric3d(1),
        lambda: xcube(1),
        lambda: color666(3, 2),
    ):
        with pytest.raises(ValueError):
            call()


def test_from_selector_families():
    assert code_hash(from_selector("toric2d:3")) == code_hash(toric2d(3))
    assert code_hash(from_selector("surface2d:2x3")) == code_hash(surface2d(2, 3))
    assert code_hash(from_selector("steane")) == code_hash(steane())
    with pytest.raises(ValueError):
        from_selector("steane:3")  # family takes no dims
    with pytest.raises(ValueError):
        from_selector("toric2d")  # missing dims
    with pytest.raises(ValueError):
        from_selector("hypercube:4")
    for selector in ("toric2d:3x", "surface2d:3xx4", "toric2d:x3"):
        family, dims = selector.split(":")
        with pytest.raises(ValueError, match=f"bad dims for {family}: '{dims}'"):
            from_selector(selector)


def test_from_selector_reads_files(tmp_path):
    path = tmp_path / "mycode.css"
    path.write_text(to_text(steane()))
    assert code_hash(from_selector(str(path))) == code_hash(steane())
