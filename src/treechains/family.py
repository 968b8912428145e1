"""The explicit H/X tree family and its long coincidence-free diagram.

Vertices are labelled (side, level) with side in {-1, 0, 1}; the planar
coordinate of (side, level) is the int point (side, level), so each tree's
int frame has scale 1.
"""

from __future__ import annotations

import functools

from .diagram import TreeDiagram
from .simplicial import SimplicialGraph, SimplicialMapping


def _check_params(k: int, n: int) -> None:
    if k < 2:
        raise ValueError("k must be at least 2")
    if not 0 <= n <= k - 1:
        raise ValueError("n must be in [0, k-1]")


def build_tree(k: int, n: int) -> SimplicialGraph:
    """The tree with four endpoints, H-shaped for n < k-1 and X-shaped for n = k-1.

    Five vertex groups: two lower legs up to level n joining the centre column
    at level n+1, the centre column from n+1 to k, and two upper legs from the
    centre top at level k out to level k+1+n.
    """
    _check_params(k, n)
    groups = [
        [(1, mu) for mu in range(n + 1)] + [(0, n + 1)],
        [(-1, mu) for mu in range(n + 1)] + [(0, n + 1)],
        [(0, mu) for mu in range(n + 1, k + 1)],
        [(0, k)] + [(1, mu) for mu in range(k + 1, k + 2 + n)],
        [(0, k)] + [(-1, mu) for mu in range(k + 1, k + 2 + n)],
    ]
    vertices = set()
    edges = []
    for grp in groups:
        vertices.update(grp)
        edges.extend(zip(grp, grp[1:]))
    return SimplicialGraph.build(vertices, edges, {v: v for v in vertices})


@functools.lru_cache(maxsize=1)
def _levels(k: int) -> tuple:
    """T_0..T_{k-1}, each built and checked once, for the last k asked for.

    One entry: a sweep over k builds every tree once, and the cache never
    holds more than one k's trees.
    """
    return tuple(build_tree(k, n) for n in range(k))


def _reflection(t: SimplicialGraph) -> SimplicialMapping:
    return SimplicialMapping(t, t, {(side, mu): (-side, mu) for side, mu in t.vertices})


def map_s(k: int, n: int) -> SimplicialMapping:
    """The left-right reflection (side, mu) -> (-side, mu); a simplicial involution."""
    _check_params(k, n)
    return _reflection(_levels(k)[n])


def _check_bonding_params(k: int, n: int) -> None:
    _check_params(k, n)
    if n > k - 2:
        raise ValueError("bonding maps are defined for n <= k-2 only")


# The private builders below read src = T_{n+1} and dst = T_n from the
# caller's levels = _levels(k).


def _sigma(k: int, n: int, levels: tuple) -> SimplicialMapping:
    src, dst = levels[n + 1], levels[n]
    assign = {}
    for side, mu in src.vertices:
        if mu == n + 1:
            assign[(side, mu)] = (0, n + 1)
        else:
            assign[(side, mu)] = (side, min(mu, k + n + 1))
    return SimplicialMapping(src, dst, assign)


def _tau(k: int, n: int, levels: tuple) -> SimplicialMapping:
    src, dst = levels[n + 1], levels[n]
    assign = {}
    for side, mu in src.vertices:
        if mu == k + 1:
            assign[(side, mu)] = (0, k)
        else:
            assign[(side, mu)] = (side, max(mu - 1, 0))
    return SimplicialMapping(src, dst, assign)


def _omega(k: int, n: int, levels: tuple) -> SimplicialMapping:
    return _reflection(levels[n]).compose(_tau(k, n, levels))


def map_sigma(k: int, n: int) -> SimplicialMapping:
    """Bonding surjection T_{n+1} -> T_n merging level n+1 into the centre column
    and collapsing the two top edges."""
    _check_bonding_params(k, n)
    return _sigma(k, n, _levels(k))


def map_tau(k: int, n: int) -> SimplicialMapping:
    """Bonding surjection T_{n+1} -> T_n shifting every level down by one,
    fixing the two lowest points and folding level k+1 onto the centre top."""
    _check_bonding_params(k, n)
    return _tau(k, n, _levels(k))


def map_omega(k: int, n: int) -> SimplicialMapping:
    """The reflected shift: map_s composed with map_tau."""
    _check_bonding_params(k, n)
    return _omega(k, n, _levels(k))


def build_family_diagram(k: int) -> TreeDiagram:
    """The length k-1 commutative diagram over T_0..T_{k-1} with the shift row
    reflected so the two rows have no coincidence points."""
    if k < 2:
        raise ValueError("k must be at least 2")
    levels = _levels(k)
    g_row = tuple(_sigma(k, n, levels) for n in range(k - 1))
    f_row = tuple(_omega(k, n, levels) for n in range(k - 1))
    return TreeDiagram(levels, g_row, f_row)
