from collections import Counter

import pytest
from reference import point

from treechains import family
from treechains.diagram import coincidence_oracle
from treechains.family import (
    build_family_diagram,
    build_tree,
    map_omega,
    map_s,
    map_sigma,
    map_tau,
)
from treechains.simplicial import EdgePoint, is_surjection, validate_simplicial


class TestTree:
    def test_vertex_count_formula(self):
        for k in range(2, 10):
            for n in range(k):
                t = build_tree(k, n)
                assert len(t.vertices) == 3 * n + k + 4
                assert t.is_tree()

    def test_k4_counts(self):
        assert [len(build_tree(4, n).vertices) for n in range(4)] == [8, 11, 14, 17]

    def test_degree_profiles(self):
        for k in range(2, 8):
            for n in range(k):
                t = build_tree(k, n)
                degs = Counter(t.degree(v) for v in t.vertices)
                assert degs[1] == 4
                if n == k - 1:
                    # single branch point of order four: the X shape
                    assert degs[4] == 1 and degs[3] == 0
                    assert t.degree((0, k)) == 4
                else:
                    assert degs[3] == 2 and degs[4] == 0

    def test_coords_follow_labels(self):
        t = build_tree(3, 1)
        side, mu = max(t.vertices)
        assert point(t, (side, mu)) == (side, mu)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_tree(1, 0)
        with pytest.raises(ValueError):
            build_tree(3, 3)
        with pytest.raises(ValueError):
            map_sigma(3, 2)


class TestMaps:
    def test_all_maps_simplicial_and_onto(self):
        for k in range(2, 7):
            for n in range(k - 1):
                for m in (map_sigma(k, n), map_tau(k, n), map_omega(k, n)):
                    assert validate_simplicial(m)
                    assert is_surjection(m)
                s = map_s(k, n)
                assert validate_simplicial(s)
                assert s.compose(s).assignment == {v: v for v in s.source.vertices}

    def test_sigma_merges_lower_junction(self):
        sig = map_sigma(4, 1)
        assert sig.assignment[(1, 2)] == (0, 2)
        assert sig.assignment[(-1, 2)] == (0, 2)
        # top arm shortened by one
        assert sig.assignment[(1, 7)] == (1, 6)

    def test_tau_shifts_down(self):
        tau = map_tau(4, 1)
        assert tau.assignment[(1, 0)] == (1, 0)
        assert tau.assignment[(1, 5)] == (0, 4)
        assert tau.assignment[(0, 3)] == (0, 2)

    def test_sigma_tau_coincide_exactly_at_source_endpoints(self):
        for k in range(2, 8):
            for n in range(k - 1):
                sig, tau = map_sigma(k, n), map_tau(k, n)
                pts = coincidence_oracle(sig, tau)
                ends = {EdgePoint.vertex(v) for v in sig.source.endpoints()}
                assert pts == frozenset(ends)
                assert len(pts) == 4


class TestFamilyDiagram:
    def test_rows_and_levels(self):
        d = build_family_diagram(5)
        assert d.length == 4
        assert d.levels[0] == build_tree(5, 0)
        assert d.well_formed_violation() is None

    def test_sigma_omega_coincidence_free(self):
        for k in range(2, 8):
            d = build_family_diagram(k)
            for n in range(d.length):
                assert not coincidence_oracle(d.f_row[n], d.g_row[n])

    def test_builds_each_tree_once(self, monkeypatch):
        calls = []

        def counting_build_tree(k, n):
            calls.append((k, n))
            return build_tree(k, n)

        family._levels.cache_clear()
        monkeypatch.setattr(family, "build_tree", counting_build_tree)
        d = family.build_family_diagram(6)
        assert sorted(calls) == [(6, n) for n in range(6)]
        for n in range(d.length):
            for m in (d.g_row[n], d.f_row[n]):
                assert m.source is d.levels[n + 1]
                assert m.target is d.levels[n]
        # the maps of the same k read the diagram's levels and build nothing
        for n in range(d.length):
            for m in (map_sigma(6, n), map_tau(6, n), map_omega(6, n)):
                assert m.source is d.levels[n + 1]
                assert m.target is d.levels[n]
        for n in range(6):
            s = map_s(6, n)
            assert s.source is d.levels[n] and s.target is d.levels[n]
        assert len(calls) == 6
        # one entry: a k asked for again after another k is built again
        family.build_family_diagram(7)
        assert calls[6:] == [(7, n) for n in range(7)]
        family.build_family_diagram(6)
        assert calls[13:] == [(6, n) for n in range(6)]

    @pytest.mark.parametrize("call", [
        lambda: map_sigma(3, 2), lambda: map_tau(3, 2), lambda: map_omega(3, 2),
        lambda: map_s(3, 3), lambda: map_s(1, 0), lambda: build_family_diagram(1),
    ])
    def test_bad_parameters_raise_before_the_cache(self, call):
        family.build_family_diagram(4)
        before = family._levels.cache_info()
        with pytest.raises(ValueError):
            call()
        after = family._levels.cache_info()
        assert after.currsize == before.currsize
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_min_k(self):
        with pytest.raises(ValueError):
            build_family_diagram(1)
