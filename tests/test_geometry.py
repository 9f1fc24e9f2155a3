import math

import numpy as np
import pytest

from swarmseq.barriers import Connectivity
from swarmseq.geometry import (
    Domain,
    GeometryError,
    InteractionGraph,
    Obstacle,
    is_cycle_graph,
    is_spanning_subgraph,
    polygon_area_centroid,
    proximity_graph,
    voronoi_cell,
)


def sq_dist(a, b):
    """|a - b|^2 in Python floats, each component squared, then the two summed."""
    dx, dy = float(a[0]) - float(b[0]), float(a[1]) - float(b[1])
    return dx * dx + dy * dy


def point_in_polygon(poly, p):
    """Convex-polygon membership, boundary-inclusive."""
    m = len(poly)
    if m < 3:
        return False
    sign = 0.0
    for k in range(m):
        a = poly[k]
        b = poly[(k + 1) % m]
        cr = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if abs(cr) < 1e-12:
            continue
        if sign == 0.0:
            sign = cr
        elif sign * cr < 0:
            return False
    return True


def cell_of(k, sites, domain):
    """Site k's Voronoi cell, taken by putting site k first (robot i + 1 at sites[i])."""
    order = [k, *(j for j in range(len(sites)) if j != k)]
    return voronoi_cell(np.asarray(sites, dtype=float)[order], [j + 1 for j in order], domain)


def centroid_of(k, sites, domain):
    return polygon_area_centroid(cell_of(k, sites, domain))[1]


class TestProximityGraph:
    def test_boundary_distance_is_included(self):
        g = proximity_graph([(0, 0), (0.3, 0.4)], 0.5)
        assert g.has_edge(1, 2)

    def test_collinear_distances(self):
        g = proximity_graph([(0, 0), (1, 0), (2, 0)], 1.0)
        assert g.has_edge(1, 2) and g.has_edge(2, 3)
        assert not g.has_edge(1, 3)

    def test_symmetric_and_loop_free(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            pts = rng.uniform(-1, 1, size=(6, 2))
            g = proximity_graph(pts, 0.5)
            for i, j in g.edges:
                assert i < j and i != j
                assert g.has_edge(j, i)

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            pts = rng.uniform(-1, 1, size=(7, 2))
            d1, d2 = sorted(rng.uniform(0.1, 2.0, size=2))
            assert proximity_graph(pts, d1).edges <= proximity_graph(pts, d2).edges

    def test_equals_the_checked_graph_of_its_edges(self):
        # proximity graphs skip the per-edge checks of user-given graphs; the
        # result is the same graph, mask included
        rng = np.random.default_rng(2)
        for n in (1, 2, 7, 30):
            g = proximity_graph(rng.uniform(-1, 1, size=(n, 2)), 0.6)
            checked = InteractionGraph.from_edges(n, g.edges)
            assert g == checked and hash(g) == hash(checked) and g.sorted_edges() == checked.sorted_edges()
            assert np.array_equal(g.mask, checked.mask) and not g.mask.flags.writeable
        with pytest.raises(GeometryError):
            InteractionGraph.from_edges(3, [(1, 1)])
        with pytest.raises(GeometryError):
            InteractionGraph.from_edges(3, [(1, 4)])

    def test_rejects_bad_inputs(self):
        with pytest.raises(GeometryError):
            proximity_graph([(0, 0)], 0.0)
        with pytest.raises(GeometryError):
            proximity_graph([], 1.0)
        with pytest.raises(GeometryError):
            proximity_graph([(0, 0), (np.nan, 0)], 1.0)
        with pytest.raises(GeometryError):
            proximity_graph([0.0, 1.0], 1.0)

    def test_the_mask_waits_to_give_its_edges(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 9):
            x = rng.uniform(-1, 1, size=(n, 2))
            g = proximity_graph(x, 0.6)
            want = [[i != j and 0.6**2 - sq_dist(x[i], x[j]) >= 0 for j in range(n)] for i in range(n)]
            assert g.mask.tolist() == want
            assert "edges" not in vars(g) and not g.mask.flags.writeable  # the edge set waits for a read
            assert g.edges == {(i + 1, j + 1) for i, j in zip(*np.triu(g.mask).nonzero())} and "edges" in vars(g)

    @pytest.mark.parametrize("n", [1, 2, 5, 48, 192])
    def test_the_range_test_reads_each_pairs_own_bits(self, n):
        # ranges equal to pair distances put pairs on the boundary, where
        # only the exact bits of delta^2 - |x_i - x_j|^2 tell the edge
        rng = np.random.default_rng(n)
        x = rng.uniform(-1, 1, size=(n, 2)) * 10.0 ** rng.integers(-3, 3, size=(n, 1))
        x[rng.random(x.shape) < 0.1] = -0.0
        pairs = rng.integers(0, n, size=(4, 2))
        distances = [math.sqrt(sq_dist(x[i], x[j])) for i, j in pairs]
        for delta in [0.5] + [v for v in distances if v > 0]:
            want = [[i != j and delta**2 - sq_dist(x[i], x[j]) >= 0 for j in range(n)] for i in range(n)]
            assert proximity_graph(x, delta).mask.tolist() == want

    def test_equals_pairwise_barrier_test(self):
        # the broadcast range test agrees with the connectivity barrier of
        # each pair evaluated on its own, also for pairs exactly delta apart
        rng = np.random.default_rng(4)
        for n in (1, 2, 5, 13):
            for _ in range(20):
                x = rng.uniform(-1, 1, size=(n, 2))
                if n > 1:
                    x[1] = x[0] + [0.5, 0.0]
                g = proximity_graph(x, 0.5)
                expected = {
                    (i, j)
                    for i in range(1, n + 1)
                    for j in range(i + 1, n + 1)
                    if Connectivity(i, j, 0.5).value(x[i - 1] - x[j - 1]) >= 0
                }
                assert g.n == n and g.edges == expected
                if n > 1:
                    assert g.has_edge(1, 2)


class TestGraphPredicates:
    def test_spanning_reflexive(self):
        g = InteractionGraph.from_edges(4, [(1, 2), (3, 4)])
        assert is_spanning_subgraph(g, g)

    def test_empty_required_is_spanning(self):
        empty = InteractionGraph(5)
        live = InteractionGraph.from_edges(5, [(1, 2)])
        assert is_spanning_subgraph(empty, live)

    def test_missing_edge_detected(self):
        cycle = InteractionGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
        live = InteractionGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        assert not is_spanning_subgraph(cycle, live)

    def test_vertex_count_mismatch(self):
        with pytest.raises(GeometryError):
            is_spanning_subgraph(InteractionGraph(3), InteractionGraph(4))

    def test_triangle_is_cycle(self):
        assert is_cycle_graph(InteractionGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)]))

    def test_path_is_not_cycle(self):
        assert not is_cycle_graph(InteractionGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)]))

    def test_disjoint_triangles_are_not_one_cycle(self):
        # degrees are all 2 but the graph has two components
        g = InteractionGraph.from_edges(
            6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)]
        )
        assert not is_cycle_graph(g)

    def test_cycle_implies_degree_two(self):
        g = InteractionGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
        assert is_cycle_graph(g)
        assert (g.mask.sum(axis=1) == 2).all()

    def test_too_small_for_cycle(self):
        with pytest.raises(GeometryError):
            is_cycle_graph(InteractionGraph.from_edges(2, [(1, 2)]))


class TestVoronoi:
    def test_single_robot_cell_is_whole_domain(self):
        np.testing.assert_allclose(centroid_of(0, [(0.2, 0.2)], Domain(0, 1, 0, 1)), [0.5, 0.5], atol=1e-12)

    def test_two_symmetric_halves(self):
        sites, dom = [(0.25, 0.5), (0.75, 0.5)], Domain(0, 1, 0, 1)
        np.testing.assert_allclose(centroid_of(0, sites, dom), [0.25, 0.5], atol=1e-12)
        np.testing.assert_allclose(centroid_of(1, sites, dom), [0.75, 0.5], atol=1e-12)

    def test_cell_areas_partition_domain(self):
        rng = np.random.default_rng(7)
        dom = Domain(0, 1, 0, 1)
        for _ in range(10):
            sites = rng.uniform(0.05, 0.95, size=(5, 2))
            cells = [cell_of(k, sites, dom) for k in range(len(sites))]
            total = sum(abs(polygon_area_centroid(c)[0]) for c in cells)
            assert abs(total - dom.area) <= 1e-9 * dom.area

    def test_monte_carlo_oracle(self):
        # Oracle: classify 10^6 stratified samples (jittered 1000x1000 grid) by
        # nearest site; compare per-cell area fractions and sample-mean
        # centroids against the polygon values. Stratification keeps the
        # sampling error comfortably below the 1e-3 comparison tolerance.
        rng = np.random.default_rng(123)
        dom = Domain(0, 1, 0, 1)
        pts = rng.uniform(0.1, 0.9, size=(4, 2))
        cells = [cell_of(k, pts, dom) for k in range(len(pts))]

        side = 1000
        gx, gy = np.meshgrid(np.arange(side), np.arange(side))
        grid = np.column_stack([gx.ravel(), gy.ravel()]).astype(float)
        samples = (grid + rng.uniform(0, 1, size=grid.shape)) / side
        d2 = ((samples[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        owner = np.argmin(d2, axis=1)

        for k, cell in enumerate(cells):
            mask = owner == k
            mc_area = mask.mean() * dom.area
            area, centroid = polygon_area_centroid(cell)
            assert abs(abs(area) - mc_area) <= 1e-3
            mc_centroid = samples[mask].mean(axis=0)
            np.testing.assert_allclose(centroid, mc_centroid, atol=1e-3)
            assert point_in_polygon(cell, centroid)

    def test_coincident_sites_rejected(self):
        # over all the sites, not only against the first
        with pytest.raises(GeometryError, match="coincident robots 2 and 3"):
            cell_of(0, [(0.1, 0.1), (0.5, 0.5), (0.5, 0.5)], Domain(0, 1, 0, 1))
        # of several such pairs, the first in row-major order: (1, 4) before (2, 3)
        with pytest.raises(GeometryError, match="coincident robots 1 and 4"):
            cell_of(0, [(0.1, 0.1), (0.5, 0.5), (0.5, 0.5 + 1e-10), (0.1, 0.1)], Domain(0, 1, 0, 1))

    def test_site_outside_domain_rejected(self):
        with pytest.raises(GeometryError, match="robot 1 at"):
            cell_of(0, [(2.0, 0.5)], Domain(0, 1, 0, 1))
        with pytest.raises(GeometryError, match="robot 2 at"):
            cell_of(0, [(0.5, 0.5), (0.5, 2.0)], Domain(0, 1, 0, 1))

    def test_non_finite_site_rejected(self):
        with pytest.raises(GeometryError, match="outside the domain"):
            cell_of(0, [(np.nan, 0.0)], Domain(-1, 1, -1, 1))


class TestDomainTypes:
    def test_degenerate_bounds_rejected(self):
        with pytest.raises(GeometryError):
            Domain(0, 0, 0, 1)

    def test_obstacle_needs_positive_shape(self):
        with pytest.raises(GeometryError):
            Obstacle(np.zeros(2), a=-1.0, b=1.0)
