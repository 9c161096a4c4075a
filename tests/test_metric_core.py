import itertools
import math
import warnings

import numpy as np
import pytest

from coarsekit import (
    FamilyOfSets,
    FiniteMetricSpace,
    InputError,
    MetricError,
    PreconditionError,
    Subset,
    build_space,
    components,
    diameter,
    hausdorff_distance,
    neighborhood,
    r_components,
)
from coarsekit.generators import cycle_space, path_space
from coarsekit.metric_core import verify_metric


def integers(lo, hi):
    return build_space({"kind": "cloud", "coords": [[i] for i in range(lo, hi + 1)]})


class TestBuildSpace:
    def test_two_point_matrix(self):
        sp = build_space({"kind": "matrix", "labels": ["a", "b"], "matrix": [[0, 1], [1, 0]]})
        assert sp.n == 2
        assert sp.diam() == 1.0

    def test_path_graph_is_integer_interval(self):
        sp = build_space(
            {
                "kind": "graph",
                "labels": list(range(10)),
                "edges": [[i, i + 1, 1] for i in range(9)],
            }
        )
        for i in range(10):
            for j in range(10):
                assert sp.d(i, j) == abs(i - j)

    def test_triangle_violation_reported(self):
        with pytest.raises(MetricError):
            build_space(
                {
                    "kind": "matrix",
                    "labels": [0, 1, 2],
                    "matrix": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
                }
            )

    def test_duplicate_labels_rejected_before_the_triangle_check(self):
        # the table breaks the triangle inequality too; the O(n) label check runs first
        with pytest.raises(InputError, match="labels must be unique"):
            build_space(
                {
                    "kind": "matrix",
                    "labels": ["a", "b", "a"],
                    "matrix": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
                }
            )

    def test_zero_distance_between_distinct_points_rejected(self):
        with pytest.raises(MetricError):
            build_space(
                {"kind": "matrix", "labels": [0, 1], "matrix": [[0, 0], [0, 0]]}
            )

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(MetricError):
            build_space(
                {"kind": "matrix", "labels": [0, 1], "matrix": [[0, 1], [2, 0]]}
            )

    def test_collinear_integer_l2_cloud_accepted(self):
        # exact on the reals (the points are collinear), but the rounded square
        # roots break the float triangle inequality
        sp = build_space({"kind": "cloud", "coords": [[50, 27], [80, 47], [107, 65]]})
        assert sp.n == 3
        assert sp.d(0, 1) == math.sqrt(30**2 + 20**2)

    @pytest.mark.parametrize("table", [None, 5, 2.5])
    def test_scalar_matrix_rejected(self, table):
        with pytest.raises(MetricError, match="distance table must be square"):
            build_space({"kind": "matrix", "matrix": table})
        with pytest.raises(MetricError, match="distance table must be square"):
            verify_metric(np.asarray(table, dtype=float))
        with pytest.raises(MetricError, match="distance table must be square"):
            FiniteMetricSpace([0], table)

    def test_sums_past_the_float_maximum_are_no_violation(self):
        # every d(i,k) + d(k,j) overflows to +inf, which bounds every finite distance
        big = np.full((3, 3), 1e308)
        np.fill_diagonal(big, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verify_metric(big)

    def test_duplicate_cloud_point_rejected(self):
        with pytest.raises(MetricError, match="coincide"):
            build_space({"kind": "cloud", "coords": [[0, 0], [1, 2], [0, 0]]})

    @pytest.mark.parametrize("coords", [[], [1, 2, 3], 5], ids=["empty", "1-d", "scalar"])
    def test_cloud_without_point_rows_rejected(self, coords):
        with pytest.raises(InputError, match="nonempty list of points"):
            build_space({"kind": "cloud", "coords": coords})

    def test_non_finite_cloud_coordinate_rejected(self):
        with pytest.raises(MetricError, match="finite"):
            build_space({"kind": "cloud", "coords": [[0, 0], [1, math.nan]]})

    @pytest.mark.parametrize("weight, message", [
        # NaN and inf used to reach the shortest paths and read as "graph is disconnected"
        (math.nan, "edge weight must be finite"),
        (math.inf, "edge weight must be finite"),
        # True used to be taken as weight 1
        (True, "edge weight must be a number"),
        ("1", "edge weight must be a number"),
    ], ids=["nan", "inf", "bool", "str"])
    def test_graph_edge_weight_must_be_a_finite_number(self, weight, message):
        with pytest.raises(InputError, match=message):
            build_space({"kind": "graph", "edges": [[0, 1, weight], [1, 2, 1.0]]})

    def test_graph_non_positive_edge_weight_rejected(self):
        with pytest.raises(InputError, match="non-positive weight"):
            build_space({"kind": "graph", "edges": [[0, 1, 0], [1, 2, 1.0]]})

    def test_graph_without_vertices_rejected(self):
        # the same rule as an empty cloud: it used to build a 0-point space
        with pytest.raises(InputError, match="at least one vertex"):
            build_space({"kind": "graph", "edges": [], "labels": []})


    @pytest.mark.parametrize("seed", range(5))
    def test_graph_with_fractional_weights_is_symmetric(self, seed):
        # Dijkstra sums each path from its own source, so the two directions
        # of a pair once differed in the last bit
        rng = np.random.default_rng(seed)
        n = 30
        tree = [[i, int(rng.integers(i)), 0.1] for i in range(1, n)]
        extra = [[int(a), int(b), 0.1] for a, b in rng.integers(n, size=(40, 2)) if a != b]
        edges = [[i, j, float(rng.choice([0.1, 0.3, 1 / 3]))] for i, j, _ in tree + extra]
        sp = build_space({"kind": "graph", "edges": edges})
        assert np.array_equal(sp.dmat, sp.dmat.T)

    @pytest.mark.parametrize("edges, d01", [
        ([[0, 1, 1], [0, 1, 1]], 1.0),
        ([[0, 1, 1], [1, 0, 5], [1, 2, 1]], 1.0),
        ([[1, 0, 5], [0, 1, 2], [1, 2, 1]], 2.0),
    ], ids=["repeated", "reversed-heavier", "reversed-lighter"])
    def test_graph_parallel_edges_keep_the_lightest(self, edges, d01):
        # the sparse matrix once summed parallel edges: 2.0, 6.0 and 7.0
        assert build_space({"kind": "graph", "edges": edges}).dmat[0, 1] == d01

    @pytest.mark.parametrize("edges, labels", [
        ([[0, 1.5, 1]], [0, 1]),
        ([[0, -1, 1], [0, 1, 1]], None),
        ([[0, True, 1]], [0, 1]),
        ([[0, "a", 1]], None),
        ([[0, 2, 1]], [0, 1]),
    ], ids=["fractional", "negative", "bool", "text", "too-large"])
    def test_graph_endpoints_must_be_vertex_indices(self, edges, labels):
        # 1.5 was once read as vertex 1, and -1 failed inside numpy
        desc = {"kind": "graph", "edges": edges, **({"labels": labels} if labels else {})}
        with pytest.raises(InputError, match=r"^edge endpoints \[.*\] are not vertices"):
            build_space(desc)

    def test_integer_weight_graph_keeps_its_path_sums(self):
        sp = build_space({"kind": "graph", "edges": [[0, 1, 2], [1, 2, 3], [2, 3, 1], [3, 0, 7]]})
        assert sp.dmat.tolist() == [[0, 2, 5, 6], [2, 0, 3, 4], [5, 3, 0, 1], [6, 4, 1, 0]]


class TestPointIndices:
    # a negative index once read the table from its end, and a float failed
    # with a bare IndexError
    @pytest.mark.parametrize("members", [[-1, 0], [0, 5], [0, 1.0], [True, 2], ["a"]],
                             ids=["negative", "too-large", "float", "bool", "text"])
    def test_components_rejects_non_points(self, members):
        with pytest.raises(InputError, match="are not points of the owning space"):
            components(path_space(5), members, 1.0, strict=False)

    def test_components_accepts_numpy_integers(self):
        assert components(path_space(5), np.arange(3), 1.0, strict=True) == tuple(
            frozenset({i}) for i in range(3))

    def test_family_names_the_set(self):
        with pytest.raises(InputError, match=r"^set 1 members \[-1\] are not points"):
            FamilyOfSets(path_space(5), ({0}, {-1}))


class TestNeighborhood:
    def test_strict_ball_around_singleton(self):
        sp = integers(0, 10)
        out = neighborhood(Subset(sp, {5}), 2.0)
        assert out.members == frozenset({4, 5, 6})

    def test_empty_set(self):
        sp = integers(0, 10)
        assert neighborhood(Subset(sp, frozenset()), 3.0).members == frozenset()

    def test_strictness_keeps_boundary_out(self):
        sp = integers(0, 10)
        out = neighborhood(Subset(sp, {0, 1, 2, 3}), 1.0)
        assert out.members == frozenset({0, 1, 2, 3})

    def test_monotone_in_radius(self):
        sp = integers(0, 10)
        A = Subset(sp, {2, 7})
        prev = frozenset()
        for R in [0.0, 0.5, 1.0, 2.0, 3.5, 20.0]:
            cur = neighborhood(A, R).members
            assert prev <= cur
            prev = cur


class TestHausdorff:
    def test_singletons(self):
        sp = integers(0, 10)
        assert hausdorff_distance(Subset(sp, {0}), Subset(sp, {3})) == 3.0

    def test_nested_sets(self):
        sp = integers(0, 10)
        assert hausdorff_distance(Subset(sp, {0, 1, 2, 3}), Subset(sp, {1, 2})) == 1.0

    def test_equal_sets(self):
        sp = integers(0, 10)
        A = Subset(sp, {2, 5, 7})
        assert hausdorff_distance(A, A) == 0.0

    def test_empty_rejected(self):
        sp = integers(0, 10)
        with pytest.raises(PreconditionError):
            hausdorff_distance(Subset(sp, frozenset()), Subset(sp, {1}))

    def test_triangle_inequality_exhaustive_small_space(self):
        sp = integers(0, 4)
        subsets = [
            Subset(sp, frozenset(c))
            for k in range(1, 6)
            for c in itertools.combinations(range(5), k)
        ]
        for A, B, C in itertools.product(subsets, repeat=3):
            assert hausdorff_distance(A, C) <= hausdorff_distance(A, B) + hausdorff_distance(
                B, C
            ) + 1e-12


class TestRComponents:
    def test_two_clusters(self):
        sp = build_space(
            {"kind": "cloud", "coords": [[v] for v in [0, 1, 2, 10, 11, 12]]}
        )
        comps = r_components(sp.full(), 1.0)
        assert [sorted(c.members) for c in comps] == [[0, 1, 2], [3, 4, 5]]

    def test_large_radius_single_class(self):
        sp = integers(0, 9)
        comps = r_components(sp.full(), 9.0)
        assert len(comps) == 1

    def test_small_radius_singletons(self):
        sp = integers(0, 9)
        comps = r_components(sp.full(), 0.5)
        assert len(comps) == 10

    def test_classes_separated_and_connected(self):
        sp = build_space(
            {"kind": "cloud", "coords": [[v] for v in [0, 2, 3, 9, 10, 14]]}
        )
        for R in [1.0, 2.0, 3.0, 4.0]:
            comps = r_components(sp.full(), R)
            for a, b in itertools.combinations(comps, 2):
                cross = min(
                    sp.d(x, y) for x in a.members for y in b.members
                )
                assert cross > R
            for c in comps:
                # BFS within the class using steps of length <= R
                pts = sorted(c.members)
                seen = {pts[0]}
                frontier = [pts[0]]
                while frontier:
                    x = frontier.pop()
                    for y in pts:
                        if y not in seen and sp.d(x, y) <= R:
                            seen.add(y)
                            frontier.append(y)
                assert seen == set(pts)


class TestSubset:
    # each was accepted: a float failed only when a distance was read, with a
    # bare IndexError, and a bool was taken as point 0 or 1
    @pytest.mark.parametrize("members", [{1.5}, {np.float64(2.0)}, {True, 2}, {False}],
                             ids=["float", "numpy-float", "bool-with-int", "bool"])
    def test_non_integer_members_rejected(self, members):
        sp = integers(0, 10)
        with pytest.raises(InputError, match="not points of the owning space"):
            Subset(sp, frozenset(members))

    @pytest.mark.parametrize("members", [{-1}, {11}, {0, 11}])
    def test_members_outside_the_space_rejected(self, members):
        with pytest.raises(InputError, match="not points of the owning space"):
            Subset(integers(0, 10), frozenset(members))

    def test_numpy_integer_members_accepted(self):
        sp = integers(0, 10)
        assert diameter(Subset(sp, frozenset({np.int64(2), np.intp(9), 4}))) == 7.0


class TestDiameter:
    def test_singleton(self):
        sp = integers(0, 10)
        assert diameter(Subset(sp, {5})) == 0.0

    def test_three_points(self):
        sp = integers(0, 10)
        assert diameter(Subset(sp, {0, 3, 7})) == 7.0

    def test_cycle_diameter(self):
        sp = cycle_space(6)
        assert diameter(sp.full()) == 3.0

    def test_empty_rejected(self):
        sp = integers(0, 10)
        with pytest.raises(PreconditionError):
            diameter(Subset(sp, frozenset()))


def test_path_space_matches_integer_metric():
    sp = path_space(7)
    for i in range(7):
        for j in range(7):
            assert sp.d(i, j) == abs(i - j)
