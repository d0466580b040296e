"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances and runtime budgets are pinned in the assertions.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from intervalmaps import (
    Interval,
    build_covering_graph,
    estimate_entropy,
    eval_slope_poly,
    minimal_slope,
    mixing_trace,
    odd_type_map,
    primitive_cycle_census,
    primitive_cycles,
    square_root,
    stefan_map,
    verify_mixing,
    verify_type,
)

F = Fraction


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
    )
    print(
        f"[acceptance] criterion {number:2d} PASS - {description} "
        f"({elapsed:.2f}s)"
    )


def test_criterion_01_minimal_slopes():
    with criterion(1, "minimal slope values", 1.0):
        golden = (1 + math.sqrt(5)) / 2
        assert abs(minimal_slope(3, 1e-12) - golden) <= 1e-12
        for p in range(3, 32, 2):
            root = minimal_slope(p)
            assert math.sqrt(2) < root < 2
            assert abs(eval_slope_poly(p, root)) < 1e-8


def test_criterion_02_construction_exactness():
    with criterion(2, "exact rational construction for p=5, slope 2", 1.0):
        built = odd_type_map(5, F(2))
        assert built.markers.orbit == (F(3, 8), F(1, 4), F(1, 2), F(0), F(1))
        assert built.markers.t == F(13, 16)
        assert built.full_tents == 1
        assert built.markers.intervals["J1"] == Interval(F(1, 2), F(3, 4))
        assert built.markers.intervals["K"] == Interval(F(3, 4), F(13, 16))
        for i in range(5):
            assert built.map.eval(built.markers.orbit[i]) == built.markers.orbit[(i + 1) % 5]
        x = built.markers.orbit
        assert x[3] < x[1] < x[0] < x[2] and x[2] <= built.markers.t < x[4]


def test_criterion_03_constant_slope():
    with criterion(3, "exact constant slope 2 for p in {3,5,7,9}", 30.0):
        for p in (3, 5, 7, 9):
            built = odd_type_map(p, F(2))
            assert built.map.is_constant_slope(F(2), 0)


def test_criterion_04_entropy_estimates():
    with criterion(4, "entropy estimates at stated tolerances", 60.0):
        log2 = math.log(2)
        for p in (3, 5):
            est = estimate_entropy(odd_type_map(p, F(2)).map, 14, target=log2)
            assert est.gap < 0.02, f"p={p}: h={est.h}, gap={est.gap}"
        lam5 = minimal_slope(5)
        est5 = estimate_entropy(odd_type_map(5, lam5).map, 12, target=math.log(lam5))
        assert est5.gap < 0.05
        root = square_root(odd_type_map(3, F(2)).map)
        est_root = estimate_entropy(root, 14, target=log2 / 2)
        assert est_root.gap < 0.05


def test_criterion_05_type_certification():
    with criterion(5, "type certification with exact witnesses", 120.0):
        f52 = odd_type_map(5, F(2))
        report5 = verify_type(f52.map, 5, 13, partition=f52.markers.partition())
        assert report5.verdict == "consistent"
        assert report5.absent == (3,)

        f72 = odd_type_map(7, F(2))
        report7 = verify_type(f72.map, 7, 13, partition=f72.markers.partition())
        assert report7.verdict == "consistent"
        assert report7.absent == (3, 5)

        root = square_root(odd_type_map(3, F(2)).map)
        report6 = verify_type(root, 6, 12)
        assert report6.verdict == "consistent"
        assert set(report6.present) == {1, 2, 4, 6, 8, 10, 12}

        for m, report in ((f52.map, report5), (f72.map, report7), (root, report6)):
            for q, x in report.present.items():
                assert m.iterate(x, q) == x  # exact re-verification


def test_criterion_06_covering_graph():
    with criterion(6, "covering graph and cycle census for f_{5,2}", 5.0):
        f52 = odd_type_map(5, F(2))
        graph = build_covering_graph(f52.map, f52.markers.partition())
        partial = [(a, b) for a, b, kind in graph.edges if kind == "partial"]
        assert partial == [("K", "I3")]
        census = primitive_cycle_census(graph, 9)
        for q in range(3, 5, 2):
            assert census[q] == 0
        for cyc in primitive_cycles(graph, 9):
            if "I1" not in cyc:
                assert len(cyc) % 2 == 0


def test_criterion_07_mixing():
    with criterion(7, "mixing certificates", 30.0):
        f32 = odd_type_map(3, F(2))
        f52 = odd_type_map(5, F(2))
        for built in (f32, f52):
            report = verify_mixing(built.map, F(1, 1024), 64, 200)
            assert report.all_covered
        n, images = mixing_trace(f32.map, Interval(F(2, 5), F(1, 2)), 10)
        assert n == 4
        assert images[-1] == Interval(F(0), F(1))


def test_criterion_08_stefan_identities():
    with criterion(8, "stefan orbit identities up to p=13", 5.0):
        for p in range(3, 14, 2):
            m = stefan_map(p)
            n = (p - 1) // 2
            for k in range(1, n + 1):
                assert m.iterate(F(n), 2 * k - 1) == n - k
                assert m.iterate(F(n), 2 * k) == n + k


def test_criterion_09_degenerate_minimal_slope():
    with criterion(9, "degenerate build at the minimal slope", 30.0):
        lam = minimal_slope(3)
        built = odd_type_map(3, lam)
        assert abs(built.markers.t - 1 / lam) <= 1e-9
        assert len(built.map.breakpoints) == 3  # middle block omitted
        est = estimate_entropy(built.map, 14, target=math.log(lam))
        assert est.gap < 0.05


def test_criterion_10_oracle_equivalence():
    with criterion(10, "periodic points match a 2^-20 grid scan", 60.0):
        f32 = odd_type_map(3, F(2))
        bps = np.array([float(b) for b in f32.map.breakpoints])
        vals = np.array([float(v) for v in f32.map.values])
        grid = np.linspace(0.0, 1.0, 2 ** 20 + 1)
        for q in range(1, 7):
            ys = grid.copy()
            for _ in range(q):
                ys = np.interp(ys, bps, vals)
            g = ys - grid
            sign = np.sign(g)
            scanned = list(grid[np.nonzero(g == 0.0)[0]])
            flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
            scanned.extend(0.5 * (grid[flips] + grid[flips + 1]))
            scanned.sort()
            enumerated = [float(x) for x, _ in f32.map.periodic_points(q)]
            assert len(enumerated) == len(scanned), f"q={q}"
            for a, b in zip(enumerated, scanned):
                assert abs(a - b) <= 2 ** -19
