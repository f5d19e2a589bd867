"""Geometry tests against independent winding-number and scan oracles."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from treefem import geometry
from treefem.assemble import Assembler
from treefem.errors import GeometryError
from treefem.geometry import (
    Ball, Polyline, TriSurface, load_geometry, read_gmsh_lines, read_stl,
    write_stl,
)
from treefem.mesh import KIND_GEOMETRY, build_mesh
from treefem.problem import GeometrySpec, parse_problem

from shapes import (
    bumpy_sphere, cube_tris, fanned_cube, gmsh_polygon_text, icosphere,
    regular_polygon,
)
from geometry_oracles import (
    column_sort_kept, lexsort_closest, scan_polyline_closest,
    scan_polyline_kept,
)
from test_acceptance import sphere_script


# ---------------------------------------------------------------------------
# Oracles

def winding_inside_2d(loop, p):
    total = 0.0
    n = len(loop)
    for i in range(n):
        ax, ay = loop[i][0] - p[0], loop[i][1] - p[1]
        bx, by = loop[(i + 1) % n][0] - p[0], loop[(i + 1) % n][1] - p[1]
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    return abs(total) > math.pi


def winding_inside_3d(vertices, faces, p):
    total = 0.0
    for f in faces:
        a = vertices[f[0]] - p
        b = vertices[f[1]] - p
        c = vertices[f[2]] - p
        la, lb, lc = (np.linalg.norm(v) for v in (a, b, c))
        num = float(np.dot(a, np.cross(b, c)))
        den = (la * lb * lc + np.dot(a, b) * lc + np.dot(b, c) * la
               + np.dot(c, a) * lb)
        total += 2.0 * math.atan2(num, den)
    return abs(total) > 2 * math.pi


def brute_closest_segments(points, segments, p):
    best = None
    for i, j in segments:
        a, b = points[i], points[j]
        t = float(np.dot(p - a, b - a) / np.dot(b - a, b - a))
        t = min(1.0, max(0.0, t))
        q = a + t * (b - a)
        d = float(np.linalg.norm(p - q))
        if best is None or d < best[0]:
            best = (d, q)
    return best


def brute_closest_triangles(vertices, faces, p):
    best = None
    for f in faces:
        a, b, c = vertices[f[0]], vertices[f[1]], vertices[f[2]]
        candidates = [a, b, c]
        for u, v in ((a, b), (a, c), (b, c)):
            t = float(np.dot(p - u, v - u) / np.dot(v - u, v - u))
            candidates.append(u + min(1.0, max(0.0, t)) * (v - u))
        n = np.cross(b - a, c - a)
        q = p - n * float(np.dot(p - a, n) / np.dot(n, n))
        area = float(np.dot(n, n))
        w0 = float(np.dot(np.cross(b - q, c - q), n)) / area
        w1 = float(np.dot(np.cross(c - q, a - q), n)) / area
        w2 = float(np.dot(np.cross(a - q, b - q), n)) / area
        if w0 >= 0 and w1 >= 0 and w2 >= 0:
            candidates.append(q)
        for q in candidates:
            d = float(np.linalg.norm(p - q))
            if best is None or d < best[0]:
                best = (d, q)
    return best


def scan_closest(surf, points):
    """TriSurface.closest by testing every point against every triangle."""
    n = len(points)
    projections = np.empty((n, 3))
    normals = np.empty((n, 3))
    distances = np.empty(n)
    chunk = max(1, int(2e6 / len(surf.faces)))
    for start in range(0, n, chunk):
        p = points[start:start + chunk]
        cand, feature = scan_closest_on_triangles(p, surf.vertices, surf.faces)
        d2 = ((cand - p[:, None, :]) ** 2).sum(axis=2)
        best = np.argmin(d2, axis=1)
        rows = np.arange(len(p))
        projections[start:start + chunk] = cand[rows, best]
        distances[start:start + chunk] = np.sqrt(d2[rows, best])
        normals[start:start + chunk] = surf._feature_normal(
            best, feature[rows, best])
    return projections, normals, distances


def scan_closest_on_triangles(p, vertices, faces):
    a = vertices[faces[:, 0]][None, :, :]
    b = vertices[faces[:, 1]][None, :, :]
    c = vertices[faces[:, 2]][None, :, :]
    p = p[:, None, :]
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("pti,pti->pt", ab, ap)
    d2 = np.einsum("pti,pti->pt", ac, ap)
    bp = p - b
    d3 = np.einsum("pti,pti->pt", ab, bp)
    d4 = np.einsum("pti,pti->pt", ac, bp)
    cp = p - c
    d5 = np.einsum("pti,pti->pt", ab, cp)
    d6 = np.einsum("pti,pti->pt", ac, cp)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4
    feature = np.full(d1.shape, 6, dtype=np.int8)
    done = np.zeros(d1.shape, bool)
    for mask, code in (((d1 <= 0) & (d2 <= 0), 0),
                       ((d3 >= 0) & (d4 <= d3), 1),
                       ((vc <= 0) & (d1 >= 0) & (d3 <= 0), 3),
                       ((d6 >= 0) & (d5 <= d6), 2),
                       ((vb <= 0) & (d2 >= 0) & (d6 <= 0), 4),
                       ((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0), 5)):
        take = mask & ~done
        feature[take] = code
        done[take] = True
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ab = np.where(d1 - d3 != 0, d1 / (d1 - d3), 0.0)
        t_ac = np.where(d2 - d6 != 0, d2 / (d2 - d6), 0.0)
        seam = (d4 - d3) + (d5 - d6)
        t_bc = np.where(seam != 0, (d4 - d3) / seam, 0.0)
        total = va + vb + vc
        v = np.where(total != 0, vb / total, 0.0)
        w = np.where(total != 0, vc / total, 0.0)
    cand = a + v[..., None] * ab + w[..., None] * ac
    for code, point in ((0, a), (1, b), (2, c),
                        (3, a + t_ab[..., None] * ab),
                        (4, a + t_ac[..., None] * ac),
                        (5, b + t_bc[..., None] * (c - b))):
        cand = np.where((feature == code)[..., None], point, cand)
    return cand, feature


def scan_kept(surf, points):
    """TriSurface.kept by ray parity per column, each against every triangle."""
    columns, inverse = np.unique(points[:, :2], axis=0, return_inverse=True)
    inside = np.zeros(len(points), bool)
    for ci, column in enumerate(columns):
        rows = np.flatnonzero(inverse == ci)
        crossings = scan_column_crossings(surf, column)
        above = len(crossings) - np.searchsorted(crossings, points[rows, 2],
                                                 side="left")
        inside[rows] = above % 2 == 1
    return inside if surf.outer_boundary else ~inside


def scan_column_crossings(surf, column):
    scale = max(1.0, float(np.abs(surf.vertices).max()))
    cx, cy = column
    for attempt in range(8):
        zs, ambiguous = scan_crossings_once(surf, cx, cy, scale)
        if not ambiguous:
            return np.sort(zs)
        delta = scale * 1e-9 * (3.0 ** attempt)
        cx, cy = column[0] + delta, column[1] + 0.7 * delta
    raise GeometryError("ray keeps hitting edges")


def scan_crossings_once(surf, cx, cy, scale):
    a, b, c = (surf.vertices[surf.faces[:, k]] for k in range(3))
    e1 = b[:, :2] - a[:, :2]
    e2 = c[:, :2] - a[:, :2]
    denom = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    rel = np.array([cx, cy]) - a[:, :2]
    flat = np.abs(denom) <= 1e-14 * scale * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (rel[:, 0] * e2[:, 1] - rel[:, 1] * e2[:, 0]) / denom
        t = (e1[:, 0] * rel[:, 1] - e1[:, 1] * rel[:, 0]) / denom
    s = np.where(flat, -1.0, s)
    t = np.where(flat, -1.0, t)
    eps = 1e-10
    loose = (s >= -eps) & (t >= -eps) & (s + t <= 1 + eps)
    strict = (s > eps) & (t > eps) & (s + t < 1 - eps)
    ambiguous = bool((loose & ~strict).any())
    if not ambiguous and flat.any():
        point = np.array([cx, cy])
        corners = (a[flat, :2], b[flat, :2], c[flat, :2])
        for u, v in ((0, 1), (1, 2), (2, 0)):
            seg = corners[v] - corners[u]
            length2 = np.einsum("ij,ij->i", seg, seg)
            length2[length2 == 0] = 1.0
            frac = np.einsum("ij,ij->i", point - corners[u], seg) / length2
            foot = corners[u] + np.clip(frac, 0.0, 1.0)[:, None] * seg
            if bool((np.linalg.norm(point - foot, axis=1) <= 1e-9 * scale).any()):
                ambiguous = True
                break
    zs = (a[:, 2] + s * (b[:, 2] - a[:, 2]) + t * (c[:, 2] - a[:, 2]))[strict]
    return zs, ambiguous


def scan_edge_slot_normals(faces, face_normals):
    edge_faces = {}
    slots = ((0, 1), (0, 2), (1, 2))
    for f, face in enumerate(faces):
        for i, j in slots:
            key = tuple(sorted((int(face[i]), int(face[j]))))
            edge_faces.setdefault(key, []).append(f)
    out = np.empty((len(faces), 3, 3))
    for f, face in enumerate(faces):
        for s, (i, j) in enumerate(slots):
            adjacent = edge_faces[tuple(sorted((int(face[i]), int(face[j]))))]
            normal = face_normals[adjacent].sum(axis=0)
            length = np.linalg.norm(normal)
            out[f, s] = normal / length if length > 0 else face_normals[f]
    return out


# ---------------------------------------------------------------------------
# Analytic ball

def test_ball_kept_sides_and_tie():
    ball = Ball((0.5, 0.5), 0.25)
    pts = np.array([[0.5, 0.5], [0.5, 0.75], [0.5, 0.76], [0.0, 0.0]])
    assert ball.kept(pts).tolist() == [True, True, False, False]
    void = Ball((0.5, 0.5), 0.25, outer_boundary=False)
    assert void.kept(pts).tolist() == [False, True, True, True]


def test_ball_closest():
    ball = Ball((1.0, 2.0, 3.0), 0.5)
    pts = np.array([[2.0, 2.0, 3.0], [1.0, 2.0, 3.1]])
    hit = ball.closest(pts)
    assert np.allclose(hit.points[0], [1.5, 2.0, 3.0])
    assert np.allclose(hit.normals[0], [1.0, 0.0, 0.0])
    assert hit.distances[0] == pytest.approx(0.5)
    # interior query projects radially too
    assert np.allclose(hit.points[1], [1.0, 2.0, 3.5])
    assert hit.distances[1] == pytest.approx(0.4)
    void = Ball((1.0, 2.0, 3.0), 0.5, outer_boundary=False)
    assert np.allclose(void.closest(pts).normals[0], [-1.0, 0.0, 0.0])


def test_ball_center_query_is_defined():
    ball = Ball((0.0, 0.0), 1.0)
    hit = ball.closest(np.array([[0.0, 0.0]]))
    assert np.allclose(hit.points[0], [1.0, 0.0])
    assert hit.distances[0] == pytest.approx(1.0)


def test_ball_validation():
    with pytest.raises(GeometryError):
        Ball((0.0,), 1.0)
    with pytest.raises(GeometryError):
        Ball((0.0, 0.0), -1.0)


QUERY_SHAPES = {
    "ball": lambda: Ball((0.5, 0.5, 0.5), 0.3),
    "polyline": lambda: Polyline(np.array(SQUARE),
                                 np.array([(0, 1), (1, 2), (2, 3), (3, 0)])),
    "trisurface": lambda: TriSurface(*SURFACES["cube"]),
}


@pytest.mark.parametrize("shape", sorted(QUERY_SHAPES))
@pytest.mark.parametrize("query", ["kept", "closest"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, -1])
def test_non_finite_query_points_raise_geometry_error(shape, query, bad,
                                                      axis):
    geom = QUERY_SHAPES[shape]()
    points = np.full((3, geom.dimension), 0.5)
    points[1, axis] = bad
    with pytest.raises(GeometryError, match="'points'"):
        getattr(geom, query)(points)


# ---------------------------------------------------------------------------
# Polyline from Gmsh files

SQUARE = [(0.2, 0.2), (0.8, 0.2), (0.8, 0.8), (0.2, 0.8)]


def make_polyline(tmp_path, points, **kwargs):
    path = tmp_path / "shape.msh"
    path.write_text(gmsh_polygon_text(points, **kwargs))
    return Polyline(*read_gmsh_lines(path))


def test_polyline_square_kept(tmp_path):
    poly = make_polyline(tmp_path, SQUARE)
    pts = np.array([[0.5, 0.5], [0.1, 0.5], [0.9, 0.9], [0.25, 0.75]])
    assert poly.kept(pts).tolist() == [True, False, False, True]


def test_polyline_matches_winding_oracle(tmp_path):
    hexagon = regular_polygon((0.5, 0.5), 0.3, 6)
    poly = make_polyline(tmp_path, hexagon, shuffle=True)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 1, (500, 2))
    got = poly.kept(pts)
    for k in range(len(pts)):
        assert got[k] == winding_inside_2d(hexagon, pts[k])


def test_polyline_closest_matches_scan(tmp_path):
    hexagon = regular_polygon((0.5, 0.5), 0.3, 6)
    poly = make_polyline(tmp_path, hexagon, shuffle=True)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-0.2, 1.2, (300, 2))
    hit = poly.closest(pts)
    for k in range(len(pts)):
        d, q = brute_closest_segments(poly.points, poly.segments, pts[k])
        assert hit.distances[k] == pytest.approx(d, abs=1e-12)
        assert np.allclose(hit.points[k], q, atol=1e-12)


def test_polyline_edge_and_vertex_normals(tmp_path):
    poly = make_polyline(tmp_path, SQUARE)
    hit = poly.closest(np.array([[0.9, 0.5], [0.9, 0.9], [0.25, 0.5]]))
    assert np.allclose(hit.normals[0], [1.0, 0.0])
    assert np.allclose(hit.normals[1], [math.sqrt(0.5), math.sqrt(0.5)])
    assert np.allclose(hit.points[2], [0.2, 0.5])   # nearest edge of the square
    assert np.allclose(hit.normals[2], [-1.0, 0.0])


def test_polyline_orientation_fixed_for_clockwise_input(tmp_path):
    poly = make_polyline(tmp_path, SQUARE, reverse=True)
    hit = poly.closest(np.array([[0.9, 0.5]]))
    assert np.allclose(hit.normals[0], [1.0, 0.0])
    assert poly.kept(np.array([[0.5, 0.5]]))[0]


def test_polyline_void_flips(tmp_path):
    path = tmp_path / "void.msh"
    path.write_text(gmsh_polygon_text(SQUARE))
    poly = Polyline(*read_gmsh_lines(path), outer_boundary=False)
    assert not poly.kept(np.array([[0.5, 0.5]]))[0]
    assert poly.kept(np.array([[0.05, 0.05]]))[0]
    hit = poly.closest(np.array([[0.9, 0.5]]))
    assert np.allclose(hit.normals[0], [-1.0, 0.0])


def test_polyline_welds_duplicate_endpoints(tmp_path):
    poly = make_polyline(tmp_path, SQUARE)
    assert len(poly.points) == 4
    assert len(poly.segments) == 4


def test_polyline_open_chain_rejected():
    points = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
    with pytest.raises(GeometryError, match="joins 1 segment"):
        Polyline(points, np.array([(0, 1), (1, 2)]))


def test_polyline_branch_rejected():
    points = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (2.0, 0.5)])
    segments = np.array([(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 2)])
    with pytest.raises(GeometryError, match="joins"):
        Polyline(points, segments)


def square_loop(lo, hi, clockwise=False):
    loop = [(lo, lo), (hi, lo), (hi, hi), (lo, hi)]
    return loop[::-1] if clockwise else loop


def loops_polyline(loops, outer_boundary=True):
    points = np.concatenate([np.asarray(loop, float) for loop in loops])
    sizes = [len(loop) for loop in loops]
    starts = np.cumsum([0] + sizes[:-1])
    segments = np.concatenate([
        np.column_stack([s + np.arange(n), s + (np.arange(n) + 1) % n])
        for s, n in zip(starts, sizes)])
    return Polyline(points, segments, outer_boundary)


@pytest.mark.parametrize("outer", [True, False])
@pytest.mark.parametrize("winding", [(False, False), (False, True),
                                     (True, False), (True, True)],
                         ids=["ccw-ccw", "ccw-cw", "cw-ccw", "cw-cw"])
def test_hole_normals_point_into_the_hole(outer, winding):
    poly = loops_polyline([square_loop(0.0, 1.0, winding[0]),
                           square_loop(0.25, 0.75, winding[1])], outer)
    sign = 1.0 if outer else -1.0
    hit = poly.closest(np.array([[0.5, 0.3]]))      # in the hole
    assert np.array_equal(hit.points, [[0.5, 0.25]])
    assert np.array_equal(hit.normals, [[0.0, sign]])
    # every edge midpoint: the outer loop's normals point away from the
    # centre, the hole's toward it
    mid = poly.points[poly.segments].mean(axis=1)
    hit = poly.closest(mid)
    toward = np.einsum("ij,ij->i", hit.normals, 0.5 - mid)
    hole = np.abs(mid - 0.5).max(axis=1) < 0.3
    assert np.all(np.sign(toward) == np.where(hole, sign, -sign))
    kept = poly.kept(np.array([[0.1, 0.5], [0.5, 0.5], [1.5, 0.5]]))
    assert kept.tolist() == [outer, not outer, not outer]


def test_island_in_a_hole_turns_counterclockwise():
    poly = loops_polyline([square_loop(0.0, 1.0, True),
                           square_loop(0.2, 0.8),
                           square_loop(0.4, 0.6, True)])
    mid = poly.points[poly.segments].mean(axis=1)
    hit = poly.closest(mid)
    away = np.einsum("ij,ij->i", hit.normals, mid - 0.5)
    ring = np.abs(mid - 0.5).max(axis=1)   # 0.5 outer, 0.3 hole, 0.1 island
    assert np.all(np.sign(away) == np.where(np.isclose(ring, 0.3), -1.0, 1.0))
    kept = poly.kept(np.array([[0.1, 0.5], [0.3, 0.5], [0.5, 0.5]]))
    assert kept.tolist() == [True, False, True]


def star_polygon(rng, n, dyadic, axis_aligned):
    """A star polygon of up to ``n`` distinct vertices about (0.5, 0.5)."""
    angle = np.sort(rng.uniform(0, 2 * np.pi, n))
    radius = rng.uniform(0.05, 0.45, n)
    pts = 0.5 + radius[:, None] * np.column_stack([np.cos(angle),
                                                   np.sin(angle)])
    if axis_aligned:                # some edges horizontal, some vertical
        k = rng.integers(n, size=n // 3)
        axis = rng.integers(2, size=n // 3)
        pts[(k + 1) % n, axis] = pts[k, axis]
    if dyadic:
        pts = np.round(pts * 64) / 64
    _, first = np.unique(pts, axis=0, return_index=True)
    return pts[np.sort(first)]


def polyline_queries(poly, rng, n=100):
    """Random points plus points placed to tie or to pass through vertices."""
    v = poly.points
    lattice = rng.integers(-8, 73, (2 * n, 2)) / 64
    through = np.column_stack([rng.choice(v[:, 0], n), rng.choice(v[:, 1], n)])
    direction = rng.normal(size=(n // 4, 2))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    return np.concatenate([
        rng.uniform(-0.1, 1.1, (n, 2)), lattice, through,
        v, v[poly.segments].mean(axis=1),
        v[rng.integers(len(v), size=n)]
        + rng.choice([-1, 1], (n, 2)) * rng.choice([0.0, 2.0 ** -40], (n, 2)),
        0.5 + 1e3 * direction,
    ])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 300), seed=st.integers(0, 2 ** 32 - 1),
       dyadic=st.booleans(), axis_aligned=st.booleans(), outer=st.booleans(),
       budget=st.sampled_from([geometry._PAIR_BUDGET, 7]))
@example(n=3, seed=0, dyadic=True, axis_aligned=True, outer=True, budget=7)
@example(n=300, seed=1, dyadic=True, axis_aligned=True, outer=False,
         budget=geometry._PAIR_BUDGET)
def test_polyline_queries_match_the_scan_oracles(n, seed, dyadic,
                                                 axis_aligned, outer, budget):
    # the queries tested every point against every segment; through the
    # cell grids the answers must not change in a single bit
    rng = np.random.default_rng(seed)
    pts = star_polygon(rng, n, dyadic, axis_aligned)
    assume(len(pts) >= 3)
    loop = np.arange(len(pts))
    try:
        poly = Polyline(pts, np.column_stack([loop, np.roll(loop, -1)]),
                        outer)
    except GeometryError:           # rounded onto a line
        assume(False)
    queries = polyline_queries(poly, rng)
    with mock.patch.object(geometry, "_PAIR_BUDGET", budget):
        hit, want = poly.closest(queries), scan_polyline_closest(poly, queries)
        assert same_bits(poly.kept(queries), scan_polyline_kept(poly, queries))
    for field in ("points", "normals", "distances"):
        assert same_bits(getattr(hit, field), getattr(want, field))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 200),
       dyadic=st.booleans(),
       budget=st.sampled_from([geometry._PAIR_BUDGET, 7]))
def test_one_axis_cell_grid_finds_every_point_in_reach(seed, n, dyadic,
                                                       budget):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1, 2, (n, 1))
    queries = rng.uniform(-2, 3, (50, 1))
    if dyadic:                      # queries and points on cell boundaries
        points, queries = np.round(points * 8) / 8, np.round(queries * 8) / 8
    grid = geometry._CellGrid(points, float(rng.uniform(0.01, 1.0)))
    reach = rng.choice([0.0, 0.1, 0.5, 4.0], len(queries))
    with mock.patch.object(geometry, "_PAIR_BUDGET", budget):
        found = [np.column_stack([row, point, d2])
                 for row, point, d2 in grid.near(queries, reach)]
    found = np.concatenate(found) if found else np.empty((0, 3))
    row, point = found[:, 0].astype(int), found[:, 1].astype(int)
    assert np.all(np.diff(row) >= 0)            # grouped by query
    pairs = row * n + point
    assert len(np.unique(pairs)) == len(pairs)  # each pair once
    gap = points[point, 0] - queries[row, 0]
    assert same_bits(found[:, 2], gap * gap)
    # a brute-force scan: each point within reach is found, and each found
    # point lies in a cell that the query's interval meets
    within = np.abs(points[None, :, 0] - queries[:, None, 0]) <= reach[:, None]
    assert np.isin(np.flatnonzero(within.ravel()), pairs).all()
    cell = grid.cells(points[point])[:, 0]
    assert np.all(cell >= grid.cells(queries[row] - reach[row, None])[:, 0])
    assert np.all(cell <= grid.cells(queries[row] + reach[row, None])[:, 0])


def test_polyline_side_test_memory_stays_within_the_grid():
    # testing every point against every segment peaked at 136 MB; through
    # the cell grid the peak is about 17 MB
    polygon = np.asarray(regular_polygon((0.5, 0.5), 0.3, 4096))
    loop = np.arange(len(polygon))
    poly = Polyline(polygon, np.column_stack([loop, np.roll(loop, -1)]))
    pts = np.random.default_rng(8).uniform(0, 1, (1 << 16, 2))
    tracemalloc.start()
    try:
        poly.kept(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", ["gmsh", "stl_binary", "stl_ascii",
                                   "polyline", "trisurface"])
def test_non_finite_geometry_input_raises_geometry_error(tmp_path, entry, bad):
    square = np.array(SQUARE)
    square[2, 1] = bad
    cube, faces = cube_tris((0.25, 0.25, 0.25), (0.75, 0.75, 0.75))
    cube[5, 2] = bad
    path = tmp_path / "shape"
    if entry == "gmsh":
        path.write_text(gmsh_polygon_text(square.tolist()))
        call, match = lambda: read_gmsh_lines(path), re.escape(str(path))
    elif entry == "stl_binary":
        with np.errstate(invalid="ignore"):
            write_stl(path, cube, faces)
        call, match = lambda: read_stl(path), re.escape(str(path))
    elif entry == "stl_ascii":
        path.write_text("solid s\n" + "".join(
            "facet normal 0 0 0\nouter loop\n"
            + "".join(f"vertex {x!r} {y!r} {z!r}\n"
                      for x, y, z in cube[face].tolist())
            + "endloop\nendfacet\n" for face in faces) + "endsolid s\n")
        call, match = lambda: read_stl(path), re.escape(str(path))
    elif entry == "polyline":
        call, match = lambda: Polyline(square, [(0, 1), (1, 2), (2, 3),
                                                (3, 0)]), "'points'"
    else:
        call, match = lambda: TriSurface(cube, faces), "'vertices'"
    with pytest.raises(GeometryError, match=match) as caught:
        call()
    assert "NaN or infinite" in str(caught.value)


def test_polygon_approximates_circle(tmp_path):
    polygon = regular_polygon((0.5, 0.5), 0.3, 64)
    poly = make_polyline(tmp_path, polygon)
    ball = Ball((0.5, 0.5), 0.3)
    sagitta = 0.3 * (1 - math.cos(math.pi / 64))
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 1, (400, 2))
    radial = np.abs(np.linalg.norm(pts - [0.5, 0.5], axis=1) - 0.3)
    clear = radial > 2 * sagitta
    assert np.array_equal(poly.kept(pts)[clear], ball.kept(pts)[clear])
    hit = poly.closest(pts)
    exact = ball.closest(pts)
    assert np.all(np.abs(hit.distances - exact.distances) <= 2 * sagitta + 1e-12)


def test_gmsh_reader_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.msh"
    bad.write_text("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
    with pytest.raises(GeometryError, match="unsupported Gmsh format"):
        read_gmsh_lines(bad)
    bad.write_text("just text\n")
    with pytest.raises(GeometryError, match="malformed Gmsh"):
        read_gmsh_lines(bad)


# ---------------------------------------------------------------------------
# Triangle surfaces from STL files

def test_stl_binary_roundtrip_and_weld(tmp_path):
    vertices, faces = cube_tris((0.25, 0.25, 0.25), (0.75, 0.75, 0.75))
    path = tmp_path / "cube.stl"
    write_stl(path, vertices, faces)
    surf = TriSurface(*read_stl(path))
    assert len(surf.vertices) == 8
    assert len(surf.faces) == 12
    assert surf.kept(np.array([[0.5, 0.5, 0.5]]))[0]
    assert not surf.kept(np.array([[0.1, 0.5, 0.5]]))[0]


def test_stl_ascii_reader(tmp_path):
    vertices, faces = cube_tris((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    lines = ["solid cube"]
    for f in faces:
        lines.append(" facet normal 0 0 0")
        lines.append("  outer loop")
        for k in f:
            x, y, z = vertices[k]
            lines.append(f"   vertex {x} {y} {z}")
        lines.append("  endloop")
        lines.append(" endfacet")
    lines.append("endsolid cube")
    path = tmp_path / "cube_ascii.stl"
    path.write_text("\n".join(lines))
    surf = TriSurface(*read_stl(path))
    assert len(surf.vertices) == 8
    assert surf.kept(np.array([[0.5, 0.5, 0.5]]))[0]


def test_inverted_stl_is_reoriented(tmp_path):
    vertices, faces = cube_tris((0.25, 0.25, 0.25), (0.75, 0.75, 0.75))
    surf = TriSurface(vertices, faces[:, ::-1])
    assert surf.kept(np.array([[0.5, 0.5, 0.5]]))[0]
    hit = surf.closest(np.array([[0.5, 0.5, 0.9]]))
    assert np.allclose(hit.normals[0], [0, 0, 1])


def test_cube_kept_matches_winding_oracle():
    vertices, faces = cube_tris((0.25, 0.25, 0.25), (0.75, 0.75, 0.75))
    surf = TriSurface(vertices, faces)
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 1, (250, 3))
    got = surf.kept(pts)
    for k in range(len(pts)):
        assert got[k] == winding_inside_3d(surf.vertices, surf.faces, pts[k])


def test_cube_kept_on_lattice_columns():
    # A lattice whose columns pass exactly through cube edges and corners
    # exercises the ray-retry path.
    vertices, faces = cube_tris((0.25, 0.25, 0.25), (0.75, 0.75, 0.75))
    surf = TriSurface(vertices, faces)
    axis = np.linspace(0.0, 1.0, 17)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    pts = grid.reshape(-1, 3)
    got = surf.kept(pts)
    margin = 1e-6
    inside = np.all((pts > 0.25 + margin) & (pts < 0.75 - margin), axis=1)
    outside = np.any((pts < 0.25 - margin) | (pts > 0.75 + margin), axis=1)
    assert np.all(got[inside])
    assert not np.any(got[outside])


def test_cube_closest_matches_scan_oracle():
    vertices, faces = cube_tris((0.25, 0.25, 0.25), (0.75, 0.75, 0.75))
    surf = TriSurface(vertices, faces)
    rng = np.random.default_rng(9)
    pts = rng.uniform(-0.2, 1.2, (1000, 3))
    hit = surf.closest(pts)
    for k in range(len(pts)):
        d, q = brute_closest_triangles(surf.vertices, surf.faces, pts[k])
        assert hit.distances[k] == pytest.approx(d, abs=1e-12)
        assert np.allclose(hit.points[k], q, atol=1e-10)


def test_cube_feature_normals():
    vertices, faces = cube_tris((0.25, 0.25, 0.25), (0.75, 0.75, 0.75))
    surf = TriSurface(vertices, faces)
    hit = surf.closest(np.array([
        [0.5, 0.5, 0.9],      # above the top face
        [0.9, 0.5, 0.9],      # off the top-right edge
        [0.9, 0.9, 0.9],      # off a corner
    ]))
    assert np.allclose(hit.normals[0], [0, 0, 1])
    assert np.allclose(hit.normals[1], [math.sqrt(0.5), 0, math.sqrt(0.5)])
    assert np.allclose(hit.normals[2], np.full(3, 1 / math.sqrt(3)))
    assert np.allclose(hit.points[2], [0.75, 0.75, 0.75])


def test_icosphere_tracks_analytic_ball():
    vertices, faces = icosphere((0.5, 0.5, 0.5), 0.35, subdivisions=3)
    surf = TriSurface(vertices, faces)
    ball = Ball((0.5, 0.5, 0.5), 0.35)
    rng = np.random.default_rng(10)
    pts = rng.uniform(0, 1, (300, 3))
    # facet sagitta bounds both classification and distance error
    edge = np.linalg.norm(vertices[faces[0][0]] - vertices[faces[0][1]])
    sag = edge ** 2 / (2 * 0.35)
    radial = np.abs(np.linalg.norm(pts - 0.5, axis=1) - 0.35)
    clear = radial > 2 * sag
    assert np.array_equal(surf.kept(pts)[clear], ball.kept(pts)[clear])
    hit = surf.closest(pts)
    exact = ball.closest(pts)
    assert np.all(np.abs(hit.distances - exact.distances) <= 2 * sag)
    outward = np.einsum("ij,ij->i", hit.normals, exact.normals)
    assert np.all(outward > 0.95)


def test_bumpy_sphere_is_watertight_and_consistent():
    vertices, faces = bumpy_sphere((0.5, 0.5, 0.5), 0.3, subdivisions=2)
    surf = TriSurface(vertices, faces)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1, (120, 3))
    got = surf.kept(pts)
    for k in range(len(pts)):
        assert got[k] == winding_inside_3d(surf.vertices, surf.faces, pts[k])


SURFACES = {
    "cube": cube_tris((0.25, 0.25, 0.25), (0.75, 0.75, 0.75)),
    "icosphere": icosphere((0.5, 0.5, 0.5), 0.35, subdivisions=2),
    "bumpy": bumpy_sphere((0.5, 0.5, 0.5), 0.3, subdivisions=2),
    "slivers": fanned_cube((0.25, 0.25, 0.25), (0.75, 0.75, 0.75)),
}
QUERY_KINDS = ("random", "vertices", "midpoints", "columns", "sides", "far",
               "cell_edges", "duplicates")


def query_points(surf, rng, kinds, n=40):
    """Random points plus points placed to tie or to graze."""
    v, f = surf.vertices, surf.faces
    parts = [np.empty((0, 3))]
    if "random" in kinds:
        parts.append(rng.uniform(-0.1, 1.1, (n, 3)))
    if "vertices" in kinds:         # closest points tie between faces
        parts.append(v[rng.integers(len(v), size=n)])
    if "midpoints" in kinds:
        face = f[rng.integers(len(f), size=n)]
        k = rng.integers(3, size=n)
        rows = np.arange(n)
        parts.append((v[face[rows, k]] + v[face[rows, (k + 1) % 3]]) / 2)
    if "columns" in kinds:          # rays through vertices get nudged
        xy = v[rng.integers(len(v), size=n), :2]
        parts.append(np.column_stack([xy, rng.uniform(0, 1, n)]))
    if "sides" in kinds:            # rays in the plane of edge-on faces
        p = rng.uniform(0, 1, (n, 3))
        p[:, 0] = v[rng.integers(len(v), size=n), 0]
        parts.append(p)
    if "far" in kinds:              # the distance bound widens many times
        direction = rng.normal(size=(n, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        extent = float(np.ptp(v, axis=0).max())
        parts.append(v.mean(axis=0) + 10 * extent * direction)
    if "cell_edges" in kinds:       # on the cell boundaries of both grids
        for grid, _ in (surf._face_search, surf._column_search):
            p = rng.uniform(-0.1, 1.1, (n, 3))
            k = rng.integers(-1, grid.top + 2, size=(n, len(grid.top)))
            p[:, :len(grid.top)] = grid.origin + k * grid.cell
            parts.append(p)
    if "duplicates" in kinds:       # each distinct point is counted once
        rows = np.concatenate([rng.uniform(-0.1, 1.1, (n // 4, 3)),
                               v[rng.integers(len(v), size=n // 4)]])
        column = np.empty((n, 3))   # one (x, y) column, some heights equal
        column[:, :2] = v[rng.integers(len(v)), :2]
        column[:, 2] = rng.choice(rng.uniform(-0.1, 1.1, n // 4), n)
        zeros = rng.uniform(-0.1, 1.1, (n // 2, 3))
        zeros[rng.random(zeros.shape) < 0.5] = 0.0
        signed = np.where(zeros == 0.0, -0.0, zeros)    # differ by sign only
        parts.append(rng.permutation(np.concatenate(
            [np.repeat(rows, 3, axis=0), column, zeros, signed])))
    return np.concatenate(parts)


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from(sorted(SURFACES)), outer=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1),
       kinds=st.sets(st.sampled_from(QUERY_KINDS), min_size=1),
       budget=st.sampled_from([geometry._PAIR_BUDGET, 7]))
@example(shape="cube", outer=True, seed=0, kinds=set(QUERY_KINDS), budget=7)
@example(shape="bumpy", outer=False, seed=1, kinds=set(QUERY_KINDS),
         budget=geometry._PAIR_BUDGET)
def test_candidate_search_matches_full_scan(shape, outer, seed, kinds, budget):
    surf = TriSurface(*SURFACES[shape], outer_boundary=outer)
    pts = query_points(surf, np.random.default_rng(seed), kinds)
    with mock.patch.object(geometry, "_PAIR_BUDGET", budget):
        hit = surf.closest(pts)
        kept = surf.kept(pts)
    projections, normals, distances = scan_closest(surf, pts)
    assert np.array_equal(hit.points, projections)
    assert np.array_equal(hit.normals, normals)
    assert np.array_equal(hit.distances, distances)
    assert np.array_equal(kept, scan_kept(surf, pts))
    assert np.array_equal(surf.edge_slot_normals,
                          scan_edge_slot_normals(surf.faces, surf.face_normals))


def same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from(sorted(SURFACES)), outer=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1),
       kinds=st.sets(st.sampled_from(QUERY_KINDS), min_size=1),
       budget=st.sampled_from([geometry._PAIR_BUDGET, 7]))
@example(shape="slivers", outer=False, seed=2, kinds=set(QUERY_KINDS), budget=7)
@example(shape="icosphere", outer=True, seed=3, kinds=set(QUERY_KINDS),
         budget=geometry._PAIR_BUDGET)
def test_queries_match_the_sorting_oracles(shape, outer, seed, kinds, budget):
    # the side test counted crossings for every point and closest sorted
    # each chunk's pairs; the answers must not change in a single bit
    surf = TriSurface(*SURFACES[shape], outer_boundary=outer)
    pts = query_points(surf, np.random.default_rng(seed), kinds)
    with mock.patch.object(geometry, "_PAIR_BUDGET", budget):
        hit, want = surf.closest(pts), lexsort_closest(surf, pts)
        assert same_bits(surf.kept(pts), column_sort_kept(surf, pts))
    for field in ("points", "normals", "distances"):
        assert same_bits(getattr(hit, field), getattr(want, field))


def test_nan_distances_rank_last_as_in_the_sort():
    # no finite query is known to give a nan distance, so some are put in:
    # a sort ranked nan after every number and inf, then took the lowest face
    surf = TriSurface(*SURFACES["bumpy"])
    pts = query_points(surf, np.random.default_rng(6), {"random", "vertices"})
    closest_on = geometry._closest_on_triangles

    def poisoned(p, a, b, c):
        cand, feature = closest_on(p, a, b, c)
        slot = np.arange(len(p)) % 5
        cand[slot == 0] = np.nan
        cand[slot == 1] = np.inf
        cand[(p[:, None] == pts[None, :5]).all(axis=2).any(axis=1)] = np.nan
        return cand, feature

    with mock.patch.object(geometry, "_closest_on_triangles", poisoned), \
            np.errstate(invalid="ignore"):
        hit, want = surf.closest(pts), lexsort_closest(surf, pts)
    assert np.isnan(hit.distances[:5]).all()
    assert np.isfinite(hit.distances[5:]).any()
    for field in ("points", "normals", "distances"):
        assert same_bits(getattr(hit, field), getattr(want, field))


@pytest.mark.parametrize("shape", sorted(SURFACES))
def test_repeated_points_get_the_answer_of_one(shape):
    surf = TriSurface(*SURFACES[shape])
    rng = np.random.default_rng(5)
    p = query_points(surf, rng, set(QUERY_KINDS) - {"duplicates"})
    perm = rng.permutation(8 * len(p))
    got = surf.kept(np.repeat(p, 8, axis=0)[perm])
    assert np.array_equal(got, np.repeat(surf.kept(p), 8)[perm])


@pytest.mark.parametrize("factor", [1.0, 1e9])
def test_extreme_coordinates_match_full_scan(factor):
    # queries at +-1e12 and a surface scaled by 1e9 stay inside the grid's
    # cell index range
    vertices, faces = SURFACES["bumpy"]
    surf = TriSurface(vertices * factor, faces)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.1, 1.1, (60, 3)) * factor
    pts[rng.random((60, 3)) < 0.4] = 1e12
    pts[:20] *= rng.choice([-1.0, 1.0], (20, 3))
    assert_matches_full_scan(surf, pts)


def test_far_apart_parts_match_full_scan():
    # two tiny cubes 1e3 apart: cells twice their face radius would number
    # about 3e26, far past an int64 key; the capped grid stays small
    lo, hi = np.zeros(3), np.full(3, 1e-6)
    a, fa = cube_tris(lo, hi)
    b, fb = cube_tris(lo + 1e3, hi + 1e3)
    surf = TriSurface(np.concatenate([a, b]), np.concatenate([fa, fb + 8]))
    grid, _ = surf._face_search
    assert np.prod(grid.top + 1) <= 1000
    rng = np.random.default_rng(4)
    pts = np.concatenate([rng.uniform(-1e-6, 2e-6, (30, 3)),
                          1e3 + rng.uniform(-1e-6, 2e-6, (30, 3)),
                          rng.uniform(-10, 1e3 + 10, (30, 3))])
    assert_matches_full_scan(surf, pts)


def assert_matches_full_scan(surf, pts):
    hit = surf.closest(pts)
    projections, normals, distances = scan_closest(surf, pts)
    assert np.array_equal(hit.points, projections)
    assert np.array_equal(hit.normals, normals)
    assert np.array_equal(hit.distances, distances)
    assert np.array_equal(surf.kept(pts), scan_kept(surf, pts))


def test_cube_side_column_takes_the_graze_path():
    # 5e-10 from the cube's edge-on face at x = 0.25: outside the eps band
    # of the top and bottom faces' edges, inside the graze margin
    surf = TriSurface(*SURFACES["cube"])
    x = 0.25 + 5e-10
    pts = np.array([(x, 0.5, z) for z in np.linspace(0.0, 1.0, 11)])
    calls = []
    crossings = geometry._ray_crossings

    def spy(xy, a, b, c, scale):
        calls.append(xy.copy())
        return crossings(xy, a, b, c, scale)

    with mock.patch.object(geometry, "_ray_crossings", spy):
        got = surf.kept(pts)
    assert len(calls) == 2
    assert np.all(calls[1][:, 0] == x + 1e-9)
    assert got.tolist() == [False] * 3 + [True] * 5 + [False] * 3
    assert np.array_equal(got, scan_kept(surf, pts))


def test_20k_triangle_surface_meshes_and_sets_up(tmp_path):
    vertices, faces = bumpy_sphere((0.5, 0.5, 0.5), 0.35, subdivisions=5)
    assert len(faces) == 20480
    write_stl(tmp_path / "bumpy.stl", vertices, faces)
    spec = parse_problem(sphere_script(base=3, glevel=4, shape="mesh",
                                       shape_lines="mesh_file = bumpy.stl"))
    mesh = build_mesh(spec, base_dir=str(tmp_path))
    asm = Assembler(mesh, spec)
    surf = mesh.geometries[0]
    assert np.array_equal(surf.edge_slot_normals,
                          scan_edge_slot_normals(surf.faces, surf.face_normals))
    # the sphere touches no wall, so every face batch is a geometry batch
    assert (mesh.faces.kind == KIND_GEOMETRY).all()
    batches = asm.face_batches
    x_surr = np.concatenate([b.coords().reshape(-1, 3) for b in batches])
    x_true = np.concatenate([b.x_true.reshape(-1, 3) for b in batches])
    n_true = np.concatenate([
        np.stack([b.surface[f"special:ntrue:{d}"] for d in range(3)],
                 axis=-1).reshape(-1, 3) for b in batches])
    sample = np.random.default_rng(12).choice(len(x_surr), 200, replace=False)
    projections, normals, _ = scan_closest(surf, x_surr[sample])
    assert np.array_equal(x_true[sample], projections)
    assert np.array_equal(n_true[sample], normals)


def test_void_surface_flips():
    vertices, faces = cube_tris((0.25, 0.25, 0.25), (0.75, 0.75, 0.75))
    surf = TriSurface(vertices, faces, outer_boundary=False)
    assert not surf.kept(np.array([[0.5, 0.5, 0.5]]))[0]
    assert surf.kept(np.array([[0.1, 0.1, 0.1]]))[0]
    hit = surf.closest(np.array([[0.5, 0.5, 0.9]]))
    assert np.allclose(hit.normals[0], [0, 0, -1])


def test_open_surface_rejected():
    vertices, faces = cube_tris((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    with pytest.raises(GeometryError, match="watertight"):
        TriSurface(vertices, faces[:-1])


def test_flat_surface_rejected():
    quad = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], float)
    faces = np.array([(0, 1, 2), (0, 2, 3), (2, 1, 0), (3, 2, 0)])
    with pytest.raises(GeometryError, match="no volume"):
        TriSurface(quad, faces)


def test_empty_stl_rejected(tmp_path):
    path = tmp_path / "empty.stl"
    path.write_bytes(b"\0" * 80 + (0).to_bytes(4, "little"))
    with pytest.raises(GeometryError, match="no triangles"):
        read_stl(path)


@pytest.mark.parametrize("shape", ["ball", "ball3d", "polyline", "trisurface",
                                   "trisurface_void"])
def test_queries_on_no_points(tmp_path, shape):
    # refinement waves that split every cell classify zero points
    geom = {"ball": lambda: Ball((0.5, 0.5), 0.25),
            "ball3d": lambda: Ball((0.5, 0.5, 0.5), 0.25, outer_boundary=False),
            "polyline": lambda: make_polyline(tmp_path, SQUARE),
            "trisurface": lambda: TriSurface(*SURFACES["cube"]),
            "trisurface_void": lambda: TriSurface(
                *SURFACES["cube"], outer_boundary=False)}[shape]()
    dim = geom.dimension
    kept = geom.kept(np.empty((0, dim)))
    assert kept.shape == (0,) and kept.dtype == bool
    hit = geom.closest(np.empty((0, dim)))
    assert hit.points.shape == (0, dim)
    assert hit.normals.shape == (0, dim)
    assert hit.distances.shape == (0,)


@pytest.mark.parametrize("shape", ["polyline", "trisurface"])
def test_empty_queries_build_no_search_tree(shape):
    # a zero-point query answers before the cell grids are built
    surf = QUERY_SHAPES[shape]()
    dim = surf.dimension
    surf.kept(np.empty((0, dim)))
    surf.closest(np.empty((0, dim)))
    assert "_column_search" not in vars(surf)
    assert "_face_search" not in vars(surf)
    surf.kept(np.full((1, dim), 0.5))
    surf.closest(np.full((1, dim), 0.5))
    assert "_column_search" in vars(surf) and "_face_search" in vars(surf)


def test_each_shape_binds_its_queries_in_its_own_namespace():
    """perfbench times ``kept`` and ``closest`` by replacing them in each
    shape class's own ``__dict__``; the faceted shapes share one body."""
    for cls in (Ball, Polyline, TriSurface):
        assert {"kept", "closest"} <= vars(cls).keys(), cls.__name__
    assert Polyline.kept is TriSurface.kept


def test_stl_run_never_imports_scipy_spatial(tmp_path):
    write_stl(tmp_path / "cube.stl", *SURFACES["cube"])
    script = tmp_path / "cube.prob"
    script.write_text(sphere_script(base=3, glevel=3, shape="mesh",
                                    shape_lines="mesh_file = cube.stl"))
    code = ("import sys\n"
            "from treefem.cli import cmd_run\n"
            f"cmd_run({str(script)!r}, {str(tmp_path / 'out')!r})\n"
            "print('scipy.spatial' in sys.modules)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "solution.vtk").exists()
    assert done.stdout.split()[-1] == "False"

# ---------------------------------------------------------------------------
# Loader dispatch

def test_load_geometry_circle():
    spec = GeometrySpec(kind="circle", refine_level=5, center=(0.5, 0.5),
                        radius=0.25)
    geom = load_geometry(spec, 2)
    assert isinstance(geom, Ball)
    assert geom.dimension == 2


def test_load_geometry_mesh_with_position(tmp_path):
    path = tmp_path / "square.msh"
    path.write_text(gmsh_polygon_text(SQUARE))
    spec = GeometrySpec(kind="mesh", refine_level=5, mesh_file="square.msh",
                        position=(0.1, 0.0))
    geom = load_geometry(spec, 2, base_dir=str(tmp_path))
    assert isinstance(geom, Polyline)
    assert geom.kept(np.array([[0.85, 0.5]]))[0]      # square shifted right
    assert not geom.kept(np.array([[0.25, 0.5]]))[0]


def test_load_geometry_stl(tmp_path):
    vertices, faces = cube_tris((0.25, 0.25, 0.25), (0.75, 0.75, 0.75))
    write_stl(tmp_path / "cube.stl", vertices, faces)
    spec = GeometrySpec(kind="mesh", refine_level=4, mesh_file="cube.stl",
                        outer_boundary=False)
    geom = load_geometry(spec, 3, base_dir=str(tmp_path))
    assert isinstance(geom, TriSurface)
    assert not geom.kept(np.array([[0.5, 0.5, 0.5]]))[0]
