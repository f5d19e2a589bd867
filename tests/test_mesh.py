"""Tree mesh construction: refinement, balance, carving, constraints."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import treefem.mesh as mesh_module
from treefem.errors import EmptyMeshError, MeshError
from treefem.geometry import load_geometry, write_stl
from treefem.mesh import (
    INTERIOR, KIND_GEOMETRY, KIND_WALL, _constraint_matrix, _corner_index,
    balance, build_mesh, build_tree, carve, classify_elements, corner_bits,
    number_nodes,
)
from treefem.problem import parse_problem

import mesh_oracles as oracle
from mesh_oracles import hanging_map
from shapes import bumpy_sphere, gmsh_polygon_text, regular_polygon
from test_acceptance import sphere_script
from test_tree_index import box_spec

BASE_2D = """
[domain]
dimension = 2
min = 0, 0
max = 1, 1
base_refine_level = {base}
{extra}

[variables]
names = u

[weak_form]
dot(grad(u), grad(v)) - 1.0 * v
"""

CIRCLE_2D = """
[domain]
dimension = 2
min = 0, 0
max = 1, 1
base_refine_level = {base}
{extra}

[geometry]
shape = circle
center = 0.5, 0.5
radius = {radius}
refine_level = {glevel}
{gextra}
boundary_types = sbm
bids = 1

[variables]
names = u

[boundary_regions]
1 = true

[boundary_conditions]
u @ 1 = dirichlet, 0

[weak_form]
dot(grad(u), grad(v)) - 1.0 * v
"""

SPHERE_3D = """
[domain]
dimension = 3
min = 0, 0, 0
max = 1, 1, 1
base_refine_level = {base}

[geometry]
shape = sphere
center = 0.5, 0.5, 0.5
radius = {radius}
refine_level = {glevel}
boundary_types = sbm
bids = 1

[variables]
names = u

[boundary_regions]
1 = true

[boundary_conditions]
u @ 1 = dirichlet, 0

[weak_form]
dot(grad(u), grad(v)) - 1.0 * v
"""


def mesh_2d(base=3, extra=""):
    return build_mesh(parse_problem(BASE_2D.format(base=base, extra=extra)))


def circle_script(base, glevel, radius=0.45, extra="", gextra=""):
    return CIRCLE_2D.format(base=base, glevel=glevel, radius=radius,
                            extra=extra, gextra=gextra)


def circle_mesh(base=4, glevel=6, radius=0.5, extra="", gextra=""):
    return build_mesh(parse_problem(circle_script(base, glevel, radius, extra,
                                                  gextra)))


def face_area_normal(mesh):
    """Physical area and outward unit normal of every surrogate face."""
    f = mesh.faces
    size = mesh.cell_sizes(mesh.levels[f.element])
    dim = mesh.dimension
    rows = np.arange(len(f))
    area = np.ones(len(f))
    for col in range(dim - 1):
        taxes = np.asarray([[d for d in range(dim) if d != a][col]
                            for a in f.axis])
        frac = np.where(f.slices[:, col] == 0, 1.0, 0.5)
        area *= size[rows, taxes] * frac
    normal = np.zeros((len(f), dim))
    normal[rows, f.axis] = np.where(f.orient == 1, 1.0, -1.0)
    return area, normal


def element_boxes(mesh):
    lo = mesh.element_origin()
    return lo, lo + mesh.cell_sizes()


def two_to_one_ok(mesh, include_edges=False):
    """Brute-force pairwise adjacency check of the level gradation."""
    lo, hi = element_boxes(mesh)
    levels = mesh.levels
    dim = mesh.dimension
    gap = np.maximum(lo[:, None, :], lo[None, :, :]) - \
        np.minimum(hi[:, None, :], hi[None, :, :])
    separated = (gap > 0).any(axis=-1)
    ntouch = (gap == 0).sum(axis=-1)
    nover = (gap < 0).sum(axis=-1)
    diff = np.abs(levels[:, None] - levels[None, :])
    bad = ~separated & (ntouch == 1) & (nover == dim - 1) & (diff > 1)
    if include_edges and dim == 3:
        bad |= ~separated & (ntouch == 2) & (nover == 1) & (diff > 1)
    return not bad.any()


def check_linear_reproduction(mesh):
    coeffs = np.asarray([0.37, 1.7, -0.4, 0.9][:mesh.dimension + 1])
    c = mesh.node_coords()
    values = coeffs[0] + c @ coeffs[1:]
    expanded = mesh.constraint @ values[mesh.free_nodes]
    assert np.abs(expanded - values).max() < 1e-12


# ---------------------------------------------------------------------------
# uniform meshes

def test_uniform_counts():
    mesh = mesh_2d(base=3)
    assert mesh.n_elements == 64
    assert mesh.n_nodes == 81
    assert mesh.n_free == 81
    assert len(mesh.hanging) == 0
    assert len(mesh.faces) == 32
    assert (mesh.faces.kind == KIND_WALL).all()
    assert (mesh.faces.geom == -1).all()
    levels, counts = np.unique(mesh.levels, return_counts=True)
    assert (levels.tolist(), counts.tolist()) == ([3], [64])


def test_uniform_node_coordinates():
    mesh = mesh_2d(base=2)
    c = mesh.node_coords()
    expected = np.asarray(sorted(
        (x / 4.0, y / 4.0) for x in range(5) for y in range(5)))
    got = np.asarray(sorted(map(tuple, c)))
    assert np.abs(got - expected).max() == 0.0


def test_constraint_is_identity_without_hanging():
    mesh = mesh_2d(base=3)
    eye = mesh.constraint.toarray()
    assert eye.shape == (81, 81)
    assert np.array_equal(eye, np.eye(81))


def test_determinism():
    a = mesh_2d(base=3, extra="refine_where = x < 0.5 && level < 5")
    b = mesh_2d(base=3, extra="refine_where = x < 0.5 && level < 5")
    assert np.array_equal(a.levels, b.levels)
    assert np.array_equal(a.anchors, b.anchors)
    assert np.array_equal(a.elem_nodes, b.elem_nodes)
    assert np.array_equal(a.faces.element, b.faces.element)
    assert np.array_equal(a.faces.slices, b.faces.slices)


def test_anisotropic_domain_cells():
    mesh = build_mesh(parse_problem(BASE_2D.format(base=2, extra="")
                                    .replace("max = 1, 1", "max = 2, 1")))
    sizes = mesh.cell_sizes()
    assert np.allclose(sizes[:, 0], 0.5)
    assert np.allclose(sizes[:, 1], 0.25)


# ---------------------------------------------------------------------------
# local refinement and hanging nodes

def test_half_domain_refinement_counts():
    mesh = mesh_2d(base=3, extra="refine_where = x < 0.5 && level < 4")
    levels, counts = np.unique(mesh.levels, return_counts=True)
    assert (levels.tolist(), counts.tolist()) == ([3, 4], [32, 128])
    assert len(mesh.hanging) == 8
    for node, constraint in hanging_map(mesh).items():
        assert len(constraint) == 2
        assert all(w == 0.5 for _, w in constraint)
        mid = mesh.node_coords()[node]
        ends = mesh.node_coords()[[p for p, _ in constraint]]
        assert np.allclose(ends.mean(axis=0), mid)
    assert mesh.n_free == mesh.n_nodes - 8
    check_linear_reproduction(mesh)


def test_refine_where_sees_t_at_zero():
    # the mesh is built once, at t = 0
    timed = mesh_2d(base=2, extra="refine_where = x < 0.5 + t && level < 3")
    fixed = mesh_2d(base=2, extra="refine_where = x < 0.5 && level < 3")
    levels, counts = np.unique(timed.levels, return_counts=True)
    assert (levels.tolist(), counts.tolist()) == ([2, 3], [8, 32])
    assert np.array_equal(timed.levels, fixed.levels)
    assert np.array_equal(timed.anchors, fixed.anchors)


@pytest.mark.parametrize("script, center, position, shifted", [
    (CIRCLE_2D.format(base=3, glevel=5, radius=0.3, extra="", gextra=""),
     "0.5, 0.5", "0.125, -0.0625", "0.625, 0.4375"),
    (SPHERE_3D.format(base=2, glevel=3, radius=0.3),
     "0.5, 0.5, 0.5", "0.125, 0, -0.125", "0.625, 0.5, 0.375"),
], ids=["circle", "sphere"])
def test_analytic_geometry_position_translates_center(script, center,
                                                      position, shifted):
    moved = build_mesh(parse_problem(script.replace(
        f"center = {center}", f"center = {center}\nposition = {position}")))
    placed = build_mesh(parse_problem(script.replace(
        f"center = {center}", f"center = {shifted}")))
    still = build_mesh(parse_problem(script))
    assert np.array_equal(moved.levels, placed.levels)
    assert np.array_equal(moved.anchors, placed.anchors)
    assert not np.array_equal(moved.anchors, still.anchors)


def test_hanging_nodes_on_interface_line():
    mesh = mesh_2d(base=3, extra="refine_where = x < 0.5 && level < 4")
    coords = mesh.node_coords()[mesh.hanging]
    assert np.allclose(coords[:, 0], 0.5)


def test_3d_hanging_patterns():
    mesh = build_mesh(parse_problem("""
[domain]
dimension = 3
min = 0, 0, 0
max = 1, 1, 1
base_refine_level = 2
refine_where = x < 0.5 && level < 3

[variables]
names = u

[weak_form]
dot(grad(u), grad(v)) - 1.0 * v
"""))
    hanging = hanging_map(mesh)
    assert hanging
    patterns = {tuple(sorted(w for _, w in cons))
                for cons in hanging.values()}
    assert patterns == {(0.5, 0.5), (0.25, 0.25, 0.25, 0.25)}
    for node, constraint in hanging.items():
        mid = mesh.node_coords()[node]
        ends = mesh.node_coords()[[p for p, _ in constraint]]
        assert np.allclose(ends.mean(axis=0), mid)
    check_linear_reproduction(mesh)
    assert two_to_one_ok(mesh, include_edges=True)


def test_steep_corner_gradation_reproduces_linears():
    # levels 2 to 7 graded 2:1 towards one corner; balance keeps every
    # parent of a hanging node free, so no constraint refers to another
    mesh = mesh_2d(base=2, extra=(
        "refine_where = x < exp(-0.6 * level) && y < exp(-0.6 * level) "
        "&& level < 7"))
    assert mesh.levels.max() == 7
    assert len(mesh.hanging) > 0
    check_linear_reproduction(mesh)
    assert two_to_one_ok(mesh)


def test_wall_refinement():
    mesh = mesh_2d(base=2, extra=(
        "wall_refine_level = 4\nrefine_walls = x-"))
    lo, hi = element_boxes(mesh)
    on_wall = lo[:, 0] == 0.0
    assert (mesh.levels[on_wall] == 4).all()
    # levels grade down away from the wall (siblings of split cells remain)
    assert (mesh.levels[lo[:, 0] >= 0.25] == 2).all()
    assert (mesh.levels[(lo[:, 0] >= 0.125) & (lo[:, 0] < 0.25)] == 3).all()
    assert (mesh.levels[lo[:, 0] < 0.125] == 4).all()
    assert two_to_one_ok(mesh)
    check_linear_reproduction(mesh)


def test_two_wall_refinement():
    mesh = mesh_2d(base=2, extra=(
        "wall_refine_level = 3\nrefine_walls = x-, y+"))
    lo, hi = element_boxes(mesh)
    touch = (lo[:, 0] == 0.0) | (hi[:, 1] == 1.0)
    assert (mesh.levels[touch] == 3).all()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(1, 4),
       st.integers(1, 4), st.integers(3, 5))
def test_balance_gradation_property(ix, iy, wx, wy, depth):
    x0, y0 = ix / 8.0, iy / 8.0
    x1, y1 = min(1.0, x0 + wx / 8.0), min(1.0, y0 + wy / 8.0)
    predicate = (f"x > {x0} && x < {x1} && y > {y0} && y < {y1} "
                 f"&& level < {depth}")
    mesh = mesh_2d(base=2, extra=f"refine_where = {predicate}")
    assert two_to_one_ok(mesh)
    check_linear_reproduction(mesh)
    area, normal = face_area_normal(mesh)
    assert np.abs((area[:, None] * normal).sum(axis=0)).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2 ** 32 - 1))
def test_numbering_and_constraint_match_oracles(dim, seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 0.7, dim).round(3)
    hi = (lo + rng.uniform(0.1, 0.5, dim)).round(3)
    base = int(rng.integers(1, 3))
    depth = base + int(rng.integers(1, 6 if dim == 2 else 4))
    tree = build_tree(box_spec(dim, base, lo, hi, depth), [])
    levels, anchors = balance(*tree, dim)
    with mock.patch.object(oracle, "_balance_directions",
                           oracle.balance_directions):
        oracle_levels, oracle_anchors = oracle.balance(*tree, dim)
    assert np.array_equal(levels, oracle_levels)
    assert np.array_equal(anchors, oracle_anchors)

    corners = _corner_index(levels, anchors)
    node_lattice, elem_nodes, pairs = number_nodes(levels, anchors, dim,
                                                   corners)
    hanging = oracle.pairs_map(pairs)
    index = oracle.lattice_index(oracle.corner_lattice(levels, anchors),
                                 levels)
    assert hanging == oracle.fill_hanging(levels, anchors, elem_nodes,
                                          index.find, dim)
    mapped = oracle.number_nodes_map(levels, anchors, dim, corners)
    assert np.array_equal(node_lattice, mapped[0])
    assert np.array_equal(elem_nodes, mapped[1])
    assert list(hanging.items()) == list(mapped[2].items())
    free, constraint = _constraint_matrix(len(node_lattice), pairs)
    for oracle_free, oracle_constraint in (
            oracle.constraint_matrix(len(node_lattice), hanging),
            oracle.map_constraint_matrix(len(node_lattice), hanging)):
        assert np.array_equal(free, oracle_free)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(constraint, part),
                                  getattr(oracle_constraint, part))
    assert (np.asarray(constraint.sum(axis=1)).ravel() == 1.0).all()
    assert not set(hanging) & {p for pairs in hanging.values()
                               for p, _ in pairs}


def point_spec(dim, base, points, depth):
    """Tree refined to ``depth`` in every cell that holds one of
    ``points``; a point just beside a coarse cell's side leaves the fine
    cells around it several levels finer than the cell across."""
    half = "0.5 * exp(-0.6931 * level)"
    holds = " || ".join(
        "(" + " && ".join(f"abs({a} - {c}) < {half}"
                          for a, c in zip("xyz", point)) + ")"
        for point in points)
    return parse_problem(f"""
[domain]
dimension = {dim}
min = {", ".join(["0"] * dim)}
max = {", ".join(["1"] * dim)}
base_refine_level = {base}
refine_where = ({holds}) && level < {depth}

[variables]
names = u

[weak_form]
dot(grad(u), grad(v)) - 1.0 * v
""")


_NEAR_SIDE = st.tuples(st.integers(1, 7), st.sampled_from([-1e-3, 1e-3, 0.02]))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 2), st.integers(1, 4),
       st.lists(st.lists(_NEAR_SIDE, min_size=3, max_size=3),
                min_size=1, max_size=2))
def test_balance_matches_every_leaf_oracle(dim, base, gap, points):
    """Level gaps up to 4 take up to three splitting sweeps; asking only
    new children and the leaves that found a coarse neighbour, once per
    parent, splits the same leaves in the same order as asking every
    leaf in every sweep."""
    points = [[round(j / 8 + eps, 4) for j, eps in point[:dim]]
              for point in points]
    tree = build_tree(point_spec(dim, base, points, base + gap), [])
    levels, anchors = balance(*tree, dim)
    oracle_levels, oracle_anchors = oracle.balance(*tree, dim)
    assert np.array_equal(levels, oracle_levels)
    assert np.array_equal(anchors, oracle_anchors)


def test_balance_asks_an_old_leaf_again():
    """The level-4 cells (2, 7) and (3, 7) under (0.126, 0.499) sit three
    levels below the level-1 cell (0, 1) across y = 0.5. The first sweep
    splits that cell once; in the second, those same unsplit cells must
    ask again to find its child (0, 2), still two levels coarser, which no
    new child borders."""
    tree = build_tree(point_spec(2, 1, [(0.126, 0.499)], 4), [])
    assert [2, 7] in tree[1][tree[0] == 4].tolist()
    with mock.patch.object(mesh_module, "_children",
                           wraps=mesh_module._children) as split:
        levels, anchors = balance(*tree, 2)
    assert [(call.args[0].tolist(), call.args[1].tolist())
            for call in split.call_args_list] == [
        ([1, 2], [[0, 1], [1, 1]]), ([1, 2], [[1, 0], [0, 2]])]
    oracle_levels, oracle_anchors = oracle.balance(*tree, 2)
    assert np.array_equal(levels, oracle_levels)
    assert np.array_equal(anchors, oracle_anchors)


@pytest.mark.parametrize("pairs", [
    [(np.array([1, 2]), np.array([[0, 2], [0, 3]]), 0.5)],
    [(np.array([1, 2]), np.array([[0, 2], [1, 3]]), 0.5)],
], ids=["chain", "cycle"])
def test_constraint_rejects_hanging_parent(pairs):
    with pytest.raises(MeshError, match="parent is hanging"):
        _constraint_matrix(4, pairs)


def test_last_probe_wins():
    """A node two probes find takes the later probe's parents, in the
    dict and in the constraint rows, as filling a dict probe by probe
    did."""
    pairs = [(np.array([1, 4]), np.array([[0, 2], [0, 3]]), 0.5),
             (np.array([1]), np.array([[0, 2, 3, 5]]), 0.25)]
    hanging = oracle.pairs_map(pairs)
    assert hanging == {1: ((0, 0.25), (2, 0.25), (3, 0.25), (5, 0.25)),
                       4: ((0, 0.5), (3, 0.5))}
    assert list(hanging) == [1, 4]
    free, constraint = _constraint_matrix(6, pairs)
    oracle_free, oracle_constraint = oracle.map_constraint_matrix(6, hanging)
    assert np.array_equal(free, oracle_free)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(constraint, part),
                              getattr(oracle_constraint, part))


def test_balance_is_fixpoint():
    spec = parse_problem(BASE_2D.format(
        base=2, extra="refine_where = x < 0.3 && y < 0.3 && level < 6"))
    levels, anchors = build_tree(spec, [])
    levels, anchors = balance(levels, anchors, 2)
    again_levels, again_anchors = balance(levels, anchors, 2)
    assert np.array_equal(np.sort(levels), np.sort(again_levels))
    assert len(anchors) == len(again_anchors)


# ---------------------------------------------------------------------------
# carving

def test_circle_carve_area():
    radius = 0.5
    for glevel, base in ((5, 4), (6, 4)):
        mesh = circle_mesh(base=base, glevel=glevel, radius=radius)
        area = float(np.prod(mesh.cell_sizes(), axis=1).sum())
        h = 1.0 / (1 << glevel)
        target = np.pi * radius ** 2
        assert area < target
        assert target - area < 2 * np.pi * radius * 3 * h


def test_circle_carve_monotone_in_level():
    areas = []
    for glevel in (4, 5, 6):
        mesh = circle_mesh(base=3, glevel=glevel)
        areas.append(float(np.prod(mesh.cell_sizes(), axis=1).sum()))
    assert areas[0] < areas[1] < areas[2] < np.pi * 0.25


def test_circle_kept_corners_inside():
    mesh = circle_mesh(base=4, glevel=6)
    lo, hi = element_boxes(mesh)
    bits = corner_bits(2)
    for b in bits:
        corner = np.where(b, hi, lo)
        r = np.linalg.norm(corner - 0.5, axis=1)
        assert (r <= 0.5 + 1e-12).all()


def test_circle_faces_all_geometry_kind():
    mesh = circle_mesh(base=4, glevel=6)
    assert (mesh.faces.kind == KIND_GEOMETRY).all()
    assert (mesh.faces.geom == 0).all()
    # carving front is fully refined so face owners sit within one level
    owners = mesh.levels[mesh.faces.element]
    assert (owners >= 5).all()
    assert (owners <= 6).all()


def test_divergence_closure_circle():
    mesh = circle_mesh(base=4, glevel=6)
    area, normal = face_area_normal(mesh)
    assert np.abs((area[:, None] * normal).sum(axis=0)).max() < 1e-12


def test_subfaces_appear_and_close():
    # refinement band crossing the carving front forces half faces
    mesh = circle_mesh(base=4, glevel=6,
                       extra="refine_where = y > 0.7 && level < 5")
    assert (mesh.faces.slices != 0).any()
    area, normal = face_area_normal(mesh)
    assert np.abs((area[:, None] * normal).sum(axis=0)).max() < 1e-12
    check_linear_reproduction(mesh)


def test_void_circle_keeps_outside():
    mesh = circle_mesh(base=4, glevel=6, radius=0.2,
                       gextra="outer_boundary = false")
    area = float(np.prod(mesh.cell_sizes(), axis=1).sum())
    target = 1.0 - np.pi * 0.2 ** 2
    h = 1.0 / 64
    assert area < target
    assert target - area < 2 * np.pi * 0.2 * 3 * h
    kinds = mesh.faces.kind
    assert (kinds == KIND_WALL).any()
    assert (kinds == KIND_GEOMETRY).any()
    ar, nrm = face_area_normal(mesh)
    assert np.abs((ar[:, None] * nrm).sum(axis=0)).max() < 1e-12
    # geometry faces surround the void, walls sit on the box
    centers = mesh.face_centers()
    geom_rows = kinds == KIND_GEOMETRY
    r = np.linalg.norm(centers[geom_rows] - 0.5, axis=1)
    assert (r < 0.2 + 3 * h).all()


ANNULUS_2D = CIRCLE_2D.format(
    base=4, glevel=6, radius=0.45, extra="", gextra="") + """
[geometry]
shape = circle
center = 0.5, 0.5
radius = 0.2
refine_level = 6
outer_boundary = false
boundary_types = sbm
bids = 1
"""


def test_annulus_routes_faces_to_nearest_circle():
    spec = parse_problem(ANNULUS_2D)
    mesh = build_mesh(spec)
    lo, hi = element_boxes(mesh)
    for b in corner_bits(2):
        r = np.linalg.norm(np.where(b, hi, lo) - 0.5, axis=1)
        assert (r >= 0.2 - 1e-12).all()
        assert (r <= 0.45 + 1e-12).all()
    assert (mesh.faces.kind == KIND_GEOMETRY).all()
    r = np.linalg.norm(mesh.face_centers() - 0.5, axis=1)
    outer = r > 0.325
    assert (mesh.faces.geom[outer] == 0).all()
    assert (mesh.faces.geom[~outer] == 1).all()
    assert (outer.sum(), (~outer).sum()) == (192, 96)
    # on the balanced tree, the per-geometry classes and the carve agree
    # with the combined-mask oracle
    geometries = [load_geometry(g, 2, ".") for g in spec.geometries]
    levels, anchors = balance(*build_tree(spec, geometries), 2)
    per_geom = classify_elements(levels, anchors, spec, geometries,
                                 _corner_index(levels, anchors))
    overall, oracle_per_geom = oracle.classify_elements(
        levels, anchors, spec, geometries)
    assert len(per_geom) == 2
    for codes, expected in zip(per_geom, oracle_per_geom):
        assert np.array_equal(codes, expected)
    kept = (per_geom[0] == INTERIOR) & (per_geom[1] == INTERIOR)
    assert np.array_equal(kept, overall == INTERIOR)
    assert len(mesh.levels) == kept.sum()


def void_script(script):
    return script.replace("boundary_types", "outer_boundary = false\n"
                          "boundary_types", 1)


def polygon_script(tmp_path):
    (tmp_path / "polygon.msh").write_text(
        gmsh_polygon_text(regular_polygon((0.5, 0.5), 0.4, 24)))
    return circle_script(2, 6).replace(
        "shape = circle\ncenter = 0.5, 0.5\nradius = 0.45",
        "shape = mesh\nmesh_file = polygon.msh")


def stl_script(tmp_path):
    write_stl(tmp_path / "bumpy.stl", *bumpy_sphere((0.5, 0.5, 0.5), 0.3))
    return sphere_script(base=2, glevel=4, shape="mesh",
                         shape_lines="mesh_file = bumpy.stl")


# Trees whose geometry rule meets every other rule: a uniform disk (the
# geometry level is the base level), an adaptive and a void sphere, an
# annulus whose circles refine to different levels, a Gmsh polygon, an STL
# surface on either side, and wall and predicate refinement past the
# geometry level.
TREE_CASES = {
    "disk_uniform": lambda tmp: circle_script(5, 5),
    "sphere_adaptive": lambda tmp: SPHERE_3D.format(base=2, glevel=4,
                                                    radius=0.35),
    "annulus_two_levels": lambda tmp: circle_script(3, 5) + ANNULUS_2D[
        ANNULUS_2D.rindex("[geometry]"):].replace(
            "refine_level = 6", "refine_level = 7"),
    "sphere_void": lambda tmp: void_script(SPHERE_3D.format(
        base=2, glevel=4, radius=0.25)),
    "gmsh_polygon": polygon_script,
    "stl_bumpy": stl_script,
    "stl_bumpy_void": lambda tmp: void_script(stl_script(tmp)),
    "wall_refine": lambda tmp: circle_script(
        2, 5, extra="wall_refine_level = 6\nrefine_walls = x-, y+"),
    "refine_where": lambda tmp: circle_script(
        2, 5, extra="refine_where = x < 0.3 && level < 7"),
}


@pytest.mark.parametrize("case", sorted(TREE_CASES))
def test_tree_and_classes_match_classify_everything_oracle(tmp_path, case):
    spec = parse_problem(TREE_CASES[case](tmp_path))
    dim = spec.dimension
    geometries = [load_geometry(g, dim, tmp_path) for g in spec.geometries]
    levels, anchors = build_tree(spec, geometries)
    oracle_levels, oracle_anchors = oracle.build_tree(spec, geometries)
    assert np.array_equal(levels, oracle_levels)
    assert np.array_equal(anchors, oracle_anchors)
    assert levels.max() > spec.base_refine_level or case == "disk_uniform"
    per_geom = classify_elements(levels, anchors, spec, geometries,
                                 _corner_index(levels, anchors))
    _, oracle_per_geom = oracle.classify_elements(levels, anchors, spec,
                                                  geometries)
    assert len(per_geom) == len(geometries)
    for codes, expected in zip(per_geom, oracle_per_geom):
        assert codes.dtype == np.int8
        assert np.array_equal(codes, expected)
    # every uniform wave hands the classifier zero cells
    none = np.empty(0, np.int64), np.empty((0, dim), np.int64)
    empty = classify_elements(*none, spec, geometries, _corner_index(*none))
    assert [(codes.shape, codes.dtype) for codes in empty] == (
        [((0,), np.int8)] * len(geometries))


def assert_carve_and_numbering_match_oracles(spec, base_dir):
    """Carve and number through ``carve``'s ``Corners``, a fresh corner
    index of the kept cells and ``build_mesh``; all must give the oracle
    pipeline's arrays. Returns the oracle's hanging map."""
    dim = spec.dimension
    geometries = [load_geometry(g, dim, base_dir) for g in spec.geometries]
    levels, anchors = balance(*build_tree(spec, geometries), dim)
    oracle_levels, oracle_anchors = oracle.carve(levels, anchors, spec,
                                                 geometries)
    node_lattice, elem_nodes, hanging = oracle.number_nodes(
        oracle_levels, oracle_anchors, dim)
    free, constraint = oracle.constraint_matrix(len(node_lattice), hanging)
    kept_levels, kept_anchors, corners = carve(levels, anchors, spec,
                                               geometries)
    mesh = build_mesh(spec, base_dir)
    assert len(kept_levels) < len(levels) or not geometries
    numberings = (number_nodes(kept_levels, kept_anchors, dim, corners),
                  number_nodes(kept_levels, kept_anchors, dim,
                               _corner_index(kept_levels, kept_anchors)))
    for numbered in (*numberings, (mesh.node_lattice, mesh.elem_nodes)):
        for got, expected in zip(numbered[:2], (node_lattice, elem_nodes)):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
    for numbered in numberings:
        assert oracle.pairs_map(numbered[2]) == hanging
    assert hanging_map(mesh) == hanging
    for got, expected in ((kept_levels, oracle_levels),
                          (kept_anchors, oracle_anchors),
                          (mesh.levels, oracle_levels),
                          (mesh.anchors, oracle_anchors),
                          (mesh.free_nodes, free)):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(mesh.constraint, part),
                              getattr(constraint, part))
    return hanging


@pytest.mark.parametrize("case", sorted(TREE_CASES))
def test_carve_and_numbering_match_the_per_corner_oracles(tmp_path, case):
    """One corner index per balanced leaf set, classified once and reused
    to number the kept cells, gives the arrays of asking ``kept`` for
    every cell's own corners and indexing the kept cells' corners again."""
    hanging = assert_carve_and_numbering_match_oracles(
        parse_problem(TREE_CASES[case](tmp_path)), tmp_path)
    assert len(hanging) > 0 or case == "disk_uniform"


def test_carve_memory_per_leaf_corner():
    """Carving a uniform 3-D ball tree at level 5 (262,144 leaf corners)
    peaks at about 35 bytes a corner: the corner keys, their sort order
    and one more table-length array. Expanding every cell into its
    corners held an int64 lattice, its float copy and the ball's offsets,
    3 x 24 bytes a corner, and peaked at 88."""
    spec = parse_problem(SPHERE_3D.format(base=5, glevel=5, radius=0.4))
    geometries = [load_geometry(g, 3, ".") for g in spec.geometries]
    levels, anchors = build_tree(spec, geometries)
    assert len(levels) == 1 << 15
    tracemalloc.start()
    try:
        carve(levels, anchors, spec, geometries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 8 * len(levels)


def test_annulus_circles_refine_to_their_own_levels():
    spec = parse_problem(TREE_CASES["annulus_two_levels"](None))
    geometries = [load_geometry(g, 2, ".") for g in spec.geometries]
    levels, anchors = build_tree(spec, geometries)
    centers = (anchors + 0.5) / (1 << levels)[:, None]
    r = np.linalg.norm(centers - 0.5, axis=1)
    assert levels[r > 0.325].max() == 5
    assert levels[r < 0.325].max() == 7


def test_sphere_carve_volume():
    mesh = build_mesh(parse_problem(SPHERE_3D.format(
        base=2, glevel=4, radius=0.35)))
    volume = float(np.prod(mesh.cell_sizes(), axis=1).sum())
    target = 4.0 / 3.0 * np.pi * 0.35 ** 3
    h = 1.0 / 16
    assert volume < target
    assert target - volume < 4 * np.pi * 0.35 ** 2 * 3 * h
    area, normal = face_area_normal(mesh)
    assert np.abs((area[:, None] * normal).sum(axis=0)).max() < 1e-12
    check_linear_reproduction(mesh)
    assert two_to_one_ok(mesh, include_edges=True)


def test_face_centers_on_surrogate():
    mesh = circle_mesh(base=4, glevel=5)
    centers = mesh.face_centers()
    f = mesh.faces
    lo, hi = element_boxes(mesh)
    rows = np.arange(len(f))
    expected_plane = np.where(f.orient == 1,
                              hi[f.element, f.axis], lo[f.element, f.axis])
    assert np.abs(centers[rows, f.axis] - expected_plane).max() < 1e-14


def test_empty_mesh_raises():
    with pytest.raises(EmptyMeshError):
        circle_mesh(base=2, glevel=5, radius=0.01)


def test_runaway_refinement_hits_depth_cap():
    with pytest.raises(MeshError):
        mesh_2d(base=2, extra=(
            "refine_where = x < exp(-0.69 * level) && y < exp(-0.69 * level)"))


def test_geometry_refinement_rule():
    mesh = circle_mesh(base=3, glevel=6)
    assert mesh.levels.min() == 3
    assert mesh.levels.max() == 6
    assert two_to_one_ok(mesh)


def test_surrogate_faces_oriented_outward():
    # normals on the carved boundary point away from the kept region
    mesh = circle_mesh(base=4, glevel=6)
    area, normal = face_area_normal(mesh)
    centers = mesh.face_centers()
    outward = centers - 0.5
    geom_rows = mesh.faces.kind == KIND_GEOMETRY
    dots = (normal[geom_rows] * outward[geom_rows]).sum(axis=1)
    assert (dots > -1e-12).all()
