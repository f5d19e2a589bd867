"""The packed-key tree index against the row-wise ``np.unique`` oracle.

``_match`` is the lookup the mesh stages used before ``TreeIndex``: it
stacks table and queries and deduplicates rows with ``np.unique(axis=0)``.
It is slow but obviously right, so it serves as the reference here.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treefem.errors import MeshError
from treefem.mesh import (
    TreeIndex, _NL, _cell_index, _corner_index, balance, build_mesh,
    build_tree, corner_bits, MAX_LEVEL,
)
from treefem.problem import parse_problem

from mesh_digests import GOLDEN, case_meshes, mesh_digests
from mesh_oracles import (
    corner_lattice, fill_hanging, hanging_map, lattice_index, pack)


def _keys(levels, anchors):
    """Cell rows ``(level, anchor...)``, as ``_cell_index`` stacks them."""
    return np.column_stack([levels, anchors]).astype(np.int64)


def _match(table, queries):
    """Row-wise lookup: index of each query row in table, or -1.

    Table rows must be unique.
    """
    table = np.ascontiguousarray(table, np.int64)
    queries = np.ascontiguousarray(queries, np.int64)
    if len(queries) == 0:
        return np.empty(0, np.int64)
    if len(table) == 0:
        return np.full(len(queries), -1, np.int64)
    stacked = np.vstack([table, queries])
    uniq, inverse = np.unique(stacked, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    lookup = np.full(len(uniq), -1, np.int64)
    lookup[inverse[:len(table)]] = np.arange(len(table))
    return lookup[inverse[len(table):]]


def table_rows(index, queries):
    """Table row of each query found by ``index``, or -1, like ``_match``."""
    found = index.find(queries)
    return np.where(found >= 0, index.first[np.maximum(found, 0)], -1)


def oracle_number_nodes(levels, anchors, dim):
    """``number_nodes`` as written with ``_match`` and ``np.unique``."""
    lattice = corner_lattice(levels, anchors)
    node_lattice, inverse = np.unique(lattice, axis=0, return_inverse=True)
    elem_nodes = inverse.ravel().reshape(len(levels), 2 ** dim)
    hanging = fill_hanging(levels, anchors, elem_nodes,
                           lambda probe: _match(node_lattice, probe), dim)
    return node_lattice, elem_nodes, hanging


def box_spec(dim, base, lo, hi, depth):
    """Tree refined to ``depth`` in every cell that overlaps a box."""
    half = "0.5 * exp(-0.6931 * level)"
    box = " && ".join(f"{a} > {l} - {half} && {a} < {h} + {half}"
                      for a, l, h in zip("xyz", lo, hi))
    return parse_problem(f"""
[domain]
dimension = {dim}
min = {", ".join(["0"] * dim)}
max = {", ".join(["1"] * dim)}
base_refine_level = {base}
refine_where = {box} && level < {depth}

[variables]
names = u

[weak_form]
dot(grad(u), grad(v)) - 1.0 * v
""")


def corner_spec(depth, dim=3, far=False):
    """Tree refined only at the origin corner, down to ``depth``; with
    ``far``, at the opposite corner as well."""
    size = "0.75 * exp(-0.6931 * level)"
    near = " && ".join(f"{a} < {size}" for a in "xyz"[:dim])
    if far:
        opposite = " && ".join(f"{a} > 1 - {size}" for a in "xyz"[:dim])
        near = f"({near} || {opposite})"
    return parse_problem(f"""
[domain]
dimension = {dim}
min = {", ".join(["0"] * dim)}
max = {", ".join(["1"] * dim)}
base_refine_level = 1
refine_where = {near} && level < {depth}

[variables]
names = u

[weak_form]
dot(grad(u), grad(v)) - 1.0 * v
""")


def cell_queries(rng, levels, anchors, count):
    """Table cells, their neighbors, parents and children, and cells at
    absent levels, negative anchors and anchors past ``2**level``."""
    dim = anchors.shape[1]
    pick = rng.integers(0, len(levels), count)
    qlevels = levels[pick] + rng.integers(-3, 4, count)
    qanchors = anchors[pick] + rng.integers(-2, 3, (count, dim))
    finer = np.maximum(qlevels - levels[pick], 0)[:, None]
    coarser = np.maximum(levels[pick] - qlevels, 0)[:, None]
    qanchors = (qanchors << finer) >> coarser
    wild_levels = rng.integers(-2, int(levels.max()) + 4, count)
    top = np.int64(1) << np.clip(wild_levels, 0, None)
    wild = (rng.integers(-3, 4, (count, dim))
            + rng.integers(0, 2, (count, 1)) * top[:, None])
    return (np.concatenate([levels, qlevels, wild_levels]),
            np.vstack([anchors, qanchors, wild]))


def lattice_queries(rng, lattice, levels, count):
    """Table points, points a fraction of a finest cell off them, negative
    points and points past the domain."""
    dim = lattice.shape[1]
    finest = 1 << (_NL - int(levels.max()))
    pick = rng.integers(0, len(lattice), count)
    step = rng.choice(np.array([finest, finest // 2, 1], np.int64), (count, 1))
    near = lattice[pick] + rng.integers(-2, 3, (count, dim)) * step
    far = rng.integers(-2, 3, (count, dim)) * (np.int64(1) << _NL) + near
    return np.vstack([lattice, near, far])


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2 ** 32 - 1))
def test_index_matches_oracle(dim, seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 0.7, dim).round(3)
    hi = (lo + rng.uniform(0.1, 0.5, dim)).round(3)
    base = int(rng.integers(1, 3))
    depth = base + int(rng.integers(1, 6 if dim == 2 else 4))
    spec = box_spec(dim, base, lo, hi, depth)
    levels, anchors = balance(*build_tree(spec, []), dim)

    index = _cell_index(levels, anchors)
    qlevels, qanchors = cell_queries(rng, levels, anchors, 400)
    queries = _keys(qlevels, qanchors)
    assert np.array_equal(table_rows(index, queries),
                          _match(_keys(levels, anchors), queries))

    lattice = corner_lattice(levels, anchors)
    nodes, inverse = np.unique(lattice, axis=0, return_inverse=True)
    index = lattice_index(lattice, levels)
    assert np.array_equal(lattice[index.first], nodes)
    assert np.array_equal(index.inverse, inverse.ravel())
    # the corner index packed from each cell's sides, without the rows
    corners = _corner_index(levels, anchors)
    assert np.array_equal(corners.lattice, nodes)
    assert np.array_equal(corners.cells.ravel(), inverse.ravel())
    assert np.array_equal(corners.index.keys, index.keys)
    queries = lattice_queries(rng, lattice, levels, 400)
    assert np.array_equal(index.find(queries), _match(nodes, queries))


def test_index_edge_cases():
    empty = TreeIndex(np.empty((3, 0), np.int64))
    assert np.array_equal(empty.find([[0, 0, 0], [1, 2, 3]]), [-1, -1])
    single = TreeIndex(np.array([[4, 3, 9]]).T)
    assert np.array_equal(single.find([[4, 3, 9], [4, 3, 8], [-4, 3, 9]]),
                          [0, -1, -1])
    assert len(single.find(np.empty((0, 3), np.int64))) == 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([0, 0, 1, 5, 20]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 40), st.integers(0, 300))
def test_column_packing_matches_row_oracle(dim, shift, seed, n_table,
                                           n_query):
    """Cell tables (a level column, no shift) and lattice tables (shifted)
    against the row-wise packing: equal validity everywhere, equal keys
    wherever a row is valid. Queries include negative values, values past
    a column's span and, under a shift, values with low bits set."""
    rng = np.random.default_rng(seed)
    k = dim + (shift == 0)
    low = rng.integers(0, 50, k)
    span = rng.integers(0, 2 ** rng.integers(0, 12, k))
    table = (low + rng.integers(0, span + 1, (n_table, k))) << shift
    index = TreeIndex(table.T, shift=shift)
    assert np.array_equal(index.keys, np.unique(pack(index, table)[0]))

    base = (low + rng.integers(-2, span + 3, (n_query, k))) << shift
    noise = rng.integers(0, 2, (n_query, k)) * rng.integers(
        -(1 << shift), 1 << shift, (n_query, k))
    wild = rng.integers(-(1 << 40), 1 << 40, (n_query, k))
    queries = np.vstack([table, base, base + noise, -base, wild])
    keys, valid = index._pack(queries.T)
    oracle_keys, oracle_valid = pack(index, queries)
    assert np.array_equal(valid, oracle_valid)
    assert np.array_equal(keys[valid], oracle_keys[valid])
    unique = np.unique(table, axis=0) if n_table else table
    assert np.array_equal(index.find(queries), _match(unique, queries))


def test_out_of_range_rows_never_match_through_key_collisions():
    """Rows whose packed key equals a stored key, found only because each
    column is range-checked: a column past its span carries into the next
    column's bits, a column far below its range wraps round to a small
    key, and under a shift low bits are dropped. An anchor of -1 sets
    every bit from its column up, so its key is negative."""
    cells = [[2, x, y] for x in range(2) for y in range(4)]
    index = TreeIndex(np.array(cells).T)
    past, below, minus = [2, 0, 4], [2, -(1 << 62), 0], [2, 1, -1]
    keys, _ = index._pack(np.array([past, below, minus]).T)
    assert index.keys[index.find([[2, 1, 0], [2, 0, 0]])].tolist() \
        == keys[:2].tolist()
    assert keys[2] < 0
    assert index.find([past, below, minus]).tolist() == [-1, -1, -1]

    lattice = TreeIndex(np.array([[0, 0], [8, 0], [0, 8], [8, 8]]).T,
                        shift=3)
    keys, _ = lattice._pack(np.array([[1, 0], [8, 12]]).T)
    assert lattice.keys[lattice.find([[0, 0], [8, 8]])].tolist() \
        == keys.tolist()
    assert lattice.find([[1, 0], [8, 12]]).tolist() == [-1, -1]


def test_mesh_arrays_match_golden_digests():
    golden = json.loads((GOLDEN / "mesh_digests.json").read_text())
    digests = {}
    for name, mesh in case_meshes():
        # the constraint is the one record: hanging means not free
        assert np.array_equal(mesh.hanging, np.setdiff1d(
            np.arange(mesh.n_nodes), mesh.free_nodes))
        digests[name] = mesh_digests(mesh)
    assert digests == golden


def test_corner_refinement_at_depth_cap_matches_oracle():
    mesh = build_mesh(corner_spec(19))
    assert mesh.levels.max() == 19 == MAX_LEVEL[3]
    node_lattice, elem_nodes, hanging = oracle_number_nodes(
        mesh.levels, mesh.anchors, 3)
    assert np.array_equal(mesh.node_lattice, node_lattice)
    assert np.array_equal(mesh.elem_nodes, elem_nodes)
    assert hanging_map(mesh) == hanging
    assert len(hanging) > 0
    # every same-level neighbor lookup agrees with the oracle as well
    index = _cell_index(mesh.levels, mesh.anchors)
    table = _keys(mesh.levels, mesh.anchors)
    for offset in corner_bits(3)[1:]:
        queries = _keys(mesh.levels, mesh.anchors + offset)
        assert np.array_equal(table_rows(index, queries),
                              _match(table, queries))


def test_corner_refinement_past_depth_cap_raises():
    with pytest.raises(MeshError, match=r"maximum depth of a 3-D tree, "
                                        r"level 19$"):
        build_mesh(corner_spec(20))


@pytest.mark.parametrize("dim, cap", [(2, 29), (3, 19)])
def test_trees_spanning_the_domain_build_to_the_depth_cap(dim, cap):
    """Refined at two opposite corners, a tree's cells and corners span the
    whole domain at the finest level, the widest keys a tree can need."""
    assert MAX_LEVEL[dim] == cap
    mesh = build_mesh(corner_spec(cap, dim, far=True))
    assert mesh.levels.max() == cap
    top = (np.int64(1) << cap) - 1
    finest = mesh.anchors[mesh.levels == cap]
    assert (finest == 0).all(axis=1).any() and (finest == top).all(axis=1).any()
    with pytest.raises(MeshError, match=rf"maximum depth of a {dim}-D tree, "
                                        rf"level {cap}$"):
        build_mesh(corner_spec(cap + 1, dim, far=True))


def test_keys_wider_than_63_bits_are_refused():
    """Two columns whose spans need 32 bits each make 64-bit keys."""
    span = np.array([0, (1 << 32) - 1], np.int64)
    with pytest.raises(MeshError, match="lookup keys need 64 bits"):
        TreeIndex([span, span])
    assert len(TreeIndex([span, span >> 1]).keys) == 2

