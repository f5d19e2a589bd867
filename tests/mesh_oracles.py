"""Former mesh-stage implementations, kept as references for the tests.

Each function is the code ``treefem.mesh`` ran before its stage was
rewritten with arrays: the face/edge rule spelled out per dimension, the
hanging map filled one hit at a time, the constraint resolved node by
node through chains of midpoint averages, the carve classes computed
from a combined corner mask as well as per geometry, the refinement
waves classifying every cell against every geometry through one
deduplicated corner lattice, the tree-index keys packed from stacked
rows with two axis reductions, and the carve and node numbering that
each expanded every cell into its ``2**dim`` corner rows: the carve
asked ``kept`` for every cell's corners, and the numbering built a
second index over the kept cells' rows. The newest are the balance that
asked every leaf in every sweep, once per leaf, and the numbering that
built the hanging map as a dict, which the constraint matrix then took
apart row by row.
"""

import itertools

import numpy as np
import scipy.sparse as sp

from treefem import expr as ex
from treefem.errors import MeshError
from treefem.mesh import (
    _NL, _WALL_AXIS, EXTERIOR, INTERCEPTED, INTERIOR, TreeIndex,
    _balance_directions, _cell_index, _children, _lattice_coords,
    _probe_table, corner_bits, MAX_LEVEL,
)


def corner_lattice(levels, anchors):
    """Every cell's ``2**dim`` corners, ``(n * 2**dim, dim)`` lattice rows."""
    n, dim = anchors.shape
    scale = (np.int64(1) << (_NL - levels)).astype(np.int64)
    # one (corner, axis) column at a time, each a long loop over the cells;
    # broadcasting over a last axis of length dim runs many short loops
    corners = np.empty((n, 2 ** dim, dim), np.int64)
    for axis in range(dim):
        low = anchors[:, axis] * scale
        ends = (low, low + scale)
        for k, bit in enumerate(corner_bits(dim)[:, axis]):
            corners[:, k, axis] = ends[bit]
    return corners.reshape(n * 2 ** dim, dim)


def lattice_index(lattice, levels):
    """Index of lattice points that are corners of cells at ``levels``."""
    finest = int(levels.max(initial=0))
    return TreeIndex(lattice.T, shift=_NL - finest)


def classify_each_corner(levels, anchors, spec, geometries):
    """Per-element class against each geometry, asking ``kept`` for every
    cell's own corners, shared ones once per cell."""
    if not geometries:
        return []
    corners = 2 ** anchors.shape[1]
    points = _lattice_coords(corner_lattice(levels, anchors), spec)
    per_geom = []
    for geom in geometries:
        count = geom.kept(points).reshape(len(levels), corners).sum(axis=1)
        codes = np.full(len(levels), INTERCEPTED, np.int8)
        codes[count == corners] = INTERIOR
        codes[count == 0] = EXTERIOR
        per_geom.append(codes)
    return per_geom


def carve(levels, anchors, spec, geometries):
    """The carve through ``classify_each_corner``: kept cells, sorted."""
    kept = np.ones(len(levels), bool)
    for codes in classify_each_corner(levels, anchors, spec, geometries):
        kept &= codes == INTERIOR
    levels, anchors = levels[kept], anchors[kept]
    order = np.lexsort(tuple(anchors[:, d] for d in reversed(range(
        anchors.shape[1]))) + (levels,))
    return levels[order], anchors[order]


def number_nodes(levels, anchors, dim):
    """Node numbering from a lattice index built over the kept cells'
    expanded corner rows."""
    lattice = corner_lattice(levels, anchors)
    index = lattice_index(lattice, levels)
    node_lattice = lattice[index.first]
    elem_nodes = index.inverse.reshape(len(levels), 2 ** dim)

    hanging = {}
    size = np.int64(1) << (_NL - levels)
    rows = np.nonzero(size >= 2)[0]
    origins = anchors[rows].T * size[rows]
    half = size[rows] >> 1
    for pos, corners in _probe_table(dim):
        found = index.find_columns(
            [origin + half * p for origin, p in zip(origins, pos.tolist())])
        # every cell that finds a node on this probe names the same corners
        hit = np.nonzero(found >= 0)[0]
        nodes, first = np.unique(found[hit], return_index=True)
        parents = elem_nodes[rows[hit[first]]][:, corners].tolist()
        weights = (1.0 / len(corners),) * len(corners)
        hanging.update(zip(nodes.tolist(), map(
            tuple, map(zip, parents, itertools.repeat(weights)))))
    return node_lattice, elem_nodes, hanging


def balance_directions(dim):
    dirs = []
    for axis in range(dim):
        for sign in (-1, 1):
            v = np.zeros(dim, np.int64)
            v[axis] = sign
            dirs.append(v)
    if dim == 3:
        for a in range(3):
            for b in range(a + 1, 3):
                for sa in (-1, 1):
                    for sb in (-1, 1):
                        v = np.zeros(3, np.int64)
                        v[a], v[b] = sa, sb
                        dirs.append(v)
    return dirs


def probe_table(dim):
    """Midpoint probes in doubled-corner coordinates (0..2 per axis).

    Each row: probe position, plus the corner list it averages.
    """
    probes = []
    bits = corner_bits(dim)
    if dim == 2:
        for axis in range(2):
            for orient in (0, 2):
                pos = np.array([1, 1], np.int64)
                pos[axis] = orient
                corners = [k for k in range(4)
                           if bits[k, axis] * 2 == orient]
                probes.append((pos, corners))
    else:
        for axis in range(3):
            for orient in (0, 2):
                pos = np.ones(3, np.int64)
                pos[axis] = orient
                corners = [k for k in range(8)
                           if bits[k, axis] * 2 == orient]
                probes.append((pos, corners))
        for axis in range(3):
            others = [d for d in range(3) if d != axis]
            for b0 in (0, 2):
                for b1 in (0, 2):
                    pos = np.ones(3, np.int64)
                    pos[others[0]] = b0
                    pos[others[1]] = b1
                    corners = [k for k in range(8)
                               if bits[k, others[0]] * 2 == b0
                               and bits[k, others[1]] * 2 == b1]
                    probes.append((pos, corners))
    return probes


def fill_hanging(levels, anchors, elem_nodes, find, dim):
    """The hanging map, filled hit by hit; ``find`` maps lattice points to
    node indices or -1."""
    hanging = {}
    half = (np.int64(1) << (_NL - levels)) >> 1
    can = half >= 1
    origins = anchors * (np.int64(1) << (_NL - levels))[:, None]
    for pos, corners in probe_table(dim):
        probe = origins[can] + half[can, None] * pos[None, :]
        found = find(probe)
        weight = 1.0 / len(corners)
        for row, node in zip(np.nonzero(can)[0][found >= 0], found[found >= 0]):
            if node in hanging:
                continue
            hanging[int(node)] = tuple(
                (int(elem_nodes[row, k]), weight) for k in corners)
    return hanging


def constraint_matrix(n_nodes, hanging):
    """Sparse map from free node values to all node values."""
    free = [n for n in range(n_nodes) if n not in hanging]
    col_of = {n: c for c, n in enumerate(free)}
    cache = {}

    def resolve(node, trail):
        if node in cache:
            return cache[node]
        if node not in hanging:
            result = {col_of[node]: 1.0}
        else:
            if node in trail:
                raise MeshError("hanging node constraints form a cycle")
            result = {}
            for parent, weight in hanging[node]:
                for col, w in resolve(parent, trail | {node}).items():
                    result[col] = result.get(col, 0.0) + weight * w
        cache[node] = result
        return result

    rows, cols, vals = [], [], []
    for node in range(n_nodes):
        for col, w in resolve(node, frozenset()).items():
            rows.append(node)
            cols.append(col)
            vals.append(w)
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n_nodes, len(free)))
    return np.asarray(free, np.int64), matrix


def classify_elements(levels, anchors, spec, geometries):
    """Per-element class overall and against each geometry separately."""
    n = len(levels)
    dim = anchors.shape[1]
    if not geometries:
        return np.full(n, INTERIOR, np.int8), []
    lattice = corner_lattice(levels, anchors)
    index = lattice_index(lattice, levels)
    points = _lattice_coords(lattice[index.first], spec)
    combined = np.ones((n, 2 ** dim), bool)
    per_geom = []
    for geom in geometries:
        kept = geom.kept(points)[index.inverse].reshape(n, 2 ** dim)
        count = kept.sum(axis=1)
        codes = np.full(n, INTERCEPTED, np.int8)
        codes[count == 2 ** dim] = INTERIOR
        codes[count == 0] = EXTERIOR
        per_geom.append(codes)
        combined &= kept
    count = combined.sum(axis=1)
    overall = np.full(n, INTERCEPTED, np.int8)
    overall[count == 2 ** dim] = INTERIOR
    overall[count == 0] = EXTERIOR
    return overall, per_geom


def build_tree(spec, geometries):
    """Refine from the root cell until no rule fires; every wave classifies
    all of its cells against every geometry."""
    dim = spec.dimension
    levels = np.zeros(1, np.int64)
    anchors = np.zeros((1, dim), np.int64)
    done_levels = []
    done_anchors = []
    walls = [_WALL_AXIS[name] for name in spec.refine_walls]
    while len(levels):
        refine = levels < spec.base_refine_level
        _, per_geom = classify_elements(levels, anchors, spec, geometries)
        for gspec, codes in zip(spec.geometries, per_geom):
            refine |= (codes == INTERCEPTED) & (levels < gspec.refine_level)
        if walls and spec.wall_refine_level is not None:
            touch = np.zeros(len(levels), bool)
            top = (np.int64(1) << levels) - 1
            for axis, side in walls:
                touch |= anchors[:, axis] == (0 if side == 0 else top)
            refine |= touch & (levels < spec.wall_refine_level)
        if spec.refine_where is not None:
            centers = _lattice_coords(
                corner_lattice(levels, anchors).reshape(len(levels), 2 ** dim, dim)
                .mean(axis=1), spec)
            env = ex.point_env(centers)
            env["level"] = levels.astype(float)
            hold = ex.eval_scalar(spec.refine_where, env)
            refine |= np.broadcast_to(np.asarray(hold, bool), refine.shape)
        if bool((refine & (levels >= MAX_LEVEL[dim])).any()):
            raise MeshError(
                f"refinement exceeded the maximum depth of a {dim}-D tree, "
                f"level {MAX_LEVEL[dim]}")
        done_levels.append(levels[~refine])
        done_anchors.append(anchors[~refine])
        levels, anchors = _children(levels[refine], anchors[refine])
    return np.concatenate(done_levels), np.vstack(done_anchors)


def pack(index, rows):
    """Keys of ``rows`` in ``index`` and whether each row can be in its
    table, from one ``(N, k)`` temporary: ``TreeIndex._pack`` row-wise."""
    rows = np.asarray(rows, np.int64)
    coarse = (rows >> index.shift) - np.asarray(index.low, np.int64)
    valid = ((coarse >= 0) & (coarse <= index.span)).all(axis=1)
    if index.shift:
        valid &= ((rows & ((1 << index.shift) - 1)) == 0).all(axis=1)
    return (coarse << np.asarray(index.bit, np.int64)).sum(axis=1), valid


def balance(levels, anchors, dim):
    """2:1 balance asking every leaf, at every gap and direction, in every
    sweep, including the last one, which splits nothing."""
    levels = np.asarray(levels, np.int64)
    anchors = np.asarray(anchors, np.int64)
    dirs = _balance_directions(dim)
    while True:
        index = _cell_index(levels, anchors)
        mark = np.zeros(len(levels), bool)
        present = np.unique(levels)
        for gap in range(2, int(levels.max()) + 1):
            rows = np.isin(levels - gap, present)
            if not rows.any():
                continue
            coarse_level = levels[rows] - gap
            near = np.ascontiguousarray(anchors[rows].T)
            for v in dirs:
                found = index.find_columns(
                    [coarse_level] + [(a + s) >> gap for a, s in zip(near, v)])
                mark[index.first[found[found >= 0]]] = True
        if not mark.any():
            return levels, anchors
        child_levels, child_anchors = _children(levels[mark], anchors[mark])
        levels = np.concatenate([levels[~mark], child_levels])
        anchors = np.vstack([anchors[~mark], child_anchors])


def number_nodes_map(levels, anchors, dim, corners):
    """``treefem.mesh.number_nodes`` returning the hanging map as a dict
    filled probe by probe, a later probe's pairs replacing an earlier's."""
    used = np.zeros(len(corners.lattice) + 1, bool)
    used[corners.cells] = True
    number = np.where(used, np.cumsum(used) - 1, -1)
    node_lattice = corners.lattice[used[:-1]]
    elem_nodes = number[corners.cells]

    hanging = {}
    size = np.int64(1) << (_NL - levels)
    rows = np.nonzero(size >= 2)[0]
    origins = anchors[rows].T * size[rows]
    half = size[rows] >> 1
    for pos, parent_corners in _probe_table(dim):
        found = number[corners.index.find_columns(
            [origin + half * p for origin, p in zip(origins, pos.tolist())])]
        hit = np.nonzero(found >= 0)[0]
        nodes, first = np.unique(found[hit], return_index=True)
        parents = elem_nodes[rows[hit[first]]][:, parent_corners].tolist()
        weights = (1.0 / len(parent_corners),) * len(parent_corners)
        hanging.update(zip(nodes.tolist(), map(
            tuple, map(zip, parents, itertools.repeat(weights)))))
    return node_lattice, elem_nodes, hanging


def map_constraint_matrix(n_nodes, hanging):
    """The constraint matrix from a hanging dict, through one structured
    array of its ``(node, parent, weight)`` entries."""
    entry = np.array(
        [(node, parent, weight) for node, pairs in hanging.items()
         for parent, weight in pairs],
        dtype=[("node", np.int64), ("parent", np.int64), ("weight", float)])
    is_free = np.ones(n_nodes, bool)
    is_free[entry["node"]] = False
    if not is_free[entry["parent"]].all():
        raise MeshError("a hanging node's parent is hanging too; the tree "
                        "is not 2:1 balanced")
    free = np.nonzero(is_free)[0]
    column = np.cumsum(is_free) - 1
    rows = np.concatenate([free, entry["node"]])
    cols = column[np.concatenate([free, entry["parent"]])]
    vals = np.concatenate([np.ones(len(free)), entry["weight"]])
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n_nodes, len(free)))
    return free, matrix
