"""Incomplete adaptive quadtree/octree meshes carved around geometries.

The mesh is a set of axis-aligned leaf cells ("elements") of a recursively
refined box. Construction runs in four stages:

1. **build**: wave-based refinement from the root cell. A cell splits when
   it is coarser than the base level, when a geometry surface crosses it
   and it is coarser than that geometry's target level, when it touches a
   wall selected for refinement, or when the user's refinement predicate
   holds at its center. Depth stops at ``MAX_LEVEL``. Classes are computed
   only for cells a geometry rule can split, from their distinct corners.
2. **balance**: adjacent leaves are limited to one level of difference,
   across faces in 2-D and across faces *and* edges in 3-D. The edge rule
   guarantees every nonconforming node sits at an edge midpoint or face
   center of its coarse neighbor. After the first sweep, only the leaves
   that can still be too fine ask again, once per parent.
3. **carve**: one index of the balanced leaves' distinct corners is
   built, and each geometry's ``kept`` answers once per distinct corner.
   Only elements whose corners all lie on the kept side of every geometry
   survive. Their outward-facing sides form the surrogate boundary; where
   a kept element borders finer discarded cells the face splits into
   half- or quarter-face slices.
4. **number**: the kept elements' corners, read from the same index, are
   the nodes, numbered in the index's key order on the shared integer
   lattice (the domain spans 2**30 lattice units per axis); hanging nodes
   are detected by probing that index at the face centres (and edge
   midpoints in 3-D) of every element. Each probe's hanging nodes and
   their parents stay arrays, and the constraint matrix mapping free node
   values to all node values is built from them in one sparse step: an
   identity row per free node and a row of midpoint weights per hanging
   node. The balance of stage 2 keeps every parent of a hanging node
   free, so no constraint refers to another hanging node. That matrix is
   the mesh's one record of its hanging nodes: ``IncompleteMesh.hanging``
   lists the node numbers that are not free.

Anchors are integer cell coordinates at the cell's own level; lattice
coordinates are at the fixed normalization level 30, so all point
identity tests are exact. Every lookup goes through a ``TreeIndex``:
one of cells ``(level, anchor...)`` per balance sweep and for the face
neighbors, and the corner index of carve and numbering. It ORs the
columns of cells or of lattice points (shifted down to the finest level)
one by one into sorted int64 keys, range-checks each query column (the
table's own rows skip that) and answers lookups by binary search. The
corner index never builds the ``(n * 2**dim, dim)`` corner array: along
each axis a leaf's corners take its low or high side, and these pairs
broadcast into the keys. The depth cap ``MAX_LEVEL``, 29 in 2-D and 19 in
3-D, is the deepest level at which every key fits in 63 bits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import expr as ex
from .errors import EmptyMeshError, MeshError
from .geometry import load_geometry

__all__ = [
    "EXTERIOR", "INTERIOR", "INTERCEPTED", "KIND_WALL", "KIND_GEOMETRY",
    "SurrogateFaces", "IncompleteMesh",
    "build_tree", "balance", "carve", "classify_elements", "surrogate_faces",
    "number_nodes", "build_mesh", "corner_bits", "MAX_LEVEL", "WALL_AXIS",
]

EXTERIOR = 0
INTERIOR = 1
INTERCEPTED = 2

KIND_WALL = 0
KIND_GEOMETRY = 1

_NL = 30          # normalization level for lattice coordinates
# Depth cap per dimension: a cell key's level column (at most 5 bits) and
# ``dim`` anchor columns fit in 63 bits, and so do the corner keys.
MAX_LEVEL = {dim: (63 - 5) // dim for dim in (2, 3)}

WALL_AXIS = {"x-": (0, 0), "x+": (0, 1), "y-": (1, 0), "y+": (1, 1),
             "z-": (2, 0), "z+": (2, 1)}


def corner_bits(dim):
    """(2**dim, dim) corner offsets; bit d of corner k is (k >> d) & 1."""
    k = np.arange(2 ** dim)
    return np.stack([(k >> d) & 1 for d in range(dim)], axis=1)


class TreeIndex:
    """Distinct integer rows packed into sorted int64 keys.

    The table is given by its int64 columns; they may broadcast, and the
    table's rows are then their elements broadcast together, in C order.
    Each column is shifted right by ``shift`` bits, offset by its minimum
    over the table, given as many bits as its span needs and ORed into the
    key, column 0 highest, so key order is the rows' lexicographic order.
    Out of range, a query column would carry into its neighbour's bits, so
    each is checked by one unsigned compare (and, under a shift, for low
    bits); the table's own rows skip the check. ``first`` maps each
    distinct key to one of its table rows and ``inverse`` each table row
    to its key. Keys wider than 63 bits, which ``MAX_LEVEL`` rules out for
    a tree's cells and corners, raise a ``MeshError``.
    """

    def __init__(self, columns, shift=0):
        self.shift = shift
        # shifting keeps order, so each column's ends shift with it
        ends = [(int(col.min()) >> shift, int(col.max()) >> shift)
                if col.size else (0, 0) for col in columns]
        self.low = [low for low, _ in ends]
        self.span = [high - low for low, high in ends]
        widths = [s.bit_length() for s in self.span]
        if sum(widths) > 63:
            raise MeshError(f"lookup keys need {sum(widths)} bits, more "
                            f"than the 63 bits of an int64")
        self.bit = [sum(widths[c + 1:]) for c in range(len(widths))]
        keys, _ = self._pack(columns, check=False)  # in range by construction
        # np.unique's steps, letting each array go once used (three
        # table-length arrays at a time rather than five; 4 MB of stl3d's
        # peak RSS), with numpy's default sort, three times faster than
        # its stable one on these keys
        order = np.argsort(keys.ravel())
        keys = keys.ravel()[order]
        new = np.empty(len(keys), bool)
        new[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        self.keys = keys[new]
        self.first = order[new]
        del keys
        rank = np.cumsum(new)
        rank -= 1
        self.inverse = np.empty_like(order)
        self.inverse[order] = rank

    def _pack(self, columns, check=True):
        """Keys of rows given one int64 array per column, and validity."""
        keys = np.zeros(np.broadcast_shapes(*(col.shape for col in columns)),
                        np.int64)
        valid = True
        for col, low, span, bit in zip(columns, self.low, self.span, self.bit):
            part = (col >> self.shift if self.shift else col) - low
            if check:
                valid &= part.view(np.uint64) <= span
                if self.shift:
                    valid &= (col & ((1 << self.shift) - 1)) == 0
            part <<= bit
            keys |= part
        return keys, valid

    def find(self, rows):
        """Position of each query row among the distinct keys, or -1."""
        return self.find_columns(np.asarray(rows, np.int64).T)

    def find_columns(self, columns):
        """``find`` for rows given as one int64 array per column."""
        if len(self.keys) == 0:
            return np.full(len(columns[0]), -1, np.int64)
        keys, valid = self._pack(columns)
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return np.where(valid & (self.keys[pos] == keys), pos, -1)


def _cell_index(levels, anchors):
    return TreeIndex([levels, *anchors.T])


@dataclass
class Corners:
    """The distinct corners of a leaf set and each leaf's corners.

    ``index`` holds the corners' lattice points, shifted down to the finest
    leaf level, and ``lattice`` those points in key order, which is their
    lexicographic order. ``cells`` gives each leaf's ``2**dim`` corners in
    corner-bit order as positions in that order.
    """
    index: TreeIndex
    lattice: np.ndarray     # (n_c, dim) at normalization level 30
    cells: np.ndarray       # (n, 2**dim)


def _corner_index(levels, anchors):
    """``Corners`` of the leaves ``(levels, anchors)``.

    Along axis ``d`` a leaf's corners take one of two lattice values, its
    low and high side. The index packs each axis's pair, broadcast over
    the other axes' corner bits, so of the ``n * 2**dim`` corners only
    their keys are built; the keys' C order is corner-bit order.
    """
    n, dim = anchors.shape
    finest = int(levels.max(initial=0))
    scale = np.int64(1) << (_NL - levels)
    columns = []
    for axis in range(dim):
        low = anchors[:, axis] * scale
        shape = [n] + [1] * dim
        shape[dim - axis] = 2       # bit ``axis`` of the corner number
        columns.append(np.stack([low, low + scale], axis=1).reshape(shape))
    index = TreeIndex(columns, shift=_NL - finest)
    cell, corner = np.divmod(index.first, 2 ** dim)
    lattice = (anchors[cell] + corner_bits(dim)[corner]) * scale[cell, None]
    return Corners(index, lattice, index.inverse.reshape(n, 2 ** dim))


def _children(levels, anchors):
    dim = anchors.shape[1]
    bits = corner_bits(dim)
    n = len(levels)
    child_levels = np.repeat(levels + 1, 2 ** dim)
    child_anchors = (anchors[:, None, :] * 2 + bits[None, :, :]).reshape(
        n * 2 ** dim, dim)
    return child_levels, child_anchors


# ---------------------------------------------------------------------------
# Classification against the geometries

def _lattice_coords(lattice, domain):
    lo = np.asarray(domain.domain_min, float)
    hi = np.asarray(domain.domain_max, float)
    step = (hi - lo) / float(1 << _NL)
    return lo + lattice * step


def classify_elements(levels, anchors, spec, geometries, corners):
    """Per-element class against each geometry, one code array per geometry.

    Each cell is classified from its own corners: INTERIOR (all kept),
    EXTERIOR (none), INTERCEPTED. Each geometry's ``kept`` runs once, on
    the distinct corners of ``corners`` (the leaves' ``_corner_index``),
    and each cell counts its kept corners through ``corners.cells``;
    ``kept`` is pointwise, so the counts are those of asking it for every
    cell's corners. Without geometries the list is empty.
    """
    if not geometries:
        return []
    points = _lattice_coords(corners.lattice, spec)
    per_geom = []
    for geom in geometries:
        count = geom.kept(points)[corners.cells].sum(axis=1)
        codes = np.full(len(levels), INTERCEPTED, np.int8)
        codes[count == corners.cells.shape[1]] = INTERIOR
        codes[count == 0] = EXTERIOR
        per_geom.append(codes)
    return per_geom


# ---------------------------------------------------------------------------
# Stage 1: wave-based refinement

def build_tree(spec, geometries):
    """Refine from the root cell until no rule fires; returns leaf arrays."""
    dim = spec.dimension
    levels = np.zeros(1, np.int64)
    anchors = np.zeros((1, dim), np.int64)
    done_levels = []
    done_anchors = []
    walls = [WALL_AXIS[name] for name in spec.refine_walls]
    deepest = max((gspec.refine_level for gspec in spec.geometries), default=0)
    while len(levels):
        refine = levels < spec.base_refine_level
        if walls and spec.wall_refine_level is not None:
            touch = np.zeros(len(levels), bool)
            top = (np.int64(1) << levels) - 1
            for axis, side in walls:
                touch |= anchors[:, axis] == (0 if side == 0 else top)
            refine |= touch & (levels < spec.wall_refine_level)
        if spec.refine_where is not None:
            scale = np.int64(1) << (_NL - levels)
            centers = _lattice_coords((anchors + 0.5) * scale[:, None], spec)
            # the mesh is built once, at t = 0
            env = ex.point_env(centers)
            env["level"] = levels.astype(float)
            hold = ex.eval_scalar(spec.refine_where, env)
            refine |= np.broadcast_to(np.asarray(hold, bool), refine.shape)
        ask = ~refine & (levels < deepest)
        per_geom = classify_elements(levels[ask], anchors[ask], spec,
                                     geometries,
                                     _corner_index(levels[ask], anchors[ask]))
        for gspec, codes in zip(spec.geometries, per_geom):
            refine[ask] |= (codes == INTERCEPTED) & (levels[ask] < gspec.refine_level)
        if bool((refine & (levels >= MAX_LEVEL[dim])).any()):
            raise MeshError(
                f"refinement exceeded the maximum depth of a {dim}-D tree, "
                f"level {MAX_LEVEL[dim]}")
        done_levels.append(levels[~refine])
        done_anchors.append(anchors[~refine])
        levels, anchors = _children(levels[refine], anchors[refine])
    return np.concatenate(done_levels), np.vstack(done_anchors)


# ---------------------------------------------------------------------------
# Stage 2: 2:1 balance

def _balance_directions(dim):
    """Steps to a cell's face neighbours, plus its edge neighbours in 3-D:
    every ``v`` in {-1, 0, 1}**dim with 1 to ``dim - 1`` nonzero entries."""
    dirs = np.array(list(itertools.product((-1, 0, 1), repeat=dim)), np.int64)
    nonzero = np.count_nonzero(dirs, axis=1)
    return dirs[(nonzero >= 1) & (nonzero < dim)]


def balance(levels, anchors, dim):
    """Split leaves until neighbors differ by at most one level.

    Neighbors are face-adjacent cells, plus edge-adjacent cells in 3-D so
    that hanging nodes can only be edge midpoints or face centers. Each
    sweep splits, once, every leaf two or more levels coarser than a
    neighbour. Neighbours only get finer, so a sweep asks only the last
    sweep's new children and the leaves that found such a neighbour in it
    (still too fine after a gap of 3 or more), and siblings ask the same
    coarse cells, so each asks once for all, through their parent.
    """
    levels = np.asarray(levels, np.int64)
    anchors = np.asarray(anchors, np.int64)
    dirs = _balance_directions(dim)
    # no leaf is two levels coarser than the coarsest
    fine = np.min(levels, initial=MAX_LEVEL[dim]) + 2
    ask = levels >= fine
    while ask.any():
        index = _cell_index(levels, anchors)
        present = np.unique(levels)
        parents = _cell_index(levels[ask] - 1, anchors[ask] >> 1)
        rows = np.nonzero(ask)[0][parents.first]
        parent_levels, parent_anchors = levels[rows] - 1, anchors[rows] >> 1
        mark = np.zeros(len(levels), bool)
        found_any = np.zeros(len(rows), bool)
        # a parent asks for cells ``gap`` levels coarser than itself
        for gap in range(1, int(parent_levels.max()) + 1):
            near = np.nonzero(np.isin(parent_levels - gap, present))[0]
            if not len(near):
                continue
            coarse_level = parent_levels[near] - gap
            columns = np.ascontiguousarray(parent_anchors[near].T)
            for v in dirs:
                found = index.find_columns(
                    [coarse_level] + [(a + s) >> gap
                                      for a, s in zip(columns, v)])
                hit = found >= 0
                mark[index.first[found[hit]]] = True
                found_any[near[hit]] = True
        if not mark.any():
            break
        ask[ask] = found_any[parents.inverse]
        child_levels, child_anchors = _children(levels[mark], anchors[mark])
        levels = np.concatenate([levels[~mark], child_levels])
        anchors = np.vstack([anchors[~mark], child_anchors])
        ask = np.concatenate([ask[~mark], child_levels >= fine])
    return levels, anchors


# ---------------------------------------------------------------------------
# Stage 3: carve

def carve(levels, anchors, spec, geometries):
    """Keep elements every geometry calls INTERIOR, sorted canonically;
    error if none.

    Returns the kept ``levels`` and ``anchors`` and, for ``number_nodes``,
    the ``Corners`` of all the given leaves, whose distinct corners each
    geometry classified once, with ``cells`` cut to the kept elements.
    """
    corners = _corner_index(levels, anchors)
    kept = np.ones(len(levels), bool)
    for codes in classify_elements(levels, anchors, spec, geometries,
                                   corners):
        kept &= codes == INTERIOR
    if not kept.any():
        raise EmptyMeshError(
            "carving left no interior elements; the domain may be thinner "
            "than the base cell size")
    rows = np.nonzero(kept)[0]
    rows = rows[np.lexsort(tuple(anchors[rows, d] for d in reversed(range(
        anchors.shape[1]))) + (levels[rows],))]
    return levels[rows], anchors[rows], replace(corners, cells=corners.cells[rows])


# ---------------------------------------------------------------------------
# Surrogate boundary faces

@dataclass
class SurrogateFaces:
    """Boundary faces of the kept mesh, flat arrays, one row per face.

    ``slices`` codes the sub-face extent per tangential axis (ascending
    axis order): 0 whole, 1 lower half, 2 upper half.
    """
    element: np.ndarray     # (n,) owning element index
    axis: np.ndarray        # (n,) face normal axis
    orient: np.ndarray      # (n,) 0 low side, 1 high side
    kind: np.ndarray        # (n,) KIND_WALL or KIND_GEOMETRY
    geom: np.ndarray        # (n,) geometry index or -1
    slices: np.ndarray      # (n, dim-1) slice codes

    def __len__(self):
        return len(self.element)


def _face_child_offsets(dim, axis, orient):
    """Anchor offsets of the neighbor's children touching the shared face."""
    tang = [d for d in range(dim) if d != axis]
    combos = corner_bits(dim - 1)
    offsets = np.zeros((len(combos), dim), np.int64)
    offsets[:, axis] = 1 - orient
    for col, d in enumerate(tang):
        offsets[:, d] = combos[:, col]
    return offsets, combos


def surrogate_faces(levels, anchors, dim):
    """Enumerate boundary faces of the kept element set; ``geom`` is left
    at -1 for ``_assign_face_geometry``."""
    index = _cell_index(levels, anchors)
    groups = []     # (element rows, axis, orient, kind, slice codes)
    top = np.int64(1) << levels
    columns = list(np.ascontiguousarray(anchors.T))
    for axis in range(dim):
        for orient in (0, 1):
            na = columns.copy()
            na[axis] = columns[axis] + (1 if orient else -1)
            oob = (na[axis] < 0) | (na[axis] >= top)
            # a neighbor outside the domain is never in the index
            covered = index.find_columns([levels] + na) >= 0
            parent = ~oob & ~covered
            covered[parent] = index.find_columns(
                [levels[parent] - 1] + [col[parent] >> 1 for col in na]) >= 0
            offsets, combos = _face_child_offsets(dim, axis, orient)
            open_rows = np.nonzero(~oob & ~covered)[0]
            child_level = levels[open_rows] + 1
            child_kept = np.zeros((len(open_rows), len(offsets)), bool)
            for c, offset in enumerate(offsets.tolist()):
                child_kept[:, c] = index.find_columns([child_level] + [
                    col[open_rows] * 2 + o for col, o in zip(na, offset)]) >= 0
            any_child = child_kept.any(axis=1)
            # wall faces and faces with no kept neighbor fragment: full face
            whole = np.zeros(dim - 1, np.int8)
            groups.append((np.nonzero(oob)[0], axis, orient, KIND_WALL, whole))
            groups.append((open_rows[~any_child], axis, orient, KIND_GEOMETRY,
                           whole))
            # partially covered faces: one sub-face per missing child
            part = open_rows[any_child]
            part_kept = child_kept[any_child]
            for c, combo in enumerate(combos):
                groups.append((part[~part_kept[:, c]], axis, orient,
                               KIND_GEOMETRY, 1 + combo))
    element = np.concatenate([group[0] for group in groups])
    order = np.argsort(element, kind="stable")
    sizes = [len(group[0]) for group in groups]

    def column(i):
        values = np.array([group[i] for group in groups], np.int8)
        return np.repeat(values, sizes, axis=0)[order]
    return SurrogateFaces(element=element[order], axis=column(1),
                          orient=column(2), kind=column(3),
                          geom=np.full(len(element), -1, np.int32),
                          slices=column(4))


def _assign_face_geometry(mesh):
    """Route each geometry face to the surface nearest its centre, the
    first one on ties; a single geometry takes every face unmeasured."""
    faces = mesh.faces
    rows = np.nonzero(faces.kind == KIND_GEOMETRY)[0]
    if len(mesh.geometries) > 1 and len(rows):
        centers = mesh.face_centers()[rows]
        faces.geom[rows] = np.argmin(
            [geom.closest(centers).distances for geom in mesh.geometries],
            axis=0)
    else:
        faces.geom[rows] = 0


# ---------------------------------------------------------------------------
# Stage 4: node numbering and hanging constraints

def _probe_table(dim):
    """Midpoint probes in doubled-corner coordinates (0..2 per axis).

    One probe per balance direction ``v``: the centre ``v + 1`` of the face
    or edge shared with that neighbour, with the corners it averages (those
    that match it on every axis where ``v`` is nonzero).
    """
    bits = corner_bits(dim)
    probes = []
    for v in _balance_directions(dim):
        on = v != 0
        corners = np.nonzero((2 * bits[:, on] == v[on] + 1).all(axis=1))[0]
        probes.append((v + 1, corners))
    return probes


def number_nodes(levels, anchors, dim, corners):
    """Node lattice, element connectivity, and the hanging-node pairs.

    The nodes are the corners of ``corners.cells``, one row per element
    (``carve``'s ``Corners``, or the ``_corner_index`` of the elements),
    numbered in key order. Returns (node_lattice, elem_nodes, hanging)
    where hanging holds one ``(nodes, parents, weight)`` per midpoint
    probe: the hanging nodes it found, ascending, the ``(k, m)`` node
    numbers of the corners of the face or edge each sits on, in
    corner-bit order, and their weight ``1 / m``. A node may be found by
    several probes; ``_constraint_matrix`` takes the last one's parents.
    """
    # node number of each corner position, -1 for a corner of no element;
    # the extra last entry maps a missed probe's -1 to -1
    used = np.zeros(len(corners.lattice) + 1, bool)
    used[corners.cells] = True
    number = np.where(used, np.cumsum(used) - 1, -1)
    node_lattice = corners.lattice[used[:-1]]
    elem_nodes = number[corners.cells]

    hanging = []
    size = np.int64(1) << (_NL - levels)
    rows = np.nonzero(size >= 2)[0]
    origins = anchors[rows].T * size[rows]
    half = size[rows] >> 1
    for pos, parent_corners in _probe_table(dim):
        found = number[corners.index.find_columns(
            [origin + half * p for origin, p in zip(origins, pos.tolist())])]
        # every cell that finds a node on this probe names the same corners
        hit = np.nonzero(found >= 0)[0]
        nodes, first = np.unique(found[hit], return_index=True)
        hanging.append((nodes, elem_nodes[rows[hit[first]]][:, parent_corners],
                        1.0 / len(parent_corners)))
    return node_lattice, elem_nodes, hanging


def _constraint_matrix(n_nodes, hanging):
    """Sparse map from free node values to all node values.

    A free node's row is its own column; a hanging node's row holds its
    weights on its parents' columns, from the last probe of ``hanging``
    (``number_nodes``' pairs) that found it. 2:1 balance across faces
    (and edges in 3-D) keeps every parent free, so these rows are the
    whole map.
    """
    probe = np.full(n_nodes, -1)
    for p, (nodes, _, _) in enumerate(hanging):
        probe[nodes] = p
    node, parent, weight = [], [], []
    for p, (nodes, parents, w) in enumerate(hanging):
        last = probe[nodes] == p
        node.append(np.repeat(nodes[last], parents.shape[1]))
        parent.append(parents[last].ravel())
        weight.append(np.full(len(parent[-1]), w))
    node, parent = np.concatenate(node), np.concatenate(parent)
    is_free = np.ones(n_nodes, bool)
    is_free[node] = False
    if not is_free[parent].all():
        raise MeshError("a hanging node's parent is hanging too; the tree "
                        "is not 2:1 balanced")
    free = np.nonzero(is_free)[0]
    column = np.cumsum(is_free) - 1
    rows = np.concatenate([free, node])
    cols = column[np.concatenate([free, parent])]
    vals = np.concatenate([np.ones(len(free))] + weight)
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n_nodes, len(free)))
    return free, matrix


# ---------------------------------------------------------------------------

@dataclass
class IncompleteMesh:
    dimension: int
    domain_min: tuple
    domain_max: tuple
    levels: np.ndarray          # (n_e,)
    anchors: np.ndarray         # (n_e, dim)
    node_lattice: np.ndarray    # (n_n, dim) at normalization level 30
    elem_nodes: np.ndarray      # (n_e, 2**dim) in corner-bit order
    free_nodes: np.ndarray      # (n_free,)
    constraint: object          # csr (n_n, n_free)
    faces: SurrogateFaces
    geometries: list = field(default_factory=list)

    @property
    def hanging(self):
        """The constrained node numbers, ascending: those not free."""
        return np.delete(np.arange(self.n_nodes), self.free_nodes)

    @property
    def n_elements(self):
        return len(self.levels)

    @property
    def n_nodes(self):
        return len(self.node_lattice)

    @property
    def n_free(self):
        return len(self.free_nodes)

    @property
    def extent(self):
        return (np.asarray(self.domain_max, float)
                - np.asarray(self.domain_min, float))

    def node_coords(self):
        return _lattice_coords(self.node_lattice, self)

    def free_node_record(self):
        """``(levels, points, faced)`` of the free nodes: each one's level,
        that of the finest element it is a corner of, its point on that
        level's lattice, and whether it is a corner of an element that owns
        a surrogate face. The tree multigrid coarsens this record, and in
        2-D smooths the faced nodes' band by blocks."""
        level = np.zeros(self.n_nodes, np.int64)
        np.maximum.at(level, self.elem_nodes, self.levels[:, None])
        faced = np.zeros(self.n_nodes, bool)
        faced[self.elem_nodes[self.faces.element]] = True
        level = level[self.free_nodes]
        return (level,
                self.node_lattice[self.free_nodes] >> (_NL - level)[:, None],
                faced[self.free_nodes])

    def cell_sizes(self, levels=None):
        """(n, dim) physical edge lengths per element."""
        if levels is None:
            levels = self.levels
        return self.extent[None, :] / (1 << levels)[:, None].astype(float)

    def element_origin(self, rows=None):
        if rows is None:
            rows = slice(None)
        scale = (np.int64(1) << (_NL - self.levels[rows]))[:, None]
        return _lattice_coords(self.anchors[rows] * scale, self)

    def face_centers(self):
        faces = self.faces
        rows = faces.element
        origin = self.element_origin(rows)
        size = self.cell_sizes(self.levels[rows])
        center = origin + 0.5 * size
        dim = self.dimension
        axes = faces.axis.astype(int)
        pick = np.arange(len(rows))
        center[pick, axes] = (origin[pick, axes]
                              + faces.orient * size[pick, axes])
        tangential = [[d for d in range(dim) if d != a] for a in range(dim)]
        for col in range(dim - 1):
            taxes = np.asarray([tangential[a][col] for a in axes])
            code = faces.slices[:, col]
            shift = np.where(code == 0, 0.0, np.where(code == 1, -0.25, 0.25))
            center[pick, taxes] += shift * size[pick, taxes]
        return center


def build_mesh(spec, base_dir="."):
    """Run the full pipeline for a problem description."""
    geometries = [load_geometry(g, spec.dimension, base_dir)
                  for g in spec.geometries]
    levels, anchors = build_tree(spec, geometries)
    levels, anchors = balance(levels, anchors, spec.dimension)
    levels, anchors, corners = carve(levels, anchors, spec, geometries)
    faces = surrogate_faces(levels, anchors, spec.dimension)
    node_lattice, elem_nodes, hanging = number_nodes(levels, anchors,
                                                     spec.dimension, corners)
    free_nodes, constraint = _constraint_matrix(len(node_lattice), hanging)
    mesh = IncompleteMesh(
        dimension=spec.dimension,
        domain_min=tuple(spec.domain_min),
        domain_max=tuple(spec.domain_max),
        levels=levels,
        anchors=anchors,
        node_lattice=node_lattice,
        elem_nodes=elem_nodes,
        free_nodes=free_nodes,
        constraint=constraint,
        faces=faces,
        geometries=geometries,
    )
    _assign_face_geometry(mesh)
    return mesh
