"""Incomplete adaptive quadtree/octree meshes carved around geometries.

The mesh is a set of axis-aligned leaf cells ("elements") of a recursively
refined box. Construction runs in four stages:

1. **build**: wave-based refinement from the root cell. A cell splits when
   it is coarser than the base level, when a geometry surface crosses it
   and it is coarser than that geometry's target level, when it touches a
   wall selected for refinement, or when the user's refinement predicate
   holds at its center. Depth is capped at level 30.
2. **balance**: adjacent leaves are limited to one level of difference,
   across faces in 2-D and across faces *and* edges in 3-D. The edge rule
   guarantees every nonconforming node sits at an edge midpoint or face
   center of its coarse neighbor.
3. **carve**: only elements whose corners all lie on the kept side of
   every geometry survive. Their outward-facing sides form the surrogate
   boundary; where a kept element borders finer discarded cells the face
   splits into half- or quarter-face slices.
4. **number**: corner nodes are numbered on the shared integer lattice
   (the domain spans 2**30 lattice units per axis), hanging nodes are
   detected by probing face/edge midpoints of every element, and the
   constraint matrix mapping free node values to all node values is built
   by substituting chains of midpoint averages.

Anchors are integer cell coordinates at the cell's own level; lattice
coordinates are at the fixed normalization level 30, so all point
identity tests are exact. Every lookup (corner dedup, balance neighbors,
face neighbors, node numbering and midpoint probes) goes through one
``TreeIndex`` per stage: cells ``(level, anchor...)`` or lattice points
(shifted down to the mesh's finest level) are packed into int64 keys
whose bit width comes from the span of each column, the keys are sorted
once, and each lookup is a binary search. Keys must fit in 63 bits, so
a tree spanning the domain can reach level ``63 // dim - 1``: level 20
in 3-D, while 2-D trees hit the depth cap of 30 first. Deeper trees are
rejected with a ``MeshError`` when the index is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import expr as ex
from .errors import EmptyMeshError, MeshError
from .geometry import load_geometry

__all__ = [
    "EXTERIOR", "INTERIOR", "INTERCEPTED", "KIND_WALL", "KIND_GEOMETRY",
    "SurrogateFaces", "IncompleteMesh",
    "build_tree", "balance", "carve", "classify_elements", "surrogate_faces",
    "number_nodes", "build_mesh", "corner_bits",
]

EXTERIOR = 0
INTERIOR = 1
INTERCEPTED = 2

KIND_WALL = 0
KIND_GEOMETRY = 1

MAX_LEVEL = 30
_NL = 30          # normalization level for lattice coordinates

_WALL_AXIS = {"x-": (0, 0), "x+": (0, 1), "y-": (1, 0), "y+": (1, 1),
              "z-": (2, 0), "z+": (2, 1)}


def corner_bits(dim):
    """(2**dim, dim) corner offsets; bit d of corner k is (k >> d) & 1."""
    k = np.arange(2 ** dim)
    return np.stack([(k >> d) & 1 for d in range(dim)], axis=1)


class TreeIndex:
    """Distinct integer rows packed into sorted int64 keys.

    Each column is shifted right by ``shift`` bits, offset by its minimum
    over the table and given as many bits as its span needs; column 0 is
    the most significant, so key order is the rows' lexicographic order.
    ``first`` maps each distinct key to its first table row and
    ``inverse`` maps each table row to its key. ``dim`` and ``level`` only
    name the tree in the error raised when the keys need more than 63 bits.
    """

    def __init__(self, rows, dim, level, shift=0):
        rows = np.asarray(rows, np.int64)
        self.shift = shift
        if len(rows):
            coarse = rows >> shift
            self.low = coarse.min(axis=0)
            self.span = coarse.max(axis=0) - self.low
        else:
            self.low = self.span = np.zeros(rows.shape[1], np.int64)
        widths = [int(s).bit_length() for s in self.span]
        if sum(widths) > 63:
            raise MeshError(
                f"a {dim}-D tree refined to level {level} needs "
                f"{sum(widths)}-bit lookup keys, more than the 63 bits of an "
                f"int64; a {dim}-D tree spanning the domain can be refined "
                f"to level {63 // dim - 1} at most")
        self.bit = np.array([sum(widths[c + 1:]) for c in range(len(widths))],
                            np.int64)
        keys, _ = self._pack(rows)
        self.keys, self.first, self.inverse = np.unique(
            keys, return_index=True, return_inverse=True)

    def _pack(self, rows):
        """Keys of ``rows`` and whether each row can be in the table."""
        rows = np.asarray(rows, np.int64)
        coarse = (rows >> self.shift) - self.low
        valid = ((coarse >= 0) & (coarse <= self.span)).all(axis=1)
        if self.shift:
            valid &= ((rows & ((1 << self.shift) - 1)) == 0).all(axis=1)
        return (coarse << self.bit).sum(axis=1), valid

    def find(self, rows):
        """Position of each query row among the distinct keys, or -1."""
        keys, valid = self._pack(rows)
        if len(self.keys) == 0:
            return np.full(len(keys), -1, np.int64)
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return np.where(valid & (self.keys[pos] == keys), pos, -1)


def _cell_index(levels, anchors):
    finest = int(levels.max()) if len(levels) else 0
    return TreeIndex(_keys(levels, anchors), anchors.shape[1], finest)


def _lattice_index(lattice, levels):
    """Index of lattice points that are corners of cells at ``levels``."""
    finest = int(levels.max()) if len(levels) else 0
    return TreeIndex(lattice, lattice.shape[1], finest, shift=_NL - finest)


def _keys(levels, anchors):
    return np.column_stack([levels.astype(np.int64), anchors.astype(np.int64)])


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

def _corner_lattice(levels, anchors):
    dim = anchors.shape[1]
    bits = corner_bits(dim)
    scale = (np.int64(1) << (_NL - levels)).astype(np.int64)
    corners = (anchors[:, None, :] + bits[None, :, :]) * scale[:, None, None]
    return corners.reshape(len(levels) * 2 ** dim, dim)


def _lattice_coords(lattice, spec):
    lo = np.asarray(spec.domain_min, float)
    hi = np.asarray(spec.domain_max, float)
    step = (hi - lo) / float(1 << _NL)
    return lo + lattice * step


def classify_elements(levels, anchors, spec, geometries):
    """Per-element class overall and against each geometry separately.

    Classes: INTERIOR (all corners kept), EXTERIOR (none), INTERCEPTED.
    Without geometries every element is INTERIOR.
    """
    n = len(levels)
    dim = anchors.shape[1]
    if not geometries:
        return np.full(n, INTERIOR, np.int8), []
    lattice = _corner_lattice(levels, anchors)
    index = _lattice_index(lattice, levels)
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


# ---------------------------------------------------------------------------
# Stage 1: wave-based refinement

def build_tree(spec, geometries):
    """Refine from the root cell until no rule fires; returns leaf arrays."""
    dim = spec.dimension
    levels = np.zeros(1, np.int64)
    anchors = np.zeros((1, dim), np.int64)
    done_levels = []
    done_anchors = []
    walls = [_WALL_AXIS[name] for name in spec.refine_walls]
    while len(levels):
        refine = levels < spec.base_refine_level
        if geometries:
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
                _corner_lattice(levels, anchors).reshape(len(levels), 2 ** dim, dim)
                .mean(axis=1), spec)
            # the mesh is built once, at t = 0
            env = ex.point_env(centers)
            env["level"] = levels.astype(float)
            hold = ex.eval_scalar(spec.refine_where, env)
            refine |= np.broadcast_to(np.asarray(hold, bool), refine.shape)
        if bool((refine & (levels >= MAX_LEVEL)).any()):
            raise MeshError(
                f"refinement exceeded the maximum depth of {MAX_LEVEL} levels")
        done_levels.append(levels[~refine])
        done_anchors.append(anchors[~refine])
        levels, anchors = _children(levels[refine], anchors[refine])
    return np.concatenate(done_levels), np.vstack(done_anchors)


# ---------------------------------------------------------------------------
# Stage 2: 2:1 balance

def _balance_directions(dim):
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


def balance(levels, anchors, dim):
    """Split leaves until neighbors differ by at most one level.

    Neighbors are face-adjacent cells, plus edge-adjacent cells in 3-D so
    that hanging nodes can only be edge midpoints or face centers.
    """
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
            for v in dirs:
                found = index.find(_keys(coarse_level, (anchors[rows] + v) >> gap))
                mark[index.first[found[found >= 0]]] = True
        if not mark.any():
            return levels, anchors
        child_levels, child_anchors = _children(levels[mark], anchors[mark])
        levels = np.concatenate([levels[~mark], child_levels])
        anchors = np.vstack([anchors[~mark], child_anchors])


# ---------------------------------------------------------------------------
# Stage 3: carve

def carve(levels, anchors, spec, geometries):
    """Keep fully interior elements, sorted canonically; error if none."""
    overall, _ = classify_elements(levels, anchors, spec, geometries)
    kept = overall == INTERIOR
    if not kept.any():
        raise EmptyMeshError(
            "carving left no interior elements; the domain may be thinner "
            "than the base cell size")
    levels = levels[kept]
    anchors = anchors[kept]
    order = np.lexsort(tuple(anchors[:, d] for d in reversed(range(
        anchors.shape[1]))) + (levels,))
    return levels[order], anchors[order]


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
    return offsets, tang, combos


def surrogate_faces(levels, anchors, dim, n_geoms):
    """Enumerate boundary faces of the kept element set."""
    index = _cell_index(levels, anchors)
    rows_element = []
    rows_axis = []
    rows_orient = []
    rows_kind = []
    rows_slices = []
    top = np.int64(1) << levels
    for axis in range(dim):
        for orient in (0, 1):
            v = np.zeros(dim, np.int64)
            v[axis] = 1 if orient else -1
            na = anchors + v
            oob = (na[:, axis] < 0) | (na[:, axis] >= top)
            # a neighbor outside the domain is never in the index
            covered = index.find(_keys(levels, na)) >= 0
            parent = ~oob & ~covered
            covered[parent] = index.find(
                _keys(levels[parent] - 1, na[parent] >> 1)) >= 0
            offsets, tang, combos = _face_child_offsets(dim, axis, orient)
            open_rows = np.nonzero(~oob & ~covered)[0]
            child_kept = np.zeros((len(open_rows), len(offsets)), bool)
            for c, offset in enumerate(offsets):
                child = na[open_rows] * 2 + offset
                child_kept[:, c] = index.find(
                    _keys(levels[open_rows] + 1, child)) >= 0
            any_child = child_kept.any(axis=1)
            # wall faces and faces with no kept neighbor fragment: full face
            full_rows = np.concatenate([np.nonzero(oob)[0],
                                        open_rows[~any_child]])
            kinds = np.concatenate([
                np.full(int(oob.sum()), KIND_WALL, np.int8),
                np.full(int((~any_child).sum()), KIND_GEOMETRY, np.int8)])
            rows_element.append(full_rows)
            rows_axis.append(np.full(len(full_rows), axis, np.int8))
            rows_orient.append(np.full(len(full_rows), orient, np.int8))
            rows_kind.append(kinds)
            rows_slices.append(np.zeros((len(full_rows), dim - 1), np.int8))
            # partially covered faces: one sub-face per missing child
            part = open_rows[any_child]
            part_kept = child_kept[any_child]
            for c, combo in enumerate(combos):
                miss = part[~part_kept[:, c]]
                rows_element.append(miss)
                rows_axis.append(np.full(len(miss), axis, np.int8))
                rows_orient.append(np.full(len(miss), orient, np.int8))
                rows_kind.append(np.full(len(miss), KIND_GEOMETRY, np.int8))
                rows_slices.append(np.tile(1 + combo.astype(np.int8),
                                           (len(miss), 1)))
    element = np.concatenate(rows_element)
    order = np.argsort(element, kind="stable")
    faces = SurrogateFaces(
        element=element[order],
        axis=np.concatenate(rows_axis)[order],
        orient=np.concatenate(rows_orient)[order],
        kind=np.concatenate(rows_kind)[order],
        geom=np.full(len(element), -1, np.int32),
        slices=np.vstack(rows_slices)[order],
    )
    geometry_rows = faces.kind == KIND_GEOMETRY
    if n_geoms == 1:
        faces.geom[geometry_rows] = 0
    return faces


def _assign_face_geometry(mesh):
    """Route each geometry face to the nearest surface when several exist."""
    faces = mesh.faces
    rows = np.nonzero(faces.kind == KIND_GEOMETRY)[0]
    if len(rows) == 0 or len(mesh.geometries) <= 1:
        return
    centers = mesh.face_centers()[rows]
    best = np.full(len(rows), np.inf)
    pick = np.zeros(len(rows), np.int32)
    for g, geom in enumerate(mesh.geometries):
        dist = geom.closest(centers).distances
        closer = dist < best
        best[closer] = dist[closer]
        pick[closer] = g
    faces.geom[rows] = pick


# ---------------------------------------------------------------------------
# Stage 4: node numbering and hanging constraints

def _probe_table(dim):
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


def number_nodes(levels, anchors, dim):
    """Node lattice, element connectivity, and the hanging constraint map.

    Returns (node_lattice, elem_nodes, hanging) where hanging maps a node
    index to a tuple of (node index, weight) pairs averaging the corners
    of the face or edge it sits on.
    """
    lattice = _corner_lattice(levels, anchors)
    index = _lattice_index(lattice, levels)
    node_lattice = lattice[index.first]
    elem_nodes = index.inverse.reshape(len(levels), 2 ** dim)

    hanging = {}
    half = (np.int64(1) << (_NL - levels)) >> 1
    can = half >= 1
    origins = anchors * (np.int64(1) << (_NL - levels))[:, None]
    for pos, corners in _probe_table(dim):
        probe = origins[can] + half[can, None] * pos[None, :]
        found = index.find(probe)
        weight = 1.0 / len(corners)
        for row, node in zip(np.nonzero(can)[0][found >= 0], found[found >= 0]):
            if node in hanging:
                continue
            hanging[int(node)] = tuple(
                (int(elem_nodes[row, k]), weight) for k in corners)
    return node_lattice, elem_nodes, hanging


def _constraint_matrix(n_nodes, hanging):
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
    hanging: dict               # node -> ((node, weight), ...)
    free_nodes: np.ndarray      # (n_free,)
    constraint: object          # csr (n_n, n_free)
    faces: SurrogateFaces
    geometries: list = field(default_factory=list)

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
        step = self.extent / float(1 << _NL)
        return np.asarray(self.domain_min, float) + self.node_lattice * step

    def cell_sizes(self, levels=None):
        """(n, dim) physical edge lengths per element."""
        if levels is None:
            levels = self.levels
        return self.extent[None, :] / (1 << levels)[:, None].astype(float)

    def element_origin(self, rows=None):
        if rows is None:
            rows = slice(None)
        scale = (np.int64(1) << (_NL - self.levels[rows]))[:, None]
        step = self.extent / float(1 << _NL)
        return (np.asarray(self.domain_min, float)
                + self.anchors[rows] * scale * step)

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

    def level_counts(self):
        uniq, counts = np.unique(self.levels, return_counts=True)
        return {int(l): int(c) for l, c in zip(uniq, counts)}


def build_mesh(spec, base_dir="."):
    """Run the full pipeline for a problem description."""
    geometries = [load_geometry(g, spec.dimension, base_dir)
                  for g in spec.geometries]
    levels, anchors = build_tree(spec, geometries)
    levels, anchors = balance(levels, anchors, spec.dimension)
    levels, anchors = carve(levels, anchors, spec, geometries)
    faces = surrogate_faces(levels, anchors, spec.dimension, len(geometries))
    node_lattice, elem_nodes, hanging = number_nodes(levels, anchors,
                                                     spec.dimension)
    free_nodes, constraint = _constraint_matrix(len(node_lattice), hanging)
    mesh = IncompleteMesh(
        dimension=spec.dimension,
        domain_min=tuple(spec.domain_min),
        domain_max=tuple(spec.domain_max),
        levels=levels,
        anchors=anchors,
        node_lattice=node_lattice,
        elem_nodes=elem_nodes,
        hanging=hanging,
        free_nodes=free_nodes,
        constraint=constraint,
        faces=faces,
        geometries=geometries,
    )
    _assign_face_geometry(mesh)
    return mesh
