"""Former solve-stage implementations, kept as references for the tests.

``band_smoother`` is the band step's set-up as ``treefem.solve`` ran it
before its joins became library calls: each box entry's columns matched
against packed ``box * m + member`` keys with ``searchsorted`` and a hit
mask, and the members' rows of the band block, and ``B``'s own rows,
gathered by hand-made start/count ranges (``_ranges``). The rewrite must
give the same ``(nodes, rows, B)`` byte for byte.
"""

import numpy as np
import scipy.sparse as sp

from treefem.errors import SolverError
from treefem.mesh import TreeIndex
from treefem.solve import _BOX_LIMIT, _BOX_PAD, _BOX_RINGS, _BOX_SHIFT


def band_smoother(A, band, levels, points):
    """``(nodes, rows, B)`` of the restricted additive Schwarz step over the
    ``band`` nodes, or None if there are none (``treefem.solve``). ``rows``
    are the band's rows of ``A``, and ``B`` holds each box's rows of its
    block inverse, one row per band node, in band numbering."""
    nodes = np.flatnonzero(band)
    if len(nodes) == 0:
        return None
    rows = A[nodes]
    local = rows[:, nodes].tocsr()
    m = len(nodes)
    top = int(levels[nodes].max())
    lattice = points[nodes] << (top - levels[nodes])[:, None]
    boxes = TreeIndex(list((lattice >> _BOX_SHIFT).T))
    box, n_box = boxes.inverse, len(boxes.keys)
    grown = sp.csr_matrix((np.ones(m), (box, np.arange(m))), shape=(n_box, m))
    pattern = sp.csr_matrix((np.ones(local.nnz), local.indices, local.indptr),
                            shape=(m, m))
    for _ in range(_BOX_RINGS):
        wider = grown @ pattern
        fits = np.diff(wider.indptr) <= _BOX_LIMIT
        grown = (sp.diags(fits.astype(float)) @ wider
                 + sp.diags((~fits).astype(float)) @ grown)
    grown.sort_indices()
    # one entry per (box, member): its box, member and slot in the box
    size = np.diff(grown.indptr)
    owner = np.repeat(np.arange(n_box), size)
    member = grown.indices
    slot = np.arange(grown.nnz) - grown.indptr[owner]
    own = box[member] == owner
    # the entries of local's rows, each at its column's slot in the box
    start = local.indptr[member]
    count = local.indptr[member + 1] - start
    entry = np.repeat(np.arange(grown.nnz), count)
    at = _ranges(start, count)
    key = owner * m + member            # ascending
    query = owner[entry] * m + local.indices[at]
    where = np.minimum(np.searchsorted(key, query), len(key) - 1)
    hit = key[where] == query
    entry, at, where = entry[hit], at[hit], where[hit]
    # B's row of band node i is the row of i's slot in the inverse of its
    # own box's block, over that box's members
    mine = np.empty(m, np.int64)
    mine[member[own]] = np.flatnonzero(own)
    indptr = np.concatenate([[0], np.cumsum(size[owner[mine]])])
    indices = member[_ranges(grown.indptr[owner[mine]], size[owner[mine]])]
    data = np.empty(len(indices))
    # the blocks are inverted in classes of equal padded width
    width = -(-size // _BOX_PAD) * _BOX_PAD
    for w in np.unique(width):
        chosen = np.flatnonzero(width == w)
        position = np.zeros(n_box, np.int64)
        position[chosen] = np.arange(len(chosen))
        blocks = np.zeros((len(chosen), w, w))
        blocks[:, np.arange(w), np.arange(w)] = 1.0     # the padding's
        take = width[owner[entry]] == w
        e, c = entry[take], where[take]
        blocks[position[owner[e]], slot[e], slot[c]] = local.data[at[take]]
        try:
            inverse = np.linalg.inv(blocks)
        except np.linalg.LinAlgError:
            raise SolverError("multigrid set-up: a band block cannot be "
                              "inverted") from None
        del blocks
        i = np.flatnonzero(width[owner[mine]] == w)
        keep = np.arange(w) < size[owner[mine[i]], None]
        data[(indptr[i, None] + np.arange(w))[keep]] = inverse[
            position[owner[mine[i]]], slot[mine[i]]][keep]
    B = sp.csr_matrix((data, indices, indptr), shape=(m, m))
    return nodes, rows, B


def _ranges(start, count):
    """The concatenated ranges ``start[k], ..., start[k] + count[k] - 1``."""
    return np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count,
                                              count)
