"""Nested piecewise-linear finite element spaces and their level operators.

A mesh is one simplicial mesh in every dimension: vertices of shape
(n, dim) and cells of shape (n_el, dim + 1), intervals in 1D and triangles
in 2D, checked once in :func:`_checked`.  Levels are produced by uniform
refinement (midpoint bisection of intervals, red refinement of triangles),
so the space on every level is contained in the next one and prolongation
is exact.  P1 elements keep |grad u| constant on each element, which makes
the W^{1,p} seminorm exact for any p > 1; Lebesgue norms are computed with
a fixed rule per element, one per dimension.

Each level carries one set of sparse operators, from free coefficients to
element gradients and to quadrature-point values, and their transposes.
Every integral and every assembly in the package goes through them and the
block forms defined next to them: the norms and pairings, the constants'
Rayleigh quotients, and the residual and Jacobian of the Galerkin equation.
The Jacobian lives on one fixed pattern per level, the free-node adjacency,
which :class:`JacobianPattern` builds on first use together with the
positions where element and quadrature-point terms land in it.
:func:`point_operators` builds the same two maps at arbitrary points of a 1D
level, which is how the convolution reads P1 functions.

All objects are immutable after construction; reductions use a fixed
summation order, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp


class MeshError(ValueError):
    """A mesh failed a structural validity check."""

    code = "MESH"


class LevelMismatchError(ValueError):
    """Operands live on incompatible hierarchy levels."""


# 4-point Gauss-Legendre rule mapped to the unit interval (exact to degree 7).
_GL4_T = np.array(
    [
        0.5 * (1.0 - 0.8611363115940526),
        0.5 * (1.0 - 0.3399810435848563),
        0.5 * (1.0 + 0.3399810435848563),
        0.5 * (1.0 + 0.8611363115940526),
    ]
)
_GL4_W = np.array(
    [
        0.5 * 0.3478548451374538,
        0.5 * 0.6521451548625461,
        0.5 * 0.6521451548625461,
        0.5 * 0.3478548451374538,
    ]
)

# Symmetric degree-4 triangle rule (6 points), barycentric coordinates.
_TRI4_A = 0.445948490915965
_TRI4_B = 0.091576213509771
_TRI4_BARY = np.array(
    [
        [1.0 - 2.0 * _TRI4_A, _TRI4_A, _TRI4_A],
        [_TRI4_A, 1.0 - 2.0 * _TRI4_A, _TRI4_A],
        [_TRI4_A, _TRI4_A, 1.0 - 2.0 * _TRI4_A],
        [1.0 - 2.0 * _TRI4_B, _TRI4_B, _TRI4_B],
        [_TRI4_B, 1.0 - 2.0 * _TRI4_B, _TRI4_B],
        [_TRI4_B, _TRI4_B, 1.0 - 2.0 * _TRI4_B],
    ]
)
_TRI4_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)
# the rule of each dimension: its points in barycentric coordinates (the
# interval's point t is (1 - t, t)) and its weights, which sum to one
_QUADRATURE = {
    1: (np.column_stack([1.0 - _GL4_T, _GL4_T]), _GL4_W),
    2: (_TRI4_BARY, _TRI4_W / _TRI4_W.sum()),
}


@dataclass(frozen=True, eq=False)
class DomainMesh:
    """Conforming simplicial mesh of a bounded domain in one or two dimensions.

    ``vertices`` has shape (n, dim) and ``cells`` shape (n_el, dim + 1), one
    row of vertex indices per interval or triangle.  Every cell has positive
    measure: triangles are positively oriented, and a 1D mesh has
    increasing vertices and the cells [i, i + 1], which
    :func:`point_operators` and the convolution rely on.  ``measure`` is
    the total Lebesgue measure, computed as the sum of cell measures.
    """

    vertices: np.ndarray
    cells: np.ndarray

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_nodes(self) -> int:
        return len(self.vertices)

    @property
    def n_elements(self) -> int:
        return len(self.cells)

    @property
    def measure(self) -> float:
        return float(np.sum(self.element_measures()))

    def element_measures(self) -> np.ndarray:
        """Length of each interval, or signed area of each triangle."""
        v = self.vertices[self.cells]
        e = v[:, 1:] - v[:, :1]  # row k: vertex k + 1 minus vertex 0
        if self.dim == 1:
            return e[:, 0, 0]
        return 0.5 * (e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0])

    def boundary_facets(self) -> np.ndarray:
        """The facets that belong to one cell only, a row of sorted vertices each."""
        keys, counts = np.unique(_facets(self.cells, self.n_nodes)[1], return_counts=True)
        return np.stack(np.unravel_index(keys[counts == 1], (self.n_nodes,) * self.dim), axis=-1)

    def boundary_nodes(self) -> np.ndarray:
        """The vertices of the facets that belong to one cell only."""
        return np.unique(self.boundary_facets())

    @staticmethod
    def from_json_dict(obj: dict) -> "DomainMesh":
        if obj.get("dim") == 1:
            return interval_mesh_from_nodes(obj["nodes"])
        if obj.get("dim") == 2:
            return triangle_mesh(obj["vertices"], obj["triangles"])
        raise MeshError(f"mesh dim must be 1 or 2, got {obj.get('dim')!r}")


def _facets(cells: np.ndarray, n: int) -> tuple:
    """Facet k of each cell, the cell without its vertex k, and one integer key per facet.

    Rows run cell by cell, k innermost.  The key of a facet encodes its
    sorted vertices, so ``np.unique`` works on a flat array.
    """
    d = cells.shape[1]
    facets = cells[:, [[j for j in range(d) if j != k] for k in range(d)]].reshape(-1, d - 1)
    return facets, np.ravel_multi_index(np.sort(facets).T, (n,) * (d - 1))


def _checked(vertices: np.ndarray, cells: np.ndarray) -> DomainMesh:
    """The mesh on ``vertices`` and ``cells``, checked alike in every dimension.

    The vertices are finite and each lies in a cell, every cell has positive
    measure, and each facet lies in one cell or in two on its opposite sides.
    In 2D no vertex lies inside a boundary edge, so no node hangs.
    """
    if len(cells) == 0:
        raise MeshError("mesh needs at least one cell")
    if cells.min() < 0 or cells.max() >= len(vertices):
        raise MeshError("cell vertex indices out of range")
    if not np.all(np.isfinite(vertices)):
        raise MeshError("mesh vertices must be finite")
    unused = np.flatnonzero(np.bincount(cells.ravel(), minlength=len(vertices)) == 0)
    if len(unused):
        raise MeshError(f"vertex {unused[0]} lies in no cell")
    mesh = DomainMesh(vertices=vertices, cells=cells)
    measures = mesh.element_measures()
    if np.any(measures <= 0):
        bad = int(np.argmin(measures))
        raise MeshError(f"cell {bad} is degenerate or negatively oriented ({measures[bad]:g}): "
                        f"interval nodes must be strictly increasing, triangles counterclockwise")
    # two cells on one facet orient it oppositely: facet k takes (-1)^k times
    # the sign of the permutation that sorts its one or two vertices.  So a
    # facet that two cells orient alike, or that three cells hold, overlaps.
    facets, keys = _facets(cells, len(vertices))
    even = np.tile(np.arange(cells.shape[1]) % 2 == 0, len(cells))
    oriented = np.sort(2 * keys + (even == (facets[:, -1] >= facets[:, 0])))
    twice = oriented[1:][oriented[1:] == oriented[:-1]]
    if len(twice):
        at = np.unravel_index(twice[0] // 2, (len(vertices),) * (cells.shape[1] - 1))
        raise MeshError(f"cells overlap at facet {[int(i) for i in at]}: "
                        f"{np.count_nonzero(oriented == twice[0])} cells lie on one side of it")
    if mesh.dim == 2:
        # a hanging node leaves a vertex of one boundary edge strictly inside
        # another; refinement keeps a conforming mesh conforming
        ends = mesh.boundary_facets()
        corners = np.unique(ends)
        e = vertices[ends[:, 1:]] - vertices[ends[:, :1]]  # (edges, 1, 2)
        r = vertices[corners] - vertices[ends[:, :1]]  # (edges, corners, 2)
        length2 = np.sum(e * e, axis=-1)
        along = np.sum(r * e, axis=-1) / length2
        off = np.abs(e[..., 0] * r[..., 1] - e[..., 1] * r[..., 0])  # distance times length
        hanging = np.argwhere((along > 0) & (along < 1) & (off <= 1e-12 * length2))
        if len(hanging):
            i, j = hanging[0]
            raise MeshError(f"vertex {corners[j]} lies inside boundary edge {ends[i].tolist()}: "
                            f"a hanging node makes the mesh non-conforming")
    return mesh


def interval_mesh_from_nodes(nodes: np.ndarray) -> DomainMesh:
    """The 1D mesh on increasing ``nodes``, with the cells [i, i + 1]."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1:
        raise MeshError("interval mesh nodes must be a flat list")
    return _checked(nodes[:, None], np.arange(len(nodes) - 1)[:, None] + np.arange(2))


def interval_mesh(a: float, b: float, elements: int) -> DomainMesh:
    """Uniform mesh of (a, b) with the given number of elements."""
    if elements < 1:
        raise MeshError("interval mesh needs at least one element")
    return interval_mesh_from_nodes(np.linspace(a, b, elements + 1))


def triangle_mesh(vertices: np.ndarray, triangles: np.ndarray) -> DomainMesh:
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=int)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError("2D mesh vertices must have shape (n, 2)")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshError("2D mesh triangles must have shape (m, 3)")
    return _checked(vertices, triangles)


def unit_square_mesh() -> DomainMesh:
    """Two-triangle mesh of the unit square."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return triangle_mesh(verts, tris)


def _refine(mesh: DomainMesh) -> tuple:
    """Uniform refinement of ``mesh`` and its parent table.

    Row i of ``parents`` holds the two coarse nodes whose midpoint fine node
    i is; an old node is its own parent twice.  In 1D old nodes and
    midpoints interleave, so the vertices stay increasing and the cells
    [i, i + 1].  On triangles an old node keeps its index, and new nodes
    are numbered in the order their edge is first met, triangle by
    triangle and edges ab, bc, ca within each.  A refined checked mesh
    passes the check, so it is not repeated.
    """
    n = mesh.n_nodes
    old = np.repeat(np.arange(n)[:, None], 2, axis=1)
    if mesh.dim == 1:
        parents = np.empty((2 * n - 1, 2), dtype=int)
        parents[0::2] = old
        parents[1::2] = mesh.cells
        cells = np.arange(2 * n - 2)[:, None] + np.arange(2)
    else:
        edges = np.sort(mesh.cells[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        _, first, edge_of = np.unique(edges[:, 0] * n + edges[:, 1],
                                      return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=int)
        rank[np.argsort(first)] = np.arange(len(first))
        ab, bc, ca = (n + rank[edge_of]).reshape(-1, 3).T
        a, b, c = mesh.cells.T
        tris = np.array([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
        parents = np.vstack([old, edges[np.sort(first)]])
        cells = tris.transpose(2, 0, 1).reshape(-1, 3)
    verts = mesh.vertices
    return DomainMesh(0.5 * (verts[parents[:, 0]] + verts[parents[:, 1]]), cells), parents


@dataclass(frozen=True, eq=False)
class Level:
    """One finite element space: mesh, interior dofs, quadrature tables.

    ``free`` lists the interior node indices carrying degrees of freedom;
    Dirichlet boundary nodes are excluded on every level.  ``prolongation``
    maps free coefficients of the previous (coarser) level to this one and
    is None on the base level.

    ``grad_op`` maps free coefficients to element gradients stacked by
    component (row ``d * n_el + e``), and ``qp_op`` maps them to values at
    the quadrature points (row ``e * n_q + q``).  Both act on a single
    coefficient vector or on an ``(n_free, k)`` block.  Their transposes,
    kept in CSR form as ``grad_op_t`` and ``qp_op_t``, assemble element
    and quadrature-point data straight into free-dof force and load
    vectors; a stored CSR transpose saves the per-call conversion that
    ``grad_op.T @`` pays.
    """

    index: int
    mesh: DomainMesh
    free: np.ndarray            # interior node indices
    free_of_node: np.ndarray    # node index -> free index or -1
    elem_measure: np.ndarray    # (n_el,)
    grad_basis: np.ndarray      # (n_el, nv, dim), gradients of local hats
    basis_at_qp: np.ndarray     # (n_q, nv), reference basis values
    qp_points: np.ndarray       # (n_el, n_q, dim)
    qp_weights: np.ndarray      # (n_el, n_q), sums to elem_measure per row
    grad_op: sp.csr_matrix      # (dim * n_el, n_free)
    grad_op_t: sp.csr_matrix    # (n_free, dim * n_el)
    qp_op: sp.csr_matrix        # (n_el * n_q, n_free)
    qp_op_t: sp.csr_matrix      # (n_free, n_el * n_q)
    prolongation: sp.csr_matrix | None

    @property
    def n_free(self) -> int:
        return len(self.free)

    @cached_property
    def jacobian_pattern(self) -> "JacobianPattern":
        """The pattern every Jacobian on this level fills; built on first use."""
        return _jacobian_pattern(self)


def _free_operator(local: np.ndarray, cells: np.ndarray, free_of_node: np.ndarray,
                   n_free: int) -> sp.csr_matrix:
    """CSR matrix whose row ``i`` puts weight ``local[i, k]`` on node ``cells[i, k]``.

    ``local`` and ``cells`` broadcast to a common (..., nv) shape whose
    leading axes are flattened into rows in C order.  Entries on boundary
    nodes are dropped, so the matrix acts on free coefficients; each row
    keeps the rest in local node order, the order of the element sums.
    """
    local, cols = np.broadcast_arrays(local, free_of_node[cells])
    nv = local.shape[-1]
    local, cols = local.reshape(-1, nv), cols.reshape(-1, nv)
    keep = cols >= 0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sp.csr_matrix((local[keep], cols[keep], indptr), shape=(len(cols), n_free))


def _operators(grad: np.ndarray, basis: np.ndarray, cells: np.ndarray,
               free_of_node: np.ndarray, n_free: int) -> tuple:
    """``grad_op`` and ``qp_op`` on the columns that ``free_of_node`` gives each node."""
    grad_op = _free_operator(np.transpose(grad, (2, 0, 1)), cells, free_of_node, n_free)
    qp_op = _free_operator(basis, cells[:, None, :], free_of_node, n_free)
    return grad_op, qp_op


# ---------------------------------------------------------------------------
# block forms on the level operators
# ---------------------------------------------------------------------------
#
# Every form below takes a coefficient block of shape (n_free, k), or data
# derived from one, and works column by column; each column's integral is
# summed in the same order as a single function's would be, so a column's
# numbers do not depend on the other columns of its block.


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[i, j] * b[i, j] for every column j of b (a may be one column).

    The products are written transposed, so that each column is summed as
    one contiguous vector, in the order a single function's sum takes.
    """
    prod = np.empty(b.shape[::-1])
    np.multiply(a.T, b.T, out=prod)
    return prod.sum(axis=1)


def _gradients(lvl: Level, coeffs: np.ndarray) -> np.ndarray:
    """Element gradients of each column, shape (dim, n_el, k)."""
    return (lvl.grad_op @ coeffs).reshape(lvl.mesh.dim, lvl.mesh.n_elements, -1)


def _qp_values(lvl: Level, coeffs: np.ndarray) -> np.ndarray:
    """Values at the quadrature points of each column, shape (n_el * n_q, k)."""
    return lvl.qp_op @ coeffs


def _grad_integral(lvl: Level, grads: np.ndarray, p: float) -> np.ndarray:
    """int |grad u|^p per column, for gradients shaped (dim, n_el, k)."""
    mag = np.sqrt((grads * grads).sum(axis=0))
    return _column_dots(lvl.elem_measure[:, None], mag**p)


def _value_integral(weights: np.ndarray, vals: np.ndarray, r: float) -> np.ndarray:
    """int |u|^r per column by quadrature, one weight per row of ``vals``."""
    return _column_dots(weights.reshape(-1, 1), np.abs(vals) ** r)


def _grad_force(lvl: Level, grads: np.ndarray, p: float) -> np.ndarray:
    """int |grad u|^{p-2} grad u . grad phi_i per column and free dof i."""
    mag = np.sqrt((grads * grads).sum(axis=0))
    coef = np.power(mag, p - 2.0, out=np.zeros_like(mag), where=mag > 0)
    flux = grads * (lvl.elem_measure[:, None] * coef)
    return lvl.grad_op_t @ flux.reshape(-1, flux.shape[-1])


def _value_load(lvl: Level, vals: np.ndarray, r: float) -> np.ndarray:
    """int |u|^{r-2} u phi_i per column and free dof i."""
    integrand = np.sign(vals) * np.abs(vals) ** (r - 1.0)
    return lvl.qp_op_t @ (lvl.qp_weights.reshape(-1, 1) * integrand)


# ---------------------------------------------------------------------------
# the Jacobian pattern of a level and the forms that fill it
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JacobianPattern:
    """CSR pattern of the free-node adjacency of a level, diagonal included.

    Columns are sorted in each row.  ``grad_slots`` and ``qp_slots`` give the
    data position of every term of :func:`_element_form` and
    :func:`_point_form`, in their layouts (nv, nv, dim, n_el) and
    (nv, nv, n_el, n_q) flattened; a term that couples a boundary node gets
    the spare position ``nnz``, which :meth:`scatter` drops.
    """

    indptr: np.ndarray
    indices: np.ndarray
    grad_slots: np.ndarray
    qp_slots: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def scatter(self, slots: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """Data on the pattern: the sum of the terms at each position, in term order."""
        return np.bincount(slots, terms.ravel(), minlength=self.nnz + 1)[:-1]


def _jacobian_pattern(lvl: Level) -> JacobianPattern:
    n = lvl.n_free
    nodes = lvl.free_of_node[lvl.mesh.cells].T  # (nv, n_el), -1 on the boundary
    rows, cols = nodes[:, None], nodes[None, :]
    coupled = (rows >= 0) & (cols >= 0)
    keys = rows * n + cols
    entries = np.unique(keys[coupled])  # row-major, so CSR order with sorted columns
    slots = np.where(coupled, np.searchsorted(entries, keys), entries.size)  # (nv, nv, n_el)
    (nv, n_el), (n_q, dim) = nodes.shape, (lvl.basis_at_qp.shape[0], lvl.mesh.dim)
    return JacobianPattern(
        indptr=np.concatenate([[0], np.cumsum(np.bincount(entries // n, minlength=n))]),
        indices=entries % n,
        grad_slots=np.broadcast_to(slots[:, :, None, :], (nv, nv, dim, n_el)).ravel(),
        qp_slots=np.broadcast_to(slots[..., None], (nv, nv, n_el, n_q)).ravel(),
    )


def _element_form(lvl: Level, blocks: np.ndarray) -> np.ndarray:
    """Pattern data of sum_e grad phi_a^T B_e grad phi_b, one (dim, dim) block per element.

    ``blocks`` is shaped (dim, dim, n_el) like the level forms' gradients.
    Each term is (grad phi_a^T B_e)_d (grad phi_b)_d; a position adds its
    terms in (d, element) order.  The element axis is innermost throughout,
    which keeps every product one long vector operation.
    """
    pat = lvl.jacobian_pattern
    grad = lvl.grad_basis.transpose(1, 2, 0)  # (nv, dim, n_el)
    left = (grad[:, :, None] * blocks).sum(axis=1)
    return pat.scatter(pat.grad_slots, left[:, None] * grad[None])


def _point_form(lvl: Level, value_weights, grad_weights) -> np.ndarray:
    """Pattern data of sum_{e,q} phi_a (s_eq phi_b + xi_eq . grad phi_b) at the quadrature points.

    ``value_weights`` s, shaped (n_el, n_q), and ``grad_weights`` xi, shaped
    (n_el, n_q, dim), already carry the quadrature weights; either may be
    None.  A position adds its terms pair of local nodes by pair, each in
    (element, point) order.
    """
    pat = lvl.jacobian_pattern
    basis = lvl.basis_at_qp.T[:, None, :]  # (nv, 1, n_q)
    parts = []  # each (nv, n_el, n_q): the derivative in phi_b at every point
    if value_weights is not None:
        parts.append(value_weights * basis)
    if grad_weights is not None:
        grad = lvl.grad_basis.transpose(1, 2, 0)[..., None]  # (nv, dim, n_el, 1)
        parts.append((grad * grad_weights.transpose(2, 0, 1)).sum(axis=1))
    return pat.scatter(pat.qp_slots, basis[:, None] * sum(parts)[None])


def _build_level(index: int, mesh: DomainMesh,
                 coarse: Level | None = None, parents: np.ndarray | None = None) -> Level:
    """Level ``index`` on ``mesh``.

    A refined mesh also takes the prolongation from the ``coarse`` level,
    read off the ``parents`` table of the refinement.
    """
    boundary = mesh.boundary_nodes()
    is_free = np.ones(mesh.n_nodes, dtype=bool)
    is_free[boundary] = False
    free = np.flatnonzero(is_free)
    free_of_node = -np.ones(mesh.n_nodes, dtype=int)
    free_of_node[free] = np.arange(len(free))

    measures = mesh.element_measures()
    basis, w = _QUADRATURE[mesh.dim]
    v = mesh.vertices[mesh.cells]  # (n_el, nv, dim)
    e = v[:, 1:] - v[:, :1]  # the edge matrix E of each cell, row k: vertex k + 1 minus vertex 0
    # the gradient of barycentric coordinate k is E^-1 times its reference
    # gradient, (-1, ..., -1) or a unit vector; inv_t holds E^-T.  The
    # points and inv_t keep the arithmetic of each dimension's own formula.
    if mesh.dim == 1:
        qp = (v[:, 0] + np.outer(measures, basis[:, 1]))[..., None]
        inv_t = 1.0 / e
    else:
        qp = np.einsum("qk,ekd->eqd", basis, v)
        adj_t = np.stack([e[:, 1, 1], -e[:, 1, 0], -e[:, 0, 1], e[:, 0, 0]], axis=1)
        inv_t = (adj_t / (2.0 * measures)[:, None]).reshape(-1, 2, 2)  # det E = 2 |cell|
    ref_grad = np.vstack([-np.ones(mesh.dim), np.eye(mesh.dim)])
    grad = np.einsum("kr,erd->ekd", ref_grad, inv_t)
    qw = np.outer(measures, w)

    grad_op, qp_op = _operators(grad, basis, mesh.cells, free_of_node, len(free))
    return Level(
        index=index,
        mesh=mesh,
        free=free,
        free_of_node=free_of_node,
        elem_measure=measures,
        grad_basis=grad,
        basis_at_qp=basis,
        qp_points=qp,
        qp_weights=qw,
        grad_op=grad_op,
        grad_op_t=grad_op.T.tocsr(),
        qp_op=qp_op,
        qp_op_t=qp_op.T.tocsr(),
        prolongation=None if coarse is None else _prolongation_matrix(parents, coarse, free),
    )


def _prolongation_matrix(parents: np.ndarray, coarse: Level, fine_free) -> sp.csr_matrix:
    """Exact interpolation of coarse P1 functions onto the refined mesh.

    Each fine node takes the mean of its two parents, so an old node takes
    its own value.
    """
    rows = np.repeat(np.arange(len(parents)), 2)
    full = sp.csr_matrix((np.full(parents.size, 0.5), (rows, parents.ravel())),
                         shape=(len(parents), coarse.mesh.n_nodes))
    # boundary coefficients are identically zero on both levels, so the
    # restriction to interior nodes loses nothing
    return full[fine_free][:, coarse.free].tocsr()


@dataclass(frozen=True, eq=False)
class SpaceHierarchy:
    """Increasing sequence of P1 spaces X_1 in X_2 in ... on nested meshes."""

    levels: tuple

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def dim(self) -> int:
        return self.levels[0].mesh.dim

    @property
    def measure(self) -> float:
        return self.levels[0].mesh.measure

    def level(self, n: int) -> Level:
        if not 1 <= n <= self.n_levels:
            raise LevelMismatchError(f"level {n} outside 1..{self.n_levels}")
        return self.levels[n - 1]

    def zero(self, n: int) -> "FEFunction":
        return FEFunction(self, n, np.zeros(self.level(n).n_free))

    def function(self, n: int, coeffs) -> "FEFunction":
        return FEFunction(self, n, np.asarray(coeffs, dtype=float))

    def interpolate(self, n: int, fn) -> "FEFunction":
        """Nodal interpolant of a callable on level n (boundary set to zero).

        ``fn`` gets the free vertices (n_free, dim) in every dimension and
        returns one value each, shaped (n_free,) or (n_free, 1), so the 1D
        ``lambda x: x * (1 - x)`` works as it is; any other size raises.
        """
        lvl = self.level(n)
        values = np.asarray(fn(lvl.mesh.vertices[lvl.free]), dtype=float)
        return FEFunction(self, n, values.reshape(lvl.n_free))


def build_hierarchy(domain: DomainMesh, levels: int) -> SpaceHierarchy:
    """Construct ``levels`` nested spaces by uniform refinement of ``domain``.

    Level 1 is the base mesh itself.  Boundary nodes never carry degrees of
    freedom, and each level's prolongation reproduces coarse functions
    exactly on the finer mesh.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if domain.dim not in (1, 2):
        raise MeshError(f"unsupported mesh dimension {domain.dim}")
    out = [_build_level(1, domain)]
    for idx in range(2, levels + 1):
        mesh, parents = _refine(out[-1].mesh)
        out.append(_build_level(idx, mesh, out[-1], parents))
    if out[-1].n_free < 1:
        raise MeshError(
            "finest level has no interior nodes; refine the base mesh or add levels"
        )
    return SpaceHierarchy(levels=tuple(out))


@dataclass(frozen=True, eq=False)
class FEFunction:
    """P1 function on one hierarchy level, zero on the Dirichlet boundary.

    ``coeffs`` holds one function, shape (n_free,), or a block of k functions
    on the same level, shape (n_free, k).  :func:`sample`,
    ``intrinsic.apply`` and ``operators.assemble_residual`` take either, and
    a single function is their k = 1 case with the block axis dropped; every
    other method and function takes one function.
    """

    hierarchy: SpaceHierarchy
    level: int
    coeffs: np.ndarray

    def __post_init__(self):
        lvl = self.hierarchy.level(self.level)
        if len(self.coeffs) != lvl.n_free:
            raise LevelMismatchError(
                f"coefficient length {len(self.coeffs)} does not match "
                f"dim(X_{self.level}) = {lvl.n_free}"
            )

    @property
    def lvl(self) -> Level:
        return self.hierarchy.level(self.level)

    @property
    def block(self) -> np.ndarray:
        """The coefficients as an (n_free, k) block; one function is k = 1."""
        return self.coeffs if self.coeffs.ndim == 2 else self.coeffs[:, None]

    def element_gradients(self) -> np.ndarray:
        """Constant gradient per element, shape (n_el, dim)."""
        return _gradients(self.lvl, self.coeffs)[..., 0].T

    def values_at_qp(self) -> np.ndarray:
        """Values at the quadrature points, shape (n_el, n_q)."""
        lvl = self.lvl
        return _qp_values(lvl, self.coeffs).reshape(lvl.qp_weights.shape)


@dataclass(frozen=True, eq=False)
class QuadratureSamples:
    """Values and gradients of a function, or of T of one, at the quadrature points of a level.

    The points and weights are the level's ``qp_points`` and ``qp_weights``.
    """

    level: int
    values: np.ndarray     # (n_el, n_q), or (k, n_el, n_q) for a block
    gradients: np.ndarray  # (n_el, n_q, dim), or (k, n_el, n_q, dim) for a block


def sample(u: FEFunction) -> QuadratureSamples:
    """Sample P1 functions at all quadrature points of their level.

    The sample axis leads: a block of k functions gives values shaped
    (k, n_el, n_q) and gradients (k, n_el, n_q, dim).  One function drops it.
    """
    lvl = u.lvl
    coeffs = u.block
    k = coeffs.shape[1]
    (n_el, n_q), dim = lvl.qp_weights.shape, lvl.mesh.dim
    values = _qp_values(lvl, coeffs).T.reshape(k, n_el, n_q)
    grads = _gradients(lvl, coeffs).transpose(2, 1, 0)[:, :, None, :]
    grads = np.broadcast_to(grads, (k, n_el, n_q, dim))
    if u.coeffs.ndim == 1:
        values, grads = values[0], grads[0]
    return QuadratureSamples(level=u.level, values=values, gradients=grads)


@dataclass(frozen=True, eq=False)
class NodalSamples:
    """P1 function given at every node, boundary included, sampled on its level.

    ``gradients`` has the layout of the level forms, (dim, n_el, 1);
    ``values`` are taken at the quadrature points, (n_el, n_q).
    """

    level: int
    gradients: np.ndarray  # (dim, n_el, 1)
    values: np.ndarray     # (n_el, n_q)


def nodal_samples(lvl: Level, nodal: np.ndarray) -> NodalSamples:
    """Sample the P1 function with the given values at every node of ``lvl``.

    It goes through the level's operators, built with every node kept.
    """
    every = np.arange(lvl.mesh.n_nodes)
    grad_op, qp_op = _operators(lvl.grad_basis, lvl.basis_at_qp, lvl.mesh.cells, every, len(every))
    return NodalSamples(
        level=lvl.index,
        gradients=(grad_op @ nodal).reshape(lvl.mesh.dim, lvl.mesh.n_elements, 1),
        values=(qp_op @ nodal).reshape(lvl.qp_weights.shape),
    )


def point_operators(lvl: Level, x: np.ndarray) -> tuple:
    """Sparse maps from free coefficients to values and gradients at the points ``x``.

    1D levels only, whose vertices increase and whose element e is [e, e + 1].
    A point at fraction t of element e weighs the element's nodes by 1 - t
    and t, and takes ``grad_op``'s row e as its gradient; a point on a node
    belongs to the element on its right, the last node to the last element.
    """
    nodes = lvl.mesh.vertices[:, 0]
    elem = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, lvl.mesh.n_elements - 1)
    t = (x - nodes[elem]) / lvl.elem_measure[elem]
    values = _free_operator(np.column_stack([1.0 - t, t]), lvl.mesh.cells[elem],
                            lvl.free_of_node, lvl.n_free)
    return values, lvl.grad_op[elem]


def prolongate(u: FEFunction, target_level: int) -> FEFunction:
    """Represent ``u`` on a finer level; the function itself is unchanged."""
    if target_level < u.level:
        raise LevelMismatchError(
            f"cannot prolongate from level {u.level} down to {target_level}"
        )
    coeffs = u.coeffs
    for n in range(u.level + 1, target_level + 1):
        coeffs = u.hierarchy.level(n).prolongation @ coeffs
    return FEFunction(u.hierarchy, target_level, coeffs)


def sine_mode(h: SpaceHierarchy, n: int, k: int = 1) -> FEFunction:
    """Interpolant on level n of the k-th Dirichlet sine mode of the bounding box [lo, hi].

    The mode is the product over the coordinates of sin(k pi (x - lo) / (hi - lo)).
    A mesh whose cells have positive measure spans every coordinate, so
    hi > lo.
    """
    vertices = h.level(n).mesh.vertices
    lo, hi = vertices.min(axis=0), vertices.max(axis=0)
    return h.interpolate(n, lambda x: np.prod(np.sin(k * np.pi * (x - lo) / (hi - lo)), axis=1))


def grad_norm_p(u: FEFunction, p: float) -> float:
    """W^{1,p} seminorm, exact for P1 since gradients are elementwise constant."""
    if p <= 1:
        raise ValueError(f"gradient norm exponent must satisfy p > 1, got {p}")
    lvl = u.lvl
    return float(_grad_integral(lvl, _gradients(lvl, u.coeffs[:, None]), p)[0] ** (1.0 / p))


def lebesgue_norm(u: FEFunction, r: float) -> float:
    """L^r norm by the level's Gauss rule (exact when the rule covers |u|^r)."""
    if r < 1:
        raise ValueError(f"Lebesgue exponent must satisfy r >= 1, got {r}")
    lvl = u.lvl
    vals = _qp_values(lvl, u.coeffs[:, None])
    return float(_value_integral(lvl.qp_weights, vals, r)[0] ** (1.0 / r))
