"""Nested piecewise-linear finite element spaces and their level operators.

Levels are produced by uniform refinement (midpoint bisection of intervals,
red refinement of triangles), so the space on every level is contained in
the next one and prolongation is exact.  P1 elements keep |grad u| constant
on each element, which makes the W^{1,p} seminorm exact for any p > 1;
Lebesgue norms are computed with a fixed Gauss rule per element.

Each level carries one set of sparse operators, from free coefficients to
element gradients and to quadrature-point values, and their transposes.
Every integral and every assembly in the package goes through them and the
block forms defined next to them: the norms and pairings, the constants'
Rayleigh quotients, and the residual and Jacobian of the Galerkin equation.

All objects are immutable after construction; reductions use a fixed
summation order, so results are deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class MeshError(ValueError):
    """A mesh failed a structural validity check."""


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

# 2-point rule, used when quad_order <= 2 is requested.
_GL2_T = np.array([0.5 * (1.0 - 1.0 / np.sqrt(3.0)), 0.5 * (1.0 + 1.0 / np.sqrt(3.0))])
_GL2_W = np.array([0.5, 0.5])

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
_TRI4_W = _TRI4_W / _TRI4_W.sum()

# Degree-2 triangle rule (3 midpoints of edges), for quad_order <= 2.
_TRI2_BARY = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
_TRI2_W = np.array([1.0, 1.0, 1.0]) / 3.0


def _interval_rule(quad_order: int):
    return (_GL2_T, _GL2_W) if quad_order <= 2 else (_GL4_T, _GL4_W)


def _triangle_rule(quad_order: int):
    return (_TRI2_BARY, _TRI2_W) if quad_order <= 2 else (_TRI4_BARY, _TRI4_W)


@dataclass(frozen=True, eq=False)
class DomainMesh:
    """Conforming mesh of a bounded domain, 1D interval or 2D triangulation.

    1D meshes store strictly increasing node coordinates; 2D meshes store a
    vertex array of shape (n, 2) and positively oriented triangles as index
    triples.  ``measure`` is the total Lebesgue measure, computed as the sum
    of element measures.
    """

    dim: int
    nodes: np.ndarray | None = None
    vertices: np.ndarray | None = None
    triangles: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.nodes) if self.dim == 1 else len(self.vertices)

    @property
    def n_elements(self) -> int:
        return len(self.nodes) - 1 if self.dim == 1 else len(self.triangles)

    @property
    def measure(self) -> float:
        return float(np.sum(self.element_measures()))

    def element_measures(self) -> np.ndarray:
        if self.dim == 1:
            return np.diff(self.nodes)
        v = self.vertices[self.triangles]
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])

    def boundary_nodes(self) -> np.ndarray:
        if self.dim == 1:
            return np.array([0, len(self.nodes) - 1])
        edges = np.sort(
            np.vstack(
                [self.triangles[:, [0, 1]], self.triangles[:, [1, 2]], self.triangles[:, [2, 0]]]
            ),
            axis=1,
        )
        uniq, counts = np.unique(edges, axis=0, return_counts=True)
        return np.unique(uniq[counts == 1])

    def refine(self) -> "DomainMesh":
        """Uniformly refine: bisect intervals, split triangles into four."""
        if self.dim == 1:
            mids = 0.5 * (self.nodes[:-1] + self.nodes[1:])
            fine = np.empty(2 * len(self.nodes) - 1)
            fine[0::2] = self.nodes
            fine[1::2] = mids
            return DomainMesh(dim=1, nodes=fine)
        verts = list(map(tuple, self.vertices))
        new_verts = [np.asarray(v, dtype=float) for v in self.vertices]
        midpoint = {}

        def mid(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint:
                midpoint[key] = len(new_verts)
                new_verts.append(0.5 * (np.asarray(verts[i]) + np.asarray(verts[j])))
            return midpoint[key]

        tris = []
        for a, b, c in self.triangles:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            tris += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        return triangle_mesh(np.array(new_verts), np.array(tris, dtype=int))

    def to_json_dict(self) -> dict:
        if self.dim == 1:
            return {"dim": 1, "nodes": [float(x) for x in self.nodes]}
        return {
            "dim": 2,
            "vertices": [[float(a), float(b)] for a, b in self.vertices],
            "triangles": [[int(i), int(j), int(k)] for i, j, k in self.triangles],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "DomainMesh":
        if obj.get("dim") == 1:
            return interval_mesh_from_nodes(np.asarray(obj["nodes"], dtype=float))
        if obj.get("dim") == 2:
            return triangle_mesh(
                np.asarray(obj["vertices"], dtype=float), np.asarray(obj["triangles"], dtype=int)
            )
        raise MeshError(f"mesh dim must be 1 or 2, got {obj.get('dim')!r}")

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "DomainMesh":
        return DomainMesh.from_json_dict(json.loads(text))


def interval_mesh_from_nodes(nodes: np.ndarray) -> DomainMesh:
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or len(nodes) < 2:
        raise MeshError("interval mesh needs at least two nodes")
    if not np.all(np.diff(nodes) > 0):
        raise MeshError("interval mesh nodes must be strictly increasing")
    return DomainMesh(dim=1, nodes=nodes)


def interval_mesh(a: float, b: float, elements: int) -> DomainMesh:
    """Uniform mesh of (a, b) with the given number of elements."""
    if not b > a:
        raise MeshError(f"interval endpoints must satisfy a < b, got ({a}, {b})")
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
    if triangles.min() < 0 or triangles.max() >= len(vertices):
        raise MeshError("triangle indices out of vertex range")
    mesh = DomainMesh(dim=2, vertices=vertices, triangles=triangles)
    areas = mesh.element_measures()
    if np.any(areas <= 0):
        bad = int(np.argmin(areas))
        raise MeshError(
            f"triangle {bad} is degenerate or negatively oriented (signed area {areas[bad]:g})"
        )
    return mesh


def unit_square_mesh() -> DomainMesh:
    """Two-triangle mesh of the unit square."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return triangle_mesh(verts, tris)


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
    elem_nodes: np.ndarray      # (n_el, nv)
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

    def full_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Nodal vector over all nodes with zeros on the boundary."""
        full = np.zeros(self.mesh.n_nodes)
        full[self.free] = coeffs
        return full


def _free_operator(local: np.ndarray, elem_nodes: np.ndarray, free_of_node: np.ndarray,
                   n_free: int) -> sp.csr_matrix:
    """CSR matrix whose row ``i`` puts weight ``local[i, k]`` on node ``elem_nodes[i, k]``.

    ``local`` and ``elem_nodes`` broadcast to a common (..., nv) shape whose
    leading axes are flattened into rows in C order.  Entries on boundary
    nodes are dropped, so the matrix acts on free coefficients; each row
    keeps the rest in local node order, the order of the element sums.
    """
    local, cols = np.broadcast_arrays(local, free_of_node[elem_nodes])
    nv = local.shape[-1]
    local, cols = local.reshape(-1, nv), cols.reshape(-1, nv)
    keep = cols >= 0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sp.csr_matrix((local[keep], cols[keep], indptr), shape=(len(cols), n_free))


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


def _build_level(index: int, mesh: DomainMesh, quad_order: int, prolongation) -> Level:
    boundary = mesh.boundary_nodes()
    is_free = np.ones(mesh.n_nodes, dtype=bool)
    is_free[boundary] = False
    free = np.flatnonzero(is_free)
    free_of_node = -np.ones(mesh.n_nodes, dtype=int)
    free_of_node[free] = np.arange(len(free))

    measures = mesh.element_measures()
    if mesh.dim == 1:
        t, w = _interval_rule(quad_order)
        elem_nodes = np.column_stack([np.arange(mesh.n_elements), np.arange(1, mesh.n_nodes)])
        x0 = mesh.nodes[:-1]
        h = measures
        qp = (x0[:, None] + np.outer(h, t))[:, :, None]
        qw = np.outer(h, w)
        basis = np.column_stack([1.0 - t, t])
        grad = np.empty((mesh.n_elements, 2, 1))
        grad[:, 0, 0] = -1.0 / h
        grad[:, 1, 0] = 1.0 / h
    else:
        bary, w = _triangle_rule(quad_order)
        elem_nodes = mesh.triangles
        v = mesh.vertices[mesh.triangles]  # (n_el, 3, 2)
        qp = np.einsum("qk,ekd->eqd", bary, v)
        qw = np.outer(measures, w)
        basis = bary
        # gradients of barycentric coordinates: rows of inv(B)^T applied to
        # reference gradients (-1,-1), (1,0), (0,1)
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        inv_t = np.empty((mesh.n_elements, 2, 2))
        inv_t[:, 0, 0] = e2[:, 1] / det
        inv_t[:, 0, 1] = -e1[:, 1] / det
        inv_t[:, 1, 0] = -e2[:, 0] / det
        inv_t[:, 1, 1] = e1[:, 0] / det
        ref_grad = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        grad = np.einsum("kr,erd->ekd", ref_grad, np.transpose(inv_t, (0, 2, 1)))

    n_free = len(free)
    grad_op = _free_operator(np.transpose(grad, (2, 0, 1)), elem_nodes, free_of_node, n_free)
    qp_op = _free_operator(basis, elem_nodes[:, None, :], free_of_node, n_free)
    return Level(
        index=index,
        mesh=mesh,
        free=free,
        free_of_node=free_of_node,
        elem_nodes=elem_nodes,
        elem_measure=measures,
        grad_basis=grad,
        basis_at_qp=basis,
        qp_points=qp,
        qp_weights=qw,
        grad_op=grad_op,
        grad_op_t=grad_op.T.tocsr(),
        qp_op=qp_op,
        qp_op_t=qp_op.T.tocsr(),
        prolongation=prolongation,
    )


def _prolongation_matrix(coarse: DomainMesh, fine: DomainMesh,
                         coarse_free, fine_free) -> sp.csr_matrix:
    """Exact interpolation of coarse P1 functions onto the refined mesh."""
    if coarse.dim == 1:
        nc = coarse.n_nodes
        rows, cols, vals = [], [], []
        for i in range(nc):
            rows.append(2 * i)
            cols.append(i)
            vals.append(1.0)
        for i in range(nc - 1):
            rows += [2 * i + 1, 2 * i + 1]
            cols += [i, i + 1]
            vals += [0.5, 0.5]
        full = sp.csr_matrix((vals, (rows, cols)), shape=(fine.n_nodes, nc))
    else:
        nc = coarse.n_nodes
        rows = list(range(nc))
        cols = list(range(nc))
        vals = [1.0] * nc
        edges = np.sort(
            np.vstack(
                [coarse.triangles[:, [0, 1]], coarse.triangles[:, [1, 2]], coarse.triangles[:, [2, 0]]]
            ),
            axis=1,
        )
        uniq = np.unique(edges, axis=0)
        # refine() assigns midpoint indices in first-encounter order; rebuild
        # the same mapping to stay consistent
        midpoint = {}
        counter = nc
        for a, b, c in coarse.triangles:
            for i, j in ((a, b), (b, c), (c, a)):
                key = (min(i, j), max(i, j))
                if key not in midpoint:
                    midpoint[key] = counter
                    counter += 1
        assert counter == fine.n_nodes and len(midpoint) == len(uniq)
        for (i, j), m in midpoint.items():
            rows += [m, m]
            cols += [i, j]
            vals += [0.5, 0.5]
        full = sp.csr_matrix((vals, (rows, cols)), shape=(fine.n_nodes, nc))
    # boundary coefficients are identically zero on both levels, so the
    # restriction to interior nodes loses nothing
    return full[fine_free][:, coarse_free].tocsr()


@dataclass(frozen=True, eq=False)
class SpaceHierarchy:
    """Increasing sequence of P1 spaces X_1 in X_2 in ... on nested meshes."""

    levels: tuple
    quad_order: int

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

    def dims(self):
        return [lvl.n_free for lvl in self.levels]

    def zero(self, n: int) -> "FEFunction":
        return FEFunction(self, n, np.zeros(self.level(n).n_free))

    def function(self, n: int, coeffs) -> "FEFunction":
        return FEFunction(self, n, np.asarray(coeffs, dtype=float))

    def interpolate(self, n: int, fn) -> "FEFunction":
        """Nodal interpolant of a callable on level n (boundary set to zero)."""
        lvl = self.level(n)
        if self.dim == 1:
            pts = lvl.mesh.nodes[lvl.free]
        else:
            pts = lvl.mesh.vertices[lvl.free]
        return FEFunction(self, n, np.asarray(fn(pts), dtype=float))


def build_hierarchy(domain: DomainMesh, levels: int, quad_order: int = 4) -> SpaceHierarchy:
    """Construct ``levels`` nested spaces by uniform refinement of ``domain``.

    Level 1 is the base mesh itself.  Boundary nodes never carry degrees of
    freedom, and each level's prolongation reproduces coarse functions
    exactly on the finer mesh.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if quad_order < 1:
        raise ValueError(f"quad_order must be >= 1, got {quad_order}")
    if domain.dim not in (1, 2):
        raise MeshError(f"unsupported mesh dimension {domain.dim}")
    out = []
    mesh = domain
    prev = None
    for idx in range(1, levels + 1):
        if prev is None:
            lvl = _build_level(idx, mesh, quad_order, None)
        else:
            fine_mesh = prev.mesh.refine()
            boundary = fine_mesh.boundary_nodes()
            is_free = np.ones(fine_mesh.n_nodes, dtype=bool)
            is_free[boundary] = False
            fine_free = np.flatnonzero(is_free)
            P = _prolongation_matrix(prev.mesh, fine_mesh, prev.free, fine_free)
            lvl = _build_level(idx, fine_mesh, quad_order, P)
        out.append(lvl)
        prev = lvl
        mesh = lvl.mesh
    if out[-1].n_free < 1:
        raise MeshError(
            "finest level has no interior nodes; refine the base mesh or add levels"
        )
    return SpaceHierarchy(levels=tuple(out), quad_order=quad_order)


@dataclass(frozen=True, eq=False)
class FEFunction:
    """P1 function on one hierarchy level, zero on the Dirichlet boundary."""

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

    def full_values(self) -> np.ndarray:
        return self.lvl.full_values(self.coeffs)

    def element_gradients(self) -> np.ndarray:
        """Constant gradient per element, shape (n_el, dim)."""
        return _gradients(self.lvl, self.coeffs)[..., 0].T

    def values_at_qp(self) -> np.ndarray:
        """Values at the quadrature points, shape (n_el, n_q)."""
        lvl = self.lvl
        return _qp_values(lvl, self.coeffs).reshape(lvl.qp_weights.shape)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Point evaluation (1D only), zero outside the domain."""
        lvl = self.lvl
        if self.hierarchy.dim != 1:
            raise NotImplementedError("point evaluation is implemented for 1D meshes")
        nodes = lvl.mesh.nodes
        full = self.full_values()
        return np.interp(np.asarray(x, dtype=float), nodes, full, left=0.0, right=0.0)


@dataclass(frozen=True, eq=False)
class QuadratureSamples:
    """Values and gradients at the quadrature points of one level."""

    level: int
    points: np.ndarray     # (n_el, n_q, dim)
    weights: np.ndarray    # (n_el, n_q)
    values: np.ndarray     # (n_el, n_q)
    gradients: np.ndarray  # (n_el, n_q, dim)

    def value_norm(self, r: float) -> float:
        if r < 1:
            raise ValueError(f"Lebesgue exponent must satisfy r >= 1, got {r}")
        return float(_value_integral(self.weights, self.values.reshape(-1, 1), r)[0] ** (1.0 / r))

    def grad_norm(self, p: float) -> float:
        mag = np.sqrt(np.sum(self.gradients**2, axis=-1))
        return float(_value_integral(self.weights, mag.reshape(-1, 1), p)[0] ** (1.0 / p))


def sample(u: FEFunction) -> QuadratureSamples:
    """Sample a P1 function at all quadrature points of its level."""
    lvl = u.lvl
    grads = u.element_gradients()
    n_q = lvl.basis_at_qp.shape[0]
    return QuadratureSamples(
        level=u.level,
        points=lvl.qp_points,
        weights=lvl.qp_weights,
        values=u.values_at_qp(),
        gradients=np.broadcast_to(grads[:, None, :], (len(grads), n_q, grads.shape[1])).copy(),
    )


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
