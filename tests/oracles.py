"""Independent oracles used by the test suite.

Everything here is deliberately decoupled from the package internals:
the eigenvalue oracle integrates the ODE and bisects, the zero-finding
oracle scans a grid, and derivative checks use plain finite differences.
The assembly references loop over elements with the raw tables of a level
(``elem_nodes``, ``grad_basis``, ``basis_at_qp``), scatter into all nodes
and only then restrict to the free ones, so they share nothing with the
level operators they check.
"""

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp


def shooting_endpoint(lam: float, p: float) -> float:
    """u(1) for the radial system of the 1D p-Laplacian eigenproblem.

    Solves (|u'|^{p-2} u')' + lam |u|^{p-2} u = 0 with u(0) = 0, u'(0) = 1
    via the flux variable z = |u'|^{p-2} u'.
    """
    pp = p / (p - 1.0)

    def rhs(x, y):
        u, z = y
        return [np.sign(z) * np.abs(z) ** (pp - 1.0),
                -lam * np.sign(u) * np.abs(u) ** (p - 1.0)]

    sol = solve_ivp(rhs, (0.0, 1.0), [0.0, 1.0], rtol=1e-10, atol=1e-12)
    return float(sol.y[0, -1])


def lambda1_shooting(p: float) -> float:
    """First Dirichlet eigenvalue on (0, 1) by scan plus bisection."""
    lo = 1.0
    assert shooting_endpoint(lo, p) > 0
    hi = lo
    for _ in range(200):
        hi *= 1.25
        if shooting_endpoint(hi, p) < 0:
            break
        lo = hi
    else:
        raise RuntimeError("no sign change found while scanning the eigenvalue")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if shooting_endpoint(mid, p) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_monotone_map(rng: np.random.Generator, dim: int, R: float):
    """Monotone map A v + c ||v||^2 v - b with its unique zero inside the ball.

    Eigenvalues of A live in [0.5, 2] and ||b|| <= 0.4 * lambda_min * R, so
    <F(v), v> >= lambda_min R^2 + c R^4 - ||b|| R > 0 on the sphere and the
    zero is unique by strict monotonicity.
    """
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = rng.uniform(0.5, 2.0, size=dim)
    A = Q @ np.diag(eigs) @ Q.T
    lam_min = eigs.min()
    b = rng.standard_normal(dim)
    b *= 0.4 * lam_min * R / max(np.linalg.norm(b), 1e-30)
    c = 0.1

    def F(v):
        v = np.atleast_2d(v)
        out = v @ A.T + c * np.sum(v**2, axis=1, keepdims=True) * v - b
        return out[0] if out.shape[0] == 1 else out

    return F, A, b, c


def grid_search_zero(F, R: float, dim: int, step: float = 1e-3) -> np.ndarray:
    """Grid argmin of ||F||_inf over the cube [-R, R]^dim.

    Two dimensions are scanned exhaustively at the requested step; three
    dimensions use a coarse pass at ten times the step followed by an
    exhaustive pass at the requested step around the coarse minimiser.
    """
    def batch_eval(points):
        vals = F(points)
        return np.max(np.abs(vals), axis=1)

    if dim == 2:
        axis = np.arange(-R, R + step / 2, step)
        best_val, best_pt = np.inf, None
        # scan row blocks to bound memory
        block = 256
        for i0 in range(0, len(axis), block):
            xs = axis[i0:i0 + block]
            X, Y = np.meshgrid(xs, axis, indexing="ij")
            pts = np.column_stack([X.ravel(), Y.ravel()])
            vals = batch_eval(pts)
            j = int(np.argmin(vals))
            if vals[j] < best_val:
                best_val, best_pt = vals[j], pts[j]
        return best_pt
    if dim == 3:
        coarse = 10 * step
        axis = np.arange(-R, R + coarse / 2, coarse)
        best_val, best_pt = np.inf, None
        for x in axis:
            Y, Z = np.meshgrid(axis, axis, indexing="ij")
            pts = np.column_stack([np.full(Y.size, x), Y.ravel(), Z.ravel()])
            vals = batch_eval(pts)
            j = int(np.argmin(vals))
            if vals[j] < best_val:
                best_val, best_pt = vals[j], pts[j]
        lo = best_pt - 3 * coarse
        hi = best_pt + 3 * coarse
        axes = [np.arange(lo[d], hi[d] + step / 2, step) for d in range(3)]
        best_val, fine_pt = np.inf, best_pt
        for x in axes[0]:
            Y, Z = np.meshgrid(axes[1], axes[2], indexing="ij")
            pts = np.column_stack([np.full(Y.size, x), Y.ravel(), Z.ravel()])
            vals = batch_eval(pts)
            j = int(np.argmin(vals))
            if vals[j] < best_val:
                best_val, fine_pt = vals[j], pts[j]
        return fine_pt
    raise ValueError(f"grid search oracle supports dims 2 and 3, got {dim}")


# ---------------------------------------------------------------------------
# element-loop references for the level assembly
# ---------------------------------------------------------------------------


def element_gradients(lvl, coeffs) -> np.ndarray:
    """Constant gradient per element, shape (n_el, dim)."""
    nodal = lvl.full_values(coeffs)[lvl.elem_nodes]
    return np.einsum("ek,ekd->ed", nodal, lvl.grad_basis)


def values_at_qp(lvl, coeffs) -> np.ndarray:
    """Values at the quadrature points, shape (n_el, n_q)."""
    nodal = lvl.full_values(coeffs)[lvl.elem_nodes]
    return np.einsum("ek,qk->eq", nodal, lvl.basis_at_qp)


def gradient_force(u_grads: np.ndarray, r: float, lvl) -> np.ndarray:
    """Nodal assembly of sum_e |g|^{r-2} g . grad(phi_i) |e| over all nodes."""
    mag = np.sqrt(np.sum(u_grads**2, axis=-1))
    if r == 2:
        coef = np.ones_like(mag)
    else:
        with np.errstate(divide="ignore"):
            coef = np.where(mag > 0, mag ** (r - 2.0), 0.0)
    contrib = np.einsum("e,ekd,ed->ek", lvl.elem_measure * coef, lvl.grad_basis, u_grads)
    out = np.zeros(lvl.mesh.n_nodes)
    np.add.at(out, lvl.elem_nodes, contrib)
    return out


def load_vector(values_at_qp: np.ndarray, lvl) -> np.ndarray:
    """Nodal assembly of int values * phi_i dx."""
    contrib = np.einsum("eq,qk->ek", lvl.qp_weights * values_at_qp, lvl.basis_at_qp)
    out = np.zeros(lvl.mesh.n_nodes)
    np.add.at(out, lvl.elem_nodes, contrib)
    return out


def _element_matrix(block: np.ndarray, lvl) -> sp.csr_matrix:
    nv = lvl.elem_nodes.shape[1]
    rows = np.repeat(lvl.elem_nodes, nv, axis=1).ravel()
    cols = np.tile(lvl.elem_nodes, (1, nv)).ravel()
    n = lvl.mesh.n_nodes
    return sp.coo_matrix((block.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def p_part_jacobian(g: np.ndarray, r: float, eps: float, lvl) -> sp.csr_matrix:
    """Derivative of the r-Laplacian force over all nodes, regularised by eps.

    Uses the coefficient (|g|^2 + eps^2)^{(r-2)/2}; the rank-one term carries
    (r-2)(|g|^2 + eps^2)^{(r-4)/2} g g^T.
    """
    m2 = np.sum(g**2, axis=-1) + eps**2
    if r == 2:
        c0 = np.ones_like(m2)
        c1 = np.zeros_like(m2)
    else:
        c0 = m2 ** ((r - 2.0) / 2.0)
        with np.errstate(divide="ignore"):
            c1 = np.where(m2 > 0, (r - 2.0) * m2 ** ((r - 4.0) / 2.0), 0.0)
    gdphi = np.einsum("ekd,ed->ek", lvl.grad_basis, g)
    block = (
        c1[:, None, None] * gdphi[:, :, None] * gdphi[:, None, :]
        + c0[:, None, None] * np.einsum("ekd,eld->ekl", lvl.grad_basis, lvl.grad_basis)
    ) * lvl.elem_measure[:, None, None]
    return _element_matrix(block, lvl)


def f_part_jacobian(f, T_image, lvl) -> sp.csr_matrix:
    """Derivative of the load over all nodes, f differentiated through (s, xi)."""
    x = lvl.qp_points[..., 0] if lvl.mesh.dim == 1 else lvl.qp_points
    xi = T_image.gradients[..., 0] if lvl.mesh.dim == 1 else T_image.gradients
    n = lvl.mesh.n_nodes
    J = sp.csr_matrix((n, n))
    if f.d_s is not None:
        fs = np.asarray(f.d_s(x, T_image.values, xi), dtype=float)
        block = np.einsum("eq,qk,ql->ekl", lvl.qp_weights * fs, lvl.basis_at_qp, lvl.basis_at_qp)
        J = J + _element_matrix(block, lvl)
    if f.d_xi is not None:
        fxi = np.asarray(f.d_xi(x, T_image.values, xi), dtype=float)
        if lvl.mesh.dim == 1:
            fxi = fxi[..., None]
        # columns see grad(phi_l), constant per element; rows see phi_k at qp
        block = np.einsum("eqd,qk,eld->ekl", lvl.qp_weights[..., None] * fxi,
                          lvl.basis_at_qp, lvl.grad_basis)
        J = J + _element_matrix(block, lvl)
    return J


def _total_gradients(u, lift) -> np.ndarray:
    g = element_gradients(u.lvl, u.coeffs)
    if lift is not None:
        nodal = lift.nodal[u.lvl.elem_nodes]
        g = g + np.einsum("ek,ekd->ed", nodal, u.lvl.grad_basis)
    return g


def galerkin_residual(u, T_image, f, p: float, q: float, lift=None) -> np.ndarray:
    """Free entries of the all-node residual force_p - force_q - load."""
    lvl = u.lvl
    g = _total_gradients(u, lift)
    x = lvl.qp_points[..., 0] if lvl.mesh.dim == 1 else lvl.qp_points
    xi = T_image.gradients[..., 0] if lvl.mesh.dim == 1 else T_image.gradients
    fvals = np.asarray(f(x, T_image.values, xi), dtype=float)
    nodal = gradient_force(g, p, lvl) - gradient_force(g, q, lvl) - load_vector(fvals, lvl)
    return nodal[lvl.free]


def galerkin_jacobian(u, T_image, f, p: float, q: float, eps: float = 0.0,
                      lift=None) -> np.ndarray:
    """Free block of the all-node Jacobian, f differentiated, as a dense array."""
    lvl = u.lvl
    g = _total_gradients(u, lift)
    J = p_part_jacobian(g, p, eps, lvl) - p_part_jacobian(g, q, eps, lvl)
    J = J - f_part_jacobian(f, T_image, lvl)
    return J[lvl.free][:, lvl.free].toarray()
