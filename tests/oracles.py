"""Independent oracles used by the test suite.

Everything here is deliberately decoupled from the package internals:
the eigenvalue oracle integrates the ODE and bisects, the zero-finding
oracle scans a grid, the safeguard radius is bracketed for Brent's
method, and derivative checks use plain finite differences.
The links of the existence proof (the certified growth of T and the
Hoelder bound of the convection functional) are evaluated on trial
functions by quadrature sums of their own.
The assembly references loop over elements with the raw tables of a level
(``mesh.cells``, ``grad_basis``, ``basis_at_qp``), scatter into all nodes
and only then restrict to the free ones, so they share nothing with the
level operators they check.  The convolution reference forms its whole
weight matrix and reads P1 functions by np.interp of their nodal vectors.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.optimize import brentq


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


def lambda1_closed_form(p: float, length: float = 1.0) -> float:
    """First Dirichlet eigenvalue on an interval: (p-1) (pi_p / L)^p.

    pi_p = 2 pi / (p sin(pi / p)) (Lindqvist 1995); p = 2 gives (pi / L)^2.
    """
    pi_p = 2.0 * np.pi / (p * np.sin(np.pi / p))
    return (p - 1.0) * (pi_p / length) ** p


def full_csr(M) -> sp.csr_matrix:
    """The dense matrix M as CSR storing every entry, zeros included."""
    M = np.asarray(M, dtype=float)
    rows, cols = M.shape
    return sp.csr_matrix((M.ravel(), np.tile(np.arange(cols), rows),
                          np.arange(0, rows * cols + 1, cols)), shape=M.shape)


def pattern_csr(pattern, data) -> sp.csr_matrix:
    """The square CSR matrix with ``data`` on a pattern with ``indptr`` and ``indices``."""
    n = len(pattern.indptr) - 1
    return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=(n, n))


def random_monotone_map(rng: np.random.Generator, dim: int, R: float):
    """Monotone map A v + c ||v||^2 v - b with its unique zero inside the ball.

    Eigenvalues of A live in [0.5, 2] and ||b|| <= 0.4 * lambda_min * R, so
    <F(v), v> >= lambda_min R^2 + c R^4 - ||b|| R > 0 on the sphere and the
    zero is unique by strict monotonicity.  Returns F, its Jacobian
    A + c (||v||^2 I + 2 v v^T) as a dense matrix, and A, b, c.
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

    def jac(v):
        return A + c * (float(v @ v) * np.eye(dim) + 2.0 * np.outer(v, v))

    return F, jac, A, b, c


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


def safeguard_terms(t, kappa: float, omega_measure: float, p: float, q: float, c0: float):
    """The terms (1-kappa) t^{p-q}, w and c0 t^{1-q} of g(t) / t^{q-1}.

    g(t) = (1-kappa) t^{p-1} - w t^{q-1} - c0 with w = |Omega|^{(p-q)/p} is
    the safeguard polynomial.  Divided by t^{q-1} it keeps its sign on t > 0,
    increases in t, and stays finite near roots whose t^{p-1} overflows.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        return ((1.0 - kappa) * t ** (p - q), omega_measure ** ((p - q) / p),
                c0 * t ** (1.0 - q))


def safeguard_root(kappa: float, omega_measure: float, p: float, q: float, c0: float) -> float:
    """Largest root of the safeguard polynomial by Brent's method; inf past the float range.

    Doubling from t = 1 and then halving brackets the one positive root of
    the increasing g(t) / t^{q-1}.
    """
    def quotient(t):
        lead, w, tail = safeguard_terms(t, kappa, omega_measure, p, q, c0)
        return float(lead - w - tail)

    hi = 1.0
    while quotient(hi) <= 0:
        hi *= 2.0
    if math.isinf(hi):
        return math.inf
    lo = hi / 2.0
    while quotient(lo) > 0:
        lo /= 2.0
    return brentq(quotient, lo, hi, xtol=np.finfo(float).tiny, rtol=4 * np.finfo(float).eps)


# ---------------------------------------------------------------------------
# dictionary-based references for the refinement
# ---------------------------------------------------------------------------


def refine_triangles(vertices: np.ndarray, triangles: np.ndarray) -> tuple:
    """Red refinement, new vertices numbered by a dictionary of edges.

    Each edge gets the next free index the first time a triangle, taken in
    order with its edges ab, bc, ca, meets it.  Returns the vertices, the
    triangles and the edge dictionary {(i, j): midpoint index, i < j}.
    """
    new_verts = [np.asarray(v, dtype=float) for v in vertices]
    midpoint = {}

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint:
            midpoint[key] = len(new_verts)
            new_verts.append(0.5 * (vertices[i] + vertices[j]))
        return midpoint[key]

    tris = []
    for a, b, c in triangles:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        tris += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
    return np.array(new_verts), np.array(tris, dtype=int), midpoint


def prolongation(coarse, fine) -> sp.csr_matrix:
    """Interpolation of coarse P1 functions onto the refined mesh, free rows and columns.

    ``coarse`` and ``fine`` are consecutive levels; old nodes copy their
    value, new ones average the ends of their edge.
    """
    nc = coarse.mesh.n_nodes
    if coarse.mesh.dim == 1:
        rows = [2 * i for i in range(nc)]
        pairs = {(i, i + 1): 2 * i + 1 for i in range(nc - 1)}
    else:
        rows = list(range(nc))
        pairs = refine_triangles(coarse.mesh.vertices, coarse.mesh.cells)[2]
    cols, vals = list(range(nc)), [1.0] * nc
    for (i, j), m in pairs.items():
        rows += [m, m]
        cols += [i, j]
        vals += [0.5, 0.5]
    full = sp.csr_matrix((vals, (rows, cols)), shape=(fine.mesh.n_nodes, nc))
    return full[fine.free][:, coarse.free].tocsr()


# ---------------------------------------------------------------------------
# element-loop references for the level assembly
# ---------------------------------------------------------------------------


def full_values(lvl, coeffs) -> np.ndarray:
    """Nodal vector over all nodes of a level with zeros on the boundary."""
    full = np.zeros(lvl.mesh.n_nodes)
    full[lvl.free] = coeffs
    return full


def nodal_element_gradients(lvl, nodal) -> np.ndarray:
    """Constant gradient per element of a P1 function given at every node, (n_el, dim)."""
    return np.einsum("ek,ekd->ed", nodal[lvl.mesh.cells], lvl.grad_basis)


def element_gradients(lvl, coeffs) -> np.ndarray:
    """Constant gradient per element, shape (n_el, dim)."""
    return nodal_element_gradients(lvl, full_values(lvl, coeffs))


def nodal_values_at_qp(lvl, nodal) -> np.ndarray:
    """Values at the quadrature points of a P1 function given at every node, (n_el, n_q)."""
    return np.einsum("ek,qk->eq", nodal[lvl.mesh.cells], lvl.basis_at_qp)


def values_at_qp(lvl, coeffs) -> np.ndarray:
    """Values at the quadrature points, shape (n_el, n_q)."""
    return nodal_values_at_qp(lvl, full_values(lvl, coeffs))


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
    np.add.at(out, lvl.mesh.cells, contrib)
    return out


def load_vector(values_at_qp: np.ndarray, lvl) -> np.ndarray:
    """Nodal assembly of int values * phi_i dx."""
    contrib = np.einsum("eq,qk->ek", lvl.qp_weights * values_at_qp, lvl.basis_at_qp)
    out = np.zeros(lvl.mesh.n_nodes)
    np.add.at(out, lvl.mesh.cells, contrib)
    return out


def kernel_antiderivative(kernel, t: np.ndarray) -> np.ndarray:
    """P(t) = integral of the kernel over (-inf, t], exact per shape.

    Box and hat are closed forms.  The cubic B-spline on four pieces of width
    h is sum_k c_k (t - t_k)_+^4 / 4! with knots t_k = -s + k h and
    c_k = scale (-1)^k C(4, k) / h^4, summed at t clipped to the support.
    All keep the precision of a long double ``t``.
    """
    t = np.asarray(t)
    t = t.astype(np.result_type(t, 1.0), copy=False)
    s = kernel.support_radius
    if kernel.shape == "box":
        return kernel.scale * np.clip((t + s) / (2.0 * s), 0.0, 1.0)
    if kernel.shape == "hat":
        tc = np.clip(t, -s, s)
        left = 0.5 * kernel.scale * (1.0 + tc / s) ** 2
        right = kernel.scale - 0.5 * kernel.scale * (1.0 - tc / s) ** 2
        return np.where(tc <= 0.0, left, right)
    assert kernel.shape == "cubic_bspline", kernel.shape
    h = 2.0 * s / 4
    tc = np.clip(t, -s, s)
    # squared twice: a long double ** 4 is far slower
    terms = [(-1) ** k * math.comb(4, k) * (np.maximum(tc - (-s + k * h), 0.0) ** 2) ** 2
             for k in range(5)]
    return kernel.scale / h**4 * sum(terms) / math.factorial(4)


def convolution_terms(T, lvl, coeffs, x) -> tuple:
    """(W, vals, slopes) of product integration for each column of an (n_free, k) block.

    The cells are those a convolution operator uses on a 1D level.  W is the
    whole weight matrix from differences of :func:`kernel_antiderivative` at
    the cell edges, formed in extended precision: in double each entry
    carries an absolute error of about eps times the kernel's mass, and the
    O(1/h) slopes of a rough u carry that past 1e-13 of (rho * u') on fine
    levels.
    vals is u at the cell midpoints by np.interp of its nodal vector, slopes
    u' as the slope of the element holding each midpoint; both (m, k).
    """
    nodes = lvl.mesh.vertices[:, 0]
    a, b = nodes[0], nodes[-1]
    h_min = np.min(np.diff(nodes))
    target = min(h_min, 2.0 * T.kernel.support_radius) / max(1, T.refine_factor)
    m = max(1, int(round((b - a) / (h_min / max(1, int(np.ceil(h_min / target)))))))
    edges = a + (b - a) * np.arange(m + 1) / m
    mid = 0.5 * (edges[:-1] + edges[1:])
    x = np.asarray(x, dtype=np.longdouble).reshape(-1, 1)
    A = kernel_antiderivative(T.kernel, x - edges.astype(np.longdouble)[None, :])
    W = A[:, :-1] - A[:, 1:]
    elem = np.clip(np.searchsorted(nodes, mid, side="right") - 1, 0, len(nodes) - 2)
    vals, slopes = [], []
    for c in coeffs.T:
        full = full_values(lvl, c)
        vals.append(np.interp(mid, nodes, full))
        slopes.append((np.diff(full) / np.diff(nodes))[elem])
    return W, np.column_stack(vals), np.column_stack(slopes)


def convolution_reference(T, lvl, coeffs, x) -> tuple:
    """(rho * u)(x) and (rho * u')(x) for each column of an (n_free, k) block.

    The products of :func:`convolution_terms`; two (len(x), k) arrays.
    """
    W, vals, slopes = convolution_terms(T, lvl, coeffs, x)
    return (W @ vals).astype(float), (W @ slopes).astype(float)


def _element_matrix(block: np.ndarray, lvl) -> sp.csr_matrix:
    nv = lvl.mesh.cells.shape[1]
    rows = np.repeat(lvl.mesh.cells, nv, axis=1).ravel()
    cols = np.tile(lvl.mesh.cells, (1, nv)).ravel()
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
    x, xi = lvl.qp_points, T_image.gradients
    n = lvl.mesh.n_nodes
    J = sp.csr_matrix((n, n))
    if f.d_s is not None:
        fs = np.asarray(f.d_s(x, T_image.values, xi), dtype=float)
        block = np.einsum("eq,qk,ql->ekl", lvl.qp_weights * fs, lvl.basis_at_qp, lvl.basis_at_qp)
        J = J + _element_matrix(block, lvl)
    if f.d_xi is not None:
        fxi = np.asarray(f.d_xi(x, T_image.values, xi), dtype=float)
        # columns see grad(phi_l), constant per element; rows see phi_k at qp
        block = np.einsum("eqd,qk,eld->ekl", lvl.qp_weights[..., None] * fxi,
                          lvl.basis_at_qp, lvl.grad_basis)
        J = J + _element_matrix(block, lvl)
    return J


def _total_gradients(u, lift_nodal) -> np.ndarray:
    g = element_gradients(u.lvl, u.coeffs)
    if lift_nodal is not None:
        g = g + nodal_element_gradients(u.lvl, lift_nodal)
    return g


def galerkin_residual(u, T_image, f, p: float, q: float, lift_nodal=None) -> np.ndarray:
    """Free entries of the all-node residual force_p - force_q - load.

    ``lift_nodal`` holds the lift's values at every node, boundary included.
    """
    lvl = u.lvl
    g = _total_gradients(u, lift_nodal)
    fvals = np.asarray(f(lvl.qp_points, T_image.values, T_image.gradients), dtype=float)
    nodal = gradient_force(g, p, lvl) - gradient_force(g, q, lvl) - load_vector(fvals, lvl)
    return nodal[lvl.free]


def galerkin_jacobian(u, T_image, f, p: float, q: float, eps: float = 0.0,
                      lift_nodal=None) -> np.ndarray:
    """Free block of the all-node Jacobian, f differentiated, as a dense array."""
    lvl = u.lvl
    g = _total_gradients(u, lift_nodal)
    J = p_part_jacobian(g, p, eps, lvl) - p_part_jacobian(g, q, eps, lvl)
    J = J - f_part_jacobian(f, T_image, lvl)
    return J[lvl.free][:, lvl.free].toarray()


# ---------------------------------------------------------------------------
# per-sample reference for the block sphere certificate
# ---------------------------------------------------------------------------


def sphere_pairings_loop(inst, n: int, R: float, n_samples: int, seed: int) -> np.ndarray:
    """<A(v), v> at the sphere samples, evaluated one sample at a time.

    Draws the same seeded stream as ``solver.sphere_certificate`` one
    coefficient vector at a time, and takes one norm, one application of T
    and one single-function residual per sample; samples of zero norm are
    skipped.
    """
    from competefem.discretization import grad_norm_p, sample
    from competefem.intrinsic import apply, lift_on
    from competefem.operators import assemble_residual

    h = inst.hierarchy
    lvl = h.level(n)
    f = inst.convection
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 929, int(n))))
    lift = lift_on(inst.operator, h, n) if inst.operator.kind == "boundary_lift" else None
    out = []
    for _ in range(n_samples):
        c = rng.standard_normal(lvl.n_free)
        g = grad_norm_p(h.function(n, c), inst.p)
        if g == 0:
            continue
        v = h.function(n, c * (R / g))
        img = apply(inst.operator, v) if f.solution_dependent else sample(v)
        out.append(float(assemble_residual(v, img, f, inst.p, inst.q, lift=lift) @ v.coeffs))
    return np.array(out)


# ---------------------------------------------------------------------------
# links of the existence proof on trial functions
# ---------------------------------------------------------------------------


def samples_value_norm(lvl, T_image, r: float) -> np.ndarray:
    """||s||_r of samples at a level's quadrature points; one per sample of a block."""
    integrand = lvl.qp_weights * np.abs(T_image.values) ** r
    return np.sum(integrand, axis=(-2, -1)) ** (1.0 / r)


def samples_grad_norm(lvl, T_image, p: float) -> np.ndarray:
    """||xi||_p of gradient samples at a level's quadrature points; one per sample of a block."""
    mag = np.sqrt(np.sum(T_image.gradients**2, axis=-1))
    return np.sum(lvl.qp_weights * mag**p, axis=(-2, -1)) ** (1.0 / p)


def grad_norms(lvl, block: np.ndarray, p: float) -> np.ndarray:
    """||grad u||_p of each column of an (n_free, k) block, element by element."""
    return np.array([np.sum(lvl.elem_measure
                            * np.linalg.norm(element_gradients(lvl, c), axis=1) ** p)
                     ** (1.0 / p) for c in block.T])


def certificate_margins(T, cert, u, p: float, p_crit: float) -> np.ndarray:
    """The certified growth inequalities of T on each column of the block u.

    Per column, the larger of ||T u||_pc^alpha - K1 D - K3 and
    ||grad T u||_p^beta - K2 D - K3 with D = ||grad u||_p^(p-1); a column
    within the certificate gives a nonpositive margin.
    """
    from competefem.intrinsic import apply

    lvl = u.lvl
    img = apply(T, u)
    drive = grad_norms(lvl, u.block, p) ** (p - 1.0)
    value = samples_value_norm(lvl, img, p_crit) ** cert.alpha - cert.value_coeff * drive
    grad = samples_grad_norm(lvl, img, p) ** cert.beta - cert.grad_coeff * drive
    return np.maximum(value, grad) - cert.offset


def convection_integral(v, T_image, f) -> float:
    """int f(x, T(u), grad T(u)) v dx by the level quadrature, point by point.

    An x-only f may take None for the samples.
    """
    lvl = v.lvl
    if T_image is None:
        s, xi = np.zeros(lvl.qp_weights.shape), np.zeros(lvl.qp_points.shape)
    else:
        s, xi = T_image.values, T_image.gradients
    fvals = np.asarray(f(lvl.qp_points, s, xi), dtype=float)
    return float(np.sum(lvl.qp_weights * fvals * values_at_qp(lvl, v.coeffs)))


def holder_bound(u, v, T_image, env, p: float, p_crit: float) -> float:
    """Upper bound for |int f(x, T(u), grad T(u)) v dx| from the growth envelope.

    Hoelder's inequality on each envelope part: sigma with (r, r'), the
    value part with (p_crit/alpha, its conjugate) and the gradient part with
    (p/beta, its conjugate).  The two conjugates are read from the generic
    row of ``competefem.constants.smallness_pairings`` at call time, so the
    bound pairs v with the exponents that the smallness check uses.
    """
    import competefem.constants
    from competefem.discretization import lebesgue_norm

    lvl = u.lvl
    _, r_value, r_grad = competefem.constants.smallness_pairings(
        None, p, p_crit, env.alpha, env.beta)[0]
    bound = env.sigma.dual_norm(lvl, env.r) * lebesgue_norm(v, env.r)
    if env.a1 > 0:
        bound += (env.a1 * samples_value_norm(lvl, T_image, p_crit) ** env.alpha
                  * lebesgue_norm(v, r_value))
    if env.a2 > 0:
        bound += (env.a2 * samples_grad_norm(lvl, T_image, p) ** env.beta
                  * lebesgue_norm(v, r_grad))
    return float(bound)
