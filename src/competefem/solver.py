"""Constructive core: ball-constrained zero finding and the level hierarchy.

Each level's Galerkin equation is one :class:`LevelProblem`, built by
``ProblemInstance.at``.  Its residual applies T (unless f is x-only) and
hands out the Jacobian at the same iterate, which differentiates through f
at the same samples of T for a local T and keeps the load frozen (the
chord rule) for a nonlocal one; it also measures the W^{1,p}_0 seminorm.
The zero search, the sphere certificate and the diagnostics all evaluate
the equation through it, vectors and coefficient blocks alike.

Existence theory guarantees a zero of the Galerkin residual inside the ball
of the safeguard radius whenever the pairing against the sphere is
nonnegative.  That argument is non-constructive, so numerically each level
runs one zero search: Levenberg-damped Newton from zero damping, projected
to the ball, from each start the level offers in turn, and, when every
start stalls, homotopy continuation towards the residual from a
well-behaved anchor map.  Every Jacobian of a search is data on the one
pattern the search is given, so the symbolic work of a Newton step (the
band ordering of the normal equations and where each product lands) is
done once per search and each iteration only computes numbers.  Failures
are reported with the best iterate and the residual history, never
silently.

A sphere-sampling certificate documents that the nonnegativity hypothesis
held at the radius actually used, so a zero exists even if the solver were
to miss it.  Its samples are evaluated in blocks, one block residual and
one application of T each.  A block takes as many samples as fit in
``SPHERE_BUDGET`` quadrature-point values (at least one), so it has fewer
columns on finer levels and its memory does not grow with the level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solveh_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .constants import (
    EmbeddingConstants,
    build_constants,
    check_smallness,
    coercivity_radius,
    compose_c0,
    smallness_pairings,
)
from .discretization import (FEFunction, Level, NodalSamples, SpaceHierarchy, _column_dots,
                             _grad_integral, _gradients, grad_norm_p, prolongate, sine_mode)
from .intrinsic import IntrinsicOperator, apply as apply_operator, certificate, lift_on
from .operators import (
    ConvectionTerm,
    GrowthEnvelope,
    assemble_jacobian,
    assemble_residual,
    competing_pairing,
)

# Newton iterations per zero search, and per continuation stage.
MAX_NEWTON = 100
# Halvings of the continuation step before the homotopy gives up.
MAX_CONTINUATION_DEPTH = 6
# Quadrature-point values per block of sphere samples: a level with Q
# quadrature points takes max(1, SPHERE_BUDGET // Q) samples per block.
SPHERE_BUDGET = 2**16


# ---------------------------------------------------------------------------
# ball-constrained zero finding
# ---------------------------------------------------------------------------


@dataclass
class BrouwerResult:
    x: np.ndarray
    fx: np.ndarray  # F(x), as the search last evaluated it
    converged: bool
    newton_iters: int
    continuation_stages: int
    history: list
    message: str
    start: Optional[int] = None  # the index of the start whose Newton run converged

    @property
    def residual_sup(self) -> float:
        return _sup(self.fx)

    @property
    def path(self) -> str:
        """How the search ended: ``newton``, ``homotopy`` or ``failed``."""
        if not self.converged:
            return "failed"
        return "homotopy" if self.continuation_stages else "newton"


def _sup(v: np.ndarray) -> float:
    return float(np.max(np.abs(v), initial=0.0))


@dataclass(frozen=True, eq=False)
class NormalEquations:
    """J^T J and -J^T r of one Jacobian, in a bandwidth-reducing order.

    Every trial of one Newton iteration, lam = 0 included, solves from it.
    ``band`` is the lower band of ``G[perm][:, perm]`` in LAPACK ``ab``
    layout (main diagonal in the first row) and ``rhs`` is ``(-J^T r)[perm]``.
    ``perm`` is the reverse Cuthill-McKee order of the pattern, shared by
    every Jacobian on it.  The lower layout lets the factorisation update
    unit-stride columns, which OpenBLAS runs without the thread hand-offs
    that made the strided upper layout 5 to 40 times slower at a
    half-bandwidth of 30 (two-thread OpenBLAS on a 2-vCPU host).
    """

    band: np.ndarray
    rhs: np.ndarray
    perm: np.ndarray


@dataclass(frozen=True, eq=False)
class _NormalPlan:
    """The symbolic part of the normal equations of one square CSR pattern of J.

    ``perm`` is the reverse Cuthill-McKee order of the pattern of J^T J.
    Each pair of stored entries of one row of J whose product lands in the
    lower band has data positions ``a`` and ``b`` and the flat band
    position ``slot``; pairs come row by row, so each band entry sums its
    products in row order.  ``rows`` and ``cols`` give every stored entry's
    row and its column in the new order, and ``diag`` the data positions of
    the stored diagonal.
    """

    perm: np.ndarray
    width: int
    a: np.ndarray
    b: np.ndarray
    slot: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    diag: np.ndarray


def _normal_plan(pattern) -> _NormalPlan:
    """The plan of a square CSR pattern: anything with ``indptr`` and ``indices``."""
    indptr, indices = pattern.indptr, pattern.indices
    n = len(indptr) - 1
    counts = np.diff(indptr)
    rows = np.repeat(np.arange(n), counts)
    ones = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    gram = (ones.T @ ones).tocsc()  # ones cannot cancel, so this is J^T J's pattern
    gram.sort_indices()  # so the ordering depends on the pattern alone
    perm = reverse_cuthill_mckee(gram, symmetric_mode=True)
    inv = np.empty(n, dtype=np.intp)
    inv[perm] = np.arange(n)
    # every ordered pair (a, b) of entries of one row, row by row
    per_entry = counts[rows]
    a = np.repeat(np.arange(len(indices)), per_entry)
    first = np.repeat(np.cumsum(per_entry) - per_entry, per_entry)
    b = indptr[rows[a]] + np.arange(a.size) - first
    i, j = inv[indices[a]], inv[indices[b]]
    lower = i >= j
    i, j = i[lower], j[lower]
    return _NormalPlan(
        perm=perm, width=int(np.max(i - j)) if i.size else 0,
        a=a[lower], b=b[lower], slot=(i - j) * n + j,
        rows=rows, cols=inv[indices], diag=np.flatnonzero(indices == rows),
    )


def _normal_equations(plan: _NormalPlan, data: np.ndarray, r) -> NormalEquations:
    """Fill J^T J and -J^T r from J's ``data`` on the plan's pattern, for banded Cholesky.

    Only numbers are computed here: the ordering, the pairs of entries and
    their band positions come from the plan.  The band sums its products in
    the order of J's rows.
    """
    n = plan.perm.size
    band = _sums(plan.slot, data[plan.a] * data[plan.b], (plan.width + 1) * n)
    rhs = -_sums(plan.cols, data * np.asarray(r)[plan.rows], n)
    return NormalEquations(band.reshape(plan.width + 1, n), rhs, plan.perm)


def _sums(slots, terms, length) -> np.ndarray:
    """The terms summed at each slot in order; ``bincount`` of no terms gives integers."""
    return np.bincount(slots, terms, minlength=length).astype(float, copy=False)


def _levenberg_step(normal: NormalEquations, lam):
    """Solve (J^T J + lam I) dx = -J^T r by banded Cholesky; None if it fails."""
    band = normal.band.copy()
    band[0] += lam
    try:
        y = solveh_banded(band, normal.rhs, overwrite_ab=True, lower=True,
                          check_finite=False)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(y)):
        return None
    dx = np.empty_like(y)
    dx[normal.perm] = y
    return dx


def brouwer_zero(
    F: Callable[[np.ndarray], tuple],
    R: float,
    *,
    x0: np.ndarray,
    pattern,
    norm: Callable[[np.ndarray], float],
    tol: float = 1e-10,
) -> BrouwerResult:
    """Find v with ||F(v)||_sup <= tol and norm(v) <= R, starting from ``x0``.

    ``F(v)`` returns the pair ``(F(v), jacobian)``, where ``jacobian()``
    takes no arguments and returns the data of the Jacobian at v on
    ``pattern``, in its CSR order.

    ``x0`` is one start or a (k, n) array of k starts.  Damped Newton runs
    from each start in turn and the search returns at the first that
    converges (``start`` is its index); only when none does, the homotopy
    runs from the origin.  A failure returns the best iterate of all
    attempts, the earlier one on a tie.

    Strategy: Newton, projected onto the ball of ``norm``, accepts a step
    only if it lowers ||F||^2.  Each trial solves (J^T J + lam I) dx =
    -J^T F by a banded Cholesky factorisation, from lam = 0 (the Newton
    step) up.  J^T J is filled once per Jacobian at its first trial and
    shared by every damping value of that iteration.  A rejected step or a
    non-positive pivot (a singular J at lam = 0) makes lam grow.  If that
    stalls, homotopy continuation blends the residual with the identity
    anchor v (the duality map of the Euclidean coefficient norm), stepping
    the blend towards the full residual with adaptive halving; the blended
    Jacobian tJ + (1 - t)I scales J's data and adds 1 - t on its stored
    diagonal.  Non-convergence produces an explicit failure result carrying
    the best iterate and history.

    ``pattern`` is a square CSR pattern (anything with ``indptr`` and
    ``indices``) without duplicate entries that stores the whole diagonal.
    The search builds the reverse Cuthill-McKee order and band layout of the
    normal equations once, from it, and raises ``ValueError`` when the
    pattern lacks a diagonal entry or a Jacobian's data has another length.
    """
    starts = np.atleast_2d(np.asarray(x0, dtype=float))
    history = []
    if starts.shape[1] == 0:
        return BrouwerResult(starts[0], starts[0], True, 0, 0, history, "empty system", 0)
    plan = _normal_plan(pattern)
    if plan.diag.size < plan.perm.size:
        raise ValueError("the Jacobian pattern lacks a diagonal entry")

    def project(v):
        n = norm(v)
        if n > R and n > 0:
            return v * (R / n)
        return v

    def normal_equations(jacobian, ft, t):
        """The normal equations of t J + (1 - t) I and the blended residual ft."""
        data = jacobian()
        if len(data) != len(plan.rows):
            raise ValueError(f"a Jacobian has {len(data)} entries, its pattern "
                             f"{len(plan.rows)}")
        if t != 1.0:
            data = t * data
            data[plan.diag] += 1.0 - t
        return _normal_equations(plan, data, ft)

    def newton_solve(x, t):
        """Levenberg-damped Newton on F_t(v) = t F(v) + (1-t) v.

        Damping grows on rejection, which shortens and bends the step
        towards steepest descent, so exactly singular Jacobians cannot kick
        the iterate out of the local basin.  Returns (x, F(x), converged, iters).
        """
        iters = 0
        x = project(x)
        lam = 0.0
        fx, jx = F(x)
        ft = t * fx + (1.0 - t) * x
        phi = 0.5 * float(ft @ ft)
        for _ in range(MAX_NEWTON):
            res = _sup(ft)
            history.append((t, res))
            if res <= tol:
                return x, fx, True, iters
            iters += 1
            normal = normal_equations(jx, ft, t)
            scale = 1.0 + phi
            accepted = None
            # a NaN residual never lets lam reach its cap; this bound stops it
            for _ in range(60):
                dx = _levenberg_step(normal, lam)
                if dx is not None:
                    cand = project(x + dx)
                    fc, jc = F(cand)
                    ftc = t * fc + (1.0 - t) * cand
                    phic = 0.5 * float(ftc @ ftc)
                    if (phic < phi and not np.array_equal(cand, x)) or phic < 0.5 * tol * tol:
                        accepted = (cand, fc, jc, ftc, phic)
                        lam = lam / 3.0 if lam > 1e-14 * scale else 0.0
                        break
                lam = max(lam * 10.0, 1e-10 * scale)
                if lam > 1e14 * scale:
                    break
            if accepted is None:
                return x, fx, False, iters
            x, fx, jx, ft, phi = accepted
        res = _sup(ft)
        history.append((t, res))
        return x, fx, res <= tol, iters

    total_iters = 0
    best_x = best_fx = None
    for k, start in enumerate(starts):
        x, fx, ok, it = newton_solve(start, 1.0)
        total_iters += it
        if ok:
            return BrouwerResult(x, fx, True, total_iters, 0, history, "newton", k)
        if best_fx is None or _sup(fx) < _sup(best_fx):
            best_x, best_fx = x, fx

    # homotopy continuation from the anchor solution at t = 0 (the origin)
    stages = 0
    depth = 0
    t = 0.0
    dt = 0.25
    xh = np.zeros(starts.shape[1])
    while t < 1.0 and depth <= MAX_CONTINUATION_DEPTH:
        t_next = min(1.0, t + dt)
        cand, fc, ok, it = newton_solve(xh, t_next)
        total_iters += it
        stages += 1
        if ok:
            t, xh = t_next, cand
            if _sup(fc) < _sup(best_fx):
                best_x, best_fx = xh, fc
            dt = min(0.25, dt * 1.5)
        else:
            dt *= 0.5
            depth += 1
    if t >= 1.0:
        # the last stage ran at t = 1, so fc = F(xh)
        return BrouwerResult(xh, fc, True, total_iters, stages, history, "homotopy")
    return BrouwerResult(
        best_x, best_fx, False, total_iters, stages, history,
        f"no convergence after continuation depth {MAX_CONTINUATION_DEPTH}; "
        f"best residual sup {_sup(best_fx):.3e}",
    )


# ---------------------------------------------------------------------------
# problem instance and per-level solves
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Everything a hierarchy run needs, already resolved to runtime objects."""

    hierarchy: SpaceHierarchy
    p: float
    q: float
    convection: ConvectionTerm
    operator: IntrinsicOperator
    p_crit: float
    tol: float
    eps_reg: float
    seed: int
    policy: str
    safety: float
    sphere_samples: int
    estimator_starts: int
    estimator_iters: int
    initial_guess: Optional[Callable]
    test_set_size: int

    @property
    def envelope(self) -> GrowthEnvelope:
        return self.convection.envelope

    def at(self, n: int) -> "LevelProblem":
        """The Galerkin equation of level n."""
        lift = lift_on(self.operator, self.hierarchy, n) \
            if self.operator.kind == "boundary_lift" else None
        return LevelProblem(self, n, lift)


@dataclass(frozen=True, eq=False)
class LevelProblem:
    """The Galerkin equation -Lap_p(u + u0) + Lap_q(u + u0) = f(x, T(u), grad T(u)) on level n.

    ``lift`` is u0 on the level for a boundary lift, else None; the
    exponents, T, f and the hierarchy are those of ``inst``.
    """

    inst: ProblemInstance
    n: int
    lift: Optional[NodalSamples]

    @property
    def lvl(self) -> Level:
        return self.inst.hierarchy.level(self.n)

    def residual(self, c: np.ndarray) -> tuple:
        """(values, jacobian): the residual at c and the call that assembles its Jacobian there.

        c is a coefficient vector or an (n_free, k) block, whose residual has
        k columns.  T is applied once, and not at all when f is x-only.
        ``jacobian()``, for a vector c, returns the Jacobian at c as data on
        ``lvl.jacobian_pattern``: through f at the same samples of T(c) for a
        local T, with the load frozen (the chord rule) for a nonlocal one.
        """
        inst = self.inst
        u = inst.hierarchy.function(self.n, c)
        samples = apply_operator(inst.operator, u) if inst.convection.solution_dependent \
            else None

        def jacobian():
            return assemble_jacobian(u, samples if inst.operator.is_local else None,
                                     inst.convection, inst.p, inst.q,
                                     eps_reg=inst.eps_reg, lift=self.lift)

        return assemble_residual(u, samples, inst.convection, inst.p, inst.q,
                                 lift=self.lift), jacobian

    def norms(self, c: np.ndarray):
        """||grad u||_p of a coefficient vector, or of each column of an (n_free, k) block."""
        p = self.inst.p
        if np.ndim(c) == 1:
            return grad_norm_p(self.inst.hierarchy.function(self.n, c), p)
        return _grad_integral(self.lvl, _gradients(self.lvl, c), p) ** (1.0 / p)


# the gaps of a level against the finest solution, which stands in for the weak limit
GAPS = (
    "weak_gap",      # sup_j |<phi_j, u_n - u>| over the dual test set
    "residual_gap",  # sup_j |<A(u_n) - load, phi_j>| / ||phi_j||
    "pairing_gap",   # <-Lap_p u_n + Lap_q u_n, u_n - u>
    "full_gap",      # pairing_gap minus the convection integral
)


@dataclass(frozen=True, eq=False)
class LevelSolve:
    """One level of a hierarchy run: its solution, its zero search and what was measured there.

    ``start`` names the start whose Newton run converged (``guess``,
    ``coarser`` or ``origin``), None after a homotopy or a failure.
    ``sphere`` holds <A(v), v> at the sampled points v of the sphere of
    radius ``radius``, in draw order.  ``gaps`` maps each of ``GAPS`` to its
    value; it is None on the finest level and before the run is diagnosed.
    """

    u: FEFunction
    search: BrouwerResult
    radius: float
    grad_norm: float
    start: Optional[str]
    sphere: np.ndarray
    gaps: Optional[dict]

    @property
    def level(self) -> int:
        return self.u.level

    def to_json_dict(self) -> dict:
        """The level's row of the solve report."""
        search, sphere = self.search, self.sphere
        return {
            "level": self.level,
            "dim": len(self.u.coeffs),
            "grad_norm_p": self.grad_norm,
            "residual_sup": search.residual_sup,
            "R": self.radius,
            "apriori_margin": self.radius - self.grad_norm,
            # the equation tested with u itself
            "energy_gap": abs(float(search.fx @ search.x)),
            "newton_iters": search.newton_iters,
            # one zero search per level; the benchmark harness reads the key
            "outer_iters": 0,
            "continuation_stages": search.continuation_stages,
            "path": search.path,
            "start": self.start,
            "sphere_margin": float(sphere.min()) if sphere.size else None,
            "sphere_negative": int(np.count_nonzero(sphere < 0)),
            "sphere_q05": float(np.quantile(sphere, 0.05)) if sphere.size else None,
            "sphere_median": float(np.quantile(sphere, 0.5)) if sphere.size else None,
            "converged": search.converged,
            **{gap: None if self.gaps is None else self.gaps[gap] for gap in GAPS},
            "coefficients": [float(c) for c in self.u.coeffs],
        }


def solve_level(
    inst: ProblemInstance,
    n: int,
    R: float,
    warm: Optional[FEFunction] = None,
) -> LevelSolve:
    """Solve the Galerkin equation on level n inside the safeguard ball.

    One ball-constrained zero search on the level problem's residual, from
    the starts named below, with the Jacobian that the residual hands out at
    each iterate on the level's pattern.  The residual sup, the energy gap
    and convergence come from the residual the search last evaluated.
    """
    h = inst.hierarchy
    prob = inst.at(n)
    # The operator is non-monotone, so the discrete equation can have several
    # solutions and Newton converges to the one nearest its start.  A supplied
    # initial-guess function acts as a branch selector: its interpolant is
    # every level's first start, and the prolongated coarser zero is tried
    # only when Newton from the guess fails, so such a level ends on the
    # coarser zero's branch.  Without a guess, levels start from the coarser
    # zero and the base level from the origin.
    starts = {}
    if inst.initial_guess is not None:
        starts["guess"] = h.interpolate(n, inst.initial_guess).coeffs
    if warm is not None:
        starts["coarser"] = warm.coeffs
    if not starts:
        starts["origin"] = np.zeros(h.level(n).n_free)

    res = brouwer_zero(prob.residual, R, x0=np.array(list(starts.values()), dtype=float),
                       pattern=prob.lvl.jacobian_pattern, norm=prob.norms, tol=inst.tol)
    return LevelSolve(h.function(n, res.x), res, R, prob.norms(res.x),
                      start=None if res.start is None else list(starts)[res.start],
                      sphere=np.empty(0), gaps=None)


def sphere_certificate(inst: ProblemInstance, n: int, R: float) -> np.ndarray:
    """Sample <A(v), v> on the sphere of radius R in the W^{1,p}_0 seminorm, in draw order.

    ``inst.sphere_samples`` samples are taken, each a standard normal
    coefficient vector scaled onto the sphere; samples of zero norm are
    skipped.  Blocks of ``SPHERE_BUDGET // Q`` rows (at least one), with Q
    the level's quadrature points, are drawn from one stream seeded by
    ``inst.seed``, which gives the same vectors as drawing them one at a
    time, and each block takes one application of T and one residual.
    Every column is evaluated on its own, so the pairings do not depend on
    the block width.
    """
    lvl = inst.hierarchy.level(n)
    n_samples = inst.sphere_samples
    if lvl.n_free == 0 or n_samples <= 0:
        return np.empty(0)
    rng = np.random.default_rng(np.random.SeedSequence((int(inst.seed), 929, int(n))))
    prob = inst.at(n)
    width = max(1, SPHERE_BUDGET // lvl.qp_weights.size)
    pairings = []
    for start in range(0, n_samples, width):
        c = rng.standard_normal((min(width, n_samples - start), lvl.n_free)).T
        g = prob.norms(c)
        keep = g != 0
        c = c[:, keep] * (R / g[keep])
        pairings.append(_column_dots(prob.residual(c)[0], c))
    return np.concatenate(pairings)


# ---------------------------------------------------------------------------
# hierarchy runs, diagnostics, report
# ---------------------------------------------------------------------------


def convergence_diagnostics(inst: ProblemInstance, solves: list, u: FEFunction) -> dict:
    """Finite diagnostics of the approximation sequence against its finest member.

    Returns ``{level: {gap: value}}`` with the gaps of ``GAPS``.  The dual
    test set consists of the first ``inst.test_set_size`` nodal hats of the
    finest level plus interpolants of the first four sine modes.  The finest
    solution stands in for the weak limit, so the finest level itself is
    excluded.
    """
    h = inst.hierarchy
    top = u.level
    prob = inst.at(top)
    lvl = prob.lvl

    hats = np.eye(min(inst.test_set_size, lvl.n_free), lvl.n_free)
    sines = [sine_mode(h, top, k).coeffs for k in range(1, 5)]
    test_rows = np.vstack([hats] + sines)
    tests = test_rows.T  # the (n_free, n_tests) block
    test_norms = np.maximum(prob.norms(tests), 1e-300)

    rows = {}
    for solve in solves:
        if solve.level >= top:
            continue
        un = prolongate(solve.u, top)
        diff = h.function(top, un.coeffs - u.coeffs)

        # int (u_n - u) phi_j dx for every free hat j, paired with each test
        mass = lvl.qp_op_t @ (lvl.qp_weights * diff.values_at_qp()).ravel()
        weak = max(abs(float(mass @ phi)) for phi in test_rows)

        # the residual of u_n paired with every test at once
        values, _ = prob.residual(un.coeffs)
        residual_gap = float(np.max(np.abs(_column_dots(values[:, None], tests))
                                    / test_norms))

        rows[solve.level] = {
            "weak_gap": weak,
            "residual_gap": residual_gap,
            "pairing_gap": competing_pairing(un, diff, inst.p, inst.q, lift=prob.lift),
            "full_gap": float(values @ diff.coeffs),
        }
    return rows


@dataclass
class SolveReport:
    status: str
    radius: Optional[float]
    kappa: Optional[float]
    c0: Optional[float]
    constants: Optional[EmbeddingConstants]
    hypothesis: list
    certificate: Optional[object]
    levels: list
    seed: int
    config: Optional[dict] = None
    message: str = ""

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "message": self.message,
            "seed": self.seed,
            "R": self.radius,
            "kappa": self.kappa,
            "c0": self.c0,
            "config": self.config,
            "constants": None if self.constants is None else self.constants.to_json_dict(),
            "certificate": None if self.certificate is None else self.certificate.to_json_dict(),
            "hypothesis": [r.to_json_dict() for r in self.hypothesis],
            "levels": [s.to_json_dict() for s in self.levels],
        }


def required_exponents(inst: ProblemInstance) -> list:
    """The exponents whose S_r some decision reads.

    Always S_r at the envelope's r (for c0), S_p (for lambda_1) and S_pc
    (for the certificate and S_space); then, for every smallness condition
    of the operator kind, its value exponent under a1 > 0 and its gradient
    exponent under a2 > 0.
    """
    env = inst.envelope
    wanted = {env.r, inst.p, inst.p_crit}
    for _, r_value, r_grad in smallness_pairings(inst.operator.kind, inst.p, inst.p_crit,
                                                 env.alpha, env.beta):
        if env.a1 > 0:
            wanted.add(r_value)
        if env.a2 > 0:
            wanted.add(r_grad)
    return sorted(wanted)


def constants_and_hypotheses(inst: ProblemInstance):
    """Embedding constants, the growth certificate of T and every applicable check.

    Returns ``(constants, certificate, reports)`` with the generic smallness
    report first.
    """
    h = inst.hierarchy
    env = inst.envelope
    constants = build_constants(
        h, inst.p, inst.p_crit, required_exponents(inst),
        safety=inst.safety, starts=inst.estimator_starts,
        iters=inst.estimator_iters, seed=inst.seed,
    )
    cert = certificate(inst.operator, inst.p, env.alpha, env.beta, constants, hierarchy=h)
    reports = [check_smallness(pairing, env.a1, env.a2, cert, constants)
               for pairing in smallness_pairings(inst.operator.kind, inst.p, inst.p_crit,
                                                 env.alpha, env.beta)]
    return constants, cert, reports


def run_hierarchy(inst: ProblemInstance, config_echo: Optional[dict] = None) -> SolveReport:
    """Solve every level, certify the sphere condition, and diagnose limits.

    Every outcome is a report.  A failed smallness check stops the run
    before any level is solved (status ``hypothesis_failed``, no radius)
    under the ``refuse`` policy, and under ``warn`` when kappa >= 1 leaves
    no finite radius; so does a radius that overflows a float, after c0 is
    reported.  Otherwise the safeguard radius is computed once from
    the instance constants, each level's search gets the prolongated
    previous solution as a start (after the initial guess, if any), and a
    level that does not converge ends the run with the levels solved so far
    (status ``solver_failure``).
    """
    h = inst.hierarchy
    top = h.n_levels

    constants, cert, reports = constants_and_hypotheses(inst)
    failed = [r for r in reports if not r.passed]
    kappa = reports[0].value

    base = SolveReport(
        status="ok", radius=None, kappa=kappa, c0=None, constants=constants,
        hypothesis=reports, certificate=cert, levels=[],
        seed=inst.seed, config=config_echo,
    )
    if failed:
        names = ", ".join(r.name for r in failed)
        if inst.policy == "refuse":
            base.status = "hypothesis_failed"
            base.message = f"hypothesis checks failed: {names}"
            return base
        if kappa >= 1.0:
            base.status = "hypothesis_failed"
            base.message = (
                f"hypothesis checks failed ({names}) and kappa = {kappa:.6g} >= 1 "
                "leaves no finite safeguard radius; cannot continue even under warn"
            )
            return base
        base.message = f"continuing despite failed checks: {names}"

    sigma_norm = inst.envelope.sigma.dual_norm(h.level(top), inst.envelope.r)
    base.c0 = compose_c0(inst.envelope, sigma_norm, cert, constants)
    try:
        R = coercivity_radius(kappa, h.measure, inst.p, inst.q, base.c0)
    except OverflowError as exc:
        base.status, base.message = "hypothesis_failed", str(exc)
        return base
    base.radius = R

    warm = None
    for n in range(1, top + 1):
        if h.level(n).n_free == 0:
            continue
        result = replace(solve_level(inst, n, R, warm=warm),
                         sphere=sphere_certificate(inst, n, R))
        base.levels.append(result)
        if not result.search.converged:
            base.status = "solver_failure"
            base.message = (
                f"level {n} did not converge (residual sup {result.search.residual_sup:.3e})"
            )
            return base
        warm = prolongate(result.u, min(n + 1, top))
    if base.levels:
        gaps = convergence_diagnostics(inst, base.levels, base.levels[-1].u)
        base.levels = [replace(s, gaps=gaps.get(s.level)) for s in base.levels]
    return base
