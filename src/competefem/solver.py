"""Constructive core: ball-constrained zero finding and the level hierarchy.

Existence theory guarantees a zero of the Galerkin residual inside the ball
of the safeguard radius whenever the pairing against the sphere is
nonnegative.  That argument is non-constructive, so numerically each level
runs one loop of zero searches: damped Newton (with a Levenberg fallback)
projected to the ball and, on stall, homotopy continuation towards the
residual from a well-behaved anchor map.  T(u) enters the convection term
either live (local T, one pass) or frozen at the pass's start iterate
(nonlocal T, repeated passes), and the true residual decides after each
pass.  Failures are reported with the best iterate and the residual
history, never silently.

A sphere-sampling certificate documents that the nonnegativity hypothesis
held at the radius actually used, so a zero exists even if the solver were
to miss it.  Its samples are evaluated in blocks of ``SPHERE_CHUNK``
coefficient vectors, one block residual and one application of T each.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .constants import (
    EmbeddingConstants,
    build_constants,
    check_convolution_condition,
    check_growth_smallness,
    check_lift_condition,
    coercivity_radius,
    compose_c0,
)
from .discretization import (FEFunction, SpaceHierarchy, _column_dots, _grad_integral,
                             _gradients, grad_norm_p, prolongate, sample, sine_mode)
from .intrinsic import IntrinsicOperator, apply as apply_operator, certificate, lift_on
from .operators import (
    ConvectionTerm,
    GrowthEnvelope,
    assemble_jacobian,
    assemble_residual,
    competing_pairing,
    convection_integral,
)

# Newton iterations per zero search; frozen-T passes per nonlocal level.
MAX_NEWTON = 100
MAX_OUTER = 50
# Sphere samples evaluated per block; bounds the block's memory.
SPHERE_CHUNK = 64


class SolverFailure(RuntimeError):
    """A level solve did not converge; carries the partial report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class HypothesisRefusal(RuntimeError):
    """The hypothesis check failed and the policy forbids solving."""

    def __init__(self, message, reports):
        super().__init__(message)
        self.reports = reports


# ---------------------------------------------------------------------------
# ball-constrained zero finding
# ---------------------------------------------------------------------------


@dataclass
class BrouwerResult:
    x: np.ndarray
    converged: bool
    residual_sup: float
    newton_iters: int
    continuation_stages: int
    history: list
    message: str


def _solve_newton_step(J, rhs):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if sp.issparse(J):
                dx = spla.spsolve(J.tocsc(), rhs)
            else:
                dx = np.linalg.solve(np.asarray(J, dtype=float), rhs)
        if np.all(np.isfinite(dx)):
            return dx
    except Exception:
        pass
    return None


def _levenberg_step(J, r, lam):
    if sp.issparse(J):
        A = (J.T @ J + lam * sp.identity(J.shape[1], format="csr")).tocsc()
        try:
            dx = spla.spsolve(A, -(J.T @ r))
        except Exception:
            return None
    else:
        Jd = np.asarray(J, dtype=float)
        A = Jd.T @ Jd + lam * np.eye(Jd.shape[1])
        try:
            dx = np.linalg.solve(A, -Jd.T @ r)
        except np.linalg.LinAlgError:
            return None
    return dx if np.all(np.isfinite(dx)) else None


def _fd_jacobian(F, x, fx):
    n = len(x)
    J = np.empty((n, n))
    for j in range(n):
        d = 1e-8 * max(1.0, abs(x[j]))
        xp = x.copy()
        xp[j] += d
        J[:, j] = (F(xp) - fx) / d
    return J


def brouwer_zero(
    F: Callable[[np.ndarray], np.ndarray],
    R: float,
    *,
    x0: Optional[np.ndarray] = None,
    dim: Optional[int] = None,
    jac: Optional[Callable] = None,
    norm: Optional[Callable[[np.ndarray], float]] = None,
    tol: float = 1e-10,
    max_newton: int = MAX_NEWTON,
    max_continuation_depth: int = 6,
) -> BrouwerResult:
    """Find v with ||F(v)||_sup <= tol and ||v|| <= R.

    Strategy: damped Newton from ``x0`` (default the origin) with Armijo
    backtracking on ||F||^2 and projection onto the ball in the supplied
    norm; a Levenberg direction rescues singular or non-descending Newton
    steps.  If that stalls, homotopy continuation blends the residual with
    the identity anchor v (the duality map of the Euclidean coefficient
    norm), stepping the blend towards the full residual with adaptive
    halving.  Non-convergence produces an explicit failure result carrying
    the best iterate and history.
    """
    if x0 is None:
        if dim is None:
            raise ValueError("brouwer_zero needs x0 or dim")
        x0 = np.zeros(dim)
    x0 = np.asarray(x0, dtype=float)
    nrm = norm if norm is not None else lambda v: float(np.linalg.norm(v))

    def project(v):
        n = nrm(v)
        if n > R and n > 0:
            return v * (R / n)
        return v

    def jac_at(v, fv):
        return jac(v) if jac is not None else _fd_jacobian(F, v, fv)

    history = []

    def newton_solve(x, t, iter_budget):
        """Damped Newton with a Levenberg trust loop on F_t(v) = t F(v) + (1-t) v.

        The pure Newton step is tried first; on rejection the damping grows,
        which shortens and bends the step towards steepest descent, so exactly
        singular Jacobians cannot kick the iterate out of the local basin.
        Returns (x, converged, iters).
        """
        iters = 0
        x = project(x)
        lam = 0.0
        fx = F(x)
        ft = t * fx + (1.0 - t) * x
        phi = 0.5 * float(ft @ ft)
        for _ in range(iter_budget):
            res = float(np.max(np.abs(ft))) if ft.size else 0.0
            history.append((t, res))
            if res <= tol:
                return x, True, iters
            iters += 1
            J = jac_at(x, fx)
            if sp.issparse(J):
                Jt = (t * J + (1.0 - t) * sp.identity(J.shape[0], format="csr")).tocsr()
            else:
                Jt = t * np.asarray(J, dtype=float) + (1.0 - t) * np.eye(len(x))
            scale = 1.0 + phi
            accepted = None
            for _ in range(60):
                if lam == 0.0:
                    dx = _solve_newton_step(Jt, -ft)
                else:
                    dx = _levenberg_step(Jt, ft, lam)
                if dx is not None:
                    cand = project(x + dx)
                    fc = F(cand)
                    ftc = t * fc + (1.0 - t) * cand
                    phic = 0.5 * float(ftc @ ftc)
                    if (phic < phi and not np.array_equal(cand, x)) or phic < 0.5 * tol * tol:
                        accepted = (cand, fc, ftc, phic)
                        lam = lam / 3.0 if lam > 1e-14 * scale else 0.0
                        break
                lam = max(lam * 10.0, 1e-10 * scale)
                if lam > 1e14 * scale:
                    break
            if accepted is None:
                return x, False, iters
            x, fx, ft, phi = accepted
        res = float(np.max(np.abs(ft))) if ft.size else 0.0
        history.append((t, res))
        return x, res <= tol, iters

    if x0.size == 0:
        return BrouwerResult(x0, True, 0.0, 0, 0, history, "empty system")

    total_iters = 0
    x, ok, it = newton_solve(x0, 1.0, max_newton)
    total_iters += it
    if ok:
        fx = F(x)
        return BrouwerResult(x, True, float(np.max(np.abs(fx))), total_iters, 0,
                             history, "newton")

    # homotopy continuation from the anchor solution at t = 0 (the origin)
    stages = 0
    depth = 0
    t = 0.0
    dt = 0.25
    xh = np.zeros_like(x0)
    best_x, best_res = x, float(np.max(np.abs(F(x))))
    while t < 1.0 and depth <= max_continuation_depth:
        t_next = min(1.0, t + dt)
        cand, ok, it = newton_solve(xh, t_next, max_newton)
        total_iters += it
        stages += 1
        if ok:
            t, xh = t_next, cand
            res_true = float(np.max(np.abs(F(xh))))
            if res_true < best_res:
                best_x, best_res = xh, res_true
            dt = min(0.25, dt * 1.5)
        else:
            dt *= 0.5
            depth += 1
    if t >= 1.0:
        return BrouwerResult(xh, True, float(np.max(np.abs(F(xh)))), total_iters,
                             stages, history, "homotopy")
    return BrouwerResult(
        best_x, False, best_res, total_iters, stages, history,
        f"no convergence after continuation depth {max_continuation_depth}; "
        f"best residual sup {best_res:.3e}",
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
    eps_reg: float = 0.0
    seed: int = 0
    policy: str = "refuse"
    safety: float = 1.1
    sphere_samples: int = 1000
    estimator_starts: int = 8
    estimator_iters: int = 300
    initial_guess: Optional[Callable] = None

    @property
    def envelope(self) -> GrowthEnvelope:
        return self.convection.envelope

    def lift_for(self, level: int):
        if self.operator.kind == "boundary_lift":
            return lift_on(self.operator, self.hierarchy, level)
        return None


@dataclass(frozen=True)
class LevelSolve:
    level: int
    u: FEFunction
    residual_sup: float
    newton_iters: int
    outer_iters: int
    continuation_stages: int
    radius: float
    grad_norm: float
    apriori_margin: float
    energy_gap: float
    sphere_margin: Optional[float]
    sphere_negative: int
    converged: bool
    sphere_q05: Optional[float] = None
    sphere_median: Optional[float] = None


def _image_of(inst: ProblemInstance, u: FEFunction):
    """T(u) for the convection term, or None when f is x-only and never reads it."""
    if inst.convection.solution_dependent:
        return apply_operator(inst.operator, u)
    return None


def solve_level(
    inst: ProblemInstance,
    n: int,
    R: float,
    warm: Optional[FEFunction] = None,
) -> LevelSolve:
    """Solve the Galerkin equation on level n inside the safeguard ball.

    Every pass runs one ball-constrained zero search on the residual with
    T(u) in the convection term.  A local operator (identity, boundary lift)
    is applied inside the residual, so Newton differentiates through f and
    one pass suffices.  A nonlocal operator (convolution) is frozen at the
    pass's start iterate; passes repeat, damping by one half on stagnation,
    until the true residual meets the tolerance or ``MAX_OUTER`` passes are
    spent.  The level converged iff its true residual meets the tolerance.
    """
    h = inst.hierarchy
    lvl = h.level(n)
    lift = inst.lift_for(n)
    frozen = not inst.operator.is_local

    def gnorm(c):
        return grad_norm_p(h.function(n, c), inst.p)

    def true_residual(c):
        """Residual sup at c and T at c, which later steps reuse."""
        u = h.function(n, c)
        img = _image_of(inst, u)
        return assemble_residual(u, img, inst.convection, inst.p, inst.q, lift=lift).sup, img

    # The operator is non-monotone, so the discrete equation can have several
    # solutions and Newton converges to the one nearest its start.  A supplied
    # initial-guess function acts as a branch selector and is interpolated on
    # every level; otherwise levels warm-start from the prolongated previous
    # solution and the base level starts at the origin.
    if inst.initial_guess is not None:
        coeffs = np.array(h.interpolate(n, inst.initial_guess).coeffs, dtype=float)
    elif warm is not None:
        coeffs = np.array(warm.coeffs, dtype=float)
    else:
        coeffs = np.zeros(lvl.n_free)

    prev_sup = math.inf
    newton_iters = 0
    stages = 0
    img = None  # T(coeffs) once known
    for outer in range(1, MAX_OUTER + 1):
        if frozen and img is None:
            img = _image_of(inst, h.function(n, coeffs))

        def image(u, fixed=img):
            return fixed if frozen else _image_of(inst, u)

        def F(c):
            u = h.function(n, c)
            return assemble_residual(u, image(u), inst.convection, inst.p, inst.q,
                                     lift=lift).values

        def J(c):
            u = h.function(n, c)
            return assemble_jacobian(
                u, image(u), inst.convection, inst.p, inst.q,
                eps_reg=inst.eps_reg, lift=lift, differentiate_f=not frozen,
            )

        res = brouwer_zero(F, R, x0=coeffs, jac=J, norm=gnorm, tol=inst.tol)
        newton_iters += res.newton_iters
        stages += res.continuation_stages
        true_sup, img = true_residual(res.x)
        if true_sup <= inst.tol or not frozen:
            coeffs = res.x
            break
        if true_sup >= prev_sup:  # damp on stagnation
            coeffs, img = 0.5 * (coeffs + res.x), None
        else:
            coeffs = res.x
        prev_sup = min(prev_sup, true_sup)
    else:  # passes spent; the last step may have been damped
        if img is None:
            true_sup, img = true_residual(coeffs)

    u = h.function(n, coeffs)
    gn = grad_norm_p(u, inst.p)
    return LevelSolve(
        level=n,
        u=u,
        residual_sup=true_sup,
        newton_iters=newton_iters,
        outer_iters=outer if frozen else 0,
        continuation_stages=stages,
        radius=R,
        grad_norm=gn,
        apriori_margin=R - gn,
        energy_gap=_energy_gap(inst, u, img, lift),
        sphere_margin=None,
        sphere_negative=0,
        converged=true_sup <= inst.tol,
    )


def _energy_gap(inst: ProblemInstance, u: FEFunction, img, lift) -> float:
    """Defect of the identity obtained by testing the equation with u itself.

    ``img`` is T(u).
    """
    f_term = convection_integral(u, img, inst.convection)
    lhs = competing_pairing(u, u, inst.p, inst.q, lift=lift)
    return float(abs(lhs - f_term))


@dataclass(frozen=True, eq=False)
class SpherePairings:
    """<A(v), v> at the sampled points v of the sphere, in draw order."""

    values: np.ndarray

    @property
    def margin(self) -> Optional[float]:
        """The smallest pairing; None without samples."""
        return float(self.values.min()) if self.values.size else None

    @property
    def negative(self) -> int:
        return int(np.count_nonzero(self.values < 0))

    def quantile(self, q: float) -> Optional[float]:
        return float(np.quantile(self.values, q)) if self.values.size else None


def sphere_certificate(
    inst: ProblemInstance,
    n: int,
    R: float,
    n_samples: int,
    seed: int,
) -> SpherePairings:
    """Sample <A(v), v> on the sphere of radius R in the W^{1,p}_0 seminorm.

    Each sample is a standard normal coefficient vector scaled onto the
    sphere; samples of zero norm are skipped.  Blocks of ``SPHERE_CHUNK``
    rows are drawn from one seeded stream, which gives the same vectors as
    drawing them one at a time, and each block takes one application of T
    and one residual.
    """
    h = inst.hierarchy
    lvl = h.level(n)
    if lvl.n_free == 0 or n_samples <= 0:
        return SpherePairings(np.empty(0))
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 929, int(n))))
    lift = inst.lift_for(n)
    f = inst.convection
    pairings = []
    for start in range(0, n_samples, SPHERE_CHUNK):
        c = rng.standard_normal((min(SPHERE_CHUNK, n_samples - start), lvl.n_free)).T
        g = _grad_integral(lvl, _gradients(lvl, c), inst.p) ** (1.0 / inst.p)
        keep = g != 0
        c = c[:, keep] * (R / g[keep])
        v = h.function(n, c)
        res = assemble_residual(v, _image_of(inst, v), f, inst.p, inst.q, lift=lift)
        pairings.append(_column_dots(res.values, c))
    return SpherePairings(np.concatenate(pairings))


# ---------------------------------------------------------------------------
# hierarchy runs, diagnostics, report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsRow:
    level: int
    weak_gap: float        # sup_j |<phi_j, u_n - u>| over the dual test set
    residual_gap: float    # sup_j |<A(u_n) - load, phi_j>| / ||phi_j||
    pairing_gap: float     # <-Lap_p u_n + Lap_q u_n, u_n - u>
    full_gap: float        # pairing_gap minus the convection integral


def convergence_diagnostics(
    inst: ProblemInstance,
    solves: list,
    u: FEFunction,
    test_set_size: int = 8,
) -> list:
    """Finite diagnostics of the approximation sequence against its finest member.

    The dual test set consists of the first ``test_set_size`` nodal hats of
    the finest level plus interpolants of the first four sine modes.  The
    finest solution stands in for the weak limit, so the finest level itself
    is excluded from the rows.
    """
    h = inst.hierarchy
    top = u.level
    lvl = h.level(top)
    lift = inst.lift_for(top)

    hats = np.eye(min(test_set_size, lvl.n_free), lvl.n_free)
    sines = [sine_mode(h, top, k).coeffs for k in range(1, 5)]
    test_rows = np.vstack([hats] + sines)
    tests = test_rows.T  # the (n_free, n_tests) block
    test_norms = np.maximum(
        _grad_integral(lvl, _gradients(lvl, tests), inst.p) ** (1.0 / inst.p), 1e-300
    )

    rows = []
    for solve in solves:
        if solve.level >= top:
            continue
        un = prolongate(solve.u, top)
        diff = h.function(top, un.coeffs - u.coeffs)
        img = _image_of(inst, un)

        # int (u_n - u) phi_j dx for every free hat j, paired with each test
        mass = lvl.qp_op_t @ (lvl.qp_weights * diff.values_at_qp()).ravel()
        weak = max(abs(float(mass @ phi)) for phi in test_rows)

        # the residual of u_n paired with every test at once
        res = assemble_residual(un, img, inst.convection, inst.p, inst.q, lift=lift)
        residual_gap = float(np.max(np.abs(_column_dots(res.values[:, None], tests))
                                    / test_norms))

        pairing_gap = competing_pairing(un, diff, inst.p, inst.q, lift=lift)
        full_gap = pairing_gap - convection_integral(diff, img, inst.convection)
        rows.append(
            DiagnosticsRow(
                level=solve.level,
                weak_gap=weak,
                residual_gap=residual_gap,
                pairing_gap=float(pairing_gap),
                full_gap=float(full_gap),
            )
        )
    return rows


CSV_COLUMNS = [
    "level",
    "dim",
    "grad_norm_p",
    "residual_sup",
    "R",
    "apriori_margin",
    "diag_a",
    "diag_b",
    "diag_c_strong",
    "diag_c_full",
    "newton_iters",
]


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
    diagnostics: list
    seed: int
    config: Optional[dict] = None
    message: str = ""

    def to_json_dict(self) -> dict:
        diag_by_level = {d.level: d for d in self.diagnostics}
        levels = []
        for s in self.levels:
            d = diag_by_level.get(s.level)
            levels.append(
                {
                    "level": s.level,
                    "dim": len(s.u.coeffs),
                    "grad_norm_p": s.grad_norm,
                    "residual_sup": s.residual_sup,
                    "R": s.radius,
                    "apriori_margin": s.apriori_margin,
                    "energy_gap": s.energy_gap,
                    "newton_iters": s.newton_iters,
                    "outer_iters": s.outer_iters,
                    "continuation_stages": s.continuation_stages,
                    "sphere_margin": s.sphere_margin,
                    "sphere_negative": s.sphere_negative,
                    "sphere_q05": s.sphere_q05,
                    "sphere_median": s.sphere_median,
                    "converged": s.converged,
                    "diag_a": None if d is None else d.weak_gap,
                    "diag_b": None if d is None else d.residual_gap,
                    "diag_c_strong": None if d is None else d.pairing_gap,
                    "diag_c_full": None if d is None else d.full_gap,
                    "coefficients": [float(c) for c in s.u.coeffs],
                }
            )
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
            "levels": levels,
        }

    def csv_rows(self) -> list:
        levels = self.to_json_dict()["levels"]
        return [CSV_COLUMNS] + [[lv[c] for c in CSV_COLUMNS] for lv in levels]


def required_exponents(inst: ProblemInstance) -> list:
    env = inst.envelope
    pc = inst.p_crit
    p = inst.p
    wanted = {
        env.r,
        p,
        pc,
        1.0,
        pc / (pc - env.alpha),
        p / (p - env.beta),
        pc / (pc - p + 1.0),
    }
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
    reports = [
        check_growth_smallness(env.a1, env.a2, cert, constants, env.alpha, env.beta)
    ]
    if inst.operator.kind == "boundary_lift":
        reports.append(check_lift_condition(env.a1, env.a2, inst.p, constants))
    if inst.operator.kind == "convolution":
        reports.append(
            check_convolution_condition(
                env.a1, env.a2, inst.p, constants.n_dim,
                inst.operator.kernel.l1_norm, constants,
            )
        )
    return constants, cert, reports


def run_hierarchy(
    inst: ProblemInstance,
    levels: Optional[int] = None,
    config_echo: Optional[dict] = None,
    test_set_size: int = 8,
) -> SolveReport:
    """Solve every level, certify the sphere condition, and diagnose limits.

    The safeguard radius is computed once from the instance constants; each
    level warm-starts from the prolongated previous solution.  Any level
    failure aborts with a partial report (status ``solver_failure``); a
    failed smallness check aborts beforehand under the ``refuse`` policy and
    when no finite radius exists.
    """
    h = inst.hierarchy
    top = h.n_levels if levels is None else min(levels, h.n_levels)

    constants, cert, reports = constants_and_hypotheses(inst)
    failed = [r for r in reports if not r.passed]
    kappa = reports[0].value

    base = SolveReport(
        status="ok", radius=None, kappa=kappa, c0=None, constants=constants,
        hypothesis=reports, certificate=cert, levels=[], diagnostics=[],
        seed=inst.seed, config=config_echo,
    )
    if failed:
        names = ", ".join(r.name for r in failed)
        if inst.policy == "refuse":
            base.status = "hypothesis_failed"
            base.message = f"hypothesis checks failed: {names}"
            raise HypothesisRefusal(base.message, base)
        if kappa >= 1.0:
            base.status = "hypothesis_failed"
            base.message = (
                f"hypothesis checks failed ({names}) and kappa = {kappa:.6g} >= 1 "
                "leaves no finite safeguard radius; cannot continue even under warn"
            )
            raise HypothesisRefusal(base.message, base)
        base.message = f"continuing despite failed checks: {names}"

    sigma_norm = inst.envelope.sigma.dual_norm(
        sample(h.zero(top)), inst.envelope.r
    )
    c0 = compose_c0(inst.envelope, sigma_norm, cert, constants)
    R = coercivity_radius(kappa, h.measure, inst.p, inst.q, c0)
    base.radius = R
    base.c0 = c0

    solves = []
    base.levels = solves
    warm = None
    for n in range(1, top + 1):
        if h.level(n).n_free == 0:
            continue
        result = solve_level(inst, n, R, warm=warm)
        sphere = sphere_certificate(inst, n, R, inst.sphere_samples, inst.seed)
        result = replace(result, sphere_margin=sphere.margin, sphere_negative=sphere.negative,
                         sphere_q05=sphere.quantile(0.05), sphere_median=sphere.quantile(0.5))
        solves.append(result)
        if not result.converged:
            base.status = "solver_failure"
            base.message = (
                f"level {n} did not converge (residual sup {result.residual_sup:.3e})"
            )
            return base
        warm = prolongate(result.u, min(n + 1, top))
    if solves:
        base.diagnostics = convergence_diagnostics(
            inst, solves, solves[-1].u, test_set_size=test_set_size
        )
    return base
