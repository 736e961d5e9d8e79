"""Embedding constants, growth smallness checks, and the safeguard radius.

The Dirichlet embedding constants S_r with ||u||_r <= S_r ||grad u||_p are
estimated by projected ascent of the Rayleigh-type ratio over the finite
element space.  The ascent steps along the H^1_0 (Sobolev) gradient: the
Euclidean gradient preconditioned by the level's P1 stiffness matrix,
factorised once per level, which keeps the step count nearly independent of
the mesh size (Neuberger, Sobolev Gradients and Differential Equations).
All starts of a level are ascended together as one coefficient block,
through the level operators and block forms of
:mod:`competefem.discretization` that also carry the residual, the
Jacobian and the norms; each start still takes its own steps.  The raw
numbers are ratios attained by finite element functions, so they stay
lower bounds of the true constants; reports say whether each estimator
converged and, per level, the most steps any start took.  A configurable
safety factor inflates them before they enter any hypothesis check; reports
keep both numbers.  The first eigenvalue of the p-Laplacian is the same
Rayleigh quotient read the other way: lambda_1 = S_p,raw^{-p}, an upper
bound because S_p,raw is a lower bound.  It comes from the ascent at r = p
and has no optimiser of its own.

When the critical Sobolev exponent is unavailable (p >= space dimension at
desk scale) a finite surrogate is used everywhere; the default is 2p.  The
whole-space constant needed by convolution certificates has no meaning in
that regime either, so the domain estimate at the surrogate exponent stands
in for it, flagged in the provenance.  Below the dimension the surrogate
defaults to p* = Np/(N-p), and the provenance names it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .discretization import (
    SpaceHierarchy,
    _column_dots,
    _grad_force,
    _grad_integral,
    _gradients,
    _qp_values,
    _value_integral,
    _value_load,
    sine_mode,
)


class ConstantLookupError(KeyError):
    """An embedding constant at a required exponent was not estimated."""


class HypothesisError(ValueError):
    """A hypothesis precondition is structurally violated."""


def critical_surrogate(p: float, n_dim: int, override: float | None = None) -> float:
    """Np/(N-p) when p < N, otherwise a finite stand-in (default 2p)."""
    if override is not None:
        if override <= p:
            raise ValueError(f"critical surrogate must exceed p, got {override} <= {p}")
        return float(override)
    if p < n_dim:
        return n_dim * p / (n_dim - p)
    return 2.0 * p


def _key(r: float) -> float:
    return round(float(r), 12)


@dataclass(frozen=True)
class SEstimate:
    raw: float
    value: float  # raw times the safety factor
    provenance: str
    converged: bool = False
    iters: tuple = ()  # per level, the most ascent steps any start took


@dataclass(frozen=True, eq=False)
class EmbeddingConstants:
    """Estimated constants of one problem: S_r map, eigenvalue, surrogates."""

    p: float
    n_dim: int
    p_crit: float
    safety: float
    entries: dict = field(default_factory=dict)     # key(r) -> SEstimate
    lambda1p: float | None = None
    lambda_profile: tuple = ()
    lambda1p_converged: bool = False
    s_space: float | None = None
    s_space_provenance: str = ""

    def S(self, r: float) -> float:
        try:
            return self.entries[_key(r)].value
        except KeyError:
            raise ConstantLookupError(
                f"no embedding constant estimated at exponent r = {r}"
            ) from None

    def S_raw(self, r: float) -> float:
        try:
            return self.entries[_key(r)].raw
        except KeyError:
            raise ConstantLookupError(
                f"no embedding constant estimated at exponent r = {r}"
            ) from None

    def with_entry(self, r: float, est: SEstimate) -> "EmbeddingConstants":
        return replace(self, entries={**self.entries, _key(r): est})

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "N": self.n_dim,
            "p_crit": self.p_crit,
            "safety": self.safety,
            "lambda1p": self.lambda1p,
            "lambda1p_profile": list(self.lambda_profile),
            "lambda1p_converged": self.lambda1p_converged,
            "S": {
                repr(k): {"raw": e.raw, "value": e.value, "provenance": e.provenance,
                          "converged": e.converged, "iters": list(e.iters)}
                for k, e in sorted(self.entries.items())
            },
            "S_space": {"value": self.s_space, "provenance": self.s_space_provenance},
        }


@dataclass(frozen=True)
class EstimateResult:
    value: float
    raw: float
    per_level: tuple
    converged: bool
    iters: tuple  # per level, the most ascent steps any start took


# ---------------------------------------------------------------------------
# Rayleigh-type optimisation over a level
# ---------------------------------------------------------------------------


def _stiffness_solve(lvl):
    """K^{-1} on a vector or an (n_free, k) block, K the level's P1 stiffness matrix.

    K = grad_op^T diag(|e|) grad_op on the free dofs, factorised once.
    """
    weights = sp.diags(np.tile(lvl.elem_measure, lvl.mesh.dim))
    return splu((lvl.grad_op_t @ weights @ lvl.grad_op).tocsc()).solve


def _ascend_embedding(lvl, r, p, starts, iters, tol):
    """Monotone projected ascent of ||u||_r with ||grad u||_p fixed to one.

    Each step follows the H^1_0 (Sobolev) gradient d = K^{-1} g of the
    Euclidean gradient g, K the level's stiffness matrix, so the step count
    barely grows under refinement, where g alone conditions like h^-2.
    Every column of ``starts`` is its own ascent, with its own step size,
    backtracking and stopping test; the columns only share the array
    operations of each step.  Returns per-column values, the final
    coefficient block, per-column convergence flags and step counts.
    """
    solve = _stiffness_solve(lvl)
    n_cols = starts.shape[1]
    value, final = np.empty(n_cols), np.empty_like(starts)
    converged = np.zeros(n_cols, dtype=bool)
    taken = np.zeros(n_cols, dtype=int)
    # state of the ascents still running; ids are their columns in starts
    ids = np.arange(n_cols)
    coeffs = starts / _grad_integral(lvl, _gradients(lvl, starts), p) ** (1.0 / p)
    grads, vals = _gradients(lvl, coeffs), _qp_values(lvl, coeffs)
    N = _value_integral(lvl.qp_weights, vals, r) ** (1.0 / r)
    step = np.ones(n_cols)
    for it in range(1, iters + 1):
        # ||grad u||_p is one after every normalisation
        grad = (N ** (1.0 - r) * _value_load(lvl, vals, r)
                - N * _grad_force(lvl, grads, p))
        direction = solve(grad)
        slope = _column_dots(grad, direction)
        t = 2.0 * step
        # an accepted trial overwrites its column; the others stay put
        cand, cand_vals, cN = coeffs.copy(), vals.copy(), N.copy()
        accepted = np.zeros(len(N), dtype=bool)
        trying = np.flatnonzero(slope > 0)  # a zero gradient stops its ascent
        for _ in range(60):
            if not trying.size:
                break
            trial = coeffs[:, trying] + t[trying] * direction[:, trying]
            # a zero or overflowing trial gives nan or zero below and is
            # rejected like any trial that fails the Armijo test
            trial = trial / _grad_integral(lvl, _gradients(lvl, trial), p) ** (1.0 / p)
            trial_vals = _qp_values(lvl, trial)
            trial_N = _value_integral(lvl.qp_weights, trial_vals, r) ** (1.0 / r)
            ok = trial_N > N[trying] + 1e-4 * t[trying] * slope[trying]
            hit = trying[ok]
            cand[:, hit], cand_vals[:, hit], cN[hit] = trial[:, ok], trial_vals[:, ok], trial_N[ok]
            accepted[hit] = True
            trying = trying[~ok]
            t[trying] *= 0.5
        stop = ~accepted | ((cN - N) / np.maximum(N, 1e-300) < tol)
        coeffs, vals, N, step = cand, cand_vals, cN, t
        if stop.any():
            done = ids[stop]
            final[:, done], value[done], converged[done] = coeffs[:, stop], N[stop], True
            taken[done] = it
            go = ~stop
            ids, coeffs, vals, N, step = ids[go], coeffs[:, go], vals[:, go], N[go], step[go]
            if not ids.size:
                break
        grads = _gradients(lvl, coeffs)
    final[:, ids], value[ids], taken[ids] = coeffs, N, iters
    return value, final, converged, taken


def estimate_embedding_constant(
    h: SpaceHierarchy,
    r: float,
    p: float,
    starts: int = 8,
    iters: int = 300,
    tol: float = 1e-11,
    safety: float = 1.1,
    seed: int = 0,
) -> EstimateResult:
    """Estimate S_r = sup ||u||_r / ||grad u||_p over the finest level.

    Projected ascent along the H^1_0 gradient with multiple deterministic
    starts (a sine interpolant, seeded random vectors, and the prolongated
    best of the coarser level).  The raw maximum is a lower bound of the
    true constant; ``value`` is the raw number times the safety factor.
    ``iters`` holds, per level, the most steps any start took.
    """
    if r < 1:
        raise ValueError(f"embedding exponent must satisfy r >= 1, got {r}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, int(round(r * 1e6)))))
    per_level, steps = [], []
    best_coeffs = None
    ok = True
    for n in range(1, h.n_levels + 1):
        lvl = h.level(n)
        if lvl.n_free == 0:
            per_level.append(0.0)
            steps.append(0)
            continue
        candidates = [sine_mode(h, n).coeffs]
        if best_coeffs is not None:
            candidates.append(lvl.prolongation @ best_coeffs)
        for _ in range(max(0, starts - 1)):
            candidates.append(rng.standard_normal(lvl.n_free))
        block = np.column_stack([c for c in candidates if np.any(c)])
        vals, coeffs, conv, taken = _ascend_embedding(lvl, r, p, block, iters, tol)
        ok = ok and bool(np.all(conv))
        steps.append(int(taken.max()))
        best = int(np.argmax(vals))  # the first maximum in candidate order
        per_level.append(float(vals[best]))
        best_coeffs = coeffs[:, best]
    raw = per_level[-1]
    return EstimateResult(value=safety * raw, raw=raw, per_level=tuple(per_level),
                          converged=ok, iters=tuple(steps))


def _eigenvalue_of(s_p: EstimateResult, p: float) -> EstimateResult:
    """lambda_1 = S_p^{-p}, level by level, from the raw ascent at r = p.

    A level without free dofs has no eigenfunction and reads infinity.
    """
    per_level = tuple(s ** -p if s > 0 else math.inf for s in s_p.per_level)
    return EstimateResult(value=per_level[-1], raw=per_level[-1], per_level=per_level,
                          converged=s_p.converged, iters=s_p.iters)


def estimate_lambda1p(
    h: SpaceHierarchy,
    p: float,
    starts: int = 8,
    iters: int = 300,
    seed: int = 0,
) -> EstimateResult:
    """First p-Laplacian eigenvalue, read off the embedding ascent at r = p.

    lambda_1 = S_p,raw^{-p} is an upper bound of the true eigenvalue because
    S_p,raw is a lower bound of S_p.  The prolongated best start makes the
    per-level estimates nonincreasing.
    """
    if p <= 1:
        raise ValueError(f"eigenvalue exponent must satisfy p > 1, got {p}")
    s_p = estimate_embedding_constant(h, p, p, starts=starts, iters=iters, seed=seed)
    return _eigenvalue_of(s_p, p)


def build_constants(
    h: SpaceHierarchy,
    p: float,
    p_crit: float,
    exponents,
    safety: float = 1.1,
    starts: int = 8,
    iters: int = 300,
    seed: int = 0,
) -> EmbeddingConstants:
    """Estimate every requested embedding constant, S_p always, and the eigenvalue."""
    entries = {}
    for r in sorted({_key(r) for r in exponents} | {_key(p)}):
        est = estimate_embedding_constant(
            h, r, p, starts=starts, iters=iters, safety=safety, seed=seed
        )
        entries[r] = SEstimate(
            raw=est.raw, value=est.value,
            provenance=("H^1_0-preconditioned projected ascent over the finest "
                        "level, times safety factor"),
            converged=est.converged, iters=est.iters,
        )
        if r == _key(p):
            lam = _eigenvalue_of(est, p)
    s_space = None
    prov = ""
    if _key(p_crit) in entries:
        s_space = entries[_key(p_crit)].value
        prov = ("domain estimate at the critical surrogate standing in for the "
                "whole-space constant")
        if p < h.dim:
            prov += f" at p* = Np/(N-p) = {h.dim * p / (h.dim - p):.12g} (p < N)"
        else:
            prov += " (no critical exponent when p >= N)"
    return EmbeddingConstants(
        p=p, n_dim=h.dim, p_crit=p_crit, safety=safety, entries=entries,
        lambda1p=lam.value, lambda_profile=lam.per_level,
        lambda1p_converged=lam.converged,
        s_space=s_space, s_space_provenance=prov,
    )


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    name: str
    value: float
    margin: float
    passed: bool
    constants: dict

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "margin": self.margin,
            "pass": self.passed,
            "constants": dict(self.constants),
        }


def _smallness_value(a1, k1, s_a, a2, k2, s_b) -> float:
    # shared expression so that specialised checks agree bitwise with the
    # generic one under constant substitution
    return a1 * k1 * s_a + a2 * k2 * s_b


def check_growth_smallness(
    a1: float,
    a2: float,
    cert,
    constants: EmbeddingConstants,
    alpha: float,
    beta: float,
) -> HypothesisReport:
    """a1 K1 S_{pc/(pc-alpha)} + a2 K2 S_{p/(p-beta)} must stay below one."""
    pc = constants.p_crit
    p = constants.p
    s_a = constants.S(pc / (pc - alpha))
    s_b = constants.S(p / (p - beta))
    value = _smallness_value(a1, cert.value_coeff, s_a, a2, cert.grad_coeff, s_b)
    return HypothesisReport(
        name="growth_smallness",
        value=value,
        margin=1.0 - value,
        passed=value < 1.0,
        constants={
            "a1": a1, "a2": a2, "K1": cert.value_coeff, "K2": cert.grad_coeff,
            "S_value_pair": s_a, "S_grad_pair": s_b, "alpha": alpha, "beta": beta,
        },
    )


def check_lift_condition(a1: float, a2: float, p: float,
                         constants: EmbeddingConstants) -> HypothesisReport:
    """Smallness for the nonhomogeneous problem via the additive lift.

    Instantiates the generic smallness with K1 = m S_{pc}^{p-1}, K2 = m,
    m = max(2^{p-2}, 1), at alpha = beta = p-1, pairing the convection parts
    with S_{pc/(pc-p+1)} and S_1.
    """
    pc = constants.p_crit
    m = max(2.0 ** (p - 2.0), 1.0)
    k1 = m * constants.S(pc) ** (p - 1.0)
    s_a = constants.S(pc / (pc - p + 1.0))
    s_b = constants.S(1.0)
    value = _smallness_value(a1, k1, s_a, a2, m, s_b)
    return HypothesisReport(
        name="lift_condition",
        value=value,
        margin=1.0 - value,
        passed=value < 1.0,
        constants={
            "a1": a1, "a2": a2, "K1": k1, "K2": m, "max_factor": m,
            "S_crit": constants.S(pc), "S_value_pair": s_a, "S_1": s_b, "p": p,
        },
    )


def check_convolution_condition(
    a1: float,
    a2: float,
    p: float,
    n_dim: int,
    kernel_l1: float,
    constants: EmbeddingConstants,
) -> HypothesisReport:
    """Smallness for the mollified problem, scaled by (N ||rho||_1)^{p-1}."""
    if not kernel_l1 > 0:
        raise HypothesisError(f"kernel L1 norm must be positive, got {kernel_l1}")
    pc = constants.p_crit
    if constants.s_space is None:
        raise ConstantLookupError("no whole-space constant surrogate available")
    factor = n_dim ** (p - 1.0) * kernel_l1 ** (p - 1.0)
    k1 = factor * constants.s_space ** (p - 1.0)
    s_a = constants.S(pc / (pc - p + 1.0))
    s_b = constants.S(1.0)
    value = _smallness_value(a1, k1, s_a, a2, factor, s_b)
    return HypothesisReport(
        name="convolution_condition",
        value=value,
        margin=1.0 - value,
        passed=value < 1.0,
        constants={
            "a1": a1, "a2": a2, "K1": k1, "K2": factor, "kernel_l1": kernel_l1,
            "S_space": constants.s_space, "S_value_pair": s_a, "S_1": s_b,
            "p": p, "N": n_dim,
        },
    )


# ---------------------------------------------------------------------------
# safeguard radius
# ---------------------------------------------------------------------------


def coercivity_radius(
    kappa: float,
    omega_measure: float,
    p: float,
    q: float,
    c0: float,
) -> float:
    """Largest root R of (1-kappa) t^{p-1} - |Omega|^{(p-q)/p} t^{q-1} - c0.

    Beyond R the operator pairing against the sphere is nonnegative, so a
    discrete solution exists inside the ball of radius R.  Root found by
    bracket expansion plus bisection, then polished; the nonnegativity of g
    past R is re-verified on a log grid.
    """
    if not kappa < 1.0:
        raise HypothesisError(
            f"growth smallness hypothesis violated: kappa = {kappa} >= 1"
        )
    if kappa < 0 or c0 < 0 or omega_measure <= 0 or not 1 < q < p:
        raise ValueError(
            f"invalid radius inputs: kappa={kappa}, |Omega|={omega_measure}, p={p}, q={q}, c0={c0}"
        )
    w = omega_measure ** ((p - q) / p)

    def g(t):
        return (1.0 - kappa) * t ** (p - 1.0) - w * t ** (q - 1.0) - c0

    def dg(t):
        return (1.0 - kappa) * (p - 1.0) * t ** (p - 2.0) - w * (q - 1.0) * t ** (q - 2.0)

    hi = 1.0
    for _ in range(400):
        if g(hi) > 0:
            break
        hi *= 2.0
    else:
        raise ArithmeticError("failed to bracket the safeguard radius from above")
    lo = hi / 2.0
    for _ in range(2000):
        if g(lo) <= 0:
            break
        lo /= 2.0
    else:
        raise ArithmeticError("failed to bracket the safeguard radius from below")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-12 * hi:
            break
    R = 0.5 * (lo + hi)
    for _ in range(3):
        d = dg(R)
        if d <= 0:
            break
        step = g(R) / d
        if abs(step) > 0.5 * R:
            break
        R -= step
    if R < lo or abs(g(R)) > abs(g(0.5 * (lo + hi))):
        R = 0.5 * (lo + hi)
    # g must stay nonnegative past R; allow rounding noise right at R
    grid = R * np.logspace(0.0, 2.0, 60)
    vals = (1.0 - kappa) * grid ** (p - 1.0) - w * grid ** (q - 1.0) - c0
    floor = -1e-8 * max(1.0, abs(c0), (1.0 - kappa) * R ** (p - 1.0))
    if np.any(vals < floor):
        raise ArithmeticError("safeguard radius verification failed on the log grid")
    return float(R)


def compose_c0(env, sigma_dual_norm: float, cert, constants: EmbeddingConstants) -> float:
    """Constant term of the coercivity polynomial.

    Collects the convection contributions that do not scale with the leading
    power: S_r ||sigma||_{r'} plus the certificate offset paired with the
    same embedding constants as the growth terms.
    """
    pc = constants.p_crit
    p = constants.p
    c0 = constants.S(env.r) * sigma_dual_norm
    if env.a1 > 0 or cert.offset > 0:
        c0 += env.a1 * cert.offset * constants.S(pc / (pc - env.alpha))
        c0 += env.a2 * cert.offset * constants.S(p / (p - env.beta))
    return float(c0)
