"""Embedding constants, the growth smallness check, and the safeguard radius.

The Dirichlet embedding constants S_r with ||u||_r <= S_r ||grad u||_p are
estimated by projected ascent of the Rayleigh-type ratio over the finite
element space.  The ascent steps along the H^1_0 (Sobolev) gradient: the
Euclidean gradient preconditioned by the level's P1 stiffness matrix K,
which keeps the step count nearly independent of the mesh size (Neuberger,
Sobolev Gradients and Differential Equations).  The starts of every
exponent of a level are ascended together as one coefficient block, so K is
factorised once per level and one loop steps all of them, through the level
operators and block forms of :mod:`competefem.discretization` that also
carry the residual, the Jacobian and the norms.  Each start still takes its
own steps, and each exponent its own starts, so an estimate does not depend
on which other exponents were ascended beside it.  Random starts are drawn
on the first level with free dofs only, where each exponent ascends the sine
interpolant and ``starts - 1`` seeded random vectors; every finer level
polishes two starts per exponent, the sine interpolant and the prolongated
best of the coarser level.  A step backtracks from twice the last accepted
one until the sufficient-increase (Armijo) test with constant
``ASCENT_ARMIJO`` holds (Nocedal and Wright, Numerical Optimization,
section 3.1).  The raw numbers are ratios attained by finite element
functions, so they stay lower bounds of the true constants; reports say
whether each estimator converged and, per level, the raw value and the
most steps any start took.  A configurable
safety factor inflates them before they enter any hypothesis check; reports
keep both numbers.  The first eigenvalue of the p-Laplacian is the same
Rayleigh quotient read the other way: lambda_1 = S_p,raw^{-p}, an upper
bound because S_p,raw is a lower bound.  It comes from the ascent at r = p
and has no optimiser of its own.

Each smallness condition a1 K1 S_a + a2 K2 S_b < 1 is a row of
:func:`smallness_pairings`, the exponents of S_a and S_b; K1 and K2 are the
growth certificate's.  :func:`check_smallness` evaluates a row, and the
solver estimates only the exponents some row or ``compose_c0`` reads.  A
pair constant is read only under a positive coefficient.  Under a zero one
its term is exactly 0.0, which is also what the product with the constant
would give, and reports show the constant as None.

When the critical Sobolev exponent is unavailable (p >= space dimension at
desk scale) a finite surrogate is used everywhere; the default is 2p.  The
whole-space constant needed by convolution certificates has no meaning in
that regime either, so the domain estimate at the surrogate exponent stands
in for it, flagged in the provenance.  Below the dimension the surrogate
defaults to p* = Np/(N-p), and the provenance names it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .discretization import (
    SpaceHierarchy,
    _column_dots,
    _finite,
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
    """Np/(N-p) when p < N, otherwise a finite stand-in (default 2p).

    An override must exceed p and, when p < N, stay at most the Sobolev
    exponent Np/(N-p), past which W^{1,p}_0 does not embed.
    """
    sobolev = n_dim * p / (n_dim - p) if p < n_dim else math.inf
    if override is not None:
        if override <= p:
            raise ValueError(f"critical surrogate must exceed p, got {override} <= {p}")
        if override > sobolev:
            raise ValueError(f"critical surrogate must be at most Np/(N-p) = {sobolev:.12g} "
                             f"when p < N, got {override}")
        return float(override)
    return sobolev if p < n_dim else 2.0 * p


def _key(r: float) -> float:
    return round(float(r), 12)


@dataclass(frozen=True)
class SEstimate:
    """One estimated constant: its finest-level value and how it was obtained."""

    raw: float
    value: float  # the reported value; for S_r, raw times the safety factor
    provenance: str
    converged: bool = False
    iters: tuple = ()  # per level, the most ascent steps any start took
    per_level: tuple = ()  # raw value on each level


@dataclass(frozen=True, eq=False)
class EmbeddingConstants:
    """Estimated constants of one problem: S_r map, eigenvalue, surrogates."""

    p: float
    n_dim: int
    p_crit: float
    safety: float
    entries: dict = field(default_factory=dict)     # key(r) -> SEstimate

    def S(self, r: float) -> float:
        try:
            return self.entries[_key(r)].value
        except KeyError:
            raise ConstantLookupError(
                f"no embedding constant estimated at exponent r = {r}"
            ) from None

    @property
    def eigenvalue(self) -> SEstimate | None:
        """lambda_1 read off the S_p entry; None without that entry."""
        s_p = self.entries.get(_key(self.p))
        return None if s_p is None else _eigenvalue_of(s_p, self.p)

    @property
    def s_space(self) -> float | None:
        """The whole-space constant, for which the S_pc entry stands in; None without it."""
        s_pc = self.entries.get(_key(self.p_crit))
        return None if s_pc is None else s_pc.value

    def to_json_dict(self) -> dict:
        # without S_p: no eigenvalue, an empty profile, not converged
        lam = self.eigenvalue or SEstimate(raw=None, value=None, provenance="")
        space = "" if self.s_space is None else (
            "domain estimate at the critical surrogate standing in for the whole-space constant"
            + (f" at p* = Np/(N-p) = {critical_surrogate(self.p, self.n_dim):.12g} (p < N)"
               if self.p < self.n_dim else " (no critical exponent when p >= N)"))
        return {
            "p": self.p,
            "N": self.n_dim,
            "p_crit": self.p_crit,
            "safety": self.safety,
            "lambda1p": lam.value,
            "lambda1p_profile": list(lam.per_level),
            "lambda1p_converged": lam.converged,
            "S": {
                repr(k): {"raw": e.raw, "value": e.value, "provenance": e.provenance,
                          "converged": e.converged, "iters": list(e.iters),
                          "per_level": list(e.per_level)}
                for k, e in sorted(self.entries.items())
            },
            "S_space": {"value": self.s_space, "provenance": space},
        }


# ---------------------------------------------------------------------------
# Rayleigh-type optimisation over a level
# ---------------------------------------------------------------------------


ASCENT_TOL = 1e-11  # relative gain of one step below which an ascent stops
# sufficient-increase (Armijo) constant of the backtracking test; on a line
# whose gain is locally quadratic it rejects any trial past 1.8 times the
# line optimum, so doubling the last accepted step cannot lock near 2 times it
ASCENT_ARMIJO = 0.1


def _stiffness_solve(lvl):
    """K^{-1} on a vector or an (n_free, k) block, K the level's P1 stiffness matrix.

    K = grad_op^T diag(|e|) grad_op on the free dofs, factorised once.
    """
    weights = sp.diags(np.tile(lvl.elem_measure, lvl.mesh.dim))
    return splu((lvl.grad_op_t @ weights @ lvl.grad_op).tocsc()).solve


def _exponent_slices(owner, rs):
    """(r, columns) of every exponent of ``rs`` that owns columns.

    ``owner`` holds, per column, its exponent's index into ``rs`` and is
    sorted, so the columns of one exponent are one slice.
    """
    bounds = np.searchsorted(owner, np.arange(len(rs) + 1))
    return [(r, slice(a, b)) for r, a, b in zip(rs, bounds[:-1], bounds[1:]) if a < b]


def _r_norms(lvl, vals, slices):
    """||u||_r of every column from its quadrature values, at its own r."""
    N = np.empty(vals.shape[1])
    for r, cols in slices:
        N[cols] = _value_integral(lvl.qp_weights, vals[:, cols], r) ** (1.0 / r)
    return N


def _ascend_embedding(lvl, rs, p, blocks, iters, tol):
    """Monotone projected ascent of ||u||_r with ||grad u||_p fixed to one.

    ``blocks[i]`` holds the starts of exponent ``rs[i]``, one per column.
    Each step follows the H^1_0 (Sobolev) gradient d = K^{-1} g of the
    Euclidean gradient g, K the level's stiffness matrix, so the step count
    barely grows under refinement, where g alone conditions like h^-2.
    Every column is its own ascent, with its own step size, backtracking
    and stopping test; all columns of all exponents share K's factorisation
    and the array operations of each step.  Work that depends on r runs per
    exponent, on a scalar r: numpy's power takes its square and square-root
    paths only for a scalar exponent, and every column must get the bits of
    a one-exponent ascent.  Returns, per exponent, the per-column values,
    the final coefficient block, convergence flags and step counts.
    """
    solve = _stiffness_solve(lvl)
    starts = np.hstack(blocks)
    n_cols = starts.shape[1]
    value, final = np.empty(n_cols), np.empty_like(starts)
    converged = np.zeros(n_cols, dtype=bool)
    taken = np.zeros(n_cols, dtype=int)
    # state of the ascents still running; ids are their columns in starts,
    # owner their exponents, both sorted
    ids = np.arange(n_cols)
    owner = np.repeat(np.arange(len(rs)), [b.shape[1] for b in blocks])
    slices = by_exponent = _exponent_slices(owner, rs)
    coeffs = starts / _grad_integral(lvl, _gradients(lvl, starts), p) ** (1.0 / p)
    grads, vals = _gradients(lvl, coeffs), _qp_values(lvl, coeffs)
    N = _r_norms(lvl, vals, slices)
    step = np.ones(n_cols)
    for it in range(1, iters + 1):
        # ||grad u||_p is one after every normalisation
        force = N * _grad_force(lvl, grads, p)
        grad, direction = np.empty_like(force), np.empty_like(force)
        for r, cols in slices:
            grad[:, cols] = (N[cols] ** (1.0 - r) * _value_load(lvl, vals[:, cols], r)
                             - force[:, cols])
            direction[:, cols] = solve(grad[:, cols])
        slope = _column_dots(grad, direction)
        t = 2.0 * step
        # an accepted trial overwrites its column; the others stay put
        cand, cN = coeffs.copy(), N.copy()
        accepted = np.zeros(len(N), dtype=bool)
        trying = np.flatnonzero(slope > 0)  # a zero gradient stops its ascent
        for _ in range(60):
            if not trying.size:
                break
            trial = coeffs[:, trying] + t[trying] * direction[:, trying]
            # a zero trial, or one with an infinite norm, gives nan or zero
            # below and is rejected like any trial that fails the Armijo test
            trial = trial / _grad_integral(lvl, _gradients(lvl, trial), p) ** (1.0 / p)
            trial_N = _r_norms(lvl, _qp_values(lvl, trial), _exponent_slices(owner[trying], rs))
            ok = trial_N > N[trying] + ASCENT_ARMIJO * t[trying] * slope[trying]
            hit = trying[ok]
            cand[:, hit], cN[hit] = trial[:, ok], trial_N[ok]
            accepted[hit] = True
            trying = trying[~ok]
            t[trying] *= 0.5
        stop = ~accepted | ((cN - N) / np.maximum(N, 1e-300) < tol)
        coeffs, N, step = cand, cN, t
        if stop.any():
            done = ids[stop]
            final[:, done], value[done], converged[done] = coeffs[:, stop], N[stop], True
            taken[done] = it
            go = ~stop
            ids, owner, coeffs, N, step = ids[go], owner[go], coeffs[:, go], N[go], step[go]
            if not ids.size:
                break
            slices = _exponent_slices(owner, rs)
        # values are recomputed rather than carried, which saves a copy of
        # the block; each column of the product has the bits of its trial
        grads, vals = _gradients(lvl, coeffs), _qp_values(lvl, coeffs)
    final[:, ids], value[ids], taken[ids] = coeffs, N, iters
    return [(value[cols], final[:, cols], converged[cols], taken[cols])
            for _, cols in by_exponent]


def _estimate_embedding_constants(h, rs, p, starts, iters, tol, safety, seed):
    """One :class:`SEstimate` per exponent of ``rs``, ascended together.

    Each exponent keeps its own starts, so its result does not depend on the
    other exponents.  On the first level with free dofs these are the sine
    interpolant and ``starts - 1`` random vectors from the exponent's own
    generator, which draws on that level only; every finer level ascends the
    sine interpolant and the prolongated best of the coarser level.
    """
    for r in rs:
        if r < 1:
            raise ValueError(f"embedding exponent must satisfy r >= 1, got {r}")
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, int(round(r * 1e6)))))
            for r in rs]
    best_coeffs = [None] * len(rs)
    levels = []  # per level, (value, steps, converged) of every exponent
    for n in range(1, h.n_levels + 1):
        lvl = h.level(n)
        if lvl.n_free == 0:
            levels.append([(0.0, 0, True)] * len(rs))
            continue
        sine = sine_mode(h, n).coeffs
        blocks = []
        for rng, best in zip(rngs, best_coeffs):
            if best is None:  # the first level with free dofs
                candidates = [sine] + [rng.standard_normal(lvl.n_free) for _ in range(starts - 1)]
            else:
                candidates = [sine, lvl.prolongation @ best]
            blocks.append(np.column_stack([c for c in candidates if np.any(c)]))
        row = []
        for i, (vals, coeffs, conv, taken) in enumerate(
                _ascend_embedding(lvl, rs, p, blocks, iters, tol)):
            best = int(np.argmax(vals))  # the first maximum in candidate order
            best_coeffs[i] = coeffs[:, best]
            row.append((float(vals[best]), int(taken.max()), bool(np.all(conv))))
        levels.append(row)
    results = []
    for per_level in zip(*levels):
        prof, steps, conv = zip(*per_level)
        results.append(SEstimate(raw=prof[-1], value=safety * prof[-1],
                                 provenance=("H^1_0-preconditioned projected ascent over "
                                             "the finest level, times safety factor"),
                                 converged=all(conv), iters=steps, per_level=prof))
    return results


def estimate_embedding_constant(
    h: SpaceHierarchy,
    r: float,
    p: float,
    starts: int = 8,
    iters: int = 300,
    tol: float = ASCENT_TOL,
    safety: float = 1.1,
    seed: int = 0,
) -> SEstimate:
    """Estimate S_r = sup ||u||_r / ||grad u||_p over the finest level.

    Projected ascent along the H^1_0 gradient with deterministic starts: a
    sine interpolant and ``starts - 1`` seeded random vectors on the first
    level with free dofs, then on each finer level the sine interpolant and
    the prolongated best of the coarser level.  The raw maximum is a lower
    bound of the true constant; ``value`` is the raw number times the safety
    factor.  ``iters`` holds, per level, the most steps any start took.  This
    is the one-exponent case of :func:`build_constants`' estimation, with the
    same numbers bit for bit.
    """
    return _estimate_embedding_constants(h, [r], p, starts, iters, tol, safety, seed)[0]


def _eigenvalue_of(s_p: SEstimate, p: float) -> SEstimate:
    """lambda_1 = S_p^{-p}, level by level, from the raw ascent at r = p.

    A level without free dofs has no eigenfunction and reads None.
    """
    per_level = tuple(s ** -p if s > 0 else None for s in s_p.per_level)
    return SEstimate(raw=per_level[-1], value=per_level[-1],
                     provenance="S_p,raw^(-p) of the ascent at r = p",
                     converged=s_p.converged, iters=s_p.iters, per_level=per_level)


def estimate_lambda1p(
    h: SpaceHierarchy,
    p: float,
    starts: int = 8,
    iters: int = 300,
    seed: int = 0,
) -> SEstimate:
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
    """Estimate every requested embedding constant, S_p always, which gives the eigenvalue.

    All exponents are ascended together, one block per level, and each
    entry equals :func:`estimate_embedding_constant` at its exponent.
    """
    rs = sorted({_key(r) for r in exponents} | {_key(p)})
    entries = dict(zip(rs, _estimate_embedding_constants(h, rs, p, starts, iters, ASCENT_TOL,
                                                         safety, seed)))
    return EmbeddingConstants(p=p, n_dim=h.dim, p_crit=p_crit, safety=safety, entries=entries)


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
            "value": _finite(self.value),
            "margin": _finite(self.margin),
            "pass": self.passed,
            "constants": {**self.constants, "K1": _finite(self.constants["K1"]),
                          "K2": _finite(self.constants["K2"])},
        }


def _pair(constants: EmbeddingConstants, coeff: float, r: float):
    """S_r when its coefficient is positive; None, unread, under a zero one."""
    return constants.S(r) if coeff > 0 else None


def _term(coeff: float, k: float, s) -> float:
    # an unread pair constant (None) stands under a zero coefficient
    return 0.0 if s is None else coeff * k * s


def smallness_pairings(kind, p: float, p_crit: float, alpha: float, beta: float) -> list:
    """``(name, r_value, r_grad)`` of every smallness condition of operator ``kind``.

    Each condition is a1 K1 S_{r_value} + a2 K2 S_{r_grad} < 1.  The generic
    one comes first for any kind (``None`` gives it alone): its exponents
    pc/(pc-alpha) and p/(p-beta) pair the growth envelope with the embedding.
    The nonhomogeneous problem (``boundary_lift``) and the mollified one
    (``convolution``) also state it at alpha = beta = p-1 with the
    convection parts paired with S_{pc/(pc-p+1)} and S_1.
    """
    pairings = [("growth_smallness", p_crit / (p_crit - alpha), p / (p - beta))]
    paired = {"boundary_lift": "lift_condition", "convolution": "convolution_condition"}
    if kind in paired:
        pairings.append((paired[kind], p_crit / (p_crit - p + 1.0), 1.0))
    return pairings


def check_smallness(pairing, a1: float, a2: float, cert,
                    constants: EmbeddingConstants) -> HypothesisReport:
    """a1 K1 S_{r_value} + a2 K2 S_{r_grad} must stay below one.

    ``pairing`` is a row of :func:`smallness_pairings`; K1 and K2 are the
    certificate's.  A paired condition reports what its certificate formed
    K1 and K2 from, and S_{r_grad} as S_1.
    """
    name, r_value, r_grad = pairing
    s_a, s_b = _pair(constants, a1, r_value), _pair(constants, a2, r_grad)
    value = _term(a1, cert.value_coeff, s_a) + _term(a2, cert.grad_coeff, s_b)
    if name == "growth_smallness":
        rest = {"S_grad_pair": s_b, "alpha": cert.alpha, "beta": cert.beta}
    else:
        rest = {"S_1": s_b, **cert.factors}
    return HypothesisReport(name=name, value=value, margin=1.0 - value, passed=value < 1.0,
                            constants={"a1": a1, "a2": a2, "K1": cert.value_coeff,
                                       "K2": cert.grad_coeff, "S_value_pair": s_a, **rest})


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
    """Largest root R of g(t) = (1-kappa) t^{p-1} - |Omega|^{(p-q)/p} t^{q-1} - c0.

    Beyond R the operator pairing against the sphere is nonnegative, so a
    discrete solution exists inside the ball of radius R.  In s = t^{q-1},
    g is h(s) = (1-kappa) s^m - w s - c0 with m = (p-1)/(q-1) > 1: convex,
    h(0) = -c0 <= 0 and h -> inf, so its largest root is simple, h >= 0 past
    it, and Newton from any s with h(s) > 0 decreases to it monotonically
    (Ortega and Rheinboldt, 1970).  One Newton step on g then removes the
    rounding that t = s^{1/(q-1)} magnifies.  OverflowError if R, or a power
    of it on the way, overflows a float.
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
    m = (p - 1.0) / (q - 1.0)

    def h(s):
        return (1.0 - kappa) * s ** m - w * s - c0

    try:
        s = 1.0
        while h(s) <= 0:
            s *= 2.0
        while True:
            step = h(s) / ((1.0 - kappa) * m * s ** (m - 1.0) - w)
            if not s - step < s:
                break
            s -= step
        R = s ** (1.0 / (q - 1.0))
        R -= ((1.0 - kappa) * R ** (p - 1.0) - w * R ** (q - 1.0) - c0) / (
            (1.0 - kappa) * (p - 1.0) * R ** (p - 2.0) - w * (q - 1.0) * R ** (q - 2.0))
        if not math.isfinite(R):
            raise OverflowError
    except OverflowError:
        raise OverflowError(f"the safeguard radius R overflows a float at kappa = {kappa:.6g} "
                            f"and c0 = {c0:.6g} (p = {p}, q = {q})") from None
    return float(R)


def compose_c0(env, sigma_dual_norm: float, cert, constants: EmbeddingConstants) -> float:
    """Constant term of the coercivity polynomial.

    Collects the convection contributions that do not scale with the leading
    power: S_r ||sigma||_{r'} plus the certificate offset paired with the
    same embedding constants as the generic smallness condition.  As in the
    checks, a pair constant is read only under a positive coefficient.
    """
    _, r_value, r_grad = smallness_pairings(None, constants.p, constants.p_crit,
                                            env.alpha, env.beta)[0]
    c0 = constants.S(env.r) * sigma_dual_norm
    c0 += _term(env.a1, cert.offset, _pair(constants, env.a1, r_value))
    c0 += _term(env.a2, cert.offset, _pair(constants, env.a2, r_grad))
    return float(c0)
