"""Assembly for the competing operator -Lap_p + Lap_q and convection terms.

The differential part is evaluated exactly on P1 spaces (gradients are
constant per element).  Pairings, the residual and the Jacobian are all
assembled on the level operators of :mod:`competefem.discretization`:
element data goes to free dofs through ``grad_op_t`` and ``qp_op_t``, and
the Jacobian is a sparse triple product of them with per-element blocks.

The right-hand side f(x, s, xi) comes from a finite catalog; every entry
carries the growth envelope it claims to satisfy, so the envelope can be
checked numerically on samples.  Custom evaluators can be supplied by
constructing :class:`ConvectionTerm` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .discretization import (
    FEFunction,
    LevelMismatchError,
    QuadratureSamples,
    _grad_force,
    _gradients,
    _value_integral,
    lebesgue_norm,
)


def holder_conjugate(r: float) -> float:
    """r' = r/(r-1); infinity for r = 1."""
    if r == 1:
        return np.inf
    return r / (r - 1.0)


# ---------------------------------------------------------------------------
# sigma weights (the integrable part of the growth envelope)
# ---------------------------------------------------------------------------


def _x_coord(x, s) -> np.ndarray:
    """First component of a point x (or a gradient xi) passed with the samples s.

    x and xi carry a trailing space axis exactly when they have more axes
    than s; otherwise they already are that component.
    """
    x = np.asarray(x, dtype=float)
    return x[..., 0] if x.ndim > np.ndim(s) else x


@dataclass(frozen=True)
class SigmaWeight:
    """Nonnegative weight function of the first coordinate, closed form or nodal."""

    kind: str
    params: dict = field(default_factory=dict)

    def __call__(self, first: np.ndarray) -> np.ndarray:
        first = np.asarray(first, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(first)
        if self.kind == "constant":
            return np.full_like(first, float(self.params["c"]))
        if self.kind == "manufactured_abs":
            return np.abs(4.0 * np.abs(1.0 - 2.0 * first) - 2.0)
        if self.kind == "manufactured_plus":
            return 4.0 * np.abs(1.0 - 2.0 * first) + 2.0
        if self.kind == "nodal":
            xs = np.asarray(self.params["x"], dtype=float)
            vals = np.asarray(self.params["values"], dtype=float)
            return np.interp(first, xs, vals)
        raise KeyError(f"unknown sigma weight kind {self.kind!r}")

    def dual_norm(self, samples: QuadratureSamples, r: float) -> float:
        """||sigma||_{r'} by quadrature; sup over points when r = 1."""
        vals = self(samples.points[..., 0])
        rp = holder_conjugate(r)
        if np.isinf(rp):
            return float(np.max(np.abs(vals))) if vals.size else 0.0
        return float(_value_integral(samples.weights, vals.reshape(-1, 1), rp)[0] ** (1.0 / rp))


SIGMA_KINDS = ("zero", "constant", "manufactured_abs", "manufactured_plus", "nodal")


# ---------------------------------------------------------------------------
# growth envelope |f| <= sigma(x) + a1 |s|^alpha + a2 |xi|^beta
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthEnvelope:
    a1: float
    a2: float
    alpha: float
    beta: float
    r: float
    sigma: SigmaWeight

    def __call__(self, x, s, xi) -> np.ndarray:
        return (
            self.sigma(_x_coord(x, s))
            + self.a1 * np.abs(np.asarray(s, dtype=float)) ** self.alpha
            + self.a2 * _grad_mag(xi, s) ** self.beta
        )

    def validate(self, p: float, p_crit: float) -> None:
        """Check the admissible parameter ranges relative to (p, p_crit)."""
        if self.a1 < 0 or self.a2 < 0:
            raise ValueError(f"envelope coefficients must be >= 0, got a1={self.a1}, a2={self.a2}")
        if not 0 < self.alpha < p_crit - 1:
            raise ValueError(
                f"alpha={self.alpha} outside the open interval (0, p_crit - 1) = (0, {p_crit - 1})"
            )
        beta_sup = p / holder_conjugate(p_crit)
        if not 0 < self.beta < beta_sup:
            raise ValueError(
                f"beta={self.beta} outside the open interval (0, p/p_crit') = (0, {beta_sup})"
            )
        if not 1 <= self.r < p_crit:
            raise ValueError(
                f"r={self.r} outside the half-open interval [1, p_crit) = [1, {p_crit})"
            )


# ---------------------------------------------------------------------------
# convection terms f(x, s, xi)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form solution a manufactured right-hand side was built for.

    ``value`` and ``gradient`` are functions of the first coordinate.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    p: float
    q: float


@dataclass(frozen=True, eq=False)
class ConvectionTerm:
    """Right-hand side evaluator with growth metadata.

    ``fn(x, s, xi)`` must accept broadcastable arrays; x and xi carry a
    trailing space axis exactly when they have more axes than s (in 2D),
    and are scalar-shaped like s otherwise (in 1D).  ``d_s``/``d_xi`` are
    the partial derivatives used by Newton when the intrinsic operator is
    local; leave them None to force a chord (frozen right-hand side) rule.
    ``solution_dependent`` is false when f ignores s and xi, so callers may
    skip the intrinsic operator; directly built terms are assumed to use them.
    """

    kind: str
    params: dict
    envelope: GrowthEnvelope
    fn: Callable
    d_s: Optional[Callable] = None
    d_xi: Optional[Callable] = None
    exact: Optional[ExactSolution] = None
    guess_profile: Optional[Callable] = None
    envelope_is_exact: bool = True
    solution_dependent: bool = True

    def __call__(self, x, s, xi):
        return self.fn(x, s, xi)


def _grad_mag(xi, s) -> np.ndarray:
    """|xi|, over its trailing space axis when it has more axes than s."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim > np.ndim(s):
        return np.sqrt(np.sum(xi**2, axis=-1))
    return np.abs(xi)


def _zeros_like_s(x, s, xi):
    return np.zeros_like(np.asarray(s, dtype=float))


def _zeros_like_xi(x, s, xi):
    return np.zeros_like(np.asarray(xi, dtype=float))


def _x_only(profile, x, s):
    """profile of the first coordinate of x, broadcast against the samples s."""
    first = _x_coord(x, s)
    return profile(first) * np.ones(np.broadcast(first, s).shape)


def _manufactured_value(x, s):
    return _x_only(lambda t: 4.0 * np.abs(1.0 - 2.0 * t) - 2.0, x, s)


_MANUFACTURED_EXACT = ExactSolution(
    value=lambda t: t * (1.0 - t),
    gradient=lambda t: 1.0 - 2.0 * t,
    p=3.0,
    q=2.0,
)


def _manufactured_guess(pts):
    """The exact profile at nodes as ``SpaceHierarchy.interpolate`` passes them."""
    pts = np.asarray(pts, dtype=float)
    return _MANUFACTURED_EXACT.value(pts if pts.ndim == 1 else pts[:, 0])


def convection_from_catalog(kind: str, params: dict | None = None) -> ConvectionTerm:
    """Build a catalog right-hand side together with its default envelope."""
    params = dict(params or {})

    def envelope(a1=0.0, a2=0.0, alpha=1.0, beta=1.0, r=2.0, sigma=SigmaWeight("zero")):
        return GrowthEnvelope(a1=a1, a2=a2, alpha=alpha, beta=beta, r=r, sigma=sigma)

    if kind == "zero":
        return ConvectionTerm(
            kind, params, envelope(),
            fn=_zeros_like_s,
            d_s=_zeros_like_s,
            d_xi=_zeros_like_xi,
            solution_dependent=False,
        )

    if kind == "constant":
        c = float(params.get("c", 1.0))
        return ConvectionTerm(
            kind, params,
            envelope(sigma=SigmaWeight("constant", {"c": abs(c)})),
            fn=lambda x, s, xi: _x_only(lambda t: c, x, s),
            d_s=_zeros_like_s,
            d_xi=_zeros_like_xi,
            solution_dependent=False,
        )

    if kind == "sigma_only":
        sigma = SigmaWeight(params.get("sigma_kind", "constant"),
                            params.get("sigma_params", {"c": 1.0}))
        r = float(params.get("r", 2.0))
        return ConvectionTerm(
            kind, params, envelope(r=r, sigma=sigma),
            fn=lambda x, s, xi: _x_only(sigma, x, s),
            d_s=_zeros_like_s,
            d_xi=_zeros_like_xi,
            solution_dependent=False,
        )

    if kind == "signed_power":
        a1 = float(params.get("a1", 1.0))
        alpha = float(params.get("alpha", 1.0))
        # below alpha = 1 the derivative blows up at s = 0, so leave it to
        # the chord rule instead of feeding Newton an unbounded coefficient
        d_s = (lambda x, s, xi: a1 * alpha * np.abs(s) ** (alpha - 1.0)) \
            if alpha >= 1.0 else None
        return ConvectionTerm(
            kind, params, envelope(a1=a1, alpha=alpha),
            fn=lambda x, s, xi: a1 * np.sign(s) * np.abs(s) ** alpha,
            d_s=d_s,
            d_xi=_zeros_like_xi,
        )

    if kind == "gradient_power":
        a2 = float(params.get("a2", 1.0))
        beta = float(params.get("beta", 1.0))
        signed = bool(params.get("signed", False))

        def fn(x, s, xi):
            out = a2 * _grad_mag(xi, s) ** beta
            if signed:
                out = out * np.sign(_x_coord(xi, s))
            return out

        def d_xi(x, s, xi):
            # sign(xi_1) is piecewise constant, so it passes through a.e.
            xi = np.asarray(xi, dtype=float)
            mag = np.maximum(_grad_mag(xi, s), 1e-300)
            scal = a2 * beta * mag ** (beta - 2.0)
            if signed:
                scal = scal * np.sign(_x_coord(xi, s))
            return scal[..., None] * xi if xi.ndim > np.asarray(s).ndim else scal * xi

        return ConvectionTerm(
            kind, params, envelope(a2=a2, beta=beta),
            fn=fn,
            d_s=_zeros_like_s,
            d_xi=d_xi if beta >= 1.0 else None,
        )

    if kind == "manufactured_p3q2":
        return ConvectionTerm(
            kind, params,
            envelope(r=2.0, sigma=SigmaWeight("manufactured_abs")),
            fn=lambda x, s, xi: _manufactured_value(x, s),
            d_s=_zeros_like_s,
            d_xi=_zeros_like_xi,
            exact=_MANUFACTURED_EXACT,
            guess_profile=_manufactured_guess,
            solution_dependent=False,
        )

    if kind == "manufactured_plus_power":
        a1 = float(params.get("a1", 0.0))
        alpha = float(params.get("alpha", 1.0))
        a2 = float(params.get("a2", 0.0))
        beta = float(params.get("beta", 1.0))
        value_part = convection_from_catalog("signed_power", {"a1": a1, "alpha": alpha})
        grad_part = convection_from_catalog("gradient_power", {"a2": a2, "beta": beta})

        def fn(x, s, xi):
            out = _manufactured_value(x, s)
            if a1:
                out = out + value_part.fn(x, s, xi)
            if a2:
                out = out + grad_part.fn(x, s, xi)
            return out

        # no closed-form solution once the power terms act, but the unperturbed
        # parabola still selects the right branch as an initial profile; the
        # power parts carry their own derivatives, None (chord rule) where
        # those are unbounded near zero
        return ConvectionTerm(
            kind, params,
            envelope(a1=a1, a2=a2, alpha=alpha, beta=beta, r=2.0,
                     sigma=SigmaWeight("manufactured_abs")),
            fn=fn,
            d_s=value_part.d_s if a1 else _zeros_like_s,
            d_xi=grad_part.d_xi if a2 else _zeros_like_xi,
            guess_profile=_manufactured_guess,
            solution_dependent=bool(a1 or a2),
        )

    raise KeyError(
        f"unknown convection kind {kind!r}; catalog: zero, constant, sigma_only, "
        "signed_power, gradient_power, manufactured_p3q2, manufactured_plus_power"
    )


CONVECTION_KINDS = (
    "zero",
    "constant",
    "sigma_only",
    "signed_power",
    "gradient_power",
    "manufactured_p3q2",
    "manufactured_plus_power",
)


# ---------------------------------------------------------------------------
# pairings and assembly
# ---------------------------------------------------------------------------


def _combined_gradients(u: FEFunction, lift) -> np.ndarray:
    """Element gradients of u + lift, shaped (dim, n_el, k) for the level forms.

    k is 1 for one function and the block width for a block.
    """
    g = _gradients(u.lvl, u.coeffs.reshape(len(u.coeffs), -1))
    if lift is not None:
        if getattr(lift, "level", None) != u.level:
            raise LevelMismatchError(
                f"lift on level {getattr(lift, 'level', None)} does not match u on level {u.level}"
            )
        g = g + lift.element_gradients().T[..., None]
    return g


def p_laplace_pairing(u: FEFunction, v: FEFunction, r: float, lift=None) -> float:
    """<-Lap_r (u + lift), v> evaluated exactly on P1 elements."""
    if u.level != v.level:
        raise LevelMismatchError(f"levels differ: {u.level} vs {v.level}")
    force = _grad_force(u.lvl, _combined_gradients(u, lift), r)
    return float(force[:, 0] @ v.coeffs)


def competing_pairing(u: FEFunction, v: FEFunction, p: float, q: float, lift=None) -> float:
    """<-Lap_p w + Lap_q w, v> with w = u + lift (lift defaults to zero)."""
    if not 1 < q < p:
        raise ValueError(f"exponents must satisfy 1 < q < p, got q={q}, p={p}")
    return p_laplace_pairing(u, v, p, lift) - p_laplace_pairing(u, v, q, lift)


@dataclass(frozen=True, eq=False)
class ResidualVector:
    """Galerkin residual against every free basis function of one level.

    ``values`` is shaped like the coefficients it was assembled at: (n_free,)
    for one function, (n_free, k) for a block.
    """

    level: int
    values: np.ndarray

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


def _check_samples(u: FEFunction, T_image: Optional[QuadratureSamples],
                   f: ConvectionTerm) -> None:
    """Samples of T(u) must match u's quadrature; an x-only f may take None."""
    if T_image is None:
        if f.solution_dependent:
            raise ValueError("a right-hand side that depends on T(u) needs samples of T(u)")
        return
    lvl = u.lvl
    shape = u.coeffs.shape[1:] + lvl.qp_weights.shape
    if T_image.level != u.level or T_image.values.shape != shape:
        raise LevelMismatchError(
            f"samples on level {T_image.level} with shape {T_image.values.shape} do not "
            f"match level {u.level} quadrature {shape}"
        )


def _f_arguments(lvl, values: np.ndarray, gradients: np.ndarray) -> tuple:
    """(x, s, xi) at the quadrature points from samples s = T(u), xi = grad T(u).

    In 1D x and xi drop their space axis; in 2D x gets the leading axes of
    s, so that x and xi have one axis more than s (see ``_x_coord``).
    """
    if lvl.mesh.dim == 1:
        return lvl.qp_points[..., 0], values, gradients[..., 0]
    x = lvl.qp_points.reshape((1,) * (values.ndim - 2) + lvl.qp_points.shape)
    return x, values, gradients


def _convection_load(f: ConvectionTerm, T_image, lvl) -> np.ndarray:
    """int f(x, T(u), grad T(u)) phi_i dx per free dof i, one column per sample.

    An x-only f ignores the samples, which may then be None, and gives
    every sample the same load: one column, evaluated once.
    """
    if f.solution_dependent:
        values, gradients = T_image.values, T_image.gradients
    else:
        values, gradients = np.zeros(lvl.qp_weights.shape), np.zeros(lvl.qp_points.shape)
    vals = np.asarray(f(*_f_arguments(lvl, values, gradients)), dtype=float)
    w = lvl.qp_weights
    return lvl.qp_op_t @ (w * vals).reshape(-1, w.size).T


def assemble_residual(
    u: FEFunction,
    T_image: Optional[QuadratureSamples],
    f: ConvectionTerm,
    p: float,
    q: float,
    lift=None,
) -> ResidualVector:
    """Residual of the Galerkin equation at u, one entry per free hat.

    Component i is <-Lap_p w + Lap_q w, phi_i> - int f(x, T(u), grad T(u))
    phi_i dx with w = u + lift.  The differential part is exact; the load
    uses the level's quadrature and the supplied samples of T(u), which an
    x-only f does not need (pass None).  A block u with k columns takes
    samples with k leading and gives k residual columns.
    """
    if not 1 < q < p:
        raise ValueError(f"exponents must satisfy 1 < q < p, got q={q}, p={p}")
    _check_samples(u, T_image, f)
    lvl = u.lvl
    g = _combined_gradients(u, lift)
    flux = _grad_force(lvl, g, p) - _grad_force(lvl, g, q)
    values = flux - _convection_load(f, T_image, lvl)
    return ResidualVector(level=u.level, values=values.reshape(u.coeffs.shape))


def _flux_coefficients(m2: np.ndarray, r: float) -> tuple:
    """c0 = m2^{(r-2)/2} and c1 = (r-2) m2^{(r-4)/2} of the r-Laplacian derivative.

    The derivative of |g|^{r-2} g is c0 I + c1 g g^T with m2 = |g|^2; c1 is
    taken as zero where m2 vanishes.
    """
    if r == 2:
        return np.ones_like(m2), np.zeros_like(m2)
    c1 = np.power(m2, (r - 4.0) / 2.0, out=np.zeros_like(m2), where=m2 > 0)
    return m2 ** ((r - 2.0) / 2.0), (r - 2.0) * c1


def _flux_block(lvl, g: np.ndarray, c0: np.ndarray, c1: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal |e| (c0 I + c1 g g^T) in the row order of ``grad_op``.

    ``g`` is shaped (dim, n_el, 1); element e's block couples rows
    ``d * n_el + e`` for d < dim, so it sits on the diagonals 0 and +-n_el.
    """
    dim, n_el = g.shape[:2]
    g = g[..., 0]
    main = (lvl.elem_measure * (c0 + c1 * g * g)).ravel()
    if dim == 1:
        return sp.diags(main, format="csr")
    off = lvl.elem_measure * c1 * g[0] * g[1]
    return sp.diags([off, main, off], [-n_el, 0, n_el], format="csr")


def _load_derivative(f: ConvectionTerm, T_image: QuadratureSamples, lvl) -> sp.csr_matrix:
    """Quadrature-point derivative of f(x, u, grad u) in the free coefficients.

    Row ``e * n_q + q`` is w_eq (f_s phi_k + f_xi . grad phi_k); the load's
    derivative is ``qp_op_t`` applied to it.
    """
    args = _f_arguments(lvl, T_image.values, T_image.gradients)
    w = lvl.qp_weights
    D = sp.csr_matrix((w.size, lvl.n_free))
    if f.d_s is not None:
        fs = np.asarray(f.d_s(*args), dtype=float)
        D = D + sp.diags((w * fs).ravel()) @ lvl.qp_op
    if f.d_xi is not None:
        fxi = np.asarray(f.d_xi(*args), dtype=float).reshape(*w.shape, -1)
        # S[(e, q), (d, e)] = w_eq f_xi,eqd maps element gradients to the points
        n_el, dim = w.shape[0], fxi.shape[-1]
        cols = np.arange(dim) * n_el + np.arange(n_el)[:, None, None]
        S = sp.csr_matrix(
            ((w[..., None] * fxi).ravel(), np.broadcast_to(cols, fxi.shape).ravel(),
             np.arange(0, fxi.size + 1, dim)),
            shape=(w.size, dim * n_el),
        )
        D = D + S @ lvl.grad_op
    return D


def assemble_jacobian(
    u: FEFunction,
    T_image: Optional[QuadratureSamples],
    f: ConvectionTerm,
    p: float,
    q: float,
    eps_reg: float = 0.0,
    lift=None,
    differentiate_f: bool = True,
) -> sp.csr_matrix:
    """Directional derivative of :func:`assemble_residual` at u.

    The residual itself is never regularised; ``eps_reg`` only smooths the
    Jacobian coefficient near vanishing gradients and is mandatory when an
    exponent is below two.  With ``differentiate_f`` false the load is
    frozen (chord rule), which is what nonlocal intrinsic operators get; a
    load that ignores the solution has no derivative to add and takes
    ``T_image=None``.  The differential part is ``grad_op_t @ M @ grad_op``
    with one block-diagonal M carrying both exponents.
    """
    if not 1 < q < p:
        raise ValueError(f"exponents must satisfy 1 < q < p, got q={q}, p={p}")
    if q < 2 and eps_reg <= 0:
        raise ValueError(
            f"exponent {q} < 2 needs a positive gradient regularisation eps_reg"
        )
    _check_samples(u, T_image, f)
    lvl = u.lvl
    g = _combined_gradients(u, lift)
    m2 = (g * g).sum(axis=0)[:, 0] + eps_reg**2
    (c0p, c1p), (c0q, c1q) = _flux_coefficients(m2, p), _flux_coefficients(m2, q)
    J = lvl.grad_op_t @ _flux_block(lvl, g, c0p - c0q, c1p - c1q) @ lvl.grad_op
    if differentiate_f and f.solution_dependent and (f.d_s is not None or f.d_xi is not None):
        J = J - lvl.qp_op_t @ _load_derivative(f, T_image, lvl)
    return J.tocsr()


# ---------------------------------------------------------------------------
# growth checks and the convection functional bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthCheckReport:
    worst_margin: float
    worst_sample: tuple
    n_samples: int

    @property
    def holds(self) -> bool:
        return self.worst_margin <= 0.0


def growth_envelope_check(f: ConvectionTerm, samples) -> GrowthCheckReport:
    """Worst |f| - envelope over a sample set; nonpositive means it holds."""
    worst = -np.inf
    arg = None
    n = 0
    for x, s, xi in samples:
        margin = float(np.abs(f(x, s, xi)) - f.envelope(x, s, xi))
        n += 1
        if margin > worst:
            worst, arg = margin, (x, s, xi)
    return GrowthCheckReport(worst_margin=worst, worst_sample=arg, n_samples=n)


def convection_functional_bound(
    u: FEFunction,
    v: FEFunction,
    T_image: QuadratureSamples,
    env: GrowthEnvelope,
    p: float,
    p_crit: float,
) -> float:
    """Upper bound for |int f(x, T(u), grad T(u)) v dx| from the envelope.

    Combines the Hoelder pairs (r, r'), (p_crit/alpha-type, its conjugate)
    and (p/beta-type, its conjugate) applied to the three envelope parts.
    """
    if u.level != v.level:
        raise LevelMismatchError(f"levels differ: {u.level} vs {v.level}")
    su = T_image
    bound = env.sigma.dual_norm(su, env.r) * lebesgue_norm(v, env.r)
    if env.a1 > 0:
        bound += (
            env.a1
            * su.value_norm(p_crit) ** env.alpha
            * lebesgue_norm(v, p_crit / (p_crit - env.alpha))
        )
    if env.a2 > 0:
        bound += (
            env.a2
            * su.grad_norm(p) ** env.beta
            * lebesgue_norm(v, p / (p - env.beta))
        )
    return float(bound)


def convection_integral(v: FEFunction, T_image: Optional[QuadratureSamples],
                        f: ConvectionTerm) -> float:
    """int f(x, T(u), grad T(u)) v dx by the level quadrature (None for x-only f)."""
    _check_samples(v, T_image, f)
    return float(_convection_load(f, T_image, v.lvl)[:, 0] @ v.coeffs)
