"""Assembly for the competing operator -Lap_p + Lap_q and convection terms.

The differential part is evaluated exactly on P1 spaces (gradients are
constant per element).  Pairings, the residual and the Jacobian are all
assembled on the level operators of :mod:`competefem.discretization`:
element data goes to free dofs through ``grad_op_t`` and ``qp_op_t``, and
the Jacobian fills the level's fixed pattern from per-element blocks and
per-point load derivatives.

The right-hand side f(x, s, xi) comes from a finite catalog; every entry
carries the growth envelope it satisfies, and the config parser refuses an
override that does not dominate it.  Custom evaluators can be supplied by
constructing :class:`ConvectionTerm` directly.  In every dimension x and xi
reach f with a trailing space axis of length N (one in 1D).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Optional

import numpy as np

from .discretization import (
    FEFunction,
    LevelMismatchError,
    QuadratureSamples,
    _element_form,
    _grad_force,
    _gradients,
    _point_form,
    _value_integral,
)


def holder_conjugate(r: float) -> float:
    """r' = r/(r-1); infinity for r = 1."""
    if r == 1:
        return np.inf
    return r / (r - 1.0)


# ---------------------------------------------------------------------------
# sigma weights (the integrable part of the growth envelope)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaWeight:
    """Nonnegative weight function of the first coordinate, closed form or nodal."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind == "nodal":
            x = self.params["x"]
            if len(x) != len(self.params["values"]):
                raise ValueError("nodal sigma needs arrays 'x' and 'values' of one length")
            # np.interp reads any other order as a wrong weight, silently
            if not all(a < b for a, b in zip(x, x[1:])):
                raise ValueError(f"nodal sigma needs a strictly increasing array 'x', got {x}")

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

    def magnitude(self) -> "SigmaWeight":
        """|self|, also for nodal values of either sign: interp(|v|) bounds |interp(v)|."""
        return SigmaWeight(self.kind, {k: np.abs(v).tolist() if k in ("c", "values") else v
                                       for k, v in self.params.items()})

    @property
    def kinks(self) -> tuple:
        """The first coordinates where the weight, piecewise linear in it, changes slope."""
        if self.kind == "manufactured_abs":
            return (0.25, 0.5, 0.75)
        if self.kind == "manufactured_plus":
            return (0.5,)
        return tuple(self.params["x"]) if self.kind == "nodal" else ()

    def dual_norm(self, lvl, r: float) -> float:
        """||sigma||_{r'} by the level's quadrature; sup over its points when r = 1."""
        vals = self(lvl.qp_points[..., 0])
        rp = holder_conjugate(r)
        if np.isinf(rp):
            return float(np.max(np.abs(vals))) if vals.size else 0.0
        return float(_value_integral(lvl.qp_weights, vals.reshape(-1, 1), rp)[0] ** (1.0 / rp))


# sigma kind -> the names of its parameters
SIGMA_PARAMS = MappingProxyType({
    "zero": (),
    "constant": ("c",),
    "manufactured_abs": (),
    "manufactured_plus": (),
    "nodal": ("x", "values"),
})


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
            self.sigma(np.asarray(x, dtype=float)[..., 0])
            + self.a1 * np.abs(np.asarray(s, dtype=float)) ** self.alpha
            + self.a2 * _grad_mag(xi) ** self.beta
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

    It solves the Dirichlet problem on ``interval`` = (a, b) alone, and
    ``value`` and ``gradient`` are functions of x there.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    p: float
    q: float
    interval: tuple


@dataclass(frozen=True, eq=False)
class ConvectionTerm:
    """Right-hand side evaluator with growth metadata.

    ``fn(x, s, xi)`` must accept broadcastable arrays.  x and xi carry a
    trailing space axis of length N in every dimension, one in 1D, so they
    have one axis more than s, and ``d_xi`` returns an array shaped like xi.
    ``d_s``/``d_xi`` are the partial derivatives that the Jacobian uses when
    the intrinsic operator is local.  A None partial is not differentiated:
    that is exact when f does not depend on the argument, and the chord
    (frozen right-hand side) rule in it otherwise; a nonlocal operator gets
    the chord rule in both.  Either way the residual applies T to every iterate.
    ``solution_dependent`` is false when f ignores s and xi, so callers may
    skip the intrinsic operator; directly built terms are assumed to use them.
    """

    envelope: GrowthEnvelope
    fn: Callable
    d_s: Optional[Callable] = None
    d_xi: Optional[Callable] = None
    exact: Optional[ExactSolution] = None
    guess_profile: Optional[Callable] = None
    solution_dependent: bool = True

    def __call__(self, x, s, xi):
        return self.fn(x, s, xi)


def _grad_mag(xi) -> np.ndarray:
    """|xi| over its trailing space axis; a single component needs no square root."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] == 1:
        return np.abs(xi[..., 0])
    return np.sqrt(np.sum(xi**2, axis=-1))


_MANUFACTURED_EXACT = ExactSolution(
    value=lambda t: t * (1.0 - t),
    gradient=lambda t: 1.0 - 2.0 * t,
    p=3.0,
    q=2.0,
    interval=(0.0, 1.0),
)


def _manufactured_guess(pts):
    """The exact profile, a function of the first coordinate, at (n, dim) points."""
    return _MANUFACTURED_EXACT.value(np.asarray(pts, dtype=float)[:, 0])


def _envelope(a1=0.0, a2=0.0, alpha=1.0, beta=1.0, r=2.0, sigma=SigmaWeight("zero")):
    return GrowthEnvelope(a1=a1, a2=a2, alpha=alpha, beta=beta, r=r, sigma=sigma)


def _x_only(sigma, profile=None, r=2.0, **extra) -> ConvectionTerm:
    """A term of x alone: ``profile`` (sigma itself by default) of the first coordinate."""
    profile = profile or sigma

    def fn(x, s, xi):
        first = np.asarray(x, dtype=float)[..., 0]
        return profile(first) * np.ones(np.broadcast(first, s).shape)

    return ConvectionTerm(_envelope(r=r, sigma=sigma), fn=fn, solution_dependent=False, **extra)


def _zero() -> ConvectionTerm:
    return _x_only(SigmaWeight("zero"))


def _constant(c=1.0) -> ConvectionTerm:
    return _x_only(SigmaWeight("constant", {"c": abs(c)}), lambda t: c)


def _sigma_only(sigma_kind="constant", sigma_params=None, r=2.0) -> ConvectionTerm:
    sigma_params = dict(sigma_params or {})
    if sigma_kind == "constant":  # the only weight with a parameter to default
        sigma_params.setdefault("c", 1.0)
    weight = SigmaWeight(sigma_kind, sigma_params)
    return _x_only(weight.magnitude(), weight, r=r)


def _signed_power(a1=1.0, alpha=1.0) -> ConvectionTerm:
    # below alpha = 1 the derivative blows up at s = 0, so leave it to
    # the chord rule instead of feeding Newton an unbounded coefficient
    d_s = (lambda x, s, xi: a1 * alpha * np.abs(s) ** (alpha - 1.0)) if alpha >= 1.0 else None
    return ConvectionTerm(_envelope(a1=a1, alpha=alpha),
                          fn=lambda x, s, xi: a1 * np.sign(s) * np.abs(s) ** alpha, d_s=d_s)


def _gradient_power(a2=1.0, beta=1.0, signed=False) -> ConvectionTerm:
    def fn(x, s, xi):
        out = a2 * _grad_mag(xi) ** beta
        if signed:
            out = out * np.sign(xi[..., 0])
        return out

    def d_xi(x, s, xi):
        # sign(xi_1) is piecewise constant, so it passes through a.e.
        mag = np.maximum(_grad_mag(xi), 1e-300)
        scal = a2 * beta * mag ** (beta - 2.0)
        if signed:
            scal = scal * np.sign(xi[..., 0])
        return scal[..., None] * xi

    return ConvectionTerm(_envelope(a2=a2, beta=beta), fn=fn,
                          d_xi=d_xi if beta >= 1.0 else None)


def _manufactured_p3q2() -> ConvectionTerm:
    return _x_only(SigmaWeight("manufactured_abs"), lambda t: 4.0 * np.abs(1.0 - 2.0 * t) - 2.0,
                   exact=_MANUFACTURED_EXACT, guess_profile=_manufactured_guess)


def _manufactured_plus_power(a1=0.0, alpha=1.0, a2=0.0, beta=1.0) -> ConvectionTerm:
    base = _manufactured_p3q2()
    value_part, grad_part = _signed_power(a1, alpha), _gradient_power(a2, beta)

    def fn(x, s, xi):
        out = base.fn(x, s, xi)
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
        _envelope(a1=a1, a2=a2, alpha=alpha, beta=beta, sigma=SigmaWeight("manufactured_abs")),
        fn=fn, d_s=value_part.d_s if a1 else None, d_xi=grad_part.d_xi if a2 else None,
        guess_profile=_manufactured_guess, solution_dependent=bool(a1 or a2))


# convection kind -> its builder, named after it; the keyword arguments of a
# builder are the kind's parameters, with their defaults
_CATALOG = MappingProxyType({build.__name__[1:]: build for build in (
    _zero, _constant, _sigma_only, _signed_power, _gradient_power, _manufactured_p3q2,
    _manufactured_plus_power)})

# convection kind -> the names of its parameters, read off its builder
CONVECTION_PARAMS = MappingProxyType(
    {kind: tuple(inspect.signature(build).parameters) for kind, build in _CATALOG.items()})


def convection_from_catalog(kind: str, params: dict | None = None) -> ConvectionTerm:
    """Build a catalog right-hand side together with its default envelope.

    ``params`` are the keyword arguments of the kind's builder; a parameter
    the kind does not take raises TypeError.
    """
    if kind not in _CATALOG:
        raise KeyError(f"unknown convection kind {kind!r}; catalog: {', '.join(_CATALOG)}")
    return _CATALOG[kind](**(params or {}))


# ---------------------------------------------------------------------------
# pairings and assembly
# ---------------------------------------------------------------------------


def _combined_gradients(u: FEFunction, lift) -> np.ndarray:
    """Element gradients of u + lift, shaped (dim, n_el, k) for the level forms.

    k is 1 for one function and the block width for a block.
    """
    g = _gradients(u.lvl, u.block)
    if lift is not None:
        if lift.level != u.level:
            raise LevelMismatchError(
                f"lift on level {lift.level} does not match u on level {u.level}"
            )
        g = g + lift.gradients
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

    x and xi keep their trailing space axis, of length N, in every
    dimension, and x gets the leading axes of s, so that x and xi have one
    axis more than s.
    """
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
) -> np.ndarray:
    """Residual of the Galerkin equation at u, one entry per free hat.

    Component i is <-Lap_p w + Lap_q w, phi_i> - int f(x, T(u), grad T(u))
    phi_i dx with w = u + lift.  The differential part is exact; the load
    uses the level's quadrature and the supplied samples of T(u), which an
    x-only f does not need (pass None).  The values are shaped like u's
    coefficients: (n_free,) for one function, and a block u with k columns
    takes samples with k leading and gives (n_free, k).
    """
    if not 1 < q < p:
        raise ValueError(f"exponents must satisfy 1 < q < p, got q={q}, p={p}")
    _check_samples(u, T_image, f)
    lvl = u.lvl
    g = _combined_gradients(u, lift)
    flux = _grad_force(lvl, g, p) - _grad_force(lvl, g, q)
    values = flux - _convection_load(f, T_image, lvl)
    return values.reshape(u.coeffs.shape)


def _flux_coefficients(m2: np.ndarray, r: float) -> tuple:
    """c0 = m2^{(r-2)/2} and c1 = (r-2) m2^{(r-4)/2} of the r-Laplacian derivative.

    The derivative of |g|^{r-2} g is c0 I + c1 g g^T with m2 = |g|^2; c1 is
    taken as zero where m2 vanishes.
    """
    if r == 2:
        return np.ones_like(m2), np.zeros_like(m2)
    c1 = np.power(m2, (r - 4.0) / 2.0, out=np.zeros_like(m2), where=m2 > 0)
    return m2 ** ((r - 2.0) / 2.0), (r - 2.0) * c1


def assemble_jacobian(
    u: FEFunction,
    T_image: Optional[QuadratureSamples],
    f: ConvectionTerm,
    p: float,
    q: float,
    eps_reg: float = 0.0,
    lift=None,
) -> np.ndarray:
    """Directional derivative of :func:`assemble_residual` at u, as data on the level's pattern.

    The residual itself is never regularised; ``eps_reg`` only smooths the
    Jacobian coefficient near vanishing gradients and is mandatory when an
    exponent is below two.  The load is differentiated exactly when samples
    of T(u) are passed; with None it is frozen (the chord rule), which is
    what nonlocal intrinsic operators get and all a load that ignores the
    solution needs.  A local T with a solution-dependent f must pass its
    samples: without them it silently gets the chord Jacobian, not an
    error.  The result is the data of the matrix on the level's one pattern
    (``Level.jacobian_pattern``), in its CSR order: the flux part, one
    (dim, dim) block per element carrying both exponents, and the load
    part, per quadrature point, are each summed onto it by one
    ``bincount``, and the Jacobian is their difference.
    """
    if not 1 < q < p:
        raise ValueError(f"exponents must satisfy 1 < q < p, got q={q}, p={p}")
    if q < 2 and eps_reg <= 0:
        raise ValueError(
            f"exponent {q} < 2 needs a positive gradient regularisation eps_reg"
        )
    if T_image is not None:
        _check_samples(u, T_image, f)
    lvl = u.lvl
    g = _combined_gradients(u, lift)[..., 0]
    m2 = (g * g).sum(axis=0) + eps_reg**2
    (c0p, c1p), (c0q, c1q) = _flux_coefficients(m2, p), _flux_coefficients(m2, q)
    # |e| (c0 I + c1 g g^T) per element, shaped (dim, dim, n_el)
    c0, c1 = c0p - c0q, c1p - c1q
    blocks = lvl.elem_measure * (c0 * np.eye(len(g))[:, :, None] + c1 * g[:, None] * g[None])
    data = _element_form(lvl, blocks)
    if T_image is not None and f.solution_dependent and (f.d_s is not None
                                                         or f.d_xi is not None):
        # w (f_s phi_b + f_xi . grad phi_b) at each quadrature point
        args = _f_arguments(lvl, T_image.values, T_image.gradients)
        w = lvl.qp_weights
        ws = None if f.d_s is None else w * np.asarray(f.d_s(*args), dtype=float)
        wxi = None if f.d_xi is None else w[..., None] * np.asarray(f.d_xi(*args), dtype=float)
        data = data - _point_form(lvl, ws, wxi)
    return data
