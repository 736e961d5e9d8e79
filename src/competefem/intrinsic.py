"""Intrinsic operators composed inside the convection term.

Three pluggable instances of a continuous map T from the Dirichlet space
into W^{1,p}:

* ``identity``       T(u) = u
* ``boundary_lift``  T(u) = u + u0 for an ambient function u0
* ``convolution``    T(u) = rho * u with u extended by zero outside the domain

Each instance can produce a growth certificate (value_coeff, grad_coeff,
offset) asserting

    ||T(u)||_{p_crit}^alpha  <= value_coeff ||grad u||_p^{p-1} + offset
    ||grad T(u)||_p^beta     <= grad_coeff  ||grad u||_p^{p-1} + offset

which is validated numerically by :func:`certificate_check`.

Convolution values are computed by product integration on a uniform grid
aligned with the mesh: u is sampled at cell midpoints while the kernel is
integrated exactly over each cell, so kernel support edges cost no accuracy.
The weight matrices depend only on the level and the kernel and are cached.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .discretization import (
    FEFunction,
    Level,
    QuadratureSamples,
    SpaceHierarchy,
    _grad_integral,
    _value_integral,
    grad_norm_p,
    sample,
)


class CertificateError(ValueError):
    """No analytic growth certificate exists for the requested parameters."""


class KernelError(ValueError):
    """Kernel is unusable on the configured evaluation window."""


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kernel:
    """Compactly supported 1D mollifier with exact L1 norm ``scale``.

    Shapes: ``box`` and ``hat`` have total support ``width``; the truncated
    Gaussian is cut at ``radius`` and renormalised, so its L1 norm is exact.
    """

    shape: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.shape not in ("box", "hat", "truncated_gaussian"):
            raise KeyError(
                f"unknown kernel shape {self.shape!r}; choose box, hat or truncated_gaussian"
            )
        if self.shape in ("box", "hat") and not float(self.params.get("width", 0)) > 0:
            raise KernelError(f"{self.shape} kernel needs a positive width")
        if self.shape == "truncated_gaussian":
            if not float(self.params.get("sigma", 0)) > 0 or not float(self.params.get("radius", 0)) > 0:
                raise KernelError("truncated_gaussian kernel needs positive sigma and radius")
        if not float(self.params.get("scale", 1.0)) > 0:
            raise KernelError("kernel scale (its L1 norm) must be positive")

    @property
    def scale(self) -> float:
        return float(self.params.get("scale", 1.0))

    @property
    def support_radius(self) -> float:
        if self.shape in ("box", "hat"):
            return 0.5 * float(self.params["width"])
        return float(self.params["radius"])

    @property
    def l1_norm(self) -> float:
        return self.scale

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        s = self.support_radius
        inside = np.abs(t) <= s
        if self.shape == "box":
            return np.where(inside, self.scale / (2.0 * s), 0.0)
        if self.shape == "hat":
            return np.where(inside, (self.scale / s) * (1.0 - np.abs(t) / s), 0.0)
        sigma = float(self.params["sigma"])
        z = sigma * math.sqrt(2.0 * math.pi) * erf(s / (sigma * math.sqrt(2.0)))
        return np.where(inside, self.scale * np.exp(-0.5 * (t / sigma) ** 2) / z, 0.0)

    def antiderivative(self, t: np.ndarray) -> np.ndarray:
        """P(t) = integral of the kernel over (-inf, t], exact per shape."""
        t = np.asarray(t, dtype=float)
        s = self.support_radius
        if self.shape == "box":
            return self.scale * np.clip((t + s) / (2.0 * s), 0.0, 1.0)
        if self.shape == "hat":
            tc = np.clip(t, -s, s)
            left = 0.5 * self.scale * (1.0 + tc / s) ** 2
            right = self.scale - 0.5 * self.scale * (1.0 - tc / s) ** 2
            return np.where(tc <= 0.0, left, right)
        sigma = float(self.params["sigma"])
        tc = np.clip(t, -s, s)
        num = erf(tc / (sigma * math.sqrt(2.0))) + erf(s / (sigma * math.sqrt(2.0)))
        den = 2.0 * erf(s / (sigma * math.sqrt(2.0)))
        return self.scale * num / den

    def to_json_dict(self) -> dict:
        out = {"shape": self.shape}
        out.update({k: float(v) for k, v in self.params.items()})
        return out


# ---------------------------------------------------------------------------
# ambient lift functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftFunction:
    """Closed-form ambient function u0 with nonzero trace allowed."""

    kind: str
    params: dict = field(default_factory=dict)

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            shape = x.shape[:-1] if x.ndim > 1 and x.shape[-1] in (1, 2) else x.shape
            return np.zeros(shape)
        if self.kind == "affine":
            if x.ndim > 1 and x.shape[-1] == 2:
                return (
                    float(self.params.get("ax", 0.0)) * x[..., 0]
                    + float(self.params.get("ay", 0.0)) * x[..., 1]
                    + float(self.params.get("b", 0.0))
                )
            first = x[..., 0] if x.ndim > 1 and x.shape[-1] == 1 else x
            return float(self.params.get("a", 0.0)) * first + float(self.params.get("b", 0.0))
        raise KeyError(f"unknown lift kind {self.kind!r}; choose zero or affine")

    def interpolate_ambient(self, hierarchy: SpaceHierarchy, level: int) -> "AmbientFunction":
        lvl = hierarchy.level(level)
        pts = lvl.mesh.nodes if hierarchy.dim == 1 else lvl.mesh.vertices
        return AmbientFunction(hierarchy, level, np.asarray(self.value(pts), dtype=float))

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind}
        out.update({k: float(v) for k, v in self.params.items()})
        return out


@dataclass(frozen=True, eq=False)
class AmbientFunction:
    """P1 function with unconstrained boundary values (used as a lift)."""

    hierarchy: SpaceHierarchy
    level: int
    nodal: np.ndarray

    @property
    def lvl(self) -> Level:
        return self.hierarchy.level(self.level)

    def element_gradients(self) -> np.ndarray:
        lvl = self.lvl
        return np.einsum("ek,ekd->ed", self.nodal[lvl.elem_nodes], lvl.grad_basis)

    def values_at_qp(self) -> np.ndarray:
        lvl = self.lvl
        return np.einsum("ek,qk->eq", self.nodal[lvl.elem_nodes], lvl.basis_at_qp)

    def grad_norm(self, p: float) -> float:
        grads = self.element_gradients().T[..., None]
        return float(_grad_integral(self.lvl, grads, p)[0] ** (1.0 / p))

    def value_norm(self, r: float) -> float:
        vals = self.values_at_qp().reshape(-1, 1)
        return float(_value_integral(self.lvl.qp_weights, vals, r)[0] ** (1.0 / r))


# ---------------------------------------------------------------------------
# the operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IntrinsicOperator:
    """Continuous map applied to the argument of the convection term."""

    kind: str
    kernel: Kernel | None = None
    lift: LiftFunction | None = None
    refine_factor: int = 4
    window_factor: float = 1.0
    # level -> {evaluation points: (W, grid)}; an entry dies with its level
    _conv_cache: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, repr=False
    )

    def __post_init__(self):
        if self.kind not in ("identity", "boundary_lift", "convolution"):
            raise KeyError(
                f"unknown intrinsic operator kind {self.kind!r}; "
                "choose identity, boundary_lift or convolution"
            )
        if self.kind == "convolution" and self.kernel is None:
            raise ValueError("convolution operator needs a kernel")
        if self.kind == "boundary_lift" and self.lift is None:
            raise ValueError("boundary_lift operator needs a lift function u0")

    @property
    def is_local(self) -> bool:
        return self.kind in ("identity", "boundary_lift")


def identity_operator() -> IntrinsicOperator:
    return IntrinsicOperator(kind="identity")


def boundary_lift_operator(lift: LiftFunction) -> IntrinsicOperator:
    return IntrinsicOperator(kind="boundary_lift", lift=lift)


def convolution_operator(kernel: Kernel, refine_factor: int = 4,
                         window_factor: float = 1.0) -> IntrinsicOperator:
    return IntrinsicOperator(kind="convolution", kernel=kernel,
                             refine_factor=refine_factor, window_factor=window_factor)


# -- convolution machinery ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class _ConvGrid:
    midpoints: np.ndarray  # (m,)
    edges: np.ndarray      # (m+1,)
    cell: float


def _conv_grid(level: Level, kernel: Kernel, refine: int) -> _ConvGrid:
    nodes = level.mesh.nodes
    a, b = float(nodes[0]), float(nodes[-1])
    h_min = float(np.min(level.elem_measure))
    target = min(h_min, 2.0 * kernel.support_radius) / max(1, refine)
    # align cells with the mesh spacing where possible so that gradients of
    # P1 functions are constant on every cell of a uniform mesh
    n_sub = max(1, int(math.ceil(h_min / target)))
    cell = h_min / n_sub
    m = max(1, int(round((b - a) / cell)))
    edges = a + (b - a) * np.arange(m + 1) / m
    mid = 0.5 * (edges[:-1] + edges[1:])
    return _ConvGrid(midpoints=mid, edges=edges, cell=(b - a) / m)


def _conv_weights(T: IntrinsicOperator, level: Level, points: np.ndarray):
    """Weight matrix W with conv(x_i) = sum_j W[i, j] u(mid_j), cached per level."""
    kernel = T.kernel
    domain_extent = float(level.mesh.nodes[-1] - level.mesh.nodes[0])
    if kernel.support_radius > T.window_factor * domain_extent:
        raise KernelError(
            f"kernel support radius {kernel.support_radius:g} exceeds the configured "
            f"evaluation window {T.window_factor:g} x |domain| = "
            f"{T.window_factor * domain_extent:g}"
        )
    per_level = T._conv_cache.setdefault(level, {})
    key = points.tobytes()
    hit = per_level.get(key)
    if hit is not None:
        return hit
    grid = _conv_grid(level, kernel, T.refine_factor)
    x = points.reshape(-1)
    A = kernel.antiderivative(x[:, None] - grid.edges[None, :])
    W = A[:, :-1] - A[:, 1:]
    per_level[key] = (W, grid)
    return W, grid


def _check_1d(T: IntrinsicOperator, u: FEFunction):
    if u.hierarchy.dim != 1:
        raise NotImplementedError("convolution operators are implemented for 1D domains")


def convolution_values(T: IntrinsicOperator, u: FEFunction, x: np.ndarray) -> np.ndarray:
    """(rho * u)(x) with u extended by zero outside the domain."""
    _check_1d(T, u)
    lvl = u.lvl
    x = np.asarray(x, dtype=float)
    W, grid = _conv_weights(T, lvl, x)
    vals = u.evaluate(grid.midpoints)
    return (W @ vals).reshape(x.shape)


def convolution_gradient_values(T: IntrinsicOperator, u: FEFunction, x: np.ndarray) -> np.ndarray:
    """(rho * u')(x), the derivative of the mollified function."""
    _check_1d(T, u)
    lvl = u.lvl
    x = np.asarray(x, dtype=float)
    W, grid = _conv_weights(T, lvl, x)
    g = u.element_gradients()[:, 0]
    idx = np.clip(np.searchsorted(lvl.mesh.nodes, grid.midpoints) - 1, 0, len(g) - 1)
    gm = g[idx]
    outside = (grid.midpoints < lvl.mesh.nodes[0]) | (grid.midpoints > lvl.mesh.nodes[-1])
    gm = np.where(outside, 0.0, gm)
    return (W @ gm).reshape(x.shape)


def apply(T: IntrinsicOperator, u: FEFunction) -> QuadratureSamples:
    """Values and gradients of T(u) at the quadrature points of u's level."""
    if T.kind == "identity":
        return sample(u)
    lvl = u.lvl
    if T.kind == "boundary_lift":
        u0 = T.lift.interpolate_ambient(u.hierarchy, u.level)
        base = sample(u)
        g0 = u0.element_gradients()
        n_q = lvl.basis_at_qp.shape[0]
        return QuadratureSamples(
            level=u.level,
            points=base.points,
            weights=base.weights,
            values=base.values + u0.values_at_qp(),
            gradients=base.gradients
            + np.broadcast_to(g0[:, None, :], (len(g0), n_q, g0.shape[1])),
        )
    x = lvl.qp_points[..., 0]
    vals = convolution_values(T, u, x)
    grads = convolution_gradient_values(T, u, x)
    return QuadratureSamples(
        level=u.level,
        points=lvl.qp_points,
        weights=lvl.qp_weights,
        values=vals,
        gradients=grads[..., None],
    )


def convolve_gradient(T: IntrinsicOperator, u: FEFunction) -> QuadratureSamples:
    """Gradient samples of the mollified function, rho * grad(u)."""
    if T.kind != "convolution":
        raise ValueError(f"convolve_gradient needs a convolution operator, got {T.kind!r}")
    lvl = u.lvl
    x = lvl.qp_points[..., 0]
    grads = convolution_gradient_values(T, u, x)
    return QuadratureSamples(
        level=u.level,
        points=lvl.qp_points,
        weights=lvl.qp_weights,
        values=np.zeros_like(grads),
        gradients=grads[..., None],
    )


# ---------------------------------------------------------------------------
# growth certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntrinsicCertificate:
    """Constants certifying the growth of T relative to ||grad u||_p^{p-1}."""

    value_coeff: float
    grad_coeff: float
    offset: float
    alpha: float
    beta: float
    provenance: str

    def to_json_dict(self) -> dict:
        return {
            "K1": self.value_coeff,
            "K2": self.grad_coeff,
            "K3": self.offset,
            "alpha": self.alpha,
            "beta": self.beta,
            "provenance": self.provenance,
        }


def certificate(
    T: IntrinsicOperator,
    p: float,
    alpha: float,
    beta: float,
    constants,
    hierarchy: SpaceHierarchy | None = None,
) -> IntrinsicCertificate:
    """Analytic growth certificate for a supported (kind, alpha, beta) combination.

    identity supports any 0 < alpha, beta <= p-1 through the elementary split
    t^a <= t^{p-1} + 1; boundary_lift and convolution require
    alpha = beta = p-1.  ``constants`` provides the embedding estimates; the
    lift case also needs a hierarchy to measure the norms of u0.
    """
    if T.kind == "identity":
        if not (0 < alpha <= p - 1 and 0 < beta <= p - 1):
            raise CertificateError(
                f"identity certificate supports 0 < alpha, beta <= p-1 = {p - 1}; "
                f"got alpha={alpha}, beta={beta}"
            )
        k1 = constants.S(constants.p_crit) ** alpha
        return IntrinsicCertificate(
            value_coeff=k1,
            grad_coeff=1.0,
            offset=k1 + 1.0,
            alpha=alpha,
            beta=beta,
            provenance="identity: embedding estimate plus the split t^a <= t^(p-1) + 1",
        )

    if T.kind == "boundary_lift":
        if not (alpha == p - 1 and beta == p - 1):
            raise CertificateError(
                f"boundary_lift certificate requires alpha = beta = p-1 = {p - 1}; "
                f"got alpha={alpha}, beta={beta}"
            )
        m = max(2.0 ** (p - 2.0), 1.0)
        if hierarchy is None:
            raise ValueError("boundary_lift certificate needs a hierarchy to measure u0")
        u0 = T.lift.interpolate_ambient(hierarchy, hierarchy.n_levels)
        u0_val = u0.value_norm(constants.p_crit)
        u0_grad = u0.grad_norm(p)
        return IntrinsicCertificate(
            value_coeff=m * constants.S(constants.p_crit) ** (p - 1.0),
            grad_coeff=m,
            offset=m * max(u0_val ** (p - 1.0), u0_grad ** (p - 1.0)),
            alpha=alpha,
            beta=beta,
            provenance="boundary_lift: convexity split of |u + u0| with measured u0 norms",
        )

    if T.kind == "convolution":
        if not (alpha == p - 1 and beta == p - 1):
            raise CertificateError(
                f"convolution certificate requires alpha = beta = p-1 = {p - 1}; "
                f"got alpha={alpha}, beta={beta}"
            )
        n_dim = constants.n_dim
        l1 = T.kernel.l1_norm
        return IntrinsicCertificate(
            value_coeff=constants.s_space ** (p - 1.0) * n_dim ** (p - 1.0) * l1 ** (p - 1.0),
            grad_coeff=n_dim ** (p - 1.0) * l1 ** (p - 1.0),
            offset=0.0,
            alpha=alpha,
            beta=beta,
            provenance="convolution: Young inequality and the mollifier derivative rule",
        )

    raise CertificateError(f"no certificate for operator kind {T.kind!r}")


@dataclass(frozen=True)
class CertificateCheck:
    worst_margin: float
    worst_trial: int
    n_trials: int

    @property
    def holds(self) -> bool:
        return self.worst_margin <= 0.0


def certificate_check(
    T: IntrinsicOperator,
    cert: IntrinsicCertificate,
    trials,
    p: float,
    p_crit: float,
) -> CertificateCheck:
    """Worst violation of the certified inequalities over trial functions."""
    worst = -np.inf
    arg = -1
    n = 0
    for i, u in enumerate(trials):
        img = apply(T, u)
        drive = grad_norm_p(u, p) ** (p - 1.0)
        m1 = img.value_norm(p_crit) ** cert.alpha - cert.value_coeff * drive - cert.offset
        m2 = img.grad_norm(p) ** cert.beta - cert.grad_coeff * drive - cert.offset
        m = max(m1, m2)
        n += 1
        if m > worst:
            worst, arg = m, i
    return CertificateCheck(worst_margin=float(worst), worst_trial=arg, n_trials=n)
