"""Intrinsic operators composed inside the convection term.

Three instances of a continuous map T from the Dirichlet space into
W^{1,p}, one frozen class each, whose fields are the parameters of its kind:

* ``Identity()``                       T(u) = u
* ``BoundaryLift(a, ax, ay, b)``       T(u) = u + u0 for an affine ambient function u0
* ``Convolution(shape, width, scale, refine_factor)``
                                       T(u) = rho * u with u extended by zero outside the domain

``IntrinsicOperator`` is their union, and the functions below dispatch on
the class attribute ``kind``.  Each instance can produce a growth
certificate (value_coeff, grad_coeff, offset) asserting

    ||T(u)||_{p_crit}^alpha  <= value_coeff ||grad u||_p^{p-1} + offset
    ||grad T(u)||_p^beta     <= grad_coeff  ||grad u||_p^{p-1} + offset

from the embedding estimates and, for the lift, the measured norms of u0.

Convolution is product integration on a uniform grid of cells aligned with
the mesh: u and u' are read at the cell midpoints through the
discretization's point operators, and the kernel is integrated exactly over
each cell, so kernel support edges cost no accuracy.  Every kernel is a
cardinal B-spline, a short sum of truncated powers, so rho convolved with
the cell histogram is a few differences of its running integrals, read off
a sparse map at O(n + m) cost (Heckbert, *Filtering by repeated
integration*, SIGGRAPH 1986).  The solver applies T to every iterate, so
a ``Convolution`` keeps its map at a level's quadrature points and a
``BoundaryLift`` its samples of u0, one per level, in a weak cache of its
own; ``dataclasses.replace`` gives the copy an empty one.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .constants import ConstantLookupError
from .discretization import (
    FEFunction,
    Level,
    NodalSamples,
    QuadratureSamples,
    SpaceHierarchy,
    _finite,
    _grad_integral,
    _value_integral,
    nodal_samples,
    point_operators,
    sample,
)


class CertificateError(ValueError):
    """No analytic growth certificate exists for the requested parameters."""

    code = "CERTIFICATE"


class KernelError(ValueError):
    """Convolution parameters (the kernel's or the grid's) outside their range."""

    code = "KERNEL"


# ---------------------------------------------------------------------------
# the operators: one frozen class per kind, whose fields are its parameters
# ---------------------------------------------------------------------------


# kernel shape -> the degree of its cardinal B-spline
KERNEL_DEGREES = {"box": 0, "hat": 1, "cubic_bspline": 3}
# kernel shape -> the names of its parameters
KERNEL_PARAMS = {shape: ("width", "scale") for shape in KERNEL_DEGREES}
# space dimension -> lift kind -> the names of the parameters ``value`` reads there
LIFT_PARAMS = {
    1: {"zero": (), "affine": ("a", "b")},
    2: {"zero": (), "affine": ("ax", "ay", "b")},
}


@dataclass(frozen=True, eq=False)
class Identity:
    """T(u) = u."""

    kind = "identity"
    is_local = True


@dataclass(frozen=True, eq=False)
class BoundaryLift:
    """T(u) = u + u0 for the affine ambient function u0, whose trace may be nonzero.

    u0 is a x + b in 1D and ax x + ay y + b in 2D; ``BoundaryLift()`` is the zero lift.
    """

    kind = "boundary_lift"
    is_local = True
    a: float = 0.0
    ax: float = 0.0
    ay: float = 0.0
    b: float = 0.0
    # level -> u0 sampled on that level; an entry dies with its level, and a copy starts empty
    _cache: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False)

    def value(self, x: np.ndarray) -> np.ndarray:
        """u0 at points x whose trailing axis, of length N, holds the coordinates."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] == 2:
            return self.ax * x[..., 0] + self.ay * x[..., 1] + self.b
        return self.a * x[..., 0] + self.b


@dataclass(frozen=True, eq=False)
class Convolution:
    """T(u) = rho * u for a compactly supported 1D mollifier rho with exact L1 norm ``scale``.

    Every shape is the cardinal B-spline of degree d (``KERNEL_DEGREES``) on
    d + 1 equal pieces of the total support ``width``, centred at 0: ``box``
    (d = 0), ``hat`` (d = 1) and ``cubic_bspline`` (d = 3).  The grid of
    cells is ``refine_factor`` times finer than the mesh or the kernel.
    """

    kind = "convolution"
    is_local = False
    shape: str
    width: float
    scale: float = 1.0
    refine_factor: int = 4
    # level -> its convolution map at the quadrature points; an entry dies with its level
    _cache: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False)

    def __post_init__(self):
        if self.shape not in KERNEL_DEGREES:
            raise KeyError(
                f"unknown kernel shape {self.shape!r}; choose {', '.join(KERNEL_DEGREES)}"
            )
        if not self.refine_factor >= 1:
            raise KernelError("refine_factor must be >= 1")
        if not float(self.width) > 0:
            raise KernelError(f"{self.shape} kernel needs a positive width")
        if not float(self.scale) > 0:
            raise KernelError("kernel scale (its L1 norm) must be positive")

    @property
    def support_radius(self) -> float:
        return 0.5 * float(self.width)

    @property
    def truncated_powers(self) -> tuple:
        """(d, knots, c) with kernel(t) = sum_k c_k (t - knots_k)_+^d / d!.

        With s = width / 2 and h = width / (d + 1), the knots are -s + k h
        and c_k = scale (-1)^k C(d + 1, k) / h^(d + 1), for k = 0 .. d + 1.
        """
        d = KERNEL_DEGREES[self.shape]
        h = float(self.width) / (d + 1)
        k = np.arange(d + 2)
        binomials = np.array([(-1) ** i * math.comb(d + 1, i) for i in range(d + 2)])
        return d, -self.support_radius + k * h, self.scale / h ** (d + 1) * binomials


IntrinsicOperator = Identity | BoundaryLift | Convolution


# -- boundary lift -------------------------------------------------------------


def lift_on(T: BoundaryLift, hierarchy: SpaceHierarchy, level: int) -> NodalSamples:
    """The lift u0 of a boundary_lift operator, interpolated on a level once."""
    lvl = hierarchy.level(level)
    hit = T._cache.get(lvl)
    if hit is None:
        nodal = np.asarray(T.value(lvl.mesh.vertices), dtype=float)
        hit = T._cache[lvl] = nodal_samples(lvl, nodal)
    return hit


# -- convolution ---------------------------------------------------------------


def _conv_operators(T: Convolution, level: Level, points: np.ndarray):
    """The map c -> ((rho * u)(x), (rho * u')(x)) on an (n_free, k) block c.

    Product integration on m uniform cells aligned with the mesh: u and u'
    are read at the cell midpoints through the values and gradients maps P
    and D of :func:`~competefem.discretization.point_operators`, and each
    cell's value is weighed by the kernel's mass over that cell seen from x.

    The kernel is sum_k c_k (t - t_k)_+^d / d!, so the weighed sum
    at x is sum_k c_k F(x - t_k), with F the (d + 1)-fold running integral
    of the cell histogram.  d + 1 cumsums give F and its lower integrals at
    the cell edges, and a sparse map reads F at each x - t_k by its exact
    Taylor form on the cell that holds it (:func:`_running_read`).  A point
    right of the midpoint of the domain reads running integrals taken from
    b, so no point differences sums much larger than its window.  The
    products [P; P mirrored] c and [D; D mirrored] c give the histograms of
    u and of u' from both ends.  The image of u is read before the running
    integrals of u' are formed, so one image's integrals are held at a
    time, a column costs O(n + m), and no (points x cells) array is formed.
    A 1D mesh has increasing vertices, so the first and the last are a and b.
    """
    if level.mesh.dim != 1:
        raise NotImplementedError("convolution operators are implemented for 1D domains")
    a, b = float(level.mesh.vertices[0, 0]), float(level.mesh.vertices[-1, 0])
    h_min = float(np.min(level.elem_measure))
    target = min(h_min, 2.0 * T.support_radius) / T.refine_factor
    # align cells with the mesh spacing where possible so that gradients of
    # P1 functions are constant on every cell of a uniform mesh
    cell = h_min / max(1, int(math.ceil(h_min / target)))
    m = max(1, int(round((b - a) / cell)))
    edges = a + (b - a) * np.arange(m + 1) / m
    P, D = point_operators(level, 0.5 * (edges[:-1] + edges[1:]))
    x = points.reshape(-1)
    degree, knots, coeffs = T.truncated_powers
    order = degree + 1
    # the kernel is even, so the far half is the near half mirrored; the
    # rows of each histogram map read the cells counted from a, then from b
    histograms = [sp.vstack([M, M[::-1]], format="csr") for M in (P, D)]
    far = x > 0.5 * (a + b)
    read = _running_read(np.where(far, a + b - x, x) - knots[:, None], far, coeffs, order, edges)
    widths = np.diff(edges)
    widths = np.stack([widths, widths[::-1]])[..., None]
    taylor = [widths**i / math.factorial(i) for i in range(order + 1)]

    def image(histogram: sp.csr_matrix, c: np.ndarray) -> np.ndarray:
        k = c.shape[1]
        # F[n, side, j]: the n-fold running integral of the histogram at the
        # j-th edge, from a or from b
        F = np.zeros((order + 1, 2, m + 1, k))
        F[0, :, :m] = (histogram @ c).reshape(2, m, k)
        for n in range(1, order + 1):
            # F_n is a polynomial on each cell: its step over the cell is the
            # Taylor sum of the lower integrals at the cell's first edge
            step = F[n, :, 1:]
            np.multiply(taylor[1], F[n - 1, :, :m], out=step)
            for i in range(2, n + 1):
                step += taylor[i] * F[n - i, :, :m]
            np.cumsum(step, axis=1, out=step)
        return read @ F.reshape(-1, k)

    def convolve(c: np.ndarray) -> tuple:
        # the image of u is read before the running integrals of u' are formed
        return tuple(image(histogram, c) for histogram in histograms)

    return convolve


def _running_read(z: np.ndarray, far: np.ndarray, coeffs: np.ndarray, order: int,
                  edges: np.ndarray) -> sp.csr_matrix:
    """Sparse map from the running integrals F to sum_k coeffs_k F_order(z[k]).

    ``z`` is (knots, points), and a ``far`` point reads the integrals from
    the other end.  F is laid out as in ``image`` of
    :func:`_conv_operators`: integral order, then side, then edge.  On the
    cell from edge e_j, F_order(z) is sum_i F_{order-i}(e_j) (z - e_j)^i / i!,
    with order + 1 entries; past the last edge that cell extends to the
    right (where F_0 = 0), and left of the first edge F_order is 0.
    """
    n_edges = len(edges)
    j = np.clip(np.searchsorted(edges, z, side="right") - 1, 0, n_edges - 1)
    i = np.arange(order + 1)
    taylor = (z - edges[j])[..., None] ** i / [math.factorial(k) for k in i]
    live = np.broadcast_to((z >= edges[0])[..., None], taylor.shape)
    rows = np.broadcast_to(np.arange(z.shape[1])[:, None], taylor.shape)
    cols = ((order - i) * 2 + far[:, None]) * n_edges + j[..., None]
    weights = coeffs[:, None, None] * taylor
    return sp.csr_matrix((weights[live], (rows[live], cols[live])),
                         shape=(z.shape[1], (order + 1) * n_edges * 2))


def apply(T: IntrinsicOperator, u: FEFunction) -> QuadratureSamples:
    """Values and gradients of T(u) at the quadrature points of u's level.

    A block u gives the samples of every column, sample axis first, as
    :func:`~competefem.discretization.sample` does.
    """
    if T.kind == "identity":
        return sample(u)
    if T.kind == "boundary_lift":
        base = sample(u)
        u0 = lift_on(T, u.hierarchy, u.level)
        return replace(base, values=base.values + u0.values,
                       gradients=base.gradients + u0.gradients[..., 0].T[:, None, :])
    lvl = u.lvl
    if lvl not in T._cache:
        T._cache[lvl] = _conv_operators(T, lvl, lvl.qp_points[..., 0])
    values, gradients = T._cache[lvl](u.block)
    # the (points, k) images, shaped like the samples of u: a block adds a sample axis first
    shape = u.coeffs.shape[1:] + lvl.qp_weights.shape
    return QuadratureSamples(level=u.level, values=values.T.reshape(shape),
                             gradients=gradients.T.reshape(shape)[..., None])


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
    # what a paired smallness check reports K1 and K2 to be formed from
    factors: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "K1": _finite(self.value_coeff),
            "K2": _finite(self.grad_coeff),
            "K3": _finite(self.offset),
            "alpha": self.alpha,
            "beta": self.beta,
            "provenance": self.provenance,
        }


def certificate_rule(kind: str, p: float, alpha: float, beta: float) -> str | None:
    """The (alpha, beta) rule that a certificate for operator ``kind`` violates, or None.

    identity supports any 0 < alpha, beta <= p-1; boundary_lift and
    convolution require alpha = beta = p-1.
    """
    if kind == "identity":
        if 0 < alpha <= p - 1 and 0 < beta <= p - 1:
            return None
        return (f"identity certificate supports 0 < alpha, beta <= p-1 = {p - 1}; "
                f"got alpha={alpha}, beta={beta}")
    if alpha == p - 1 and beta == p - 1:
        return None
    return (f"{kind} certificate requires alpha = beta = p-1 = {p - 1}; "
            f"got alpha={alpha}, beta={beta}")


def inert_exponent(kind: str, p: float) -> float:
    """An exponent that :func:`certificate_rule` accepts for ``kind``: p-1, at most 1 for identity.

    An envelope exponent whose coefficient is zero takes it unless set.
    """
    return min(1.0, p - 1.0) if kind == "identity" else p - 1.0


def certificate(
    T: IntrinsicOperator,
    p: float,
    alpha: float,
    beta: float,
    constants,
    hierarchy: SpaceHierarchy | None = None,
) -> IntrinsicCertificate:
    """Analytic growth certificate for a (kind, alpha, beta) combination.

    :func:`certificate_rule` says which combinations are supported; identity
    reaches alpha, beta < p-1 through the elementary split
    t^a <= t^{p-1} + 1.  ``constants`` provides the embedding estimates; the
    lift case also needs a hierarchy to measure the norms of u0, and the
    convolution case the whole-space constant S_space.  The lift and
    convolution certificates carry the factors of K1 and K2 in ``factors``.
    A constant that overflows a float is inf, never an exception.
    """
    violated = certificate_rule(T.kind, p, alpha, beta)
    if violated is not None:
        raise CertificateError(violated)
    if T.kind == "identity":
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
        m = max(2.0 ** (p - 2.0), 1.0)
        if hierarchy is None:
            raise ValueError("boundary_lift certificate needs a hierarchy to measure u0")
        u0 = lift_on(T, hierarchy, hierarchy.n_levels)
        pc, lvl = constants.p_crit, hierarchy.level(u0.level)
        with np.errstate(over="ignore"):  # a u0 too large for a float gives K3 = inf
            u0_val = float(_value_integral(lvl.qp_weights, u0.values.reshape(-1, 1), pc)[0]
                           ** (1 / pc))
            u0_grad = float(_grad_integral(lvl, u0.gradients, p)[0] ** (1 / p))
        s_crit = constants.S(pc)
        return IntrinsicCertificate(
            value_coeff=m * s_crit ** (p - 1.0),
            grad_coeff=m,
            offset=m * max(u0_val ** (p - 1.0), u0_grad ** (p - 1.0)),
            alpha=alpha,
            beta=beta,
            provenance="boundary_lift: convexity split of |u + u0| with measured u0 norms",
            factors={"max_factor": m, "S_crit": s_crit, "p": p},
        )

    if constants.s_space is None:
        raise ConstantLookupError("no whole-space constant S_space available")
    n_dim = constants.n_dim
    l1 = float(T.scale)
    try:
        l1_power = l1 ** (p - 1.0)
    except OverflowError:  # a kernel mass whose power exceeds a float: K1 = K2 = inf
        l1_power = math.inf
    return IntrinsicCertificate(
        value_coeff=constants.s_space ** (p - 1.0) * n_dim ** (p - 1.0) * l1_power,
        grad_coeff=n_dim ** (p - 1.0) * l1_power,
        offset=0.0,
        alpha=alpha,
        beta=beta,
        provenance="convolution: Young inequality and the mollifier derivative rule",
        factors={"kernel_l1": l1, "S_space": constants.s_space, "p": p, "N": n_dim},
    )
