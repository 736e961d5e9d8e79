import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import BSpline

from competefem.constants import ConstantLookupError
from competefem.discretization import (
    build_hierarchy,
    grad_norm_p,
    interval_mesh,
    interval_mesh_from_nodes,
    sample,
    unit_square_mesh,
)
from competefem.intrinsic import (
    BoundaryLift,
    CertificateError,
    Convolution,
    Identity,
    KERNEL_PARAMS,
    LIFT_PARAMS,
    KernelError,
    _conv_operators,
    apply,
    certificate,
    lift_on,
)

import oracles
from oracles import lebesgue_norm


def images_at(T, u, x):
    """((rho * u)(x), (rho * u')(x)) from one convolution map of u's level at the points x."""
    x = np.asarray(x, dtype=float)
    shape = u.coeffs.shape[1:] + x.shape
    return tuple(out.T.reshape(shape) for out in _conv_operators(T, u.lvl, x)(u.block))


class FakeConstants:
    """Minimal embedding-constants stand-in for certificate arithmetic."""

    def __init__(self, p=3.0, p_crit=6.0, n_dim=1, s_value=1.0, s_space=1.0):
        self.p = p
        self.p_crit = p_crit
        self.n_dim = n_dim
        self._s = s_value
        self.s_space = s_space

    def S(self, r):
        return self._s


@pytest.fixture(scope="module")
def fine_hierarchy():
    return build_hierarchy(interval_mesh(0.0, 1.0, 64), 1)


@pytest.fixture(scope="module")
def deep_hierarchy():
    """The 8-level interval (0, 1) of the deep convolution workload."""
    return build_hierarchy(interval_mesh(0.0, 1.0, 4), 8)


class TestApply:
    def test_identity_matches_sample(self, unit_hierarchy, rng):
        u = unit_hierarchy.function(3, rng.standard_normal(15))
        img = apply(Identity(), u)
        base = sample(u)
        np.testing.assert_array_equal(img.values, base.values)
        np.testing.assert_array_equal(img.gradients, base.gradients)

    def test_lift_with_zero_u0_is_identity(self, unit_hierarchy, rng):
        u = unit_hierarchy.function(3, rng.standard_normal(15))
        T = BoundaryLift()
        img = apply(T, u)
        base = sample(u)
        np.testing.assert_allclose(img.values, base.values)
        np.testing.assert_allclose(img.gradients, base.gradients)

    def test_lift_adds_affine(self, unit_hierarchy, rng):
        u = unit_hierarchy.function(2, rng.standard_normal(7))
        T = BoundaryLift(a=0.5, b=0.25)
        img = apply(T, u)
        base = sample(u)
        np.testing.assert_allclose(img.values - base.values,
                                   0.5 * u.lvl.qp_points[..., 0] + 0.25, rtol=1e-13)
        np.testing.assert_allclose(img.gradients - base.gradients, 0.5, rtol=1e-13)

    def test_box_convolution_hand_value(self, fine_hierarchy):
        # (1/w) int_{0.375}^{0.625} t(1-t) dt = 0.24479166..., by hand;
        # the interpolant of the parabola adds an O(h^2) perturbation
        u = fine_hierarchy.interpolate(1, lambda x: x * (1 - x))
        T = Convolution("box", 0.25, refine_factor=16)
        val = images_at(T, u, np.array([0.5]))[0][0]
        assert val == pytest.approx(0.24479166666666667, abs=1e-4)

    def test_box_convolution_converges_to_exact(self):
        target = 0.24479166666666667
        errs = []
        for m in (16, 64, 256):
            h = build_hierarchy(interval_mesh(0.0, 1.0, m), 1)
            u = h.interpolate(1, lambda x: x * (1 - x))
            T = Convolution("box", 0.25, refine_factor=16)
            errs.append(abs(images_at(T, u, np.array([0.5]))[0][0] - target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 4e-6  # dominated by the h^2/4 interpolation error

    def test_weights_die_with_their_level(self):
        # a freed level's id can be reused by a new level, so cached weights
        # must not outlive the level they were built for
        T = Convolution("box", 0.25)
        h = build_hierarchy(interval_mesh(0.0, 1.0, 4), 2)
        apply(T, oracles.zero(h, 2))
        assert len(T._cache) == 1
        del h
        gc.collect()
        assert len(T._cache) == 0

    def test_cache_holds_one_pair_per_level(self):
        # pairs at arbitrary points are built per call; only the level's own
        # quadrature pair is kept
        T = Convolution("box", 0.25)
        h = build_hierarchy(interval_mesh(0.0, 1.0, 4), 2)
        u = h.interpolate(2, lambda x: x * (1 - x))
        for k in range(30):
            x = np.linspace(0.0, 1.0, 5 + k)
            images_at(T, u, x)
            apply(T, u)
        assert len(T._cache) <= 1
        values, _ = T._cache[h.level(2)](u.block)
        np.testing.assert_array_equal(values.ravel(), apply(T, u).values.ravel())

    def test_lift_built_once_per_level(self, monkeypatch):
        built = []
        value = BoundaryLift.value

        def counting(lift, x):
            built.append(len(x))
            return value(lift, x)

        monkeypatch.setattr(BoundaryLift, "value", counting)
        T = BoundaryLift(a=0.5, b=0.25)
        h = build_hierarchy(interval_mesh(0.0, 1.0, 4), 3)
        for _ in range(3):
            apply(T, oracles.zero(h, 3))
            apply(T, h.function(3, np.ones((h.level(3).n_free, 4))))
            lift_on(T, h, 3)
        assert built == [h.level(3).mesh.n_nodes]
        del h
        gc.collect()
        assert len(T._cache) == 0

    @pytest.mark.parametrize("mesh,params", [
        (interval_mesh(0.0, 1.0, 4), {"a": 0.7, "b": 0.2}),
        (unit_square_mesh(), {"ax": 0.5, "ay": -0.3, "b": 0.1}),
    ], ids=["interval", "square"])
    def test_lift_samples_match_element_loop(self, mesh, params):
        T = BoundaryLift(**params)
        h = build_hierarchy(mesh, 4)
        for n in range(1, 5):
            lvl, u0 = h.level(n), lift_on(T, h, n)
            nodal = T.value(lvl.mesh.vertices)
            grads = oracles.nodal_element_gradients(lvl, nodal)
            np.testing.assert_array_equal(u0.gradients[..., 0].T, grads)
            vals = oracles.nodal_values_at_qp(lvl, nodal)
            np.testing.assert_allclose(u0.values, vals, rtol=0, atol=1e-15 * np.abs(vals).max())

    @pytest.mark.parametrize("shape,params", [
        ("box", {"width": 0.25}),
        ("hat", {"width": 0.3}),
        ("cubic_bspline", {"width": 0.25}),
    ])
    def test_convolution_matches_reference(self, deep_hierarchy, shape, params, rng):
        # the cubic's four running integrals of fine-level slopes lose more to rounding
        rtol = 1e-12 if shape == "cubic_bspline" else 1e-13
        T = Convolution(shape, **params)
        for n in range(1, 8):
            lvl = deep_hierarchy.level(n)
            x = lvl.qp_points[..., 0]
            for k in (1, 3):
                coeffs = rng.standard_normal((lvl.n_free, k))
                u = deep_hierarchy.function(n, coeffs[:, 0] if k == 1 else coeffs)
                img = apply(T, u)
                vals, grads = oracles.convolution_reference(T, lvl, coeffs, x)
                for got, want in ((img.values, vals), (img.gradients[..., 0], grads)):
                    want = want.T.reshape((k,) + x.shape)
                    if k == 1:
                        want = want[0]
                    assert got.shape == want.shape
                    np.testing.assert_allclose(got, want, rtol=0,
                                               atol=rtol * np.abs(want).max())

    def test_convolution_is_1d_only(self):
        T = Convolution("box", 0.25)
        h = build_hierarchy(unit_square_mesh(), 2)
        with pytest.raises(NotImplementedError, match="1D"):
            apply(T, oracles.zero(h, 2))

    @pytest.mark.parametrize("width", [2.5, 6.0])
    def test_kernel_wider_than_domain_averages(self, unit_hierarchy, rng, width):
        # a box reaching past both ends of (0, 1) sees all of u from every x,
        # so rho * u is the constant (1/width) * integral of u
        u = unit_hierarchy.function(3, rng.standard_normal(unit_hierarchy.level(3).n_free))
        img = apply(Convolution("box", width), u)
        mean = np.sum(u.coeffs) / 16 / width  # each hat of the 16-element level has mass 1/16
        np.testing.assert_allclose(img.values, mean, rtol=1e-13, atol=1e-15)
        assert np.max(np.abs(img.gradients)) <= 1e-14

    @pytest.mark.parametrize("width,scale", [(0.25, 1.0), (0.3, 2.0), (1.7, 0.5)])
    def test_cubic_bspline_is_the_scipy_basis_element(self, width, scale):
        # sum_k c_k (t - t_k)_+^3 / 3! against scipy's de Boor evaluation of
        # the cubic B-spline on the same knots, which has mass h
        kernel = Convolution("cubic_bspline", width, scale=scale)
        degree, knots, coeffs = kernel.truncated_powers
        assert degree == 3
        t = np.linspace(knots[0], knots[-1], 801)[1:-1]
        rho = coeffs @ np.maximum(t[None, :] - knots[:, None], 0.0) ** 3 / 6.0
        h = width / 4
        want = scale * BSpline.basis_element(knots, extrapolate=False)(t) / h
        np.testing.assert_allclose(rho, want, rtol=0, atol=1e-13 * want.max())
        mass = np.sum(coeffs * (knots[-1] - knots) ** 4) / 24.0
        assert mass == pytest.approx(scale, rel=1e-13)

    @pytest.mark.parametrize("width,scale", [(0.25, 1.0), (0.3, 2.0), (1.7, 0.5)])
    @pytest.mark.parametrize("shape", ["box", "hat"])
    def test_box_and_hat_keep_their_closed_forms(self, shape, width, scale):
        # the degree table's formula gives the hand-written box and hat
        # knots and weights bit for bit, so their images keep their bits
        degree, knots, coeffs = Convolution(shape, width, scale=scale).truncated_powers
        s = width / 2
        if shape == "box":
            want = 0, np.array([-s, s]), scale / (2.0 * s) * np.array([1.0, -1.0])
        else:
            want = 1, np.array([-s, 0.0, s]), scale / s**2 * np.array([1.0, -2.0, 1.0])
        assert degree == want[0]
        np.testing.assert_array_equal(knots, want[1])
        np.testing.assert_array_equal(coeffs, want[2])

    @pytest.mark.parametrize("width,scale", [(0.25, 1.0), (1.7, 0.5)])
    @pytest.mark.parametrize("shape", ["box", "hat", "cubic_bspline"])
    def test_truncated_powers_are_a_mollifier(self, shape, width, scale):
        # nonnegative, even, zero off (-s, s), and the derivative of the
        # reference antiderivative, which rises from 0 to the mass scale
        kernel = Convolution(shape, width, scale=scale)
        degree, knots, coeffs = kernel.truncated_powers
        s = kernel.support_radius
        t = np.linspace(-1.5 * s, 1.5 * s, 1201)
        t = t[np.all(np.abs(t[:, None] - knots[None, :]) > 1e-9 * s, axis=1)]
        z = t[:, None] - knots[None, :]
        rho = np.where(z > 0, np.abs(z) ** degree, 0.0) @ coeffs / math.factorial(degree)
        peak = rho.max()
        assert np.all(rho >= -1e-13 * peak)
        assert np.all(np.abs(rho[np.abs(t) > s]) <= 1e-13 * peak)
        np.testing.assert_allclose(rho, rho[::-1], rtol=0, atol=1e-13 * peak)
        P = oracles.kernel_antiderivative(kernel, np.array([-2 * s, -s, s, 2 * s]))
        np.testing.assert_allclose(P, [0.0, 0.0, scale, scale], rtol=0, atol=1e-14 * scale)
        dt = 1e-6 * s
        inside = t[np.abs(t) < s]
        slope = (oracles.kernel_antiderivative(kernel, inside + dt)
                 - oracles.kernel_antiderivative(kernel, inside - dt)) / (2 * dt)
        rho_in = rho[np.abs(t) < s]
        np.testing.assert_allclose(slope, rho_in, rtol=0, atol=1e-7 * peak)

    def test_kernel_catalog_errors(self):
        with pytest.raises(KeyError, match="unknown kernel shape"):
            Convolution("triangle-ish", 1.0)
        with pytest.raises(KernelError, match="positive width"):
            Convolution("box", 0.0)
        with pytest.raises(KernelError, match="positive width"):
            Convolution("cubic_bspline", 0.0)
        with pytest.raises(KernelError, match="scale"):
            Convolution("hat", 1.0, scale=-2.0)


class TestOperatorClasses:
    """One frozen class per kind, whose fields are the parameters of that kind."""

    def test_fields_are_the_parameters_of_the_kind(self):
        def params(cls):
            return [f.name for f in dataclasses.fields(cls) if f.init]

        assert params(Identity) == []
        assert params(BoundaryLift) == ["a", "ax", "ay", "b"]
        assert params(Convolution) == ["shape", "width", "scale", "refine_factor"]
        # every parameter a config names is a field of its class
        assert {k for kinds in LIFT_PARAMS.values() for names in kinds.values()
                for k in names} <= set(params(BoundaryLift))
        assert {k for names in KERNEL_PARAMS.values() for k in names} <= set(params(Convolution))
        assert [(cls.kind, cls.is_local) for cls in (Identity, BoundaryLift, Convolution)] == [
            ("identity", True), ("boundary_lift", True), ("convolution", False)]

    @pytest.mark.parametrize("build", [
        lambda: Identity(width=0.25),
        lambda: BoundaryLift(c=1.0),
        lambda: Convolution("box", 0.25, widht=1.0),
    ], ids=["identity", "lift", "convolution"])
    def test_a_parameter_the_kind_does_not_take_is_refused(self, build):
        # the lift and the kernel once ignored a key they did not read
        with pytest.raises(TypeError):
            build()

    def test_refine_factor_below_one_refused(self):
        # it was once clamped to 1, silently
        with pytest.raises(KernelError, match="refine_factor must be >= 1"):
            Convolution("box", 0.25, refine_factor=0)

    @pytest.mark.parametrize("T,change,fresh", [
        (Convolution("box", 0.25), {"width": 0.5}, Convolution("box", 0.5)),
        (BoundaryLift(a=0.5, b=0.25), {"b": 1.0}, BoundaryLift(a=0.5, b=1.0)),
    ], ids=["convolution", "lift"])
    def test_replace_does_not_share_the_caches(self, T, change, fresh, rng):
        # a copy once took over the per-level caches of its original, so it
        # applied the old kernel, or added the old u0, on every level seen
        h = build_hierarchy(interval_mesh(0.0, 1.0, 4), 3)
        u = h.function(3, rng.standard_normal(h.level(3).n_free))
        apply(T, u)
        copy = dataclasses.replace(T, **change)
        got, want = apply(copy, u), apply(fresh, u)
        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(got.gradients, want.gradients)


class TestRunningIntegrals:
    """Kernels applied through running integrals of the cell histogram."""

    KERNELS = [
        ("box", {"width": 0.25}),
        ("hat", {"width": 0.25}),
        ("hat", {"width": 0.375, "scale": 2.0}),
        ("cubic_bspline", {"width": 0.25}),
    ]
    # error allowed per shape, relative to sum |W| |cells|: at a distance L
    # from the end whose running integrals it reads, sum_k c_k F_n(x - t_k)
    # adds terms about (2 L / h)^n / n! times larger than itself, with n = d + 1
    # and pieces of width h; at L = 1/2 that is 2731 for this cubic, 32 for a hat
    # of the same width
    BOUND = {"box": 1e-12, "hat": 1e-12, "cubic_bspline": 1e-11}

    @pytest.fixture(scope="class")
    def uneven(self):
        # an inline non-uniform mesh of (0, 1) whose convolution cells, like
        # every kernel radius here, are dyadic, so x +- s sits exactly on a
        # cell edge
        return build_hierarchy(interval_mesh_from_nodes([0.0, 0.125, 0.25, 0.5, 0.625, 1.0]), 3)

    @staticmethod
    def _points(T, lvl):
        """Every cell edge shifted by -s and +s, and points on both sides of (0, 1)."""
        m = oracles.convolution_terms(T, lvl, np.zeros((lvl.n_free, 1)), [0.5])[0].shape[1]
        s = T.support_radius
        edges = np.arange(m + 1) / m
        outside = np.array([-2 * s, -s, -0.5 * s, -1e-3, 1 + 1e-3, 1 + 0.5 * s, 1 + s, 1 + 2 * s])
        return np.concatenate([edges - s, edges + s, outside])

    @pytest.mark.parametrize("shape,params", KERNELS)
    @pytest.mark.parametrize("k", [None, 3], ids=["vector", "block"])
    def test_matches_dense_product_integration(self, uneven, shape, params, k, rng):
        T = Convolution(shape, **params)
        for n in range(1, 4):
            lvl = uneven.level(n)
            x = self._points(T, lvl)
            coeffs = rng.standard_normal(lvl.n_free if k is None else (lvl.n_free, k))
            u = uneven.function(n, coeffs)
            W, vals, slopes = oracles.convolution_terms(T, lvl, u.block, x)
            for got, cells in zip(images_at(T, u, x), (vals, slopes)):
                want = (W @ cells).astype(float).T.reshape(got.shape)
                bound = (np.abs(W) @ np.abs(cells)).astype(float).T.reshape(got.shape)
                assert np.all(np.abs(got - want) <= self.BOUND[shape] * bound)
                assert np.all(bound[..., -5:-2] > 0)  # points just outside still see (0, 1)

    @pytest.mark.parametrize("shape,params", KERNELS[:2] + KERNELS[3:])
    def test_block_columns_equal_columns_applied_alone(self, uneven, deep_hierarchy, shape,
                                                       params, rng):
        # the sphere certificate's pairings keep their bits at any block width
        # only if each column of a block is convolved on its own
        T = Convolution(shape, **params)
        for h, n in ((uneven, 3), (deep_hierarchy, 6)):
            coeffs = rng.standard_normal((h.level(n).n_free, 5))
            block = apply(T, h.function(n, coeffs))
            for j in range(coeffs.shape[1]):
                alone = apply(T, h.function(n, coeffs[:, j]))
                np.testing.assert_array_equal(block.values[j], alone.values)
                np.testing.assert_array_equal(block.gradients[j], alone.gradients)

    def test_deep_level_is_cheap(self):
        # L10 of the 4-element interval has 2047 free dofs; a dense-banded
        # pair there holds about 130 MB while it is built
        h = build_hierarchy(interval_mesh(0.0, 1.0, 4), 10)
        lvl = h.level(10)
        assert lvl.n_free == 2047
        u = h.interpolate(10, lambda x: np.sin(np.pi * x) + x * x * (1 - x))
        T = Convolution("box", 0.25)
        tracemalloc.start()
        try:
            first = apply(T, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        second = apply(T, u)
        np.testing.assert_array_equal(second.values, first.values)
        np.testing.assert_array_equal(second.gradients, first.gradients)


class TestConvolveGradient:
    def test_zero(self, fine_hierarchy):
        T = Convolution("hat", 0.2)
        img = apply(T, oracles.zero(fine_hierarchy, 1))
        assert np.all(img.gradients == 0.0)

    def test_constant_slope_preserved_in_interior(self, fine_hierarchy):
        # u locally linear and a symmetric kernel: mollified slope is the slope
        u = fine_hierarchy.interpolate(1, lambda x: np.minimum(x, 1 - x))
        T = Convolution("hat", 0.2, refine_factor=8)
        _, g = images_at(T, u, np.array([0.25, 0.3]))
        np.testing.assert_allclose(g, 1.0, atol=1e-10)

    @pytest.mark.parametrize("shape,params", [
        ("box", {"width": 0.25}),
        ("hat", {"width": 0.3}),
        ("cubic_bspline", {"width": 0.4}),
    ])
    def test_finite_difference_consistency(self, fine_hierarchy, shape, params):
        # derivative rule: d(rho * u) = rho * du, cross-checked by central
        # differences of the mollified values with a 1e-3 stencil
        u = fine_hierarchy.interpolate(1, lambda x: np.sin(np.pi * x))
        T = Convolution(shape, **params, refine_factor=16)
        x = np.linspace(0.15, 0.85, 29)
        step = 1e-3
        # one convolution map for the stencil's points and the points themselves
        values, gradients = images_at(T, u, np.stack([x + step, x - step, x]))
        fd = (values[0] - values[1]) / (2 * step)
        direct = gradients[2]
        assert np.max(np.abs(fd - direct)) < 1e-3


class TestHomogeneity:
    def test_identity_and_convolution_scale(self, fine_hierarchy, rng):
        u = fine_hierarchy.function(1, rng.standard_normal(63))
        for T in (Identity(), Convolution("box", 0.2)):
            base = apply(T, u)
            for c in (2.0, 0.25, 7.5):
                scaled = apply(T, fine_hierarchy.function(1, c * u.coeffs))
                np.testing.assert_allclose(scaled.values, c * base.values,
                                           rtol=1e-12, atol=1e-14)
                np.testing.assert_allclose(scaled.gradients, c * base.gradients,
                                           rtol=1e-12, atol=1e-14)

    def test_lift_shift_is_constant(self, unit_hierarchy, rng):
        T = BoundaryLift(a=-1.0, b=0.5)
        u = unit_hierarchy.function(3, rng.standard_normal(15))
        v = unit_hierarchy.function(3, rng.standard_normal(15))
        img_u = apply(T, u)
        img_v = apply(T, v)
        su, sv = sample(u), sample(v)
        np.testing.assert_allclose(img_u.values - su.values,
                                   img_v.values - sv.values, rtol=1e-12)


class TestYoungInequality:
    @pytest.mark.parametrize("shape,params", [
        ("box", {"width": 0.25}),
        ("hat", {"width": 0.25}),
        ("box", {"width": 0.1, "scale": 2.0}),
    ])
    def test_on_random_trials(self, fine_hierarchy, shape, params, rng):
        T = Convolution(shape, **params, refine_factor=8)
        # quadrature error bound for the product-integration rule
        grid_cell = min(1.0 / 64.0, 2 * T.support_radius) / 8
        for _ in range(200):
            u = fine_hierarchy.function(1, rng.standard_normal(63))
            img = apply(T, u)
            lhs = oracles.samples_value_norm(u.lvl, img, 3.0)
            rhs = T.scale * lebesgue_norm(u, 3.0)
            quad_slack = grid_cell**2 * T.scale * np.max(np.abs(u.coeffs)) * 10
            assert lhs <= rhs + 1e-8 + quad_slack


class TestCertificates:
    def test_convolution_constants(self):
        T = Convolution("box", 0.25)
        cert = certificate(T, 3.0, 2.0, 2.0, FakeConstants(s_space=1.0))
        assert cert.grad_coeff == pytest.approx(1.0)
        assert cert.offset == 0.0
        assert cert.value_coeff == pytest.approx(1.0)

    def test_convolution_scales_with_kernel_mass(self):
        T = Convolution("box", 0.25, scale=2.0)
        cert = certificate(T, 3.0, 2.0, 2.0, FakeConstants(s_space=1.0))
        assert cert.grad_coeff == pytest.approx(4.0)  # (N ||rho||_1)^{p-1}
        assert cert.factors == {"kernel_l1": 2.0, "S_space": 1.0, "p": 3.0, "N": 1}

    def test_convolution_without_the_whole_space_constant_names_it(self):
        T = Convolution("box", 0.25)
        with pytest.raises(ConstantLookupError, match="S_space"):
            certificate(T, 3.0, 2.0, 2.0, FakeConstants(s_space=None))

    def test_lift_with_zero_u0(self, unit_hierarchy):
        T = BoundaryLift()
        cert = certificate(T, 3.0, 2.0, 2.0, FakeConstants(), hierarchy=unit_hierarchy)
        assert cert.grad_coeff == pytest.approx(2.0)  # max(2^{p-2}, 1)
        assert cert.offset == pytest.approx(0.0)
        assert cert.factors == {"max_factor": 2.0, "S_crit": 1.0, "p": 3.0}

    def test_identity_unit_constant(self):
        cert = certificate(Identity(), 3.0, 1.0, 1.0, FakeConstants(s_value=1.0))
        assert cert.value_coeff == pytest.approx(1.0)
        assert cert.grad_coeff == 1.0
        assert cert.offset == pytest.approx(2.0)

    def test_unsupported_combination(self, unit_hierarchy):
        with pytest.raises(CertificateError, match="alpha = beta = p-1"):
            certificate(Convolution("box", 0.1),
                        3.0, 1.0, 1.0, FakeConstants())
        with pytest.raises(CertificateError, match="identity certificate"):
            certificate(Identity(), 3.0, 2.5, 1.0, FakeConstants())

    def test_check_zero_function_margin(self, unit_hierarchy):
        T = Identity()
        cert = certificate(T, 3.0, 1.0, 1.0, FakeConstants(s_value=0.7))
        margins = oracles.certificate_margins(T, cert, oracles.zero(unit_hierarchy, 3), 3.0, 6.0)
        assert margins.max() == pytest.approx(-cert.offset)


def _scaled_trials(h, rng, count, scales=(1e-3, 1.0, 1e3)):
    """A block of ``count`` trial functions on the finest level, each of a random scale."""
    dim = h.level(h.n_levels).n_free
    columns = []
    for _ in range(count):
        c = rng.standard_normal(dim)
        g = grad_norm_p(h.function(h.n_levels, c), 3.0)
        columns.append(c * (scales[rng.integers(0, len(scales))] / g))
    return h.function(h.n_levels, np.column_stack(columns))


class TestCertificateTrials:
    """Analytic certificates must survive randomised trials."""

    N_TRIALS = 1000

    def _run(self, h, T, alpha, beta, constants, rng):
        cert = certificate(T, 3.0, alpha, beta, constants, hierarchy=h)
        margins = oracles.certificate_margins(
            T, cert, _scaled_trials(h, rng, self.N_TRIALS), 3.0, constants.p_crit
        )
        assert margins.shape == (self.N_TRIALS,)
        assert margins.max() <= 0.0, f"margin {margins.max()} for {T.kind}"

    def test_identity(self, fine_hierarchy, rng):
        from competefem.constants import build_constants

        constants = build_constants(fine_hierarchy, 3.0, 6.0, [6.0], iters=150, starts=4)
        self._run(fine_hierarchy, Identity(), 1.0, 1.0, constants, rng)

    def test_lift_two_choices(self, fine_hierarchy, rng):
        from competefem.constants import build_constants

        constants = build_constants(fine_hierarchy, 3.0, 6.0, [6.0], iters=150, starts=4)
        for params in ({"a": 0.5, "b": 0.25}, {"a": -2.0, "b": 1.0}):
            T = BoundaryLift(**params)
            self._run(fine_hierarchy, T, 2.0, 2.0, constants, rng)

    def test_convolution_two_kernels(self, fine_hierarchy, rng):
        from competefem.constants import build_constants

        constants = build_constants(fine_hierarchy, 3.0, 6.0, [6.0], iters=150, starts=4)
        for T in (Convolution("box", 0.25), Convolution("hat", 0.3)):
            self._run(fine_hierarchy, T, 2.0, 2.0, constants, rng)
