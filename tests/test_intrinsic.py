import dataclasses
import gc

import numpy as np
import pytest

from competefem.discretization import (
    build_hierarchy,
    grad_norm_p,
    interval_mesh,
    lebesgue_norm,
    sample,
)
from competefem.intrinsic import (
    CertificateError,
    IntrinsicOperator,
    Kernel,
    KernelError,
    LiftFunction,
    apply,
    boundary_lift_operator,
    certificate,
    certificate_check,
    convolution_gradient_values,
    convolution_operator,
    convolution_values,
    convolve_gradient,
    identity_operator,
)


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


class TestApply:
    def test_identity_matches_sample(self, unit_hierarchy, rng):
        u = unit_hierarchy.function(3, rng.standard_normal(15))
        img = apply(identity_operator(), u)
        base = sample(u)
        np.testing.assert_array_equal(img.values, base.values)
        np.testing.assert_array_equal(img.gradients, base.gradients)

    def test_lift_with_zero_u0_is_identity(self, unit_hierarchy, rng):
        u = unit_hierarchy.function(3, rng.standard_normal(15))
        T = boundary_lift_operator(LiftFunction("zero"))
        img = apply(T, u)
        base = sample(u)
        np.testing.assert_allclose(img.values, base.values)
        np.testing.assert_allclose(img.gradients, base.gradients)

    def test_lift_adds_affine(self, unit_hierarchy, rng):
        u = unit_hierarchy.function(2, rng.standard_normal(7))
        T = boundary_lift_operator(LiftFunction("affine", {"a": 0.5, "b": 0.25}))
        img = apply(T, u)
        base = sample(u)
        np.testing.assert_allclose(img.values - base.values,
                                   0.5 * base.points[..., 0] + 0.25, rtol=1e-13)
        np.testing.assert_allclose(img.gradients - base.gradients, 0.5, rtol=1e-13)

    def test_box_convolution_hand_value(self, fine_hierarchy):
        # (1/w) int_{0.375}^{0.625} t(1-t) dt = 0.24479166..., by hand;
        # the interpolant of the parabola adds an O(h^2) perturbation
        u = fine_hierarchy.interpolate(1, lambda x: x * (1 - x))
        T = convolution_operator(Kernel("box", {"width": 0.25}), refine_factor=16)
        val = convolution_values(T, u, np.array([0.5]))[0]
        assert val == pytest.approx(0.24479166666666667, abs=1e-4)

    def test_box_convolution_converges_to_exact(self):
        target = 0.24479166666666667
        errs = []
        for m in (16, 64, 256):
            h = build_hierarchy(interval_mesh(0.0, 1.0, m), 1)
            u = h.interpolate(1, lambda x: x * (1 - x))
            T = convolution_operator(Kernel("box", {"width": 0.25}), refine_factor=16)
            errs.append(abs(convolution_values(T, u, np.array([0.5]))[0] - target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 4e-6  # dominated by the h^2/4 interpolation error

    def test_weights_die_with_their_level(self):
        # a freed level's id can be reused by a new level, so cached weights
        # must not outlive the level they were built for
        T = convolution_operator(Kernel("box", {"width": 0.25}))
        h = build_hierarchy(interval_mesh(0.0, 1.0, 4), 2)
        convolution_values(T, h.zero(2), np.array([0.5]))
        assert len(T._conv_cache) == 1
        del h
        gc.collect()
        assert len(T._conv_cache) == 0

    def test_kernel_support_window_error(self, unit_hierarchy):
        T = convolution_operator(Kernel("box", {"width": 6.0}), window_factor=1.0)
        u = unit_hierarchy.zero(2)
        with pytest.raises(KernelError, match="evaluation window"):
            apply(T, u)

    def test_kernel_catalog_errors(self):
        with pytest.raises(KeyError, match="unknown kernel shape"):
            Kernel("triangle-ish", {"width": 1.0})
        with pytest.raises(KernelError, match="positive width"):
            Kernel("box", {"width": 0.0})
        with pytest.raises(KernelError, match="scale"):
            Kernel("hat", {"width": 1.0, "scale": -2.0})


class TestConvolveGradient:
    def test_zero(self, fine_hierarchy):
        T = convolution_operator(Kernel("hat", {"width": 0.2}))
        img = convolve_gradient(T, fine_hierarchy.zero(1))
        assert np.all(img.gradients == 0.0)

    def test_constant_slope_preserved_in_interior(self, fine_hierarchy):
        # u locally linear and a symmetric kernel: mollified slope is the slope
        u = fine_hierarchy.interpolate(1, lambda x: np.minimum(x, 1 - x))
        T = convolution_operator(Kernel("hat", {"width": 0.2}), refine_factor=8)
        g = convolution_gradient_values(T, u, np.array([0.25, 0.3]))
        np.testing.assert_allclose(g, 1.0, atol=1e-10)

    def test_requires_convolution_kind(self, unit_hierarchy):
        with pytest.raises(ValueError, match="convolution"):
            convolve_gradient(identity_operator(), unit_hierarchy.zero(1))

    @pytest.mark.parametrize("shape,params", [
        ("box", {"width": 0.25}),
        ("hat", {"width": 0.3}),
        ("truncated_gaussian", {"sigma": 0.05, "radius": 0.2}),
    ])
    def test_finite_difference_consistency(self, fine_hierarchy, shape, params):
        # derivative rule: d(rho * u) = rho * du, cross-checked by central
        # differences of the mollified values with a 1e-3 stencil
        u = fine_hierarchy.interpolate(1, lambda x: np.sin(np.pi * x))
        T = convolution_operator(Kernel(shape, params), refine_factor=16)
        x = np.linspace(0.15, 0.85, 29)
        step = 1e-3
        fd = (convolution_values(T, u, x + step) - convolution_values(T, u, x - step)) / (2 * step)
        direct = convolution_gradient_values(T, u, x)
        assert np.max(np.abs(fd - direct)) < 1e-3


class TestHomogeneity:
    def test_identity_and_convolution_scale(self, fine_hierarchy, rng):
        u = fine_hierarchy.function(1, rng.standard_normal(63))
        for T in (identity_operator(),
                  convolution_operator(Kernel("box", {"width": 0.2}))):
            base = apply(T, u)
            for c in (2.0, 0.25, 7.5):
                scaled = apply(T, fine_hierarchy.function(1, c * u.coeffs))
                np.testing.assert_allclose(scaled.values, c * base.values,
                                           rtol=1e-12, atol=1e-14)
                np.testing.assert_allclose(scaled.gradients, c * base.gradients,
                                           rtol=1e-12, atol=1e-14)

    def test_lift_shift_is_constant(self, unit_hierarchy, rng):
        T = boundary_lift_operator(LiftFunction("affine", {"a": -1.0, "b": 0.5}))
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
        T = convolution_operator(Kernel(shape, params), refine_factor=8)
        # quadrature error bound for the product-integration rule
        grid_cell = min(1.0 / 64.0, 2 * T.kernel.support_radius) / 8
        for _ in range(200):
            u = fine_hierarchy.function(1, rng.standard_normal(63))
            img = apply(T, u)
            lhs = img.value_norm(3.0)
            rhs = T.kernel.l1_norm * lebesgue_norm(u, 3.0)
            quad_slack = grid_cell**2 * T.kernel.l1_norm * np.max(np.abs(u.coeffs)) * 10
            assert lhs <= rhs + 1e-8 + quad_slack


class TestCertificates:
    def test_convolution_constants(self):
        T = convolution_operator(Kernel("box", {"width": 0.25}))
        cert = certificate(T, 3.0, 2.0, 2.0, FakeConstants(s_space=1.0))
        assert cert.grad_coeff == pytest.approx(1.0)
        assert cert.offset == 0.0
        assert cert.value_coeff == pytest.approx(1.0)

    def test_convolution_scales_with_kernel_mass(self):
        T = convolution_operator(Kernel("box", {"width": 0.25, "scale": 2.0}))
        cert = certificate(T, 3.0, 2.0, 2.0, FakeConstants(s_space=1.0))
        assert cert.grad_coeff == pytest.approx(4.0)  # (N ||rho||_1)^{p-1}

    def test_lift_with_zero_u0(self, unit_hierarchy):
        T = boundary_lift_operator(LiftFunction("zero"))
        cert = certificate(T, 3.0, 2.0, 2.0, FakeConstants(), hierarchy=unit_hierarchy)
        assert cert.grad_coeff == pytest.approx(2.0)  # max(2^{p-2}, 1)
        assert cert.offset == pytest.approx(0.0)

    def test_identity_unit_constant(self):
        cert = certificate(identity_operator(), 3.0, 1.0, 1.0, FakeConstants(s_value=1.0))
        assert cert.value_coeff == pytest.approx(1.0)
        assert cert.grad_coeff == 1.0
        assert cert.offset == pytest.approx(2.0)

    def test_unsupported_combination(self, unit_hierarchy):
        with pytest.raises(CertificateError, match="alpha = beta = p-1"):
            certificate(convolution_operator(Kernel("box", {"width": 0.1})),
                        3.0, 1.0, 1.0, FakeConstants())
        with pytest.raises(CertificateError, match="identity certificate"):
            certificate(identity_operator(), 3.0, 2.5, 1.0, FakeConstants())

    def test_check_zero_function_margin(self, unit_hierarchy):
        T = identity_operator()
        cert = certificate(T, 3.0, 1.0, 1.0, FakeConstants(s_value=0.7))
        res = certificate_check(T, cert, [unit_hierarchy.zero(3)], 3.0, 6.0)
        assert res.worst_margin == pytest.approx(-cert.offset)


def _scaled_trials(h, rng, count, scales=(1e-3, 1.0, 1e3)):
    dim = h.level(h.n_levels).n_free
    for _ in range(count):
        c = rng.standard_normal(dim)
        u = h.function(h.n_levels, c)
        g = grad_norm_p(u, 3.0)
        scale = scales[rng.integers(0, len(scales))]
        yield h.function(h.n_levels, c * (scale / g))


class TestCertificateTrials:
    """Analytic certificates must survive randomised trials."""

    N_TRIALS = 1000

    def _run(self, h, T, alpha, beta, constants, rng):
        cert = certificate(T, 3.0, alpha, beta, constants, hierarchy=h)
        res = certificate_check(
            T, cert, _scaled_trials(h, rng, self.N_TRIALS), 3.0, constants.p_crit
        )
        assert res.n_trials == self.N_TRIALS
        assert res.worst_margin <= 0.0, f"margin {res.worst_margin} for {T.kind}"

    def test_identity(self, fine_hierarchy, rng):
        from competefem.constants import build_constants

        constants = build_constants(fine_hierarchy, 3.0, 6.0, [6.0], iters=150, starts=4)
        self._run(fine_hierarchy, identity_operator(), 1.0, 1.0, constants, rng)

    def test_lift_two_choices(self, fine_hierarchy, rng):
        from competefem.constants import build_constants

        constants = build_constants(fine_hierarchy, 3.0, 6.0, [6.0], iters=150, starts=4)
        for params in ({"a": 0.5, "b": 0.25}, {"a": -2.0, "b": 1.0}):
            T = boundary_lift_operator(LiftFunction("affine", params))
            self._run(fine_hierarchy, T, 2.0, 2.0, constants, rng)

    def test_convolution_two_kernels(self, fine_hierarchy, rng):
        from competefem.constants import build_constants

        constants = build_constants(fine_hierarchy, 3.0, 6.0, [6.0], iters=150, starts=4)
        for kernel in (Kernel("box", {"width": 0.25}), Kernel("hat", {"width": 0.3})):
            self._run(fine_hierarchy, convolution_operator(kernel), 2.0, 2.0,
                      constants, rng)
