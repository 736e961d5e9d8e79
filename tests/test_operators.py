import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from competefem.discretization import (
    LevelMismatchError,
    _gradients,
    build_hierarchy,
    grad_norm_p,
    interval_mesh,
    lebesgue_norm,
    sample,
    unit_square_mesh,
)
from competefem.intrinsic import (
    IntrinsicOperator,
    Kernel,
    LiftFunction,
    apply,
    boundary_lift_operator,
    convolution_operator,
    lift_on,
)
from competefem.operators import (
    GrowthEnvelope,
    SigmaWeight,
    _flux_block,
    _flux_coefficients,
    _grad_mag,
    _x_coord,
    assemble_jacobian,
    assemble_residual,
    competing_pairing,
    convection_from_catalog,
    convection_functional_bound,
    convection_integral,
    growth_envelope_check,
    p_laplace_pairing,
)

import oracles

P_CRIT = 6.0  # surrogate for p = 3 in one dimension


class TestCompetingPairing:
    def test_zero_function(self, unit_hierarchy, rng):
        u = unit_hierarchy.zero(3)
        v = unit_hierarchy.function(3, rng.standard_normal(15))
        assert competing_pairing(u, v, 3.0, 2.0) == 0.0

    def test_single_hat_hand_value(self):
        # u = c * hat (slopes +-2c) against the unit hat: 8c|c| - 4c by hand
        h = build_hierarchy(interval_mesh(0.0, 1.0, 2), 1)
        hat = h.function(1, [1.0])
        for c in (1.0, 0.3, -0.7):
            u = h.function(1, [c])
            expected = 8.0 * c * abs(c) - 4.0 * c
            assert competing_pairing(u, hat, 3.0, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_q_term_is_negative_q_norm(self, unit_hierarchy, rng):
        u = unit_hierarchy.function(4, rng.standard_normal(31))
        q_pairing = -p_laplace_pairing(u, u, 2.0)
        assert q_pairing == pytest.approx(-grad_norm_p(u, 2.0) ** 2, rel=1e-13)

    def test_linear_in_second_argument(self, unit_hierarchy, rng):
        h = unit_hierarchy
        u = h.function(3, rng.standard_normal(15))
        v = h.function(3, rng.standard_normal(15))
        w = h.function(3, rng.standard_normal(15))
        for a, b in ((2.0, -3.0), (0.5, 0.25)):
            combo = h.function(3, a * v.coeffs + b * w.coeffs)
            expected = a * competing_pairing(u, v, 3.0, 2.0) + b * competing_pairing(u, w, 3.0, 2.0)
            assert competing_pairing(u, combo, 3.0, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_level_mismatch(self, unit_hierarchy):
        with pytest.raises(LevelMismatchError):
            competing_pairing(unit_hierarchy.zero(2), unit_hierarchy.zero(3), 3.0, 2.0)

    def test_exponent_order_enforced(self, unit_hierarchy):
        u = unit_hierarchy.zero(2)
        with pytest.raises(ValueError, match="1 < q < p"):
            competing_pairing(u, u, 2.0, 2.0)


class TestAssembleResidual:
    def test_constant_load_gives_minus_h(self):
        h = build_hierarchy(interval_mesh(0.0, 1.0, 8), 1)
        u = h.zero(1)
        f = convection_from_catalog("constant", {"c": 1.0})
        r = assemble_residual(u, sample(u), f, 3.0, 2.0)
        np.testing.assert_allclose(r.values, -1.0 / 8.0, rtol=1e-14)

    def test_zero_everything(self, unit_hierarchy):
        u = unit_hierarchy.zero(2)
        f = convection_from_catalog("zero")
        r = assemble_residual(u, sample(u), f, 3.0, 2.0)
        assert np.all(r.values == 0.0)

    def test_manufactured_consistency_under_refinement(self):
        f = convection_from_catalog("manufactured_p3q2")
        sups = []
        for m in (8, 32, 128):
            h = build_hierarchy(interval_mesh(0.0, 1.0, m), 1)
            u = h.interpolate(1, lambda x: x * (1 - x))
            sups.append(assemble_residual(u, sample(u), f, 3.0, 2.0).sup)
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] < 1e-4

    def test_sample_level_mismatch(self, unit_hierarchy):
        u = unit_hierarchy.zero(3)
        wrong = sample(unit_hierarchy.zero(2))
        f = convection_from_catalog("zero")
        with pytest.raises(LevelMismatchError):
            assemble_residual(u, wrong, f, 3.0, 2.0)


class TestAssembleJacobian:
    def test_laplace_block_single_node(self):
        # pure r = 2 part on h = 1/2: int (phi')^2 = 4
        h = build_hierarchy(interval_mesh(0.0, 1.0, 2), 1)
        u = h.function(1, [0.3])
        lvl = h.level(1)
        g = _gradients(lvl, u.coeffs[:, None])
        M = _flux_block(lvl, g, *_flux_coefficients((g * g).sum(axis=0)[:, 0], 2.0))
        K = (lvl.grad_op_t @ M @ lvl.grad_op).toarray()
        np.testing.assert_allclose(K, [[4.0]], rtol=1e-14)

    def test_exponent_order_rejected(self, unit_hierarchy):
        u = unit_hierarchy.zero(2)
        f = convection_from_catalog("zero")
        with pytest.raises(ValueError, match="1 < q < p"):
            assemble_jacobian(u, sample(u), f, 2.0, 2.0)

    def test_small_exponent_needs_regularisation(self, unit_hierarchy, rng):
        u = unit_hierarchy.function(2, rng.standard_normal(7))
        f = convection_from_catalog("zero")
        with pytest.raises(ValueError, match="eps_reg"):
            assemble_jacobian(u, sample(u), f, 3.0, 1.5, eps_reg=0.0)
        J = assemble_jacobian(u, sample(u), f, 3.0, 1.5, eps_reg=1e-6)
        assert np.all(np.isfinite(J.toarray()))

    @pytest.mark.parametrize("p,q,mesh", [
        pytest.param(3.0, 2.0, "interval", id="3.0-2.0"),
        pytest.param(4.0, 2.5, "interval", id="4.0-2.5"),
        pytest.param(2.5, 2.0, "interval", id="2.5-2.0"),
        pytest.param(3.0, 2.0, "square", id="square-3.0-2.0"),
        pytest.param(4.0, 2.5, "square", id="square-4.0-2.5"),
    ])
    def test_matches_finite_differences(self, p, q, mesh, rng):
        if mesh == "interval":
            h = build_hierarchy(interval_mesh(0.0, 1.0, 16), 1)
        else:
            h = build_hierarchy(unit_square_mesh(), 3)
        n = h.n_levels
        dim = h.level(n).n_free
        f = convection_from_catalog(
            "manufactured_plus_power", {"a1": 0.3, "alpha": 2.0, "a2": 0.2, "beta": 2.0}
        )
        u0 = h.function(n, 0.4 * rng.standard_normal(dim))
        v = rng.standard_normal(dim)
        J = assemble_jacobian(u0, sample(u0), f, p, q)
        delta = 1e-6

        def residual(c):
            uu = h.function(n, c)
            return assemble_residual(uu, sample(uu), f, p, q).values

        fd = (residual(u0.coeffs + delta * v) - residual(u0.coeffs)) / delta
        jv = J @ v
        assert np.max(np.abs(fd - jv)) <= 1e-5 * max(np.max(np.abs(jv)), 1.0)

    def test_chord_rule_freezes_load(self, unit_hierarchy, rng):
        h = unit_hierarchy
        f = convection_from_catalog("signed_power", {"a1": 0.5, "alpha": 2.0})
        u = h.function(2, rng.standard_normal(7))
        full = assemble_jacobian(u, sample(u), f, 3.0, 2.0, differentiate_f=True)
        frozen = assemble_jacobian(u, sample(u), f, 3.0, 2.0, differentiate_f=False)
        assert not np.allclose(full.toarray(), frozen.toarray())
        g = convection_from_catalog("zero")
        bare = assemble_jacobian(u, sample(u), g, 3.0, 2.0)
        np.testing.assert_allclose(frozen.toarray(), bare.toarray(), rtol=1e-14)


class TestAssemblyAgainstElementLoops:
    """Residual and Jacobian against the element-loop references in oracles."""

    @pytest.fixture(params=["interval", "square"])
    def hierarchy(self, request):
        if request.param == "interval":
            return build_hierarchy(interval_mesh(0.0, 1.0, 4), 4)
        return build_hierarchy(unit_square_mesh(), 3)

    @pytest.mark.parametrize("T_kind", ["identity", "boundary_lift"])
    @pytest.mark.parametrize("f_kind,f_params", [
        ("manufactured_p3q2", {}),
        ("manufactured_plus_power", {"a1": 0.1, "alpha": 2.0, "a2": 0.1, "beta": 2.0}),
    ])
    @pytest.mark.parametrize("p,q,eps", [(3.0, 2.0, 0.0), (3.0, 1.5, 1e-3)])
    def test_residual_and_jacobian(self, hierarchy, T_kind, f_kind, f_params, p, q, eps):
        h = hierarchy
        n = h.n_levels
        if T_kind == "identity":
            T, lift = IntrinsicOperator(kind="identity"), None
        else:
            params = {"a": 0.7, "b": 0.2} if h.dim == 1 else {"ax": 0.5, "ay": -0.3, "b": 0.1}
            T = IntrinsicOperator(kind="boundary_lift", lift=LiftFunction("affine", params))
            lift = T.lift.interpolate_ambient(h, n)
        f = convection_from_catalog(f_kind, f_params)
        rng = np.random.default_rng(11)
        u = h.function(n, 0.5 * rng.standard_normal(h.level(n).n_free))
        img = apply(T, u)
        res = assemble_residual(u, img, f, p, q, lift=lift).values
        ref = oracles.galerkin_residual(u, img, f, p, q, lift=lift)
        np.testing.assert_allclose(res, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))
        J = assemble_jacobian(u, img, f, p, q, eps_reg=eps, lift=lift).toarray()
        ref = oracles.galerkin_jacobian(u, img, f, p, q, eps=eps, lift=lift)
        np.testing.assert_allclose(J, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))


class TestBlockForms:
    """A block of k functions gives, column by column, what k single calls give."""

    K = 5

    @pytest.fixture(params=["identity-1d", "identity-square", "lift-1d", "convolution-1d"])
    def case(self, request):
        if request.param == "identity-square":
            h, T = build_hierarchy(unit_square_mesh(), 3), IntrinsicOperator(kind="identity")
        else:
            h = build_hierarchy(interval_mesh(0.0, 1.0, 4), 4)
            T = {
                "identity-1d": IntrinsicOperator(kind="identity"),
                "lift-1d": boundary_lift_operator(LiftFunction("affine", {"a": 0.7, "b": 0.2})),
                "convolution-1d": convolution_operator(Kernel("hat", {"width": 0.3})),
            }[request.param]
        n = h.n_levels
        lift = lift_on(T, h, n) if T.kind == "boundary_lift" else None
        coeffs = np.random.default_rng(5).standard_normal((h.level(n).n_free, self.K))
        return h, n, T, lift, coeffs

    @pytest.fixture(params=[("manufactured_p3q2", {}),
                            ("manufactured_plus_power",
                             {"a1": 0.2, "alpha": 2.0, "a2": 0.1, "beta": 1.5})],
                    ids=["x-only", "solution-dependent"])
    def f(self, request):
        return convection_from_catalog(*request.param)

    def test_columns_match_single_calls(self, case, f):
        h, n, T, lift, coeffs = case
        block = h.function(n, coeffs)
        img = apply(T, block)
        res = assemble_residual(block, img, f, 3.0, 2.0, lift=lift).values
        assert img.values.shape == (self.K,) + h.level(n).qp_weights.shape
        assert res.shape == coeffs.shape
        for j in range(self.K):
            u = h.function(n, coeffs[:, j])
            one = apply(T, u)
            for got, ref in ((img.values[j], one.values), (img.gradients[j], one.gradients)):
                np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))
            ref = assemble_residual(u, one, f, 3.0, 2.0, lift=lift).values
            np.testing.assert_allclose(res[:, j], ref, rtol=1e-13,
                                       atol=1e-13 * np.max(np.abs(ref)))

    def test_one_column_block_is_the_single_call(self, case, f):
        h, n, T, lift, coeffs = case
        block, u = h.function(n, coeffs[:, :1]), h.function(n, coeffs[:, 0])
        img, one = apply(T, block), apply(T, u)
        np.testing.assert_array_equal(img.values[0], one.values)
        np.testing.assert_array_equal(img.gradients[0], one.gradients)
        res = assemble_residual(block, img, f, 3.0, 2.0, lift=lift).values
        np.testing.assert_array_equal(
            res[:, 0], assemble_residual(u, one, f, 3.0, 2.0, lift=lift).values)


    def test_x_only_load_needs_no_samples(self, case, f):
        h, n, T, lift, coeffs = case
        block = h.function(n, coeffs)
        if f.solution_dependent:
            with pytest.raises(ValueError, match="needs samples"):
                assemble_residual(block, None, f, 3.0, 2.0, lift=lift)
            return
        np.testing.assert_array_equal(
            assemble_residual(block, None, f, 3.0, 2.0, lift=lift).values,
            assemble_residual(block, apply(T, block), f, 3.0, 2.0, lift=lift).values)

    def test_x_only_jacobian_and_integral_need_no_samples(self, case, f):
        h, n, T, lift, coeffs = case
        u = h.function(n, coeffs[:, 0])
        if f.solution_dependent:
            with pytest.raises(ValueError, match="needs samples"):
                assemble_jacobian(u, None, f, 3.0, 2.0, lift=lift)
            with pytest.raises(ValueError, match="needs samples"):
                convection_integral(u, None, f)
            return
        img = apply(T, u)
        J = assemble_jacobian(u, None, f, 3.0, 2.0, lift=lift)
        assert (J != assemble_jacobian(u, img, f, 3.0, 2.0, lift=lift)).nnz == 0
        assert convection_integral(u, None, f) == convection_integral(u, img, f)


class TestNoWarningsAtVanishingGradient:
    """q < 2 on the unit square: the corner triangles have zero gradient."""

    def test_residual_and_pairing_raise_no_runtime_warning(self):
        h = build_hierarchy(unit_square_mesh(), 3)
        u = h.function(3, np.random.default_rng(0).standard_normal(h.level(3).n_free))
        f = convection_from_catalog("constant", {"c": 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = assemble_residual(u, sample(u), f, 3.0, 1.5)
            pairing = p_laplace_pairing(u, u, 1.5)
        assert np.all(np.isfinite(r.values))
        assert pairing == pytest.approx(grad_norm_p(u, 1.5) ** 1.5, rel=1e-13)


def _written_out_plus_power(a1, alpha, a2, beta):
    """manufactured_plus_power with its power parts written out in place."""

    def fn(x, s, xi):
        out = (4.0 * np.abs(1.0 - 2.0 * _x_coord(x, s)) - 2.0) * np.ones(
            np.broadcast(_x_coord(x, s), s).shape)
        if a1:
            out = out + a1 * np.sign(s) * np.abs(s) ** alpha
        if a2:
            out = out + a2 * _grad_mag(xi, s) ** beta
        return out

    def d_s(x, s, xi):
        if not a1:
            return np.zeros_like(np.asarray(s, dtype=float))
        return a1 * alpha * np.abs(s) ** (alpha - 1.0)

    def d_xi(x, s, xi):
        xi = np.asarray(xi, dtype=float)
        if not a2:
            return np.zeros_like(xi)
        mag = np.maximum(_grad_mag(xi, s), 1e-300)
        scal = a2 * beta * mag ** (beta - 2.0)
        return scal[..., None] * xi if xi.ndim > np.asarray(s).ndim else scal * xi

    return fn, d_s, d_xi


class TestCatalogComposition:
    @pytest.mark.parametrize("a1,a2", [(0.0, 0.0), (0.3, 0.0), (0.0, 0.2), (0.3, 0.2)])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_plus_power_matches_written_out_formulas(self, a1, a2, dim, rng):
        alpha, beta = 2.0, 1.5
        f = convection_from_catalog(
            "manufactured_plus_power", {"a1": a1, "alpha": alpha, "a2": a2, "beta": beta}
        )
        ref_fn, ref_d_s, ref_d_xi = _written_out_plus_power(a1, alpha, a2, beta)
        shape = (5, 3)
        x = rng.uniform(0.0, 1.0, shape + ((2,) if dim == 2 else ()))
        s = rng.standard_normal(shape)
        xi = rng.standard_normal(shape + ((2,) if dim == 2 else ()))
        for got, ref in ((f.fn, ref_fn), (f.d_s, ref_d_s), (f.d_xi, ref_d_xi)):
            np.testing.assert_array_equal(got(x, s, xi), ref(x, s, xi))

    def test_unbounded_power_derivatives_fall_back_to_chord(self):
        f = convection_from_catalog(
            "manufactured_plus_power", {"a1": 0.3, "alpha": 0.5, "a2": 0.2, "beta": 0.5}
        )
        assert f.d_s is None and f.d_xi is None


class TestGrowthEnvelope:
    def test_zero_f_any_envelope(self):
        f = convection_from_catalog("zero")
        samples = [(0.2, 1.0, -3.0), (0.9, -2.0, 0.5)]
        assert growth_envelope_check(f, samples).worst_margin <= 0.0

    def test_signed_power_is_tight(self):
        f = convection_from_catalog("signed_power", {"a1": 0.7, "alpha": 1.5})
        samples = [(0.1, s, 0.0) for s in (-2.0, -0.5, 0.3, 4.0)]
        report = growth_envelope_check(f, samples)
        assert report.worst_margin == pytest.approx(0.0, abs=1e-14)

    def test_manufactured_under_wider_weight(self):
        f = convection_from_catalog("manufactured_p3q2")
        fat = GrowthEnvelope(a1=0.0, a2=0.0, alpha=1.0, beta=1.0, r=2.0,
                             sigma=SigmaWeight("manufactured_plus"))
        import dataclasses

        f = dataclasses.replace(f, envelope=fat)
        xs = np.linspace(0.0, 1.0, 101)
        report = growth_envelope_check(f, [(x, 0.0, 0.0) for x in xs])
        assert report.worst_margin <= 0.0

    def test_range_validation(self):
        env = GrowthEnvelope(a1=0.1, a2=0.1, alpha=5.0, beta=1.0, r=2.0,
                             sigma=SigmaWeight("zero"))
        with pytest.raises(ValueError, match=r"alpha=5.0 outside the open interval"):
            env.validate(3.0, P_CRIT)
        env = GrowthEnvelope(a1=0.1, a2=0.1, alpha=1.0, beta=2.5, r=2.0,
                             sigma=SigmaWeight("zero"))
        with pytest.raises(ValueError, match="beta"):
            env.validate(3.0, P_CRIT)
        env = GrowthEnvelope(a1=0.1, a2=0.1, alpha=1.0, beta=1.0, r=6.0,
                             sigma=SigmaWeight("zero"))
        with pytest.raises(ValueError, match="r="):
            env.validate(3.0, P_CRIT)


class TestConvectionFunctionalBound:
    def test_zero_test_function(self, unit_hierarchy, rng):
        h = unit_hierarchy
        u = h.function(3, rng.standard_normal(15))
        env = GrowthEnvelope(a1=0.2, a2=0.1, alpha=1.0, beta=1.0, r=2.0,
                             sigma=SigmaWeight("constant", {"c": 1.0}))
        bound = convection_functional_bound(u, h.zero(3), sample(u), env, 3.0, P_CRIT)
        assert bound == 0.0

    def test_constant_sigma_reduces_to_l2(self, unit_hierarchy, rng):
        # sigma = 1, r = 2 on a unit interval: bound = ||v||_2
        h = unit_hierarchy
        u = h.zero(3)
        v = h.function(3, rng.standard_normal(15))
        env = GrowthEnvelope(a1=0.0, a2=0.0, alpha=1.0, beta=1.0, r=2.0,
                             sigma=SigmaWeight("constant", {"c": 1.0}))
        bound = convection_functional_bound(u, v, sample(u), env, 3.0, P_CRIT)
        assert bound == pytest.approx(lebesgue_norm(v, 2.0), rel=1e-12)

    def test_dominates_actual_integral(self):
        # 1e5 randomised trials on a small level, exercising every envelope part
        h = build_hierarchy(interval_mesh(0.0, 1.0, 4), 1)
        f = convection_from_catalog(
            "manufactured_plus_power", {"a1": 0.4, "alpha": 1.5, "a2": 0.3, "beta": 1.2}
        )
        env = f.envelope
        rng = np.random.default_rng(5)
        dim = h.level(1).n_free
        worst = -np.inf
        for _ in range(100_000):
            u = h.function(1, 2.0 * rng.standard_normal(dim))
            v = h.function(1, 2.0 * rng.standard_normal(dim))
            img = sample(u)
            actual = abs(convection_integral(v, img, f))
            bound = convection_functional_bound(u, v, img, env, 3.0, P_CRIT)
            worst = max(worst, actual - bound)
            assert actual <= bound * (1 + 1e-12) + 1e-14
        assert worst <= 1e-14


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_residual_dot_coeffs_is_energy_defect(unit_hierarchy, seed):
    # testing the equation with u itself ties the residual to the norms
    h = unit_hierarchy
    rng = np.random.default_rng(seed)
    u = h.function(3, rng.standard_normal(15))
    f = convection_from_catalog("manufactured_p3q2")
    r = assemble_residual(u, sample(u), f, 3.0, 2.0)
    energy = (
        grad_norm_p(u, 3.0) ** 3
        - grad_norm_p(u, 2.0) ** 2
        - convection_integral(u, sample(u), f)
    )
    assert float(r.values @ u.coeffs) == pytest.approx(energy, rel=1e-10, abs=1e-12)
