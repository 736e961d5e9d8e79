import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from competefem.discretization import (
    LevelMismatchError,
    _element_form,
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
    CONVECTION_PARAMS,
    SIGMA_PARAMS,
    ConvectionTerm,
    GrowthEnvelope,
    SigmaWeight,
    _flux_coefficients,
    _grad_mag,
    assemble_jacobian,
    assemble_residual,
    competing_pairing,
    convection_from_catalog,
    p_laplace_pairing,
)

import oracles
from oracles import pattern_csr

P_CRIT = 6.0  # surrogate for p = 3 in one dimension


def jacobian(u, *args, **kwargs):
    """:func:`assemble_jacobian` as a CSR matrix on the level's pattern."""
    return pattern_csr(u.lvl.jacobian_pattern, assemble_jacobian(u, *args, **kwargs))


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
        np.testing.assert_allclose(r, -1.0 / 8.0, rtol=1e-14)

    def test_zero_everything(self, unit_hierarchy):
        u = unit_hierarchy.zero(2)
        f = convection_from_catalog("zero")
        r = assemble_residual(u, sample(u), f, 3.0, 2.0)
        assert np.all(r == 0.0)

    def test_manufactured_consistency_under_refinement(self):
        f = convection_from_catalog("manufactured_p3q2")
        sups = []
        for m in (8, 32, 128):
            h = build_hierarchy(interval_mesh(0.0, 1.0, m), 1)
            u = h.interpolate(1, lambda x: x * (1 - x))
            sups.append(np.max(np.abs(assemble_residual(u, sample(u), f, 3.0, 2.0))))
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] < 1e-4

    def test_sample_level_mismatch(self, unit_hierarchy):
        u = unit_hierarchy.zero(3)
        wrong = sample(unit_hierarchy.zero(2))
        f = convection_from_catalog("zero")
        with pytest.raises(LevelMismatchError):
            assemble_residual(u, wrong, f, 3.0, 2.0)


class TestEmptyLevel:
    """A level without free dofs gives empty blocks of the usual shapes."""

    @pytest.mark.parametrize("mesh,T", [
        (unit_square_mesh(), IntrinsicOperator(kind="identity")),
        (unit_square_mesh(),
         boundary_lift_operator(LiftFunction("affine", {"ax": 0.5, "ay": -0.3, "b": 0.1}))),
        (interval_mesh(0.0, 1.0, 1), convolution_operator(Kernel("box", {"width": 0.25}))),
    ], ids=["identity-square", "lift-square", "convolution-1d"])
    @pytest.mark.parametrize("k", [None, 3], ids=["one", "block"])
    def test_shapes(self, mesh, T, k):
        h = build_hierarchy(mesh, 2)
        lvl = h.level(1)
        assert lvl.n_free == 0
        u = h.function(1, np.zeros((0,) if k is None else (0, k)))
        lead = () if k is None else (k,)
        qp, dim = lvl.qp_weights.shape, lvl.mesh.dim
        lift = lift_on(T, h, 1) if T.kind == "boundary_lift" else None
        for img in (sample(u), apply(T, u)):
            assert img.values.shape == lead + qp
            assert img.gradients.shape == lead + qp + (dim,)
        f = convection_from_catalog("manufactured_plus_power",
                                    {"a1": 0.2, "alpha": 2.0, "a2": 0.1, "beta": 1.5})
        r = assemble_residual(u, apply(T, u), f, 3.0, 2.0, lift)
        assert r.shape == u.coeffs.shape


class TestAssembleJacobian:
    def test_laplace_block_single_node(self):
        # pure r = 2 part on h = 1/2: int (phi')^2 = 4
        h = build_hierarchy(interval_mesh(0.0, 1.0, 2), 1)
        u = h.function(1, [0.3])
        lvl = h.level(1)
        g = _gradients(lvl, u.coeffs[:, None])[..., 0]
        c0, c1 = _flux_coefficients((g * g).sum(axis=0), 2.0)
        blocks = lvl.elem_measure * (c0 + c1 * g * g)[None]  # (1, 1, n_el)
        K = pattern_csr(lvl.jacobian_pattern, _element_form(lvl, blocks)).toarray()
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
        J = jacobian(u, sample(u), f, 3.0, 1.5, eps_reg=1e-6)
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
        J = jacobian(u0, sample(u0), f, p, q)
        delta = 1e-6

        def residual(c):
            uu = h.function(n, c)
            return assemble_residual(uu, sample(uu), f, p, q)

        fd = (residual(u0.coeffs + delta * v) - residual(u0.coeffs)) / delta
        jv = J @ v
        assert np.max(np.abs(fd - jv)) <= 1e-5 * max(np.max(np.abs(jv)), 1.0)

    def test_chord_rule_freezes_load(self, unit_hierarchy, rng):
        h = unit_hierarchy
        f = convection_from_catalog("signed_power", {"a1": 0.5, "alpha": 2.0})
        u = h.function(2, rng.standard_normal(7))
        full = jacobian(u, sample(u), f, 3.0, 2.0)
        # the chord rule reads no samples, so it takes none
        frozen = jacobian(u, None, f, 3.0, 2.0)
        assert not np.allclose(full.toarray(), frozen.toarray())
        g = convection_from_catalog("zero")
        bare = jacobian(u, sample(u), g, 3.0, 2.0)
        np.testing.assert_allclose(frozen.toarray(), bare.toarray(), rtol=1e-14)
        # samples that are passed are still checked against u's quadrature
        with pytest.raises(LevelMismatchError, match="do not match"):
            assemble_jacobian(u, sample(h.function(3, rng.standard_normal(15))), f, 3.0, 2.0)


def _sparse_reference_jacobian(u, img, f, p, q, eps, lift):
    """grad_op_t @ M @ grad_op - qp_op_t @ D with M and D built as sparse matrices."""
    lvl = u.lvl
    g = _gradients(lvl, u.block)[..., 0]
    if lift is not None:
        g = g + lift.gradients[..., 0]
    dim, n_el = g.shape
    m2 = (g * g).sum(axis=0) + eps**2

    def coefficients(r):
        # an element with no free node may have m2 = 0; its c1 is zero
        c1 = (r - 2) * np.where(m2 > 0, m2, 1.0) ** ((r - 4) / 2)
        return m2 ** ((r - 2) / 2), np.where(m2 > 0, c1, 0.0)

    (c0p, c1p), (c0q, c1q) = coefficients(p), coefficients(q)
    elems = np.arange(n_el)
    rows, cols, vals = [], [], []
    for d in range(dim):
        for e in range(dim):
            rows.append(d * n_el + elems)
            cols.append(e * n_el + elems)
            vals.append(lvl.elem_measure * ((d == e) * (c0p - c0q)
                                            + (c1p - c1q) * g[d] * g[e]))
    M = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(dim * n_el, dim * n_el))
    J = lvl.grad_op_t @ M @ lvl.grad_op
    if img is not None and f.solution_dependent:
        x, xi = lvl.qp_points, img.gradients
        w = lvl.qp_weights.ravel()
        n_pts = w.size
        fs = np.broadcast_to(f.d_s(x, img.values, xi), lvl.qp_weights.shape).ravel()
        D = sp.diags(w * fs) @ lvl.qp_op
        fxi = np.asarray(f.d_xi(x, img.values, xi)).reshape(n_pts, dim)
        elem_of_point = np.repeat(elems, lvl.qp_weights.shape[1])
        S = sp.csr_matrix(((w[:, None] * fxi).ravel(),
                           (np.repeat(np.arange(n_pts), dim),
                            (np.arange(dim) * n_el + elem_of_point[:, None]).ravel())),
                          shape=(n_pts, dim * n_el))
        J = J - lvl.qp_op_t @ (D + S @ lvl.grad_op)
    return J.toarray()


class TestJacobianAgainstSparseProducts:
    """The pattern fill against the sparse triple products it replaced."""

    @pytest.fixture(params=["interval", "square"])
    def hierarchy(self, request):
        if request.param == "interval":
            return build_hierarchy(interval_mesh(0.0, 1.0, 4), 4)
        return build_hierarchy(unit_square_mesh(), 3)

    @pytest.mark.parametrize("case", ["x-only", "identity", "lift", "q-below-two"])
    def test_matches(self, hierarchy, case):
        h = hierarchy
        n = h.n_levels
        p, q, eps = (3.0, 1.5, 1e-3) if case == "q-below-two" else (3.0, 2.0, 0.0)
        if case == "x-only":
            f = convection_from_catalog("manufactured_p3q2")
        else:
            f = convection_from_catalog("manufactured_plus_power",
                                        {"a1": 0.1, "alpha": 2.0, "a2": 0.1, "beta": 2.0})
        if case == "lift":
            params = {"a": 0.7, "b": 0.2} if h.dim == 1 else {"ax": 0.5, "ay": -0.3, "b": 0.1}
            T = boundary_lift_operator(LiftFunction("affine", params))
            lift = lift_on(T, h, n)
        else:
            T, lift = IntrinsicOperator(kind="identity"), None
        u = h.function(n, 0.5 * np.random.default_rng(3).standard_normal(h.level(n).n_free))
        img = apply(T, u) if f.solution_dependent else None
        J = jacobian(u, img, f, p, q, eps_reg=eps, lift=lift)
        ref = _sparse_reference_jacobian(u, img, f, p, q, eps, lift)
        np.testing.assert_allclose(J.toarray(), ref, rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(ref)))

    def test_every_jacobian_of_a_level_shares_its_pattern(self, hierarchy, rng):
        h = hierarchy
        n = h.n_levels
        lvl = h.level(n)
        f = convection_from_catalog("signed_power", {"a1": 0.5, "alpha": 2.0})
        mats = []
        for _ in range(2):
            u = h.function(n, rng.standard_normal(lvl.n_free))
            mats.append(jacobian(u, sample(u), f, 3.0, 2.0))
        pattern = lvl.jacobian_pattern
        for J in mats:
            assert np.array_equal(J.indices, pattern.indices)
            assert np.array_equal(J.indptr, pattern.indptr)
            # the diagonal is stored
            rows = np.repeat(np.arange(lvl.n_free), np.diff(J.indptr))
            assert np.array_equal(J.indices[J.indices == rows], np.arange(lvl.n_free))

    def test_pattern_is_built_by_the_first_jacobian(self):
        # building the hierarchy, which set-up times, leaves it unbuilt
        h = build_hierarchy(unit_square_mesh(), 2)
        lvl = h.level(2)
        assert "jacobian_pattern" not in vars(lvl)
        assemble_jacobian(h.zero(2), None, convection_from_catalog("zero"), 3.0, 2.0)
        assert "jacobian_pattern" in vars(lvl)


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
            T, lift, lift_nodal = IntrinsicOperator(kind="identity"), None, None
        else:
            params = {"a": 0.7, "b": 0.2} if h.dim == 1 else {"ax": 0.5, "ay": -0.3, "b": 0.1}
            T = IntrinsicOperator(kind="boundary_lift", lift=LiftFunction("affine", params))
            lift = lift_on(T, h, n)
            mesh = h.level(n).mesh
            lift_nodal = T.lift.value(mesh.vertices)
        f = convection_from_catalog(f_kind, f_params)
        rng = np.random.default_rng(11)
        u = h.function(n, 0.5 * rng.standard_normal(h.level(n).n_free))
        img = apply(T, u)
        res = assemble_residual(u, img, f, p, q, lift=lift)
        ref = oracles.galerkin_residual(u, img, f, p, q, lift_nodal=lift_nodal)
        np.testing.assert_allclose(res, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))
        J = jacobian(u, img, f, p, q, eps_reg=eps, lift=lift).toarray()
        ref = oracles.galerkin_jacobian(u, img, f, p, q, eps=eps, lift_nodal=lift_nodal)
        np.testing.assert_allclose(J, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))


class TestBlockForms:
    """A block of k functions gives, column by column, what k single calls give."""

    K = 5

    @pytest.fixture(params=["identity-1d", "identity-square", "lift-1d", "lift-square",
                            "convolution-1d"])
    def case(self, request):
        if request.param == "identity-square":
            h, T = build_hierarchy(unit_square_mesh(), 3), IntrinsicOperator(kind="identity")
        elif request.param == "lift-square":
            h = build_hierarchy(unit_square_mesh(), 3)
            T = boundary_lift_operator(LiftFunction("affine", {"ax": 0.5, "ay": -0.3, "b": 0.1}))
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
        res = assemble_residual(block, img, f, 3.0, 2.0, lift=lift)
        assert img.values.shape == (self.K,) + h.level(n).qp_weights.shape
        assert res.shape == coeffs.shape
        for j in range(self.K):
            u = h.function(n, coeffs[:, j])
            one = apply(T, u)
            for got, ref in ((img.values[j], one.values), (img.gradients[j], one.gradients)):
                np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))
            ref = assemble_residual(u, one, f, 3.0, 2.0, lift=lift)
            np.testing.assert_allclose(res[:, j], ref, rtol=1e-13,
                                       atol=1e-13 * np.max(np.abs(ref)))

    def test_one_column_block_is_the_single_call(self, case, f):
        h, n, T, lift, coeffs = case
        block, u = h.function(n, coeffs[:, :1]), h.function(n, coeffs[:, 0])
        img, one = apply(T, block), apply(T, u)
        np.testing.assert_array_equal(img.values[0], one.values)
        np.testing.assert_array_equal(img.gradients[0], one.gradients)
        res = assemble_residual(block, img, f, 3.0, 2.0, lift=lift)
        np.testing.assert_array_equal(
            res[:, 0], assemble_residual(u, one, f, 3.0, 2.0, lift=lift))


    def test_x_only_load_needs_no_samples(self, case, f):
        h, n, T, lift, coeffs = case
        block = h.function(n, coeffs)
        if f.solution_dependent:
            with pytest.raises(ValueError, match="needs samples"):
                assemble_residual(block, None, f, 3.0, 2.0, lift=lift)
            return
        np.testing.assert_array_equal(
            assemble_residual(block, None, f, 3.0, 2.0, lift=lift),
            assemble_residual(block, apply(T, block), f, 3.0, 2.0, lift=lift))

    def test_x_only_jacobian_and_integral_need_no_samples(self, case, f):
        h, n, T, lift, coeffs = case
        u = h.function(n, coeffs[:, 0])
        if f.solution_dependent:
            # without samples the Jacobian freezes the load (the chord rule)
            bare = jacobian(u, None, convection_from_catalog("zero"), 3.0, 2.0,
                            lift=lift)
            assert (jacobian(u, None, f, 3.0, 2.0, lift=lift) != bare).nnz == 0
            with pytest.raises(ValueError, match="needs samples"):
                assemble_residual(u, None, f, 3.0, 2.0, lift=lift)
            return
        img = apply(T, u)
        J = jacobian(u, None, f, 3.0, 2.0, lift=lift)
        assert (J != jacobian(u, img, f, 3.0, 2.0, lift=lift)).nnz == 0
        np.testing.assert_array_equal(assemble_residual(u, None, f, 3.0, 2.0, lift=lift),
                                      assemble_residual(u, img, f, 3.0, 2.0, lift=lift))


class TestRightHandSideArguments:
    """f, d_s and d_xi get x and xi with a trailing space axis in every dimension."""

    @pytest.mark.parametrize("mesh", [interval_mesh(0.0, 1.0, 4), unit_square_mesh()],
                             ids=["interval", "square"])
    @pytest.mark.parametrize("k", [None, 3], ids=["vector", "block"])
    def test_x_and_xi_end_in_the_space_axis(self, mesh, k):
        h = build_hierarchy(mesh, 2)
        lvl = h.level(2)
        seen = {}

        def recorder(name, like_xi=False):
            def record(x, s, xi):
                seen.setdefault(name, []).append((np.shape(x), np.shape(s), np.shape(xi)))
                return np.zeros_like(xi if like_xi else s)
            return record

        f = ConvectionTerm(convection_from_catalog("zero").envelope,
                           fn=recorder("fn"), d_s=recorder("d_s"),
                           d_xi=recorder("d_xi", like_xi=True))
        shape = (lvl.n_free,) if k is None else (lvl.n_free, k)
        u = h.function(2, np.random.default_rng(7).standard_normal(shape))
        assemble_residual(u, sample(u), f, 3.0, 2.0)
        if k is None:
            assemble_jacobian(u, sample(u), f, 3.0, 2.0)
        assert set(seen) == ({"fn"} if k else {"fn", "d_s", "d_xi"})
        for x, s, xi in (shapes for calls in seen.values() for shapes in calls):
            assert x[-1] == xi[-1] == h.dim
            assert len(x) == len(xi) == len(s) + 1


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
        assert np.all(np.isfinite(r))
        assert pairing == pytest.approx(grad_norm_p(u, 1.5) ** 1.5, rel=1e-13)


def _written_out_plus_power(a1, alpha, a2, beta):
    """manufactured_plus_power with its power parts written out in place."""

    def fn(x, s, xi):
        out = (4.0 * np.abs(1.0 - 2.0 * x[..., 0]) - 2.0) * np.ones(
            np.broadcast(x[..., 0], s).shape)
        if a1:
            out = out + a1 * np.sign(s) * np.abs(s) ** alpha
        if a2:
            out = out + a2 * _grad_mag(xi) ** beta
        return out

    def d_s(x, s, xi):
        return a1 * alpha * np.abs(s) ** (alpha - 1.0)

    def d_xi(x, s, xi):
        xi = np.asarray(xi, dtype=float)
        mag = np.maximum(_grad_mag(xi), 1e-300)
        scal = a2 * beta * mag ** (beta - 2.0)
        return scal[..., None] * xi

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
        x = rng.uniform(0.0, 1.0, shape + (dim,))
        s = rng.standard_normal(shape)
        xi = rng.standard_normal(shape + (dim,))
        np.testing.assert_array_equal(f.fn(x, s, xi), ref_fn(x, s, xi))
        # a power part with a zero coefficient leaves its partial undifferentiated
        for got, ref, coeff in ((f.d_s, ref_d_s, a1), (f.d_xi, ref_d_xi, a2)):
            if coeff:
                np.testing.assert_array_equal(got(x, s, xi), ref(x, s, xi))
            else:
                assert got is None

    def test_unbounded_power_derivatives_fall_back_to_chord(self):
        f = convection_from_catalog(
            "manufactured_plus_power", {"a1": 0.3, "alpha": 0.5, "a2": 0.2, "beta": 0.5}
        )
        assert f.d_s is None and f.d_xi is None


def _draw_sigma(rng):
    kind = rng.choice(list(SIGMA_PARAMS))
    params = {"constant": {"c": rng.uniform(-3.0, 3.0)},
              "nodal": {"x": [0.0, 0.4, 1.0], "values": list(rng.uniform(-2.0, 2.0, 3))}}
    return {"sigma_kind": str(kind), "sigma_params": params.get(kind, {}),
            "r": rng.uniform(1.0, 4.0)}


# convection kind -> a random draw of its parameters
_CATALOG_DRAWS = {
    "zero": lambda rng: {},
    "constant": lambda rng: {"c": rng.uniform(-3.0, 3.0)},
    "sigma_only": _draw_sigma,
    "signed_power": lambda rng: {"a1": rng.uniform(0.1, 2.0), "alpha": rng.uniform(0.5, 3.0)},
    "gradient_power": lambda rng: {"a2": rng.uniform(0.1, 2.0), "beta": rng.uniform(0.5, 3.0),
                                   "signed": bool(rng.integers(2))},
    "manufactured_p3q2": lambda rng: {},
    "manufactured_plus_power": lambda rng: {
        "a1": rng.choice([0.0, rng.uniform(0.1, 2.0)]), "alpha": rng.uniform(0.5, 3.0),
        "a2": rng.choice([0.0, rng.uniform(0.1, 2.0)]), "beta": rng.uniform(0.5, 3.0)},
}


def _away_from_zero(rng, shape):
    """Values of either sign with modulus in [0.5, 2], where every catalog f is smooth."""
    return rng.choice([-1.0, 1.0], shape) * rng.uniform(0.5, 2.0, shape)


class TestCatalog:
    """Every catalog kind, at its defaults and at seeded draws of its parameters."""

    def test_every_kind_has_draws_of_its_own_parameters(self):
        assert set(_CATALOG_DRAWS) == set(CONVECTION_PARAMS)
        rng = np.random.default_rng(0)
        for kind, draw in _CATALOG_DRAWS.items():
            assert set(draw(rng)) <= set(CONVECTION_PARAMS[kind])

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("draw", [None, 0, 1, 2], ids=["defaults", "draw0", "draw1", "draw2"])
    @pytest.mark.parametrize("kind", sorted(CONVECTION_PARAMS))
    def test_bound_partials_and_dependence(self, kind, draw, dim):
        rng = np.random.default_rng([dim, sorted(CONVECTION_PARAMS).index(kind),
                                     0 if draw is None else draw + 1])
        params = {} if draw is None else _CATALOG_DRAWS[kind](rng)
        f = convection_from_catalog(kind, params)
        shape = (6, 4)
        x = rng.uniform(0.0, 1.0, shape + (dim,))
        s, xi = _away_from_zero(rng, shape), _away_from_zero(rng, shape + (dim,))
        values = f.fn(x, s, xi)
        assert np.all(np.abs(values) <= f.envelope(x, s, xi) * (1 + 1e-12) + 1e-14)

        # f ignores an argument exactly when perturbing it changes nothing
        other_s, other_xi = _away_from_zero(rng, shape), _away_from_zero(rng, shape + (dim,))
        ignores_s = np.array_equal(f.fn(x, other_s, xi), values)
        ignores_xi = np.array_equal(f.fn(x, s, other_xi), values)
        assert f.solution_dependent == (not (ignores_s and ignores_xi))
        # an argument that f ignores has no partial to assemble
        assert not ignores_s or f.d_s is None
        assert not ignores_xi or f.d_xi is None

        if f.d_s is not None:
            h = 1e-6 * np.maximum(np.abs(s), 1.0)
            fd = (f.fn(x, s + h, xi) - f.fn(x, s - h, xi)) / (2 * h)
            np.testing.assert_allclose(f.d_s(x, s, xi), fd, rtol=1e-6)
        if f.d_xi is not None:
            got = f.d_xi(x, s, xi)
            for k in range(dim):
                step = np.zeros(dim)
                step[k] = 1e-6
                fd = (f.fn(x, s, xi + step) - f.fn(x, s, xi - step)) / 2e-6
                np.testing.assert_allclose(got[..., k], fd, rtol=1e-6)

    def test_empty_sigma_params_take_the_default_weight(self):
        x = np.linspace(0.0, 1.0, 5)[:, None]
        s, xi = np.zeros(5), np.zeros((5, 1))
        bare = convection_from_catalog("sigma_only")
        empty = convection_from_catalog("sigma_only", {"sigma_params": {}})
        assert empty.envelope == bare.envelope
        np.testing.assert_array_equal(empty(x, s, xi), bare(x, s, xi))

    @pytest.mark.parametrize("kind", sorted(CONVECTION_PARAMS))
    def test_unknown_parameter_raises(self, kind):
        with pytest.raises(TypeError):
            convection_from_catalog(kind, {"not_a_parameter": 1.0})


class TestGrowthEnvelope:
    """|f| - envelope at sample points (x, s, xi); nonpositive means it holds."""

    def test_zero_f_any_envelope(self):
        f = convection_from_catalog("zero")
        x, s, xi = np.array([[0.2], [0.9]]), np.array([1.0, -2.0]), np.array([[-3.0], [0.5]])
        assert np.max(np.abs(f(x, s, xi)) - f.envelope(x, s, xi)) <= 0.0

    def test_signed_power_is_tight(self):
        f = convection_from_catalog("signed_power", {"a1": 0.7, "alpha": 1.5})
        s = np.array([-2.0, -0.5, 0.3, 4.0])
        x, xi = np.full((4, 1), 0.1), np.zeros((4, 1))
        worst = np.max(np.abs(f(x, s, xi)) - f.envelope(x, s, xi))
        assert worst == pytest.approx(0.0, abs=1e-14)

    def test_manufactured_under_wider_weight(self):
        f = convection_from_catalog("manufactured_p3q2")
        fat = GrowthEnvelope(a1=0.0, a2=0.0, alpha=1.0, beta=1.0, r=2.0,
                             sigma=SigmaWeight("manufactured_plus"))
        import dataclasses

        f = dataclasses.replace(f, envelope=fat)
        x = np.linspace(0.0, 1.0, 101)[:, None]
        s, xi = np.zeros(101), np.zeros((101, 1))
        assert np.max(np.abs(f(x, s, xi)) - f.envelope(x, s, xi)) <= 0.0

    @pytest.mark.parametrize("sigma_kind,sigma_params", [
        ("constant", {"c": -2.0}),
        ("nodal", {"x": [0.0, 1.0], "values": [-1.0, -1.0]}),
        ("nodal", {"x": [0.0, 1.0], "values": [-1.0, 2.0]}),
    ], ids=["constant-negative", "nodal-negative", "nodal-sign-change"])
    def test_sigma_only_bounds_a_negative_weight(self, unit_hierarchy, sigma_kind, sigma_params):
        # f keeps the signed weight and its envelope is the weight's magnitude;
        # an envelope of the signed weight once lay below |f| everywhere
        f = convection_from_catalog("sigma_only", {"sigma_kind": sigma_kind,
                                                   "sigma_params": sigma_params})
        x = unit_hierarchy.level(4).qp_points
        s, xi = np.zeros(x.shape[:-1]), np.zeros(x.shape)
        values = f(x, s, xi)
        assert np.min(values) < 0.0
        assert np.max(np.abs(values) - f.envelope(x, s, xi)) <= 0.0
        if sigma_kind == "nodal":
            assert f.envelope.sigma.params["values"] == [abs(v) for v in sigma_params["values"]]

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
        bound = oracles.holder_bound(u, h.zero(3), sample(u), env, 3.0, P_CRIT)
        assert bound == 0.0

    def test_constant_sigma_reduces_to_l2(self, unit_hierarchy, rng):
        # sigma = 1, r = 2 on a unit interval: bound = ||v||_2
        h = unit_hierarchy
        u = h.zero(3)
        v = h.function(3, rng.standard_normal(15))
        env = GrowthEnvelope(a1=0.0, a2=0.0, alpha=1.0, beta=1.0, r=2.0,
                             sigma=SigmaWeight("constant", {"c": 1.0}))
        bound = oracles.holder_bound(u, v, sample(u), env, 3.0, P_CRIT)
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
            actual = abs(oracles.convection_integral(v, img, f))
            bound = oracles.holder_bound(u, v, img, env, 3.0, P_CRIT)
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
        - oracles.convection_integral(u, sample(u), f)
    )
    assert float(r @ u.coeffs) == pytest.approx(energy, rel=1e-10, abs=1e-12)
