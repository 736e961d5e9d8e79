import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

from competefem.constants import critical_surrogate
from competefem.discretization import (
    build_hierarchy,
    grad_norm_p,
    interval_mesh,
    prolongate,
    unit_square_mesh,
)
from competefem.intrinsic import (
    Kernel,
    LiftFunction,
    apply,
    boundary_lift_operator,
    convolution_operator,
    identity_operator,
)
from competefem.operators import convection_from_catalog
from competefem.solver import (
    SPHERE_CHUNK,
    HypothesisRefusal,
    ProblemInstance,
    _levenberg_step,
    _solve_newton_step,
    brouwer_zero,
    convergence_diagnostics,
    run_hierarchy,
    solve_level,
    sphere_certificate,
)

from oracles import grid_search_zero, random_monotone_map, sphere_pairings_loop


def make_instance(h, f_kind="manufactured_p3q2", f_params=None, T=None,
                  guess=None, seed=0, sphere=50, tol=1e-10, policy="refuse"):
    f = convection_from_catalog(f_kind, f_params or {})
    return ProblemInstance(
        hierarchy=h, p=3.0, q=2.0, convection=f,
        operator=T or identity_operator(),
        p_crit=critical_surrogate(3.0, 1), tol=tol, seed=seed, policy=policy,
        sphere_samples=sphere, estimator_starts=4, estimator_iters=150,
        initial_guess=guess,
    )


class TestBrouwerZero:
    def test_identity_map(self):
        res = brouwer_zero(lambda v: v, 1.0, dim=1)
        assert res.converged
        np.testing.assert_allclose(res.x, [0.0], atol=1e-10)

    def test_scalar_cubic(self):
        # v^3 - v - 6 = 0 has the root 2; the sphere values are 0 and 24
        res = brouwer_zero(lambda v: v**3 - v - 6.0, 2.0, dim=1)
        assert res.converged
        np.testing.assert_allclose(res.x, [2.0], atol=1e-8)

    def test_translation(self):
        target = np.array([1.0, 0.0])
        res = brouwer_zero(lambda v: v - target, 2.0, dim=2)
        assert res.converged
        np.testing.assert_allclose(res.x, target, atol=1e-10)

    def test_ball_respected_along_the_way(self):
        R = 1.5
        seen = []

        def F(v):
            seen.append(np.linalg.norm(v))
            return v - np.array([5.0, 0.0])  # zero outside the ball

        res = brouwer_zero(F, R, dim=2, max_newton=30, max_continuation_depth=3)
        assert all(n <= R * (1 + 1e-6) for n in seen)
        assert not res.converged
        assert "best residual" in res.message
        assert res.history

    def test_failure_reports_best_iterate(self):
        res = brouwer_zero(lambda v: v**2 + 1.0, 1.0, dim=1,
                           max_newton=20, max_continuation_depth=2)
        assert not res.converged
        assert res.residual_sup >= 1.0
        assert np.abs(res.x) <= 1.0 + 1e-9

    def test_custom_norm_projection(self):
        # ball in a weighted norm twice the Euclidean one
        res = brouwer_zero(lambda v: v - np.array([3.0]), 2.0, dim=1,
                           norm=lambda v: 2.0 * float(np.abs(v[0])),
                           max_newton=20, max_continuation_depth=2)
        assert np.abs(res.x[0]) <= 1.0 + 1e-9

    def test_needs_start_or_dim(self):
        with pytest.raises(ValueError, match="x0 or dim"):
            brouwer_zero(lambda v: v, 1.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_grid_search_oracle(self, dim):
        rng = np.random.default_rng(42 + dim)
        for _ in range(5):
            F, A, b, c = random_monotone_map(rng, dim, 1.0)
            res = brouwer_zero(lambda v: np.atleast_1d(F(v)), 1.0, dim=dim, tol=1e-12)
            assert res.converged
            oracle = grid_search_zero(F, 1.0, dim)
            assert np.linalg.norm(res.x - oracle) <= 1e-2


class TestNewtonFallback:
    # Galerkin Jacobian of the README problem at the exact interpolant on
    # level 1: |u'| = 1/2 at the inner nodes makes rows 1 and 3 equal
    J = np.array([[0.0, 2.0, 0.0], [2.0, -4.0, 2.0], [0.0, 2.0, 0.0]])
    rhs = np.array([1.0, -0.5, 0.25])

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_singular_jacobian_has_no_newton_step(self, sparse):
        J = sp.csr_matrix(self.J) if sparse else self.J
        assert _solve_newton_step(J, self.rhs) is None

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_levenberg_step_is_finite(self, sparse):
        J = sp.csr_matrix(self.J) if sparse else self.J
        lam = 1e-10
        dx = _levenberg_step(J, self.rhs, lam)
        assert dx is not None and np.all(np.isfinite(dx))
        normal = self.J.T @ self.J + lam * np.eye(3)
        np.testing.assert_allclose(normal @ dx, -self.J.T @ self.rhs, atol=1e-8)


class TestSolveLevel:
    def test_zero_rhs_gives_zero(self, unit_hierarchy):
        inst = make_instance(unit_hierarchy, "zero")
        out = solve_level(inst, 3, 1.0)
        assert out.converged
        np.testing.assert_allclose(out.u.coeffs, 0.0, atol=1e-12)
        assert out.residual_sup <= 1e-12

    def test_manufactured_error_decreases(self, unit_hierarchy):
        h = unit_hierarchy
        inst = make_instance(h, guess=lambda x: x * (1 - x))
        errs = []
        for n in range(1, 6):
            out = solve_level(inst, n, 1.3)
            assert out.converged
            exact = h.interpolate(n, lambda x: x * (1 - x))
            errs.append(grad_norm_p(h.function(n, out.u.coeffs - exact.coeffs), 3.0))
        assert errs[-1] < errs[0]
        assert errs[-1] < 5e-3

    def test_ball_constraint_holds(self, unit_hierarchy):
        inst = make_instance(unit_hierarchy)
        R = 0.25  # tighter than the natural solution norm
        out = solve_level(inst, 3, R)
        assert out.grad_norm <= R * (1 + 1e-6)

    def test_convolution_outer_loop_converges(self, unit_hierarchy):
        T = convolution_operator(Kernel("box", {"width": 0.1}), refine_factor=4)
        inst = make_instance(
            unit_hierarchy, "manufactured_plus_power",
            {"a1": 0.3, "alpha": 2.0}, T=T, guess=lambda x: x * (1 - x),
        )
        out = solve_level(inst, 3, 1.5)
        assert out.converged
        assert out.outer_iters >= 1
        assert out.residual_sup <= inst.tol

    def test_convolution_applies_T_once_per_iterate(self, unit_hierarchy, monkeypatch):
        # the start and each pass's result; no pass is damped on this level,
        # so the image of the true-residual check is reused as the next
        # frozen image and for the energy gap
        T = convolution_operator(Kernel("box", {"width": 0.1}), refine_factor=4)
        inst = make_instance(
            unit_hierarchy, "manufactured_plus_power",
            {"a1": 0.3, "alpha": 2.0}, T=T, guess=lambda x: x * (1 - x),
        )
        calls = []

        def counting_apply(op, u):
            calls.append(u.level)
            return apply(op, u)

        monkeypatch.setattr("competefem.solver.apply_operator", counting_apply)
        out = solve_level(inst, 4, 1.5)
        assert out.converged and out.outer_iters > 1
        assert len(calls) == out.outer_iters + 1

    @pytest.mark.parametrize("T", [
        identity_operator(), convolution_operator(Kernel("box", {"width": 0.25})),
    ], ids=["identity", "convolution"])
    def test_x_only_rhs_applies_no_T(self, unit_hierarchy, monkeypatch, T):
        # a constant f never reads T(u); marked solution dependent (without
        # derivatives, like the x-only term) it gets T(u) applied and ignores it
        f = convection_from_catalog("constant", {"c": 1.0})
        # the convolution certificate needs alpha = beta = p - 1
        f = dataclasses.replace(f, envelope=dataclasses.replace(f.envelope, alpha=2.0, beta=2.0))
        inst = dataclasses.replace(make_instance(unit_hierarchy, T=T, sphere=64), convection=f)
        marked = dataclasses.replace(
            inst, convection=dataclasses.replace(f, solution_dependent=True,
                                                 d_s=None, d_xi=None))
        calls = []

        def counting_apply(op, u):
            calls.append(u.level)
            return apply(op, u)

        monkeypatch.setattr("competefem.solver.apply_operator", counting_apply)
        report = run_hierarchy(inst, levels=4)
        assert report.status == "ok" and not calls
        reference = run_hierarchy(marked, levels=4)
        assert calls
        assert json.dumps(report.to_json_dict(), sort_keys=True) == json.dumps(
            reference.to_json_dict(), sort_keys=True
        )

    def test_local_solution_dependent_lift_is_one_pass(self, unit_hierarchy):
        # a local T stays inside the residual, so no frozen-T passes are made
        T = boundary_lift_operator(LiftFunction("affine", {"a": 0.1, "b": 0.05}))
        inst = make_instance(
            unit_hierarchy, "manufactured_plus_power",
            {"a1": 0.05, "a2": 0.05, "alpha": 2.0, "beta": 2.0}, T=T,
            guess=lambda x: x * (1 - x),
        )
        assert inst.convection.solution_dependent
        out = solve_level(inst, 2, 2.0)
        assert out.converged
        assert out.outer_iters == 0
        assert out.residual_sup <= inst.tol


class TestSphereCertificate:
    def test_manufactured_no_negative_pairings(self, unit_hierarchy):
        inst = make_instance(unit_hierarchy)
        sphere = sphere_certificate(inst, 4, 1.2983, 200, seed=3)
        assert sphere.negative == 0
        assert sphere.margin >= 0.0

    def test_small_radius_detects_violations(self, unit_hierarchy):
        # far inside the safeguard radius the load term dominates
        inst = make_instance(unit_hierarchy)
        sphere = sphere_certificate(inst, 3, 1e-3, 100, seed=3)
        assert sphere.margin < 0.0
        assert sphere.negative > 0

    def test_deterministic_given_seed(self, unit_hierarchy):
        inst = make_instance(unit_hierarchy)
        a = sphere_certificate(inst, 3, 1.0, 64, seed=11)
        b = sphere_certificate(inst, 3, 1.0, 64, seed=11)
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("n_samples", [0, 1, SPHERE_CHUNK - 1, SPHERE_CHUNK + 1, 1000])
    @pytest.mark.parametrize("case", ["identity-1d", "identity-square", "lift-1d",
                                      "convolution-1d"])
    def test_blocks_match_the_per_sample_loop(self, unit_hierarchy, case, n_samples):
        # at this radius about half the pairings of 1000 samples are negative
        R = 0.75
        power = {"a1": 0.3, "alpha": 2.0, "a2": 0.2, "beta": 2.0}
        if case == "identity-1d":  # x-only f: T is never applied
            inst = make_instance(unit_hierarchy)
        elif case == "identity-square":
            inst = make_instance(build_hierarchy(unit_square_mesh(), 4),
                                 "manufactured_plus_power", power)
        elif case == "lift-1d":
            T = boundary_lift_operator(LiftFunction("affine", {"a": 0.1, "b": 0.05}))
            inst = make_instance(unit_hierarchy, "manufactured_plus_power", power, T=T)
        else:
            T = convolution_operator(Kernel("box", {"width": 0.25}))
            inst = make_instance(unit_hierarchy, "manufactured_plus_power", power, T=T)
        n = inst.hierarchy.n_levels
        block = sphere_certificate(inst, n, R, n_samples, seed=5)
        loop = sphere_pairings_loop(inst, n, R, n_samples, seed=5)
        assert block.values.shape == loop.shape == (n_samples,)
        assert block.negative == int(np.count_nonzero(loop < 0))
        if n_samples == 0:
            assert block.margin is None and block.quantile(0.05) is None
            return
        assert block.margin == pytest.approx(loop.min(), rel=1e-12)
        np.testing.assert_allclose(block.values, loop, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(loop)))

    def test_chunked_draws_equal_sequential_draws(self):
        seed = np.random.SeedSequence((3, 929, 4))
        n, n_samples = 31, 2 * SPHERE_CHUNK + 5
        one = np.random.default_rng(seed)
        sequential = np.stack([one.standard_normal(n) for _ in range(n_samples)])
        chunked = np.random.default_rng(seed)
        blocks = [chunked.standard_normal((min(SPHERE_CHUNK, n_samples - s), n))
                  for s in range(0, n_samples, SPHERE_CHUNK)]
        np.testing.assert_array_equal(np.vstack(blocks), sequential)

    def test_applies_T_once_per_block(self, unit_hierarchy, monkeypatch):
        T = convolution_operator(Kernel("box", {"width": 0.25}))
        inst = make_instance(unit_hierarchy, "manufactured_plus_power",
                             {"a1": 0.3, "alpha": 2.0}, T=T)
        calls = []

        def counting_apply(op, u):
            calls.append(u.coeffs.shape)
            return apply(op, u)

        monkeypatch.setattr("competefem.solver.apply_operator", counting_apply)
        n_samples = 2 * SPHERE_CHUNK + 3
        sphere_certificate(inst, 4, 1.0, n_samples, seed=1)
        assert len(calls) <= math.ceil(n_samples / SPHERE_CHUNK)
        assert sum(shape[1] for shape in calls) == n_samples

    def test_quantiles_are_ordered(self, unit_hierarchy):
        sphere = sphere_certificate(make_instance(unit_hierarchy), 4, 1.0, 300, seed=2)
        assert sphere.margin <= sphere.quantile(0.05) <= sphere.quantile(0.5)
        assert sphere.quantile(0.05) == float(np.quantile(sphere.values, 0.05))


class TestRunHierarchy:
    def test_zero_rhs_all_levels_zero(self, unit_hierarchy):
        inst = make_instance(unit_hierarchy, "zero", sphere=20)
        report = run_hierarchy(inst)
        assert report.status == "ok"
        for s in report.levels:
            np.testing.assert_allclose(s.u.coeffs, 0.0, atol=1e-12)
        for d in report.diagnostics:
            assert d.weak_gap == pytest.approx(0.0, abs=1e-15)
            assert d.pairing_gap == pytest.approx(0.0, abs=1e-15)
            assert d.full_gap == pytest.approx(0.0, abs=1e-15)

    def test_manufactured_report_quality(self, unit_hierarchy):
        inst = make_instance(unit_hierarchy, guess=lambda x: x * (1 - x), sphere=100)
        report = run_hierarchy(inst)
        assert report.status == "ok"
        # a-priori bound from the safeguard radius holds on every level
        for s in report.levels:
            assert s.grad_norm <= report.radius * (1 + 1e-6)
            assert s.residual_sup <= inst.tol
            assert s.energy_gap <= inst.tol * len(s.u.coeffs) * max(
                1.0, float(np.linalg.norm(s.u.coeffs))
            )
            assert s.sphere_negative == 0
            assert s.sphere_margin <= s.sphere_q05 <= s.sphere_median
        # diagnostics rows exclude the finest level and decay
        levels = [d.level for d in report.diagnostics]
        assert levels == [1, 2, 3, 4]
        gaps = [d.weak_gap for d in report.diagnostics]
        assert gaps[-1] < gaps[0]

    def test_refuse_policy_raises(self, unit_hierarchy):
        inst = make_instance(unit_hierarchy, "signed_power",
                             {"a1": 20.0, "alpha": 1.0}, sphere=10)
        with pytest.raises(HypothesisRefusal) as err:
            run_hierarchy(inst)
        assert err.value.reports.status == "hypothesis_failed"
        assert not err.value.reports.hypothesis[0].passed

    def test_warn_policy_still_needs_finite_radius(self, unit_hierarchy):
        # with the smallness value at or above one no safeguard ball exists,
        # so even the warn policy has to stop
        inst = make_instance(unit_hierarchy, "signed_power",
                             {"a1": 20.0, "alpha": 1.0}, policy="warn", sphere=10)
        with pytest.raises(HypothesisRefusal, match="no finite safeguard radius"):
            run_hierarchy(inst)

    def test_warn_policy_passes_through_when_checks_hold(self, unit_hierarchy):
        inst = make_instance(unit_hierarchy, "signed_power",
                             {"a1": 0.2, "alpha": 1.0}, policy="warn", sphere=10)
        report = run_hierarchy(inst, levels=3)
        assert report.status == "ok"

    def test_convolution_tends_to_identity_solution(self, unit_hierarchy):
        # a near-delta kernel reproduces the local problem; the identity run
        # is the oracle (alpha = beta = p-1 as the certificates require)
        params = {"a1": 0.3, "alpha": 2.0, "a2": 0.0, "beta": 2.0}
        inst_id = make_instance(
            unit_hierarchy, "manufactured_plus_power", params,
            guess=lambda x: x * (1 - x), sphere=10,
        )
        rep_id = run_hierarchy(inst_id, levels=4)
        u_ref = rep_id.levels[-1].u

        dists = []
        for width in (0.2, 0.05, 0.0125):
            T = convolution_operator(Kernel("box", {"width": width}), refine_factor=4)
            inst = make_instance(
                unit_hierarchy, "manufactured_plus_power", params,
                T=T, guess=lambda x: x * (1 - x), sphere=10,
            )
            rep = run_hierarchy(inst, levels=4)
            assert rep.status == "ok"
            diff = unit_hierarchy.function(4, rep.levels[-1].u.coeffs - u_ref.coeffs)
            dists.append(grad_norm_p(diff, 3.0))
        assert dists[0] > dists[-1]
        assert dists[-1] < 5e-3


class TestDiagnostics:
    def test_identical_solutions_give_zero(self, unit_hierarchy):
        # feed the coarse solution itself as the stand-in limit: every
        # diagnostic against it must vanish identically
        inst = make_instance(unit_hierarchy, sphere=0)
        report = run_hierarchy(inst, levels=3)
        coarse = report.levels[0]
        rows = convergence_diagnostics(inst, [coarse], prolongate(coarse.u, 3))
        assert len(rows) == 1
        assert rows[0].weak_gap == 0.0
        assert rows[0].pairing_gap == 0.0
        assert rows[0].full_gap == pytest.approx(0.0, abs=1e-18)
        # the finest level never produces a row
        assert convergence_diagnostics(inst, report.levels[-1:],
                                       report.levels[-1].u) == []

    def test_pairing_identity_between_streams(self, unit_hierarchy):
        # full = strong - convection integral, checked against an
        # independent quadrature of the right-hand side
        from competefem.intrinsic import apply as apply_operator
        from competefem.operators import convection_integral

        inst = make_instance(unit_hierarchy, "manufactured_plus_power",
                             {"a1": 0.3, "alpha": 2.0}, guess=lambda x: x * (1 - x),
                             sphere=0)
        report = run_hierarchy(inst, levels=4)
        u = report.levels[-1].u
        rows = convergence_diagnostics(inst, report.levels, u)
        for row, solve in zip(rows, report.levels):
            un = prolongate(solve.u, u.level)
            diff = unit_hierarchy.function(u.level, un.coeffs - u.coeffs)
            img = apply_operator(inst.operator, un)
            expected = row.pairing_gap - convection_integral(diff, img, inst.convection)
            assert row.full_gap == pytest.approx(expected, rel=1e-12, abs=1e-15)


class TestDeterminism:
    def test_identical_runs_bitwise_equal(self, unit_hierarchy):
        inst = make_instance(unit_hierarchy, guess=lambda x: x * (1 - x), sphere=64)
        a = run_hierarchy(inst, levels=4)
        b = run_hierarchy(inst, levels=4)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )
