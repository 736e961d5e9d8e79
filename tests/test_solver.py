import dataclasses
import json
import math

import numpy as np
import pytest

from competefem.constants import critical_surrogate
from competefem.discretization import (
    build_hierarchy,
    grad_norm_p,
    interval_mesh,
    prolongate,
)
from competefem.intrinsic import (
    Kernel,
    LiftFunction,
    boundary_lift_operator,
    convolution_operator,
    identity_operator,
)
from competefem.operators import convection_from_catalog
from competefem.solver import (
    HypothesisRefusal,
    ProblemInstance,
    brouwer_zero,
    convergence_diagnostics,
    run_hierarchy,
    solve_level,
    sphere_certificate,
)

from oracles import grid_search_zero, random_monotone_map


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
        worst, negative = sphere_certificate(inst, 4, 1.2983, 200, seed=3)
        assert negative == 0
        assert worst >= 0.0

    def test_small_radius_detects_violations(self, unit_hierarchy):
        # far inside the safeguard radius the load term dominates
        inst = make_instance(unit_hierarchy)
        worst, negative = sphere_certificate(inst, 3, 1e-3, 100, seed=3)
        assert worst < 0.0
        assert negative > 0

    def test_deterministic_given_seed(self, unit_hierarchy):
        inst = make_instance(unit_hierarchy)
        a = sphere_certificate(inst, 3, 1.0, 64, seed=11)
        b = sphere_certificate(inst, 3, 1.0, 64, seed=11)
        assert a == b


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
