import dataclasses
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

import competefem.constants
import competefem.solver
from competefem.config import build_instance, parse_config_dict
from competefem.constants import (
    _key,
    build_constants,
    coercivity_radius,
    compose_c0,
    critical_surrogate,
)
from competefem.discretization import (
    build_hierarchy,
    grad_norm_p,
    interval_mesh,
    lebesgue_norm,
    prolongate,
    sample,
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
from competefem.operators import assemble_jacobian, assemble_residual, convection_from_catalog
from competefem.solver import (
    ProblemInstance,
    _levenberg_step,
    _normal_equations,
    _normal_plan,
    brouwer_zero,
    constants_and_hypotheses,
    convergence_diagnostics,
    required_exponents,
    run_hierarchy,
    solve_level,
    sphere_certificate,
)

import oracles
from oracles import (full_csr, grid_search_zero, pattern_csr, random_monotone_map,
                     sphere_pairings_loop)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
SPHERE_CASES = ["identity-1d", "identity-square", "lift-1d", "convolution-1d",
                "hat-convolution-1d"]


def make_instance(h, f_kind="manufactured_p3q2", f_params=None, T=None,
                  guess=None, seed=0, sphere=50, tol=1e-10, policy="refuse"):
    f = convection_from_catalog(f_kind, f_params or {})
    return ProblemInstance(
        hierarchy=h, p=3.0, q=2.0, convection=f,
        operator=T or identity_operator(),
        p_crit=critical_surrogate(3.0, 1), tol=tol, eps_reg=0.0, seed=seed, policy=policy,
        safety=1.1, sphere_samples=sphere, estimator_starts=4, estimator_iters=150,
        initial_guess=guess, test_set_size=8,
    )


def full_pattern(n):
    """The CSR pattern that stores every entry of an n x n matrix."""
    return full_csr(np.zeros((n, n)))


def with_jacobian(F, J):
    """F for brouwer_zero: F(v) and the data of the CSR matrix J(v) on its pattern."""
    return lambda v: (F(v), lambda: J(v).data)


def search(F, dF, R, x0, **kwargs):
    """brouwer_zero in the Euclidean ball with the analytic Jacobian dF on a full pattern."""
    x0 = np.asarray(x0, dtype=float)
    return brouwer_zero(with_jacobian(F, lambda v: full_csr(dF(v))), R, x0=x0,
                        pattern=full_pattern(x0.shape[-1]), norm=np.linalg.norm, **kwargs)


def _normal(J, r):
    """The normal equations of the CSR matrix J, planned on its own pattern."""
    return _normal_equations(_normal_plan(J), J.data, r)


class TestBrouwerZero:
    def test_identity_map(self):
        res = search(lambda v: v, lambda v: np.eye(1), 1.0, [0.0])
        assert res.converged
        np.testing.assert_allclose(res.x, [0.0], atol=1e-10)

    def test_scalar_cubic(self):
        # v^3 - v - 6 = 0 has the root 2; the sphere values are 0 and 24
        res = search(lambda v: v**3 - v - 6.0, lambda v: np.diag(3.0 * v**2 - 1.0), 2.0, [0.0])
        assert res.converged
        np.testing.assert_allclose(res.x, [2.0], atol=1e-8)

    def test_translation(self):
        target = np.array([1.0, 0.0])
        res = search(lambda v: v - target, lambda v: np.eye(2), 2.0, [0.0, 0.0])
        assert res.converged
        np.testing.assert_allclose(res.x, target, atol=1e-10)

    def test_ball_respected_along_the_way(self):
        R = 1.5
        seen = []

        def F(v):
            seen.append(np.linalg.norm(v))
            return v - np.array([5.0, 0.0])  # zero outside the ball

        res = search(F, lambda v: np.eye(2), R, [0.0, 0.0])
        assert all(n <= R * (1 + 1e-6) for n in seen)
        assert not res.converged
        assert "best residual" in res.message
        assert res.history

    def test_failure_reports_best_iterate(self):
        res = search(lambda v: v**2 + 1.0, lambda v: np.diag(2.0 * v), 1.0, [0.0])
        assert not res.converged
        assert res.residual_sup >= 1.0
        assert np.abs(res.x) <= 1.0 + 1e-9

    def test_custom_norm_projection(self):
        # ball in a weighted norm twice the Euclidean one
        res = brouwer_zero(with_jacobian(lambda v: v - np.array([3.0]),
                                         lambda v: full_csr(np.eye(1))),
                           2.0, x0=np.zeros(1), pattern=full_pattern(1),
                           norm=lambda v: 2.0 * float(np.abs(v[0])))
        assert np.abs(res.x[0]) <= 1.0 + 1e-9

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_grid_search_oracle(self, dim):
        rng = np.random.default_rng(42 + dim)
        for _ in range(5):
            F, dF, A, b, c = random_monotone_map(rng, dim, 1.0)
            res = search(lambda v: np.atleast_1d(F(v)), dF, 1.0, np.zeros(dim), tol=1e-12)
            assert res.converged
            oracle = grid_search_zero(F, 1.0, dim)
            assert np.linalg.norm(res.x - oracle) <= 1e-2

    def test_path_names_how_the_search_ended(self):
        assert search(lambda v: v - 0.5, lambda v: np.eye(2), 1.0, [0.0, 0.0]).path == "newton"
        failed = search(lambda v: v**2 + 1.0, lambda v: np.diag(2.0 * v), 1.0, [0.0])
        assert failed.path == "failed"
        # from -3 the damped steps stall at v = -1/sqrt(3), where F' = 0 makes
        # a local minimum of ||F||^2, and the homotopy finds the root 2
        res = search(lambda v: v**3 - v - 6.0, lambda v: np.diag(3.0 * v**2 - 1.0), 4.0, [-3.0])
        assert res.converged and res.continuation_stages > 0
        assert res.path == "homotopy"

    def test_starts_are_tried_in_order(self):
        # Newton from -3 stalls at v = -1/sqrt(3) and the second start
        # converges by Newton, so no homotopy runs
        F, dF = (lambda v: v**3 - v - 6.0), (lambda v: np.diag(3.0 * v**2 - 1.0))
        both = search(F, dF, 4.0, [[-3.0], [1.5]])
        first, second = search(F, dF, 4.0, [-3.0]), search(F, dF, 4.0, [1.5])
        assert both.path == "newton" and both.start == 1 and both.continuation_stages == 0
        np.testing.assert_array_equal(both.x, second.x)
        # the history holds the stalled attempt from -3, then the one from 1.5
        stalled = len(both.history) - len(second.history)
        assert both.history == first.history[:stalled] + second.history
        assert all(t == 1.0 for t, _ in first.history[:stalled])
        assert first.history[stalled][0] < 1.0  # where the lone search's homotopy begins
        assert both.newton_iters > second.newton_iters

    def test_failing_starts_return_the_best_attempt(self):
        # F = (v^2 - 1)^2 + 1/2 + v/5 has no root.  Newton stalls near v = 1
        # (F ~ 0.70) from 1.2 and at the minimum near v = -1.02 (F ~ 0.2976)
        # from -1.2.  The homotopy's best iterate (F ~ 0.2998) beats the stall
        # near 1 but not the one near -1.02, whichever order the starts take.
        def F(v):
            return (v**2 - 1.0) ** 2 + 0.5 + 0.2 * v

        def dF(v):
            return np.diag(4.0 * v * (v**2 - 1.0) + 0.2)

        alone = search(F, dF, 1.5, [-1.2])
        for order in ([[1.2], [-1.2]], [[-1.2], [1.2]]):
            res = search(F, dF, 1.5, order)
            assert res.path == "failed" and res.start is None
            np.testing.assert_array_equal(res.x, alone.x)
            np.testing.assert_array_equal(res.fx, F(res.x))
        assert res.residual_sup < search(F, dF, 1.5, [1.2]).residual_sup

    @pytest.mark.parametrize("x0", [[-3.0], [[-3.0]]], ids=["vector", "one-row"])
    def test_one_start_keeps_the_single_start_search(self, x0):
        # the counts and bits the search gave from -3 before it took several
        # starts: 34 Newton iterations over 4 homotopy stages
        res = search(lambda v: v**3 - v - 6.0, lambda v: np.diag(3.0 * v**2 - 1.0), 4.0, x0)
        assert (res.newton_iters, res.continuation_stages, len(res.history)) == (34, 4, 38)
        assert res.x.tolist() == [2.00000000000321]
        assert res.start is None
        assert search(lambda v: v - 0.5, lambda v: np.eye(2), 1.0, [0.0, 0.0]).start == 0

    def test_newton_exit_reuses_the_last_residual(self):
        # a search that converges by Newton evaluates F once at the start and
        # once per trial step, and returns the last value it evaluated
        target = np.array([1.0, -0.5])
        seen = []

        def F(v):
            seen.append((v.copy(), v + 0.5 * v**3 - target))
            return seen[-1][1]

        res = search(F, lambda v: np.diag(1.0 + 1.5 * v**2), 2.0, [0.0, 0.0])
        assert res.path == "newton" and res.newton_iters > 1
        assert len(seen) == 1 + res.newton_iters
        np.testing.assert_array_equal(seen[-1][0], res.x)
        assert res.fx is seen[-1][1]
        assert res.residual_sup == float(np.max(np.abs(res.fx)))

    @pytest.mark.parametrize("case", ["homotopy", "failed"])
    def test_result_residual_is_F_at_x(self, case):
        # the homotopy and the best-iterate failure also return F(x)
        if case == "homotopy":
            def F(v):
                return v**3 - v - 6.0
            res = search(F, lambda v: np.diag(3.0 * v**2 - 1.0), 4.0, [-3.0])
        else:
            def F(v):
                return v**2 + 1.0
            res = search(F, lambda v: np.diag(2.0 * v), 1.0, [0.0])
        assert res.path == case
        np.testing.assert_array_equal(res.fx, F(res.x))
        assert res.residual_sup == float(np.max(np.abs(F(res.x))))

    def test_dense_jacobian_through_the_homotopy(self):
        res = search(lambda v: v**3 - v - 6.0, lambda v: np.diag(3.0 * v**2 - 1.0), 4.0, [-3.0])
        assert res.path == "homotopy"
        np.testing.assert_allclose(res.x, [2.0], atol=1e-8)

    def test_a_later_jacobian_on_another_pattern_is_refused(self):
        # the first Jacobian stores the zero off-diagonal entries of the full
        # pattern, later ones drop them, so their data is too short
        target = np.array([1.0, -0.5])
        patterns = iter([full_csr, sp.csr_matrix])

        def jac(v):
            return next(patterns, sp.csr_matrix)(np.diag(1.0 + 1.5 * v**2))

        with pytest.raises(ValueError, match="a Jacobian has 2 entries, its pattern 4"):
            brouwer_zero(with_jacobian(lambda v: v + 0.5 * v**3 - target, jac), 2.0,
                         x0=np.zeros(2), pattern=full_pattern(2), norm=np.linalg.norm)

    def test_a_first_pattern_without_its_diagonal_is_refused(self):
        J = sp.csr_matrix(TestNewtonFallback.J)  # no entries at (0, 0) and (2, 2)
        assert J.nnz == 5
        with pytest.raises(ValueError, match="lacks a diagonal entry"):
            brouwer_zero(with_jacobian(lambda v: J @ v - TestNewtonFallback.rhs, lambda v: J),
                         1.0, x0=np.zeros(3), pattern=J, norm=np.linalg.norm)


class TestNewtonFallback:
    # Galerkin Jacobian of the README problem at the exact interpolant on
    # level 1: |u'| = 1/2 at the inner nodes makes rows 1 and 3 equal
    J = np.array([[0.0, 2.0, 0.0], [2.0, -4.0, 2.0], [0.0, 2.0, 0.0]])
    rhs = np.array([1.0, -0.5, 0.25])

    # the same matrix stored in full, zero diagonal included, and sparse
    @pytest.mark.parametrize("stored", [full_csr, sp.csr_matrix], ids=["dense", "sparse"])
    def test_levenberg_step_is_finite(self, stored):
        lam = 1e-10
        dx = _levenberg_step(_normal(stored(self.J), self.rhs), lam)
        assert dx is not None and np.all(np.isfinite(dx))
        normal = self.J.T @ self.J + lam * np.eye(3)
        np.testing.assert_allclose(normal @ dx, -self.J.T @ self.rhs, atol=1e-8)

    @pytest.mark.parametrize("stored", [full_csr, sp.csr_matrix], ids=["dense", "sparse"])
    def test_undamped_singular_normal_equations_have_no_step(self, stored):
        # J^T J = [[4, -8, 4], [-8, 24, -8], [4, -8, 4]] is singular; in the
        # pattern's order its Cholesky factor meets an exact zero pivot
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _levenberg_step(_normal(stored(self.J), self.rhs), 0.0) is None


def _galerkin_jacobian(domain, level, kind, seed=5):
    """A Galerkin Jacobian and residual at a random iterate, identity T."""
    mesh = interval_mesh(0.0, 1.0, 4) if domain == "interval" else unit_square_mesh()
    h = build_hierarchy(mesh, level)
    params = {"c": 1.0} if kind == "constant" else {"a1": 0.1, "a2": 0.1,
                                                     "alpha": 2.0, "beta": 2.0}
    f = convection_from_catalog(kind, params)
    u = h.function(level, 0.1 * np.random.default_rng(seed).standard_normal(
        h.level(level).n_free))
    img = apply(identity_operator(), u) if f.solution_dependent else None
    return (pattern_csr(u.lvl.jacobian_pattern, assemble_jacobian(u, img, f, 3.0, 2.0)),
            assemble_residual(u, img, f, 3.0, 2.0))


class TestLevenbergStep:
    @pytest.mark.parametrize("lam", [1e-8, 1.0, 1e4])
    @pytest.mark.parametrize("t", [1.0, 0.5], ids=["full", "blend"])
    @pytest.mark.parametrize("kind", ["constant", "manufactured_plus_power"],
                             ids=["symmetric", "nonsymmetric"])
    @pytest.mark.parametrize("domain,level", [("interval", 6), ("unit_square", 4)],
                             ids=["interval-L6", "square-L4"])
    def test_backward_error_against_dense_solve(self, domain, level, kind, t, lam):
        J, r = _galerkin_jacobian(domain, level, kind)
        Jd = J.toarray()
        asymmetry = np.abs(Jd - Jd.T).max() / np.abs(Jd).max()
        assert (asymmetry < 1e-14) == (kind == "constant")
        Jt = J if t == 1.0 else (t * J + (1.0 - t) * sp.identity(J.shape[0])).tocsr()
        Jtd = Jt.toarray()
        A = Jtd.T @ Jtd + lam * np.eye(len(r))
        b = -Jtd.T @ r

        def backward_error(dx):
            return (np.linalg.norm(A @ dx - b)
                    / (np.linalg.norm(A, 2) * np.linalg.norm(dx) + np.linalg.norm(b)))

        dx = _levenberg_step(_normal(Jt, r), lam)
        assert dx is not None
        assert backward_error(dx) <= 1e-13
        assert backward_error(np.linalg.solve(A, b)) <= 1e-13

    def test_band_is_narrow_in_two_dimensions(self):
        J, r = _galerkin_jacobian("unit_square", 4, "constant")
        normal = _normal(J, r)
        natural = J.T @ J
        rows, cols = natural.nonzero()
        assert 1 < normal.band.shape[0] - 1 < int(np.max(np.abs(rows - cols)))

    def test_nonsingular_linear_map_takes_one_undamped_step(self, monkeypatch):
        # the Newton step is the lam = 0 Cholesky step of the normal equations
        A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, -1.0], [0.0, 2.0, 5.0]])
        b = np.array([1.0, -2.0, 0.5])
        normals, lams = [], []

        def counting_normal(plan, data, r):
            normals.append(1)
            return _normal_equations(plan, data, r)

        def counting_step(normal, lam):
            lams.append(lam)
            return _levenberg_step(normal, lam)

        monkeypatch.setattr("competefem.solver._normal_equations", counting_normal)
        monkeypatch.setattr("competefem.solver._levenberg_step", counting_step)
        res = search(lambda v: A @ v - b, lambda v: A, 10.0, np.zeros(3))
        assert res.path == "newton" and res.newton_iters == 1
        assert len(normals) == 1 and lams == [0.0]
        np.testing.assert_allclose(res.x, np.linalg.solve(A, b), atol=1e-12)

    def test_deep_1d_level_keeps_the_undamped_step(self, monkeypatch):
        # squaring cond(J) ~ h^-2 puts cond(J^T J) near 1e13 on level 11 of
        # the 4-element interval; every Newton iteration from the origin must
        # still accept its first trial, the lam = 0 step
        inst = build_instance(parse_config_dict({
            "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "elements": 4},
            "p": 3.0, "q": 2.0, "levels": 11, "f": {"kind": "manufactured_p3q2"},
        }))
        lams = []

        def recording(normal, lam):
            lams.append(lam)
            return _levenberg_step(normal, lam)

        monkeypatch.setattr("competefem.solver._levenberg_step", recording)
        out = solve_level(inst, 11, 1.5)
        assert out.search.converged and out.search.path == "newton"
        assert len(lams) == out.search.newton_iters and set(lams) == {0.0}

    def test_forms_normal_equations_once_per_jacobian(self, unit_hierarchy, monkeypatch):
        # constant f on the 3-dof base level stalls Newton and needs the homotopy
        counts = {"jacobian": 0, "normal": 0, "damped": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, fn in (("jacobian", assemble_jacobian), ("normal", _normal_equations),
                         ("damped", _levenberg_step)):
            monkeypatch.setattr(f"competefem.solver.{fn.__name__}", counting(name, fn))
        out = solve_level(make_instance(unit_hierarchy, "constant", {"c": 1.0}), 1, 2.0)
        assert out.search.converged and out.search.path == "homotopy"
        assert counts["damped"] > 0
        assert counts["normal"] <= counts["jacobian"]
        assert counts["normal"] < counts["damped"]


class TestSymbolicPlan:
    @pytest.mark.parametrize("t", [0.0, 0.3, 0.75])
    @pytest.mark.parametrize("domain,level", [("interval", 4), ("unit_square", 3)])
    def test_blend_is_t_J_plus_one_minus_t_identity(self, domain, level, t):
        # the search blends on J's data: scale it by t, add 1 - t at plan.diag
        J, _ = _galerkin_jacobian(domain, level, "manufactured_plus_power")
        plan = _normal_plan(J)
        data = t * J.data
        data[plan.diag] += 1.0 - t
        blended = sp.csr_matrix((data, J.indices, J.indptr), shape=J.shape)
        reference = (t * J + (1.0 - t) * sp.identity(J.shape[0])).toarray()
        np.testing.assert_array_equal(blended.toarray(), reference)
        assert plan.diag.size == J.shape[0]

    @pytest.mark.parametrize("domain,level", [("interval", 4), ("unit_square", 3)])
    def test_homotopy_blends_on_the_jacobian_pattern(self, domain, level, monkeypatch):
        # a linear map whose zero lies outside the ball makes Newton stall
        # and the homotopy run stages at several t < 1
        J, _ = _galerkin_jacobian(domain, level, "manufactured_plus_power")
        n = J.shape[0]
        x = np.ones(n)
        seen = []

        def recording(plan, data, r):
            seen.append((plan, data.copy()))
            return _normal_equations(plan, data, r)

        monkeypatch.setattr("competefem.solver._normal_equations", recording)
        res = brouwer_zero(with_jacobian(lambda v: J @ (v - x), lambda v: J),
                           0.5 * np.linalg.norm(x), x0=np.zeros(n), pattern=J,
                           norm=np.linalg.norm)
        ts = {t for t, _ in res.history}
        assert res.continuation_stages > 0 and len(ts) > 2
        references = {t: (t * J + (1.0 - t) * sp.identity(n)).toarray() for t in ts}
        own = _normal_plan(J)
        for plan, data in seen:
            # on J's own pattern
            assert np.array_equal(plan.perm, own.perm)
            assert np.array_equal(plan.diag, own.diag)
            blended = sp.csr_matrix((data, J.indices, J.indptr), shape=J.shape).toarray()
            assert any(np.array_equal(blended, ref) for ref in references.values())
        assert sum(not np.array_equal(data, J.data) for _, data in seen) > 2

    def test_explicit_zeros_leave_the_numbers_unchanged(self):
        # the level pattern stores entries whose value is zero; the normal
        # equations on it hold the same numbers as on the pattern without them
        J, r = _galerkin_jacobian("unit_square", 3, "constant")
        data = J.data.copy()
        data[::4] = 0.0
        with_zeros = sp.csr_matrix((data, J.indices, J.indptr), shape=J.shape)
        without = sp.csr_matrix(with_zeros.toarray())
        assert without.nnz < with_zeros.nnz
        a, b = _normal(with_zeros, r), _normal(without, r)
        G = without.T @ without
        for normal in (a, b):
            n = len(r)
            full = np.zeros((n, n))
            for k in range(normal.band.shape[0]):
                full[np.arange(k, n), np.arange(n - k)] = normal.band[k, :n - k]
            full = full + np.tril(full, -1).T
            np.testing.assert_allclose(full, G.toarray()[np.ix_(normal.perm, normal.perm)],
                                       rtol=1e-15, atol=0)
            np.testing.assert_allclose(normal.rhs, -(without.T @ r)[normal.perm], rtol=1e-15)

    def test_ordering_is_computed_once_per_search(self, unit_hierarchy, monkeypatch):
        # a homotopy solve makes many Jacobians of one level, and orders once
        orderings, jacobians = [], []

        def counting(calls, fn):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr("competefem.solver.reverse_cuthill_mckee",
                            counting(orderings, reverse_cuthill_mckee))
        monkeypatch.setattr("competefem.solver.assemble_jacobian",
                            counting(jacobians, assemble_jacobian))
        inst = make_instance(unit_hierarchy, "constant", {"c": 1.0})
        out = solve_level(inst, 1, 2.0)
        assert out.search.path == "homotopy" and len(jacobians) > 10
        assert len(orderings) == 1
        solve_level(inst, 2, 2.0)  # another level, another pattern
        assert len(orderings) == 2
        solve_level(inst, 1, 2.0)  # no plan outlives its search
        assert len(orderings) == 3

    def test_newton_iterations_build_no_sparse_matrix(self, monkeypatch):
        # the Jacobians are data on the level's pattern: a level solve builds
        # the same CSR matrices however many Newton iterations it takes
        made = []
        csr_matrix = sp.csr_matrix

        def counting(*args, **kwargs):
            made.append(1)
            return csr_matrix(*args, **kwargs)

        monkeypatch.setattr(sp, "csr_matrix", counting)
        counts = {}
        # Newton from the exact profile, and the homotopy of a constant f
        for f_kind, f_params, guess in (("manufactured_p3q2", {}, lambda x: x * (1 - x)),
                                        ("constant", {"c": 1.0}, None)):
            h = build_hierarchy(interval_mesh(0.0, 1.0, 4), 1)  # its pattern is not built yet
            inst = make_instance(h, f_kind, f_params, guess=guess)
            made.clear()
            out = solve_level(inst, 1, 2.0)
            assert out.search.converged
            counts[out.search.newton_iters] = len(made)
        assert len(counts) == 2 and max(counts) > 10
        assert len(set(counts.values())) == 1


class TestSolveLevel:
    def test_zero_rhs_gives_zero(self, unit_hierarchy):
        inst = make_instance(unit_hierarchy, "zero")
        out = solve_level(inst, 3, 1.0)
        assert out.search.converged
        np.testing.assert_allclose(out.u.coeffs, 0.0, atol=1e-12)
        assert out.search.residual_sup <= 1e-12

    def test_manufactured_error_decreases(self, unit_hierarchy):
        h = unit_hierarchy
        inst = make_instance(h, guess=lambda x: x * (1 - x))
        errs = []
        for n in range(1, 6):
            out = solve_level(inst, n, 1.3)
            assert out.search.converged
            exact = h.interpolate(n, lambda x: x * (1 - x))
            errs.append(grad_norm_p(h.function(n, out.u.coeffs - exact.coeffs), 3.0))
        assert errs[-1] < errs[0]
        assert errs[-1] < 5e-3

    def test_ball_constraint_holds(self, unit_hierarchy):
        inst = make_instance(unit_hierarchy)
        R = 0.25  # tighter than the natural solution norm
        out = solve_level(inst, 3, R)
        assert out.grad_norm <= R * (1 + 1e-6)

    def test_convolution_is_one_search(self, unit_hierarchy, monkeypatch):
        T = convolution_operator(Kernel("box", {"width": 0.1}), refine_factor=4)
        inst = make_instance(
            unit_hierarchy, "manufactured_plus_power",
            {"a1": 0.3, "alpha": 2.0}, T=T, guess=lambda x: x * (1 - x),
        )
        searches = _record_searches(monkeypatch)
        out = solve_level(inst, 3, 1.5)
        assert out.search.converged and out.search.residual_sup <= inst.tol
        assert len(searches) == 1
        assert out.search is searches[0]

    def test_convolution_applies_T_once_per_residual(self, unit_hierarchy, monkeypatch):
        # the residual applies T at every iterate; the chord Jacobian, the
        # reported residual and the energy gap apply none
        T = convolution_operator(Kernel("box", {"width": 0.1}), refine_factor=4)
        inst = make_instance(
            unit_hierarchy, "manufactured_plus_power",
            {"a1": 0.3, "alpha": 2.0}, T=T, guess=lambda x: x * (1 - x),
        )
        applied, residuals, jacobians = [], [], []

        def counting(calls, fn):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr("competefem.solver.apply_operator", counting(applied, apply))
        monkeypatch.setattr("competefem.solver.assemble_residual",
                            counting(residuals, assemble_residual))
        monkeypatch.setattr("competefem.solver.assemble_jacobian",
                            counting(jacobians, assemble_jacobian))
        searched = []

        def search(F, *args, **kwargs):
            return brouwer_zero(counting(searched, F), *args, **kwargs)

        monkeypatch.setattr("competefem.solver.brouwer_zero", search)
        out = solve_level(inst, 4, 1.5)
        assert out.search.converged and jacobians
        assert len(applied) == len(residuals) == len(searched) > out.search.newton_iters

    def test_path_is_the_path_of_the_one_search(self, unit_hierarchy, monkeypatch):
        # strong power terms and a start far from the solution: one Newton
        # search converges, and the level reports that search's path
        T = convolution_operator(Kernel("box", {"width": 0.5}), refine_factor=4)
        inst = make_instance(
            unit_hierarchy, "manufactured_plus_power",
            {"a1": 1.0, "alpha": 2.0, "a2": 0.5, "beta": 2.0}, T=T,
            guess=lambda x: 5.0 * np.sin(3.0 * np.pi * x),
        )
        searches = _record_searches(monkeypatch)
        out = solve_level(inst, 1, 1.5)
        assert len(searches) == 1
        assert out.search.converged and out.search.path == searches[0].path == "newton"
        assert out.search.continuation_stages == searches[0].continuation_stages == 0

    @pytest.mark.parametrize("guess", [None, "exact"])
    @pytest.mark.parametrize("shape,a1,a2,width", [
        ("box", a1, a2, width)
        for a1 in (0.1, 1.0) for a2 in (0.0, 0.3) for width in (0.1, 0.5)
    ] + [("hat", 1.0, 0.3, 0.5)])
    def test_convolution_grid_converges(self, unit_hierarchy, monkeypatch,
                                        shape, a1, a2, width, guess):
        # corners of a sweep over the power coefficients and the kernel
        # width: every level converges, warm-started like run_hierarchy
        T = convolution_operator(Kernel(shape, {"width": width}))
        inst = make_instance(
            unit_hierarchy, "manufactured_plus_power",
            {"a1": a1, "a2": a2, "alpha": 2.0, "beta": 2.0}, T=T,
            guess=None if guess is None else (lambda x: x * (1 - x)),
        )
        searches = _record_searches(monkeypatch)
        warm = None
        for n in range(1, 6):
            out = solve_level(inst, n, 1.5, warm=warm)
            assert out.search.converged and out.search.residual_sup <= inst.tol
            assert len(searches) == n and out.search.path == searches[-1].path
            warm = prolongate(out.u, min(n + 1, 5))

    def test_conv_1d_deep_levels_are_pinned(self):
        # the conv-1d-deep benchmark workload's L1-L5 against reference
        # coefficients computed with T frozen per zero search and the
        # searches repeated to a fixed point; the ball does not bind, so the
        # radius does not matter
        inst = build_instance(parse_config_dict({
            "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "elements": 4},
            "p": 3.0, "q": 2.0, "levels": 5,
            "f": {"kind": "manufactured_plus_power", "a1": 0.1, "a2": 0.1,
                  "alpha": 2.0, "beta": 2.0},
            "T": {"kind": "convolution", "kernel": {"shape": "box", "width": 0.25}},
            "initial_guess": "exact",
        }))
        pinned = json.loads((Path(__file__).parent
                             / "conv_1d_deep_coefficients.json").read_text())
        for n in range(1, 6):
            out = solve_level(inst, n, 1.5)
            assert out.search.converged and out.search.path == "newton"
            np.testing.assert_allclose(out.u.coeffs, pinned[str(n)], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("T", [
        identity_operator(), convolution_operator(Kernel("box", {"width": 0.25})),
    ], ids=["identity", "convolution"])
    def test_x_only_rhs_applies_no_T(self, unit_levels, monkeypatch, T):
        # a constant f never reads T(u); marked solution dependent (without
        # derivatives, like the x-only term) it gets T(u) applied and ignores it
        f = convection_from_catalog("constant", {"c": 1.0})
        # the convolution certificate needs alpha = beta = p - 1
        f = dataclasses.replace(f, envelope=dataclasses.replace(f.envelope, alpha=2.0, beta=2.0))
        inst = dataclasses.replace(make_instance(unit_levels(4), T=T, sphere=64), convection=f)
        marked = dataclasses.replace(
            inst, convection=dataclasses.replace(f, solution_dependent=True,
                                                 d_s=None, d_xi=None))
        calls = []

        def counting_apply(op, u):
            calls.append(u.level)
            return apply(op, u)

        monkeypatch.setattr("competefem.solver.apply_operator", counting_apply)
        report = run_hierarchy(inst)
        assert report.status == "ok" and not calls
        reference = run_hierarchy(marked)
        assert calls
        assert json.dumps(report.to_json_dict(), sort_keys=True) == json.dumps(
            reference.to_json_dict(), sort_keys=True
        )

    def test_local_solution_dependent_lift_differentiates_f(self, unit_hierarchy,
                                                            monkeypatch):
        # a local T is differentiated through f: the Jacobian gets samples of T
        T = boundary_lift_operator(LiftFunction("affine", {"a": 0.1, "b": 0.05}))
        inst = make_instance(
            unit_hierarchy, "manufactured_plus_power",
            {"a1": 0.05, "a2": 0.05, "alpha": 2.0, "beta": 2.0}, T=T,
            guess=lambda x: x * (1 - x),
        )
        assert inst.convection.solution_dependent
        flags = []

        def recording(u, img, *args, **kwargs):
            flags.append(img is not None)
            return assemble_jacobian(u, img, *args, **kwargs)

        monkeypatch.setattr("competefem.solver.assemble_jacobian", recording)
        searches = _record_searches(monkeypatch)
        out = solve_level(inst, 2, 2.0)
        assert out.search.converged and out.search.residual_sup <= inst.tol
        assert len(searches) == 1
        assert flags and all(flags)

    def test_local_T_applied_once_per_residual(self, monkeypatch):
        # the Jacobian reuses the samples of T the residual took at the same
        # iterate; the 1D boundary-lift problem with a solution-dependent f
        inst = build_instance(parse_config_dict({
            "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "elements": 4},
            "p": 3.0, "q": 2.0, "levels": 3,
            "f": {"kind": "manufactured_plus_power", "a1": 0.05, "a2": 0.05,
                  "alpha": 2.0, "beta": 2.0},
            "T": {"kind": "boundary_lift", "u0": {"kind": "affine", "a": 0.1, "b": 0.05}},
            "initial_guess": "exact",
        }))
        counts = {"apply_operator": 0, "assemble_residual": 0, "assemble_jacobian": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, fn in zip(counts, (apply, assemble_residual, assemble_jacobian)):
            monkeypatch.setattr(f"competefem.solver.{name}", counting(name, fn))
        for n in range(1, 4):
            assert solve_level(inst, n, 2.0).search.converged
        assert counts["assemble_jacobian"] > 0
        assert counts["apply_operator"] == counts["assemble_residual"]


def _record_searches(monkeypatch):
    """Record every result of ``brouwer_zero`` that ``solve_level`` gets."""
    searches = []

    def recording(*args, **kwargs):
        res = brouwer_zero(*args, **kwargs)
        searches.append(res)
        return res

    monkeypatch.setattr("competefem.solver.brouwer_zero", recording)
    return searches


class TestSphereCertificate:
    def test_manufactured_no_negative_pairings(self, unit_hierarchy):
        inst = dataclasses.replace(make_instance(unit_hierarchy), sphere_samples=200, seed=3)
        sphere = sphere_certificate(inst, 4, 1.2983)
        assert np.count_nonzero(sphere < 0) == 0
        assert sphere.min() >= 0.0

    def test_small_radius_detects_violations(self, unit_hierarchy):
        # far inside the safeguard radius the load term dominates
        inst = dataclasses.replace(make_instance(unit_hierarchy), sphere_samples=100, seed=3)
        sphere = sphere_certificate(inst, 3, 1e-3)
        assert sphere.min() < 0.0
        assert np.count_nonzero(sphere < 0) > 0

    def test_deterministic_given_seed(self, unit_hierarchy):
        inst = dataclasses.replace(make_instance(unit_hierarchy), sphere_samples=64, seed=11)
        a = sphere_certificate(inst, 3, 1.0)
        b = sphere_certificate(inst, 3, 1.0)
        np.testing.assert_array_equal(a, b)

    @staticmethod
    def _case(unit_hierarchy, case):
        """An instance of ``case`` and the level whose sphere it samples."""
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
            shape = "hat" if case == "hat-convolution-1d" else "box"
            T = convolution_operator(Kernel(shape, {"width": 0.25}))
            inst = make_instance(unit_hierarchy, "manufactured_plus_power", power, T=T)
        return inst, inst.hierarchy.n_levels

    @staticmethod
    def _width(inst, n):
        """Sphere samples per block on level n, under the budget in force."""
        return max(1, competefem.solver.SPHERE_BUDGET // inst.hierarchy.level(n).qp_weights.size)

    @pytest.mark.parametrize("n_samples", [0, 1, "width-1", "width+1", 1000])
    @pytest.mark.parametrize("case", SPHERE_CASES)
    def test_blocks_match_the_per_sample_loop(self, unit_hierarchy, case, n_samples):
        # at this radius about half the pairings of 1000 samples are negative
        R = 0.75
        inst, n = self._case(unit_hierarchy, case)
        width = self._width(inst, n)
        assert 1 < width < 1000
        n_samples = {"width-1": width - 1, "width+1": width + 1}.get(n_samples, n_samples)
        block = sphere_certificate(dataclasses.replace(inst, sphere_samples=n_samples, seed=5),
                                   n, R)
        loop = sphere_pairings_loop(inst, n, R, n_samples, seed=5)
        assert block.shape == loop.shape == (n_samples,)
        assert np.count_nonzero(block < 0) == np.count_nonzero(loop < 0)
        if n_samples == 0:
            return
        assert block.min() == pytest.approx(loop.min(), rel=1e-12)
        np.testing.assert_allclose(block, loop, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(loop)))

    @pytest.mark.parametrize("case", SPHERE_CASES)
    def test_pairings_do_not_depend_on_the_block_width(self, unit_hierarchy, case,
                                                       monkeypatch):
        # each column of a block is evaluated on its own, so the bits of every
        # pairing are the same for any budget
        inst, n = self._case(unit_hierarchy, case)
        inst = dataclasses.replace(inst, sphere_samples=300, seed=5)
        assert self._width(inst, n) < 300
        wide = sphere_certificate(inst, n, 0.75)
        monkeypatch.setattr(competefem.solver, "SPHERE_BUDGET",
                            7 * inst.hierarchy.level(n).qp_weights.size)
        assert self._width(inst, n) == 7
        narrow = sphere_certificate(inst, n, 0.75)
        np.testing.assert_array_equal(narrow, wide)

    def test_chunked_draws_equal_sequential_draws(self, unit_hierarchy):
        seed = np.random.SeedSequence((3, 929, 4))
        lvl = unit_hierarchy.level(4)
        n, width = lvl.n_free, self._width(make_instance(unit_hierarchy), 4)
        n_samples = 2 * width + 5
        one = np.random.default_rng(seed)
        sequential = np.stack([one.standard_normal(n) for _ in range(n_samples)])
        chunked = np.random.default_rng(seed)
        blocks = [chunked.standard_normal((min(width, n_samples - s), n))
                  for s in range(0, n_samples, width)]
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
        width = self._width(inst, 4)
        n_samples = 2 * width + 3
        sphere_certificate(dataclasses.replace(inst, sphere_samples=n_samples, seed=1), 4, 1.0)
        assert len(calls) <= math.ceil(n_samples / width)
        assert sum(shape[1] for shape in calls) == n_samples

    @pytest.mark.parametrize("shape", ["box", "cubic_bspline"])
    def test_block_memory_does_not_grow_with_the_level(self, shape):
        # conv-1d-deep's config on level 9, where blocks of 64 samples
        # peaked at 26 MB and each further level doubled that
        config = json.loads((WORKLOADS / "conv-1d-deep.json").read_text())
        config["T"]["kernel"]["shape"] = shape
        inst = build_instance(parse_config_dict({**config, "levels": 9}))
        h = inst.hierarchy
        # the level's solve builds the convolution map before the sphere is sampled
        apply(inst.operator, h.function(9, np.zeros(h.level(9).n_free)))
        tracemalloc.start()
        try:
            sphere = sphere_certificate(inst, 9, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sphere.size == inst.sphere_samples == 1000
        assert peak < 8e6

    def test_level_row_reads_the_pairings(self, unit_hierarchy):
        # a small radius, so that some pairings are negative
        inst = dataclasses.replace(make_instance(unit_hierarchy), sphere_samples=300, seed=2)
        sphere = sphere_certificate(inst, 4, 1e-3)
        solved = solve_level(inst, 4, 1.0)
        row = dataclasses.replace(solved, sphere=sphere).to_json_dict()
        assert row["sphere_margin"] == float(sphere.min())
        assert row["sphere_negative"] == int(np.count_nonzero(sphere < 0)) > 0
        assert row["sphere_q05"] == float(np.quantile(sphere, 0.05))
        assert row["sphere_median"] == float(np.quantile(sphere, 0.5))
        assert row["sphere_margin"] <= row["sphere_q05"] <= row["sphere_median"]
        # without samples the three values are None and nothing is negative
        row = solved.to_json_dict()
        assert solved.sphere.size == 0 and row["sphere_negative"] == 0
        assert row["sphere_margin"] is row["sphere_q05"] is row["sphere_median"] is None


class _ReadLog:
    """Embedding constants that record the exponent of every S_r read off them."""

    def __init__(self, constants):
        self._constants, self.read = constants, set()

    def __getattr__(self, name):
        return getattr(self._constants, name)

    def S(self, r):
        self.read.add(_key(r))
        return self._constants.S(r)

    @property
    def s_space(self):
        self.read.add(_key(self._constants.p_crit))
        return self._constants.s_space


def _every_exponent(inst):
    """Every exponent a check or c0 could read, whatever the coefficients."""
    env, p, pc = inst.envelope, inst.p, inst.p_crit
    return [env.r, p, pc, 1.0, pc / (pc - env.alpha), p / (p - env.beta), pc / (pc - p + 1.0)]


_OPERATORS = {
    "identity": identity_operator,
    "boundary_lift": lambda: boundary_lift_operator(LiftFunction("affine", {"a": 0.1, "b": 0.05})),
    "convolution": lambda: convolution_operator(Kernel("box", {"width": 0.25})),
}


class TestRequiredExponents:
    @pytest.mark.parametrize("a2", [0.0, 0.05])
    @pytest.mark.parametrize("a1", [0.0, 0.05])
    @pytest.mark.parametrize("kind", sorted(_OPERATORS))
    def test_estimates_exactly_the_constants_read(self, monkeypatch, kind, a1, a2):
        # identity takes alpha = beta = 1, so each pair sits at its own
        # exponent; the lift and convolution certificates need p - 1
        h = build_hierarchy(interval_mesh(0.0, 1.0, 4), 3)
        e = 1.0 if kind == "identity" else 2.0
        inst = dataclasses.replace(
            make_instance(h, "manufactured_plus_power",
                          {"a1": a1, "alpha": e, "a2": a2, "beta": e}, T=_OPERATORS[kind]()),
            estimator_starts=2, estimator_iters=40)

        def decide(exponents=None):
            # constants, reports, kappa, c0 and R as run_hierarchy forms them
            def build(h, p, p_crit, required, **kw):
                return _ReadLog(build_constants(h, p, p_crit, exponents or required, **kw))

            monkeypatch.setattr("competefem.solver.build_constants", build)
            constants, cert, reports = constants_and_hypotheses(inst)
            sigma = inst.envelope.sigma.dual_norm(h.level(h.n_levels), inst.envelope.r)
            c0 = compose_c0(inst.envelope, sigma, cert, constants)
            kappa = reports[0].value
            R = coercivity_radius(kappa, h.measure, inst.p, inst.q, c0)
            return constants, reports, [kappa.hex(), c0.hex(), R.hex()]

        log, reports, bits = decide()
        # S_p is estimated for lambda_1, which reads no S_r
        assert log.read | {_key(inst.p)} == {_key(r) for r in required_exponents(inst)}
        assert sorted(log.entries) == sorted({_key(r) for r in required_exponents(inst)})
        assert decide(_every_exponent(inst))[2] == bits
        # a pair constant under a zero coefficient is reported as null
        for report in reports:
            assert (report.constants["S_value_pair"] is None) == (a1 == 0)
            second = report.constants.get("S_grad_pair", report.constants.get("S_1"))
            assert (second is None) == (a2 == 0)
        assert [r.name for r in reports][1:] == {
            "identity": [], "boundary_lift": ["lift_condition"],
            "convolution": ["convolution_condition"]}[kind]


class TestSmallnessPairings:
    @pytest.mark.parametrize("kind", sorted(_OPERATORS))
    def test_every_decision_reads_the_one_table(self, monkeypatch, kind):
        # shift every exponent of the table; the estimates, each check, c0 and
        # the tests' Hoelder bound must all move with it, and nothing may ask for
        # an unshifted one
        h = build_hierarchy(interval_mesh(0.0, 1.0, 4), 3)
        e = 1.0 if kind == "identity" else 2.0
        inst = dataclasses.replace(
            make_instance(h, "manufactured_plus_power",
                          {"a1": 0.05, "alpha": e, "a2": 0.05, "beta": e}, T=_OPERATORS[kind]()),
            estimator_starts=2, estimator_iters=40)
        table = competefem.constants.smallness_pairings

        def shifted(*args):
            return [(name, r_value + 0.25, r_grad + 0.5) for name, r_value, r_grad in table(*args)]

        for module in ("constants", "solver"):
            monkeypatch.setattr(f"competefem.{module}.smallness_pairings", shifted)
        monkeypatch.setattr("competefem.solver.build_constants",
                            lambda *args, **kw: _ReadLog(build_constants(*args, **kw)))
        env, p, pc = inst.envelope, inst.p, inst.p_crit
        pairings = shifted(kind, p, pc, e, e)
        assert len(pairings) == (1 if kind == "identity" else 2)
        pair_keys = {_key(r) for _, r_value, r_grad in pairings for r in (r_value, r_grad)}
        assert {_key(r) for r in required_exponents(inst)} == {_key(env.r), _key(p), _key(pc)} | pair_keys

        constants, cert, reports = constants_and_hypotheses(inst)
        assert [r.name for r in reports] == [name for name, _, _ in pairings]
        for report, (_, r_value, r_grad) in zip(reports, pairings):
            s_a, s_b = constants.S(r_value), constants.S(r_grad)
            assert report.constants["S_value_pair"] == s_a
            assert report.constants.get("S_grad_pair", report.constants.get("S_1")) == s_b
            assert report.value == 0.05 * cert.value_coeff * s_a + 0.05 * cert.grad_coeff * s_b

        constants.read.clear()
        sigma = env.sigma.dual_norm(h.level(h.n_levels), env.r)
        c0 = compose_c0(env, sigma, cert, constants)
        _, r_value, r_grad = pairings[0]
        assert constants.read == {_key(env.r), _key(r_value), _key(r_grad)}
        assert c0 == (constants.S(env.r) * sigma + 0.05 * cert.offset * constants.S(r_value)
                      + 0.05 * cert.offset * constants.S(r_grad))

        # the Hoelder bound of the convection functional pairs v alike
        rng = np.random.default_rng(3)
        u, v = (h.function(h.n_levels, rng.standard_normal(h.level(h.n_levels).n_free))
                for _ in range(2))
        img, lvl = sample(u), u.lvl
        assert oracles.holder_bound(u, v, img, env, p, pc) == (
            sigma * lebesgue_norm(v, env.r)
            + 0.05 * oracles.samples_value_norm(lvl, img, pc) ** e * lebesgue_norm(v, r_value)
            + 0.05 * oracles.samples_grad_norm(lvl, img, p) ** e * lebesgue_norm(v, r_grad))


class TestRunHierarchy:
    def test_zero_rhs_all_levels_zero(self, unit_hierarchy):
        inst = make_instance(unit_hierarchy, "zero", sphere=20)
        report = run_hierarchy(inst)
        assert report.status == "ok"
        for s in report.levels:
            np.testing.assert_allclose(s.u.coeffs, 0.0, atol=1e-12)
        for d in (s.gaps for s in report.levels[:-1]):
            assert d["weak_gap"] == pytest.approx(0.0, abs=1e-15)
            assert d["pairing_gap"] == pytest.approx(0.0, abs=1e-15)
            assert d["full_gap"] == pytest.approx(0.0, abs=1e-15)

    def test_manufactured_report_quality(self, unit_hierarchy):
        inst = make_instance(unit_hierarchy, guess=lambda x: x * (1 - x), sphere=100)
        report = run_hierarchy(inst)
        assert report.status == "ok"
        # a-priori bound from the safeguard radius holds on every level
        for s in report.levels:
            assert s.grad_norm <= report.radius * (1 + 1e-6)
            row = s.to_json_dict()
            assert row["residual_sup"] <= inst.tol
            assert row["energy_gap"] <= inst.tol * len(s.u.coeffs) * max(
                1.0, float(np.linalg.norm(s.u.coeffs))
            )
            assert row["sphere_negative"] == 0
            assert row["sphere_margin"] <= row["sphere_q05"] <= row["sphere_median"]
        # diagnostics rows exclude the finest level and decay
        levels = [s.level for s in report.levels if s.gaps is not None]
        assert levels == [1, 2, 3, 4]
        gaps = [s.gaps["weak_gap"] for s in report.levels[:-1]]
        assert gaps[-1] < gaps[0]

    def test_refuse_policy_stops_before_solving(self, unit_hierarchy):
        inst = make_instance(unit_hierarchy, "signed_power",
                             {"a1": 20.0, "alpha": 1.0}, sphere=10)
        report = run_hierarchy(inst)
        assert report.status == "hypothesis_failed"
        assert not report.hypothesis[0].passed
        assert report.message == "hypothesis checks failed: growth_smallness"
        assert report.radius is None and report.levels == []

    def test_warn_policy_still_needs_finite_radius(self, unit_hierarchy):
        # with the smallness value at or above one no safeguard ball exists,
        # so even the warn policy has to stop
        inst = make_instance(unit_hierarchy, "signed_power",
                             {"a1": 20.0, "alpha": 1.0}, policy="warn", sphere=10)
        report = run_hierarchy(inst)
        assert report.status == "hypothesis_failed"
        assert not report.hypothesis[0].passed
        assert "no finite safeguard radius" in report.message
        assert report.radius is None and report.levels == []

    def test_warn_policy_passes_through_when_checks_hold(self, unit_levels):
        inst = make_instance(unit_levels(3), "signed_power",
                             {"a1": 0.2, "alpha": 1.0}, policy="warn", sphere=10)
        report = run_hierarchy(inst)
        assert report.status == "ok"

    def test_convolution_tends_to_identity_solution(self, unit_levels):
        # a near-delta kernel reproduces the local problem; the identity run
        # is the oracle (alpha = beta = p-1 as the certificates require)
        params = {"a1": 0.3, "alpha": 2.0, "a2": 0.0, "beta": 2.0}
        h = unit_levels(4)
        inst_id = make_instance(
            h, "manufactured_plus_power", params,
            guess=lambda x: x * (1 - x), sphere=10,
        )
        rep_id = run_hierarchy(inst_id)
        u_ref = rep_id.levels[-1].u

        dists = []
        for width in (0.2, 0.05, 0.0125):
            T = convolution_operator(Kernel("box", {"width": width}), refine_factor=4)
            inst = make_instance(
                h, "manufactured_plus_power", params,
                T=T, guess=lambda x: x * (1 - x), sphere=10,
            )
            rep = run_hierarchy(inst)
            assert rep.status == "ok"
            diff = h.function(4, rep.levels[-1].u.coeffs - u_ref.coeffs)
            dists.append(grad_norm_p(diff, 3.0))
        assert dists[0] > dists[-1]
        assert dists[-1] < 5e-3


class TestDiagnostics:
    def test_identical_solutions_give_zero(self, unit_levels):
        # feed the coarse solution itself as the stand-in limit: every
        # diagnostic against it must vanish identically
        inst = make_instance(unit_levels(3), sphere=0)
        report = run_hierarchy(inst)
        coarse = report.levels[0]
        rows = convergence_diagnostics(inst, [coarse], prolongate(coarse.u, 3))
        assert list(rows) == [coarse.level]
        row = rows[coarse.level]
        assert row["weak_gap"] == 0.0
        assert row["pairing_gap"] == 0.0
        assert row["full_gap"] == pytest.approx(0.0, abs=1e-18)
        # the finest level never produces a row
        assert convergence_diagnostics(inst, report.levels[-1:],
                                       report.levels[-1].u) == {}

    def test_pairing_identity_between_streams(self, unit_levels):
        # full = strong - convection integral, checked against an
        # independent quadrature of the right-hand side
        from competefem.intrinsic import apply as apply_operator

        h = unit_levels(4)
        inst = make_instance(h, "manufactured_plus_power",
                             {"a1": 0.3, "alpha": 2.0}, guess=lambda x: x * (1 - x),
                             sphere=0)
        report = run_hierarchy(inst)
        u = report.levels[-1].u
        rows = convergence_diagnostics(inst, report.levels, u)
        assert list(rows) == [s.level for s in report.levels[:-1]]
        for solve in report.levels[:-1]:
            row = rows[solve.level]
            assert row == solve.gaps
            un = prolongate(solve.u, u.level)
            diff = h.function(u.level, un.coeffs - u.coeffs)
            img = apply_operator(inst.operator, un)
            expected = row["pairing_gap"] - oracles.convection_integral(diff, img,
                                                                        inst.convection)
            assert row["full_gap"] == pytest.approx(expected, rel=1e-12, abs=1e-15)


class TestDeterminism:
    def test_identical_runs_bitwise_equal(self, unit_levels):
        inst = make_instance(unit_levels(4), guess=lambda x: x * (1 - x), sphere=64)
        a = run_hierarchy(inst)
        b = run_hierarchy(inst)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )
