"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time

import numpy as np
import pytest

from competefem.cli import main
from competefem.config import parse_config_dict, build_instance
from competefem.constants import (
    EmbeddingConstants,
    SEstimate,
    _key,
    build_constants,
    check_smallness,
    estimate_embedding_constant,
    estimate_lambda1p,
    smallness_pairings,
)
from competefem.discretization import (
    build_hierarchy,
    grad_norm_p,
    interval_mesh,
    sample,
)
from competefem.intrinsic import (
    BoundaryLift,
    Convolution,
    Identity,
    IntrinsicCertificate,
    _conv_operators,
    apply,
    certificate,
)
from competefem.operators import convection_from_catalog
from competefem.solver import brouwer_zero, run_hierarchy

from oracles import (certificate_margins, full_csr, grid_search_zero, lambda1_shooting,
                     lebesgue_norm, random_monotone_map, samples_value_norm)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def manufactured_spec(levels=7, sphere=1000, seed=0):
    return parse_config_dict({
        "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "elements": 4},
        "p": 3.0, "q": 2.0, "levels": levels,
        "f": {"kind": "manufactured_p3q2"},
        "T": {"kind": "identity"},
        "seed": seed,
        "sphere_samples": sphere,
        "initial_guess": "exact",
    })


@pytest.fixture(scope="module")
def manufactured_run():
    inst = build_instance(manufactured_spec())
    t0 = time.perf_counter()
    rep = run_hierarchy(inst)
    elapsed = time.perf_counter() - t0
    return inst, rep, elapsed


def w13_error_vs_exact(inst, solve):
    lvl = inst.hierarchy.level(solve.level)
    x = lvl.qp_points[..., 0]
    g = solve.u.element_gradients()[:, 0][:, None]
    err = np.abs(g - (1.0 - 2.0 * x)) ** 3
    return float(np.sum(lvl.qp_weights * err) ** (1.0 / 3.0))


class TestCriterion1:
    def test_manufactured_convergence(self, manufactured_run):
        inst, rep, elapsed = manufactured_run
        ok = rep.status == "ok" and len(rep.levels) >= 6
        errs = [w13_error_vs_exact(inst, s) for s in rep.levels]
        rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        ok = ok and errs[-1] <= 1e-2
        ok = ok and rates[-1] >= 0.8
        ok = ok and elapsed <= 30.0
        report(1, ok,
               f"finest W13 error {errs[-1]:.3e} (<= 1e-2), last rate {rates[-1]:.3f} "
               f"(>= 0.8), runtime {elapsed:.1f}s (<= 30s), levels {len(rep.levels)}")


class TestCriterion2:
    def test_apriori_bound_manufactured_and_random_suite(self, manufactured_run):
        inst, rep, _ = manufactured_run
        violations = sum(
            1 for s in rep.levels if s.grad_norm > rep.radius * (1 + 1e-6)
        )

        # a fixed convection problem with a1, a2 > 0 that passes the check
        spec = parse_config_dict({
            "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "elements": 4},
            "p": 3.0, "q": 2.0, "levels": 4,
            "f": {"kind": "manufactured_plus_power",
                  "a1": 0.3, "alpha": 1.0, "a2": 0.3, "beta": 1.0},
            "T": {"kind": "identity"},
            "sphere_samples": 0,
            "estimator": {"starts": 3, "iters": 120},
        })
        inst2 = build_instance(spec)
        rep2 = run_hierarchy(inst2)
        passed_check = rep2.hypothesis[0].passed
        violations += sum(
            1 for s in rep2.levels if s.grad_norm > rep2.radius * (1 + 1e-6)
        )

        # randomised suite of twenty solution-dependent problems
        rng = np.random.default_rng(2024)
        problems = 0
        for k in range(20):
            a1 = float(rng.uniform(0.05, 0.4))
            a2 = float(rng.uniform(0.05, 0.4))
            alpha = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
            beta = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
            if k % 3 == 0:
                f_cfg = {"kind": "signed_power", "a1": a1, "alpha": alpha}
            elif k % 3 == 1:
                f_cfg = {"kind": "gradient_power", "a2": a2, "beta": beta}
            else:
                f_cfg = {"kind": "manufactured_plus_power",
                         "a1": a1, "alpha": alpha, "a2": a2, "beta": beta}
            spec_k = parse_config_dict({
                "domain": {"kind": "interval", "a": 0.0, "b": 1.0,
                           "elements": int(rng.integers(3, 6))},
                "p": 3.0, "q": 2.0, "levels": 3,
                "f": f_cfg,
                "T": {"kind": "identity"},
                "seed": int(rng.integers(0, 10_000)),
                "sphere_samples": 0,
                "estimator": {"starts": 3, "iters": 100},
            })
            inst_k = build_instance(spec_k)
            rep_k = run_hierarchy(inst_k)
            assert rep_k.hypothesis[0].passed
            assert rep_k.status == "ok"
            problems += 1
            violations += sum(
                1 for s in rep_k.levels if s.grad_norm > rep_k.radius * (1 + 1e-6)
            )
        ok = violations == 0 and passed_check and problems == 20
        report(2, ok,
               f"{problems} random problems plus two fixed ones, "
               f"{violations} bound violations (need 0)")


class TestCriterion3:
    def test_limit_diagnostics(self, manufactured_run):
        inst, rep, _ = manufactured_run
        rows = {s.level: s.gaps for s in rep.levels if s.gaps is not None}
        n_max = rep.levels[-1].level
        last = rows[n_max - 1]
        ok = abs(last["pairing_gap"]) <= 1e-3 and abs(last["full_gap"]) <= 1e-3
        decay = rows[1]["weak_gap"] / max(last["weak_gap"], 1e-300)
        ok = ok and decay >= 10.0
        report(3, ok,
               f"pairing gaps at level {n_max - 1}: strong {last['pairing_gap']:.2e}, "
               f"full {last['full_gap']:.2e} (<= 1e-3); weak-gap decay x{decay:.0f} (>= 10)")


class TestCriterion4:
    def test_zero_finder_oracle_and_sphere_certificate(self, manufactured_run):
        rng = np.random.default_rng(77)
        R = 1.0
        worst = 0.0
        for k in range(50):
            dim = 2 if k < 25 else 3
            F, dF, A, b, c = random_monotone_map(rng, dim, R)
            res = brouwer_zero(lambda v: (np.atleast_1d(F(v)), lambda: full_csr(dF(v)).data),
                               R, x0=np.zeros(dim), pattern=full_csr(np.zeros((dim, dim))),
                               norm=np.linalg.norm, tol=1e-12)
            assert res.converged
            oracle = grid_search_zero(F, R, dim)
            worst = max(worst, float(np.linalg.norm(res.x - oracle)))
        ok = worst <= 1e-2

        inst, rep, _ = manufactured_run
        negatives = sum(int(np.count_nonzero(s.sphere < 0)) for s in rep.levels)
        margins = min(float(s.sphere.min()) for s in rep.levels)
        ok = ok and negatives == 0 and inst.sphere_samples == 1000
        report(4, ok,
               f"worst oracle distance {worst:.2e} over 50 maps (<= 1e-2); "
               f"sphere samples 1000/level, {negatives} negative pairings, "
               f"min pairing {margins:.3e}")


class TestCriterion5:
    def test_constant_estimates(self):
        h = build_hierarchy(interval_mesh(0.0, 1.0, 4), 5)
        lam2 = estimate_lambda1p(h, 2.0)
        lam3 = estimate_lambda1p(h, 3.0)
        s2 = estimate_embedding_constant(h, 2.0, 2.0)
        oracle3 = lambda1_shooting(3.0)
        err2 = abs(lam2.value - math.pi**2) / math.pi**2
        err3 = abs(lam3.value - oracle3) / oracle3
        err_s2 = abs(s2.raw - 1.0 / math.pi) * math.pi
        mono = all(
            a >= b - 1e-12
            for prof in (lam2.per_level[-4:], lam3.per_level[-4:])
            for a, b in zip(prof, prof[1:])
        )
        ok = err2 <= 1e-2 and err3 <= 2e-2 and err_s2 <= 2e-2 and mono
        report(5, ok,
               f"lambda(2) err {err2:.2%} (<= 1%), lambda(3) vs shooting err {err3:.2%} "
               f"(<= 2%), S_2 raw err {err_s2:.2%} (<= 2%), monotone over 4 levels: {mono}")


class TestCriterion6:
    N_TRIALS = 1000

    def _trials(self, h, rng):
        """A block of trial functions on the finest level, each of a random scale."""
        dim = h.level(h.n_levels).n_free
        scales = (1e-3, 1.0, 1e3)
        columns = []
        for _ in range(self.N_TRIALS):
            c = rng.standard_normal(dim)
            g = grad_norm_p(h.function(h.n_levels, c), 3.0)
            s = scales[rng.integers(0, len(scales))]
            columns.append(c * (s / g))
        return h.function(h.n_levels, np.column_stack(columns))

    def test_certificates_young_and_derivative_rule(self):
        h = build_hierarchy(interval_mesh(0.0, 1.0, 64), 1)
        constants = build_constants(h, 3.0, 6.0, [6.0], iters=150, starts=4)
        rng = np.random.default_rng(404)

        operators = [
            ("identity", Identity(), 1.0, 1.0),
            ("lift(a=0.5)", BoundaryLift(a=0.5, b=0.25), 2.0, 2.0),
            ("lift(a=-2)", BoundaryLift(a=-2.0, b=1.0), 2.0, 2.0),
            ("conv(box)", Convolution("box", 0.25, refine_factor=8), 2.0, 2.0),
            ("conv(hat)", Convolution("hat", 0.3, refine_factor=8), 2.0, 2.0),
        ]
        worst = {}
        for name, T, alpha, beta in operators:
            cert = certificate(T, 3.0, alpha, beta, constants, hierarchy=h)
            worst[name] = float(certificate_margins(T, cert, self._trials(h, rng), 3.0, 6.0).max())
        ok = all(v <= 0.0 for v in worst.values())

        # Young inequality on every trial for both kernels
        grid_cell = (1.0 / 64.0) / 8.0
        young_ok = True
        for T in (operators[3][1], operators[4][1]):
            for c in self._trials(h, rng).coeffs.T:
                u = h.function(h.n_levels, c)
                img = apply(T, u)
                slack = 1e-8 + grid_cell**2 * 10 * np.max(np.abs(u.coeffs))
                lhs = samples_value_norm(h.level(1), img, 3.0)
                if lhs > T.scale * lebesgue_norm(u, 3.0) + slack:
                    young_ok = False
                    break
        ok = ok and young_ok

        # derivative rule consistency by central differences, 1e-3 stencil
        u = h.interpolate(1, lambda x: np.sin(np.pi * x))
        fd_ok = True
        xs = np.linspace(0.2, 0.8, 25)
        for T in (operators[3][1], operators[4][1]):
            # one convolution map for the stencil's points and the points themselves
            stencil = np.stack([xs + 1e-3, xs - 1e-3, xs])
            values, gradients = (out.reshape(stencil.shape)
                                 for out in _conv_operators(T, u.lvl, stencil)(u.block))
            fd = (values[0] - values[1]) / 2e-3
            direct = gradients[2]
            if np.max(np.abs(fd - direct)) > 1e-3:
                fd_ok = False
        ok = ok and fd_ok
        margins = ", ".join(f"{k}: {v:.2e}" for k, v in worst.items())
        report(6, ok,
               f"worst certificate margins {{{margins}}} (all <= 0); "
               f"Young holds: {young_ok}; derivative rule holds: {fd_ok}")


class TestCriterion7:
    def test_lift_check_equals_generic_check_bitwise(self):
        rng = np.random.default_rng(505)
        h = build_hierarchy(interval_mesh(0.0, 1.0, 4), 2)
        lift = BoundaryLift(a=0.1, b=0.05)
        mismatches = 0
        for _ in range(100):
            p = float(rng.uniform(2.1, 4.0))
            pc = 2.0 * p
            s_phat = float(rng.uniform(0.2, 2.0))
            s_quot = float(rng.uniform(0.2, 2.0))
            s_one = float(rng.uniform(0.2, 2.0))
            a1 = float(rng.uniform(0.0, 1.0))
            a2 = float(rng.uniform(0.0, 1.0))

            ec = EmbeddingConstants(p=p, n_dim=1, p_crit=pc, safety=1.0, entries={
                _key(pc): SEstimate(s_phat, s_phat, "t"),
                _key(pc / (pc - p + 1.0)): SEstimate(s_quot, s_quot, "t"),
                _key(1.0): SEstimate(s_one, s_one, "t"),
                # the specialised check pairs the gradient term with S_1, so the
                # generic check sees the same number at exponent p/(p-beta) = p
                _key(p): SEstimate(s_one, s_one, "t"),
            })

            # the lift condition on the lift certificate, against the generic
            # condition on K1 = m S_pc^{p-1}, K2 = m, m = max(2^{p-2}, 1)
            lift_cert = certificate(lift, p, p - 1.0, p - 1.0, ec, hierarchy=h)
            m = max(2.0 ** (p - 2.0), 1.0)
            cert = IntrinsicCertificate(
                value_coeff=m * ec.S(pc) ** (p - 1.0), grad_coeff=m, offset=0.0,
                alpha=p - 1.0, beta=p - 1.0, provenance="substitution",
            )
            generic, paired = smallness_pairings(lift.kind, p, pc, p - 1.0, p - 1.0)
            a = check_smallness(paired, a1, a2, lift_cert, ec)
            b = check_smallness(generic, a1, a2, cert, ec)
            if a.value != b.value or a.margin != b.margin or a.passed != b.passed:
                mismatches += 1
        ok = mismatches == 0
        report(7, ok, f"{mismatches} bitwise mismatches across 100 random tuples (need 0)")


class TestCriterion8:
    def test_byte_identical_solve_reports(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(manufactured_spec(levels=4, sphere=64,
                                                    seed=11).to_json_dict()))
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            code = main(["solve", str(cfg), "--out-dir", str(out)])
            assert code == 0
            outs.append(out)
        same_json = (outs[0] / "solve_report.json").read_bytes() == \
            (outs[1] / "solve_report.json").read_bytes()
        same_csv = (outs[0] / "solve_report.csv").read_bytes() == \
            (outs[1] / "solve_report.csv").read_bytes()
        ok = same_json and same_csv
        report(8, ok, f"JSON byte-identical: {same_json}, CSV byte-identical: {same_csv}")
