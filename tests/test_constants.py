import dataclasses
import math

import numpy as np
import pytest
from scipy.sparse.linalg import splu

import competefem.constants
from competefem.constants import (
    ConstantLookupError,
    EmbeddingConstants,
    HypothesisError,
    SEstimate,
    build_constants,
    check_smallness,
    coercivity_radius,
    critical_surrogate,
    estimate_embedding_constant,
    estimate_lambda1p,
    smallness_pairings,
)
from competefem.config import build_instance, parse_config_dict
from competefem.discretization import build_hierarchy, interval_mesh, unit_square_mesh
from competefem.intrinsic import (
    IntrinsicCertificate,
    Kernel,
    LiftFunction,
    boundary_lift_operator,
    certificate,
    convolution_operator,
)
from competefem.solver import constants_and_hypotheses

from oracles import lambda1_closed_form, lambda1_shooting, safeguard_root, safeguard_terms


def make_constants(p=3.0, p_crit=6.0, entries=None, safety=1.0):
    return EmbeddingConstants(p=p, n_dim=1, p_crit=p_crit, safety=safety, entries={
        competefem.constants._key(r): SEstimate(raw=val, value=val, provenance="test")
        for r, val in (entries or {}).items()})


def make_cert(k1, k2, k3=0.0, alpha=1.0, beta=1.0):
    return IntrinsicCertificate(value_coeff=k1, grad_coeff=k2, offset=k3,
                                alpha=alpha, beta=beta, provenance="test")


class TestCriticalSurrogate:
    def test_standard_formula_when_p_below_n(self):
        assert critical_surrogate(1.5, 2) == pytest.approx(1.5 * 2 / (2 - 1.5))

    def test_finite_standin_otherwise(self):
        assert critical_surrogate(3.0, 1) == 6.0
        assert critical_surrogate(2.0, 2) == 4.0

    def test_override(self):
        assert critical_surrogate(3.0, 1, override=9.0) == 9.0
        with pytest.raises(ValueError, match="exceed p"):
            critical_surrogate(3.0, 1, override=2.0)
        # W^{1,1.8}_0 of a planar domain embeds in L^r only up to r = 18
        star = critical_surrogate(1.8, 2)
        assert critical_surrogate(1.8, 2, override=star) == star
        with pytest.raises(ValueError, match=r"at most Np/\(N-p\) = 18 "):
            critical_surrogate(1.8, 2, override=100.0)
        assert critical_surrogate(3.0, 2, override=100.0) == 100.0  # p >= N: no cap


class TestLambdaEstimate:
    def test_p2_matches_pi_squared(self, unit_hierarchy):
        res = estimate_lambda1p(unit_hierarchy, 2.0)
        assert res.value == pytest.approx(math.pi**2, rel=1e-2)

    def test_p3_matches_shooting_oracle(self, unit_hierarchy):
        oracle = lambda1_shooting(3.0)
        res = estimate_lambda1p(unit_hierarchy, 3.0)
        assert res.value == pytest.approx(oracle, rel=2e-2)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_closed_form_bounds_from_below(self, unit_hierarchy, p):
        # S_p,raw is a lower bound, so its reading is an upper bound
        exact = lambda1_closed_form(p)
        lam = estimate_lambda1p(unit_hierarchy, p).value
        assert exact <= lam <= (1.0 + 1e-3) * exact

    def test_monotone_under_refinement(self, unit_hierarchy):
        for p in (2.0, 3.0):
            prof = estimate_lambda1p(unit_hierarchy, p).per_level
            assert all(a >= b - 1e-12 for a, b in zip(prof, prof[1:]))

    def test_bad_exponent(self, unit_hierarchy):
        with pytest.raises(ValueError, match="p > 1"):
            estimate_lambda1p(unit_hierarchy, 1.0)


class TestEmbeddingEstimate:
    def test_s2_matches_inverse_pi(self, unit_hierarchy):
        res = estimate_embedding_constant(unit_hierarchy, 2.0, 2.0, safety=1.1)
        assert res.raw == pytest.approx(1.0 / math.pi, rel=2e-2)
        assert res.value == pytest.approx(1.1 * res.raw, rel=1e-15)

    def test_s1_respects_holder_chain(self, unit_hierarchy):
        # ||u||_1 <= |Omega|^{1/2} ||u||_2 gives S_1 <= S_2 on the unit interval
        s1 = estimate_embedding_constant(unit_hierarchy, 1.0, 2.0).raw
        s2 = estimate_embedding_constant(unit_hierarchy, 2.0, 2.0).raw
        assert s1 <= s2 * (1 + 1e-10)

    def test_safety_factor_scales_reported_value(self, unit_hierarchy):
        a = estimate_embedding_constant(unit_hierarchy, 2.0, 3.0, safety=1.1)
        b = estimate_embedding_constant(unit_hierarchy, 2.0, 3.0, safety=2.2)
        assert b.raw == pytest.approx(a.raw, rel=1e-14)
        assert b.value == pytest.approx(2.0 * a.value, rel=1e-14)

    def test_monotone_nondecreasing_per_level(self, unit_hierarchy):
        prof = estimate_embedding_constant(unit_hierarchy, 2.0, 3.0).per_level
        assert all(b >= a - 1e-12 for a, b in zip(prof, prof[1:]))

    @pytest.mark.parametrize("r", [2.0, 3.0, 6.0])
    def test_step_count_barely_grows_under_refinement(self, r):
        # 3 to 255 free dofs: the count must not follow the h^-2
        # conditioning of the Euclidean gradient
        h = build_hierarchy(interval_mesh(0.0, 1.0, 4), 7)
        res = estimate_embedding_constant(h, r, 3.0)
        assert res.converged is True
        assert len(res.iters) == h.n_levels
        assert all(0 < n <= 100 for n in res.iters)


# raw S_r on the 5-level interval at p = 3 from the preconditioned ascent
_PINNED_INTERVAL_RAW = {
    1.0: 0.2714154350209994,
    2.0: 0.30490732964096434,
    6.0: 0.37004173885425284,
}


class TestPinnedEstimates:
    """Default starts, iterations and seed reproduce these numbers.

    They pin the ascent step by step: any change to the start order, the
    step rule or the stopping tests moves them well past 1e-10.  The
    eigenvalue is the reading lambda_1 = S_p,raw^{-p} of the ascent at
    r = p, an upper bound because S_p,raw is a lower bound.

    The interval floors are what the Euclidean-gradient ascent reached
    before the ascent was preconditioned.  A raw value is a ratio attained
    by some function, so a better optimiser must not fall below them.
    """

    @pytest.mark.parametrize("r, floor", [
        (1.0, 0.2714154340238798),
        (2.0, 0.3049073235629776),
        (6.0, 0.3700417212392751),
    ])
    def test_interval_embedding(self, unit_hierarchy, r, floor):
        res = estimate_embedding_constant(unit_hierarchy, r, 3.0)
        assert res.raw == pytest.approx(_PINNED_INTERVAL_RAW[r], rel=1e-10)
        assert res.raw >= floor

    def test_interval_eigenvalue(self, unit_hierarchy):
        res = estimate_lambda1p(unit_hierarchy, 3.0)
        assert res.value == pytest.approx(28.297950841326315, rel=1e-10)
        assert res.value <= 28.29795174686943

    def test_square_embedding_per_level(self):
        h = build_hierarchy(unit_square_mesh(), 4)
        res = estimate_embedding_constant(h, 2.0, 3.0)
        expected = (0.0, 0.1660261310772176, 0.20187944450434586, 0.21489288186796573)
        assert res.raw == pytest.approx(expected[-1], rel=1e-10)
        assert res.per_level == pytest.approx(expected, rel=1e-10)
        assert res.converged is True


def _square_hierarchy():
    return build_hierarchy(unit_square_mesh(), 3)  # level 1 has no free dofs


class TestBuildConstants:
    @pytest.mark.parametrize("make, exponents", [
        (lambda: build_hierarchy(interval_mesh(0.0, 1.0, 4), 5), [1.0, 1.2, 1.5, 2.0, 6.0]),
        (_square_hierarchy, [1.0, 1.5, 2.0, 6.0]),
    ], ids=["interval", "square"])
    def test_block_ascent_equals_one_exponent_at_a_time(self, make, exponents):
        # all exponents share one ascent per level; each must still get the
        # bits of its own ascent, estimator flags and step counts included
        h = make()
        kw = dict(starts=4, iters=150, seed=5)
        ec = build_constants(h, 3.0, 6.0, exponents, safety=1.25, **kw)
        assert sorted(ec.entries) == sorted(set(exponents) | {3.0})
        for r, entry in ec.entries.items():
            est = estimate_embedding_constant(h, r, 3.0, safety=1.25, **kw)
            assert (entry.raw, entry.value, entry.converged, entry.iters, entry.per_level) == \
                (est.raw, est.value, est.converged, est.iters, est.per_level)
        assert ec.eigenvalue == estimate_lambda1p(h, 3.0, **kw)

    def test_one_factorisation_per_level(self, monkeypatch):
        calls = []

        def counting_splu(*args, **kwargs):
            calls.append(args[0].shape)
            return splu(*args, **kwargs)

        monkeypatch.setattr(competefem.constants, "splu", counting_splu)
        h = _square_hierarchy()
        build_constants(h, 3.0, 6.0, [1.0, 2.0, 6.0], iters=20, starts=2)
        assert calls == [(h.level(n).n_free,) * 2 for n in (2, 3)]

    def test_no_ascent_locks_on_the_doubled_step(self):
        # the trial step doubles the last accepted one; a weak sufficient
        # increase test let it settle near twice the line optimum, and the
        # 3-dof base level then ran up to the 300-step cap at r = 1 and 1.2
        h = build_hierarchy(interval_mesh(0.0, 1.0, 4), 7)
        ec = build_constants(h, 3.0, 6.0, [1.0, 1.2, 1.5, 2.0, 6.0])
        assert sorted(ec.entries) == [1.0, 1.2, 1.5, 2.0, 3.0, 6.0]
        for r, entry in ec.entries.items():
            assert entry.converged is True, r
            assert entry.iters[0] <= 40, (r, entry.iters)

    def test_critical_constant_converges_below_the_dimension(self):
        # p = 1.8 on the square has p* = 18; at level 3 three random starts
        # used to run all 300 steps near an inferior local maximum
        spec = parse_config_dict({
            "domain": {"kind": "unit_square"}, "p": 1.8, "q": 1.4, "levels": 4,
            "eps_reg": 1e-3,
            "f": {"kind": "constant", "c": 1.0, "envelope": {"alpha": 0.5, "beta": 0.5}},
        })
        ec, _, _ = constants_and_hypotheses(build_instance(spec))
        entry = ec.entries[18.0]
        assert entry.converged is True
        assert entry.raw >= 0.499444163052 * (1.0 - 1e-10)

    def test_entries_and_lookup(self, unit_hierarchy):
        ec = build_constants(unit_hierarchy, 3.0, 6.0, [1.0, 2.0, 6.0],
                             iters=100, starts=3)
        assert ec.S(2.0) > 0
        assert ec.entries[2.0].raw < ec.S(2.0)
        assert ec.eigenvalue is not None
        with pytest.raises(ConstantLookupError, match="4.5"):
            ec.S(4.5)

    def test_eigenvalue_is_the_s_p_reading(self, unit_hierarchy):
        # p is estimated although the exponents leave it out
        ec = build_constants(unit_hierarchy, 3.0, 6.0, [2.0], iters=100, starts=3)
        lam = ec.eigenvalue
        assert lam.value == ec.entries[3.0].raw ** -3.0
        assert lam.per_level[-1] == lam.value
        assert lam.converged is ec.entries[3.0].converged

    def test_space_surrogate_flagged(self, unit_hierarchy):
        ec = build_constants(unit_hierarchy, 3.0, 6.0, [6.0], iters=80, starts=2)
        assert ec.s_space == pytest.approx(ec.S(6.0))
        provenance = ec.to_json_dict()["S_space"]["provenance"]
        assert "surrogate" in provenance or "standing in" in provenance

    def test_space_constant_is_read_off_the_critical_entry(self):
        ec = make_constants(entries={1.5: 0.4})
        assert ec.s_space is None
        assert ec.to_json_dict()["S_space"] == {"value": None, "provenance": ""}
        ec = dataclasses.replace(
            ec, entries={**ec.entries, 6.0: SEstimate(raw=0.7, value=0.8, provenance="test")})
        assert ec.s_space == 0.8
        assert ec.to_json_dict()["S_space"]["provenance"].endswith("when p >= N)")

    @pytest.mark.parametrize("make", [
        lambda: build_hierarchy(interval_mesh(0.0, 1.0, 4), 5), _square_hierarchy,
    ], ids=["interval", "square"])
    def test_entries_carry_the_per_level_profile(self, make):
        h = make()
        ec = build_constants(h, 3.0, 6.0, [1.0, 2.0, 6.0], iters=100, starts=3)
        reported = ec.to_json_dict()["S"]
        for r, entry in ec.entries.items():
            prof = entry.per_level
            assert len(prof) == h.n_levels
            assert prof[-1] == entry.raw
            assert all(b >= a - 1e-12 for a, b in zip(prof, prof[1:]))
            assert reported[repr(r)]["per_level"] == list(prof)


def _ascended_blocks(monkeypatch, h, exponents, starts):
    """Per level that ascends, the start block of each exponent."""
    levels = []
    ascend = competefem.constants._ascend_embedding

    def recording(lvl, rs, p, blocks, iters, tol):
        levels.append([b.copy() for b in blocks])
        return ascend(lvl, rs, p, blocks, iters, tol)

    with monkeypatch.context() as m:
        m.setattr(competefem.constants, "_ascend_embedding", recording)
        build_constants(h, 3.0, 6.0, exponents, iters=30, starts=starts)
    return levels


def _widths(levels):
    return [[b.shape[1] for b in blocks] for blocks in levels]


class TestStartRule:
    """Random starts are drawn on the first level with free dofs only."""

    @pytest.mark.parametrize("starts", [1, 3, 8])
    @pytest.mark.parametrize("make, first", [
        (lambda: build_hierarchy(interval_mesh(0.0, 1.0, 4), 4), 1), (_square_hierarchy, 2),
    ], ids=["interval", "square"])
    def test_finer_levels_ascend_the_sine_and_the_prolongated_best(
            self, monkeypatch, make, first, starts):
        h = make()
        assert h.level(first).n_free > 0 and all(h.level(n).n_free == 0 for n in range(1, first))
        widths = _widths(_ascended_blocks(monkeypatch, h, [1.0, 2.0, 6.0], starts))
        n_rs = 4  # the exponents and p = 3
        assert len(widths) == h.n_levels - first + 1
        assert widths[0] == [1 + (starts - 1)] * n_rs  # the sine and the random starts
        assert all(w == [2] * n_rs for w in widths[1:])

    def test_starts_change_only_the_base_block(self, monkeypatch):
        h = build_hierarchy(interval_mesh(0.0, 1.0, 4), 4)
        few = _ascended_blocks(monkeypatch, h, [2.0, 6.0], 2)
        many = _ascended_blocks(monkeypatch, h, [2.0, 6.0], 5)
        assert _widths(few[:1]) == [[2, 2, 2]] and _widths(many[:1]) == [[5, 5, 5]]
        assert _widths(few[1:]) == _widths(many[1:]) == [[2, 2, 2]] * (h.n_levels - 1)
        # more starts append draws from the same stream to the base block
        for a, b in zip(few[0], many[0]):
            assert np.array_equal(a, b[:, :2])


def _check(kind, row, a1, a2, cert, ec):
    """The report of row ``row`` of the smallness table of operator ``kind``."""
    pairing = smallness_pairings(kind, ec.p, ec.p_crit, cert.alpha, cert.beta)[row]
    return check_smallness(pairing, a1, a2, cert, ec)


def _generic(a1, a2, cert, ec):
    return _check(None, 0, a1, a2, cert, ec)


def _lift(a1, a2, ec, hierarchy):
    """The lift condition, on the certificate of an affine lift at alpha = beta = p-1."""
    T = boundary_lift_operator(LiftFunction("affine", {"a": 0.1, "b": 0.05}))
    cert = certificate(T, ec.p, ec.p - 1.0, ec.p - 1.0, ec, hierarchy=hierarchy)
    return _check(T.kind, 1, a1, a2, cert, ec)


def _convolution(a1, a2, ec, mass):
    """The convolution condition, on the certificate of a box kernel of L1 norm ``mass``."""
    T = convolution_operator(Kernel("box", {"width": 0.25, "scale": mass}))
    cert = certificate(T, ec.p, ec.p - 1.0, ec.p - 1.0, ec)
    return _check(T.kind, 1, a1, a2, cert, ec)


class TestSmallnessChecks:
    def test_no_convection_passes(self):
        ec = make_constants(entries={1.2: 1.0, 1.5: 1.0})
        report = _generic(0.0, 0.0, make_cert(1.0, 1.0), ec)
        assert report.passed and report.value == 0.0 and report.margin == 1.0

    def test_simple_arithmetic_pass(self):
        ec = make_constants(entries={6.0 / 5.0: 1.0, 1.5: 1.0})
        report = _generic(0.3, 0.2, make_cert(1.0, 1.0), ec)
        assert report.value == pytest.approx(0.5)
        assert report.passed

    def test_simple_arithmetic_fail(self):
        ec = make_constants(entries={6.0 / 5.0: 1.0, 1.5: 1.0})
        report = _generic(1.0, 0.2, make_cert(1.0, 1.0), ec)
        assert report.value == pytest.approx(1.2)
        assert not report.passed

    def test_missing_exponent_named(self):
        ec = make_constants(entries={1.5: 1.0})
        with pytest.raises(ConstantLookupError, match="1.2"):
            _generic(0.3, 0.2, make_cert(1.0, 1.0), ec)

    def test_zero_coefficient_reads_no_pair_constant(self, unit_hierarchy):
        # nothing is estimated at 1.2 or 1.0: their coefficients are zero
        ec = make_constants(entries={1.5: 1.0, 6.0: 1.0})
        report = _generic(0.0, 0.2, make_cert(1.0, 1.0), ec)
        assert report.value == 0.2
        assert report.constants["S_value_pair"] is None
        assert report.constants["S_grad_pair"] == 1.0
        report = _lift(0.2, 0.0, ec, unit_hierarchy)
        assert report.value == pytest.approx(0.4)
        assert report.constants["S_value_pair"] == 1.0 and report.constants["S_1"] is None

    def test_lift_condition_examples(self, unit_hierarchy):
        # p = 3 and all constants one: value = 2 (a1 + a2)
        ec = make_constants(entries={6.0: 1.0, 1.0: 1.0, 1.5: 1.0})
        assert _lift(0.0, 0.0, ec, unit_hierarchy).margin == 1.0
        rep = _lift(0.2, 0.1, ec, unit_hierarchy)
        assert rep.value == pytest.approx(0.6)
        assert rep.passed
        rep = _lift(0.4, 0.2, ec, unit_hierarchy)
        assert rep.value == pytest.approx(1.2)
        assert not rep.passed

    def test_convolution_condition_examples(self):
        ec = make_constants(entries={6.0: 1.0, 1.0: 1.0, 1.5: 1.0})
        rep = _convolution(0.2, 0.1, ec, 1.0)
        assert rep.value == pytest.approx(0.3)
        assert rep.passed
        rep = _convolution(0.2, 0.1, ec, 2.0)
        assert rep.value == pytest.approx(1.2)  # kernel mass 2 scales by 2^{p-1}
        assert not rep.passed

    def test_pure_arithmetic_is_reproducible(self):
        ec = make_constants(entries={6.0 / 5.0: 0.37, 1.5: 0.52})
        cert = make_cert(0.81, 0.64)
        a = _generic(0.3, 0.2, cert, ec).value
        b = _generic(0.3, 0.2, cert, ec).value
        assert a == b


class TestCoercivityRadius:
    def test_plain_quadratic_root(self):
        assert coercivity_radius(0.0, 1.0, 3.0, 2.0, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_shifted_root_closed_form(self):
        # 0.5 t^2 - t - 1 = 0 has largest root 1 + sqrt(3)
        R = coercivity_radius(0.5, 1.0, 3.0, 2.0, 1.0)
        assert R == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-8)

    def test_monotone_in_constant_term(self):
        radii = [coercivity_radius(0.2, 1.0, 3.0, 2.0, c0) for c0 in (0.0, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(radii, radii[1:]))

    def test_root_quality_and_tail(self):
        for kappa, c0, p, q in ((0.0, 0.0, 3.0, 2.0), (0.3, 2.0, 4.0, 2.5),
                                (0.9, 10.0, 3.5, 1.5)):
            R = coercivity_radius(kappa, 2.0, p, q, c0)
            w = 2.0 ** ((p - q) / p)
            g = lambda t: (1 - kappa) * t ** (p - 1) - w * t ** (q - 1) - c0
            assert abs(g(R)) <= 1e-8
            assert g(2 * R) > 0

    def test_kappa_at_least_one_rejected(self):
        with pytest.raises(HypothesisError, match="kappa"):
            coercivity_radius(1.0, 1.0, 3.0, 2.0, 0.5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            coercivity_radius(0.5, -1.0, 3.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            coercivity_radius(0.5, 1.0, 2.0, 3.0, 0.5)

    def test_random_inputs_against_brent(self):
        # kappa in [0, 0.999], |Omega| in [0.05, 8], q in [1.01, 3], p - q
        # log-uniform in [1e-3, 5], c0 zero or log-uniform in [1e-3, 1e3]
        rng = np.random.default_rng(33)
        returned = 0
        for _ in range(2500):
            kappa, omega = rng.uniform(0.0, 0.999), rng.uniform(0.05, 8.0)
            q = rng.uniform(1.01, 3.0)
            p = q + 10.0 ** rng.uniform(-3.0, math.log10(5.0))
            c0 = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-3.0, 3.0)
            root = safeguard_root(kappa, omega, p, q, c0)
            try:
                R = coercivity_radius(kappa, omega, p, q, c0)
            except ArithmeticError:
                # only where t^{p-1} at the root, times the overshoot 2^m of
                # doubling s = t^{q-1}, m = (p-1)/(q-1), leaves the float range
                assert (p - 1.0) * math.log2(root) > 1023.0 - (p - 1.0) / (q - 1.0)
                continue
            returned += 1
            assert abs(R - root) <= 1e-12 * root
            # g, through g / t^{q-1} of its sign, changes sign within 1e-12
            # of R and stays nonnegative past it
            lead, w, tail = safeguard_terms(R * np.array([1.0 - 1e-12, 1.0 + 1e-12]),
                                            kappa, omega, p, q, c0)
            assert lead[0] - w - tail[0] < 0.0 < lead[1] - w - tail[1]
            with np.errstate(over="ignore"):
                lead, w, tail = safeguard_terms(R * np.logspace(0.0, 2.0, 60),
                                                kappa, omega, p, q, c0)
            assert np.all(lead - w - tail >= -1e-12 * (lead + w + tail))
            # nondecreasing in c0 to the same 1e-12: at p - q near 1e-3 the
            # root's condition number 1/(p - q) lifts rounding above the shift
            # a larger c0 makes, and a few draws come out lower by about 1e-13
            try:
                R_more = coercivity_radius(kappa, omega, p, q, 2.0 * c0 + 1e-3)
            except ArithmeticError:
                continue
            assert R_more >= R * (1.0 - 1e-12)
        assert returned >= 2000

    def test_overflowing_root_raises(self):
        # 0.1 t^1.001 - t - 10 vanishes near t = 10^1000
        with pytest.raises(ArithmeticError):
            coercivity_radius(0.9, 1.0, 2.001, 2.0, 10.0)


class TestJsonShape:
    def test_constants_json(self, unit_hierarchy):
        ec = build_constants(unit_hierarchy, 3.0, 6.0, [2.0], iters=50, starts=2)
        obj = ec.to_json_dict()
        assert set(obj) >= {"lambda1p", "S", "safety", "p_crit"}
        entry = obj["S"][repr(2.0)]
        assert entry["raw"] < entry["value"]
        assert entry["converged"] is ec.entries[2.0].converged
        assert obj["lambda1p_converged"] is ec.eigenvalue.converged

    def test_no_eigenvalue_without_the_s_p_entry(self):
        ec = make_constants(entries={2.0: 1.0})
        assert ec.eigenvalue is None
        obj = ec.to_json_dict()
        assert (obj["lambda1p"], obj["lambda1p_profile"], obj["lambda1p_converged"]) == \
            (None, [], False)

    def test_convergence_flags_reach_the_report(self, unit_hierarchy):
        # 5 ascent steps cannot meet the 1e-11 improvement test; the
        # eigenvalue carries the flag of the ascent at r = p
        ec = build_constants(unit_hierarchy, 3.0, 6.0, [2.0], iters=5, starts=2)
        obj = ec.to_json_dict()
        assert obj["S"][repr(2.0)]["converged"] is False
        assert obj["lambda1p_converged"] is obj["S"][repr(3.0)]["converged"]

    def test_step_counts_reach_the_report(self, unit_hierarchy):
        # per level, the most steps any start took, within the step cap
        ec = build_constants(unit_hierarchy, 3.0, 6.0, [2.0], iters=5, starts=2)
        for key, entry in ec.to_json_dict()["S"].items():
            assert entry["iters"] == list(ec.entries[float(key)].iters)
            assert len(entry["iters"]) == unit_hierarchy.n_levels
            assert all(0 < n <= 5 for n in entry["iters"])
