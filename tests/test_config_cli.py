import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from competefem.cli import main
from competefem.solver import _levenberg_step
from competefem.config import (
    ConfigError,
    build_instance,
    canonical_json,
    parse_config,
    parse_config_dict,
)


MINIMAL = {
    "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "elements": 4},
    "p": 3.0,
    "q": 2.0,
    "f": {"kind": "zero"},
    "T": {"kind": "identity"},
}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


class TestParseConfig:
    def test_minimal_fills_defaults(self, tmp_path):
        spec = parse_config(write_config(tmp_path, MINIMAL))
        assert spec.levels == 5
        assert spec.policy == "refuse"
        assert spec.tol == 1e-10
        assert spec.p_crit == 6.0
        assert spec.safety == 1.1
        assert spec.f["envelope"]["r"] == 2.0

    def test_exponent_order_rejected(self, tmp_path):
        bad = dict(MINIMAL, q=3.0)
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, bad))
        assert err.value.code == "EXPONENT_ORDER"

    def test_alpha_at_the_open_endpoint_rejected(self, tmp_path):
        bad = dict(MINIMAL, f={"kind": "signed_power", "a1": 0.1, "alpha": 5.0})
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, bad))
        assert err.value.code == "H1_RANGE"
        assert "(0, 5.0)" in str(err.value)

    def test_unknown_catalog_ids(self, tmp_path):
        for patch, code in (
            ({"f": {"kind": "mystery"}}, "UNKNOWN_CATALOG"),
            ({"T": {"kind": "mystery"}}, "UNKNOWN_CATALOG"),
            ({"domain": {"kind": "moebius"}}, "UNKNOWN_CATALOG"),
        ):
            bad = dict(MINIMAL, **patch)
            with pytest.raises(ConfigError) as err:
                parse_config(write_config(tmp_path, bad))
            assert err.value.code == code

    def test_truncated_gaussian_kernel_refused(self):
        # the kernel was removed: it alone needed dense weights per level
        bad = dict(MINIMAL, **_kernel(shape="truncated_gaussian", sigma=0.05, radius=0.2))
        with pytest.raises(ConfigError) as err:
            parse_config_dict(bad)
        assert err.value.code == "UNKNOWN_CATALOG"
        assert "'truncated_gaussian'" in str(err.value) and '"cubic_bspline"' in str(err.value)

    @pytest.mark.parametrize("p_crit", [18.5, 100.0])
    def test_p_crit_above_the_sobolev_exponent_refused(self, p_crit):
        # p = 1.8 < N = 2 on the unit square: W^{1,p}_0 embeds in L^r only
        # up to r = Np/(N-p) = 18
        square = dict(MINIMAL, domain={"kind": "unit_square"}, p=1.8, q=1.4, eps_reg=1e-8)
        assert parse_config_dict(dict(square, p_crit=17.9)).p_crit == 17.9
        with pytest.raises(ConfigError) as err:
            parse_config_dict(dict(square, p_crit=p_crit))
        assert err.value.code == "BAD_FIELD"
        assert "Np/(N-p) = 18" in str(err.value)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.code == "MALFORMED_JSON"

    def test_unknown_top_level_key(self, tmp_path):
        bad = dict(MINIMAL, tolerance=1e-8)
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, bad))
        assert err.value.code == "BAD_FIELD"

    def test_quad_order_refused(self):
        # every value from 3 up chose the same rule, so the key is gone
        with pytest.raises(ConfigError) as err:
            parse_config_dict(dict(MINIMAL, quad_order=4))
        assert err.value.code == "BAD_FIELD"
        assert "'quad_order'" in str(err.value)

    def test_certificate_support_enforced(self, tmp_path):
        bad = dict(MINIMAL, f={"kind": "signed_power", "a1": 0.1, "alpha": 3.0})
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, bad))
        assert err.value.code == "UNSUPPORTED_CERTIFICATE"
        assert "identity certificate" in str(err.value)  # the rule certificate() raises
        conv = dict(
            MINIMAL,
            f={"kind": "signed_power", "a1": 0.1, "alpha": 1.0},
            T={"kind": "convolution", "kernel": {"shape": "box", "width": 0.25}},
        )
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, conv))
        assert err.value.code == "UNSUPPORTED_CERTIFICATE"
        assert "alpha = beta = p-1" in str(err.value)

    def test_small_exponents_need_regularisation(self, tmp_path):
        bad = dict(MINIMAL, p=2.5, q=1.5)
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, bad))
        assert err.value.code == "BAD_FIELD"
        ok = dict(bad, eps_reg=1e-8)
        spec = parse_config(write_config(tmp_path, ok))
        assert spec.eps_reg == 1e-8

    def test_initial_guess_requires_manufactured(self, tmp_path):
        bad = dict(MINIMAL, initial_guess="exact")
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, bad))
        assert err.value.code == "BAD_FIELD"

    def test_roundtrip(self, tmp_path):
        obj = {
            "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "elements": 4},
            "p": 3.0, "q": 2.0, "levels": 6, "seed": 17,
            "f": {"kind": "manufactured_plus_power",
                  "a1": 0.25, "alpha": 2.0, "a2": 0.0, "beta": 2.0},
            "T": {"kind": "convolution",
                  "kernel": {"shape": "hat", "width": 0.25}},
            "initial_guess": "exact",
        }
        spec = parse_config_dict(obj)
        again = parse_config_dict(json.loads(canonical_json(spec.to_json_dict())))
        assert again == spec
        assert canonical_json(again.to_json_dict()) == canonical_json(spec.to_json_dict())

    def test_mesh_domain(self, tmp_path):
        obj = dict(MINIMAL, domain={
            "kind": "mesh", "mesh": {"dim": 1, "nodes": [0.0, 0.3, 0.6, 1.0]}
        })
        spec = parse_config_dict(obj)
        inst = build_instance(spec)
        assert inst.hierarchy.level(1).n_free == 2


class TestBuildInstance:
    def test_solution_dependence_flags(self):
        spec = parse_config_dict(dict(MINIMAL, f={"kind": "manufactured_p3q2"}))
        assert not build_instance(spec).convection.solution_dependent
        spec = parse_config_dict(dict(MINIMAL, f={"kind": "signed_power",
                                                  "a1": 0.2, "alpha": 1.0}))
        assert build_instance(spec).convection.solution_dependent

    def test_exact_guess_resolved(self):
        spec = parse_config_dict(dict(MINIMAL, f={"kind": "manufactured_p3q2"},
                                      initial_guess="exact"))
        inst = build_instance(spec)
        assert inst.initial_guess is not None
        np.testing.assert_allclose(inst.initial_guess(np.array([[0.5]])), 0.25)


MANUFACTURED_CLI = {
    "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "elements": 4},
    "p": 3.0, "q": 2.0, "levels": 4,
    "f": {"kind": "manufactured_p3q2"},
    "T": {"kind": "identity"},
    "seed": 3,
    "sphere_samples": 32,
    "initial_guess": "exact",
}

CONVOLUTION_CLI = dict(
    MANUFACTURED_CLI,
    f={"kind": "manufactured_plus_power", "a1": 0.1, "a2": 0.1, "alpha": 2.0, "beta": 2.0},
    T={"kind": "convolution", "kernel": {"shape": "box", "width": 0.25}},
)

# constant f on the unit square: levels 2 and 3 take the homotopy, and the
# solve runs Levenberg trials whose normal equations have a band wider than 1
SQUARE_CLI = {
    "domain": {"kind": "unit_square"},
    "p": 3.0, "q": 2.0, "levels": 4,
    "f": {"kind": "constant", "c": 5.0},
    "seed": 3,
    "sphere_samples": 32,
}


# one small config for each way a run ends; a1 = 20 puts kappa above one
_SMALL = dict(MANUFACTURED_CLI, levels=2, sphere_samples=10)
_TOO_LARGE = dict(_SMALL, initial_guess=None,
                  f={"kind": "manufactured_p3q2", "envelope": {"a1": 20.0, "alpha": 1.0}})
_REFUSED = "hypothesis failed: hypothesis checks failed: growth_smallness\n"
_NO_RADIUS = (r"hypothesis failed: hypothesis checks failed \(growth_smallness\) and "
              r"kappa = \S+ >= 1 leaves no finite safeguard radius; "
              r"cannot continue even under warn\n")
_LEVEL_1_FAILED = r"level 1 did not converge \(residual sup \S+\)\n"
# a weight near the largest float puts the safeguard radius beyond it
_OVERFLOW = dict(_SMALL, f={"kind": "manufactured_p3q2", "envelope": {
    "a1": 5.0, "alpha": 1.0, "r": 1.0, "sigma": {"kind": "constant", "c": 1e308}}})
_NO_FLOAT_RADIUS = (r"hypothesis failed: the safeguard radius R overflows a float at "
                    r"kappa = \S+ and c0 = \S+ \(p = 3.0, q = 2.0\)\n")
# outcome -> (config, exit code, stdout of solve, stdout of study), stdouts as patterns
CLI_OUTCOMES = {
    "ok": (_SMALL, 0, r"status: ok; levels solved: 2; R = \S+\n",
           r"study rows written: 2; finest error_w1p = \S+\n"),
    "refuse": (_TOO_LARGE, 2, re.escape(_REFUSED), re.escape(_REFUSED)),
    "warn-kappa-above-one": (dict(_TOO_LARGE, policy="warn"), 2, _NO_RADIUS, _NO_RADIUS),
    "solver-failure": (dict(_SMALL, tol=1e-300), 3,
                       r"status: solver_failure; levels solved: 1; R = \S+\n" + _LEVEL_1_FAILED,
                       r"study rows written: 1; finest error_w1p = \S+\n" + _LEVEL_1_FAILED),
    "radius-overflow": (_OVERFLOW, 2, _NO_FLOAT_RADIUS, _NO_FLOAT_RADIUS),
}


# every integer field of a config, as the patch that sets it to a value
INTEGER_FIELDS = {
    "elements": lambda v: {"domain": dict(MINIMAL["domain"], elements=v)},
    "refine_factor": lambda v: {
        "f": CONVOLUTION_CLI["f"], "T": dict(CONVOLUTION_CLI["T"], refine_factor=v)},
    "levels": lambda v: {"levels": v},
    "sphere_samples": lambda v: {"sphere_samples": v},
    "starts": lambda v: {"estimator": {"starts": v}},
    "iters": lambda v: {"estimator": {"iters": v}},
    "test_set_size": lambda v: {"test_set_size": v},
    "seed": lambda v: {"seed": v},
}


class TestIntegerFields:
    @pytest.mark.parametrize("value", ["abc", "4", None, True, 2.5, float("inf")])
    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
    def test_non_integers_rejected(self, field, value):
        # these once passed truncated (2.5 -> 2, true -> 1) or crashed
        with pytest.raises(ConfigError) as err:
            parse_config_dict(dict(MINIMAL, **INTEGER_FIELDS[field](value)))
        assert err.value.code == "BAD_FIELD"
        assert repr(field) in str(err.value)

    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
    def test_integral_floats_accepted(self, field):
        spec = parse_config_dict(dict(MINIMAL, **INTEGER_FIELDS[field](4.0)))
        fields = {**spec.domain, **spec.T, **spec.estimator, **vars(spec)}
        assert fields[field] == 4 and type(fields[field]) is int

    def test_tol_must_be_a_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict(dict(MINIMAL, tol="abc"))
        assert err.value.code == "BAD_FIELD"
        assert parse_config_dict(dict(MINIMAL, tol=None)).tol == 1e-10


def _f(**f):
    return {"f": f}


def _envelope(**env):
    return _f(kind="zero", envelope=env)


def _lift(**u0):
    return {"f": CONVOLUTION_CLI["f"], "T": {"kind": "boundary_lift", "u0": u0}}


def _lift_on_square(**u0):
    return dict(_lift(**u0), domain={"kind": "unit_square"}, initial_guess=None)


def _kernel(**kernel):
    return {"f": CONVOLUTION_CLI["f"], "T": {"kind": "convolution", "kernel": kernel}}


def _inline_square(vertices, triangles):
    """A short solve on an inline 2D mesh of the unit square."""
    return {"domain": {"kind": "mesh", "mesh": {"dim": 2, "vertices": vertices,
                                                "triangles": triangles}},
            "levels": 3, "f": {"kind": "constant", "c": 1.0}, "sphere_samples": 20,
            "initial_guess": None}


NODAL = {"kind": "nodal", "x": [0.0, 1.0], "values": [1.0, 1.0]}

# every float field of a config: its name, and the patch that sets it to a value
FLOAT_FIELDS = {
    "p": lambda v: {"p": v},
    "q": lambda v: {"q": v},
    "tol": lambda v: {"tol": v},
    "eps_reg": lambda v: {"eps_reg": v},
    "safety": lambda v: {"safety": v},
    "p_crit": lambda v: {"p_crit": v},
    "domain.a": lambda v: {"domain": dict(MINIMAL["domain"], a=v)},
    "domain.b": lambda v: {"domain": dict(MINIMAL["domain"], b=v)},
    "f.a1": lambda v: _f(kind="signed_power", a1=v, alpha=1.0),
    "f.alpha": lambda v: _f(kind="signed_power", a1=0.1, alpha=v),
    "f.a2": lambda v: _f(kind="gradient_power", a2=v, beta=1.0),
    "f.beta": lambda v: _f(kind="gradient_power", a2=0.1, beta=v),
    "f.c": lambda v: _f(kind="constant", c=v),
    "f.r": lambda v: _f(kind="sigma_only", r=v),
    "sigma_params.c": lambda v: _f(kind="sigma_only", sigma_params={"c": v}),
    "sigma_params.values": lambda v: _f(kind="sigma_only", sigma_kind="nodal",
                                        sigma_params={"x": [0.0, 1.0], "values": v}),
    "sigma_params.values[1]": lambda v: _f(kind="sigma_only", sigma_kind="nodal",
                                           sigma_params={"x": [0.0, 1.0], "values": [1.0, v]}),
    "envelope.a1": lambda v: _envelope(a1=v),
    "envelope.a2": lambda v: _envelope(a2=v),
    "envelope.alpha": lambda v: _envelope(alpha=v),
    "envelope.beta": lambda v: _envelope(beta=v),
    "envelope.r": lambda v: _envelope(r=v),
    "sigma.c": lambda v: _envelope(sigma={"kind": "constant", "c": v}),
    "sigma.x": lambda v: _envelope(sigma=dict(NODAL, x=v)),
    "sigma.x[1]": lambda v: _envelope(sigma=dict(NODAL, x=[0.0, v])),
    "sigma.values": lambda v: _envelope(sigma=dict(NODAL, values=v)),
    "sigma.values[1]": lambda v: _envelope(sigma=dict(NODAL, values=[1.0, v])),
    "u0.a": lambda v: _lift(kind="affine", a=v),
    "u0.b": lambda v: _lift(kind="affine", b=v),
    "u0.ax": lambda v: _lift_on_square(kind="affine", ax=v),
    "u0.ay": lambda v: _lift_on_square(kind="affine", ay=v),
    "kernel.width": lambda v: _kernel(shape="box", width=v),
    "kernel.scale": lambda v: _kernel(shape="hat", width=0.25, scale=v),
}
# fields whose null means their default
NULL_MEANS_DEFAULT = {"tol", "p_crit"}

BOOL_FIELDS = {"f.signed": lambda v: _f(kind="gradient_power", a2=0.1, beta=1.0, signed=v)}

OBJECT_FIELDS = {
    "f": lambda v: {"f": v},
    "T": lambda v: {"T": v},
    "envelope": lambda v: _f(kind="zero", envelope=v),
    "sigma": lambda v: _envelope(sigma=v),
    "sigma_params": lambda v: _f(kind="sigma_only", sigma_params=v),
    "u0": lambda v: {"f": CONVOLUTION_CLI["f"], "T": {"kind": "boundary_lift", "u0": v}},
    "kernel": lambda v: {"f": CONVOLUTION_CLI["f"], "T": {"kind": "convolution", "kernel": v}},
    "estimator": lambda v: {"estimator": v},
}

NOT_NUMBERS = ["abc", "3", True, [1], float("nan"), float("inf"), None]
NOT_BOOLS = ["abc", "no", 1, 0.0, [1], float("nan"), float("inf"), None]
NOT_OBJECTS = ["abc", "3", True, [1], float("nan"), float("inf"), None]


def _typed_cases():
    for table, values in ((FLOAT_FIELDS, NOT_NUMBERS), (BOOL_FIELDS, NOT_BOOLS),
                          (OBJECT_FIELDS, NOT_OBJECTS)):
        for field, patch in sorted(table.items()):
            for value in values:
                if value is None and field in NULL_MEANS_DEFAULT:
                    continue
                yield pytest.param(field, patch, value, id=f"{field}={value!r}")


class TestTypedFields:
    @pytest.mark.parametrize("field,patch,value", list(_typed_cases()))
    def test_wrong_types_rejected(self, field, patch, value):
        # each once passed coerced ("3" -> 3.0, "no" -> true, NaN unchecked) or crashed
        with pytest.raises(ConfigError) as err:
            parse_config_dict(dict(MINIMAL, **patch(value)))
        assert err.value.code == "BAD_FIELD"
        name = field.split(".")[-1].split("[")[0]
        assert repr(name) in str(err.value)

    @pytest.mark.parametrize("field", sorted(FLOAT_FIELDS))
    def test_each_patch_alone_is_valid(self, field):
        # so that the rejections above come from the patched value alone
        value = {"p": 3.0, "q": 2.0, "safety": 1.5, "p_crit": 7.0, "domain.a": 0,
                 "sigma.x": [0, 1], "sigma.values": [1, 2], "sigma_params.values": [1, 2],
                 "f.r": 2.0,
                 "envelope.r": 2.0}.get(field, 0.5)
        parse_config_dict(dict(MINIMAL, **FLOAT_FIELDS[field](value)))

    def test_signed_is_a_boolean(self):
        spec = parse_config_dict(dict(MINIMAL, **BOOL_FIELDS["f.signed"](False)))
        assert spec.f["signed"] is False


UNKNOWN_KEYS = {
    "domain": {"domain": dict(MINIMAL["domain"], n=3)},
    "domain-unit-square": {"domain": {"kind": "unit_square", "elements": 4}},
    "f": _f(kind="signed_power", a1=0.1, alpah=2.0),
    "f-zero": _f(kind="zero", a1=0.1),
    "envelope": _envelope(gamma=1.0),
    "sigma": _envelope(sigma={"kind": "zero", "c": 1.0}),
    "sigma_params": _f(kind="sigma_only", sigma_params={"c": 1.0, "d": 2.0}),
    "T": {"T": {"kind": "identity", "kernel": {"shape": "box", "width": 0.25}}},
    "T-window": {"f": CONVOLUTION_CLI["f"], "T": dict(CONVOLUTION_CLI["T"], window_factor=1.0)},
    "kernel": _kernel(shape="box", width=0.25, radius=0.1),
    "u0": _lift(kind="affine", a=1.0, slope=2.0),
    "estimator": {"estimator": {"foo": 1}},
}


@pytest.mark.parametrize("where", sorted(UNKNOWN_KEYS))
def test_unknown_nested_keys_rejected(where):
    # these were once ignored, or echoed into the report without effect
    with pytest.raises(ConfigError) as err:
        parse_config_dict(dict(MINIMAL, **UNKNOWN_KEYS[where]))
    assert err.value.code == "BAD_FIELD"
    key = {"domain": "n", "domain-unit-square": "elements", "f": "alpah", "f-zero": "a1",
           "envelope": "gamma", "sigma": "c", "sigma_params": "d", "T": "kernel",
           "T-window": "window_factor", "kernel": "radius", "u0": "slope",
           "estimator": "foo"}[where]
    assert repr(key) in str(err.value)


@pytest.mark.parametrize("lift,key", [
    (_lift_on_square(kind="affine", a=5.0, b=0.1), "a"),
    (_lift(kind="affine", ax=0.2, b=0.1), "ax"),
    (_lift(kind="affine", ay=0.2, b=0.1), "ay"),
], ids=["a-on-square", "ax-on-interval", "ay-on-interval"])
def test_lift_parameters_of_the_other_dimension_rejected(lift, key):
    # u0 reads a only in 1D and ax, ay only in 2D; these were echoed but inert
    with pytest.raises(ConfigError) as err:
        parse_config_dict(dict(MINIMAL, **lift))
    assert err.value.code == "BAD_FIELD"
    assert repr(key) in str(err.value)


@pytest.mark.parametrize("lift,dim", [
    (_lift(kind="affine", a=0.2, b=0.1), 1),
    (_lift_on_square(kind="affine", ax=0.2, ay=-0.1, b=0.1), 2),
], ids=["interval", "square"])
def test_lift_parameters_of_the_domain_dimension_accepted(lift, dim):
    spec = parse_config_dict(dict(MINIMAL, **lift))
    u0 = build_instance(spec).operator.lift
    assert spec.T["u0"] == {"kind": "affine", **lift["T"]["u0"]}
    x = np.array([[0.5]]) if dim == 1 else np.array([[0.5, 0.25]])
    expected = 0.2 * 0.5 + 0.1 if dim == 1 else 0.2 * 0.5 - 0.1 * 0.25 + 0.1
    np.testing.assert_allclose(u0.value(x), [expected])


@pytest.mark.parametrize("route", ["sigma_params", "envelope"])
@pytest.mark.parametrize("x", [[1.0, 0.0], [0.0, 0.0, 1.0]], ids=["decreasing", "repeated"])
def test_nodal_sigma_needs_strictly_increasing_x(route, x):
    # np.interp read these as a wrong weight: x = [1, 0] gave 1 at x = 0.25
    sigma = {"x": x, "values": [float(i) for i in range(len(x))]}
    f = ({"kind": "sigma_only", "sigma_kind": "nodal", "sigma_params": sigma}
         if route == "sigma_params" else
         {"kind": "zero", "envelope": {"sigma": {"kind": "nodal", **sigma}}})
    with pytest.raises(ConfigError) as err:
        parse_config_dict(dict(MINIMAL, f=f))
    assert err.value.code == "BAD_FIELD"
    assert "strictly increasing array 'x'" in str(err.value)


@pytest.mark.parametrize("sigma_kind", ["manufactured_abs", "manufactured_plus", "zero"])
def test_sigma_only_takes_a_parameterless_weight(sigma_kind):
    # the weight's default parameter c belongs to the constant kind alone
    spec = parse_config_dict(dict(MINIMAL, f={"kind": "sigma_only", "sigma_kind": sigma_kind}))
    assert spec.f["envelope"]["sigma"] == {"kind": sigma_kind}
    assert '"c"' not in json.dumps(spec.f)
    assert build_instance(spec).envelope.sigma.params == {}


def test_sigma_only_defaults_to_the_unit_constant():
    spec = parse_config_dict(dict(MINIMAL, f={"kind": "sigma_only"}))
    assert spec.f["envelope"]["sigma"] == {"kind": "constant", "c": 1.0}


@pytest.mark.parametrize("sigma_kind,sigma_params,envelope", [
    ("constant", {"c": -2.0}, {"c": 2.0}),
    ("nodal", {"x": [0.0, 1.0], "values": [-1.0, -1.0]}, {"values": [1.0, 1.0]}),
    ("nodal", {"x": [0.0, 1.0], "values": [-1.0, 2.0]}, {"values": [1.0, 2.0]}),
], ids=["constant-negative", "nodal-negative", "nodal-sign-change"])
def test_sigma_only_echoes_the_weights_magnitude(sigma_kind, sigma_params, envelope):
    # f keeps the signed weight; the envelope echoes and installs its magnitude
    f = {"kind": "sigma_only", "sigma_kind": sigma_kind, "sigma_params": sigma_params}
    spec = parse_config_dict(dict(MINIMAL, f=f))
    assert spec.f["sigma_params"] == sigma_params
    assert {k: spec.f["envelope"]["sigma"][k] for k in envelope} == envelope
    assert parse_config_dict(spec.to_json_dict()) == spec
    inst = build_instance(spec)
    term, x = inst.convection, inst.hierarchy.level(3).qp_points
    s, xi = np.zeros(x.shape[:-1]), np.zeros(x.shape)
    assert np.max(np.abs(term(x, s, xi)) - term.envelope(x, s, xi)) <= 0.0


_CONVOLUTION_T = {"kind": "convolution", "kernel": {"shape": "box", "width": 0.25}}


# configs whose zero coefficients leave an exponent inert, with the (alpha, beta)
# each echoes; the catalog's default 1 for both once got them refused
INERT_EXPONENTS = {
    "zero-below-2": ({"domain": {"kind": "unit_square"}, "p": 1.8, "q": 1.4,
                      "eps_reg": 1e-3, "f": {"kind": "zero"}}, (0.8, 0.8)),
    "constant-lift": ({"f": {"kind": "constant"},
                       "T": {"kind": "boundary_lift", "u0": {"kind": "affine", "b": 0.1}}},
                      (2.0, 2.0)),
    "manufactured-convolution": ({"f": {"kind": "manufactured_p3q2"}, "T": _CONVOLUTION_T},
                                 (2.0, 2.0)),
    "inert-beta-convolution": ({"f": {"kind": "manufactured_plus_power", "a1": 0.1, "alpha": 2},
                                "T": _CONVOLUTION_T}, (2.0, 2.0)),
}


@pytest.mark.parametrize("case", sorted(INERT_EXPONENTS))
def test_inert_exponents_take_a_certified_default(case):
    patch, exponents = INERT_EXPONENTS[case]
    spec = parse_config_dict(dict(MINIMAL, **patch))
    assert (spec.f["envelope"]["alpha"], spec.f["envelope"]["beta"]) == exponents
    assert parse_config_dict(spec.to_json_dict()) == spec
    env = build_instance(spec).envelope
    assert (env.alpha, env.beta) == exponents


def test_set_inert_exponents_are_kept():
    # an exponent that f or its envelope sets is echoed as set, and judged by the rule
    spec = parse_config_dict(dict(MINIMAL, f={"kind": "zero", "envelope": {"alpha": 0.5}}))
    assert (spec.f["envelope"]["alpha"], spec.f["envelope"]["beta"]) == (0.5, 1.0)
    with pytest.raises(ConfigError) as err:
        parse_config_dict(dict(MINIMAL, f={"kind": "signed_power", "a1": 0.0, "alpha": 1.0},
                               T=_CONVOLUTION_T))
    assert err.value.code == "UNSUPPORTED_CERTIFICATE"


# f of the deep convolution workload with its coefficients raised to 5
_POWERS = {"kind": "manufactured_plus_power", "a1": 5.0, "a2": 5.0, "alpha": 2.0, "beta": 2.0}
_ABS_KINKS = {"kind": "nodal", "x": [0.0, 0.25, 0.5, 0.75, 1.0]}
_PLUS = {"kind": "sigma_only", "sigma_kind": "manufactured_plus"}


def _override(f, **envelope):
    return {"f": dict(f, envelope=envelope)}


# f.envelope overrides below the kind's own envelope, with the part of the
# refusal that names what they drop
FALSE_ENVELOPES = {
    "dropped-powers": (dict(_override(_POWERS, a1=0.0, a2=0.0), levels=5, T=_CONVOLUTION_T),
                       "keep f's own alpha = 2.0 and a1 >= 5.0"),
    "smaller-a2": (_override(_POWERS, a2=4.5), "keep f's own beta = 2.0 and a2 >= 5.0"),
    "other-alpha": (_override(_POWERS, a1=50.0, alpha=1.5), "alpha = 2.0 and a1 >= 5.0"),
    "zero-sigma": (_override({"kind": "manufactured_p3q2"}, sigma={"kind": "zero"}),
                   "below f's own weight 'manufactured_abs' at first coordinate 0"),
    "dip-at-a-kink": (_override({"kind": "manufactured_p3q2"},
                                sigma=dict(_ABS_KINKS, values=[2.0, 0.0, 1.9, 0.0, 2.0])),
                      "at first coordinate 0.5"),
    "constant-below-an-end": (_override(_PLUS, sigma={"kind": "constant", "c": 4.0}),
                              "below f's own weight 'manufactured_plus' at first coordinate 0"),
}
# overrides that dominate it, one of them only on the domain's range
TRUE_ENVELOPES = {
    "widened": _override({"kind": "manufactured_p3q2"}, a1=20.0, alpha=1.0),
    "larger-powers": _override(_POWERS, a1=6.0, a2=5.0),
    "nodal-through-the-kinks": _override({"kind": "manufactured_p3q2"},
                                         sigma=dict(_ABS_KINKS, values=[2.0, 0.0, 2.0, 0.0, 2.0])),
    "constant-above-the-range": dict(
        _override(_PLUS, sigma={"kind": "constant", "c": 4.0}),
        domain={"kind": "interval", "a": 0.25, "b": 0.75, "elements": 4}),
    "square": dict(_override({"kind": "manufactured_p3q2"}, sigma={"kind": "constant", "c": 2.0}),
                   domain={"kind": "unit_square"}),
}


@pytest.mark.parametrize("case", sorted(FALSE_ENVELOPES))
def test_envelope_below_the_kinds_own_refused(case):
    patch, named = FALSE_ENVELOPES[case]
    with pytest.raises(ConfigError) as err:
        parse_config_dict(dict(MINIMAL, **patch))
    assert err.value.code == "H1_RANGE"
    assert named in str(err.value)


@pytest.mark.parametrize("case", sorted(TRUE_ENVELOPES))
def test_envelope_above_the_kinds_own_accepted(case):
    spec = parse_config_dict(dict(MINIMAL, **TRUE_ENVELOPES[case]))
    assert parse_config_dict(spec.to_json_dict()) == spec
    envelope = TRUE_ENVELOPES[case]["f"]["envelope"]
    assert {k: spec.f["envelope"][k] for k in envelope} == envelope


def test_initial_guess_is_null_or_exact():
    with pytest.raises(ConfigError) as err:
        parse_config_dict(dict(MINIMAL, initial_guess="zero"))
    assert err.value.code == "UNKNOWN_CATALOG"
    assert "null" in str(err.value) and '"exact"' in str(err.value)
    assert parse_config_dict(dict(MINIMAL, initial_guess=None)).initial_guess is None


def test_cli_import_leaves_scipy_special_out():
    # no module of the package imports scipy.special, and none should pull it in
    code = "import sys, competefem.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True,
                         env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")})
    assert out.stdout.strip() == "False"


def _readme_level_keys():
    """The keys that README lists for a level of ``solve_report.json``."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("Each level in the JSON carries exactly these keys:\n", 1)[1]
    return re.findall(r"`(\w+)`", block.split("\n\n", 1)[0])


class TestCli:
    @pytest.mark.parametrize("config,code", [(MANUFACTURED_CLI, 0), (dict(_SMALL, tol=1e-300), 3)],
                             ids=["ok", "solver-failure"])
    def test_level_rows_carry_the_keys_readme_lists(self, tmp_path, config, code):
        keys = _readme_level_keys()
        assert len(keys) == len(set(keys)) == 22
        out = tmp_path / "out"
        assert main(["solve", str(write_config(tmp_path, config)), "--out-dir", str(out)]) == code
        levels = json.loads((out / "solve_report.json").read_text())["levels"]
        assert levels
        for level in levels:
            assert sorted(level) == sorted(keys)
            assert level["apriori_margin"] == level["R"] - level["grad_norm_p"]
            assert level["energy_gap"] >= 0

    def test_solve_writes_reports(self, tmp_path):
        cfg = write_config(tmp_path, MANUFACTURED_CLI)
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out)]) == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert report["status"] == "ok"
        assert len(report["levels"]) == 4
        csv_text = (out / "solve_report.csv").read_text().splitlines()
        assert csv_text[0] == ("level,dim,grad_norm_p,residual_sup,R,apriori_margin,"
                               "weak_gap,residual_gap,pairing_gap,full_gap,newton_iters")
        assert len(csv_text) == 5

    def test_csv_cells_equal_json_values(self, tmp_path):
        cfg = write_config(tmp_path, MANUFACTURED_CLI)
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out)]) == 0
        levels = json.loads((out / "solve_report.json").read_text())["levels"]
        with (out / "solve_report.csv").open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(rows) == len(levels)
        assert levels[-1]["weak_gap"] is None  # the finest level has no diagnostics
        for row, level in zip(rows, levels):
            for column, cell in zip(header, row):
                value = level[column]
                if value is None:
                    assert cell == ""
                else:
                    assert float(cell) == value, (level["level"], column)

    def test_solve_zero_rhs_all_zero_rows(self, tmp_path):
        cfg = write_config(tmp_path, dict(MANUFACTURED_CLI, f={"kind": "zero"},
                                          initial_guess=None))
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out)]) == 0
        report = json.loads((out / "solve_report.json").read_text())
        for row in report["levels"]:
            assert row["grad_norm_p"] == pytest.approx(0.0, abs=1e-12)

    def test_check_pass_and_fail_exit_codes(self, tmp_path):
        cfg = write_config(tmp_path, MANUFACTURED_CLI)
        out = tmp_path / "out"
        assert main(["check", str(cfg), "--out-dir", str(out)]) == 0
        payload = json.loads((out / "hypothesis_report.json").read_text())
        assert payload["all_pass"] is True
        assert payload["reports"][0]["margin"] == 1.0

        failing = dict(MANUFACTURED_CLI,
                       f={"kind": "signed_power", "a1": 20.0, "alpha": 1.0},
                       initial_guess=None)
        cfg2 = write_config(tmp_path, failing, "failing.json")
        assert main(["check", str(cfg2), "--out-dir", str(out)]) == 2
        payload = json.loads((out / "hypothesis_report.json").read_text())
        assert payload["all_pass"] is False

    def test_solve_hypothesis_refusal_exit_2_report_written(self, tmp_path):
        failing = dict(MANUFACTURED_CLI,
                       f={"kind": "signed_power", "a1": 20.0, "alpha": 1.0},
                       initial_guess=None)
        cfg = write_config(tmp_path, failing)
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out)]) == 2
        report = json.loads((out / "solve_report.json").read_text())
        assert report["status"] == "hypothesis_failed"
        assert (out / "solve_report.csv").read_text().startswith("level,")

    def test_constants_report(self, tmp_path):
        cfg = write_config(tmp_path, MANUFACTURED_CLI)
        out = tmp_path / "out"
        assert main(["constants", str(cfg), "--out-dir", str(out)]) == 0
        payload = json.loads((out / "constants.json").read_text())
        assert payload["safety"] == 1.1
        assert payload["lambda1p"] > 0
        for entry in payload["S"].values():
            assert entry["value"] == pytest.approx(1.1 * entry["raw"], rel=1e-12)

    def test_space_provenance_names_p_star_below_the_dimension(self, tmp_path):
        # unit square with p = 1.8 < N = 2, so p_crit = p* = Np/(N-p) = 18
        probe = {
            "domain": {"kind": "unit_square"}, "p": 1.8, "q": 1.4, "levels": 4,
            "eps_reg": 1e-8,
            "f": {"kind": "constant", "c": 1.0, "envelope": {"alpha": 0.5, "beta": 0.5}},
        }
        out = tmp_path / "out"
        assert main(["check", str(write_config(tmp_path, probe)), "--out-dir", str(out)]) == 0
        payload = json.loads((out / "hypothesis_report.json").read_text())
        constants = payload["constants"]
        assert constants["p_crit"] == pytest.approx(18.0, rel=1e-14)
        space = constants["S_space"]
        assert space["value"] == constants["S"][repr(18.0)]["value"]
        assert "p* = Np/(N-p) = 18 (p < N)" in space["provenance"]
        assert "p >= N" not in space["provenance"]
        assert payload["all_pass"] is True

    def test_study_rates(self, tmp_path):
        cfg = write_config(tmp_path, dict(MANUFACTURED_CLI, levels=5))
        out = tmp_path / "out"
        assert main(["study", str(cfg), "--out-dir", str(out)]) == 0
        rows = (out / "study.csv").read_text().splitlines()
        assert rows[0] == "level,dim,h_max,error_w1p,rate_w1p,error_l2,rate_l2"
        last = rows[-1].split(",")
        assert float(last[4]) >= 0.8  # measured convergence rate
        errors = [float(r.split(",")[3]) for r in rows[1:]]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_study_requires_manufactured(self, tmp_path):
        cfg = write_config(tmp_path, dict(MANUFACTURED_CLI, f={"kind": "zero"},
                                          initial_guess=None))
        assert main(["study", str(cfg), "--out-dir", str(tmp_path)]) == 1

    def test_config_error_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(MANUFACTURED_CLI, q=5.0))
        assert main(["solve", str(cfg)]) == 1
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"f": "\xe4"}')
        # a directory and a non-UTF-8 file once ended in a traceback
        for path, code in ((tmp_path / "missing.json", "NOT_FOUND"), (tmp_path, "NOT_FOUND"),
                           (latin1, "MALFORMED_JSON")):
            capsys.readouterr()
            assert main(["solve", str(path)]) == 1
            assert capsys.readouterr().err.startswith(f"configuration error [{code}]: ")

    @pytest.mark.parametrize("patch,argv,code", [
        ({"seed": -5}, [], "BAD_FIELD"),
        ({}, ["--seed", "-1"], "BAD_FIELD"),
        ({"domain": {"kind": "unit_square"}, "f": CONVOLUTION_CLI["f"],
          "T": CONVOLUTION_CLI["T"], "initial_guess": None}, [], "UNSUPPORTED_DOMAIN"),
        ({"f": CONVOLUTION_CLI["f"],
          "T": {"kind": "convolution", "kernel": {"shape": "box", "width": 0.0}}}, [], "BAD_FIELD"),
        ({"domain": {"kind": "interval", "a": 0.0, "b": 1.0, "elements": 1}, "levels": 1},
         [], "MESH"),
        ({"domain": {"kind": "unit_square"}, "levels": 1, "initial_guess": None}, [], "MESH"),
        ({"estimator": {"starts": "abc"}}, [], "BAD_FIELD"),
        ({"policy": "warn", "f": {"kind": "manufactured_p3q2", "envelope": {"a1": float("nan")}}},
         [], "BAD_FIELD"),
        ({"domain": {"kind": "mesh", "mesh": {"dim": 1}}}, [], "DOMAIN_INVALID"),
        ({"domain": {"kind": "mesh", "mesh": {"dim": 1, "nodes": [0, 1e308, float("inf")]}}},
         [], "DOMAIN_INVALID"),
        (_inline_square([[0, 0], [1, 0], [1, 1], [0, float("nan")]], [[0, 1, 2], [0, 2, 3]]),
         [], "DOMAIN_INVALID"),
        (_inline_square([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], [[0, 1, 2], [0, 2, 3]]),
         [], "DOMAIN_INVALID"),
        (_inline_square([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3], [0, 1, 2]]),
         [], "DOMAIN_INVALID"),
        (_inline_square([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]],
                        [[0, 1, 2], [0, 4, 3], [4, 2, 3]]), [], "DOMAIN_INVALID"),
    ], ids=["negative-seed", "negative-seed-override", "convolution-on-square",
            "kernel-without-width", "interval-without-interior", "square-without-interior",
            "non-integer-starts", "nan-envelope-under-warn", "mesh-without-nodes",
            "infinite-node", "nan-vertex", "vertex-in-no-triangle", "repeated-triangle",
            "hanging-node"])
    def test_inputs_that_cannot_run_exit_1(self, tmp_path, capsys, patch, argv, code):
        # each once ended in a traceback from deep inside the solve, apart from
        # the hanging node, which was solved as a slit domain
        cfg = write_config(tmp_path, dict(MANUFACTURED_CLI, **patch))
        assert main(["solve", str(cfg), "--out-dir", str(tmp_path / "out"), *argv]) == 1
        assert capsys.readouterr().err.startswith(f"configuration error [{code}]: ")

    def test_seed_and_levels_overrides(self, tmp_path):
        cfg = write_config(tmp_path, MANUFACTURED_CLI)
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out),
                     "--levels", "3", "--seed", "99"]) == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert len(report["levels"]) == 3
        assert report["seed"] == 99

    @pytest.mark.parametrize("config", [MANUFACTURED_CLI, CONVOLUTION_CLI, SQUARE_CLI],
                             ids=["identity", "convolution", "square"])
    def test_byte_identical_reports_for_same_seed(self, tmp_path, config):
        cfg = write_config(tmp_path, config)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["solve", str(cfg), "--out-dir", str(out2)]) == 0
        assert (out1 / "solve_report.json").read_bytes() == \
            (out2 / "solve_report.json").read_bytes()
        assert (out1 / "solve_report.csv").read_bytes() == \
            (out2 / "solve_report.csv").read_bytes()

    def test_square_solve_runs_banded_levenberg_trials(self, tmp_path, monkeypatch):
        widths = []

        def counting_step(normal, lam):
            widths.append(normal.band.shape[0] - 1)
            return _levenberg_step(normal, lam)

        monkeypatch.setattr("competefem.solver._levenberg_step", counting_step)
        cfg = write_config(tmp_path, SQUARE_CLI)
        assert main(["solve", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        assert widths and max(widths) > 1

    def test_level_paths_in_report(self, tmp_path):
        out = tmp_path / "out"

        def solve(config, name):
            assert main(["solve", str(write_config(tmp_path, config, name)),
                         "--out-dir", str(out)]) == 0
            levels = json.loads((out / "solve_report.json").read_text())["levels"]
            # a level's path sums up all of its zero searches
            for lv in levels:
                stages = lv["continuation_stages"]
                assert lv["path"] == ("failed" if not lv["converged"]
                                      else "homotopy" if stages else "newton")
            return levels

        levels = solve(MANUFACTURED_CLI, "manufactured.json")
        assert [lv["path"] for lv in levels] == ["newton"] * 4
        # constant f stalls Newton on the 3-dof base level only
        constant = dict(MINIMAL, f={"kind": "constant", "c": 1.0}, levels=3,
                        sphere_samples=32)
        levels = solve(constant, "constant.json")
        assert [lv["path"] for lv in levels] == ["homotopy", "newton", "newton"]
        assert levels[0]["continuation_stages"] > 0
        assert "path" not in (out / "solve_report.csv").read_text().splitlines()[0]
        # a nonlocal T also takes one zero search per level; the report keeps
        # the outer_iters key of the frozen-T passes it no longer makes, at 0
        levels = solve(CONVOLUTION_CLI, "convolution.json")
        assert [lv["path"] for lv in levels] == ["newton"] * len(levels)
        assert all(lv["outer_iters"] == 0 for lv in levels)

    def test_sphere_quantiles_in_report(self, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", str(write_config(tmp_path, MANUFACTURED_CLI)),
                     "--out-dir", str(out)]) == 0
        for level in json.loads((out / "solve_report.json").read_text())["levels"]:
            assert level["sphere_margin"] <= level["sphere_q05"] <= level["sphere_median"]
        cfg = write_config(tmp_path, dict(MANUFACTURED_CLI, sphere_samples=0), "none.json")
        assert main(["solve", str(cfg), "--out-dir", str(out)]) == 0
        for level in json.loads((out / "solve_report.json").read_text())["levels"]:
            assert level["sphere_margin"] is None
            assert level["sphere_q05"] is None and level["sphere_median"] is None

    @pytest.mark.parametrize("outcome", sorted(CLI_OUTCOMES))
    def test_solve_outcomes(self, tmp_path, capsys, outcome):
        config, code, stdout, _ = CLI_OUTCOMES[outcome]
        out = tmp_path / "out"
        assert main(["solve", str(write_config(tmp_path, config)), "--out-dir", str(out)]) == code
        assert re.fullmatch(stdout, capsys.readouterr().out)
        assert sorted(p.name for p in out.iterdir()) == ["solve_report.csv", "solve_report.json"]
        report = json.loads((out / "solve_report.json").read_text())
        assert report["status"] == {0: "ok", 2: "hypothesis_failed", 3: "solver_failure"}[code]
        rows = (out / "solve_report.csv").read_text().splitlines()
        assert rows[0].startswith("level,") and len(rows) == 1 + len(report["levels"])
        assert (report["R"] is None) == (code == 2)

    @pytest.mark.parametrize("outcome", sorted(CLI_OUTCOMES))
    def test_study_outcomes(self, tmp_path, capsys, outcome):
        config, code, _, stdout = CLI_OUTCOMES[outcome]
        out = tmp_path / "out"
        assert main(["study", str(write_config(tmp_path, config)), "--out-dir", str(out)]) == code
        assert re.fullmatch(stdout, capsys.readouterr().out)
        assert [p.name for p in out.iterdir()] == ["study.csv"]
        rows = (out / "study.csv").read_text().splitlines()
        # a run the hypothesis stopped leaves an empty table
        assert len(rows) == {0: 3, 2: 0, 3: 2}[code]

    def test_overflowing_radius_ends_in_a_report(self, tmp_path, capsys):
        # kappa is about 0.9 < 1, so every check passes, and R is near 10^1000;
        # the run once ended in an uncaught OverflowError
        cfg = write_config(tmp_path, {"p": 2.001, "q": 2.0, "levels": 3, "sphere_samples": 20,
                                      "f": {"kind": "signed_power", "a1": 7.0, "alpha": 1.0}})
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out)]) == 2
        report = json.loads((out / "solve_report.json").read_text())
        assert report["status"] == "hypothesis_failed"
        assert all(r["pass"] for r in report["hypothesis"])
        assert report["R"] is None and report["c0"] > 0 and report["levels"] == []
        assert report["message"] == (f"the safeguard radius R overflows a float at kappa = "
                                     f"{report['kappa']:.6g} and c0 = {report['c0']:.6g} "
                                     f"(p = 2.001, q = 2.0)")
        assert capsys.readouterr().out == f"hypothesis failed: {report['message']}\n"

    def test_empty_sigma_params_take_the_default_weight(self, tmp_path):
        # an empty sigma_params once lost the constant weight's default c and
        # ended in a KeyError in both solve and check
        outputs = []
        for name, extra in (("missing", {}), ("empty", {"sigma_params": {}})):
            f = {"kind": "sigma_only", "sigma_kind": "constant", **extra}
            cfg = write_config(tmp_path, {"levels": 2, "f": f, "sphere_samples": 5}, f"{name}.json")
            out = tmp_path / name
            assert main(["solve", str(cfg), "--out-dir", str(out)]) == 0
            assert main(["check", str(cfg), "--out-dir", str(out)]) == 0
            outputs.append([json.loads((out / report).read_text())
                            for report in ("solve_report.json", "hypothesis_report.json")])
        for missing, empty in zip(*outputs):
            echo = empty.pop("config")
            # the echo differs only by the key the config sets
            assert echo["f"].pop("sigma_params") == {}
            assert missing.pop("config") == echo
            assert missing == empty

    @pytest.mark.parametrize("domain", [
        {"kind": "unit_square"},
        {"kind": "interval", "a": 0.0, "b": 2.0, "elements": 4},
        {"kind": "mesh", "mesh": {"dim": 1, "nodes": [0.0, 0.25, 0.5, 0.75, 1.5]}},
    ], ids=["unit-square", "interval-0-2", "mesh-0-1.5"])
    def test_study_refuses_domains_its_solution_does_not_solve(self, tmp_path, capsys, domain):
        # x(1 - x) is the Dirichlet solution on (0, 1) only
        cfg = write_config(tmp_path, dict(_SMALL, domain=domain))
        out = tmp_path / "out"
        assert main(["study", str(cfg), "--out-dir", str(out)]) == 1
        assert "exact on the interval (0.0, 1.0) only" in capsys.readouterr().err
        assert not out.exists()

    def test_study_accepts_a_mesh_of_the_unit_interval(self, tmp_path):
        mesh = {"dim": 1, "nodes": [0.0, 0.2, 0.45, 0.7, 1.0]}
        cfg = write_config(tmp_path, dict(_SMALL, domain={"kind": "mesh", "mesh": mesh}))
        assert main(["study", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
