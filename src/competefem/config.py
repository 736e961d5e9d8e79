"""Problem configuration: validated JSON in, runtime objects out.

A :class:`ProblemSpec` is a plain, canonical description of one problem
instance.  Parsing fills every default, so ``parse_config_dict(spec.to_json_dict())``
round-trips exactly; range checks carry distinct error codes and messages
that quote the violated range.

Every raw value is read by one typed ``_as_*`` reader, and every nested
object refuses keys that its kind does not take.  Each runtime object has one
builder: :func:`build_domain`, :func:`build_convection` and
:func:`build_operator` turn a canonical section into a ``DomainMesh``, a
``ConvectionTerm`` or an ``IntrinsicOperator``.  Parsing validates a
section by building it, and :func:`build_instance` calls the same builders.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .constants import critical_surrogate
from .discretization import (DomainMesh, MeshError, build_hierarchy, interval_mesh,
                             unit_square_mesh)
from .intrinsic import (KERNEL_PARAMS, LIFT_PARAMS, BoundaryLift, Convolution, Identity,
                        IntrinsicOperator, KernelError, certificate_rule, inert_exponent)
from .operators import (CONVECTION_PARAMS, SIGMA_PARAMS, ConvectionTerm, GrowthEnvelope,
                        SigmaWeight, convection_from_catalog)
from .solver import ProblemInstance


class ConfigError(ValueError):
    """Invalid configuration; ``code`` identifies the class of defect."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class ProblemSpec:
    """Canonical problem description with every default made explicit."""

    domain: dict
    p: float
    q: float
    levels: int
    f: dict
    T: dict
    policy: str
    tol: float
    eps_reg: float
    seed: int
    p_crit: float
    safety: float
    sphere_samples: int
    estimator: dict
    initial_guess: str | None
    test_set_size: int

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def canonical_json(obj) -> str:
    """The text of a report: sorted keys, and ``ValueError`` on NaN or inf, which JSON lacks."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# typed readers of raw values
# ---------------------------------------------------------------------------


def _require(cond: bool, code: str, message: str) -> None:
    if not cond:
        raise ConfigError(code, message)


def _as_float(obj, key, default=None) -> float:
    """A finite JSON number; booleans, numeric strings, NaN and Infinity are refused."""
    val = obj.get(key, default)
    _require(val is not None, "BAD_FIELD", f"missing required field {key!r}")
    _require(isinstance(val, (int, float)) and not isinstance(val, bool)
             and abs(val) <= sys.float_info.max,
             "BAD_FIELD", f"field {key!r} must be a finite number, got {val!r}")
    return float(val)


def _as_floats(obj, key) -> list:
    """A nonempty array of finite numbers."""
    vals = obj.get(key)
    _require(isinstance(vals, list) and len(vals) > 0, "BAD_FIELD",
             f"field {key!r} must be a nonempty array of numbers, got {vals!r}")
    return [_as_float({key: v}, key) for v in vals]


def _as_int(obj, key, default):
    val = obj.get(key, default)
    if isinstance(val, float) and val.is_integer():
        return int(val)
    _require(isinstance(val, int) and not isinstance(val, bool), "BAD_FIELD",
             f"field {key!r} must be an integer, got {val!r}")
    return val


def _as_bool(obj, key) -> bool:
    val = obj.get(key)
    _require(isinstance(val, bool), "BAD_FIELD", f"field {key!r} must be true or false, got {val!r}")
    return val


def _as_object(obj, key, default=None, code="BAD_FIELD") -> dict:
    val = obj.get(key, default)
    _require(isinstance(val, dict), code, f"field {key!r} must be an object, got {val!r}")
    return val


def _as_choice(obj, key, choices, default=None, name=None, code="UNKNOWN_CATALOG"):
    """One of ``choices`` (a JSON string or null)."""
    val = obj.get(key, default)
    _require((val is None or isinstance(val, str)) and val in choices, code,
             f"unknown {name or key} {val!r}; choose {', '.join(map(json.dumps, choices))}")
    return val


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    _require(not unknown, "BAD_FIELD", f"unknown keys in {where}: {sorted(unknown)}")


def _entry(obj, key, catalog, default_kind, kind_key="kind", extra=(), code="BAD_FIELD"):
    """The object at ``key`` and its kind, drawn from ``catalog`` (kind -> parameter names).

    Keys other than the kind, its parameters and ``extra`` are refused.
    """
    section = _as_object(obj, key, {}, code)
    kind = _as_choice(section, kind_key, catalog, default_kind, f"{key} {kind_key}")
    _check_keys(section, (kind_key, *catalog[kind], *extra), key)
    return kind, section


# the f parameters that are not numbers
_NON_NUMBERS = {
    "signed": _as_bool,
    "sigma_kind": lambda obj, key: _as_choice(obj, key, SIGMA_PARAMS),
    "sigma_params": _as_object,
}


def _params(section: dict, names) -> dict:
    """The parameters among ``names`` that ``section`` sets, each by its reader."""
    return {k: _NON_NUMBERS.get(k, _as_float)(section, k) for k in names if k in section}


def _without(obj: dict, *keys) -> dict:
    return {k: v for k, v in obj.items() if k not in keys}


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

_DOMAIN_PARAMS = {"interval": ("a", "b", "elements"), "unit_square": (), "mesh": ("mesh",)}
_T_PARAMS = {"identity": (), "boundary_lift": ("u0",), "convolution": ("kernel", "refine_factor")}
_ENVELOPE_NUMBERS = ("a1", "a2", "alpha", "beta", "r")


def _domain_config(obj) -> tuple[dict, DomainMesh]:
    """The canonical domain and its mesh."""
    kind, section = _entry(obj, "domain", _DOMAIN_PARAMS, "interval", code="DOMAIN_INVALID")
    domain = {"kind": kind}
    if kind == "interval":
        domain.update(a=_as_float(section, "a", 0.0), b=_as_float(section, "b", 1.0),
                      elements=_as_int(section, "elements", 4))
    if kind == "mesh":
        domain["mesh"] = _as_object(section, "mesh", code="DOMAIN_INVALID")
    try:
        return domain, build_domain(domain)
    except MeshError as exc:
        raise ConfigError("DOMAIN_INVALID", str(exc)) from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("DOMAIN_INVALID", f"unreadable inline mesh: {exc!r}") from None


def _sigma_config(envelope: dict) -> dict:
    kind, section = _entry(envelope, "sigma", SIGMA_PARAMS, "zero")
    sigma = {"kind": kind}
    if kind == "constant":
        sigma["c"] = abs(_as_float(section, "c", 1.0))
    if kind == "nodal":
        sigma["x"], sigma["values"] = _as_floats(section, "x"), _as_floats(section, "values")
    return sigma


def _refuse_false_envelope(own: GrowthEnvelope, env: GrowthEnvelope, mesh: DomainMesh) -> None:
    """Refuse an envelope that does not dominate the kind's own, so may not bound f.

    Each positive own coefficient needs the same exponent and a coefficient
    no smaller, and sigma must be no smaller anywhere in the domain's range
    of the first coordinate.  Both weights are piecewise linear in it, so
    comparing them at the range's ends and at every kink inside is exact.
    """
    for coeff, exponent in (("a1", "alpha"), ("a2", "beta")):
        floor, power = getattr(own, coeff), getattr(own, exponent)
        _require(floor == 0 or (getattr(env, exponent) == power and getattr(env, coeff) >= floor),
                 "H1_RANGE", f"the envelope must keep f's own {exponent} = {power} and "
                 f"{coeff} >= {floor}, got {exponent} = {getattr(env, exponent)}, "
                 f"{coeff} = {getattr(env, coeff)}")
    first = mesh.vertices[:, 0]
    lo, hi = min(first), max(first)
    points = [lo, hi, *(t for t in own.sigma.kinks + env.sigma.kinks if lo < t < hi)]
    for t in points:
        _require(env.sigma(t) >= own.sigma(t), "H1_RANGE", f"the envelope's sigma falls "
                 f"below f's own weight {own.sigma.kind!r} at first coordinate {t:g}")


def _f_config(obj, p: float, p_crit: float, t_kind: str,
              mesh: DomainMesh) -> tuple[dict, ConvectionTerm]:
    """The canonical f section and the term it builds.

    An exponent whose coefficient is zero is inert.  Unless f or its
    envelope sets it, it takes the value that the certificate of T accepts.
    An envelope override must dominate the kind's own envelope.
    """
    kind, section = _entry(obj, "f", CONVECTION_PARAMS, "zero", extra=("envelope",))
    params = _params(section, CONVECTION_PARAMS[kind])
    if kind == "sigma_only":  # the weight is read before the catalog takes its magnitude
        _sigma_config({"sigma": {"kind": params.get("sigma_kind", "constant"),
                                 **params.get("sigma_params", {})}})
    env_obj = _as_object(section, "envelope", {})
    _check_keys(env_obj, (*_ENVELOPE_NUMBERS, "sigma"), "envelope")
    env_params = _params(env_obj, _ENVELOPE_NUMBERS)
    if "sigma" in env_obj:
        env_params["sigma"] = _sigma_config(env_obj)
    try:  # a nodal weight checks its own nodes
        own = build_convection({"kind": kind, **params}).envelope
        inert = {exponent: inert_exponent(t_kind, p)
                 for coeff, exponent in (("a1", "alpha"), ("a2", "beta"))
                 if env_params.get(coeff, getattr(own, coeff)) == 0
                 and exponent not in {**params, **env_params}}
        term = build_convection({"kind": kind, **params, "envelope": {**env_params, **inert}})
    except ValueError as exc:
        raise ConfigError("BAD_FIELD", str(exc)) from None
    env = term.envelope
    envelope = {k: getattr(env, k) for k in _ENVELOPE_NUMBERS}
    # the catalog's weight, which is also sigma_only's own, is read even when overridden
    envelope["sigma"] = env_params.get(
        "sigma", _sigma_config({"sigma": {"kind": own.sigma.kind, **own.sigma.params}}))
    try:
        env.validate(p, p_crit)
    except ValueError as exc:
        raise ConfigError("H1_RANGE", str(exc)) from None
    _refuse_false_envelope(own, env, mesh)
    return {"kind": kind, **params, "envelope": envelope}, term


def _t_config(kind: str, section: dict, p: float, envelope: dict, n_dim: int) -> dict:
    violated = certificate_rule(kind, p, envelope["alpha"], envelope["beta"])
    _require(violated is None, "UNSUPPORTED_CERTIFICATE", violated)
    T = {"kind": kind}
    if kind == "boundary_lift":
        # a parameter that u0 does not read in this dimension is refused
        lift_params = LIFT_PARAMS[n_dim]
        u0_kind, u0 = _entry(section, "u0", lift_params, "zero")
        T["u0"] = {"kind": u0_kind, **_params(u0, lift_params[u0_kind])}
    if kind == "convolution":
        _require("kernel" in section, "BAD_FIELD", "convolution operator needs a kernel")
        shape, kernel = _entry(section, "kernel", KERNEL_PARAMS, None, kind_key="shape")
        T["kernel"] = {"shape": shape, **_params(kernel, KERNEL_PARAMS[shape])}
        T["refine_factor"] = _as_int(section, "refine_factor", Convolution.refine_factor)
        # Convolution checks every range, but a missing width is a missing argument
        _require("width" in kernel, "BAD_FIELD", f"{shape} kernel needs a positive width")
    try:
        build_operator(T)
    except KernelError as exc:
        raise ConfigError("BAD_FIELD", str(exc)) from None
    return T


def parse_config_dict(obj: dict) -> ProblemSpec:
    """Validate a raw configuration object and fill every default."""
    _require(isinstance(obj, dict), "MALFORMED_JSON", "configuration must be a JSON object")
    _check_keys(obj, [f.name for f in dataclasses.fields(ProblemSpec)], "configuration")

    p = _as_float(obj, "p", 3.0)
    q = _as_float(obj, "q", 2.0)
    _require(
        1.0 < q < p,
        "EXPONENT_ORDER",
        f"exponents must satisfy 1 < q < p, got q={q}, p={p}",
    )
    domain, mesh = _domain_config(obj)
    n_dim = mesh.dim

    p_crit_override = None if obj.get("p_crit") is None else _as_float(obj, "p_crit")
    try:
        p_crit = critical_surrogate(p, n_dim, p_crit_override)
    except ValueError as exc:
        raise ConfigError("BAD_FIELD", str(exc)) from None

    levels = _as_int(obj, "levels", 5)
    _require(levels >= 1, "BAD_FIELD", f"levels must be >= 1, got {levels}")

    t_kind, t_section = _entry(obj, "T", _T_PARAMS, "identity")
    f_cfg, term = _f_config(obj, p, p_crit, t_kind, mesh)
    t_cfg = _t_config(t_kind, t_section, p, f_cfg["envelope"], n_dim)
    _require(t_cfg["kind"] != "convolution" or n_dim == 1, "UNSUPPORTED_DOMAIN",
             "convolution operators are implemented for 1D domains")

    policy = _as_choice(obj, "policy", ("refuse", "warn"), "refuse", code="BAD_FIELD")

    tol_default = 1e-10 if n_dim == 1 else 1e-8
    tol = _as_float(obj, "tol") if obj.get("tol") is not None else tol_default
    _require(tol > 0, "BAD_FIELD", f"tol must be positive, got {tol}")

    eps_reg = _as_float(obj, "eps_reg", 0.0)
    _require(eps_reg >= 0, "BAD_FIELD", f"eps_reg must be >= 0, got {eps_reg}")
    _require(
        eps_reg > 0 or (p >= 2 and q >= 2),
        "BAD_FIELD",
        f"exponents below two (p={p}, q={q}) need a positive eps_reg for the Jacobian",
    )

    safety = _as_float(obj, "safety", 1.1)
    _require(safety >= 1.0, "BAD_FIELD", f"safety factor must be >= 1, got {safety}")

    sphere_samples = _as_int(obj, "sphere_samples", 1000)
    _require(sphere_samples >= 0, "BAD_FIELD", "sphere_samples must be >= 0")

    est = _as_object(obj, "estimator", {})
    _check_keys(est, ("starts", "iters"), "estimator")
    estimator = {
        "starts": _as_int(est, "starts", 8),
        "iters": _as_int(est, "iters", 300),
    }
    _require(estimator["starts"] >= 1, "BAD_FIELD", "estimator starts must be >= 1")
    _require(estimator["iters"] >= 1, "BAD_FIELD", "estimator iters must be >= 1")

    initial_guess = _as_choice(obj, "initial_guess", (None, "exact"))
    _require(
        initial_guess is None or term.guess_profile is not None,
        "BAD_FIELD",
        f"initial_guess 'exact' needs a right-hand side with a reference profile, "
        f"got {f_cfg['kind']!r}",
    )

    test_set_size = _as_int(obj, "test_set_size", 8)
    _require(test_set_size >= 1, "BAD_FIELD", "test_set_size must be >= 1")
    seed = _as_int(obj, "seed", 0)
    _require(seed >= 0, "BAD_FIELD", f"seed must be >= 0, got {seed}")

    return ProblemSpec(
        domain=domain, p=p, q=q, levels=levels,
        f=f_cfg, T=t_cfg, policy=policy, tol=tol, eps_reg=eps_reg,
        seed=seed, p_crit=p_crit, safety=safety,
        sphere_samples=sphere_samples, estimator=estimator,
        initial_guess=initial_guess, test_set_size=test_set_size,
    )


def parse_config(path) -> ProblemSpec:
    """Load and validate a configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise ConfigError("NOT_FOUND", str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ConfigError("MALFORMED_JSON", f"configuration is not UTF-8 text: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("MALFORMED_JSON", f"configuration is not valid JSON: {exc}") from None
    return parse_config_dict(obj)


# ---------------------------------------------------------------------------
# runtime assembly: the one builder of each object
# ---------------------------------------------------------------------------


def build_domain(domain: dict) -> DomainMesh:
    if domain["kind"] == "interval":
        return interval_mesh(domain["a"], domain["b"], domain["elements"])
    if domain["kind"] == "unit_square":
        return unit_square_mesh()
    return DomainMesh.from_json_dict(domain["mesh"])


def build_convection(f: dict) -> ConvectionTerm:
    """The catalog term of ``f``, its envelope fields overridden by those ``f["envelope"]`` sets."""
    term = convection_from_catalog(f["kind"], _without(f, "kind", "envelope"))
    env = dict(f.get("envelope", {}))
    if "sigma" in env:
        env["sigma"] = SigmaWeight(env["sigma"]["kind"], _without(env["sigma"], "kind"))
    return dataclasses.replace(term, envelope=dataclasses.replace(term.envelope, **env))


def build_operator(T: dict) -> IntrinsicOperator:
    if T["kind"] == "identity":
        return Identity()
    if T["kind"] == "boundary_lift":
        return BoundaryLift(**_without(T["u0"], "kind"))
    return Convolution(**T["kernel"], refine_factor=T["refine_factor"])


def build_instance(spec: ProblemSpec) -> ProblemInstance:
    """Resolve a validated spec into meshes, catalog objects, and solver knobs."""
    hierarchy = build_hierarchy(build_domain(spec.domain), spec.levels)
    term = build_convection(spec.f)
    return ProblemInstance(
        hierarchy=hierarchy,
        p=spec.p,
        q=spec.q,
        convection=term,
        operator=build_operator(spec.T),
        p_crit=spec.p_crit,
        tol=spec.tol,
        eps_reg=spec.eps_reg,
        seed=spec.seed,
        policy=spec.policy,
        safety=spec.safety,
        sphere_samples=spec.sphere_samples,
        estimator_starts=spec.estimator["starts"],
        estimator_iters=spec.estimator["iters"],
        initial_guess=term.guess_profile if spec.initial_guess == "exact" else None,
        test_set_size=spec.test_set_size,
    )
