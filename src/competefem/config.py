"""Problem configuration: validated JSON in, runtime objects out.

A :class:`ProblemSpec` is a plain, canonical description of one problem
instance.  Parsing fills every default, so ``parse_config_dict(spec.to_json_dict())``
round-trips exactly; all range checks happen here with distinct error codes
and messages that quote the violated range.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .constants import critical_surrogate
from .discretization import DomainMesh, MeshError, build_hierarchy, interval_mesh
from .intrinsic import IntrinsicOperator, Kernel, KernelError, LiftFunction
from .operators import (
    CONVECTION_KINDS,
    SIGMA_KINDS,
    ConvectionTerm,
    GrowthEnvelope,
    SigmaWeight,
    convection_from_catalog,
)
from .solver import ProblemInstance


class ConfigError(ValueError):
    """Invalid configuration; ``code`` identifies the class of defect."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


_POLICIES = ("refuse", "warn")


@dataclass(frozen=True)
class ProblemSpec:
    """Canonical problem description with every default made explicit."""

    domain: dict
    p: float
    q: float
    levels: int
    quad_order: int
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
        out = dataclasses.asdict(self)
        return out

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _require(cond: bool, code: str, message: str) -> None:
    if not cond:
        raise ConfigError(code, message)


def _as_float(obj, key, default=None, code="BAD_FIELD"):
    val = obj.get(key, default)
    _require(val is not None, code, f"missing required field {key!r}")
    try:
        return float(val)
    except (TypeError, ValueError):
        raise ConfigError(code, f"field {key!r} must be a number, got {val!r}") from None


def _domain_config(obj) -> dict:
    _require(isinstance(obj, dict), "DOMAIN_INVALID", "domain must be an object")
    kind = obj.get("kind", "interval")
    if kind == "interval":
        a = _as_float(obj, "a", 0.0)
        b = _as_float(obj, "b", 1.0)
        elements = int(obj.get("elements", 4))
        _require(b > a, "DOMAIN_INVALID", f"interval needs a < b, got ({a}, {b})")
        _require(elements >= 1, "DOMAIN_INVALID", "interval needs at least one element")
        return {"kind": "interval", "a": a, "b": b, "elements": elements}
    if kind == "unit_square":
        return {"kind": "unit_square"}
    if kind == "mesh":
        _require("mesh" in obj, "DOMAIN_INVALID", "domain kind 'mesh' needs a 'mesh' object")
        try:
            DomainMesh.from_json_dict(obj["mesh"])
        except MeshError as exc:
            raise ConfigError("DOMAIN_INVALID", str(exc)) from None
        return {"kind": "mesh", "mesh": obj["mesh"]}
    raise ConfigError(
        "UNKNOWN_CATALOG", f"unknown domain kind {kind!r}; choose interval, unit_square or mesh"
    )


def _sigma_config(obj) -> dict:
    kind = obj.get("kind", "zero")
    _require(
        kind in SIGMA_KINDS,
        "UNKNOWN_CATALOG",
        f"unknown sigma weight kind {kind!r}; catalog: {', '.join(SIGMA_KINDS)}",
    )
    params = {k: v for k, v in obj.items() if k != "kind"}
    if kind == "constant":
        params["c"] = abs(_as_float(obj, "c", 1.0))
    if kind == "nodal":
        _require(
            "x" in params and "values" in params,
            "BAD_FIELD",
            "nodal sigma needs 'x' and 'values' arrays",
        )
        params["x"] = [float(v) for v in params["x"]]
        params["values"] = [float(v) for v in params["values"]]
    return {"kind": kind, **params}


def _f_config(obj, p: float, p_crit: float) -> dict:
    _require(isinstance(obj, dict), "BAD_FIELD", "f must be an object")
    kind = obj.get("kind")
    _require(
        kind in CONVECTION_KINDS,
        "UNKNOWN_CATALOG",
        f"unknown convection kind {kind!r}; catalog: {', '.join(CONVECTION_KINDS)}",
    )
    params = {k: v for k, v in obj.items() if k not in ("kind", "envelope")}
    for key in ("a1", "a2", "alpha", "beta", "c", "r"):
        if key in params:
            params[key] = float(params[key])
    term = convection_from_catalog(kind, params)
    env = term.envelope
    env_obj = obj.get("envelope", {})
    _require(isinstance(env_obj, dict), "BAD_FIELD", "envelope must be an object")
    sigma_cfg = _sigma_config(env_obj.get("sigma", {"kind": env.sigma.kind, **env.sigma.params}))
    envelope = {
        "a1": _as_float(env_obj, "a1", env.a1),
        "a2": _as_float(env_obj, "a2", env.a2),
        "alpha": _as_float(env_obj, "alpha", env.alpha),
        "beta": _as_float(env_obj, "beta", env.beta),
        "r": _as_float(env_obj, "r", env.r),
        "sigma": sigma_cfg,
    }
    ge = GrowthEnvelope(
        a1=envelope["a1"], a2=envelope["a2"], alpha=envelope["alpha"],
        beta=envelope["beta"], r=envelope["r"],
        sigma=SigmaWeight(sigma_cfg["kind"], {k: v for k, v in sigma_cfg.items() if k != "kind"}),
    )
    try:
        ge.validate(p, p_crit)
    except ValueError as exc:
        raise ConfigError("H1_RANGE", str(exc)) from None
    return {"kind": kind, **params, "envelope": envelope}


def _t_config(obj, p: float, envelope: dict) -> dict:
    _require(isinstance(obj, dict), "BAD_FIELD", "T must be an object")
    kind = obj.get("kind", "identity")
    alpha, beta = envelope["alpha"], envelope["beta"]
    if kind == "identity":
        _require(
            alpha <= p - 1 and beta <= p - 1,
            "UNSUPPORTED_CERTIFICATE",
            f"identity operator certifies growth only for alpha, beta in (0, p-1] = (0, {p - 1}]; "
            f"got alpha={alpha}, beta={beta}",
        )
        return {"kind": "identity"}
    if kind == "boundary_lift":
        _require(
            alpha == p - 1 and beta == p - 1,
            "UNSUPPORTED_CERTIFICATE",
            f"boundary_lift certificate requires alpha = beta = p-1 = {p - 1}; "
            f"got alpha={alpha}, beta={beta}",
        )
        u0 = obj.get("u0", {"kind": "zero"})
        u0_kind = u0.get("kind", "zero")
        _require(
            u0_kind in ("zero", "affine"),
            "UNKNOWN_CATALOG",
            f"unknown lift kind {u0_kind!r}; choose zero or affine",
        )
        u0_out = {"kind": u0_kind}
        for key in ("a", "b", "ax", "ay"):
            if key in u0:
                u0_out[key] = float(u0[key])
        return {"kind": "boundary_lift", "u0": u0_out}
    if kind == "convolution":
        _require(
            alpha == p - 1 and beta == p - 1,
            "UNSUPPORTED_CERTIFICATE",
            f"convolution certificate requires alpha = beta = p-1 = {p - 1}; "
            f"got alpha={alpha}, beta={beta}",
        )
        kernel = obj.get("kernel")
        _require(isinstance(kernel, dict), "BAD_FIELD", "convolution operator needs a kernel")
        try:
            Kernel(shape=kernel.get("shape"), params={k: float(v) for k, v in kernel.items() if k != "shape"})
        except KeyError as exc:
            raise ConfigError("UNKNOWN_CATALOG", str(exc.args[0])) from None
        except KernelError as exc:
            raise ConfigError("BAD_FIELD", str(exc)) from None
        out = {
            "kind": "convolution",
            "kernel": {"shape": kernel["shape"],
                       **{k: float(v) for k, v in kernel.items() if k != "shape"}},
            "refine_factor": int(obj.get("refine_factor", 4)),
            "window_factor": float(obj.get("window_factor", 1.0)),
        }
        _require(out["refine_factor"] >= 1, "BAD_FIELD", "refine_factor must be >= 1")
        _require(out["window_factor"] > 0, "BAD_FIELD", "window_factor must be positive")
        return out
    raise ConfigError(
        "UNKNOWN_CATALOG",
        f"unknown intrinsic operator kind {kind!r}; choose identity, boundary_lift or convolution",
    )


_TOP_LEVEL_KEYS = {
    "domain", "p", "q", "levels", "quad_order", "f", "T", "policy", "tol",
    "eps_reg", "seed", "p_crit", "safety", "sphere_samples", "estimator",
    "initial_guess", "test_set_size",
}


def parse_config_dict(obj: dict) -> ProblemSpec:
    """Validate a raw configuration object and fill every default."""
    _require(isinstance(obj, dict), "MALFORMED_JSON", "configuration must be a JSON object")
    unknown = set(obj) - _TOP_LEVEL_KEYS
    _require(not unknown, "BAD_FIELD", f"unknown configuration keys: {sorted(unknown)}")

    p = _as_float(obj, "p", 3.0)
    q = _as_float(obj, "q", 2.0)
    _require(
        1.0 < q < p,
        "EXPONENT_ORDER",
        f"exponents must satisfy 1 < q < p, got q={q}, p={p}",
    )
    domain = _domain_config(obj.get("domain", {"kind": "interval"}))
    n_dim = 2 if domain["kind"] in ("unit_square",) or (
        domain["kind"] == "mesh" and domain["mesh"].get("dim") == 2
    ) else 1

    p_crit_override = obj.get("p_crit")
    try:
        p_crit = critical_surrogate(p, n_dim, None if p_crit_override is None else float(p_crit_override))
    except ValueError as exc:
        raise ConfigError("BAD_FIELD", str(exc)) from None

    levels = int(obj.get("levels", 5))
    _require(levels >= 1, "BAD_FIELD", f"levels must be >= 1, got {levels}")
    quad_order = int(obj.get("quad_order", 4))
    _require(quad_order >= 1, "BAD_FIELD", f"quad_order must be >= 1, got {quad_order}")

    f_cfg = _f_config(obj.get("f", {"kind": "zero"}), p, p_crit)
    t_cfg = _t_config(obj.get("T", {"kind": "identity"}), p, f_cfg["envelope"])

    policy = obj.get("policy", "refuse")
    _require(policy in _POLICIES, "BAD_FIELD", f"policy must be one of {_POLICIES}, got {policy!r}")

    tol_default = 1e-10 if n_dim == 1 else 1e-8
    tol = float(obj["tol"]) if obj.get("tol") is not None else tol_default
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

    sphere_samples = int(obj.get("sphere_samples", 1000))
    _require(sphere_samples >= 0, "BAD_FIELD", "sphere_samples must be >= 0")

    est = obj.get("estimator", {})
    _require(isinstance(est, dict), "BAD_FIELD", "estimator must be an object")
    estimator = {
        "starts": int(est.get("starts", 8)),
        "iters": int(est.get("iters", 300)),
    }
    _require(estimator["starts"] >= 1, "BAD_FIELD", "estimator starts must be >= 1")
    _require(estimator["iters"] >= 1, "BAD_FIELD", "estimator iters must be >= 1")

    initial_guess = obj.get("initial_guess")
    _require(
        initial_guess in (None, "exact", "zero"),
        "UNKNOWN_CATALOG",
        f"initial_guess must be null, 'exact' or 'zero', got {initial_guess!r}",
    )
    if initial_guess == "exact":
        term = convection_from_catalog(
            f_cfg["kind"], {k: v for k, v in f_cfg.items() if k not in ("kind", "envelope")}
        )
        _require(
            term.guess_profile is not None,
            "BAD_FIELD",
            f"initial_guess 'exact' needs a right-hand side with a reference profile, "
            f"got {f_cfg['kind']!r}",
        )

    test_set_size = int(obj.get("test_set_size", 8))
    _require(test_set_size >= 1, "BAD_FIELD", "test_set_size must be >= 1")

    return ProblemSpec(
        domain=domain, p=p, q=q, levels=levels, quad_order=quad_order,
        f=f_cfg, T=t_cfg, policy=policy, tol=tol, eps_reg=eps_reg,
        seed=int(obj.get("seed", 0)), p_crit=p_crit, safety=safety,
        sphere_samples=sphere_samples, estimator=estimator,
        initial_guess=initial_guess, test_set_size=test_set_size,
    )


def parse_config(path) -> ProblemSpec:
    """Load and validate a configuration file."""
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("MALFORMED_JSON", f"configuration is not valid JSON: {exc}") from None
    return parse_config_dict(obj)


def emit_config(spec: ProblemSpec) -> str:
    return spec.to_json()


# ---------------------------------------------------------------------------
# runtime assembly
# ---------------------------------------------------------------------------


def build_domain(spec: ProblemSpec) -> DomainMesh:
    dom = spec.domain
    if dom["kind"] == "interval":
        return interval_mesh(dom["a"], dom["b"], dom["elements"])
    if dom["kind"] == "unit_square":
        from .discretization import unit_square_mesh

        return unit_square_mesh()
    return DomainMesh.from_json_dict(dom["mesh"])


def build_convection(spec: ProblemSpec) -> ConvectionTerm:
    f_cfg = spec.f
    params = {k: v for k, v in f_cfg.items() if k not in ("kind", "envelope")}
    term = convection_from_catalog(f_cfg["kind"], params)
    env_cfg = f_cfg["envelope"]
    sigma = SigmaWeight(
        env_cfg["sigma"]["kind"],
        {k: v for k, v in env_cfg["sigma"].items() if k != "kind"},
    )
    envelope = GrowthEnvelope(
        a1=env_cfg["a1"], a2=env_cfg["a2"], alpha=env_cfg["alpha"],
        beta=env_cfg["beta"], r=env_cfg["r"], sigma=sigma,
    )
    if envelope != term.envelope:
        term = dataclasses.replace(term, envelope=envelope, envelope_is_exact=False)
    return term


def build_operator(spec: ProblemSpec) -> IntrinsicOperator:
    t_cfg = spec.T
    if t_cfg["kind"] == "identity":
        return IntrinsicOperator(kind="identity")
    if t_cfg["kind"] == "boundary_lift":
        u0 = t_cfg["u0"]
        lift = LiftFunction(u0["kind"], {k: v for k, v in u0.items() if k != "kind"})
        return IntrinsicOperator(kind="boundary_lift", lift=lift)
    kernel_cfg = t_cfg["kernel"]
    kernel = Kernel(
        shape=kernel_cfg["shape"],
        params={k: v for k, v in kernel_cfg.items() if k != "shape"},
    )
    return IntrinsicOperator(
        kind="convolution", kernel=kernel,
        refine_factor=t_cfg["refine_factor"], window_factor=t_cfg["window_factor"],
    )


def build_instance(spec: ProblemSpec) -> ProblemInstance:
    """Resolve a validated spec into meshes, catalog objects, and solver knobs."""
    domain = build_domain(spec)
    hierarchy = build_hierarchy(domain, spec.levels, spec.quad_order)
    term = build_convection(spec)
    operator = build_operator(spec)

    guess = term.guess_profile if spec.initial_guess == "exact" else None

    return ProblemInstance(
        hierarchy=hierarchy,
        p=spec.p,
        q=spec.q,
        convection=term,
        operator=operator,
        p_crit=spec.p_crit,
        tol=spec.tol,
        eps_reg=spec.eps_reg,
        seed=spec.seed,
        policy=spec.policy,
        safety=spec.safety,
        sphere_samples=spec.sphere_samples,
        estimator_starts=spec.estimator["starts"],
        estimator_iters=spec.estimator["iters"],
        initial_guess=guess,
    )
