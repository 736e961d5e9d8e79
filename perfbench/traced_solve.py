"""Run ``compete`` with the public functions of each module timed from outside.

Usage: python3 perfbench/traced_solve.py TRACE_OUT.json solve CONFIG [CLI ARGS...]

Each traced function is replaced at every ``competefem`` module attribute
that refers to it, because callers look functions up in their own module
namespace (``solver.assemble_residual``, ``solver.apply_operator``, ...).
Then the unmodified ``competefem.cli.main`` runs.  Nothing in the package
changes; the wrappers only read arguments and return values.

Spans are aggregated in memory per name: total time, self time (total minus
the time of traced calls made inside it) and call count.  Kernels are also
keyed by level.  The aggregates and counters are written to TRACE_OUT.json
when the command returns.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import competefem
import competefem.cli
import competefem.config
import competefem.constants
import competefem.discretization
import competefem.intrinsic
import competefem.operators
import competefem.solver

MODULES = (
    competefem,
    competefem.cli,
    competefem.config,
    competefem.constants,
    competefem.discretization,
    competefem.intrinsic,
    competefem.operators,
    competefem.solver,
)


class Tracer:
    def __init__(self):
        self.total = {}
        self.self_time = {}
        self.calls = {}
        self.counters = {}
        self._child_time = []  # one accumulator per open span

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name, fn, level_of=None, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += dt
                keys = [name]
                if level_of is not None:
                    keys.append(f"{name}.L{level_of(*args, **kwargs)}")
                for key in keys:
                    self.total[key] = self.total.get(key, 0.0) + dt
                    self.self_time[key] = self.self_time.get(key, 0.0) + dt - children
                    self.calls[key] = self.calls.get(key, 0) + 1
            if on_return is not None:
                on_return(result)
            return result

        return wrapper


def _replace_everywhere(original, wrapper):
    """Rebind every module attribute that refers to ``original``."""
    found = False
    for mod in MODULES:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                found = True
    if not found:
        raise RuntimeError(f"{original.__qualname__} is not bound in any competefem module")


def _level_of_second(_first, u, *args, **kwargs):
    return u.level


def _level_of_first(u, *args, **kwargs):
    return u.level


def install(tracer: Tracer) -> None:
    def estimate_done(res):
        tracer.count("constants.estimates_converged", int(bool(res.converged)))

    def brouwer_done(res):
        tracer.count("solver.brouwer_homotopy", int(res.message == "homotopy"))
        tracer.count("solver.brouwer_failed", int(not res.converged))

    plan = [
        (competefem.config.build_instance, "config.build_instance", None, None),
        (competefem.constants.build_constants, "constants.build_constants", None, None),
        (competefem.constants.estimate_lambda1p, "constants.estimate_lambda1p", None, None),
        (competefem.constants.estimate_embedding_constant,
         "constants.estimate_embedding_constant", None, estimate_done),
        (competefem.solver.solve_level, "solver.solve_level", None, None),
        (competefem.solver.brouwer_zero, "solver.brouwer_zero", None, brouwer_done),
        (competefem.solver.sphere_certificate, "solver.sphere_certificate", None, None),
        (competefem.solver.convergence_diagnostics, "solver.convergence_diagnostics",
         None, None),
        (competefem.operators.assemble_residual, "operators.assemble_residual",
         _level_of_first, None),
        (competefem.operators.assemble_jacobian, "operators.assemble_jacobian",
         _level_of_first, None),
        (competefem.intrinsic.apply, "intrinsic.apply", _level_of_second, None),
        (competefem.discretization.grad_norm_p, "discretization.grad_norm_p", None, None),
        (competefem.config.canonical_json, "cli.canonical_json", None, None),
    ]
    for fn, name, level_of, on_return in plan:
        _replace_everywhere(fn, tracer.span(name, fn, level_of, on_return))
    report_cls = competefem.solver.SolveReport
    report_cls.to_json_dict = tracer.span("cli.to_json_dict", report_cls.to_json_dict)


def main(argv) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    t0 = time.perf_counter()
    rc = competefem.cli.main(cli_args)
    wall = time.perf_counter() - t0
    with open(trace_out, "w") as fh:
        json.dump(
            {
                "main_s": wall,
                "total_s": tracer.total,
                "self_s": tracer.self_time,
                "calls": tracer.calls,
                "counters": tracer.counters,
            },
            fh,
            sort_keys=True,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
