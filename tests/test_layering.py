"""Only the discretization layer touches the raw P1 tables of a level and the cells of its mesh.

Every other module evaluates P1 functions through the level operators
(``grad_op``, ``qp_op`` and their transposes), ``nodal_samples`` or
``point_operators``, and none scatters coefficients onto nodes.

The config module converts raw values only in its ``_as_*`` readers and
constructs runtime objects only in its three builders.

The solver and the assembly build no sparse diagonal or identity matrix:
a Newton iteration fills a fixed pattern instead, and the assembly does
not import ``scipy.sparse`` at all.  Neither binds a mutable container at
module level, so no state outlives the call that made it.

In the solver, only the level problem evaluates the Galerkin equation: it
alone assembles the residual and the Jacobian and applies T, and the lift
is looked up only where a level problem is built.

Every run ends in a report: ``run_hierarchy`` raises nothing itself, and
the command line takes the exit code of a run's status from its one table.

The library holds only what it runs: every public name a module defines,
class members included, is referenced by another module, used in its own,
or allowed by name with its reason.  A class member counts as read only
through an attribute (``x.name``), not through a keyword argument or a
bare name.  The package ``__init__`` only re-exports, so its imports count
as no reference.
"""

import ast
from pathlib import Path

import competefem

RAW = {"cells", "grad_basis", "basis_at_qp", "einsum",
       "free", "free_of_node", "_free_operator"}


def test_raw_tables_and_einsum_only_in_discretization():
    offenders = []
    for path in sorted(Path(competefem.__file__).parent.glob("*.py")):
        if path.name == "discretization.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = [node.name]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]  # getattr(mesh, "cells")
            else:
                continue
            offenders += [f"{path.name}:{getattr(node, 'lineno', '?')} {n}"
                          for n in names if n in RAW]
    assert offenders == []


CONVERSIONS = {"float", "int", "bool"}
BUILDERS = {"build_domain", "build_convection", "build_operator"}
BUILT_ONLY = {"Kernel", "GrowthEnvelope", "IntrinsicOperator", "SigmaWeight", "LiftFunction",
              "convection_from_catalog", "identity_operator", "boundary_lift_operator",
              "convolution_operator", "interval_mesh", "unit_square_mesh", "from_json_dict"}


def _calls(path):
    """(enclosing top-level definition or None, called name, line) for each call."""
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                yield owner, name, node.lineno


def test_config_converts_in_readers_and_constructs_in_builders():
    calls = list(_calls(Path(competefem.__file__).parent / "config.py"))
    offenders = [f"config.py:{line} {name} in {owner}" for owner, name, line in calls
                 if (name in CONVERSIONS and not (owner or "").startswith("_as_"))
                 or (name in BUILT_ONLY and owner not in BUILDERS)]
    assert offenders == []
    # the guard sees what it guards
    assert ("build_operator", "Kernel") in {(owner, name) for owner, name, _ in calls}
    assert ("_as_float", "float") in {(owner, name) for owner, name, _ in calls}


SPARSE_BUILDERS = {"diags", "identity"}


def _sparse_builder_calls(path):
    return [f"{path.name}:{line} {name}" for _, name, line in _calls(path)
            if name in SPARSE_BUILDERS]


def _imported_modules(path):
    """Every module an import statement of the file names."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.append(node.module)
    return found


def test_newton_iterations_build_no_sparse_diagonals():
    package = Path(competefem.__file__).parent
    offenders = [call for name in ("solver.py", "operators.py")
                 for call in _sparse_builder_calls(package / name)]
    assert offenders == []
    # the guard sees what it guards: the constants still build a diagonal
    assert _sparse_builder_calls(package / "constants.py")


def test_the_assembly_imports_no_sparse_matrices():
    package = Path(competefem.__file__).parent
    assert [m for m in _imported_modules(package / "operators.py")
            if m.startswith("scipy.sparse")] == []
    # the guard sees what it guards: the solver plans on a sparse pattern
    assert "scipy.sparse" in _imported_modules(package / "solver.py")


CONTAINERS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _module_containers(source, filename="<snippet>"):
    """Each module-level name bound to a list, dict or set literal, or a call to one of them."""
    found = []
    for node in ast.parse(source, filename=filename).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            targets = [node.target]
        else:
            continue
        value = node.value
        called = getattr(value.func, "id", None) if isinstance(value, ast.Call) else None
        if isinstance(value, CONTAINERS) or called in {"list", "dict", "set"}:
            found += [f"{filename}:{node.lineno} {ast.unparse(target)}" for target in targets]
    return found


def test_solver_and_assembly_keep_no_module_state():
    package = Path(competefem.__file__).parent
    offenders = [binding for name in ("solver.py", "operators.py")
                 for binding in _module_containers((package / name).read_text(), name)]
    assert offenders == []
    # the guard sees what it guards
    snippet = "_last_plan = [None]\nCACHE: dict = {}\nseen = set()\nN = 3\nNAMES = ('a',)\n"
    assert _module_containers(snippet) == [
        "<snippet>:1 _last_plan", "<snippet>:2 CACHE", "<snippet>:3 seen"]


# solver.py call -> the top-level definitions that may make it
EQUATION_CALLS = {
    "assemble_residual": {"LevelProblem"},
    "assemble_jacobian": {"LevelProblem"},
    "apply_operator": {"LevelProblem"},
    "lift_on": {"LevelProblem", "ProblemInstance"},
}


def test_solver_states_the_galerkin_equation_once():
    calls = list(_calls(Path(competefem.__file__).parent / "solver.py"))
    offenders = [f"solver.py:{line} {name} in {owner}" for owner, name, line in calls
                 if name in EQUATION_CALLS and owner not in EQUATION_CALLS[name]]
    assert offenders == []
    # the guard sees what it guards
    made = {(owner, name) for owner, name, _ in calls}
    assert {("LevelProblem", "assemble_residual"), ("LevelProblem", "assemble_jacobian"),
            ("LevelProblem", "apply_operator"), ("ProblemInstance", "lift_on")} <= made


def _returned_run_codes(source, filename="<snippet>"):
    """Each literal 2 or 3, the exit codes of run outcomes, in a return statement."""
    return [f"{filename}:{const.lineno} {const.value}"
            for node in ast.walk(ast.parse(source, filename=filename))
            if isinstance(node, ast.Return) and node.value is not None
            for const in ast.walk(node.value)
            if isinstance(const, ast.Constant) and type(const.value) is int
            and const.value in (2, 3)]


def _raises_in(source, name):
    """The lines of the raise statements in the top-level function ``name``."""
    fn = next(node for node in ast.parse(source).body
              if isinstance(node, ast.FunctionDef) and node.name == name)
    return [node.lineno for node in ast.walk(fn) if isinstance(node, ast.Raise)]


def test_every_run_ends_in_a_report_and_one_table_maps_its_exit_code():
    package = Path(competefem.__file__).parent
    assert _returned_run_codes((package / "cli.py").read_text(), "cli.py") == []
    solver = (package / "solver.py").read_text()
    assert _raises_in(solver, "run_hierarchy") == []
    # the guard sees what it guards
    snippet = "def f(ok):\n    return 0 if ok else 2\n\ndef g():\n    return 3\n"
    assert _returned_run_codes(snippet) == ["<snippet>:2 2", "<snippet>:5 3"]
    assert _raises_in(solver, "brouwer_zero")


# public names that no module of the package reads, each with its reason
UNREFERENCED_ALLOWED = {
    "constants.estimate_lambda1p": "bound by the benchmark's traced solve, "
                                   "which raises if it is missing",
    "discretization.lebesgue_norm": "reference L^r norm the tests measure against",
    "discretization.zero": "SpaceHierarchy.zero, the zero function the tests construct",
    "solver.history": "BrouwerResult.history, the residual history of a zero search "
                      "that the tests read; no report writes it yet",
}


def _public_definitions(tree):
    """(name, node, member) of each public top-level definition and class member."""
    found = []
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for item in [node, *members]:
            member = item is not node
            if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                found.append((item.name, item, member))
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                found += [(t.id, item, member) for t in targets if isinstance(t, ast.Name)]
    return [entry for entry in found if not entry[0].startswith("_")]


def _references(tree):
    """(name, node) of every name, attribute, imported name and keyword in a module."""
    for node in ast.walk(tree):
        name = (getattr(node, "id", None) or getattr(node, "attr", None)
                or (node.name if isinstance(node, ast.alias) else None)
                or (node.arg if isinstance(node, ast.keyword) else None))
        if name:
            yield name, node


def _unreferenced(sources):
    """``module.name`` of each public name that neither another module nor its own reads.

    A class member is read only through an attribute.
    """
    trees = {mod: ast.parse(text, filename=mod) for mod, text in sources.items()}
    unread = []
    for mod, tree in trees.items():
        if mod == "__init__":
            continue
        elsewhere = {(name, isinstance(node, ast.Attribute))
                     for other, t in trees.items() if other not in (mod, "__init__")
                     for name, node in _references(t)}
        for name, definition, member in _public_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            kinds = {True} if member else {True, False}
            if not any((name, kind) in elsewhere for kind in kinds) and not any(
                    n == name and isinstance(node, ast.Attribute) in kinds
                    and id(node) not in inside for n, node in _references(tree)):
                unread.append(f"{mod}.{name}")
    return unread


def test_the_library_holds_only_what_it_reads():
    package = Path(competefem.__file__).parent
    unread = _unreferenced({path.stem: path.read_text() for path in sorted(package.glob("*.py"))})
    # an entry that the package comes to read leaves the list
    assert sorted(unread) == sorted(UNREFERENCED_ALLOWED)
    # the guard sees what it guards
    # z is passed only by keyword and shadowed by a local variable
    snippet = {
        "a": "N = 1\nM = 2\nclass C:\n    x: int\n    y: int\n    z: int\n"
             "    def used(self):\n        return self.x\n"
             "    def unread(self):\n        return M\n",
        "b": "from a import C\nz = 1\nC(z=z).used()\n",
        "__init__": "from a import N, C\n",
    }
    assert sorted(_unreferenced(snippet)) == ["a.N", "a.unread", "a.y", "a.z"]
