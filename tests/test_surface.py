"""The public surface: one name per object, no test-only names, the README examples run,
every number a caller passes is read by the one number rule, and every object by the one
object rule."""

import ast
import importlib
import math
import operator
import os
import re
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import hopfcon
from hopfcon import (DimensionMismatchError, HopfconError, LocalHamiltonianSpec, LocalUnitary2,
                     Octonion, PackedState, PureState, Quaternion, apply_local, concurrence,
                     equivariance_error, evolve_closed_form, evolve_numeric,
                     generator_concurrence, ghz_state, load_state, make_state,
                     minor_concurrence, oct_concurrence, oct_mul, oct_pair_projections, octonify,
                     pack, pair_projections, pauli_propagator, project, quat_concurrence,
                     quat_mul, quat_pair_projections, quat_project, quaternify,
                     random_local_unitary, random_state, random_unitary, right_module_action,
                     save_state, schmidt_initial_state, schmidt_trajectory, verify_equivariance,
                     w_state)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SOURCES = sorted((ROOT / "src" / "hopfcon").glob("*.py"))


def test_every_exported_name_is_bound_to_its_own_object():
    names = {}
    for name in hopfcon.__all__:
        names.setdefault(id(getattr(hopfcon, name)), []).append(name)
    assert [group for group in names.values() if len(group) > 1] == []


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree: ast.Module) -> set[str]:
    """Every name the code of tree refers to; docstrings and comments are not code.

    A reference is a Name or an Attribute (f-string expressions included), an
    import alias, or a string constant other than a docstring that is a bare
    identifier (getattr, a span label).
    """
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, *DEFS)) and ast.get_docstring(node) is not None}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in docstrings):
            names.add(node.value)
    return names


def test_every_name_defined_in_src_is_used_outside_its_def_line():
    # a def, method, property or class that only tests or prose name is code nothing needs
    defined, used = set(), set(re.findall(r"\w+", README.read_text()))
    for path in [*SOURCES, *sorted((ROOT / "perfbench").glob("*.py"))]:
        tree = ast.parse(path.read_text())
        used |= _references(tree)
        if path in SOURCES:
            defined |= {node.name for node in ast.walk(tree)
                        if isinstance(node, DEFS) and not re.fullmatch(r"__\w+__", node.name)}
    assert sorted(defined - used) == []


# The defs that only perfbench/ and this file call: perfbench/tracing.py labels its spans by
# __name__, so they stay until the benchmark calls the general names.
BENCHMARK_ONLY = {"quaternify", "octonify", "quat_project", "quat_pair_projections",
                  "oct_pair_projections", "quat_concurrence", "oct_concurrence",
                  "verify_equivariance", "as_array", "hyper_norm_squared", "quat_mul", "oct_mul",
                  "evolve_numeric", "schmidt_initial_state", "complex_pair"}
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def test_src_calls_no_benchmark_only_def():
    # so deleting them touches only their defs, the __init__ block, this set and this file's
    # two tests of them; every other test calls the general names
    calls = {path.name: sorted(_references(ast.parse(path.read_text())) & BENCHMARK_ONLY)
             for path in [*SOURCES, *TESTS]
             if path.name not in ("__init__.py", Path(__file__).name)}
    assert {name: found for name, found in calls.items() if found} == {}


MODULES = {"hopfcon", *(f"hopfcon.{path.stem}" for path in SOURCES if path.stem != "__init__")}


def test_every_hopfcon_name_the_benchmark_reads_exists():
    # a deletion in src that would break perfbench/ fails here, not in a benchmark run
    read = set()  # (module, name) pairs
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}  # local name -> the hopfcon module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("hopfcon"):
                        # import a.b binds a to a, and import a.b as c binds c to a.b
                        module = alias.name if alias.asname else "hopfcon"
                        bound[alias.asname or module] = module
                        if "." in alias.name:
                            read.add(tuple(alias.name.rsplit(".", 1)))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hopfcon"):
                for alias in node.names:
                    read.add((node.module, alias.name))
                    if f"{node.module}.{alias.name}" in MODULES:
                        bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        read |= {(bound[node.value.id], node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in bound}
    missing = [f"{module}.{name}" for module, name in sorted(read)
               if f"{module}.{name}" not in MODULES
               and not hasattr(importlib.import_module(module), name)]
    assert len(read) >= 30 and missing == []


# Each module imports from the package only modules earlier in this order.
LAYERS = ["errors", "hypercomplex", "states", "projection", "oracles", "dynamics", "cli"]


@pytest.mark.parametrize("module", LAYERS)
def test_modules_import_only_lower_layers(module):
    tree = ast.parse((ROOT / "src" / "hopfcon" / f"{module}.py").read_text())
    imported = {alias.name if node.module is None else node.module.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    assert imported <= set(LAYERS[:LAYERS.index(module)])


def test_the_layers_are_every_module():
    assert {path.stem for path in SOURCES} - {"__init__", "__main__"} == set(LAYERS)


def test_every_error_class_is_raised_in_src_and_exported():
    # a class with no raiser of its own is a second name for a condition another class reports
    errors = ast.parse((ROOT / "src" / "hopfcon" / "errors.py").read_text())
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None))
    assert "HopfconError" in classes
    assert sorted(classes - {"HopfconError"} - raised) == []
    assert sorted(classes - set(hopfcon.__all__)) == []


@pytest.mark.parametrize("algebra", [Quaternion, Octonion])
@pytest.mark.parametrize("operation", [
    lambda x: x + x, lambda x: x - x, operator.neg, lambda x: 2 * x, lambda x: x * 2.0,
], ids=["add", "sub", "neg", "scalar-left", "scalar-right"])
def test_elements_only_multiply_elements_of_their_algebra(algebra, operation):
    with pytest.raises(TypeError):
        operation(algebra(1.0))


def test_readme_library_quickstart_runs():
    section = README.read_text().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README.name} (Library quickstart)", "exec"), {})


STATE = random_state(1, (2, 2))
PACKED = quaternify(STATE)
SPEC = LocalHamiltonianSpec(0.9, 0.4)
UNIT = LocalUnitary2(1, 0)
RNG = np.random.default_rng(0)

# every public entry point that takes a number from its caller, as (call, a real is required)
NUMBER_SLOTS = {
    "ghz_state": (ghz_state, True),
    "w_state": (w_state, True),
    "random_state-seed": (lambda v: random_state(v, (2, 2)), True),
    "random_state-dims": (lambda v: random_state(0, (2, v)), True),
    "PureState-dims": (lambda v: PureState((v,), [1, 0]), True),
    "PureState-amplitude": (lambda v: PureState((2,), [v, 0]), False),
    "make_state-amplitude": (lambda v: make_state((2,), [v, 0]), False),
    "LocalUnitary2-a": (lambda v: LocalUnitary2(v, 0), False),
    "LocalUnitary2-b": (lambda v: LocalUnitary2(1, v), False),
    "PackedState-row": (lambda v: PackedState([[v, 0, 0, 0]]), True),
    "apply_local-entry": (lambda v: apply_local(STATE, [[v, 0], [0, 1]], np.eye(2)), False),
    "apply_local-matrix": (lambda v: apply_local(STATE, np.eye(2), v), False),
    "spec-theta": (lambda v: LocalHamiltonianSpec(v, 0), True),
    "spec-phi": (lambda v: LocalHamiltonianSpec(0, v), True),
    "spec-r": (lambda v: LocalHamiltonianSpec(0, 0, v), True),
    "pauli_propagator-t": (lambda v: pauli_propagator(SPEC, v), True),
    "evolve_closed_form-lam": (lambda v: evolve_closed_form(v, SPEC, SPEC, 0.0), True),
    "evolve_closed_form-t": (lambda v: evolve_closed_form(0.5, SPEC, SPEC, v), True),
    "evolve_numeric-t": (lambda v: evolve_numeric(STATE, SPEC, SPEC, v), True),
    "schmidt_trajectory-lam": (lambda v: schmidt_trajectory(v, SPEC, [0.0]), True),
    "schmidt_trajectory-time": (lambda v: schmidt_trajectory(0.5, SPEC, [0.0, v]), True),
    "schmidt_initial_state-lam": (schmidt_initial_state, True),
    "concurrence-left_dim": (lambda v: concurrence(STATE, v), True),
    "minor_concurrence-left_dim": (lambda v: minor_concurrence(STATE, v), True),
    "pack-left_dim": (lambda v: pack(STATE, v), True),
    "right_module_action-coefficient": (lambda v: right_module_action(PACKED, v, UNIT), True),
    "right_module_action-fiber": (lambda v: right_module_action(PACKED, UNIT, v), True),
    "equivariance_error-coefficient": (lambda v: equivariance_error(STATE, v, UNIT), True),
    "equivariance_error-fiber": (lambda v: equivariance_error(STATE, UNIT, v), True),
    "random_unitary-n": (lambda v: random_unitary(v, RNG), True),
    "Quaternion-coefficient": (lambda v: Quaternion(v) * Quaternion(1), True),
    "Octonion-coefficient": (lambda v: Octonion(0, 0, 0, 0, 0, 0, 0, v), True),
}

# (value, kind): a non-number must be refused everywhere, a non-real wherever a real is required
JUNK = {
    "text": ("1", "non-number"), "bytes": (b"1", "non-number"), "None": (None, "non-number"),
    "True": (True, "non-number"), "np.True_": (np.True_, "non-number"),
    "timedelta64": (np.timedelta64(2, "s"), "non-number"), "object": (object(), "non-number"),
    "list": ([1.0], "non-number"), "Decimal": (Decimal("0.5"), "non-real"),
    "complex": (1j, "non-real"), "nan": (float("nan"), "number"), "inf": (float("inf"), "number"),
    "1e400-int": (10 ** 400, "number"), "5000-digit-int": (10 ** 5000, "number"),
}


@pytest.mark.parametrize("value, kind", JUNK.values(), ids=JUNK)
def test_every_number_slot_returns_or_raises_a_hopfcon_error(value, kind):
    # runs under -W error, so a warning on the way counts as the wrong exception too
    wrong = {}
    for slot, (call, real) in NUMBER_SLOTS.items():
        try:
            call(value)
        except HopfconError:
            continue
        except Exception as exc:  # anything but a HopfconError is a hole in the number rule
            wrong[slot] = type(exc).__name__
            continue
        if kind == "non-number" or (kind == "non-real" and real):
            wrong[slot] = "accepted"
    assert wrong == {}


PATH = (str, os.PathLike)  # what a state file's path may be

# every public entry point that takes an object from its caller, as (call, the type it takes);
# a wrapper's slot is refused by the function it calls
OBJECT_SLOTS = {
    "concurrence": (lambda v: concurrence(v, 2), PureState),
    "quat_concurrence": (quat_concurrence, PureState),
    "oct_concurrence": (oct_concurrence, PureState),
    "pack": (lambda v: pack(v, 2), PureState),
    "quaternify": (quaternify, PureState),
    "octonify": (octonify, PureState),
    "minor_concurrence": (lambda v: minor_concurrence(v, 2), PureState),
    "generator_concurrence": (generator_concurrence, PureState),
    "apply_local": (lambda v: apply_local(v, np.eye(2), np.eye(2)), PureState),
    "equivariance_error": (lambda v: equivariance_error(v, UNIT, UNIT), PureState),
    "verify_equivariance": (lambda v: verify_equivariance(v, UNIT, UNIT), PureState),
    "save_state": (lambda v: save_state(v, os.devnull), PureState),
    "save_state-path": (lambda v: save_state(STATE, v), PATH),
    "load_state": (load_state, PATH),
    "evolve_numeric-state": (lambda v: evolve_numeric(v, SPEC, SPEC, 1.0), PureState),
    "pair_projections": (pair_projections, PackedState),
    "quat_pair_projections": (quat_pair_projections, PackedState),
    "oct_pair_projections": (oct_pair_projections, PackedState),
    "right_module_action-packed": (lambda v: right_module_action(v, UNIT, UNIT), PackedState),
    "right_module_action-coefficient": (lambda v: right_module_action(PACKED, v, UNIT),
                                        LocalUnitary2),
    "right_module_action-fiber": (lambda v: right_module_action(PACKED, UNIT, v), LocalUnitary2),
    "pauli_propagator": (lambda v: pauli_propagator(v, 1.0), LocalHamiltonianSpec),
    "evolve_closed_form-spec1": (lambda v: evolve_closed_form(0.5, v, SPEC, 1.0),
                                 LocalHamiltonianSpec),
    "evolve_closed_form-spec2": (lambda v: evolve_closed_form(0.5, SPEC, v, 1.0),
                                 LocalHamiltonianSpec),
    "evolve_numeric-spec1": (lambda v: evolve_numeric(STATE, v, SPEC, 1.0), LocalHamiltonianSpec),
    "evolve_numeric-spec2": (lambda v: evolve_numeric(STATE, SPEC, v, 1.0), LocalHamiltonianSpec),
    "schmidt_trajectory": (lambda v: schmidt_trajectory(0.5, v, [0.0]), LocalHamiltonianSpec),
    "random_unitary": (lambda v: random_unitary(2, v), np.random.Generator),
    "random_local_unitary": (random_local_unitary, np.random.Generator),
}

# the package's wrong type for each slot's type; numpy's legacy RandomState draws by duck
# typing but is not a Generator, and os.fspath takes bytes but pathlib does not
WRONG_TYPE = {PureState: PACKED, PackedState: STATE, LocalUnitary2: SPEC,
              LocalHamiltonianSpec: UNIT, np.random.Generator: np.random.RandomState(0),
              PATH: b"x.json"}


@pytest.mark.parametrize("slot", OBJECT_SLOTS)
def test_every_object_slot_refuses_a_wrong_object_by_its_type(slot):
    # runs under -W error, so a warning on the way counts as the wrong exception too
    call, kind = OBJECT_SLOTS[slot]
    kinds = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
    wrong = {}
    for value in (None, [1.0, 0.0, 0.0, 0.0], np.array([1.0, 0.0, 0.0, 0.0]),
                  (1.0, 0.0, 0.0, 0.0), WRONG_TYPE[kind]):
        got = type(value).__name__
        try:
            call(value)
        except DimensionMismatchError as exc:  # a function and the type, never the value
            if not re.fullmatch(rf"\w+ takes a {kinds}, got {got}", str(exc)):
                wrong[got] = str(exc)
        except Exception as exc:  # an AttributeError from duck typing, say
            wrong[got] = type(exc).__name__
        else:
            wrong[got] = "accepted"
    assert wrong == {}


SPLIT = random_state(3, (2, 2, 2))  # both splits, 2xN and 4xN
QUATERNIONS = tuple(Quaternion(*row) for row in np.random.default_rng(4).standard_normal((2, 4)))
OCTONIONS = tuple(Octonion(*row) for row in np.random.default_rng(8).standard_normal((2, 8)))
OCT_PAIR = pair_projections(pack(SPLIT, 4))[0][2]
FIBER = LocalUnitary2(0.6, 0.8j)
SPEC2 = LocalHamiltonianSpec(2.1, 1.3, 0.8)
LAM = 0.3

# each benchmark-only def against the general form it stands for, as (hook, general)
HOOKS = {
    "quaternify": (lambda: quaternify(SPLIT), lambda: pack(SPLIT, 2)),
    "octonify": (lambda: octonify(SPLIT), lambda: pack(SPLIT, 4)),
    "quat_project": (lambda: quat_project(*QUATERNIONS), lambda: project(*QUATERNIONS)),
    "quat_pair_projections": (lambda: quat_pair_projections(pack(SPLIT, 2)),
                              lambda: pair_projections(pack(SPLIT, 2))),
    "oct_pair_projections": (lambda: oct_pair_projections(pack(SPLIT, 4)),
                             lambda: pair_projections(pack(SPLIT, 4))),
    "quat_concurrence": (lambda: quat_concurrence(SPLIT), lambda: concurrence(SPLIT, 2)),
    "oct_concurrence": (lambda: oct_concurrence(SPLIT), lambda: concurrence(SPLIT, 4)),
    "verify_equivariance": (lambda: verify_equivariance(STATE, UNIT, FIBER),
                            lambda: equivariance_error(STATE, UNIT, FIBER) <= 1e-10),
    "as_array": (lambda: PACKED.as_array(), lambda: PACKED.rows),
    "hyper_norm_squared": (lambda: OCT_PAIR.hyper_norm_squared,
                           lambda: abs(OCT_PAIR.s1) ** 2 + abs(OCT_PAIR.s2) ** 2
                           + abs(OCT_PAIR.s3) ** 2),
    "quat_mul": (lambda: quat_mul(*QUATERNIONS), lambda: operator.mul(*QUATERNIONS)),
    "oct_mul": (lambda: oct_mul(*OCTONIONS), lambda: operator.mul(*OCTONIONS)),
    "evolve_numeric": (lambda: evolve_numeric(STATE, SPEC, SPEC2, 0.7),
                       lambda: apply_local(STATE, pauli_propagator(SPEC, 0.7),
                                           pauli_propagator(SPEC2, 0.7))),
    "schmidt_initial_state": (lambda: schmidt_initial_state(LAM),
                              lambda: PureState((2, 2), [math.sqrt(LAM), 0, 0,
                                                         math.sqrt(1 - LAM)])),
    "complex_pair": (lambda: QUATERNIONS[0].complex_pair(),
                     lambda: (complex(QUATERNIONS[0].x0, QUATERNIONS[0].x1),
                              complex(QUATERNIONS[0].x2, QUATERNIONS[0].x3))),
}


def _bits(value):
    """A result as exact bits: arrays by their bytes, everything else by repr, which keeps -0.0."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, PackedState):
        return _bits(value.rows)
    if isinstance(value, PureState):
        return value.dims, _bits(value.amplitudes)
    return repr(value)


@pytest.mark.parametrize("hook", sorted(BENCHMARK_ONLY))
def test_each_benchmark_only_def_is_its_general_form_bit_for_bit(hook):
    # the defs keep tier-1 coverage here while no other test calls them
    hooked, general = HOOKS[hook]
    assert _bits(hooked()) == _bits(general())
