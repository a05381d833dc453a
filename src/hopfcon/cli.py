"""Command-line front end.

Subcommands: ``concurrence`` (run one or all concurrence methods on a
state), ``project`` (dump the pairwise projection parts as JSON),
``evolve`` (emit a Schmidt-trajectory CSV), ``verify`` (run the randomized
cross-check suites).

Exit codes: 0 on success, 1 on usage or parse errors, 2 when a numerical
cross-check exceeds its tolerance.  All fixed-point output uses six
decimals so identical inputs produce byte-identical reports; JSON output
keeps full precision.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import fields

import click
import numpy as np

from .dynamics import LocalHamiltonianSpec, schmidt_trajectory
from .errors import HopfconError, SizeLimitError
from .hypercomplex import ALGEBRAS
from .oracles import generator_concurrence, minor_concurrence
from .projection import _pair_parts, concurrence, equivariance_error, pack
from .states import (apply_local, check_factors, ghz_state, load_state,
                     random_local_unitary, random_state, random_unitary, w_state)

SPLIT_LEFT_DIM = {"2xN": 2, "4xN": 4}
DISCREPANCY_LIMIT = 1e-8

# route(state, left_dim) per method; each lambda looks its function up in this
# module when called, so a test can substitute one.
ROUTES = {
    "hopf": lambda state, left_dim: concurrence(state, left_dim),
    "minors": lambda state, left_dim: minor_concurrence(state, left_dim),
    "generators": lambda state, left_dim: generator_concurrence(state),
}


def _routes(left_dim: int) -> list[str]:
    """The methods that apply to a [left_dim, N] split: the generator oracle is 2xN only."""
    return [name for name in ROUTES if name != "generators" or left_dim == 2]


def _fixed(value: float) -> str:
    # value + 0.0 normalizes -0.0 so formatting is sign-stable
    return f"{value + 0.0:.6f}"


def _state_from_options(state_file, ghz, w, random_seed, qubits):
    sources = sum(x is not None for x in (state_file, ghz, w, random_seed))
    if sources != 1:
        raise click.UsageError("provide exactly one of --state, --ghz, --w, --random")
    if state_file is not None:
        try:
            return load_state(state_file)
        except (OSError, ValueError, HopfconError) as exc:
            raise click.UsageError(f"cannot load state file: {exc}")
    if ghz is not None:
        return ghz_state(ghz)
    if w is not None:
        return w_state(w)
    check_factors(qubits, "the random state")  # before (2,) * qubits is built
    return random_state(random_seed, (2,) * qubits)


def _state_options(command):
    decorators = [
        click.option("--state", "state_file", type=click.Path(), default=None,
                     help="JSON state file with dims and [re, im] amplitudes."),
        click.option("--ghz", type=click.IntRange(min=2), default=None,
                     help="Build the m-qubit GHZ state."),
        click.option("--w", type=click.IntRange(min=2), default=None,
                     help="Build the m-qubit W state."),
        click.option("--random", "random_seed", type=click.IntRange(min=0), default=None,
                     help="Build a seeded random state (see --qubits)."),
        click.option("--qubits", type=click.IntRange(min=2), default=2,
                     show_default=True, help="Qubit count for --random."),
        click.option("--split", type=click.Choice(sorted(SPLIT_LEFT_DIM)), required=True,
                     help="Bipartition: first qubit vs rest (2xN) or first two vs rest (4xN)."),
    ]
    for dec in reversed(decorators):
        command = dec(command)
    return command


@click.group()
def cli():
    """Concurrence of pure states via hypercomplex stereographic projection."""


@cli.command("concurrence")
@_state_options
@click.option("--method", type=click.Choice([*ROUTES, "all"]),
              default="all", show_default=True)
@click.pass_context
def cmd_concurrence(ctx, state_file, ghz, w, random_seed, qubits, split, method):
    """Compute the concurrence of a state by one or all methods."""
    state = _state_from_options(state_file, ghz, w, random_seed, qubits)
    left_dim = SPLIT_LEFT_DIM[split]
    routes = _routes(left_dim)
    if method not in (*routes, "all"):
        raise click.UsageError(f"the {method} method does not apply to the {split} split")
    names = routes if method == "all" else [method]
    # every route runs before anything is printed, so a refusal leaves stdout empty
    values = {name: ROUTES[name](state, left_dim) for name in names}
    for name, value in values.items():
        click.echo(f"{name}: {_fixed(value)}")
    if method == "all":
        results = list(values.values())
        discrepancy = max(abs(x - y) for x in results for y in results)
        click.echo(f"max discrepancy: {discrepancy:.6e}")
        if discrepancy > DISCREPANCY_LIMIT:
            click.echo("discrepancy exceeds tolerance", err=True)
            ctx.exit(2)


@cli.command("project")
@_state_options
def cmd_project(state_file, ghz, w, random_seed, qubits, split):
    """Dump every pairwise projection (Schmidt + hypercomplex parts) as JSON."""
    state = _state_from_options(state_file, ghz, w, random_seed, qubits)
    left_dim = SPLIT_LEFT_DIM[split]
    projection, parts = _pair_parts(pack(state, left_dim))
    value = concurrence(state, left_dim)  # every refusal comes before the first write
    # json.dumps writes ints and (finite) floats as their repr, so one record per pair
    # j < k, each complex field as [re, im], prints the bytes of dumping the whole tree;
    # one row j per write, so no more than a row of records is ever held
    slots = [f'"{field.name}": [%r, %r]' for field in fields(projection)]
    record = "{" + ", ".join(['"j": %d', '"k": %d', *slots]) + "}"
    click.echo(f'{{"split": {json.dumps(split)}, "pairs": [', nl=False)
    for j in range(len(parts) - 1):
        row = parts[j, j + 1:].view(float).tolist()
        click.echo(", " * (j > 0) + ", ".join([record % (j, k, *x)
                                               for k, x in enumerate(row, j + 1)]), nl=False)
    click.echo(f'], "concurrence": {json.dumps(value)}}}')


@cli.command("evolve")
@click.option("--lambda", "lam", type=click.FloatRange(0.0, 1.0), required=True,
              help="Schmidt weight of the initial state.")
@click.option("--theta1", type=float, default=0.0, show_default=True)
@click.option("--phi1", type=float, default=0.0, show_default=True)
@click.option("--theta2", type=float, default=0.0, show_default=True,
              help="Accepted for symmetry; the projection does not depend on it.")
@click.option("--phi2", type=float, default=0.0, show_default=True,
              help="Accepted for symmetry; the projection does not depend on it.")
@click.option("--r", type=click.FloatRange(min=0.0), default=0.5, show_default=True,
              help="Field magnitude of both Hamiltonians.")
@click.option("--t-max", type=float, required=True)
@click.option("--steps", type=click.IntRange(min=2), required=True)
@click.option("--out", type=click.Path(), required=True, help="Output CSV path.")
def cmd_evolve(lam, theta1, phi1, theta2, phi2, r, t_max, steps, out):
    """Write the Schmidt-trajectory CSV t,schmidt_re,schmidt_im,concurrence."""
    if not 0 < t_max < math.inf:
        raise click.UsageError("--t-max must be positive and finite")
    spec1 = LocalHamiltonianSpec(theta1, phi1, r)
    LocalHamiltonianSpec(theta2, phi2, r)  # validates the unused angles too
    times = np.linspace(0.0, t_max, steps)
    points = schmidt_trajectory(lam, spec1, times)
    lines = ["t,schmidt_re,schmidt_im,concurrence"]
    lines += [f"{_fixed(p.t)},{_fixed(p.schmidt_re)},{_fixed(p.schmidt_im)},"
              f"{_fixed(p.concurrence_mag)}" for p in points]
    try:
        with open(out, "w", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise click.UsageError(f"cannot write {out}: {exc}")


def _suite_oracle_equivalence(rng, trials):
    worst = 0.0
    for n in (2, 3, 4, 8):
        for _ in range(trials):
            seed = int(rng.integers(2 ** 31))
            for offset, left_dim in enumerate((2, 4)):
                state = random_state(seed + offset, (left_dim, n))
                values = [ROUTES[name](state, left_dim) for name in _routes(left_dim)]
                worst = max(worst, max(values) - min(values))
    return worst, 1e-10


def _suite_local_unitary_invariance(rng, trials):
    worst = 0.0
    for left_dim, n in ((2, 3), (2, 8), (4, 3), (4, 8)):
        for _ in range(trials):
            state = random_state(int(rng.integers(2 ** 31)), (left_dim, n))
            u_left = random_unitary(left_dim, rng)
            u_right = random_unitary(n, rng)
            moved = apply_local(state, u_left, u_right)
            worst = max(worst, abs(concurrence(state, left_dim)
                                   - concurrence(moved, left_dim)))
    return worst, 1e-10


def _suite_equivariance(rng, trials):
    worst = 0.0
    for _ in range(4 * trials):
        state = random_state(int(rng.integers(2 ** 31)), (2, 2))
        coeff_u = random_local_unitary(rng)
        fiber_u = random_local_unitary(rng)
        worst = max(worst, equivariance_error(state, coeff_u, fiber_u))
    return worst, 1e-10


def _suite_norm_composition(rng, trials):
    worst = 0.0
    for _ in range(8 * trials):
        for d, algebra in ALGEBRAS.items():
            x = algebra(*rng.standard_normal(d))
            y = algebra(*rng.standard_normal(d))
            worst = max(worst, abs((x * y).norm() - x.norm() * y.norm()))
    return worst, 1e-11


VERIFY_SUITES = (
    ("oracle-equivalence", _suite_oracle_equivalence),
    ("local-unitary-invariance", _suite_local_unitary_invariance),
    ("equivariance", _suite_equivariance),
    ("norm-composition", _suite_norm_composition),
)


@cli.command("verify")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=25, show_default=True)
@click.pass_context
def cmd_verify(ctx, seed, trials):
    """Run the randomized cross-check suites; nonzero exit on any failure."""
    rng = np.random.default_rng(seed)
    failures = 0
    for name, suite in VERIFY_SUITES:
        worst, tolerance = suite(rng, trials)
        status = "PASS" if worst <= tolerance else "FAIL"
        failures += status == "FAIL"
        click.echo(f"{name}: {status} (worst discrepancy {worst:.6e}, tolerance {tolerance:.0e})")
    if failures:
        click.echo(f"{failures} suite(s) failed", err=True)
        ctx.exit(2)
    click.echo("all suites passed")


def main(argv=None) -> int:
    # standalone_mode=False so usage errors map to exit code 1 (click's own
    # convention is 2, which this tool reserves for numerical failures);
    # ctx.exit(code) comes back as the return value of cli.main.
    try:
        result = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except SizeLimitError as exc:
        click.echo(f"error: {exc}; concurrence --method hopf has no N^2 cap", err=True)
        return 1
    except HopfconError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return result if isinstance(result, int) else 0


if __name__ == "__main__":
    sys.exit(main())
