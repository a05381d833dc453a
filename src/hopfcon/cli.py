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

import argparse
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .dynamics import LocalHamiltonianSpec, _trajectory_points
from .errors import MAX_PAIR_ENTRIES, HopfconError, check_factors
from .hypercomplex import ALGEBRAS
from .oracles import generator_concurrence, minor_concurrence
from .projection import _pair_parts, concurrence, equivariance_error, pack
from .states import (apply_local, ghz_state, load_state, random_local_unitary, random_state,
                     random_unitary, w_state)

SPLIT_LEFT_DIM = {"2xN": 2, "4xN": 4}
DISCREPANCY_LIMIT = 1e-8

# route(state, left_dim) per method
ROUTES = {
    "hopf": concurrence,
    "minors": minor_concurrence,
    "generators": lambda state, left_dim: generator_concurrence(state),
}


class UsageError(Exception):
    """A bad command line: main prints it and returns 1."""


def _routes(left_dim: int) -> list[str]:
    """The methods that apply to a [left_dim, N] split: the generator oracle is 2xN only."""
    return [name for name in ROUTES if name != "generators" or left_dim == 2]


def _fixed(value: float) -> str:
    # value + 0.0 normalizes -0.0 so formatting is sign-stable
    return f"{value + 0.0:.6f}"


def _state_from_options(state_file, ghz, w, random_seed, qubits):
    sources = sum(x is not None for x in (state_file, ghz, w, random_seed))
    if sources != 1:
        raise UsageError("provide exactly one of --state, --ghz, --w, --random")
    if qubits is not None and random_seed is None:
        raise UsageError("--qubits applies only to --random")
    if state_file is not None:
        try:
            return load_state(state_file)
        except (OSError, ValueError, HopfconError) as exc:
            raise UsageError(f"cannot load state file: {exc}")
    if ghz is not None:
        return ghz_state(ghz)
    if w is not None:
        return w_state(w)
    qubits = 2 if qubits is None else qubits  # --random's default
    check_factors(qubits, "the random state")  # before (2,) * qubits is built
    return random_state(random_seed, (2,) * qubits)


def cmd_concurrence(state_file, ghz, w, random_seed, qubits, split, method):
    """Compute the concurrence of a state by one or all methods."""
    state = _state_from_options(state_file, ghz, w, random_seed, qubits)
    left_dim = SPLIT_LEFT_DIM[split]
    routes = _routes(left_dim)
    if method not in (*routes, "all"):
        raise UsageError(f"the {method} method does not apply to the {split} split")
    names = routes if method == "all" else [method]
    # every route runs before anything is printed, so a refusal leaves stdout empty
    values = {name: ROUTES[name](state, left_dim) for name in names}
    for name, value in values.items():
        print(f"{name}: {_fixed(value)}")
    if method == "all":
        discrepancy = max(values.values()) - min(values.values())
        print(f"max discrepancy: {discrepancy:.6e}")
        if discrepancy > DISCREPANCY_LIMIT:
            print("discrepancy exceeds tolerance", file=sys.stderr)
            return 2


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
    out = sys.stdout
    out.write(f'{{"split": {json.dumps(split)}, "pairs": [')
    for j in range(len(parts) - 1):
        row = parts[j, j + 1:].view(float).tolist()
        out.write(", " * (j > 0) + ", ".join([record % (j, k, *x)
                                              for k, x in enumerate(row, j + 1)]))
    out.write(f'], "concurrence": {json.dumps(value)}}}\n')


def cmd_evolve(lam, theta1, phi1, theta2, phi2, r, t_max, steps, out):
    """Write the Schmidt-trajectory CSV t,schmidt_re,schmidt_im,concurrence."""
    if not 0 < t_max < math.inf:
        raise UsageError("--t-max must be positive and finite")
    spec1 = LocalHamiltonianSpec(theta1, phi1, r)
    points = _trajectory_points(lam, spec1, np.linspace(0.0, t_max, steps))  # refuses bad input now
    try:
        with open(out, "w", newline="") as handle:
            handle.write("t,schmidt_re,schmidt_im,concurrence\n")
            # each row is written as it is formed, so no more than one is held
            handle.writelines(f"{_fixed(p.t)},{_fixed(p.schmidt_re)},{_fixed(p.schmidt_im)},"
                              f"{_fixed(p.concurrence_mag)}\n" for p in points)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}")


def _suite_oracle_equivalence(rng, trials):
    for n in (2, 3, 4, 8):
        for _ in range(trials):
            seed = int(rng.integers(2 ** 31))
            for offset, left_dim in enumerate((2, 4)):
                state = random_state(seed + offset, (left_dim, n))
                values = [ROUTES[name](state, left_dim) for name in _routes(left_dim)]
                yield max(values) - min(values)


def _suite_local_unitary_invariance(rng, trials):
    for left_dim, n in ((2, 3), (2, 8), (4, 3), (4, 8)):
        for _ in range(trials):
            state = random_state(int(rng.integers(2 ** 31)), (left_dim, n))
            moved = apply_local(state, random_unitary(left_dim, rng), random_unitary(n, rng))
            yield abs(concurrence(state, left_dim) - concurrence(moved, left_dim))


def _suite_equivariance(rng, trials):
    for _ in range(4 * trials):
        state = random_state(int(rng.integers(2 ** 31)), (2, 2))
        yield equivariance_error(state, random_local_unitary(rng), random_local_unitary(rng))


def _suite_norm_composition(rng, trials):
    for _ in range(8 * trials):
        for d, algebra in ALGEBRAS.items():
            x = algebra(*rng.standard_normal(d))
            y = algebra(*rng.standard_normal(d))
            yield abs((x * y).norm() - x.norm() * y.norm())


# (name, suite(rng, trials) yielding one discrepancy per check, tolerance on the largest)
VERIFY_SUITES = (
    ("oracle-equivalence", _suite_oracle_equivalence, 1e-10),
    ("local-unitary-invariance", _suite_local_unitary_invariance, 1e-10),
    ("equivariance", _suite_equivariance, 1e-10),
    ("norm-composition", _suite_norm_composition, 1e-11),
)


def cmd_verify(seed, trials):
    """Run the randomized cross-check suites; nonzero exit on any failure."""
    rng = np.random.default_rng(seed)
    failures = 0
    for name, suite, tolerance in VERIFY_SUITES:
        worst = max(suite(rng, trials))  # each suite draws all of its checks before the next
        status = "PASS" if worst <= tolerance else "FAIL"
        failures += status == "FAIL"
        print(f"{name}: {status} (worst discrepancy {worst:.6e}, tolerance {tolerance:.0e})")
    if failures:
        print(f"{failures} suite(s) failed", file=sys.stderr)
        return 2
    print("all suites passed")


class _Parser(argparse.ArgumentParser):
    """Errors raise UsageError: argparse's exit code 2 here means a failed check."""

    def error(self, message):
        raise UsageError(f"{message}\nTry '{self.prog} --help' for help.")


def _number(convert, low=-math.inf, high=math.inf):
    """An argparse type: convert(text), refused unless finite and low <= value <= high."""
    def parse(text):
        value = convert(text)  # argparse reports a ValueError as "invalid int value"
        if not abs(value) < math.inf:  # NaN too; an int of any size compares exactly
            raise argparse.ArgumentTypeError(f"{value} is not a finite number")
        if not low <= value <= high:
            span = f"x>={low}" if high == math.inf else f"{low}<=x<={high}"
            raise argparse.ArgumentTypeError(f"{value} is not in the range {span}")
        return value
    parse.__name__ = convert.__name__
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="hopfcon", add_help=False, allow_abbrev=False, description=(
        "Concurrence of pure states via hypercomplex stereographic projection."))
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(handler):
        """A subcommand named after handler, with --help; its add_argument."""
        sub = commands.add_parser(handler.__name__.removeprefix("cmd_"), add_help=False,
                                  allow_abbrev=False, help=handler.__doc__,
                                  description=handler.__doc__)
        sub.set_defaults(handler=handler)
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        return sub.add_argument

    def state_options(option):
        option("--state", dest="state_file", metavar="PATH",
               help="JSON state file with dims and [re, im] amplitudes.")
        option("--ghz", type=_number(int, 2), metavar="INTEGER",
               help="Build the m-qubit GHZ state.  [x>=2]")
        option("--w", type=_number(int, 2), metavar="INTEGER",
               help="Build the m-qubit W state.  [x>=2]")
        option("--random", dest="random_seed", type=_number(int, 0), metavar="INTEGER",
               help="Build a seeded random state (see --qubits).  [x>=0]")
        option("--qubits", type=_number(int, 2), metavar="INTEGER",
               help="Qubit count for --random only.  [default: 2; x>=2]")
        option("--split", choices=sorted(SPLIT_LEFT_DIM), required=True,
               help="Bipartition: first qubit vs rest (2xN) or first two vs rest (4xN).")

    option = command(cmd_concurrence)
    state_options(option)
    option("--method", choices=[*ROUTES, "all"], default="all", help="[default: %(default)s]")
    state_options(command(cmd_project))

    option = command(cmd_evolve)
    option("--lambda", dest="lam", type=_number(float, 0.0, 1.0), required=True,
           metavar="FLOAT", help="Schmidt weight of the initial state.  [0.0<=x<=1.0]")
    for angle in ("--theta1", "--phi1"):
        option(angle, type=_number(float), default=0.0, metavar="FLOAT",
               help="[default: %(default)s]")
    for angle in ("--theta2", "--phi2"):
        option(angle, type=_number(float), default=0.0, metavar="FLOAT",
               help="Accepted for symmetry; the projection does not depend on it.  "
                    "[default: %(default)s]")
    option("--r", type=_number(float, 0.0), default=0.5, metavar="FLOAT",
           help="Field magnitude of both Hamiltonians.  [default: %(default)s; x>=0.0]")
    option("--t-max", type=float, required=True, metavar="FLOAT")
    option("--steps", type=_number(int, 2, MAX_PAIR_ENTRIES), required=True, metavar="INTEGER",
           help=f"[2<=x<={MAX_PAIR_ENTRIES}]")
    option("--out", required=True, metavar="PATH", help="Output CSV path.")

    option = command(cmd_verify)
    option("--seed", type=_number(int, 0), default=0, metavar="INTEGER",
           help="[default: %(default)s; x>=0]")
    option("--trials", type=_number(int, 1), default=25, metavar="INTEGER",
           help="[default: %(default)s; x>=1]")
    return parser


# built once per process: building costs more than a parse
PARSER = _build_parser()


def _attach_values(argv) -> list[str]:
    """argv with ``--option -value`` written as ``--option=-value``.

    Every option but --help takes one value, the next word even when it starts
    with '-' (``--theta1 -1e-3``, ``--out -a.csv``); argparse alone would read
    such a word as an option.  A bare ``--`` stays apart, so argparse reports
    the option's missing value: attached, it would strip the ``--`` and hand the
    option an empty list that its type never checks.
    """
    attached = []
    for word in argv:
        option = attached[-1] if attached else ""
        if (word.startswith("-") and word != "--" and option.startswith("--")
                and option not in ("--", "--help") and "=" not in option):
            attached[-1] = f"{option}={word}"
        else:
            attached.append(word)
    return attached


def _run(argv) -> int:
    """Parse argv and run its command; the exit code, with any error printed."""
    try:
        options = vars(PARSER.parse_args(_attach_values(argv)))
        return options.pop("handler")(**options) or 0
    except SystemExit:  # only --help exits the parser; its errors raise UsageError
        return 0
    except (UsageError, HopfconError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()  # so a reader that closed the pipe shows here
    except BrokenPipeError:
        # exit 1 quietly: what stdout still buffers goes to os.devnull at
        # the interpreter's final flush, not to a closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code
