"""Inputs, references, ops and correctness checks of the three workloads.

Each workload turns ``--seed`` into a fixed number of *variants*; a variant
is one cycle of ops, and the run loop repeats variants in turn.  The op
mix inside a cycle does not depend on the seed (only the amplitudes and
parameters do), so the cost of a cycle is the same on every seed.  Every
input state is built through ``hopfcon.states``; the package receives
only the generated inputs.

An op is ``run`` (the timed calls into the package, through the tracer),
``check`` (compares the result with a reference the benchmark computes
itself, outside the timed region) and, for CLI ops, ``replay`` (the same
layer calls the invocation makes, on the same input, so a traced run can
split CLI time from layer time).

Why these workloads:

* ``wide`` -- 10-12 qubit Haar, GHZ and W states through both hypercomplex
  routes.  The O(N^2) pairwise grid in ``projection`` does nearly all the
  work and ``oracles`` never runs, so compress-then-project and the memory
  wall show here.
* ``crosscheck`` -- in-process ``hopfcon.cli.main`` invocations as a user
  runs them.  The O(N^4) generator oracle dominates while ``projection``
  only sees N <= 128; ``project`` dumps every pair instead of summing them.
* ``small`` -- 2-4 qubit states through packing, pair projections, both
  concurrences, the module action, scalar products and one dynamics step.
  Per-call fixed costs (dataclasses, the per-term Python multiply, einsum
  path planning) dominate here.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import hopfcon as hc
from hopfcon import cli as hc_cli
from hopfcon.dynamics import LocalHamiltonianSpec

ABS_TOL = 1e-10          # library results against the benchmark's references
TEXT_TOL = 5e-7 + 1e-12  # values the CLI prints with six decimals

# Memory guard.  Predicted bytes of one call are compared with a cap well
# under free memory before any op is scheduled; a size above it is refused.
MEMORY_CAP_BYTES = 1 << 30
GRID_PEAK_FACTOR = 3  # einsum grid plus its squared slice and planning copies


class Miss(Exception):
    """An op's result disagrees with the benchmark's reference."""


class MemoryGuardError(RuntimeError):
    """A scheduled size is predicted to allocate more than the cap allows."""


def memory_cap() -> int:
    """The smaller of MEMORY_CAP_BYTES and a quarter of the memory available."""
    try:
        with open("/proc/meminfo") as handle:
            available = next(int(line.split()[1]) * 1024 for line in handle
                             if line.startswith("MemAvailable:"))
    except (OSError, StopIteration):
        available = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGESIZE")
    return min(MEMORY_CAP_BYTES, available // 4)


def predicted_bytes(route: str, n: int) -> int:
    """Peak bytes one call allocates for an N-column split."""
    if route == "quat":
        return GRID_PEAK_FACTOR * 32 * n * n
    if route == "oct":
        return GRID_PEAK_FACTOR * 64 * n * n
    if route == "generators":  # N(N-1)/2 dense N x N float64 generators
        return n * (n - 1) // 2 * 8 * n * n
    raise ValueError(route)


def guard(route: str, n: int, cap: int) -> None:
    need = predicted_bytes(route, n)
    if need > cap:
        raise MemoryGuardError(
            f"refusing {route} at N={n}: predicted {need / 2**20:.0f} MiB "
            f"exceeds the cap of {cap / 2**20:.0f} MiB")


# --- references, computed by the benchmark without the package -------------

def svd_concurrence(matrix: np.ndarray) -> float:
    """2 sqrt(sum_{i<j} s_i^2 s_j^2) from the singular values of the split matrix."""
    w = np.linalg.svd(matrix, compute_uv=False) ** 2
    return 2.0 * math.sqrt(max(0.0, (w.sum() ** 2 - (w * w).sum()) / 2.0))


def w_concurrence(m: int, left_qubits: int) -> float:
    """W state: Schmidt weights k/m and 1 - k/m for a k-qubit prefix."""
    p = left_qubits / m
    return 2.0 * math.sqrt(p * (1.0 - p))


def split(amplitudes: np.ndarray, left: int) -> np.ndarray:
    return np.asarray(amplitudes).reshape(left, -1)


def pair_parts(u: np.ndarray, v: np.ndarray) -> tuple[complex, complex]:
    """Schmidt and e2 parts of the quaternion pair product q_u conj(q_v).

    q = z1 + z2 e2 packs the two-row column (z1, z2); the product is
    (u1 conj(v1) + u2 conj(v2)) + (u2 v1 - u1 v2) e2.
    """
    return (complex(u[0] * np.conj(v[0]) + u[1] * np.conj(v[1])),
            complex(u[1] * v[0] - u[0] * v[1]))


def su2(u: hc.LocalUnitary2) -> np.ndarray:
    return np.array([[u.a, u.b], [-np.conj(u.b), np.conj(u.a)]])


def propagator(theta: float, phi: float, r: float, t: float) -> np.ndarray:
    """exp(-i r t n.sigma) = cos(rt) I - i sin(rt) n.sigma, written out."""
    nx, ny, nz = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                  math.cos(theta))
    c, s = math.cos(r * t), math.sin(r * t)
    return np.array([[c - 1j * s * nz, -1j * s * (nx - 1j * ny)],
                     [-1j * s * (nx + 1j * ny), c + 1j * s * nz]])


def trajectory_reference(lam, theta1, phi1, r, times) -> np.ndarray:
    """Rows (t, Re S, Im S, |C|) of the Schmidt trajectory by matrix algebra.

    S is the Schmidt part of q_0 conj(q_1) with q_i = a_i0 + a_i1 e2, i.e.
    (A A^dagger)_01, which the second qubit's unitary leaves unchanged.
    """
    a0 = np.diag([math.sqrt(lam), math.sqrt(1.0 - lam)]).astype(complex)
    rows = []
    for t in times:
        a = propagator(theta1, phi1, r, t) @ a0
        s = (a @ a.conj().T)[0, 1]
        rows.append((t, s.real, s.imag, math.sqrt(lam * (1.0 - lam))))
    return np.array(rows)


class Ledger:
    """Run-wide correctness record: largest error per layer and CLI failures."""

    def __init__(self):
        self.max_abs_err = {"projection": 0.0, "oracles": 0.0, "dynamics": 0.0}
        self.nonzero_exits = 0

    def check(self, layer: str | None, got, want, tol: float, what: str) -> None:
        err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
        if layer is not None:
            self.max_abs_err[layer] = max(self.max_abs_err[layer], err)
        if not err <= tol:
            raise Miss(f"{what}: error {err:.3e} exceeds {tol:.1e}")


@dataclass
class Op:
    label: str                     # cost class; ops with one label cost the same
    run: Callable                  # run(tracer) -> result, the timed part
    check: Callable                # check(result, ledger), raises Miss
    replay: Callable | None = None  # replay(tracer, ledger), traced CLI runs only


@dataclass
class Workload:
    variants: list[list[Op]]
    fingerprint: str
    # Highest tail percentile reported.  A run of the benchmark's length has
    # well over ten samples beyond it but too few beyond the next rung, so
    # the rung chosen does not flip between runs.
    max_tail_pct: float = 95.0
    tmpdir: Path | None = None


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.asarray(part).tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.hexdigest()[:16]


# --- wide -------------------------------------------------------------------

# States per cycle at each size.  Op cost rises oct10 < quat10 < oct11 <
# quat11 < oct12 < quat12; with two routes these counts put the median op
# in the middle of the 11-qubit oct class and p95 inside the 12-qubit quat
# class, not on a class boundary where it would jump between runs.
WIDE_KINDS = {10: ("haar", "haar", "haar", "ghz", "w"),
              11: ("haar", "haar", "ghz", "w"),
              12: ("haar", "ghz", "w")}
WIDE_VARIANTS = 4


def _wide_op(route: str, m: int, state, want: float) -> Op:
    fn = hc.quat_concurrence if route == "quat" else hc.oct_concurrence

    def check(got, ledger):
        ledger.check("projection", got, want, ABS_TOL, f"{route} {m}q")
    return Op(f"{route}{m}", lambda tr: tr.call(fn, state), check)


def build_wide(seed, tr, cap, tmp_root, ref) -> Workload:
    rng = np.random.default_rng(seed)
    variants, parts = [], []
    for _ in range(WIDE_VARIANTS):
        cycle = []
        for m, kinds in WIDE_KINDS.items():
            for kind in kinds:
                if kind == "haar":
                    state = tr.call(hc.random_state, int(rng.integers(2 ** 31)), (2,) * m)
                    wants = {left: ref(svd_concurrence, split(state.amplitudes, left))
                             for left in (2, 4)}
                elif kind == "ghz":
                    state = tr.call(hc.ghz_state, m)
                    wants = {2: 1.0, 4: 1.0}
                else:
                    state = tr.call(hc.w_state, m)
                    wants = {2: w_concurrence(m, 1), 4: w_concurrence(m, 2)}
                parts.append(state.amplitudes)
                for route, left in (("quat", 2), ("oct", 4)):
                    guard(route, 2 ** m // left, cap)
                    cycle.append(_wide_op(route, m, state, wants[left]))
        variants.append(cycle)
    return Workload(variants, _digest(*parts))


# --- small ------------------------------------------------------------------

# Qubit counts of the states in one cycle: the median op falls in the
# middle of the 3-qubit class.
SMALL_QUBITS = (2, 2, 3, 4, 4)
SMALL_VARIANTS = 32


def _packed(matrix: np.ndarray) -> np.ndarray:
    """Expected real coefficient rows of the 2 x N (quaternion) packing."""
    return np.stack([matrix[0].real, matrix[0].imag,
                     matrix[1].real, matrix[1].imag], axis=1)


def _packed_oct(matrix: np.ndarray) -> np.ndarray:
    """Expected real coefficient rows of the 4 x N (octonion) packing."""
    z3 = np.conj(matrix[3])
    return np.stack([matrix[0].real, matrix[0].imag, matrix[1].real, matrix[1].imag,
                     matrix[2].real, matrix[2].imag, z3.real, z3.imag], axis=1)


def _small_op(m, state, wants, module, mul, dyn) -> Op:
    """One state through every small-scale call; see the module docstring."""
    has_oct = m >= 3
    q1, q2, o1, o2 = mul
    lam, spec1, spec2, t, initial = dyn

    def run(tr):
        out = {"qstate": tr.call(hc.quaternify, state)}
        out["qpairs"] = tr.call(hc.quat_pair_projections, out["qstate"])
        out["quat"] = tr.call(hc.quat_concurrence, state)
        if has_oct:
            out["ostate"] = tr.call(hc.octonify, state)
            out["opairs"] = tr.call(hc.oct_pair_projections, out["ostate"])
            out["oct"] = tr.call(hc.oct_concurrence, state)
        if module is not None:
            coef_u, fiber_u = module
            out["module"] = tr.call(hc.right_module_action, out["qstate"], coef_u, fiber_u)
            out["equivariant"] = tr.call(hc.verify_equivariance, state, coef_u, fiber_u)
        out["qmul"] = tr.call(hc.quat_mul, q1, q2)
        out["omul"] = tr.call(hc.oct_mul, o1, o2)
        out["closed"] = tr.call(hc.evolve_closed_form, lam, spec1, spec2, t)
        out["numeric"] = tr.call(hc.evolve_numeric, initial, spec1, spec2, t)
        return out

    def check(out, ledger):
        ledger.check("projection", out["quat"], wants["quat"], ABS_TOL, "quat_concurrence")
        ledger.check(None, out["qstate"].as_array(), wants["qpack"], ABS_TOL, "quaternify")
        hyper = sum(abs(p.concurrence_part) ** 2 for _, _, p in out["qpairs"])
        ledger.check("projection", 2 * math.sqrt(hyper), wants["quat"], ABS_TOL,
                     "quat_pair_projections")
        if has_oct:
            ledger.check("projection", out["oct"], wants["oct"], ABS_TOL, "oct_concurrence")
            ledger.check(None, out["ostate"].as_array(), wants["opack"], ABS_TOL, "octonify")
            hyper = sum(p.hyper_norm_squared for _, _, p in out["opairs"])
            ledger.check("projection", 2 * math.sqrt(hyper), wants["oct"], ABS_TOL,
                         "oct_pair_projections")
        if module is not None:
            if out["equivariant"] is not True:
                raise Miss("verify_equivariance returned False")
            q = out["module"].as_array()
            cols = q[:, 0::2] + 1j * q[:, 1::2]  # row j: (z1, z2) of coefficient j
            ledger.check("projection", pair_parts(cols[0], cols[1]), wants["module"],
                         ABS_TOL, "right_module_action")
        norms = [math.sqrt(sum(x * x for x in out[key].coefficients()))
                 for key in ("qmul", "omul")]
        ledger.check(None, norms, wants["mul"], ABS_TOL, "norm composition")
        closed = [z for q in out["closed"].coefficients for z in q.complex_pair()]
        ledger.check("dynamics", closed, out["numeric"].amplitudes, ABS_TOL,
                     "evolve_closed_form vs evolve_numeric")

    return Op(f"small{m}", run, check)


def _small_wants(state, m, module, v) -> dict:
    m2 = split(state.amplitudes, 2)
    wants = {"quat": svd_concurrence(m2), "qpack": _packed(m2),
             "mul": [np.linalg.norm(v[:4]) * np.linalg.norm(v[4:8]),
                     np.linalg.norm(v[8:16]) * np.linalg.norm(v[16:])]}
    if m >= 3:
        m4 = split(state.amplitudes, 4)
        wants.update(oct=svd_concurrence(m4), opack=_packed_oct(m4))
    if module is not None:
        coef_u, fiber_u = module
        moved = su2(fiber_u) @ m2 @ su2(coef_u).T
        wants["module"] = pair_parts(moved[:, 0], moved[:, 1])
    return wants


def build_small(seed, tr, cap, tmp_root, ref) -> Workload:
    rng = np.random.default_rng(seed)
    variants, parts = [], []
    for _ in range(SMALL_VARIANTS):
        cycle = []
        for m in SMALL_QUBITS:
            guard("quat", 2 ** (m - 1), cap)
            state = tr.call(hc.random_state, int(rng.integers(2 ** 31)), (2,) * m)
            module = None
            if m == 2:
                module = (tr.call(hc.random_local_unitary, rng),
                          tr.call(hc.random_local_unitary, rng))
            v = rng.standard_normal(24)
            mul = (tr.call(hc.Quaternion, *v[:4]), tr.call(hc.Quaternion, *v[4:8]),
                   tr.call(hc.Octonion, *v[8:16]), tr.call(hc.Octonion, *v[16:]))
            lam, th1, ph1, th2, ph2, t = rng.uniform(0.0, 1.0, 6) * [1, 3, 6, 3, 6, 10]
            dyn = (lam, tr.call(LocalHamiltonianSpec, th1, ph1, 0.5),
                   tr.call(LocalHamiltonianSpec, th2, ph2, 0.5), t,
                   tr.call(hc.schmidt_initial_state, lam))
            parts += [state.amplitudes, v, (lam, th1, ph1, th2, ph2, t)]
            cycle.append(_small_op(m, state, ref(_small_wants, state, m, module, v),
                                   module, mul, dyn))
        variants.append(cycle)
    return Workload(variants, _digest(*parts), max_tail_pct=99.0)


# --- crosscheck -------------------------------------------------------------

CROSS_VARIANTS = 8
EVOLVE_STEPS = 50
VERIFY_TRIALS = 1
_VALUE_LINE = re.compile(r"^(hopf|minors|generators): (-?\d+\.\d{6})$")
_VERIFY_LINE = re.compile(r"^([a-z-]+): (PASS|FAIL) \(worst discrepancy (\S+), "
                          r"tolerance (\S+)\)$")


class CliCapture:
    """Runs hopfcon.cli.main(argv) in process with stdout and stderr captured.

    One pair of buffers serves every invocation, as one stdout serves a
    process of the real CLI.  click caches a wrapper per output stream in a
    WeakKeyDictionary whose value is the stream itself, so a fresh buffer
    per call would never be freed and memory would grow with every op.
    """

    def __init__(self):
        self.out, self.err = io.StringIO(), io.StringIO()

    def __call__(self, argv) -> tuple[int, str, str]:
        for stream in (self.out, self.err):
            stream.seek(0)
            stream.truncate()
        with contextlib.redirect_stdout(self.out), contextlib.redirect_stderr(self.err):
            code = hc_cli.main(argv)
        return code, self.out.getvalue(), self.err.getvalue()


def _cli_run(capture, command, argv):
    name = f"cli.{command}"
    return lambda tr: tr.call(capture, [command] + argv, name=name)


def _exit_ok(result, ledger) -> str:
    """The invocation's stdout; a non-zero exit is a miss."""
    code, out, err = result
    if code != 0:
        ledger.nonzero_exits += 1
        raise Miss(f"exit code {code}: {err.strip()}")
    return out


def _concurrence_op(capture, label, argv, left, load, want) -> Op:
    """``concurrence --method all`` on a seeded random state or a state file."""
    methods = ["hopf", "minors"] + (["generators"] if left == 2 else [])
    hopf = hc.quat_concurrence if left == 2 else hc.oct_concurrence
    argv = argv + ["--split", f"{left}xN", "--method", "all"]

    def check(result, ledger):
        text = _exit_ok(result, ledger)
        *lines, last = text.splitlines()
        matches = [_VALUE_LINE.match(line) for line in lines]
        if not all(matches) or [match[1] for match in matches] != methods:
            raise Miss(f"unexpected concurrence report {text!r}")
        for match in matches:
            ledger.check(None, float(match[2]), want, TEXT_TOL, f"cli {match[1]}")
        if not last.startswith("max discrepancy: ") or not float(last[17:]) <= 1e-8:
            raise Miss(f"bad discrepancy line {last!r}")

    def replay(tr, ledger):
        state = load(tr)
        ledger.check("projection", tr.call(hopf, state), want, ABS_TOL, "hopf")
        ledger.check("oracles", tr.call(hc.minor_concurrence, state, left), want,
                     ABS_TOL, "minors")
        if left == 2:
            ledger.check("oracles", tr.call(hc.generator_concurrence, state), want,
                         ABS_TOL, "generators")

    return Op(label, _cli_run(capture, "concurrence", argv), check, replay)


def _project_op(capture, seed, m, want) -> Op:
    argv = ["--random", str(seed), "--qubits", str(m), "--split", "4xN"]
    n = 2 ** (m - 2)

    def check(result, ledger):
        text = _exit_ok(result, ledger)
        payload = json.loads(text)
        pairs = payload["pairs"]
        if len(pairs) != n * (n - 1) // 2:
            raise Miss(f"{len(pairs)} pairs for N={n}")
        hyper = sum(x * x for p in pairs for key in ("s1", "s2", "s3") for x in p[key])
        ledger.check("projection", 2 * math.sqrt(hyper), want, ABS_TOL, "project pairs")
        ledger.check("projection", payload["concurrence"], want, ABS_TOL,
                     "project concurrence")

    def replay(tr, ledger):
        state = tr.call(hc.random_state, seed, (2,) * m)
        tr.call(hc.oct_pair_projections, tr.call(hc.octonify, state))
        ledger.check("projection", tr.call(hc.oct_concurrence, state), want, ABS_TOL,
                     "oct_concurrence")

    return Op(f"project{m}", _cli_run(capture, "project", argv), check, replay)


def _evolve_op(capture, params, out_path: Path, ref) -> Op:
    lam, th1, ph1, th2, ph2 = params
    r, t_max = 0.5, 12.0
    times = np.linspace(0.0, t_max, EVOLVE_STEPS)
    want = ref(trajectory_reference, lam, th1, ph1, r, times)
    argv = ["--lambda", repr(lam), "--theta1", repr(th1), "--phi1", repr(ph1),
            "--theta2", repr(th2), "--phi2", repr(ph2), "--r", repr(r),
            "--t-max", repr(t_max), "--steps", str(EVOLVE_STEPS), "--out", str(out_path)]

    def check(result, ledger):
        _exit_ok(result, ledger)
        with open(out_path, newline="") as handle:
            header, *rows = list(csv.reader(handle))
        if header != ["t", "schmidt_re", "schmidt_im", "concurrence"] or \
                len(rows) != EVOLVE_STEPS:
            raise Miss(f"CSV has {len(rows)} data rows, expected {EVOLVE_STEPS}")
        ledger.check(None, np.array(rows, dtype=float), want, TEXT_TOL, "evolve CSV")

    def replay(tr, ledger):
        spec1 = tr.call(LocalHamiltonianSpec, th1, ph1, r)
        tr.call(LocalHamiltonianSpec, th2, ph2, r)
        points = tr.call(hc.schmidt_trajectory, lam, spec1, times)
        got = [(p.t, p.schmidt_re, p.schmidt_im, p.concurrence_mag) for p in points]
        ledger.check("dynamics", got, want, ABS_TOL, "schmidt_trajectory")

    return Op("evolve", _cli_run(capture, "evolve", argv), check, replay)


def _replay_verify(tr, ledger, seed, trials):
    """The calls ``hopfcon verify`` makes, in the same order with the same draws."""
    rng = np.random.default_rng(seed)

    def conc(fn, state, left):
        want = svd_concurrence(split(state.amplitudes, left))
        layer = "projection" if fn in (hc.quat_concurrence, hc.oct_concurrence) else "oracles"
        args = (state, left) if fn is hc.minor_concurrence else (state,)
        ledger.check(layer, tr.call(fn, *args), want, ABS_TOL, f"verify {fn.__name__}")

    for n in (2, 3, 4, 8):
        for _ in range(trials):
            s = int(rng.integers(2 ** 31))
            state2 = tr.call(hc.random_state, s, (2, n))
            for fn in (hc.quat_concurrence, hc.minor_concurrence, hc.generator_concurrence):
                conc(fn, state2, 2)
            state4 = tr.call(hc.random_state, s + 1, (4, n))
            for fn in (hc.oct_concurrence, hc.minor_concurrence):
                conc(fn, state4, 4)
    for left, n in ((2, 3), (2, 8), (4, 3), (4, 8)):
        for _ in range(trials):
            state = tr.call(hc.random_state, int(rng.integers(2 ** 31)), (left, n))
            u_left = tr.call(hc.random_unitary, left, rng)
            u_right = tr.call(hc.random_unitary, n, rng)
            moved = tr.call(hc.apply_local, state, u_left, u_right)
            fn = hc.quat_concurrence if left == 2 else hc.oct_concurrence
            conc(fn, state, left)
            conc(fn, moved, left)
    for _ in range(4 * trials):
        state = tr.call(hc.random_state, int(rng.integers(2 ** 31)), (2, 2))
        coef_u = tr.call(hc.random_local_unitary, rng)
        fiber_u = tr.call(hc.random_local_unitary, rng)
        evolved = tr.call(hc.quaternify, tr.call(hc.apply_local, state, fiber_u, coef_u))
        module = tr.call(hc.right_module_action, tr.call(hc.quaternify, state),
                         coef_u, fiber_u)
        tr.call(hc.quat_project, *evolved.coefficients)
        tr.call(hc.quat_project, *module.coefficients)
    for _ in range(8 * trials):
        tr.call(hc.quat_mul, hc.Quaternion(*rng.standard_normal(4)),
                hc.Quaternion(*rng.standard_normal(4)))
        tr.call(hc.oct_mul, hc.Octonion(*rng.standard_normal(8)),
                hc.Octonion(*rng.standard_normal(8)))


def _verify_op(capture, seed) -> Op:
    argv = ["--seed", str(seed), "--trials", str(VERIFY_TRIALS)]

    def check(result, ledger):
        text = _exit_ok(result, ledger)
        *lines, last = text.splitlines()
        suites = [_VERIFY_LINE.match(line) for line in lines]
        if len(suites) != 4 or not all(suites) or last != "all suites passed":
            raise Miss(f"unexpected verify report {text!r}")
        for match in suites:
            if match[2] != "PASS" or not float(match[3]) <= float(match[4]):
                raise Miss(f"suite {match[1]} failed")

    def replay(tr, ledger):
        _replay_verify(tr, ledger, seed, VERIFY_TRIALS)

    return Op("verify", _cli_run(capture, "verify", argv), check, replay)


# Concurrence invocations per cycle: (state source, left dimension, qubits).
# Three 5-qubit 2xN invocations widen the run of ops of nearly equal cost
# (5-qubit 2xN, 7-qubit 4xN, 6-qubit project) to five of fifteen, so the
# median op lies well inside it rather than on the edge between two cost
# classes that differ by less than the host's jitter.
CROSS_CONCURRENCE = (("random", 2, 5), ("random", 2, 5), ("random", 2, 6),
                     ("random", 2, 7), ("random", 4, 5), ("random", 4, 6),
                     ("random", 4, 7), ("file", 2, 5), ("file", 2, 7), ("file", 4, 6))


def build_crosscheck(seed, tr, cap, tmp_root, ref) -> Workload:
    """Fifteen invocations per cycle.  The median op falls inside the run
    of equal-cost ops named above CROSS_CONCURRENCE and p95 inside the two
    7-qubit 2xN classes, which cost the same."""
    tmpdir = Path(tempfile.mkdtemp(prefix="crosscheck-", dir=tmp_root))
    rng = np.random.default_rng(seed)
    capture = CliCapture()
    variants, parts = [], []
    for v in range(CROSS_VARIANTS):
        cycle = []
        for source, left, m in CROSS_CONCURRENCE:
            guard("quat" if left == 2 else "oct", 2 ** m // left, cap)
            if left == 2:
                guard("generators", 2 ** m // left, cap)
            s = int(rng.integers(2 ** 31))
            state = tr.call(hc.random_state, s, (2,) * m)
            parts.append(state.amplitudes)
            if source == "random":
                argv = ["--random", str(s), "--qubits", str(m)]
                load = lambda tr, s=s, m=m: tr.call(hc.random_state, s, (2,) * m)
            else:
                path = tmpdir / f"state-{v}-{m}.json"
                tr.call(hc.save_state, state, path)
                argv = ["--state", str(path)]
                load = lambda tr, path=path: tr.call(hc.load_state, path)
            cycle.append(_concurrence_op(capture, f"{source}{left}x{m}", argv, left, load,
                                         ref(svd_concurrence, split(state.amplitudes, left))))
        for m in (6, 7, 8):
            guard("oct", 2 ** (m - 2), cap)
            s = int(rng.integers(2 ** 31))
            state = tr.call(hc.random_state, s, (2,) * m)
            parts.append(state.amplitudes)
            cycle.append(_project_op(capture, s, m, ref(svd_concurrence,
                                                split(state.amplitudes, 4))))
        params = tuple(float(x) for x in rng.uniform(0.0, 1.0, 5) * [1, 3, 6, 3, 6])
        verify_seed = int(rng.integers(2 ** 31))
        parts += [params, verify_seed]
        cycle.append(_evolve_op(capture, params, tmpdir / f"trajectory-{v}.csv", ref))
        cycle.append(_verify_op(capture, verify_seed))
        variants.append(cycle)
    return Workload(variants, _digest(*parts), tmpdir=tmpdir)


def with_references(fn, *args):
    return fn(*args)


def without_references(fn, *args):
    return None


BUILDERS = {"wide": build_wide, "crosscheck": build_crosscheck, "small": build_small}
