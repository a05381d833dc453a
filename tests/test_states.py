import json
import math
import os
import tempfile
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hopfcon import (DimensionMismatchError, HopfconError, LocalHamiltonianSpec, LocalUnitary2,
                     NormalizationError, PackedState, ParameterError, PureState, Quaternion,
                     SizeLimitError, SplitMismatchError, apply_local, concurrence,
                     equivariance_error, evolve_closed_form, ghz_state, load_state,
                     make_state, minor_concurrence, pack, pauli_propagator,
                     random_local_unitary, random_state, random_unitary, right_module_action,
                     save_state, schmidt_trajectory, w_state)
from hopfcon import states
from hopfcon.errors import as_amplitudes

SQRT_HALF = 1 / math.sqrt(2)


def _load_file(content) -> PureState:
    """load_state of a file holding content: bytes as they are, anything else as JSON."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "state.json"
        path.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
        return load_state(path)


def test_make_state_bell():
    state = make_state((2, 2), [SQRT_HALF, 0, 0, SQRT_HALF])
    assert state.dims == (2, 2)
    assert np.allclose(state.amplitudes, [SQRT_HALF, 0, 0, SQRT_HALF])
    assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-15


def test_make_state_renormalizes_exactly():
    state = make_state((2, 2), [1 + 3e-7, 0, 0, 0])
    assert state.amplitudes[0] == 1.0


def test_make_state_errors():
    with pytest.raises(NormalizationError):
        make_state((2, 2), [0, 0, 0, 0])
    with pytest.raises(DimensionMismatchError):
        make_state((2, 2), [1, 0, 0])
    with pytest.raises(DimensionMismatchError):  # not a number, though numpy makes None NaN
        make_state((2,), [None, 1])
    with pytest.raises(NormalizationError):
        make_state((2, 2), [2, 0, 0, 0])


def test_make_state_rejects_nan():
    with pytest.raises(NormalizationError):
        make_state((2, 2), [math.nan, 0, 0, 1])


def _load_zero_state_file(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"dims": [2, 2], "amplitudes": [[0, 0]] * 4}))
    return load_state(path)


@pytest.mark.parametrize("build", [lambda tmp_path: PureState((2,), [0, 0]),
                                   lambda tmp_path: make_state((2, 2), [0, 0, 0, 0]),
                                   _load_zero_state_file],
                         ids=["pure-state", "make-state", "state-file"])
def test_zero_vector_is_refused_by_the_norm_check(build, tmp_path):
    with pytest.raises(NormalizationError, match=r"^state norm 0\.0 deviates"):
        build(tmp_path)


def test_amplitudes_are_read_only():
    state = ghz_state(2)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0


def test_pure_state_enforces_unit_norm():
    from hopfcon import PureState
    with pytest.raises(NormalizationError):
        PureState((2, 2), [1, 0, 0, 1])


def test_pure_state_rejects_nan():
    from hopfcon import PureState
    with pytest.raises(NormalizationError):
        PureState((2, 2), [math.nan, 0, 0, 1])


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_ghz_state(m):
    state = ghz_state(m)
    nonzero = np.flatnonzero(state.amplitudes)
    assert list(nonzero) == [0, 2 ** m - 1]
    assert np.allclose(state.amplitudes[nonzero], SQRT_HALF)
    assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-15


@pytest.mark.parametrize("m", [2, 3, 5])
def test_w_state(m):
    state = w_state(m)
    nonzero = set(np.flatnonzero(state.amplitudes))
    assert nonzero == {2 ** i for i in range(m)}
    assert np.allclose(state.amplitudes[sorted(nonzero)], 1 / math.sqrt(m))
    assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-15


def test_w2_is_symmetric_bell():
    assert np.allclose(w_state(2).amplitudes, [0, SQRT_HALF, SQRT_HALF, 0])


@pytest.mark.parametrize("builder", [ghz_state, w_state])
def test_builders_reject_single_qubit(builder):
    with pytest.raises(ValueError):
        builder(1)


def test_builders_refuse_before_allocating_above_amplitude_limit():
    for build in (ghz_state, w_state, lambda m: random_state(1, (2,) * m)):
        with pytest.raises(SizeLimitError):
            build(48)
    with pytest.raises(SizeLimitError):  # 2**64 amplitudes: np.prod would wrap to 0
        random_state(1, (2,) * 64)
    for build in (ghz_state, w_state, lambda m: random_state(1, (2,) * m)):
        with pytest.raises(SizeLimitError):  # a count of 4516 digits must not be formatted
            build(15000)
    with pytest.raises(SizeLimitError):  # refused on the factor count, before math.prod
        random_state(1, (2,) * 10 ** 6)


def test_apply_local_identity():
    state = random_state(3, (2, 2))
    moved = apply_local(state, np.eye(2), np.eye(2))
    assert np.allclose(moved.amplitudes, state.amplitudes, atol=1e-15)


def test_apply_local_sigma_x_pair_fixes_bell():
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    bell = ghz_state(2)
    moved = apply_local(bell, sigma_x, sigma_x)
    assert np.allclose(moved.amplitudes, bell.amplitudes, atol=1e-15)


def test_apply_local_preserves_norm():
    rng = np.random.default_rng(5)
    for _ in range(20):
        state = random_state(int(rng.integers(2 ** 31)), (2, 2, 2))
        moved = apply_local(state, random_unitary(2, rng), random_unitary(4, rng))
        assert abs(np.linalg.norm(moved.amplitudes) - 1) < 1e-12


def test_apply_local_accepts_local_unitary2():
    rng = np.random.default_rng(6)
    u = random_local_unitary(rng)
    state = random_state(9, (2, 2))
    direct = apply_local(state, u.matrix, np.eye(2))
    wrapped = apply_local(state, u, np.eye(2))
    assert np.allclose(direct.amplitudes, wrapped.amplitudes)


def test_apply_local_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply_local(ghz_state(2), np.eye(2), np.eye(3))


def test_local_unitary2_validation():
    u = LocalUnitary2(SQRT_HALF, SQRT_HALF * 1j)
    m = u.matrix
    assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-14)
    with pytest.raises(ValueError):
        LocalUnitary2(1.0, 1.0)


def test_random_state_determinism():
    a = random_state(12345, (2, 4))
    b = random_state(12345, (2, 4))
    c = random_state(54321, (2, 4))
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert abs(np.linalg.norm(a.amplitudes) - 1) < 1e-12
    assert np.max(np.abs(a.amplitudes - c.amplitudes)) > 1e-6


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(8)
    for n in (2, 3, 5):
        u = random_unitary(n, rng)
        assert np.allclose(u @ u.conj().T, np.eye(n), atol=1e-12)


def test_split_matrix_prefix_regroup():
    state = ghz_state(3)
    m2 = state.split_matrix(2)
    assert m2.shape == (2, 4)
    m4 = state.split_matrix(4)
    assert m4.shape == (4, 2)
    assert m4[0, 0] == SQRT_HALF and m4[3, 1] == SQRT_HALF


def test_split_matrix_rejects_bad_prefix():
    from hopfcon import SplitMismatchError
    with pytest.raises(SplitMismatchError):
        ghz_state(2).split_matrix(3)
    # an empty prefix multiplies to 1, and 2.0 equals 2 but is no dimension
    for bad in (lambda: ghz_state(3).split_matrix(1),
                lambda: minor_concurrence(ghz_state(3), 1),
                lambda: apply_local(ghz_state(3), np.eye(1), np.eye(8)),
                lambda: concurrence(ghz_state(3), 2.0)):
        with pytest.raises(SplitMismatchError):
            bad()
    assert ghz_state(3).split_matrix(np.int64(4)).shape == (4, 2)


def test_json_round_trip(tmp_path):
    state = random_state(77, (2, 2, 2))
    path = tmp_path / "state.json"
    save_state(state, path)
    loaded = load_state(path)
    assert loaded.dims == state.dims
    assert np.allclose(loaded.amplitudes, state.amplitudes, atol=1e-15)


def test_json_schema_shape(tmp_path):
    path = tmp_path / "ghz.json"
    save_state(ghz_state(2), path)
    payload = json.loads(path.read_text())
    assert payload["dims"] == [2, 2]
    assert payload["amplitudes"][0] == [SQRT_HALF, 0.0]
    assert len(payload["amplitudes"]) == 4


def test_json_rejects_non_normalized():
    payload = {"dims": [2], "amplitudes": [[1.0, 0.0], [0.1, 0.0]]}
    with pytest.raises(NormalizationError):
        _load_file(payload)
    with pytest.raises(DimensionMismatchError):
        _load_file({"dims": [2, 2]})


MALFORMED_DIMS = [2, [2.5, 2], ["a", 2], [None, 2], [2] * 64, [], [2] * 15000]


@pytest.mark.parametrize("dims", MALFORMED_DIMS,
                         ids=["scalar", "2.5", "a", "null", "64x2", "empty", "15000x2"])
def test_json_rejects_malformed_dims(dims):
    payload = {"dims": dims, "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(DimensionMismatchError) as info:
        _load_file(payload)
    if dims == [2] * 64:  # the true count, which np.prod would wrap to 0
        assert str(2 ** 64) in str(info.value)


def test_random_state_applies_the_dims_rule_before_counting():
    for dims in ((2.5, 2), (), (1, 4), ("2", 2)):
        with pytest.raises(DimensionMismatchError):
            random_state(1, dims)


def test_state_needs_at_least_one_factor():
    with pytest.raises(DimensionMismatchError):
        PureState((), [1.0])
    with pytest.raises(DimensionMismatchError):  # one amplitude matches math.prod(()) == 1
        _load_file({"dims": [], "amplitudes": [[1.0, 0.0]]})
    assert PureState((2,), [1.0, 0.0]).dims == (2,)


MALFORMED_FILES = {
    "unparseable": b'{"dims": [2], "amplitudes": [[1, 0], [0, 0]',
    "undecodable": b'{"dims": [2], "amplitudes": [[1, 0], [0, 0]], "note": "\xff"}',
    # past the digit limit json.loads refuses it; Python 3.10 has no limit, and complex() overflows
    "5000-digits": b'{"dims": [2], "amplitudes": [[1' + b"0" * 5000 + b', 0], [0, 0]]}',
    "float-overflow": b'{"dims": [2], "amplitudes": [[1' + b"0" * 400 + b', 0], [0, 0]]}',
    "deep": b"[" * 200000,
    # complex(True, 0) is 1, so these would load as |00> and |1>
    "boolean": b'{"dims": [2, 2], "amplitudes": [[true, 0], [0, 0], [0, 0], [0, 0]]}',
    "boolean-im": b'{"dims": [2], "amplitudes": [[0, 0], [1, false]]}',
    # null is None, which numpy would convert to NaN
    "null": b'{"dims": [2], "amplitudes": [[null, 0], [1, 0]]}',
}


@pytest.mark.parametrize("name", MALFORMED_FILES)
def test_malformed_state_file_raises_dimension_mismatch(name, tmp_path):
    content = MALFORMED_FILES[name]
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(DimensionMismatchError, match=r"\[re, im\]"):
        load_state(path)


def test_state_file_bytes_are_decoded_by_json(tmp_path):
    plain = tmp_path / "plain.json"
    save_state(random_state(78, (2, 2)), plain)
    text = plain.read_text()
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())  # a UTF-8 byte order mark
    assert np.array_equal(load_state(path).amplitudes, load_state(plain).amplitudes)
    assert np.array_equal(_load_file(text.encode("utf-16")).amplitudes,
                          load_state(plain).amplitudes)


class _BytesPath(os.PathLike):
    """A PathLike whose os.fspath is bytes, which os.fspath passes and pathlib refuses."""

    def __init__(self, path):
        self.path = path

    def __fspath__(self):
        return os.fsencode(self.path)


@pytest.mark.parametrize("call", [load_state, lambda path: save_state(ghz_state(2), path)],
                         ids=["load_state", "save_state"])
def test_a_path_like_giving_bytes_is_refused_by_the_object_rule(call, tmp_path):
    path = tmp_path / "state.json"
    save_state(ghz_state(2), path)  # a file that is there, so only the path's type is wrong
    with pytest.raises(DimensionMismatchError, match=r"^\w+ takes a str, got bytes$"):
        call(_BytesPath(path))


@pytest.mark.parametrize("call", [load_state, lambda path: save_state(ghz_state(2), path)],
                         ids=["load_state", "save_state"])
def test_an_empty_path_names_no_file(call, tmp_path, monkeypatch):
    # pathlib reads "" as ".", the current directory; the empty str names no file at all
    monkeypatch.chdir(tmp_path)
    with pytest.raises(FileNotFoundError) as info:
        call("")
    assert info.value.filename == ""


def test_make_state_reports_the_norm_before_the_count():
    with pytest.raises(NormalizationError):
        make_state((2, 2), [2, 0, 0])


def test_json_accepts_integral_float_dims():
    payload = {"dims": [2.0, 2], "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    assert _load_file(payload).dims == (2, 2)


@pytest.mark.parametrize("bad_input", [
    lambda: ghz_state(1),
    lambda: w_state(1),
    lambda: LocalUnitary2(1.0, 1.0),
    # NaN fails every comparison, so |a|^2 + |b|^2 - 1 > 1e-12 would let it through
    lambda: LocalUnitary2(float("nan"), 0.0),
    lambda: LocalUnitary2(1.0, complex(0.0, float("nan"))),
    lambda: PackedState(np.eye(2, 3)),
    lambda: right_module_action(pack(ghz_state(3), 2), LocalUnitary2(1, 0),
                                LocalUnitary2(1, 0)),
    lambda: random_state(-1, (2, 2)),
    # splits and shapes the hypercomplex routes cannot take
    lambda: concurrence(random_state(1, (3, 2)), 3),
    lambda: equivariance_error(random_state(1, (2, 2, 2)), LocalUnitary2(1, 0),
                               LocalUnitary2(1, 0)),
    lambda: apply_local(random_state(1, (2, 2)), np.eye(2, 3), np.eye(2)),
    lambda: apply_local(random_state(1, (2, 2)), np.eye(2), np.eye(2, 3)),
    # dims whose count has more than 4300 digits, which str() of an int refuses to print
    lambda: PureState((10 ** 5000,), [1.0]),
    lambda: random_state(1, (10 ** 5000,)),
    lambda: _load_file({"dims": [10 ** 3000] * 2, "amplitudes": [[1.0, 0.0]]}),
    # a dims rule failure must not print the huge entries either
    lambda: PureState((10 ** 5000, "a"), [1.0]),
    lambda: PureState((-10 ** 5000, 2), [1.0]),
    # amplitudes that do not convert to complex
    lambda: make_state((2,), [10 ** 400, 0]),
    lambda: make_state((2,), ["a", 1]),
    lambda: make_state((2,), [[1, 0], [0]]),
    lambda: PureState((2,), [10 ** 400, 0]),
    lambda: PureState((2,), ["a", 1]),
    lambda: PureState((2,), [[1, 0], [0]]),
    # text and booleans that numpy would convert to complex
    lambda: make_state((2,), ["1", "0"]),
    lambda: make_state((2,), [True, False]),
    lambda: PureState((2,), ["0.6", "0.8j"]),
    lambda: make_state((2,), [Fraction(1), "0"]),
    lambda: make_state((2,), [Fraction(1), False]),
    # numpy infers a number dtype for these, so the bool is lost unless the elements are read
    lambda: make_state((2,), [0, True]),
    lambda: make_state((2,), (1.0, np.False_)),
    lambda: make_state((2, 2), [[1, 0], [0.0, False]]),
    lambda: PureState((2,), [0j, True]),
    # finite numbers whose norm overflows: refused as norm inf, with no RuntimeWarning
    lambda: make_state((2,), [1e308, 0]),
    lambda: PureState((2,), [1e200, 1e200]),
    lambda: _load_file({"dims": [2], "amplitudes": [[1e308, 0], [0, 0]]}),
    lambda: PackedState(np.array([[1e200, 0, 0, 0], [0, 0, 0, 0]])),
    lambda: apply_local(random_state(1, (2, 2)), 1e200 * np.eye(2), 1e200 * np.eye(2)),
    lambda: LocalUnitary2(1e200, 0),
    # LocalUnitary2 and bytes take the amplitude rule too
    lambda: LocalUnitary2("1", 0),
    lambda: LocalUnitary2(True, 0),
    lambda: make_state((2,), [b"1", 0]),
    # a phase r * t that overflows to inf
    lambda: pauli_propagator(LocalHamiltonianSpec(0.9, 0.0, 1e200), 1e200),
    lambda: evolve_closed_form(0.3, LocalHamiltonianSpec(0.9, 0.0, 1e200),
                               LocalHamiltonianSpec(0.0, 0.0), 1e200),
    lambda: schmidt_trajectory(0.3, LocalHamiltonianSpec(0.9, 0.0, 1e200), [0.0, 1e200]),
    # PackedState rows take the amplitude rule, restricted to real numbers
    lambda: PackedState([["1", "0", "0", "0"]]),
    lambda: PackedState([[True, False, False, False]]),
    lambda: PackedState(np.eye(1, 4, dtype=bool)),
    lambda: PackedState(np.eye(1, 4, dtype="m8[s]")),
    lambda: PackedState([[None, 0, 0, 0]]),
    lambda: PackedState([[1, 0, 0, 0], [0, 1]]),
    lambda: PackedState([[[1, 0], 0, 0, 0]]),
    lambda: PackedState([Quaternion(1, 0, 0, 0)]),
    lambda: PackedState([[1j, 0, 0, 0]]),
    lambda: PackedState(np.eye(1, 4, dtype=complex)),
    # builders and dynamics parameters that are not numbers of the right kind
    lambda: ghz_state("3"),
    lambda: ghz_state(3.0),
    lambda: w_state("3"),
    lambda: random_state(1.5, (2, 2)),
    lambda: LocalHamiltonianSpec("a", 0),
    lambda: LocalHamiltonianSpec(0, 0, 1j),
    lambda: schmidt_trajectory("a", LocalHamiltonianSpec(0.9, 0.0), [0.0]),
    lambda: schmidt_trajectory(0.5, LocalHamiltonianSpec(0.9, 0.0), ["a"]),
    # a Decimal is a numbers.Number but not a numbers.Real
    lambda: schmidt_trajectory(Decimal("0.5"), LocalHamiltonianSpec(0.9, 0.0), [0.0]),
], ids=["ghz", "w", "unitary", "unitary-nan-a", "unitary-nan-b", "packed-shape",
        "module-action", "negative-seed", "concurrence-3xN",
        "equivariance-3-qubits", "apply-local-left-not-square", "apply-local-right-not-square",
        "huge-dim-state",
        "huge-dim-random", "huge-dims-json", "huge-dim-and-text", "huge-negative-dim",
        "make-huge-int", "make-text", "make-ragged",
        "state-huge-int", "state-text", "state-ragged", "make-numeric-text", "make-booleans",
        "state-numeric-text", "make-object-text", "make-object-boolean", "make-mixed-boolean",
        "make-mixed-boolean-tuple", "make-mixed-boolean-nested", "state-mixed-boolean",
        "make-norm-overflow", "state-norm-overflow", "json-norm-overflow",
        "packed-norm-overflow", "apply-local-overflow", "unitary-overflow", "unitary-text",
        "unitary-boolean", "make-bytes", "propagator-phase", "closed-form-phase",
        "trajectory-phase", "packed-text", "packed-booleans", "packed-boolean-array",
        "packed-duration-array", "packed-none", "packed-ragged", "packed-ragged-deeper",
        "packed-objects", "packed-complex", "packed-complex-array", "ghz-text", "ghz-float",
        "w-text", "random-float-seed", "spec-text-angle", "spec-complex-r",
        "trajectory-text-lam", "trajectory-text-time", "trajectory-decimal-lam"])
def test_bad_input_raises_a_hopfcon_error(bad_input):
    with pytest.raises(HopfconError):
        bad_input()


TWO_QUBITS = random_state(1, (2, 2))
SPEC = LocalHamiltonianSpec(0.9, 0.0)
UNIT = LocalUnitary2(1, 0)


@pytest.mark.parametrize("bad_input, error", [
    # the message would format an int past str()'s 4300 digits
    (lambda: ghz_state(10 ** 5000), SizeLimitError),
    (lambda: w_state(10 ** 5000), SizeLimitError),
    (lambda: concurrence(TWO_QUBITS, 10 ** 5000), SplitMismatchError),
    (lambda: pack(TWO_QUBITS, 10 ** 5000), SplitMismatchError),
    (lambda: minor_concurrence(TWO_QUBITS, 10 ** 5000), SplitMismatchError),
    # numpy would seed from the OS for None, a different state on every call
    (lambda: random_state(None, (2, 2)), ParameterError),
    (lambda: random_state(True, (2, 2)), ParameterError),
    (lambda: random_state([1], (2, 2)), ParameterError),
    # apply_local's matrices take the amplitude rule; numpy would convert the text
    (lambda: apply_local(TWO_QUBITS, [["1", "0"], ["0", "1"]], np.eye(2)), DimensionMismatchError),
    # the module action takes LocalUnitary2 elements, not their matrices
    (lambda: right_module_action(pack(TWO_QUBITS, 2), np.eye(2), UNIT), DimensionMismatchError),
    (lambda: right_module_action(pack(TWO_QUBITS, 2), UNIT, None), DimensionMismatchError),
    (lambda: equivariance_error(TWO_QUBITS, np.eye(2), UNIT), DimensionMismatchError),
    (lambda: equivariance_error(TWO_QUBITS, UNIT, np.eye(2)), DimensionMismatchError),
    # the dynamics read each parameter with the scalar reader of the number rule
    (lambda: pauli_propagator(SPEC, "1.5"), ParameterError),
    (lambda: LocalHamiltonianSpec(True, False, True), ParameterError),
    (lambda: LocalHamiltonianSpec(10 ** 400, 0), ParameterError),
    # a time grid is one-dimensional
    (lambda: schmidt_trajectory(0.5, SPEC, 1.0), DimensionMismatchError),
    (lambda: schmidt_trajectory(0.5, SPEC, [[0.0]]), DimensionMismatchError),
    # random_unitary counts n * n entries before it draws them, and prints neither
    (lambda: random_unitary("2", np.random.default_rng(0)), ParameterError),
    (lambda: random_unitary(0, np.random.default_rng(0)), ParameterError),
    (lambda: random_unitary(4097, np.random.default_rng(0)), SizeLimitError),
    (lambda: random_unitary(10 ** 5000, np.random.default_rng(0)), SizeLimitError),
    # numpy would read None as NaN and "1" as 1.0
    (lambda: Quaternion(None) * Quaternion(1), ParameterError),
    (lambda: Quaternion("1") * Quaternion("2"), ParameterError),
], ids=["ghz-5000-digits", "w-5000-digits", "concurrence-5000-digits", "pack-5000-digits",
        "minors-5000-digits", "seed-none", "seed-true", "seed-list", "apply-local-text",
        "module-action-matrix", "module-action-none", "equivariance-coefficient-matrix",
        "equivariance-fiber-matrix", "propagator-text-time", "spec-booleans", "spec-huge-int",
        "trajectory-scalar-times", "trajectory-2d-times", "random-unitary-text",
        "random-unitary-zero", "random-unitary-too-large", "random-unitary-5000-digits",
        "quaternion-none", "quaternion-text"])
def test_number_rule_refusals_raise_their_class(bad_input, error):
    with pytest.raises(error):
        bad_input()


def test_make_state_holds_one_copy_and_pure_state_copies_what_others_can_write():
    dims = (2,) * 16
    amps = random_state(5, dims).amplitudes * (1 + 3e-7)
    norm = float(np.linalg.norm(amps))
    tracemalloc.start()
    try:
        state = make_state(dims, amps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * amps.nbytes  # the renormalized state, not a second copy of it
    assert state.amplitudes.tobytes() == (amps / norm).tobytes()
    base = np.array([1, 0], dtype=complex)
    view = base.view()
    view.flags.writeable = False  # read-only, but its base is not
    for given in (base, view):
        assert not np.shares_memory(PureState((2,), given).amplitudes, base)


def test_builders_take_numpy_integers():
    assert ghz_state(np.int64(3)).dims == w_state(np.int32(3)).dims == (2, 2, 2)
    assert np.array_equal(random_state(np.int64(3), (2, 2)).amplitudes,
                          random_state(3, (2, 2)).amplitudes)


@pytest.mark.parametrize("bad_input", [
    # a and b of LocalUnitary2 are one number each, not sequences of equal length
    lambda: LocalUnitary2([1, 0], [0, 1]),
    lambda: LocalUnitary2([1], [0]),
    # numpy registers timedelta64 as a numbers.Number and converts it to complex, so
    # these would load as |0>; a JSON state file holds only ints and floats
    lambda: make_state((2,), np.array([1, 0], dtype="m8[s]")),
    lambda: make_state((2,), [np.timedelta64(1, "s"), 0]),
    lambda: PureState((2,), np.array([1, 0], dtype="m8[s]")),
    lambda: LocalUnitary2(np.timedelta64(1, "s"), 0),
], ids=["unitary-rows", "unitary-one-element-lists", "make-duration-array",
        "make-duration-list", "state-duration-array", "unitary-duration"])
def test_non_amplitudes_raise_dimension_mismatch(bad_input):
    with pytest.raises(DimensionMismatchError):
        bad_input()


def test_numbers_convert_and_a_complex_ndarray_is_not_copied():
    amps = np.array([0.6, 0.8j])
    assert as_amplitudes(amps) is amps
    assert as_amplitudes([0, 1.5, 10 ** 20, 2j]).tolist() == [0, 1.5, 1e20, 2j]
    assert as_amplitudes(((1, 0), (0, 1))).shape == (2, 2)


def test_packed_rows_take_real_numbers_and_copy_an_ndarray():
    rows = np.eye(1, 4)
    packed = PackedState(rows)
    assert packed.rows is not rows and packed.rows.tolist() == rows.tolist()
    assert PackedState([[Fraction(1), 0, 0, 0]]).rows.tolist() == [[1.0, 0.0, 0.0, 0.0]]


@pytest.mark.parametrize("qubits", range(1, 13))
def test_state_json_is_byte_identical_to_per_amplitude_pairs(qubits, tmp_path):
    state = random_state(qubits, (2,) * qubits)
    if qubits == 1:  # signed zeros and the smallest subnormal, in both parts
        state = PureState((2,), np.array([complex(-0.0, 5e-324), complex(1.0, -0.0)]))
    per_pair = [[float(a.real), float(a.imag)] for a in state.amplitudes]
    expected = json.dumps({"dims": list(state.dims), "amplitudes": per_pair})
    path = tmp_path / "state.json"
    save_state(state, path)
    assert path.read_bytes() == expected.encode()


def _per_pair(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


@pytest.mark.parametrize("qubits", range(1, 13))
def test_loaded_amplitudes_are_per_pair_complex_renormalized_bit_for_bit(qubits):
    # off unit norm within tolerance, so renormalizing moves bits
    amps = random_state(qubits, (2,) * qubits).amplitudes * (1 + 3e-7)
    pairs = [[a.real, a.imag] for a in amps.tolist()]
    expected = _per_pair(pairs)
    expected /= np.linalg.norm(expected)
    loaded = _load_file({"dims": [2] * qubits, "amplitudes": pairs})
    assert loaded.amplitudes.tobytes() == expected.tobytes()


def test_loader_converts_signed_zeros_subnormals_and_big_ints_as_complex_does(monkeypatch):
    pairs = [[-0.0, 0.6], [0.8, -0.0], [5e-324, -5e-324], [2 ** 53 + 1, 0]]
    seen = []
    monkeypatch.setattr(states, "make_state", lambda dims, amps: seen.append(amps))
    _load_file({"dims": [2, 2], "amplitudes": pairs})
    assert seen[0].tobytes() == _per_pair(pairs).tobytes()
