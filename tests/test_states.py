import json
import math
from fractions import Fraction

import numpy as np
import pytest

from hopfcon import (DimensionMismatchError, HopfconError, LocalHamiltonianSpec, LocalUnitary2,
                     NormalizationError, PackedState, PureState, SizeLimitError, ZeroNormError,
                     apply_local, evolve_closed_form, ghz_state, load_state, make_state,
                     pauli_propagator,
                     products, quaternify, random_local_unitary, random_state,
                     random_unitary, right_module_action, save_state,
                     schmidt_trajectory, state_from_json, state_to_json, w_state)
from hopfcon.states import _as_amplitudes

SQRT_HALF = 1 / math.sqrt(2)


def test_make_state_bell():
    state = make_state((2, 2), [SQRT_HALF, 0, 0, SQRT_HALF])
    assert state.dims == (2, 2)
    assert np.allclose(state.amplitudes, [SQRT_HALF, 0, 0, SQRT_HALF])
    assert abs(state.norm() - 1) < 1e-15


def test_make_state_renormalizes_exactly():
    state = make_state((2, 2), [1 + 3e-7, 0, 0, 0])
    assert state.amplitudes[0] == 1.0


def test_make_state_errors():
    with pytest.raises(ZeroNormError):
        make_state((2, 2), [0, 0, 0, 0])
    with pytest.raises(DimensionMismatchError):
        make_state((2, 2), [1, 0, 0])
    with pytest.raises(NormalizationError):
        make_state((2, 2), [2, 0, 0, 0])


def test_make_state_rejects_nan():
    with pytest.raises(NormalizationError):
        make_state((2, 2), [math.nan, 0, 0, 1])


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
    assert abs(state.norm() - 1) < 1e-15


@pytest.mark.parametrize("m", [2, 3, 5])
def test_w_state(m):
    state = w_state(m)
    nonzero = set(np.flatnonzero(state.amplitudes))
    assert nonzero == {2 ** i for i in range(m)}
    assert np.allclose(state.amplitudes[sorted(nonzero)], 1 / math.sqrt(m))
    assert abs(state.norm() - 1) < 1e-15


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
        assert abs(moved.norm() - 1) < 1e-12


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
    assert abs(a.norm() - 1) < 1e-12
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


def test_json_round_trip(tmp_path):
    state = random_state(77, (2, 2, 2))
    path = tmp_path / "state.json"
    save_state(state, path)
    loaded = load_state(path)
    assert loaded.dims == state.dims
    assert np.allclose(loaded.amplitudes, state.amplitudes, atol=1e-15)


def test_json_schema_shape():
    payload = json.loads(state_to_json(ghz_state(2)))
    assert payload["dims"] == [2, 2]
    assert payload["amplitudes"][0] == [SQRT_HALF, 0.0]
    assert len(payload["amplitudes"]) == 4


def test_json_rejects_non_normalized():
    payload = {"dims": [2], "amplitudes": [[1.0, 0.0], [0.1, 0.0]]}
    with pytest.raises(NormalizationError):
        state_from_json(json.dumps(payload))
    with pytest.raises(DimensionMismatchError):
        state_from_json(json.dumps({"dims": [2, 2]}))


MALFORMED_DIMS = [2, [2.5, 2], ["a", 2], [None, 2], [2] * 64, [], [2] * 15000]


@pytest.mark.parametrize("dims", MALFORMED_DIMS,
                         ids=["scalar", "2.5", "a", "null", "64x2", "empty", "15000x2"])
def test_json_rejects_malformed_dims(dims):
    payload = {"dims": dims, "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(DimensionMismatchError) as info:
        state_from_json(json.dumps(payload))
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
        state_from_json(json.dumps({"dims": [], "amplitudes": [[1.0, 0.0]]}))
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
}


@pytest.mark.parametrize("name", MALFORMED_FILES)
def test_malformed_state_file_raises_dimension_mismatch(name, tmp_path):
    content = MALFORMED_FILES[name]
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(DimensionMismatchError, match=r"\[re, im\]"):
        load_state(path)
    with pytest.raises(DimensionMismatchError):
        state_from_json(content)


def test_state_file_bytes_are_decoded_by_json(tmp_path):
    text = state_to_json(random_state(78, (2, 2)))
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())  # a UTF-8 byte order mark
    assert np.array_equal(load_state(path).amplitudes, state_from_json(text).amplitudes)
    assert np.array_equal(state_from_json(text.encode("utf-16")).amplitudes,
                          state_from_json(text).amplitudes)


def test_make_state_reports_the_norm_before_the_count():
    with pytest.raises(NormalizationError):
        make_state((2, 2), [2, 0, 0])


def test_json_accepts_integral_float_dims():
    payload = {"dims": [2.0, 2], "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    assert state_from_json(json.dumps(payload)).dims == (2, 2)


@pytest.mark.parametrize("bad_input", [
    lambda: ghz_state(1),
    lambda: w_state(1),
    lambda: LocalUnitary2(1.0, 1.0),
    lambda: products([[1.0, 0, 0]], [[1.0, 0, 0]]),
    lambda: PackedState(np.eye(2, 3)),
    lambda: right_module_action(quaternify(ghz_state(3)), LocalUnitary2(1, 0),
                                LocalUnitary2(1, 0)),
    lambda: random_state(-1, (2, 2)),
    # dims whose count has more than 4300 digits, which str() of an int refuses to print
    lambda: PureState((10 ** 5000,), [1.0]),
    lambda: random_state(1, (10 ** 5000,)),
    lambda: state_from_json(json.dumps({"dims": [10 ** 3000] * 2, "amplitudes": [[1.0, 0.0]]})),
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
    # a phase r * t that overflows to inf
    lambda: pauli_propagator(LocalHamiltonianSpec(0.9, 0.0, 1e200), 1e200),
    lambda: evolve_closed_form(0.3, LocalHamiltonianSpec(0.9, 0.0, 1e200),
                               LocalHamiltonianSpec(0.0, 0.0), 1e200),
    lambda: schmidt_trajectory(0.3, LocalHamiltonianSpec(0.9, 0.0, 1e200), [0.0, 1e200]),
], ids=["ghz", "w", "unitary", "products", "packed-shape", "module-action",
        "negative-seed", "huge-dim-state", "huge-dim-random", "huge-dims-json",
        "huge-dim-and-text", "huge-negative-dim", "make-huge-int", "make-text", "make-ragged",
        "state-huge-int", "state-text", "state-ragged", "make-numeric-text", "make-booleans",
        "state-numeric-text", "make-object-text", "make-object-boolean", "make-mixed-boolean",
        "make-mixed-boolean-tuple", "make-mixed-boolean-nested", "state-mixed-boolean",
        "propagator-phase", "closed-form-phase", "trajectory-phase"])
def test_bad_input_raises_a_hopfcon_error(bad_input):
    with pytest.raises(HopfconError):
        bad_input()


def test_numbers_convert_and_a_complex_ndarray_is_not_copied():
    amps = np.array([0.6, 0.8j])
    assert _as_amplitudes(amps) is amps
    assert _as_amplitudes([0, 1.5, 10 ** 20, 2j]).tolist() == [0, 1.5, 1e20, 2j]
    assert _as_amplitudes(((1, 0), (0, 1))).shape == (2, 2)
