import contextlib
import functools
import io
import json
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from hopfcon import (concurrence, ghz_state, load_state, make_state, pack, pair_projections,
                     random_state, save_state, w_state)
from hopfcon.cli import main
from test_states import MALFORMED_FILES


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_concurrence_ghz3_all_methods(capsys):
    code, out, _ = run_cli(capsys, "concurrence", "--ghz", "3", "--split", "4xN",
                           "--method", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "hopf: 1.000000"
    assert lines[1] == "minors: 1.000000"
    assert lines[2].startswith("max discrepancy: ")
    assert float(lines[2].split(": ")[1]) < 1e-12


def test_concurrence_ghz3_2xn_includes_generators(capsys):
    code, out, _ = run_cli(capsys, "concurrence", "--ghz", "3", "--split", "2xN",
                           "--method", "all")
    assert code == 0
    assert "generators: 1.000000" in out


def test_concurrence_w3_hopf(capsys):
    code, out, _ = run_cli(capsys, "concurrence", "--w", "3", "--split", "2xN",
                           "--method", "hopf")
    assert code == 0
    assert out == "hopf: 0.942809\n"


def test_concurrence_product_state_file(tmp_path, capsys):
    left = np.array([0.6, 0.8j])
    right = np.array([0.5, -0.5, 0.5, 0.5j])
    path = tmp_path / "prod.json"
    save_state(make_state((2, 4), np.kron(left, right)), path)
    code, out, _ = run_cli(capsys, "concurrence", "--state", str(path),
                           "--split", "2xN", "--method", "minors")
    assert code == 0
    assert out == "minors: 0.000000\n"


def test_concurrence_requires_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "concurrence", "--split", "2xN")
    assert code == 1
    code, _, err = run_cli(capsys, "concurrence", "--ghz", "2", "--w", "2",
                           "--split", "2xN")
    assert code == 1


def test_generators_rejected_for_4xn(capsys):
    code, _, err = run_cli(capsys, "concurrence", "--ghz", "3", "--split", "4xN",
                           "--method", "generators")
    assert code == 1
    assert "generators" in err


def test_missing_state_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "concurrence", "--state", "/nonexistent.json",
                           "--split", "2xN")
    assert code == 1


def test_non_normalized_state_file_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": [2, 2],
                                "amplitudes": [[2, 0], [0, 0], [0, 0], [0, 0]]}))
    code, _, err = run_cli(capsys, "concurrence", "--state", str(path),
                           "--split", "2xN")
    assert code == 1


def test_state_file_with_string_amplitude_rejected(tmp_path, capsys):
    path = tmp_path / "text.json"
    path.write_text(json.dumps({"dims": [2, 2],
                                "amplitudes": [["a", 0], [0, 0], [0, 0], [1, 0]]}))
    code, _, err = run_cli(capsys, "concurrence", "--state", str(path), "--split", "2xN")
    assert code == 1
    assert "[re, im]" in err


@pytest.mark.parametrize("command", ["concurrence", "project"])
def test_split_without_right_factor_rejected(command, capsys):
    # a 2-qubit state has no qubits left over after a 4xN split
    code, out, err = run_cli(capsys, command, "--random", "3", "--qubits", "2",
                             "--split", "4xN")
    assert code == 1
    assert out == ""
    assert "cannot split" in err


@pytest.mark.parametrize("source", [["--random", "1", "--qubits", "48"], ["--ghz", "48"],
                                    ["--ghz", "15000"], ["--w", "15000"],
                                    ["--random", "1", "--qubits", "15000"],
                                    ["--random", "1", "--qubits", "1000000"]])
def test_state_above_amplitude_limit_rejected(source, capsys):
    code, out, err = run_cli(capsys, "concurrence", *source, "--split", "2xN",
                             "--method", "hopf")
    assert code == 1
    assert out == ""
    assert "limit" in err
    assert "hopf" not in err  # the hopf route is refused by the same limit


@pytest.mark.parametrize("args", [["concurrence", "--random", "-1", "--split", "2xN"],
                                  ["project", "--random", "-1", "--split", "2xN"],
                                  ["verify", "--seed", "-3"]])
def test_negative_seed_is_a_usage_error(args, capsys):
    code, out, err = run_cli(capsys, *args)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err


def test_project_above_pair_limit_rejected(capsys):
    # 13 qubits split 2xN: 4096 coefficients, a 4096 x 4096 pair grid
    code, out, err = run_cli(capsys, "project", "--random", "1", "--qubits", "13",
                             "--split", "2xN")
    assert code == 1
    assert out == ""
    assert "limit" in err
    assert "concurrence --method hopf" in err


def test_method_all_runs_every_oracle_at_12_qubits(capsys):
    # N = 2048: 2096128 column pairs per oracle sum, inside the cap of 2**22
    code, out, _ = run_cli(capsys, "concurrence", "--random", "1", "--qubits", "12",
                           "--split", "2xN", "--method", "all")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "hopf", "minors", "generators", "max discrepancy"]


def test_method_all_prints_nothing_when_a_route_refuses(capsys):
    # hopf runs at 13 qubits; the minors oracle then refuses its 4096 * 4095 / 2 column pairs
    code, out, err = run_cli(capsys, "concurrence", "--random", "1", "--qubits", "13",
                             "--split", "2xN", "--method", "all")
    assert code == 1
    assert out == ""
    assert "limit" in err
    assert "concurrence --method hopf" in err


@pytest.mark.parametrize("dims", [2, [2.5, 2], ["a", 2], [None, 2], [2] * 64, [],
                                  [10 ** 3000] * 2],
                         ids=["scalar", "2.5", "a", "null", "64x2", "empty", "huge"])
def test_state_file_with_malformed_dims_rejected(dims, tmp_path, capsys):
    path = tmp_path / "dims.json"
    path.write_text(json.dumps({"dims": dims,
                                "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}))
    code, out, err = run_cli(capsys, "concurrence", "--state", str(path), "--split", "2xN")
    assert code == 1
    assert out == ""
    assert "cannot load state file" in err


def test_state_file_with_no_factors_rejected(tmp_path, capsys):
    path = tmp_path / "dims.json"
    path.write_text(json.dumps({"dims": [], "amplitudes": [[1, 0]]}))
    code, out, err = run_cli(capsys, "concurrence", "--state", str(path), "--split", "2xN")
    assert code == 1
    assert out == ""
    assert "cannot load state file" in err


# not plain ValueErrors: OverflowError, RecursionError, and a boolean that complex() takes
@pytest.mark.parametrize("name", ["float-overflow", "deep", "boolean"])
def test_malformed_state_file_exits_1_without_traceback(name, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(MALFORMED_FILES[name])
    code, out, err = run_cli(capsys, "concurrence", "--state", str(path), "--split", "2xN")
    assert code == 1
    assert out == ""
    assert "cannot load state file" in err
    assert "Traceback" not in err


def test_deeply_nested_state_file_end_to_end(tmp_path):
    path = tmp_path / "deep.json"
    path.write_bytes(MALFORMED_FILES["deep"])
    result = subprocess.run(
        [sys.executable, "-m", "hopfcon", "concurrence", "--state", str(path), "--split", "2xN"],
        capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stdout == ""
    assert "cannot load state file" in result.stderr
    assert "Traceback" not in result.stderr


def test_overflowing_state_file_is_one_error_line_end_to_end(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dims": [2, 2],
                                "amplitudes": [[1e308, 0], [0, 0], [0, 0], [0, 0]]}))
    result = subprocess.run(
        [sys.executable, "-m", "hopfcon", "concurrence", "--state", str(path), "--split", "2xN"],
        capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()  # no RuntimeWarning lines before the error
    assert len(lines) == 1
    assert lines[0].startswith("error: cannot load state file: state norm inf ")


def test_zero_state_file_is_one_norm_error_line(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"dims": [2, 2], "amplitudes": [[0, 0]] * 4}))
    code, out, err = run_cli(capsys, "concurrence", "--state", str(path), "--split", "2xN")
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: cannot load state file: state norm 0.0 ")


def test_project_bell(capsys):
    code, out, _ = run_cli(capsys, "project", "--ghz", "2", "--split", "2xN")
    assert code == 0
    payload = json.loads(out)
    assert payload["split"] == "2xN"
    (pair,) = payload["pairs"]
    assert (pair["j"], pair["k"]) == (0, 1)
    assert pair["schmidt"] == [0.0, 0.0]
    assert abs(complex(*pair["concurrence_part"])) == pytest.approx(0.5, abs=1e-12)
    assert payload["concurrence"] == pytest.approx(1.0, abs=1e-12)


def test_project_ghz3_octonionic(capsys):
    code, out, _ = run_cli(capsys, "project", "--ghz", "3", "--split", "4xN")
    assert code == 0
    (pair,) = json.loads(out)["pairs"]
    assert pair["s0"] == [0.0, 0.0]
    assert pair["s1"] == [0.0, 0.0]
    assert pair["s2"] == [0.0, 0.0]
    assert abs(complex(*pair["s3"])) == pytest.approx(0.5, abs=1e-12)


def test_project_product_ket_all_zero(tmp_path, capsys):
    path = tmp_path / "zero.json"
    save_state(make_state((2, 2), [1, 0, 0, 0]), path)
    code, out, _ = run_cli(capsys, "project", "--state", str(path), "--split", "2xN")
    assert code == 0
    (pair,) = json.loads(out)["pairs"]
    assert pair["schmidt"] == [0.0, 0.0]
    assert pair["concurrence_part"] == [0.0, 0.0]


def _project_json(state, split):
    """json.dumps of the records built from one projection object per pair, through vars()."""
    left_dim = {"2xN": 2, "4xN": 4}[split]
    pairs = [{"j": j, "k": k, **{name: [z.real, z.imag] for name, z in vars(proj).items()}}
             for j, k, proj in pair_projections(pack(state, left_dim))]
    return json.dumps({"split": split, "pairs": pairs,
                       "concurrence": concurrence(state, left_dim)}) + "\n"


@pytest.mark.parametrize("split", ["2xN", "4xN"])
@pytest.mark.parametrize("build", [
    lambda: random_state(5, (2,) * 6), lambda: ghz_state(6), lambda: w_state(6),
    lambda: make_state((2,) * 6, functools.reduce(np.kron, [[0.6, 0.8j]] * 6)),
], ids=["random", "ghz", "w", "product"])
def test_project_json_matches_pair_projection_records(build, split, tmp_path, capsys):
    path = tmp_path / "state.json"
    save_state(build(), path)
    code, out, _ = run_cli(capsys, "project", "--state", str(path), "--split", split)
    assert code == 0
    assert out == _project_json(load_state(path), split)


@pytest.mark.parametrize("source, build", [
    (["--ghz", "2"], lambda: ghz_state(2)),
    (["--random", "1", "--qubits", "8"], lambda: random_state(1, (2,) * 8)),
], ids=["single-pair", "8128-pairs"])
def test_project_json_matches_records_at_one_and_many_rows(source, build, capsys):
    code, out, _ = run_cli(capsys, "project", *source, "--split", "2xN")
    assert code == 0
    assert out == _project_json(build(), "2xN")


def test_project_json_keeps_a_signed_zero(tmp_path, capsys):
    # the Schmidt part of pair (0, 1) has imaginary part 1e-170 * -1e-170, which rounds to -0.0
    path = tmp_path / "state.json"
    save_state(make_state((2, 2), [0, 1, 1e-170j, -1e-170]), path)
    code, out, _ = run_cli(capsys, "project", "--state", str(path), "--split", "2xN")
    assert code == 0
    assert re.search(r"-0\.0[,\]]", out)
    assert out == _project_json(load_state(path), "2xN")


class _Tally(io.TextIOBase):
    """A stdout that keeps only the number of pair records written to it and the last write."""

    def __init__(self):
        self.records, self.last = 0, ""

    def writable(self):
        return True

    def write(self, text):
        self.records += text.count('{"j": ')
        self.last = text
        return len(text)


def test_project_peak_memory_stays_near_the_pair_grid():
    # N = 512 coefficients: 130 816 pairs and an (N, N, 4) grid of 8 MiB
    n, sink = 512, _Tally()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["project", "--random", "1", "--qubits", "10", "--split", "2xN"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (sink.records, sink.last[-1:]) == (n * (n - 1) // 2, "\n")
    assert peak < 1.5 * (n * n * 4 * 8)  # the grid, read in place: about 1.13x


def test_evolve_half_weight_csv(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code, _, _ = run_cli(capsys, "evolve", "--lambda", "0.5", "--theta1", "0.7",
                         "--phi1", "0.3", "--t-max", "5", "--steps", "6",
                         "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,schmidt_re,schmidt_im,concurrence"
    assert len(lines) == 7
    for line in lines[1:]:
        t, re, im, conc = line.split(",")
        assert re == "0.000000" and im == "0.000000" and conc == "0.500000"
    assert lines[1].startswith("0.000000,")
    assert lines[-1].startswith("5.000000,")


def test_evolve_reference_row(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code, _, _ = run_cli(capsys, "evolve", "--lambda", "1.0", "--theta1",
                         str(math.pi / 2), "--phi1", "0", "--t-max", str(math.pi),
                         "--steps", "3", "--out", str(out_path))
    assert code == 0
    rows = out_path.read_text().strip().splitlines()[1:]
    t0 = rows[0].split(",")
    assert t0[1] == "0.000000" and t0[2] == "0.000000" and t0[3] == "0.000000"
    mid = rows[1].split(",")
    assert mid[2] == "0.500000"


def test_evolve_deterministic_bytes(tmp_path, capsys):
    args = ["evolve", "--lambda", "0.3", "--theta1", "1.0", "--phi1", "2.0",
            "--t-max", "7", "--steps", "25"]
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(path_a)]) == 0
    assert main(args + ["--out", str(path_b)]) == 0
    capsys.readouterr()
    assert path_a.read_bytes() == path_b.read_bytes()


def test_evolve_writes_each_row_as_it_is_formed(tmp_path, capsys):
    steps = 20000
    out_path = tmp_path / "traj.csv"
    tracemalloc.start()
    try:
        code = main(["evolve", "--lambda", "0.3", "--theta1", "0.9", "--t-max", "12",
                     "--steps", str(steps), "--out", str(out_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(out_path.read_bytes().splitlines()) == steps + 1
    # the time grid takes 8 B a row; holding every formatted row would take ~350 B a row
    assert peak <= 16 * steps + 2 ** 20


def test_evolve_rejects_bad_ranges(capsys):
    code, _, _ = run_cli(capsys, "evolve", "--lambda", "0.5", "--t-max", "-1",
                         "--steps", "5", "--out", "x.csv")
    assert code == 1
    code, _, _ = run_cli(capsys, "evolve", "--lambda", "0.5", "--t-max", "1",
                         "--steps", "1", "--out", "x.csv")
    assert code == 1


@pytest.mark.parametrize("option, value", [("--theta1", "nan"), ("--t-max", "inf")])
def test_evolve_rejects_non_finite(tmp_path, capsys, option, value):
    out_path = tmp_path / "traj.csv"
    args = {"--lambda": "0.5", "--t-max": "5", "--steps": "6", "--out": str(out_path)}
    args[option] = value
    code, _, err = run_cli(capsys, "evolve", *[x for pair in args.items() for x in pair])
    assert code == 1
    assert "finite" in err
    assert not out_path.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("option", ["--theta1", "--phi1", "--theta2", "--phi2", "--r"])
def test_evolve_non_finite_option_is_named(tmp_path, capsys, option, value):
    out_path = tmp_path / "traj.csv"
    code, _, err = run_cli(capsys, "evolve", "--lambda", "0.5", option, value, "--t-max", "5",
                           "--steps", "6", "--out", str(out_path))
    assert code == 1
    assert err.startswith(f"error: argument {option}: {value} is not a finite number\n")
    assert not out_path.exists()


def test_evolve_lambda_nan_names_the_option(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "evolve", "--lambda", "nan", "--t-max", "1",
                           "--steps", "3", "--out", "x.csv")
    assert code == 1
    assert "--lambda" in err


def test_verify_passes_and_is_deterministic(capsys):
    code_a, out_a, _ = run_cli(capsys, "verify", "--seed", "7", "--trials", "2")
    code_b, out_b, _ = run_cli(capsys, "verify", "--seed", "7", "--trials", "2")
    assert code_a == code_b == 0
    assert out_a == out_b
    lines = out_a.strip().splitlines()
    assert lines[-1] == "all suites passed"
    assert len(lines) == 5
    for line in lines[:-1]:
        assert ": PASS" in line


def test_verify_single_trial_runs_every_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "1", "--trials", "1")
    assert code == 0
    for name in ("oracle-equivalence", "local-unitary-invariance",
                 "equivariance", "norm-composition"):
        assert name in out


def test_discrepancy_exit_code(monkeypatch, capsys):
    # force a disagreement between methods to exercise the failure wiring
    import hopfcon.cli as cli_mod
    monkeypatch.setitem(cli_mod.ROUTES, "minors", lambda state, d: 0.25)
    code, out, err = run_cli(capsys, "concurrence", "--ghz", "2", "--split", "2xN",
                             "--method", "all")
    assert code == 2
    assert "discrepancy exceeds tolerance" in err


def test_verify_failure_exit_code(monkeypatch, capsys):
    import hopfcon.cli as cli_mod
    broken = (("broken-suite", lambda rng, trials: iter([1.0]), 1e-12),)
    monkeypatch.setattr(cli_mod, "VERIFY_SUITES", broken)
    code, out, err = run_cli(capsys, "verify", "--trials", "1")
    assert code == 2
    assert "FAIL" in out


def test_console_entry_point_end_to_end(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "hopfcon", "concurrence", "--ghz", "4",
         "--split", "4xN", "--method", "all"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "hopf: 1.000000"

    result = subprocess.run(
        [sys.executable, "-m", "hopfcon", "concurrence", "--ghz", "3",
         "--split", "4xN", "--method", "generators"],
        capture_output=True, text=True)
    assert result.returncode == 1


HELP_OPTIONS = {
    (): ["--help", "concurrence", "project", "evolve", "verify"],
    ("concurrence",): ["--state", "--ghz", "--w", "--random", "--qubits", "--split", "--method"],
    ("project",): ["--state", "--ghz", "--w", "--random", "--qubits", "--split"],
    ("evolve",): ["--lambda", "--theta1", "--phi1", "--theta2", "--phi2", "--r", "--t-max",
                  "--steps", "--out"],
    ("verify",): ["--seed", "--trials"],
}


def test_help_exits_zero(capsys):
    for command, names in HELP_OPTIONS.items():
        code, out, err = run_cli(capsys, *command, "--help")
        assert code == 0
        assert err == ""
        for name in names:
            assert name in out


@pytest.mark.parametrize("args", [
    ["concurrence", "--random", "1", "--qubits", "1", "--split", "2xN"],
    ["concurrence", "--ghz", "1", "--split", "2xN"],
    ["concurrence", "--w", "1", "--split", "2xN"],
    ["concurrence", "--ghz", "3", "--split", "3xN"],
    ["concurrence", "--ghz", "3", "--split", "2xN", "--method", "bogus"],
    ["evolve", "--lambda", "1.5", "--t-max", "1", "--steps", "3", "--out", "x.csv"],
    ["evolve", "--lambda", "0.5", "--r", "-0.5", "--t-max", "1", "--steps", "3", "--out", "x.csv"],
    ["evolve", "--lambda", "0.5", "--t-max", "1", "--steps", "1", "--out", "x.csv"],
    ["evolve", "--lambda", "0.5", "--t-max", "1", "--steps", "1000000000000", "--out", "x.csv"],
    # not a usage error, but the same outcome: the phase r * t overflows to inf
    ["evolve", "--lambda", "0.3", "--theta1", "0.9", "--r", "1e200", "--t-max", "1e200",
     "--steps", "3", "--out", "x.csv"],
    ["evolve", "--lambda", "0.5", "--t-max", "1", "--steps", "3", "--out", "missing/x.csv"],
    ["verify", "--trials", "0"],
    ["verify", "--seed", "-1"],
    ["concurrence", "--ghz", "3", "--split", "2xN", "--bogus", "1"],
    ["concurrence", "--random", "1", "--qub", "3", "--split", "2xN"],
    ["bogus"],
    [],
    ["concurrence", "--ghz", "3"],
    # --qubits sizes --random only; with another source it would be silently ignored
    ["concurrence", "--w", "3", "--qubits", "10", "--split", "2xN", "--method", "hopf"],
    # a bare -- is no option's value: attached, argparse would strip it to an empty list
    ["evolve", "--lambda", "0.5", "--t-max", "--", "--steps", "3", "--out", "x.csv"],
    ["evolve", "--lambda", "0.5", "--t-max", "1", "--steps", "--", "--out", "x.csv"],
    ["evolve", "--lambda", "0.5", "--t-max", "1", "--steps", "3", "--out", "--"],
    ["concurrence", "--state", "--", "--split", "2xN"],
    ["concurrence", "--random", "1", "--qubits", "--", "--split", "2xN"],
    ["verify", "--trials", "--"],
    ["verify", "--seed", "--"],
], ids=["qubits-1", "ghz-1", "w-1", "split-3xN", "method-bogus", "lambda-1.5", "r-negative",
        "steps-1", "steps-huge", "phase-overflow", "out-missing-dir", "trials-0", "seed-negative",
        "unknown-option", "abbreviation", "unknown-command", "no-command", "missing-split",
        "qubits-without-random", "t-max-dashes", "steps-dashes", "out-dashes", "state-dashes",
        "qubits-dashes", "trials-dashes", "seed-dashes"])
def test_usage_error_exits_1(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # evolve must not get as far as writing x.csv
    code, out, err = run_cli(capsys, *args)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()
    if "missing/x.csv" in args:  # the directory does not exist, so open() fails
        assert "cannot write" in err


def test_values_starting_with_a_dash_reach_their_options(tmp_path, monkeypatch, capsys):
    # an option takes the next word as its value even when that starts with '-'
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "evolve", "--lambda", "0.5", "--theta1", "-1e-3",
                           "--phi1", "-2", "--t-max", "1", "--steps", "3", "--out", "-traj.csv")
    assert (code, err) == (0, "")
    assert (tmp_path / "-traj.csv").read_text().startswith("t,schmidt_re,schmidt_im,concurrence\n")


def test_importing_the_cli_leaves_click_out():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, hopfcon.cli; print('click' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


def test_closed_stdout_ends_quietly():
    # ~600 kB of JSON: far more than a pipe holds, so writes are still due when it closes
    proc = subprocess.Popen(
        [sys.executable, "-m", "hopfcon", "project", "--random", "1", "--qubits", "8",
         "--split", "4xN"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(50)) == 50
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
