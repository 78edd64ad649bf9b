import argparse
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cartanbundle
from cartanbundle import cli, grassmann, sampling
from cartanbundle.cli import main
from cartanbundle.config import Tolerances
from cartanbundle.serialize import (
    bundle_point_to_json,
    cartan_motion_to_json,
    cartan_rotation_to_json,
    dumps,
    mat_from_json,
    mat_to_json,
    motion_to_json,
    plane_to_json,
    screw_to_json,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# command -> the Tolerances fields its maps read, the --tol.* flags it takes
TOL_FIELDS = {
    "exp": set(),
    "log": {"orth", "branch"},
    "embed": {"orth", "invol", "fiber"},
    "project": {"orth", "invol", "fiber"},
    "act": {"orth", "fiber"},
    "transport": {"orth", "fiber"},
    "tau": {"orth", "invol", "fiber"},
    "sample": set(),
    "verify": {"orth", "invol", "branch", "plane", "fiber"},
    "moebius": set(),
}

# command -> the dimension flags it takes: those whose value nothing in its input carries
DIM_FLAGS = {"act": {"p"}, "tau": {"p"}, "sample": {"n", "p"}, "verify": {"n", "p"}}

PINNED = json.loads((Path(__file__).parent / "data" / "sample_streams.json").read_text())


def _floats(obj) -> list:
    """Every float of a JSON value, in key order."""
    if isinstance(obj, dict):
        return [x for key in sorted(obj) for x in _floats(obj[key])]
    if isinstance(obj, list):
        return [x for item in obj for x in _floats(item)]
    return [obj] if isinstance(obj, float) else []


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dumps(obj))
    return str(path)


class TestExpLog:
    def test_so_exp_quarter_turn(self, tmp_path, capsys):
        infile = write_json(
            tmp_path, "w.json", mat_to_json(np.array([[0.0, -math.pi / 2], [math.pi / 2, 0.0]]))
        )
        code, out, err = run_cli(capsys, "exp", "--in", infile)
        assert code == 0 and err == ""
        R = mat_from_json(json.loads(out))
        assert np.allclose(R, [[0, -1], [1, 0]], atol=1e-12)

    def test_se_roundtrip_via_files(self, tmp_path, capsys):
        screw = {
            "omega": mat_to_json(np.array([[0.0, -0.9], [0.9, 0.0]])),
            "v": [0.3, -0.7],
        }
        infile = write_json(tmp_path, "xi.json", screw)
        outfile = str(tmp_path / "g.json")
        code, _, _ = run_cli(capsys, "exp", "--in", infile, "--out", outfile)
        assert code == 0
        code, out, err = run_cli(capsys, "log", "--in", outfile)
        assert code == 0
        back = json.loads(out)
        assert np.allclose(mat_from_json(back["omega"]), [[0, -0.9], [0.9, 0]], atol=1e-10)
        assert np.allclose(back["v"], [0.3, -0.7], atol=1e-10)

    def test_log_branch_error(self, tmp_path, capsys):
        infile = write_json(tmp_path, "r.json", mat_to_json(-np.eye(2)))
        code, out, err = run_cli(capsys, "log", "--in", infile)
        assert code == 1
        msg = json.loads(err)
        assert msg["error"] == "log_branch_ambiguity"
        code, out, _ = run_cli(capsys, "log", "--allow-pi", "--in", infile)
        assert code == 0


class TestEmbedProject:
    def test_plane_embed(self, tmp_path, capsys):
        phi = 0.4
        frame = mat_to_json(np.array([[math.cos(phi)], [math.sin(phi)]]))
        infile = write_json(tmp_path, "plane.json", {"n": 2, "p": 1, "frame": frame})
        code, out, _ = run_cli(capsys, "embed", "--in", infile)
        assert code == 0
        obj = json.loads(out)
        R = mat_from_json(obj["R"])
        c, s = math.cos(2 * phi), math.sin(2 * phi)
        assert np.allclose(R, [[c, -s], [s, c]], atol=1e-12)
        assert obj["p"] == 1 and obj["q"] == 1

    def test_project_rotation(self, tmp_path, capsys):
        theta = 1.2
        c, s = math.cos(theta), math.sin(theta)
        infile = write_json(tmp_path, "r.json", {"R": mat_to_json(np.array([[c, -s], [s, c]])), "p": 1, "q": 1})
        code, out, _ = run_cli(capsys, "project", "--in", infile)
        assert code == 0
        frame = mat_from_json(json.loads(out)["frame"])
        V = np.array([math.cos(theta / 2), math.sin(theta / 2)])
        assert np.linalg.norm(np.outer(frame[:, 0], frame[:, 0]) - np.outer(V, V)) <= 1e-10

    @pytest.mark.parametrize("kind", ["plane", "bundle_point"])
    def test_project_reads_what_embed_writes(self, tmp_path, capsys, kind):
        # project took a bare matrix with --n --p, and exited 1 on embed's {"R", "p", "q"}
        code, out, _ = run_cli(capsys, "sample", "--kind", kind, "--n", "4", "--p", "2", "--samples", "1")
        assert code == 0
        value = json.loads(out)["values"][0]
        code, embedded, _ = run_cli(capsys, "embed", "--in", write_json(tmp_path, "in.json", value))
        assert code == 0
        code, out, err = run_cli(capsys, "project", "--in", write_json(tmp_path, "embedded.json", json.loads(embedded)))
        assert (code, err) == (0, "")
        back = json.loads(out)
        if kind == "bundle_point":
            assert np.linalg.norm(np.subtract(back["fiber"], value["fiber"])) <= 1e-12
            value, back = value["plane"], back["plane"]
        assert (back["n"], back["p"]) == (4, 2)
        F, G = mat_from_json(value["frame"]), mat_from_json(back["frame"])
        assert np.linalg.norm(F @ F.T - G @ G.T) <= 1e-12

    def test_embed_of_a_plane_with_p_equal_to_n(self, tmp_path, capsys):
        infile = write_json(tmp_path, "plane.json", {"n": 3, "p": 3, "frame": mat_to_json(np.eye(3))})
        code, out, err = run_cli(capsys, "embed", "--in", infile)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "dimension_mismatch"


class TestSample:
    def test_byte_determinism(self, capsys):
        code1, out1, _ = run_cli(capsys, "sample", "--kind", "motion", "--n", "4", "--seed", "7", "--samples", "5")
        code2, out2, _ = run_cli(capsys, "sample", "--kind", "motion", "--n", "4", "--seed", "7", "--samples", "5")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run_cli(capsys, "sample", "--kind", "rotation", "--n", "3", "--seed", "1", "--samples", "2")
        _, out2, _ = run_cli(capsys, "sample", "--kind", "rotation", "--n", "3", "--seed", "2", "--samples", "2")
        assert out1 != out2

    def test_missing_dims(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--kind", "rotation")
        assert code == 1
        assert json.loads(err)["error"] == "dimension_mismatch"

    @pytest.mark.parametrize(
        "kind, n", [("unit_direction", 1), ("rotation", 0), ("skew", 0), ("screw", 0), ("motion", 0)]
    )
    def test_too_small_n(self, capsys, kind, n):
        code, out, err = run_cli(capsys, "sample", "--kind", kind, "--n", str(n))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "dimension_mismatch"

    @pytest.mark.parametrize("kind", sorted(cli.SAMPLERS))
    def test_streams_are_pinned(self, capsys, kind):
        # Planes and bundle points are pinned within rounding: their pinned
        # frames came from Gram-Schmidt, today's from a sign-fixed QR.
        argv = PINNED["argv"][1:]
        if not cli.SAMPLERS[kind][0]:  # a kind that does not read --p is not given it
            i = argv.index("--p")
            argv = argv[:i] + argv[i + 2:]
        code, out, _ = run_cli(capsys, "sample", "--kind", kind, *argv)
        assert code == 0
        if kind in PINNED["sha256"]:
            assert hashlib.sha256(out.encode()).hexdigest() == PINNED["sha256"][kind]
        else:
            got, want = _floats(json.loads(out)["values"]), _floats(PINNED["values"][kind])
            assert len(got) == len(want) and np.abs(np.subtract(got, want)).max() <= 1e-14


class TestVerify:
    def test_verify_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "4", "--p", "2", "--samples", "40", "--seed", "3")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert all(r["pass"] for r in report["properties"])

    def test_an_orthonormality_override_reaches_the_sampled_planes(self, capsys):
        # the projector row's planes are checked under --tol.orth, not the defaults
        code, out, _ = run_cli(
            capsys, "verify", "--n", "4", "--p", "2", "--samples", "20", "--seed", "5",
            "--tol.orth", "1e-20",
        )
        assert code == 2
        rows = {r["name"]: r for r in json.loads(out)["properties"]}
        assert rows["matcore.projector_idempotent_symmetric"]["pass"] is False

    def test_verify_fails_with_absurd_tolerance(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "4", "--p", "2", "--samples", "10",
            "--tol.invol", "1e-30",
        )
        assert code == 2
        assert json.loads(out)["pass"] is False

    def test_failing_report_is_strict_json(self, capsys):
        # tol.branch 0.3 makes three properties raise, so their max_error is
        # infinite; strict JSON has no token for that, so it is written null.
        code, out, _ = run_cli(
            capsys, "verify", "--n", "8", "--p", "3", "--samples", "10", "--seed", "5",
            "--tol.branch", "0.3",
        )
        assert code == 2

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads(out, parse_constant=reject)
        raised = [r for r in report["properties"] if r["samples"] == 0]
        assert len(raised) == 3
        assert all(r["max_error"] is None and r["pass"] is False for r in raised)


class TestMoebius:
    def test_csv_row_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "moebius", "--format", "csv",
            "--num-theta", "64", "--num-lambda", "9",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 64 * 9 + 1
        assert lines[0].startswith("theta,")

    def test_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "moebius", "--num-theta", "4", "--num-lambda", "3")
        assert code == 0
        records = [json.loads(line) for line in out.strip().split("\n")]
        assert len(records) == 12
        assert "line_angle" in records[0]

    @pytest.mark.parametrize("lambda_max", ["inf", "nan", "1e200"])
    def test_lambda_max_outside_the_domain(self, capsys, lambda_max):
        # inf raised two RuntimeWarnings in linspace first, and 1e200 wrote
        # records that motion_from_json rejects
        code, out, err = run_cli(capsys, "moebius", "--lambda-max", lambda_max)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "dimension_mismatch"


class TestErrorHandling:
    def test_bad_json_input(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "exp", "--in", str(path))
        assert code == 1
        assert json.loads(err)["error"] == "invalid_input"

    def test_float_matrix_dimension_is_dimension_mismatch(self, tmp_path, capsys):
        # rows 2.7 used to be read as 2, and the matrix as the 2 x 2 identity
        path = tmp_path / "w.json"
        path.write_text('{"rows": 2.7, "cols": 2, "data": [0, -1, 1, 0]}')
        code, out, err = run_cli(capsys, "exp", "--in", str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "dimension_mismatch"

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert json.loads(err)["error"] == "bad_arguments"

    def test_tol_override_flag(self, tmp_path, capsys):
        # a wider branch bound makes the log refuse an angle near pi that the default allows
        angle = math.pi - 1e-5
        c, s = math.cos(angle), math.sin(angle)
        motion = {"R": mat_to_json(np.array([[c, -s], [s, c]])), "X": [0.3, -0.7]}
        infile = write_json(tmp_path, "g.json", motion)
        code, out, err = run_cli(capsys, "log", "--in", infile, "--tol.branch=1e-3")
        assert code == 1
        assert json.loads(err)["error"] == "log_branch_ambiguity"
        code, out, err = run_cli(capsys, "log", "--in", infile)
        assert code == 0

    def test_unknown_tol_name(self, capsys):
        code, _, err = run_cli(capsys, "log", "--tol.eig", "1e-7")
        assert code == 1
        assert json.loads(err)["error"] == "bad_arguments"

    def test_bad_tol_value(self, capsys):
        code, _, err = run_cli(capsys, "log", "--tol.orth", "abc")
        assert code == 1
        assert json.loads(err)["error"] == "bad_arguments"

    def test_tol_flag_before_the_subcommand(self, capsys):
        code, out, err = run_cli(capsys, "--tol.orth", "1e-3", "log")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "bad_arguments"

    @pytest.mark.parametrize("argv", [
        ["exp", "--tol.orth"],
        ["sample", "--kind", "rotation", "--n", "3", "--tol.orth"],
        ["moebius", "--tol.orth"],
        ["log", "--tol.invol"],
        ["embed", "--tol.sing"],
        ["project", "--tol.sing"],
        ["act", "--p", "2", "--tol.plane"],
        ["transport", "--tol.invol"],
        ["tau", "--p", "2", "--tol.branch"],
        ["verify", "--n", "4", "--p", "2", "--tol.rank"],
    ], ids=["exp", "sample", "moebius", "log-invol", "embed-sing", "project-sing",
            "act-plane", "transport-invol", "tau-branch", "verify-rank"])
    def test_a_command_that_reads_no_tolerance_takes_no_tol_flag(self, capsys, argv):
        # a command takes only the --tol.* flags of the fields its maps read
        code, out, err = run_cli(capsys, *argv, "1e-9")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "bad_arguments"

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_tol_value_must_be_finite_and_positive(self, tmp_path, capsys, value):
        # The src frame [2, 0, 0] is not unit. Under a NaN orth bound the frame
        # check passed, and transport printed a "motion" whose R had det 2.
        def point(frame):
            plane = {"n": 3, "p": 1, "frame": {"rows": 3, "cols": 1, "data": frame}}
            return {"plane": plane, "fiber": [0, 0, 0]}

        infile = write_json(tmp_path, "t.json", {"src": point([2, 0, 0]), "dst": point([0, 1, 0])})
        code, out, err = run_cli(capsys, "transport", "--in", infile, "--tol.orth", value)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "invalid_input"
        code, out, err = run_cli(capsys, "transport", "--in", infile)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "degenerate_spanning_set"  # the default bound holds

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_help_lists_every_tol_flag(self, capsys, command):
        # each command lists the --tol.* flags of the fields its maps read, and no other
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        assert set(re.findall(r"--tol\.(\w+)", capsys.readouterr().out)) == TOL_FIELDS[command]

    def test_matrix_data_that_is_not_a_flat_list_of_numbers(self, tmp_path, capsys):
        # ["a", 1] raised a raw ValueError, which exited as invalid_input
        path = tmp_path / "w.json"
        path.write_text('{"rows": 1, "cols": 2, "data": ["a", 1]}')
        code, out, err = run_cli(capsys, "exp", "--in", str(path))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "dimension_mismatch"

    @pytest.mark.parametrize(
        "argv",
        [
            ("exp", "--format", "csv"),
            ("exp", "--seed", "3"),
            ("verify", "--in", "x.json"),
            ("moebius", "--n", "4"),
            ("transport", "--samples", "2"),
            ("sample", "--kind", "rotation", "--n", "3", "--p", "2"),
            ("sample", "--kind", "unit_direction", "--n", "3", "--p", "1"),
            ("project", "--n", "4", "--p", "2"),
            ("tau", "--n", "4", "--p", "2"),
            ("act", "--n", "4", "--p", "2"),
        ],
        ids=" ".join,
    )
    def test_flag_the_command_does_not_read(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "bad_arguments"

    @pytest.mark.parametrize(
        "argv",
        [
            ("exp", "--se", "--so"),
            ("log", "--so", "--se", "--allow-pi"),
            ("act", "--p", "2", "--twisted", "--bundle"),
        ],
        ids=" ".join,
    )
    def test_conflicting_mode_switches(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "bad_arguments"

    @pytest.mark.parametrize(
        "argv",
        [
            ("moebius", "--num-t", "2", "--num-l", "1"),
            ("verify", "--n", "4", "--p", "2", "--samp", "5"),
            ("log", "--allow", "--in", "r.json"),
        ],
        ids=" ".join,
    )
    def test_flag_prefix_is_not_the_flag(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "bad_arguments"

    @pytest.mark.parametrize("samples", ["0", "-4"])
    @pytest.mark.parametrize(
        "argv", [("sample", "--kind", "rotation", "--n", "2"), ("verify", "--n", "4", "--p", "2")],
        ids=lambda argv: argv[0],
    )
    def test_samples_below_one(self, capsys, argv, samples):
        code, out, err = run_cli(capsys, *argv, "--samples", samples)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "bad_arguments"

    def test_bundle_act_takes_no_p(self, tmp_path, capsys):
        # act on {a, b} reads the signature from the point, where --p would be ignored
        a = motion_to_json(sampling.sample_motion(sampling.make_rng(3, 0), 4))
        b = bundle_point_to_json(sampling.sample_bundle_point(sampling.make_rng(3, 1), 4, 2))
        infile = write_json(tmp_path, "pair.json", {"a": a, "b": b})
        assert run_cli(capsys, "act", "--in", infile)[0] == 0
        code, out, err = run_cli(capsys, "act", "--p", "2", "--in", infile)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "bad_arguments"

    @pytest.mark.parametrize("argv", [("act",), ("tau",)], ids=" ".join)
    def test_a_missing_p_is_a_dimension_mismatch(self, tmp_path, capsys, argv):
        I4 = {"R": mat_to_json(np.eye(4)), "X": [0.0] * 4}
        infile = write_json(tmp_path, "in.json", {"a": I4, "g": I4, **I4})
        code, out, err = run_cli(capsys, *argv, "--in", infile)
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "dimension_mismatch" and "--p" in error["detail"]

    @pytest.mark.parametrize(
        "argv", ["exp --se", "exp --so", "log --se", "log --so", "act --twisted", "act --bundle"]
    )
    def test_the_input_form_replaces_the_mode_switch(self, capsys, argv):
        # exp, log and act pick their map by the form of their input, so no switch selects it
        command, switch = argv.split()
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert switch not in capsys.readouterr().out
        code, out, err = run_cli(capsys, command, switch)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "bad_arguments"

    @pytest.mark.parametrize("argv, stdin, error", [
        (("act", "--p", "2"), "", "invalid_input"),
        (("act", "--p", "2"), "{a, b}", "bad_arguments"),
        (("tau",), "{}", "invalid_input"),
    ], ids=["act --p 2 on nothing", "act --p 2 on {a, b}", "tau on {}"])
    def test_the_input_is_read_before_a_flag_is_checked_against_it(
        self, capsys, monkeypatch, argv, stdin, error
    ):
        # whether --p is wrong (a bundle point) or missing (a motion) is read from the input
        text = dumps(_mode_inputs()["act"]["{a, b}"][1]) if stdin == "{a, b}" else stdin
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == error

    def test_verify_dimensions_checked_like_every_command(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "4", "--p", "4")
        assert code == 1
        assert json.loads(err)["error"] == "dimension_mismatch"

    def test_twisted_act_with_a_non_square_rotation(self, tmp_path, capsys):
        # A 4 x 3 rotation reached NumPy's matmul and exited as invalid_input.
        a = {"R": mat_to_json(np.eye(4, 3)), "X": [0.0] * 4}
        g = {"R": mat_to_json(np.eye(4)), "X": [0.0] * 4}
        infile = write_json(tmp_path, "act.json", {"a": a, "g": g})
        code, out, err = run_cli(capsys, "act", "--p", "2", "--in", infile)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "dimension_mismatch"

    def test_twisted_act_checks_a_in_so_n_under_tol_orth(self, tmp_path, capsys):
        # A = 2 I printed an R of norm 8; A = I + 1e-7 e_1 e_2^T passes only a looser --tol.orth
        g = {"R": mat_to_json(np.eye(4)), "X": [0.0] * 4}
        near = np.eye(4)
        near[0, 1] = 1e-7
        for A, flags, want in ((2.0 * np.eye(4), (), 1), (near, (), 1), (near, ("--tol.orth", "1e-6"), 0)):
            infile = write_json(tmp_path, "act.json", {"a": {"R": mat_to_json(A), "X": [0.0] * 4}, "g": g})
            code, out, err = run_cli(capsys, "act", "--p", "2", *flags, "--in", infile)
            assert code == want
            if want:
                assert out == "" and json.loads(err)["error"] == "ill_conditioned_spectrum"


_TOL_NAMES = {f.name for f in dataclasses.fields(Tolerances)}


class _RecordingTolerances(Tolerances):
    """Tolerances that record which fields are read, once ``_reads`` is set after construction."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("_reads")
        if reads is not None and name in _TOL_NAMES:
            reads.add(name)
        return object.__getattribute__(self, name)


def _mode_inputs() -> dict:
    """command -> {input form: (argv after the command, input JSON)}, covering each of its maps."""
    rng, p = sampling.make_rng(7, 0), ["--p", "2"]
    plane = sampling.sample_plane(rng, 4, 2)
    point, other = (bundle_point_to_json(sampling.sample_bundle_point(rng, 4, 2)) for _ in range(2))
    g, h = (motion_to_json(sampling.sample_motion(rng, 4)) for _ in range(2))
    return {
        "exp": {"screw": ([], screw_to_json(sampling.sample_screw(rng, 4))),
                "matrix": ([], mat_to_json(sampling.sample_skew(rng, 4)))},
        "log": {"motion": ([], g), "matrix": ([], mat_to_json(sampling.sample_rotation(rng, 4))),
                "matrix at pi": (["--allow-pi"], mat_to_json(np.diag([-1.0, -1.0, 1.0, 1.0])))},
        "embed": {"plane": ([], plane_to_json(plane)), "bundle point": ([], point)},
        "project": {"Cartan rotation": ([], cartan_rotation_to_json(grassmann.cartan_embed0(plane))),
                    "Cartan motion": ([], cartan_motion_to_json(sampling.sample_cartan_motion(rng, 4, 2)))},
        "act": {"{a, g}": (p, {"a": g, "g": h}), "{a, b}": ([], {"a": g, "b": point})},
        "transport": {"{src, dst}": ([], {"src": point, "dst": other})},
        "tau": {"motion": (p, g)},
        "sample": {kind: (["--kind", kind, "--n", "4", *(p if needs_p else []), "--samples", "1"], None)
                   for kind, (needs_p, _) in cli.SAMPLERS.items()},
        "verify": {"none": (["--n", "4", *p, "--samples", "2"], None)},
        "moebius": {"none": (["--num-theta", "4", "--num-lambda", "3"], None)},
    }


# (command, input form of _mode_inputs()) -> sha256 of the output, as printed when
# exp and log took --se or --so and act took --twisted or --bundle to pick the map
SWITCHED_SHA256 = {
    ("exp", "screw"): "3898b479820343859b9de91077dc4fa189b3646ffd917aa0e19a308a17101159",
    ("exp", "matrix"): "80be6e4fcd88626a9f2b89913debb30b5d9740da77634cd2b47d762254162fe8",
    ("log", "motion"): "69bbeba750988794e91d2a4c60ab9c1543e47c95506591e3236ffc78a59fe1ae",
    ("log", "matrix"): "8d8ef31b8b346333326c7c80ea5a50e9ffb2a6b20078bba33c01af777f45d903",
    ("log", "matrix at pi"): "1209be9a95b7b856162910e62eeb3c82f736426171bc1a806d126ef886eca4c8",
    ("act", "{a, g}"): "b2168c662b71986903e6bcbbad74dd036ea6d53dea0f1562524fec3350a4c1f2",
    ("act", "{a, b}"): "f92049362a2ef606c0fef6c73adaa9f8aad6a62866115a3f5afa6fa26b05b3a4",
}


@pytest.mark.parametrize(
    "command, form", sorted(SWITCHED_SHA256), ids=[" ".join(key) for key in sorted(SWITCHED_SHA256)]
)
def test_the_input_form_picks_the_map(tmp_path, capsys, command, form):
    argv, obj = _mode_inputs()[command][form]
    code, out, err = run_cli(capsys, command, *argv, "--in", write_json(tmp_path, "in.json", obj))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SWITCHED_SHA256[command, form]


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_a_command_takes_the_tol_flags_of_exactly_the_fields_it_reads(command):
    # Each mode's handler runs under tolerances that record every field read
    # after construction; the fields read over all modes are the command's flags.
    parser, (_, _, flags, handler) = cli._build_parser(), cli.COMMANDS[command]
    read = set()
    for argv, obj in _mode_inputs()[command].values():
        tol = _RecordingTolerances()
        object.__setattr__(tol, "_reads", set())
        assert handler(parser.parse_args([command, *argv]), obj, tol)[1] == 0
        read |= tol._reads
    assert read == {flag[len("tol."):] for flag in flags if flag.startswith("tol.")}
    assert read == TOL_FIELDS[command]


# (command, tolerance, value, input form of _mode_inputs()): under the flag
# --tol.NAME VALUE the run exits with another code or error than without it.
# "near pi" is a rotation by pi - 1e-7, inside the default branch bound 1e-6.
LIVE_TOL_FLAGS = [
    ("log", "orth", "1e-30", "matrix"),
    ("log", "branch", "1e-9", "near pi"),
    ("embed", "orth", "1e-30", "plane"),
    ("embed", "invol", "1e-30", "plane"),
    ("embed", "fiber", "1e-30", "bundle point"),
    ("project", "orth", "1e-30", "Cartan rotation"),
    ("project", "invol", "1e-30", "Cartan rotation"),
    ("project", "fiber", "1e-30", "Cartan motion"),
    ("act", "orth", "1e-30", "{a, g}"),
    ("act", "fiber", "1e-30", "{a, b}"),
    ("transport", "orth", "1e-30", "{src, dst}"),
    ("transport", "fiber", "1e-30", "{src, dst}"),
    ("tau", "orth", "1e-30", "motion"),
    ("tau", "invol", "1e-30", "motion"),
    ("tau", "fiber", "1e-30", "motion"),
    ("verify", "orth", "1e-30", "none"),
    ("verify", "invol", "1e-30", "none"),
    ("verify", "branch", "0.5", "none"),
    ("verify", "plane", "1e-30", "none"),
    ("verify", "fiber", "1e-30", "none"),
]


def test_the_live_flag_table_covers_every_tol_flag():
    pairs = sorted((command, name) for command, names in TOL_FIELDS.items() for name in names)
    assert sorted((command, name) for command, name, _, _ in LIVE_TOL_FLAGS) == pairs
    assert len(pairs) == 20


@pytest.mark.parametrize("command, name, value, form", LIVE_TOL_FLAGS,
                         ids=[f"{command}-{name}" for command, name, _, _ in LIVE_TOL_FLAGS])
def test_every_tol_flag_changes_the_outcome_of_some_run(tmp_path, capsys, command, name, value, form):
    angle = math.pi - 1e-7
    near_pi = mat_to_json(np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]))
    argv, obj = {**_mode_inputs()[command], "near pi": ([], near_pi)}[form]
    infile = [] if obj is None else ["--in", write_json(tmp_path, "in.json", obj)]

    def outcome(*flag):
        code, _, err = run_cli(capsys, command, *argv, *infile, *flag)
        return code, json.loads(err)["error"] if err else None

    assert outcome(f"--tol.{name}", value) != outcome()


class _RecordingNamespace(argparse.Namespace):
    """Parsed arguments that record ``n`` and ``p`` read with a value (given), once ``_reads`` is set."""

    def __getattribute__(self, name):
        value = object.__getattribute__(self, name)
        reads = object.__getattribute__(self, "__dict__").get("_reads")
        if reads is not None and name in ("n", "p") and value is not None:
            reads.add(name)
        return value


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_a_command_reads_each_dimension_flag_it_is_given(command):
    # A mode is given exactly the --n/--p its handler reads, and the modes
    # together use every dimension flag the command takes: none is ignored.
    parser, (_, _, flags, handler) = cli._build_parser(), cli.COMMANDS[command]
    used = set()
    for argv, obj in _mode_inputs()[command].values():
        args = parser.parse_args([command, *argv], namespace=_RecordingNamespace())
        args._reads = set()
        assert handler(args, obj, Tolerances())[1] == 0
        given = {flag[2:] for flag in argv if flag in ("--n", "--p")}
        assert args._reads == given, argv
        used |= given
    assert used == {flag for flag in flags if flag in ("n", "p")}
    assert used == DIM_FLAGS.get(command, set())


def _fresh_env():
    # A fresh interpreter that imports this checkout of the package.
    src = str(Path(cartanbundle.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("source", ["stdin", "--in"])
def test_json_nested_too_deeply_is_invalid_input(tmp_path, source):
    # json.load raised RecursionError at 100 000 levels, which escaped main as a raw traceback. The input goes to a
    # fresh interpreter, so this process does not recurse.
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    argv, stdin = (["--in", str(path)], "") if source == "--in" else ([], deep)
    run = subprocess.run([sys.executable, "-m", "cartanbundle.cli", "log", *argv], input=stdin,
                         env=_fresh_env(), capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (1, "")
    assert json.loads(run.stderr) == {"error": "invalid_input", "detail": "ValueError: JSON input is nested too deeply",
                                      "context": {}}


# (command, stdin) -> (error, detail). A value of the wrong JSON type gave Python's own detail ("TypeError: 'int'
# object is not subscriptable", "KeyError: 'src'"); the detail names the field and the JSON type it must have. log
# reads an object without "X" as a matrix, whose missing rows stay a dimension_mismatch. An array read as the input
# was a dimension_mismatch for log and exp only, where it was read as a matrix.
NO_ROWS = "JSON rows must be an integer of at least 1, got None"
NO_R = 'ValueError: JSON motion has no field "R", which must be a matrix object {"rows", "cols", "data"}'
WRONG_TYPES = {
    ("log", "null"): ("invalid_input", "ValueError: JSON input must be an object, got null"),
    ("log", '{"a": null, "b": null}'): ("dimension_mismatch", NO_ROWS),
    ("log", '{"src": 1, "dst": 2}'): ("dimension_mismatch", NO_ROWS),
    ("log", "[0, 1]"): ("invalid_input", "ValueError: JSON input must be an object, got an array"),
    ("act", "null"): ("invalid_input", "ValueError: JSON input must be an object, got null"),
    ("act", '{"a": null, "b": null}'): (
        "invalid_input", 'ValueError: JSON input field "a" must be an object, got null'),
    ("act", '{"src": 1, "dst": 2}'): (
        "invalid_input", 'ValueError: JSON input has no field "a", which must be an object'),
    ("transport", "null"): ("invalid_input", "ValueError: JSON input must be an object, got null"),
    ("transport", '{"a": null, "b": null}'): (
        "invalid_input", 'ValueError: JSON input has no field "src", which must be an object'),
    ("transport", '{"src": 1, "dst": 2}'): (
        "invalid_input", 'ValueError: JSON input field "src" must be an object, got a number'),
    ("transport", '{"src": {"plane": "x", "fiber": [0]}, "dst": 2}'): (
        "invalid_input", 'ValueError: JSON bundle point field "plane" must be an object, got a string'),
    ("tau", "null"): ("invalid_input", "ValueError: JSON input must be an object, got null"),
    ("tau", '{"a": null, "b": null}'): ("invalid_input", NO_R),
    ("tau", '{"src": 1, "dst": 2}'): ("invalid_input", NO_R),
}


@pytest.mark.parametrize("command, stdin", list(WRONG_TYPES), ids=[" ".join(k) for k in WRONG_TYPES])
def test_a_value_of_the_wrong_json_type_names_its_field(capsys, monkeypatch, command, stdin):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = run_cli(capsys, command)
    assert (code, out) == (1, "")
    error, detail = WRONG_TYPES[command, stdin]
    assert json.loads(err) == {"error": error, "detail": detail, "context": {}}


def test_closed_stdout_exits_141_quietly():
    # The read end is closed before the child has even imported the package,
    # so its one write always finds no reader.
    proc = subprocess.Popen(
        [sys.executable, "-m", "cartanbundle.cli", "verify", "--n", "5", "--p", "2",
         "--samples", "50", "--seed", "5"],
        env=_fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_stdout_closed_mid_write_exits_141_quietly(unbuffered):
    # The reader takes 10 bytes of a multi-megabyte write and goes away. An
    # unbuffered stdout then sees a short write rather than an error.
    env = _fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "cartanbundle.cli", "moebius", "--num-theta", "2000"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("cartan-bundle ")]
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line)[1:]
        args = cli._build_parser().parse_args(argv)
        assert args.command == argv[0]


def test_cli_import_loads_no_scipy():
    # A fresh interpreter, so modules other tests imported do not count.
    env = _fresh_env()
    probe = "import sys, cartanbundle.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_the_package_root_loads_no_harness():
    # verify and the samplers are imported from their own modules; the root re-exports neither
    probe = ("import sys, cartanbundle\n"
             "print(sorted(m for m in ('cartanbundle.verify', 'cartanbundle.sampling') if m in sys.modules))\n"
             "from cartanbundle.verify import VerifyConfig, VerifyReport, run_verification\n")
    out = subprocess.run([sys.executable, "-c", probe], env=_fresh_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _numpy_ma_imports(args) -> list:
    """The numpy.ma modules that a fresh ``python -X importtime ARGS`` imports, read from its import report."""
    run = subprocess.run([sys.executable, "-X", "importtime", *args], env=_fresh_env(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-2000:]
    modules = [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines() if line.startswith("import time:")]
    assert "cartanbundle" in modules  # the report is read
    return [m for m in modules if m == "numpy.ma" or m.startswith("numpy.ma.")]


def test_a_cold_verify_imports_no_numpy_ma():
    # NumPy 2.4's np.unique imports numpy.ma on its first call, about 10 ms of a cold verify
    assert _numpy_ma_imports(["-m", "cartanbundle.cli", "verify", "--n", "4", "--p", "2",
                              "--samples", "20", "--seed", "5"]) == []


def test_a_cold_stacked_dp_log_full_imports_no_numpy_ma():
    # at p = 5, q = 3 the stack groups its elements by their count of small principal angles (matcore._groups)
    probe = (
        "from cartanbundle import bundle, grassmann, sampling\n"
        "B, v = sampling.sample_dp_elements(sampling.make_rng(5), 5, 3, 64)\n"
        "bundle.dp_log_full(bundle.dp_exp_full(bundle.DpElement(grassmann.DpGenerator(5, 3, B), v)))\n"
    )
    assert _numpy_ma_imports(["-c", probe]) == []
