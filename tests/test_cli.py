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
from cartanbundle import cli
from cartanbundle.cli import main
from cartanbundle.serialize import dumps, mat_from_json, mat_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dumps(obj))
    return str(path)


class TestExpLog:
    def test_so_exp_quarter_turn(self, tmp_path, capsys):
        infile = write_json(
            tmp_path, "w.json", mat_to_json(np.array([[0.0, -math.pi / 2], [math.pi / 2, 0.0]]))
        )
        code, out, err = run_cli(capsys, "exp", "--so", "--in", infile)
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
        code, _, _ = run_cli(capsys, "exp", "--se", "--in", infile, "--out", outfile)
        assert code == 0
        code, out, err = run_cli(capsys, "log", "--se", "--in", outfile)
        assert code == 0
        back = json.loads(out)
        assert np.allclose(mat_from_json(back["omega"]), [[0, -0.9], [0.9, 0]], atol=1e-10)
        assert np.allclose(back["v"], [0.3, -0.7], atol=1e-10)

    def test_log_branch_error(self, tmp_path, capsys):
        infile = write_json(tmp_path, "r.json", mat_to_json(-np.eye(2)))
        code, out, err = run_cli(capsys, "log", "--so", "--in", infile)
        assert code == 1
        msg = json.loads(err)
        assert msg["error"] == "log_branch_ambiguity"
        code, out, _ = run_cli(capsys, "log", "--so", "--allow-pi", "--in", infile)
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
        infile = write_json(tmp_path, "r.json", mat_to_json(np.array([[c, -s], [s, c]])))
        code, out, _ = run_cli(capsys, "project", "--n", "2", "--p", "1", "--in", infile)
        assert code == 0
        frame = mat_from_json(json.loads(out)["frame"])
        V = np.array([math.cos(theta / 2), math.sin(theta / 2)])
        assert np.linalg.norm(np.outer(frame[:, 0], frame[:, 0]) - np.outer(V, V)) <= 1e-10


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


class TestVerify:
    def test_verify_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "4", "--p", "2", "--samples", "40", "--seed", "3")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert all(r["pass"] for r in report["properties"])

    def test_verify_fails_with_absurd_tolerance(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "4", "--p", "2", "--samples", "10",
            "--tol.recon", "1e-30",
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


class TestErrorHandling:
    def test_bad_json_input(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "exp", "--so", "--in", str(path))
        assert code == 1
        assert json.loads(err)["error"] == "invalid_input"

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert json.loads(err)["error"] == "bad_arguments"

    def test_tol_override_flag(self, tmp_path, capsys):
        # an absurd singularity cutoff makes the translation solve refuse any angle
        c, s = math.cos(0.9), math.sin(0.9)
        motion = {"R": mat_to_json(np.array([[c, -s], [s, c]])), "X": [0.3, -0.7]}
        infile = write_json(tmp_path, "g.json", motion)
        code, out, err = run_cli(capsys, "log", "--se", "--in", infile, "--tol.sing=10.0")
        assert code == 1
        assert json.loads(err)["error"] == "y_omega_singular"
        code, out, err = run_cli(capsys, "log", "--se", "--in", infile)
        assert code == 0

    def test_unknown_tol_name(self, capsys):
        code, _, err = run_cli(capsys, "moebius", "--tol.eig", "1e-7")
        assert code == 1
        assert json.loads(err)["error"] == "invalid_input"

    def test_bad_tol_value(self, capsys):
        code, _, err = run_cli(capsys, "moebius", "--tol.recon", "abc")
        assert code == 1
        assert json.loads(err)["error"] == "bad_arguments"

    @pytest.mark.parametrize(
        "argv",
        [
            ("exp", "--format", "csv"),
            ("exp", "--seed", "3"),
            ("verify", "--in", "x.json"),
            ("moebius", "--n", "4"),
            ("transport", "--samples", "2"),
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
            ("act", "--n", "4", "--p", "2", "--twisted", "--bundle"),
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
            ("log", "--so", "--allow", "--in", "r.json"),
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

    def test_verify_dimensions_checked_like_every_command(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "4", "--p", "4")
        assert code == 1
        assert json.loads(err)["error"] == "dimension_mismatch"


def _fresh_env():
    # A fresh interpreter that imports this checkout of the package.
    src = str(Path(cartanbundle.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


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
