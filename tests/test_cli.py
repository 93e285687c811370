"""Command-line interface: golden outputs, error handling, file emission."""

import contextlib
import io
import json
import pathlib

import pytest

from normlines.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "analyze2_lopez": ["analyze2", "4", "3", "-2", "-3", "--json"],
    "analyze2_rotation": ["analyze2", "0", "-1", "1", "0", "--json"],
    "analyze3_symmetric_half": [
        "analyze3", "1", "1", "1/2", "1", "1/2", "1", "1/2", "1", "1",
        "--pivot", "z", "--bound", "20", "--json",
    ],
    "analyze3_double_plane": [
        "analyze3", "1", "2", "2", "2", "1", "2", "2", "2", "1",
        "--bound", "1", "--json",
    ],
    "analyze3_parametric": [
        "analyze3", "1", "2", "3", "2", "1", "1", "1", "1", "1",
        "--bound", "20", "--json",
    ],
    "family_lopez": ["family", "lopez", "4", "-2", "--json"],
    "dioph_39_48_39": ["dioph", "39", "48", "39", "--bound", "60", "--json"],
    "piezas_lifted": [
        "piezas", "36", "52", "39", "--seed", "1", "0", "6",
        "--st", "1", "1", "--st", "1", "2",
        "--matrix", "1", "2", "3", "3", "4", "5", "2", "3", "4", "--json",
    ],
    "torus_2_10": ["torus", "2", "10", "--json"],
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_bytes_match(self, name):
        rc, out, err = run_cli(GOLDEN_CASES[name])
        assert rc == 0 and err == ""
        assert out == (GOLDEN / f"{name}.json").read_text()

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_valid_canonical_json(self, name):
        text = (GOLDEN / f"{name}.json").read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestHumanOutput:
    def test_analyze2(self):
        rc, out, err = run_cli(["analyze2", "4", "3", "-2", "-3"])
        assert rc == 0 and err == ""
        assert "<1, -1>" in out and "<17, -19>" in out

    def test_analyze3(self):
        rc, out, _ = run_cli(
            ["analyze3", "1", "2", "2", "2", "1", "2", "2", "2", "1", "--bound", "1"]
        )
        assert rc == 0
        assert "double_plane" in out and "<1, 1, 1>" in out

    def test_torus(self):
        rc, out, _ = run_cli(["torus", "2", "10"])
        assert rc == 0
        assert "514229 + 1149851/sqrt(5)" in out
        assert "317811 + 710647/sqrt(5)" in out

    def test_piezas_without_matrix_has_no_lifts(self):
        rc, out, _ = run_cli(
            ["piezas", "36", "52", "39", "--seed", "1", "0", "6",
             "--st", "1", "1", "--json"]
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["matrix"] is None
        assert payload["pairs"][0]["solution"] == [-3, 124, 762]
        assert payload["pairs"][0]["lines"] is None


class TestErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze2", "x", "3", "-2", "-3"],
            ["analyze2", "0.5", "3", "-2", "-3"],
            ["analyze2", "3/0", "3", "-2", "-3"],
            ["dioph", "39", "48", "39", "--d", "0"],
            ["piezas", "36", "52", "39", "--seed", "1", "1", "1"],
            ["piezas", "36", "52", "39", "--seed", "1", "0", "6",
             "--matrix", "1", "0", "0", "0", "1", "0", "0", "0", "1"],
            ["render", "scene2", "4", "3", "-2", "-3"],
            ["render", "scene3", "1", "2", "3", "2", "1", "1", "1", "1", "1"],
            ["render", "scene2", "1", "2", "3", "4", "5", "--out", "/tmp/x.svg"],
            ["nosuch"],
            ["dioph", "1", "0", "1", "--bound", "-5"],
        ],
    )
    def test_exit_code_two(self, argv):
        rc, out, err = run_cli(argv)
        assert rc == 2
        assert out == ""

    def test_named_errors_reach_stderr(self):
        _, _, err = run_cli(["analyze2", "3/0", "3", "-2", "-3"])
        assert "denominator" in err
        _, _, err = run_cli(["analyze2", "0.5", "3", "-2", "-3"])
        assert "0.5" in err

    def test_help_exits_zero(self):
        rc, out, _ = run_cli(["--help"])
        assert rc == 0
        for sub in ("analyze2", "analyze3", "family", "dioph",
                    "piezas", "torus", "render"):
            assert sub in out

    def test_no_arguments_exits_two(self):
        rc, _, _ = run_cli([])
        assert rc == 2


class TestRenderCommand:
    def test_scene2_writes_stable_file(self, tmp_path):
        out_file = tmp_path / "plane.svg"
        argv = ["render", "scene2", "4", "3", "-2", "-3",
                "--lines", "--out", str(out_file), "--json"]
        rc, out, _ = run_cli(argv)
        assert rc == 0
        payload = json.loads(out)
        first = out_file.read_bytes()
        assert payload["bytes"] == len(first)
        assert payload["lines"] == [[1, -1], [17, -19]]
        rc, _, _ = run_cli(argv)
        assert rc == 0
        assert out_file.read_bytes() == first

    def test_scene3_writes_mesh_and_svg(self, tmp_path):
        mesh_file = tmp_path / "cone.obj"
        svg_file = tmp_path / "cone.svg"
        rc, out, _ = run_cli(
            ["render", "scene3", "1", "1", "1/2", "1", "1/2", "1",
             "1/2", "1", "1", "--cone", "--mesh-out", str(mesh_file),
             "--svg-out", str(svg_file), "--json"]
        )
        assert rc == 0
        payload = json.loads(out)
        mesh = mesh_file.read_text()
        assert payload["mesh_bytes"] == len(mesh.encode())
        assert "o cone" in mesh
        assert svg_file.read_text().startswith('<?xml version="1.0"')

    def test_zero_samples_rejected_without_writing(self, tmp_path):
        out_file = tmp_path / "f.svg"
        rc, out, err = run_cli(
            ["render", "scene2", "4", "3", "-2", "-3", "--samples", "0",
             "--out", str(out_file)]
        )
        assert rc == 2 and out == ""
        assert "samples" in err
        assert not out_file.exists()
