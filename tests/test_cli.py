"""End-to-end checks of the command-line verbs and their exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyrig
from polyrig.cli import _parser, build_parser, main
from polyrig.generators import platonic
from polyrig.geometry import FaceDistance, build_pool
from polyrig.incidence import build_incidence
from polyrig.offio import off_text, read_off
from polyrig.pointsets import Angle, _unit, measurement_value

from measurement_json import measurements_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cube_off(tmp_path):
    path = tmp_path / "cube.off"
    assert main(["generate", "cube", "--out", str(path)]) == 0
    return str(path)


def test_generate_writes_valid_off(cube_off):
    coords, faces = read_off(Path(cube_off).read_text())
    assert coords.shape == (8, 3)
    assert len(faces) == 6
    lengths = {
        round(float(np.linalg.norm(coords[a] - coords[b])), 9)
        for f in faces
        for a, b in zip(f, f[1:] + f[:1])
    }
    assert lengths == {1.0}


def test_generate_to_stdout(capsys):
    code, out, _ = run(capsys, "generate", "tetrahedron")
    assert code == 0
    assert out.startswith("OFF\n4 4 6\n")


@pytest.mark.parametrize("name", ["octahedron", "icosahedron", "cube"])
@pytest.mark.parametrize("scale", ["1e-100", "1e100"])
def test_generate_at_extreme_scales_keeps_the_faces(capsys, name, scale):
    code, out, err = run(capsys, "generate", name, "--scale", scale)
    assert code == 0 and err == ""
    _, faces = read_off(out)
    assert faces == read_off(run(capsys, "generate", name)[1])[1]


@pytest.mark.parametrize("name", ["tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron"])
@pytest.mark.parametrize("scale", ["1e160", "1e300"])
def test_generate_where_squares_overflow(capsys, name, scale):
    code, out, err = run(capsys, "generate", name, "--scale", scale)
    assert code == 0 and err == ""
    coords, faces = read_off(out)
    assert faces == read_off(run(capsys, "generate", name)[1])[1]
    assert np.isfinite(coords).all() and np.abs(coords).max() > 1e159


@pytest.mark.parametrize("scale", ["1e160", "1e300", "1e-300"])
def test_rank_verbs_do_not_depend_on_extreme_units(capsys, tmp_path, scale):
    # squared coordinates overflow or underflow at these scales
    for unit in ("1", scale):
        assert run(capsys, "generate", "dodecahedron", "--scale", unit,
                   "--out", str(tmp_path / f"{unit}.off"))[0] == 0
    for verb, *args in (("analyze", "--pool", "face-distances"),
                        ("select", "--pool", "face-angles", "--mode", "similarity")):
        code, out, _ = run(capsys, verb, str(tmp_path / f"{scale}.off"), *args)
        assert (code, out) == run(capsys, verb, str(tmp_path / "1.off"), *args)[:2]
        assert code == 0


@pytest.mark.parametrize("scale", ["1e160", "1e300", "1e-300"])
def test_witness_does_not_depend_on_extreme_units(capsys, tmp_path, scale):
    # the payload's errors and distance square the coordinates; the cube's
    # edges and two face diagonals leave one flex, so the witness does not
    # depend on rounding in the choice of a kernel direction
    for unit in ("1", scale):
        assert run(capsys, "generate", "cube", "--scale", unit,
                   "--out", str(tmp_path / f"{unit}.off"))[0] == 0
    _, faces = read_off((tmp_path / "1.off").read_text())
    edges = build_pool(build_incidence(faces), "edges-only")
    payloads = {}
    one_flex = edges + [FaceDistance(0, 3), FaceDistance(0, 5)]
    for name, ms in (("edges", edges), ("one-flex", one_flex)):
        (tmp_path / f"{name}.json").write_text(measurements_to_json(3, ms))
        for unit in ("1", scale):
            code, out, _ = run(capsys, "witness", str(tmp_path / f"{unit}.off"),
                               "--measurements", str(tmp_path / f"{name}.json"))
            assert code == 1
            payload = json.loads(out)
            assert payload["maxMeasurementError"] < 1e-8 * float(unit)
            assert payload["maxIncidenceError"] < 1e-8
            assert payload["normalizedDistance"] > 1e-4 * float(unit)
            payloads[name, unit] = payload
    assert payloads["one-flex", scale]["normalizedDistance"] / float(scale) == pytest.approx(
        payloads["one-flex", "1"]["normalizedDistance"], rel=1e-9
    )


def test_analyze_face_distances_sufficient(capsys, cube_off):
    code, out, _ = run(capsys, "analyze", cube_off)
    assert code == 0
    payload = json.loads(out)
    assert payload["sufficient"] is True
    assert payload["E"] == 12
    assert payload["achievedRank"] == payload["targetRank"] == 36
    assert payload["flexDimension"] == 0
    assert payload["mode"] == "congruence"
    assert payload["selected"] is None


def test_analyze_dihedrals_insufficient(capsys, cube_off):
    code, out, _ = run(capsys, "analyze", cube_off, "--pool", "dihedrals")
    assert code == 1
    assert json.loads(out)["sufficient"] is False


def test_select_cube_edges(capsys, cube_off):
    code, out, err = run(capsys, "select", cube_off, "--pool", "face-distances")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["selected"]) == 12
    assert all(m["type"] == "face_distance" for m in payload["selected"])
    assert "selected 12 measurements" in err


def test_select_dodecahedron_similarity_angles(capsys, tmp_path):
    path = tmp_path / "d.off"
    assert main(["generate", "dodecahedron", "--out", str(path)]) == 0
    code, out, _ = run(
        capsys,
        "select", str(path),
        "--pool", "face-angles",
        "--mode", "similarity",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["selected"]) == 29
    assert payload["achievedRank"] == payload["targetRank"] == 89


def test_select_similarity_with_distances_is_the_congruence_test(capsys, cube_off):
    # a distance pins the scale, so 11 face distances would leave the
    # cube a flex that keeps them: greedy must go on to E = 12
    code, out, _ = run(
        capsys,
        "select", cube_off,
        "--pool", "all",
        "--mode", "similarity",
        "--allow-scale-variant",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["selected"]) == 12
    assert payload["achievedRank"] == payload["targetRank"] == 36


def test_select_insufficient_pool(capsys, cube_off):
    code, out, err = run(capsys, "select", cube_off, "--pool", "dihedrals")
    assert code == 1
    assert "exhausted at rank" in err
    assert json.loads(out)["sufficient"] is False


def test_select_is_deterministic(tmp_path, cube_off):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["select", cube_off, "--out", str(a)]) == 0
    assert main(["select", cube_off, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_mesh_measurement_set(capsys, tmp_path, cube_off):
    coords, faces = read_off(Path(cube_off).read_text())
    from polyrig.generators import faces_from_convex_vertices  # labeling match
    from polyrig.geometry import build_pool, fit_realization
    from polyrig.incidence import build_incidence

    poly = build_incidence(faces)
    ms_path = tmp_path / "ms.json"
    ms_path.write_text(measurements_to_json(3, build_pool(poly, "face-distances")))
    code, out, _ = run(capsys, "check", cube_off, "--measurements", str(ms_path))
    assert code == 0
    assert json.loads(out)["sufficient"] is True

    ms_path.write_text(measurements_to_json(3, build_pool(poly, "edges-only")))
    code, out, _ = run(capsys, "check", cube_off, "--measurements", str(ms_path))
    assert code == 1


def test_check_rejects_out_of_range_ids(capsys, tmp_path, cube_off):
    ms_path = tmp_path / "ms.json"
    ms_path.write_text(
        json.dumps(
            {"dim": 3, "measurements": [{"type": "face_distance", "ids": [0, 99]}]}
        )
    )
    code, _, err = run(capsys, "check", cube_off, "--measurements", str(ms_path))
    assert code == 2
    assert "out of range" in err


SQUARE_POINTS = {"dim": 2, "points": [[0, 0], [1, 0], [1, 1], [0, 1]]}

EXCEPTIONAL_FOUR = {
    "dim": 2,
    "measurements": [
        {"type": "distance", "ids": [0, 1]},
        {"type": "distance", "ids": [0, 2]},
        {"type": "distance", "ids": [0, 3]},
        {"type": "angle", "ids": [1, 2, 3]},
    ],
}


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_check_point_config(capsys, tmp_path):
    cfg = _write(tmp_path, "square.json", SQUARE_POINTS)
    four = _write(tmp_path, "four.json", EXCEPTIONAL_FOUR)
    code, out, _ = run(capsys, "check", cfg, "--measurements", four)
    assert code == 1
    payload = json.loads(out)
    assert payload["achievedRank"] == 3
    assert payload["targetRank"] == 5
    assert "second-order" in payload["status"]

    five = {
        "dim": 2,
        "measurements": [
            {"type": "distance", "ids": [i, (i + 1) % 4]} for i in range(4)
        ]
        + [{"type": "distance", "ids": [0, 2]}],
    }
    code, out, _ = run(
        capsys, "check", cfg, "--measurements", _write(tmp_path, "5.json", five)
    )
    assert code == 0
    assert json.loads(out)["sufficient"] is True


def test_witness_mesh_flexes_edges(capsys, tmp_path, cube_off):
    coords, faces = read_off(Path(cube_off).read_text())
    from polyrig.geometry import build_pool
    from polyrig.incidence import build_incidence

    poly = build_incidence(faces)
    ms = tmp_path / "edges.json"
    ms.write_text(measurements_to_json(3, build_pool(poly, "edges-only")))
    code, out, _ = run(capsys, "witness", cube_off, "--measurements", str(ms))
    assert code == 1
    payload = json.loads(out)
    assert payload["maxMeasurementError"] < 1e-8
    assert payload["maxIncidenceError"] < 1e-8
    assert payload["normalizedDistance"] > 1e-4
    assert len(payload["witness"]["vertices"]) == 8

    ms.write_text(measurements_to_json(3, build_pool(poly, "face-distances")))
    code, out, _ = run(capsys, "witness", cube_off, "--measurements", str(ms))
    assert code == 0
    assert json.loads(out) == {"sufficient": True, "witness": None}


@pytest.mark.parametrize("step", ["0", "1e-300", "1e-5", "-1e-5"])
def test_witness_step_within_the_witness_radius_exits_2(capsys, tmp_path, cube_off, step):
    # the cube's 12 edges flex, but a step of at most 1e-5 cannot move a
    # vertex past the 1e-5 radius a witness must clear
    _, faces = read_off(Path(cube_off).read_text())
    ms = tmp_path / "edges.json"
    ms.write_text(measurements_to_json(3, build_pool(build_incidence(faces), "edges-only")))
    code, out, err = run(capsys, "witness", cube_off, "--measurements", str(ms), f"--step={step}")
    assert code == 2 and out == ""
    assert "|step| must exceed 1e-5" in err


@pytest.mark.parametrize("step", ["3e-5", "-0.01"])
def test_witness_step_beyond_the_witness_radius_flexes(capsys, tmp_path, cube_off, step):
    _, faces = read_off(Path(cube_off).read_text())
    ms = tmp_path / "edges.json"
    ms.write_text(measurements_to_json(3, build_pool(build_incidence(faces), "edges-only")))
    code, out, _ = run(capsys, "witness", cube_off, "--measurements", str(ms), f"--step={step}")
    assert code == 1
    payload = json.loads(out)
    assert payload["maxMeasurementError"] < 1e-8 and payload["normalizedDistance"] > 1e-5


@pytest.mark.parametrize("step", [["--step", "-1e-2"], ["--step", "-1E-2"], ["--step=-1e-2"]])
def test_witness_reads_a_negative_step_in_exponent_form(capsys, tmp_path, cube_off, step):
    # argparse's own negative-number pattern takes -1 and -0.01 but not
    # -1e-2, which it reads as an option: "argument --step: expected one argument"
    _, faces = read_off(Path(cube_off).read_text())
    ms = tmp_path / "edges.json"
    ms.write_text(measurements_to_json(3, build_pool(build_incidence(faces), "edges-only")))
    code, out, _ = run(capsys, "witness", cube_off, "--measurements", str(ms), *step)
    assert code == 1
    decimal = run(capsys, "witness", cube_off, "--measurements", str(ms), "--step=-0.01")
    assert (code, out) == decimal[:2]


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "hexa-a", "--q1", "-1e-2"],
        ["witness", "in.off", "--measurements", "m.json", "--tol", "-1E-2"],
        ["polygon", "oracle", "square", "--d", "-1e-2"],
        ["polygon", "staircase", "--n", "6", "--angles", "1", "--base", "-.1e-1"],
    ],
)
def test_every_parser_reads_negative_numbers_in_exponent_form(argv):
    args = build_parser().parse_args(argv)
    assert -0.01 in vars(args).values()


def test_similarity_distances_error_names_the_cli_flag(capsys, tmp_path, cube_off):
    from polyrig.geometry import build_pool
    from polyrig.incidence import build_incidence

    _, faces = read_off(Path(cube_off).read_text())
    ms = tmp_path / "edges.json"
    ms.write_text(measurements_to_json(3, build_pool(build_incidence(faces), "edges-only")))
    code, out, err = run(
        capsys, "witness", cube_off, "--measurements", str(ms), "--mode", "similarity"
    )
    assert code == 2
    assert out == ""
    assert "--allow-scale-variant" in err


def test_witness_point_config(capsys, tmp_path):
    cfg = _write(tmp_path, "square.json", SQUARE_POINTS)
    four_sides = {
        "dim": 2,
        "measurements": [
            {"type": "distance", "ids": [i, (i + 1) % 4]} for i in range(4)
        ],
    }
    ms = _write(tmp_path, "sides.json", four_sides)
    code, out, _ = run(
        capsys, "witness", cfg, "--measurements", ms, "--restarts", "40"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["witness"] is not None
    assert payload["converged"] > 0
    assert sum(c["count"] for c in payload["clusters"]) == payload["converged"]
    # every restart is reported under one of the four outcomes
    outcomes = ("converged", "escaped", "stalled", "exhausted")
    assert sum(payload[k] for k in outcomes) == payload["restarts"] == 40

    exceptional = _write(tmp_path, "four.json", EXCEPTIONAL_FOUR)
    code, out, _ = run(
        capsys, "witness", cfg, "--measurements", exceptional, "--restarts", "80"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"] is None
    assert len(payload["clusters"]) == 1
    assert sum(payload[k] for k in outcomes) == payload["restarts"] == 80
    assert payload["clusterTol"] == math.sqrt(payload["residualTol"]) == 1e-5


def test_witness_is_deterministic(tmp_path):
    cfg = _write(tmp_path, "square.json", SQUARE_POINTS)
    ms = _write(
        tmp_path,
        "sides.json",
        {
            "dim": 2,
            "measurements": [
                {"type": "distance", "ids": [i, (i + 1) % 4]} for i in range(4)
            ],
        },
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["witness", cfg, "--measurements", ms, "--restarts", "30"]
    assert main(base + ["--out", str(a)]) == 1
    assert main(base + ["--out", str(b)]) == 1
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("POLYRIG_SEED", "7")
    args = build_parser().parse_args(["witness", "x", "--measurements", "y"])
    assert args.seed == 7
    # a seed that is not an integer is an input error, not seed 0
    monkeypatch.setenv("POLYRIG_SEED", "junk")
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["witness", "x", "--measurements", "y"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["polygon", "oracle", "square"])
    assert info.value.code == 2
    monkeypatch.delenv("POLYRIG_SEED")
    args = build_parser().parse_args(["witness", "x", "--measurements", "y"])
    assert args.seed == 0


def test_one_parser_serves_every_call(monkeypatch, capsys, tmp_path, cube_off):
    monkeypatch.delenv("POLYRIG_SEED", raising=False)
    poly = build_incidence(read_off(Path(cube_off).read_text())[1])
    edges = tmp_path / "edges.json"
    edges.write_text(measurements_to_json(3, build_pool(poly, "edges-only")))
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _parser.__wrapped__("0")
    one_build = len(progs)
    assert progs.count("polyrig") == 1

    progs.clear()
    _parser.cache_clear()
    verbs = [
        ["analyze", cube_off],
        ["select", cube_off],
        ["witness", cube_off, "--measurements", str(edges)],
    ]
    codes = [main(verbs[i % 3]) for i in range(20)]
    capsys.readouterr()
    assert codes == [0, 0, 1] * 6 + [0, 0]
    assert progs.count("polyrig") == 1
    assert len(progs) == one_build


def test_import_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import polyrig.cli\n"
        "print(len(built))\n"
    )
    src = os.path.dirname(os.path.dirname(polyrig.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "0\n"


def test_no_verb_loads_scipy_optimize():
    # every constrained maximum runs on the kernel's SQP: a fresh interpreter
    # that imports the CLI, and runs the octagon oracle, loads no scipy minimizer
    script = (
        "import sys, polyrig.cli\n"
        "print('scipy.optimize' in sys.modules)\n"
        "polyrig.cli.main(['polygon', 'oracle', 'octagon', '--restarts', '2', '--out', sys.argv[1]])\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(polyrig.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", script, os.devnull],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out == "False\nFalse\n"


def test_no_verb_on_a_small_solid_loads_qhull(tmp_path):
    # qhull serves hulls and the diameter of 256 points or more only: a fresh
    # interpreter that imports the CLI and analyzes the dodecahedron's OFF
    # file never loads scipy.spatial, and the first hull loads it
    poly, real = platonic("dodecahedron")
    off = tmp_path / "dodecahedron.off"
    off.write_text(off_text(real.vertices, [list(f) for f in poly.faces]))
    script = (
        "import sys, polyrig.cli\n"
        "print('scipy.spatial' in sys.modules)\n"
        "polyrig.cli.main(['analyze', sys.argv[1], '--pool', 'face-distances'])\n"
        "print('scipy.spatial' in sys.modules)\n"
        "from polyrig.generators import faces_from_convex_vertices\n"
        "faces_from_convex_vertices([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])\n"
        "print('scipy.spatial' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(polyrig.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", script, str(off)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines()[0] == "False" and out.splitlines()[-2:] == ["False", "True"]


def test_seed_env_is_read_at_every_call(monkeypatch, capsys, tmp_path):
    cfg = _write(tmp_path, "square.json", SQUARE_POINTS)
    ms = _write(
        tmp_path,
        "sides.json",
        {
            "dim": 2,
            "measurements": [
                {"type": "distance", "ids": [i, (i + 1) % 4]} for i in range(4)
            ],
        },
    )
    base = ["witness", cfg, "--measurements", ms, "--restarts", "30"]
    monkeypatch.delenv("POLYRIG_SEED", raising=False)
    explicit = {seed: run(capsys, *base, "--seed", seed) for seed in ("0", "7")}
    assert explicit["0"][1] != explicit["7"][1]

    monkeypatch.setenv("POLYRIG_SEED", "7")
    assert run(capsys, *base) == explicit["7"]
    monkeypatch.delenv("POLYRIG_SEED")
    assert run(capsys, *base) == explicit["0"]
    monkeypatch.setenv("POLYRIG_SEED", "junk")
    with pytest.raises(SystemExit) as info:
        main(base)
    assert info.value.code == 2


def test_usage_error_leaves_the_parser_intact(capsys, tmp_path, cube_off):
    _parser.cache_clear()
    with pytest.raises(SystemExit) as info:
        main(["witness", cube_off])
    assert info.value.code == 2
    assert "--measurements" in capsys.readouterr().err
    after_error = run(capsys, "analyze", cube_off)
    _parser.cache_clear()
    assert run(capsys, "analyze", cube_off) == after_error


HELP_ARGV = [
    [],
    ["analyze"],
    ["select"],
    ["check"],
    ["generate"],
    ["witness"],
    ["polygon"],
    ["polygon", "analyze"],
    ["polygon", "oracle"],
    ["polygon", "staircase"],
]


@pytest.mark.parametrize("argv", HELP_ARGV, ids=lambda a: "-".join(a) or "polyrig")
def test_help_is_that_of_an_uncached_parser(monkeypatch, capsys, argv):
    monkeypatch.delenv("POLYRIG_SEED", raising=False)
    helps = []
    for parse in (main, _parser.__wrapped__("0").parse_args):
        with pytest.raises(SystemExit) as info:
            parse(argv + ["--help"])
        assert info.value.code == 0
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1]
    assert helps[0].out.startswith("usage: polyrig")


def test_generate_out_of_region_exits_2(capsys):
    code, _, err = run(capsys, "generate", "hexa-a", "--q1", "0.4")
    assert code == 2
    assert "OutOfValidityRegion" in err


def test_generate_staircase_off(tmp_path):
    path = tmp_path / "s.off"
    code = main(
        [
            "generate", "staircase-ngon",
            "--n", "4",
            "--angles", f"{np.pi / 4},{np.pi / 4}",
            "--out", str(path),
        ]
    )
    assert code == 0
    coords, faces = read_off(path.read_text())
    assert coords.shape == (4, 3)
    assert np.abs(coords[:, 2]).max() == 0.0
    assert faces == [(0, 1, 2, 3)]


def test_polygon_staircase_payload(capsys):
    code, out, _ = run(
        capsys, "polygon", "staircase", "--n", "6",
        "--angles", "1.2,1.2,1.2,1.2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert len(payload["points"]) == 6
    assert len(payload["measurements"]) == 6
    kinds = [m["type"] for m in payload["measurements"]]
    assert kinds == ["distance", "distance"] + ["angle"] * 4


def test_polygon_analyze_square(capsys, tmp_path):
    cfg = _write(tmp_path, "square.json", SQUARE_POINTS)
    four = _write(tmp_path, "four.json", EXCEPTIONAL_FOUR)
    code, out, _ = run(capsys, "polygon", "analyze", cfg, "--measurements", four)
    assert code == 1
    assert "second-order" in json.loads(out)["status"]


def test_polygon_oracle_square(capsys):
    code, out, _ = run(capsys, "polygon", "oracle", "square", "--d", "1.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["maxAngle"] == pytest.approx(np.pi / 2, abs=1e-9)
    assert len(payload["argmax"]) == 4


def test_polygon_oracle_right_quad(capsys):
    code, out, _ = run(
        capsys, "polygon", "oracle", "right-quad",
        "--ab", "1.0", "--ad", "1.0", "--ac", str(np.sqrt(2.0)),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["angleABC"] == pytest.approx(np.pi / 2, abs=1e-7)
    assert payload["angleADC"] == pytest.approx(np.pi / 2, abs=1e-7)


@pytest.mark.parametrize("scale", ["1e200", "1e308"])
def test_polygon_oracle_right_quad_angles_at_extreme_scales(capsys, scale):
    """The tangency angles are measured at unit size: at the input's size
    their squares overflowed from about 1e154, and both read 3 pi / 4."""
    s = float(scale)
    code, out, _ = run(capsys, "polygon", "oracle", "right-quad",
                       "--ab", str(s), "--ad", str(s), "--ac", str(1.7 * s))
    assert code == 0
    payload = json.loads(out)
    assert payload["angleABC"] == pytest.approx(np.pi / 2, abs=1e-7)
    assert payload["angleADC"] == pytest.approx(np.pi / 2, abs=1e-7)

@pytest.mark.parametrize(
    "argv",
    [
        ["polygon", "oracle", "square", "--d", "1.7e308"],
        ["polygon", "oracle", "max-diag", "--bd", "1.7e308", "--theta1", "1.0", "--theta2", "1.0"],
    ],
)
def test_oracle_overflow_exits_2(capsys, argv):
    """An oracle whose points (the square's |AC|) or maximum (max|AC|)
    overflow the float range once ran forever, or printed inf, which is not
    JSON; it exits 2 with nothing on stdout."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "overflows the float range" in err

@pytest.mark.parametrize(
    "argv, option, text",
    [
        (["polygon", "oracle", "square", "--d", "nan"], "--d", "nan"),
        (["polygon", "oracle", "square", "--d", "inf"], "--d", "inf"),
        (["polygon", "oracle", "max-diag", "--bd", "nan"], "--bd", "nan"),
        (["polygon", "oracle", "right-quad", "--ac=-inf"], "--ac", "-inf"),
        (["polygon", "staircase", "--n", "4", "--angles", "0.5,0.5", "--base", "nan"],
         "--base", "nan"),
        (["generate", "cube", "--scale", "1e999"], "--scale", "1e999"),
        (["polygon", "oracle", "square", "--d", "one"], "--d", "one"),
    ],
)
def test_non_finite_float_options_exit_2(capsys, argv, option, text):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument {option}: expected a finite number, got {text!r}" in captured.err


def test_non_finite_staircase_angle_exits_2(capsys):
    code, out, err = run(capsys, "polygon", "staircase", "--n", "4", "--angles", "0.5,nan")
    assert code == 2 and out == ""
    assert "bad --angles '0.5,nan': expected a finite number, got 'nan'" in err


def test_polygon_oracle_octagon_smoke(capsys):
    code, out, _ = run(capsys, "polygon", "oracle", "octagon", "--restarts", "3")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["maxValue"] - payload["regularValue"]) < 1e-8
    assert payload["angleA5A1A8"] == pytest.approx(3 * np.pi / 8, abs=1e-7)
    assert 1 <= payload["restartsAtMax"] <= 3


def test_octagon_oracle_without_restarts_exits_2(capsys):
    # no restart can meet the 11 constraints: the oracle is inconclusive,
    # an error with nothing on stdout
    code, out, err = run(capsys, "polygon", "oracle", "octagon", "--restarts", "0")
    assert (code, out) == (2, "")
    assert err == "error: OracleInconclusive: no SQP restart satisfied the 11 constraints\n"


# a triangular bipyramid with its lower apex pushed up to the vertex
# centroid: the three lower faces are dents whose planes pass through it
DENTED_BIPYRAMID_OFF = """OFF
5 6 9
2 0 0
-1 2 0
-1 -2 0
0 0 4
0 0 1
3 0 1 3
3 1 2 3
3 2 0 3
3 1 0 4
3 2 1 4
3 0 2 4
"""


def test_face_plane_through_the_centroid_exits_2(capsys, tmp_path):
    path = tmp_path / "dented.off"
    path.write_text(DENTED_BIPYRAMID_OFF)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert "DegenerateFace" in err and "vertex centroid" in err


def test_malformed_inputs_exit_2(capsys, tmp_path, cube_off):
    bad_off = tmp_path / "bad.off"
    bad_off.write_text("OFF\n1 2\n")
    code, _, err = run(capsys, "analyze", str(bad_off))
    assert code == 2 and "error" in err

    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.off"))
    assert code == 2

    cfg = _write(tmp_path, "sq.json", SQUARE_POINTS)
    bad_ms = _write(
        tmp_path, "bad.json",
        {"dim": 2, "measurements": [{"type": "laser", "ids": [0, 1]}]},
    )
    code, _, err = run(capsys, "check", cfg, "--measurements", bad_ms)
    assert code == 2

    code, _, _ = run(capsys, "analyze", str(bad_off), "--tol", "5.0")
    assert code == 2

    nan_off = tmp_path / "nan.off"
    nan_off.write_text(Path(cube_off).read_text().replace("0.5", "nan", 1))
    code, _, err = run(capsys, "analyze", str(nan_off))
    assert code == 2 and "non-finite" in err


SQUARE_SIDES = {"dim": 2, "measurements": [
    {"type": "distance", "ids": [i, (i + 1) % 4]} for i in range(4)]}

# JSON that parses but is no input: (point config, measurement set, message)
MALFORMED_JSON = {
    "list-type": (SQUARE_POINTS, {"dim": 2, "measurements": [
        {"type": ["distance"], "ids": [0, 1]}]}, "unknown measurement type"),
    "object-type": (SQUARE_POINTS, {"dim": 2, "measurements": [
        {"type": {"distance": 1}, "ids": [0, 1]}]}, "unknown measurement type"),
    "number-coplanar": ({**SQUARE_POINTS, "coplanar": 5}, SQUARE_SIDES,
                        "'coplanar' must be a list"),
    "null-coplanar": ({**SQUARE_POINTS, "coplanar": None}, SQUARE_SIDES,
                      "'coplanar' must be a list"),
    "string-and-bool-coordinates": (
        {"dim": 2, "points": [["0", "0"], [True, False], [0, 1], [1, 1]]}, SQUARE_SIDES,
        "non-numeric point coordinate"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
@pytest.mark.parametrize("verb", [["check"], ["polygon", "analyze"], ["witness"]],
                         ids=lambda v: "-".join(v))
def test_malformed_json_exits_2(capsys, tmp_path, case, verb):
    """Malformed JSON is an input error: exit 2 and nothing on stdout, not a
    TypeError's exit 1 (the code of a negative verdict), nor a string or bool
    read as a number."""
    config, measurements, message = MALFORMED_JSON[case]
    cfg = _write(tmp_path, "cfg.json", config)
    ms = _write(tmp_path, "ms.json", measurements)
    code, out, err = run(capsys, *verb, cfg, "--measurements", ms,
                         *(["--restarts", "4"] if verb == ["witness"] else []))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_pool_verbs_call_the_verdicts_the_module_holds(monkeypatch, capsys, cube_off):
    """analyze and select call the is_sufficient and greedy_minimal_subset
    found on polyrig.cli when they run, also through the cached parser, so a
    wrapper put on the module sees every verdict."""
    monkeypatch.delenv("POLYRIG_SEED", raising=False)
    build_parser()  # the cached parser predates the wrappers
    calls = []
    for name in ("is_sufficient", "greedy_minimal_subset"):
        def wrapped(*args, _name=name, _verdict=getattr(polyrig.cli, name), **kwargs):
            calls.append(_name)
            return _verdict(*args, **kwargs)

        monkeypatch.setattr(polyrig.cli, name, wrapped)
    for _ in range(2):
        assert main(["analyze", cube_off]) == 0
        assert main(["select", cube_off]) == 0
    capsys.readouterr()
    assert calls == ["is_sufficient", "greedy_minimal_subset"] * 2


# options, POLYRIG_SEED, and the message of a negative restart count or seed
NEGATIVE_COUNTS = [
    (["--restarts", "-3"], None, "restarts must be non-negative, got -3"),
    (["--seed", "-1"], None, "seed must be non-negative, got -1"),
    ([], "-2", "seed must be non-negative, got -2"),
]


@pytest.mark.parametrize("verb", ["witness", "octagon"])
@pytest.mark.parametrize("options,env_seed,message", NEGATIVE_COUNTS)
def test_negative_restarts_and_seeds_exit_2_by_name(
    monkeypatch, capsys, tmp_path, verb, options, env_seed, message
):
    """A negative restart count or seed, from its option or from
    POLYRIG_SEED, is an input error that names it, not a search that found
    nothing or numpy's bare complaint about a negative seed."""
    monkeypatch.delenv("POLYRIG_SEED", raising=False)
    if env_seed is not None:
        monkeypatch.setenv("POLYRIG_SEED", env_seed)
    if verb == "witness":
        cfg = _write(tmp_path, "square.json", SQUARE_POINTS)
        ms = _write(tmp_path, "sides.json", {"dim": 2, "measurements": [
            {"type": "distance", "ids": [i, (i + 1) % 4]} for i in range(4)]})
        argv = ["witness", cfg, "--measurements", ms]
    else:
        argv = ["polygon", "oracle", "octagon"]
    code, out, err = run(capsys, *argv, *options)
    assert (code, out, err) == (2, "", f"error: {message}\n")


BAD_POINT_IDS = {
    "face-distance-3d": (3, {"type": "face_distance", "ids": [0, 1]}, "not a point measurement"),
    "past-the-end-2d": (2, {"type": "distance", "ids": [0, 9]}, "point id 9 out of range 0..3"),
    "past-the-end-3d": (3, {"type": "distance", "ids": [0, 9]}, "point id 9 out of range 0..3"),
    "negative-2d": (2, {"type": "distance", "ids": [0, -1]}, "point id -1 out of range 0..3"),
    "negative-3d": (3, {"type": "angle", "ids": [-1, 0, 2]}, "point id -1 out of range 0..3"),
}


# check and polygon analyze take 2D point configs only
BAD_POINT_ID_RUNS = [
    (verb, case)
    for case, (dim, _, _) in sorted(BAD_POINT_IDS.items())
    for verb in (["check", "polygon-analyze"] if dim == 2 else []) + ["witness"]
]


@pytest.mark.parametrize("verb,case", BAD_POINT_ID_RUNS)
def test_point_config_measurement_ids_are_checked(capsys, tmp_path, verb, case):
    """An id past the config's points or a negative one (which numpy would
    wrap to the last point), or a mesh measurement on points, is an input
    error: exit 2, nothing on stdout, and no traceback."""
    dim, bad, message = BAD_POINT_IDS[case]
    points = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]] if dim == 3 else SQUARE_POINTS["points"]
    cfg = _write(tmp_path, "cfg.json", {"dim": dim, "points": points})
    ms = _write(tmp_path, "ms.json", {"dim": dim, "measurements": [
        {"type": "distance", "ids": [0, 1]}, {"type": "distance", "ids": [1, 2]}, bad]})
    argv = verb.split("-") + [cfg, "--measurements", ms]
    code, out, err = run(capsys, *argv, *(["--restarts", "4"] if verb == "witness" else []))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_dihedral_of_faces_without_a_common_edge_exits_2(capsys, tmp_path, cube_off):
    _, faces = read_off(Path(cube_off).read_text())
    adjacent = build_incidence(faces).adjacent_faces()
    f, g = next((f, g) for f in range(6) for g in range(f + 1, 6) if (f, g) not in adjacent)
    ms = _write(tmp_path, "opposite.json", {"dim": 3, "measurements": [
        {"type": "dihedral", "ids": [0, 1]}, {"type": "dihedral", "ids": [g, f]}]})
    for verb in ("check", "witness"):
        code, out, err = run(capsys, verb, cube_off, "--measurements", ms)
        assert code == 2 and out == ""
        assert f"dihedral faces {g} and {f} share no edge" in err


def test_witness_of_a_first_order_flex_only_exits_0(capsys, tmp_path):
    """The dodecahedron's 30 edges flex to first order only: the projection
    slides back to within the 1e-5 diameters its residual admits, so no
    witness is reported."""
    off = str(tmp_path / "dodeca.off")
    assert main(["generate", "dodecahedron", "--out", off]) == 0
    _, faces = read_off(Path(off).read_text())
    ms = tmp_path / "edges.json"
    ms.write_text(measurements_to_json(3, build_pool(build_incidence(faces), "edges-only")))
    code, out, _ = run(capsys, "witness", off, "--measurements", str(ms))
    assert code == 0
    assert json.loads(out) == {
        "note": "first-order flex only", "sufficient": False, "witness": None}


def test_witness_of_a_relabelled_dodecahedron_exits_0(capsys, tmp_path):
    """Renumbering the vertices does not turn the first-order flex of the
    dodecahedron's 30 edges into a witness."""
    coords, faces = read_off(run(capsys, "generate", "dodecahedron")[1])
    perm = np.random.default_rng(3).permutation(len(coords))  # old vertex v is new perm[v]
    relabelled = np.empty_like(coords)
    relabelled[perm] = coords
    faces = [[int(perm[v]) for v in f] for f in faces]
    off = tmp_path / "dodeca.off"
    off.write_text(off_text(relabelled, faces))
    ms = tmp_path / "edges.json"
    ms.write_text(measurements_to_json(3, build_pool(build_incidence(faces), "edges-only")))
    code, out, _ = run(capsys, "witness", str(off), "--measurements", str(ms))
    assert code == 0
    assert json.loads(out) == {
        "note": "first-order flex only", "sufficient": False, "witness": None}


@pytest.mark.parametrize(
    "argv",
    [
        ["right-quad", "--ab", "1", "--ad", "1", "--ac", "1.4142135623730951"],
        ["right-quad", "--ab", "6e299", "--ad", "8e299", "--ac", "1.5e300"],
        ["right-quad", "--ab", "6e-301", "--ad", "8e-301", "--ac", "1.5e-300"],
        ["max-diag", "--bd", "2", "--theta1", "0.7", "--theta2", "0.7"],
        ["max-diag", "--bd", "1e-300", "--theta1", "0.7", "--theta2", "0.7"],
        ["max-diag", "--bd", "1e300", "--theta1", "0.7", "--theta2", "0.7"],
    ],
    ids=["right-quad", "right-quad-huge", "right-quad-tiny", "max-diag", "max-diag-tiny",
         "max-diag-huge"],
)
def test_oracle_derived_fields_keep_their_bits(capsys, argv):
    """The oracle verb reads right-quad's two angles and max-diag's four
    sides from one kernel pass on the argmax at unit size: each is, bit for
    bit, the one-measurement value (an angle) or np.linalg.norm times the
    unit (a side) on the printed argmax, which the JSON's 17 digits carry
    exactly."""
    code, out, err = run(capsys, "polygon", "oracle", *argv)
    assert (code, err) == (0, "")
    report = json.loads(out)
    argmax = np.array(report["argmax"])
    unit = _unit(argmax)
    scaled = argmax / unit
    if argv[0] == "right-quad":
        assert report["angleABC"] == measurement_value(Angle(0, 1, 2), scaled)
        assert report["angleADC"] == measurement_value(Angle(0, 3, 2), scaled)
    else:
        a, b, c, d = scaled
        for key, (p, q) in {"ab": (a, b), "ad": (a, d), "cb": (c, b), "cd": (c, d)}.items():
            assert report[key] == float(np.linalg.norm(p - q)) * unit, key


@pytest.mark.parametrize("bd", [1.0, 1e-300, 1e300])
def test_polygon_oracle_max_diag_reports_the_rhombus_sides(capsys, bd):
    """At theta1 = theta2 = pi/4 the maximizer is a rhombus on BD: its four
    sides are (bd / 2) / sin(pi / 8), taken at unit size at any scale."""
    code, out, err = run(capsys, "polygon", "oracle", "max-diag", "--bd", repr(bd))
    assert (code, err) == (0, "")
    report = json.loads(out)
    side = bd * 0.5 / np.sin(np.pi / 8.0)
    for key in ("ab", "ad", "cb", "cd"):
        assert report[key] == pytest.approx(side, rel=1e-14), key
    assert report["maxDiagonal"] == pytest.approx(bd * (1.0 + np.sqrt(2.0)), rel=1e-14)
    A, B, C, D = np.array(report["argmax"]) / bd
    assert np.allclose([B, D], [[0.0, 0.0], [1.0, 0.0]], rtol=0.0, atol=1e-15)
    assert np.linalg.norm(A - C) == pytest.approx(1.0 + np.sqrt(2.0), rel=1e-14)


def test_generate_hexa_b_has_twelve_equal_face_diagonals(capsys):
    code, out, err = run(capsys, "generate", "hexa-b", "--q1", "0.15", "--q2", "0.1")
    assert (code, err) == (0, "")
    coords, faces = read_off(out)
    assert coords.shape == (8, 3) and len(faces) == 6
    diagonals = [np.linalg.norm(coords[f[i]] - coords[f[i + 2]]) for f in faces for i in (0, 1)]
    assert np.ptp(diagonals) < 1e-12


def test_generate_regular_ngon_is_one_face_of_equal_sides(capsys):
    code, out, err = run(capsys, "generate", "regular-ngon", "--n", "5", "--side", "2")
    assert (code, err) == (0, "")
    coords, faces = read_off(out)
    assert faces == [(0, 1, 2, 3, 4)]
    assert np.allclose(coords[:, 2], 0.0)
    sides = np.linalg.norm(coords - np.roll(coords, -1, axis=0), axis=1)
    assert np.allclose(sides, 2.0, rtol=1e-15, atol=0.0)


def test_a_measurement_of_the_other_kind_is_told_the_types_to_use(capsys, tmp_path, cube_off):
    """The hint lists the MEASUREMENT_TYPES names of the input's kind."""
    point_set = tmp_path / "distance.json"
    point_set.write_text(json.dumps(
        {"dim": 3, "measurements": [{"type": "distance", "ids": [0, 1]}]}))
    code, out, err = run(capsys, "check", cube_off, "--measurements", str(point_set))
    assert (code, out) == (2, "")
    assert err == ("error: Distance is not a mesh measurement; "
                   "use face_distance, face_angle, or dihedral\n")

    config = tmp_path / "cube.json"
    points = read_off(Path(cube_off).read_text())[0].tolist()
    config.write_text(json.dumps({"dim": 3, "points": points}))
    mesh_set = tmp_path / "face_distance.json"
    mesh_set.write_text(json.dumps(
        {"dim": 3, "measurements": [{"type": "face_distance", "ids": [0, 1]}]}))
    code, out, err = run(capsys, "witness", str(config), "--measurements", str(mesh_set))
    assert (code, out) == (2, "")
    assert err == ("error: FaceDistance is not a point measurement; "
                   "use distance, angle, or diagonal_angle\n")


SQUARE_3D = {"dim": 3, "points": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]}
SIDES_3D = {**SQUARE_SIDES, "dim": 3}


def _input_error_runs(tmp_path, cube_off):
    """(argv, message) of each input error the CLI loaders and verbs raise."""
    extra = tmp_path / "extra-vertex.off"
    lines = Path(cube_off).read_text().splitlines()
    nv, nf, ne = map(int, lines[1].split())
    extra.write_text("\n".join(
        ["OFF", f"{nv + 1} {nf} {ne}", *lines[2 : 2 + nv], "5 5 5", *lines[2 + nv :]]) + "\n")
    broken = tmp_path / "broken.json"
    broken.write_text('{"dim": 2, "measurements": [')
    square = _write(tmp_path, "square.json", SQUARE_POINTS)
    sides = _write(tmp_path, "sides.json", SQUARE_SIDES)
    square3 = _write(tmp_path, "square3.json", SQUARE_3D)
    sides3 = _write(tmp_path, "sides3.json", SIDES_3D)
    return [
        (["analyze", str(extra)], "faces reference 8 vertices, file lists 9"),
        (["check", square, "--measurements", str(broken)], "invalid JSON"),
        (["check", cube_off, "--measurements", sides], "a mesh takes a dim-3 measurement set"),
        (["check", square3, "--measurements", sides], "config dim 3 != measurement-set dim 2"),
        (["witness", square, "--measurements", sides3, "--restarts", "4"],
         "config dim 2 != measurement-set dim 3"),
        (["check", square3, "--measurements", sides3],
         "a point config and its measurement set must both have dim 2"),
        (["generate", "staircase-ngon", "--n", "6"], "--angles is required (4 comma-separated"),
    ]


def test_input_errors_exit_2_with_their_message(capsys, tmp_path, cube_off):
    """An OFF file whose faces miss a listed vertex, invalid JSON, a dim-2
    set on a mesh, a config and set of different dims, a dim-3 point config
    under check, and a staircase n-gon without --angles: each exits 2 with
    its message and prints nothing on stdout."""
    for argv, message in _input_error_runs(tmp_path, cube_off):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and message in err, (argv, err)


def test_check_reads_a_path_of_another_suffix_by_its_first_character(capsys, tmp_path, cube_off):
    """check reads an input whose name ends in neither .off nor .json as a
    point config when its text starts with '{', and as an OFF mesh
    otherwise, with the verdicts of the same inputs under their suffixes."""
    config = tmp_path / "square.txt"
    config.write_text("  \n" + json.dumps(SQUARE_POINTS))
    five = _write(tmp_path, "five.json", {**SQUARE_SIDES, "measurements": [
        *SQUARE_SIDES["measurements"], {"type": "distance", "ids": [0, 2]}]})
    as_json = run(capsys, "check", _write(tmp_path, "square.json", SQUARE_POINTS),
                  "--measurements", five)
    assert as_json[0] == 0
    assert run(capsys, "check", str(config), "--measurements", five) == as_json

    mesh = tmp_path / "cube.txt"
    mesh.write_text(Path(cube_off).read_text())
    edges = _write(tmp_path, "edges.json", {"dim": 3, "measurements": [
        {"type": "face_distance", "ids": [i, (i + 1) % 4]} for i in range(4)]})
    as_off = run(capsys, "check", cube_off, "--measurements", edges)
    assert as_off[0] == 1 and json.loads(as_off[1])["E"] == 12
    assert run(capsys, "check", str(mesh), "--measurements", edges) == as_off
