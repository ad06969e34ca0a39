import argparse
import hashlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import liouvol
from liouvol import cli, meshing
from liouvol.cli import main


def run_cli(*args):
    return main(list(args))


def test_verify_identity_circle(tmp_path):
    code = run_cli("verify-identity", "--curve", "circle",
                   "--out", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "verify_identity.json").read_text())
    assert payload["passed"] is True
    assert abs(payload["identity_residual"]) < 1e-6
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "verify_identity.json" in manifest["outputs"]


def test_action_subcommand_and_trace(tmp_path):
    code = run_cli("action", "--curve", "cubic", "--out", str(tmp_path),
                   "--trace")
    assert code == 0
    payload = json.loads((tmp_path / "action.json").read_text())
    assert payload["total"] > 0
    lines = (tmp_path / "action_trace.csv").read_text().strip().split("\n")
    assert lines[0] == "samples,interior,exterior,total"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    # the sample counts are written as integers
    assert [int(line.split(",")[0]) for line in lines[1:]] == [256, 512, 1024]
    assert rows[-1][1:] == [payload["interior_term"],
                            payload["exterior_term"], payload["total"]]


def test_grunsky_subcommand(tmp_path):
    code = run_cli("grunsky", "--curve", "cubic", "--out", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "grunsky.json").read_text())
    assert payload["lhs"] <= payload["rhs"] + 1e-9


def test_grunsky_runs_on_a_curve_off_the_origin(tmp_path):
    ellipse = cli.load_curve("ellipse")
    curve = tmp_path / "moved.json"
    moved = ellipse.points + (0.5 + 0.25j)
    curve.write_text(json.dumps({"points": [[z.real, z.imag]
                                            for z in moved.tolist()]}))
    assert run_cli("grunsky", "--curve", str(curve),
                   "--out", str(tmp_path / "run")) == 0


def test_grunsky_default_grid_is_sized_to_the_maps(tmp_path):
    # the exterior map runs to order 1024, beyond the 256 angular nodes of
    # a fixed 20x8x256 grid, which reads a gap of -6.6e-8 here
    curve = tmp_path / "long.json"
    curve.write_text(json.dumps({"series": [
        [0, 0], [1, 0], [0.00439, 0], [0.00439, 0], [0.00439, 0],
        [0.0921, 0]]}))
    code = run_cli("grunsky", "--curve", str(curve),
                   "--out", str(tmp_path / "run"))
    assert code == 0
    payload = json.loads((tmp_path / "run" / "grunsky.json").read_text())
    assert payload["gap"] >= -1e-10 * payload["rhs"]
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert "grid" not in manifest["config"]


def test_grunsky_contract_is_relative_to_rhs(tmp_path, monkeypatch):
    # an excess of 1e-7 rhs fails the contract however small rhs is (an
    # absolute slack of 1e-6 let it pass), one of 1e-9 rhs does not, and
    # the circle, where lhs and rhs are both 0 to rounding, passes
    import liouvol.cli as cli
    real_gap = cli.grunsky_gap
    codes = []
    for excess in (1e-7, 1e-9):
        monkeypatch.setattr(cli, "grunsky_gap", lambda f, g, excess=excess:
                            {"lhs": 1e-3 * (1 + excess), "rhs": 1e-3})
        codes.append(run_cli("grunsky", "--curve", "cubic",
                             "--out", str(tmp_path / str(excess))))
    monkeypatch.setattr(cli, "grunsky_gap", real_gap)
    codes.append(run_cli("grunsky", "--curve", "circle",
                         "--out", str(tmp_path / "circle")))
    assert codes == [2, 0, 0]


def test_surface_subcommand(tmp_path):
    code = run_cli("surface", "--curve", "cubic", "--out", str(tmp_path),
                   "--mesh", "16x32")
    assert code == 0
    for name in ("surface_in.obj", "surface_out.obj", "surface_in.csv",
                 "surface_out.csv", "surface.json"):
        assert (tmp_path / name).exists()
    payload = json.loads((tmp_path / "surface.json").read_text())
    assert payload["separation"] >= 0


def test_flow_subcommand(tmp_path):
    code = run_cli("flow", "--curve", "wobble", "--out", str(tmp_path),
                   "--steps", "5")
    assert code == 0
    payload = json.loads((tmp_path / "flow.json").read_text())
    assert payload["monotone"] is True
    lines = (tmp_path / "flow.csv").read_text().strip().split("\n")
    assert lines[0].startswith("step,action")
    assert len(lines) >= 2
    # the step column is written as integers
    steps = [int(line.split(",")[0]) for line in lines[1:]]
    assert steps == list(range(len(steps)))


def test_flow_reports_wp_path_length(tmp_path):
    code = run_cli("flow", "--curve", "wobble", "--out", str(tmp_path),
                   "--steps", "5")
    assert code == 0
    length = json.loads((tmp_path / "flow.json").read_text())["wp_path_length"]
    lines = (tmp_path / "flow.csv").read_text().strip().split("\n")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    # columns: step, action, grad_wp_norm_sq, step_size, roundness; each
    # step adds its decrease over the mean gradient norm at its ends, and
    # sqrt(S) of the last state is the length left to the circle
    recomputed = math.fsum(
        [(a[1] - b[1]) / ((math.sqrt(a[2]) + math.sqrt(b[2])) / 2.0)
         for a, b in zip(rows, rows[1:])] + [math.sqrt(rows[-1][1])])
    assert length > 0
    assert abs(length - recomputed) <= 1e-12 * recomputed
    payload = json.loads((tmp_path / "flow.json").read_text())
    assert payload["wp_length_bound"] == math.sqrt(
        payload["initial_action"] / payload["gradient_ratio_min"])

    # the circle takes no step: its length is sqrt(S) of its rounding-level
    # action, and no state's action lies above the floor of the ratio
    circle = tmp_path / "circle"
    assert run_cli("flow", "--curve", "circle", "--out", str(circle)) == 0
    payload = json.loads((circle / "flow.json").read_text())
    assert payload["steps_accepted"] == 0
    assert payload["wp_path_length"] == math.sqrt(payload["final_action"])
    assert payload["wp_path_length"] < 1e-12
    assert payload["gradient_ratio_min"] is None
    assert payload["wp_length_bound"] == 0.0


@pytest.mark.parametrize("name", ["circle", "ellipse", "cubic", "wobble"])
def test_flow_roundness_is_exact(tmp_path, name):
    # the deficit L^2/(4 pi A) - 1 is read from the exterior map: row 0 of
    # the ellipse fixture is the 1.2 x 1 ellipse's own, and every flow ends
    # round to rounding (an inscribed 4096-gon would read 1.96e-7 there)
    assert run_cli("flow", "--curve", name, "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "flow.json").read_text())
    assert abs(payload["final_roundness"]) <= 1e-14
    if name == "ellipse":
        lines = (tmp_path / "flow.csv").read_text().strip().split("\n")
        first = float(lines[1].split(",")[4])
        # the trapezoid sum of the speed is exact to rounding on a period
        t = 2 * np.pi * np.arange(4096) / 4096
        length = 2 * np.pi * np.mean(np.hypot(1.2 * np.sin(t), np.cos(t)))
        exact = length ** 2 / (4 * np.pi * np.pi * 1.2) - 1
        assert abs(first - exact) <= 1e-12


SCALED = np.array([0, 1, 0.1 + 0.05j, -0.03j])


def _scaled_curve(tmp_path, scale):
    path = tmp_path / f"curve_{scale:g}.json"
    path.write_text(json.dumps(
        {"series": [[c.real, c.imag] for c in scale * SCALED]}))
    return str(path)


def _scaled_outputs(tmp_path, scale):
    curve, out = _scaled_curve(tmp_path, scale), tmp_path / f"out_{scale:g}"
    assert run_cli("action", "--curve", curve, "--out", str(out)) == 0
    assert run_cli("verify-identity", "--curve", curve,
                   "--out", str(out)) == 0
    return (json.loads((out / "action.json").read_text())["total"],
            json.loads((out / "verify_identity.json").read_text())["V_R"])


@pytest.mark.parametrize("scale", [1e-200, 1e-20, 1e-14, 1e20, 1e150, 1e200])
def test_action_and_volume_are_free_of_the_curve_size(tmp_path, scale):
    # the derivative floor scales with the map, so a tiny curve is no
    # singular map; volume() scales the maps to |b1| near 1 before its
    # rays, so no height leaves the float range and no kappa log(scale)
    # is left over from the rounding of the rays' kappa sums
    s_ref, v_ref = _scaled_outputs(tmp_path, 1.0)
    s, v_r = _scaled_outputs(tmp_path, scale)
    assert abs(s - s_ref) <= 1e-12 * s_ref
    assert abs(v_r - v_ref) <= 2e-13 * v_ref


@pytest.mark.parametrize("scale", [1e-14, 1e200])
def test_flow_is_free_of_the_curve_size(tmp_path, scale):
    # the roundness is read from g scaled to b1 = 1, so no length squares
    # past the float range
    curve = _scaled_curve(tmp_path, scale)
    assert run_cli("flow", "--curve", curve, "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "flow.json").read_text())
    assert payload["final_action"] < 1e-9


def _surface_outputs(tmp_path, scale):
    curve, out = _scaled_curve(tmp_path, scale), tmp_path / f"out_{scale:g}"
    assert run_cli("surface", "--curve", curve, "--out", str(out),
                   "--mesh", "16x16") == 0
    return json.loads((out / "surface.json").read_text())


@pytest.mark.parametrize("exponent", [-332, 332, 498, 664])
def test_surface_is_free_of_the_curve_size(tmp_path, exponent):
    # the sheets are built and their distance measured on the maps scaled
    # exactly to unit size: the face orientation and the point-triangle
    # distance form squares and fourth powers of lengths
    scale = 2.0 ** exponent
    ref = _surface_outputs(tmp_path, 1.0)
    out = _surface_outputs(tmp_path, scale)
    assert abs(out["separation"] / scale - ref["separation"]) \
        <= 1e-10 * ref["separation"]
    for key in ("max_schwarzian_norm_in", "max_schwarzian_norm_out"):
        assert abs(out[key] - ref[key]) <= 1e-12


def test_flow_obj_every_writes_sheets_of_every_nth_step(tmp_path):
    code = run_cli("flow", "--curve", "wobble", "--out", str(tmp_path),
                   "--steps", "5", "--obj-every", "5")
    assert code == 0
    accepted = json.loads(
        (tmp_path / "flow.json").read_text())["steps_accepted"]
    assert accepted == 5
    expected = {f"flow_{step:04d}_{side}.obj"
                for step in range(0, accepted + 1, 5) for side in ("in", "out")}
    assert {p.name for p in tmp_path.glob("*.obj")} == expected
    outputs = json.loads((tmp_path / "manifest.json").read_text())["outputs"]
    assert expected <= set(outputs)


def test_verify_identity_contract_failure_exits_2(tmp_path, monkeypatch):
    # a residual of 1.0 lies far above 1e-6 |S| + IDENTITY_FLOOR
    renormalized_volume = cli.renormalized_volume
    monkeypatch.setattr(cli, "renormalized_volume", lambda f, g: replace(
        renormalized_volume(f, g), identity_residual=1.0))
    code = run_cli("verify-identity", "--curve", "ellipse",
                   "--out", str(tmp_path), "--tol", "1e-6")
    assert code == 2
    diag = json.loads((tmp_path / "diagnostic.json").read_text())
    assert diag["error"] == "ContractError"
    payload = json.loads((tmp_path / "verify_identity.json").read_text())
    assert payload["passed"] is False


def test_verify_identity_tol_is_relative_to_the_action(tmp_path, monkeypatch):
    # a residual of 1e-5 exceeds --tol 1e-6 times the ellipse's S = 0.315;
    # no absolute floor above IDENTITY_FLOOR lets it pass
    renormalized_volume = cli.renormalized_volume
    monkeypatch.setattr(cli, "renormalized_volume", lambda f, g: replace(
        renormalized_volume(f, g), identity_residual=1e-5))
    code = run_cli("verify-identity", "--curve", "ellipse",
                   "--out", str(tmp_path), "--tol", "1e-6")
    assert code == 2
    payload = json.loads((tmp_path / "verify_identity.json").read_text())
    assert payload["tolerance"] == (1e-6 * abs(payload["action_total"])
                                    + cli.IDENTITY_FLOOR)


def test_obj_outputs_need_no_welding(tmp_path, monkeypatch):
    # every OBJ comes from mesh_surface, so the welding cannot end a dump
    def forbidden(*args, **kwargs):
        raise AssertionError("an OBJ output used the welding")

    monkeypatch.setattr(meshing, "welding", forbidden)
    monkeypatch.setattr(meshing, "aligned_surface_meshes", forbidden)
    assert run_cli("surface", "--curve", "cubic", "--out",
                   str(tmp_path / "surface"), "--mesh", "8x8") == 0
    assert run_cli("flow", "--curve", "cubic", "--out", str(tmp_path / "flow"),
                   "--steps", "2", "--obj-every", "1") == 0
    assert len(list((tmp_path / "surface").glob("surface_*.obj"))) == 2
    assert len(list((tmp_path / "flow").glob("flow_*.obj"))) == 6


def test_missing_curve_file_is_input_error(tmp_path):
    code = run_cli("action", "--curve", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path))
    assert code == 1


def test_malformed_curve_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run_cli("action", "--curve", str(bad), "--out", str(tmp_path))
    assert code == 1


@pytest.mark.parametrize("payload", [
    '{"series": [[0, 0], [1]]}',
    '{"series": [[0, 0], [1, "x"]]}',
    '{"series": 5}',
    '{"series": [[0, 0], [1, 0], [null, 0]]}',
    '{"series": [[0, 0], [1e400, 0]]}',           # parses as inf
    '{"series": [[false, false], [true, false], [0.05, 0]]}',
    # both entries, each a curve on its own
    '{"series": [[0, 0], [1, 0], [0.05, 0]], "points": [[1, 0], [1, 1],'
    ' [0, 1], [-1, 1], [-1, 0], [-1, -1], [0, -1], [1, -1]]}',
    '{"points": [[1, 0], [0, 1], [-1, 0], [0, -1e400]]}',
    # seven vertices and the closing copy of the first
    '{"points": [[2, 0], [1, 1], [0, 1], [-1, 0], [0, -1], [1, -1], [2, -0.5],'
    ' [2, 0]]}',
    '"series"',
    '5',
])
def test_malformed_curve_entries_are_input_errors(tmp_path, capsys, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    code = run_cli("action", "--curve", str(bad), "--out", str(tmp_path))
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")


def test_bad_grid_spec_is_input_error(tmp_path):
    # grunsky takes no --grid: the flag is a usage error
    code = run_cli("grunsky", "--curve", "circle", "--out", str(tmp_path),
                   "--grid", "banana")
    assert code == 1


@pytest.mark.parametrize("flag", ["--steps", "--obj-every"])
def test_negative_flow_counts_are_input_errors(tmp_path, capsys, flag):
    code = run_cli("flow", "--curve", "circle", "--out", str(tmp_path),
                   flag, "-1")
    assert code == 1
    assert "input error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("mesh", ["7x64", "64x7", "1025x64", "64x1025",
                                  "100000x100000"])
def test_mesh_sides_outside_8_to_1024_are_input_errors(tmp_path, capsys,
                                                       monkeypatch, mesh):
    # refused before any map is solved or mesh built: 100000x100000 would
    # ask mesh_surface for 1e10 vertices
    def forbidden(*args, **kwargs):
        raise AssertionError("an out-of-range mesh reached the solvers")

    monkeypatch.setattr(cli, "conformal_map_pair", forbidden)
    monkeypatch.setattr(cli, "mesh_surface", forbidden)
    code = run_cli("surface", "--curve", "circle", "--out", str(tmp_path),
                   "--mesh", mesh)
    assert code == 1
    assert "input error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["volume", "verify-identity"])
@pytest.mark.parametrize("height", ["nan", "inf", "-0.02"])
def test_nonfinite_or_nonpositive_height_is_input_error(tmp_path, capsys,
                                                        command, height):
    # the volume takes no truncation heights: --eps-schedule, whatever its
    # values, is a usage error before any output is written
    code = run_cli(command, "--curve", "ellipse", "--out", str(tmp_path),
                   "--eps-schedule", height, "0.01", "0.005")
    assert code == 1
    assert "input error:" in capsys.readouterr().err
    assert not (tmp_path / "diagnostic.json").exists()


@pytest.mark.parametrize("args", [
    ("action", "--curve", "circle", "--bogus"),
    ("action", "--curve", "circle", "--steps", "3"),   # a flow flag
    ("flow", "--curve", "circle", "--steps", "x"),
    ("volume", "--curve", "circle", "--eps-schedule", "0.1", "0.05",
     "0.025"),                                          # a removed flag
    (),                                                 # no subcommand
])
def test_usage_errors_are_input_errors(capsys, args):
    assert run_cli(*args) == 1
    assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [("--help",), ("--version",),
                                  ("flow", "--help")])
def test_help_and_version_exit_0(args):
    with pytest.raises(SystemExit) as exc:
        run_cli(*args)
    assert exc.value.code == 0


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit):
        run_cli("--help")
    out = capsys.readouterr().out
    assert all(name in out for name in cli.COMMANDS)


@pytest.mark.parametrize("args", [
    ("action", "--curve", "circle", "--steps", "3"),
    ("verify-identity", "--curve", "circle", "--tol", "x"),
    ("--help",),
    (),
    ("bogus", "--curve", "circle"),
])
def test_usage_errors_exit_1_and_help_exits_0(args):
    # one parser, built once, answers every argv: a usage error is an input
    # error (exit 1), and --help exits 0
    try:
        assert run_cli(*args) == 1
    except SystemExit as exc:
        assert args == ("--help",) and exc.code == 0


def test_verify_identity_takes_each_maps_circle_jet_once(tmp_path,
                                                         monkeypatch):
    # the action and the mean curvature sample the same 3-jet on the unit
    # circle: one ring FFT per derivative per map, not two
    import liouvol.series as series
    ring_jet, calls = series.ring_jet, []

    def counted(m, radii, n, upto=3):
        ring = max(1024, 8 * 2 ** math.ceil(math.log2(m.order + 1)))
        if np.all(np.asarray(radii) == 1.0) and n == ring:
            calls.append(m)
        return ring_jet(m, radii, n, upto)

    monkeypatch.setattr(series, "ring_jet", counted)
    for curve in ("cubic", "ellipse"):
        calls.clear()
        assert run_cli("verify-identity", "--curve", curve,
                       "--out", str(tmp_path)) == 0
        assert len(calls) == 2 and calls[0] is not calls[1]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_each_command_solves_its_curve_once(tmp_path, monkeypatch, command):
    # run turns the curve into its map pair once, and every handler (the
    # flow too) starts from that pair: no other module solves the curve
    import liouvol.flow as flow
    calls = []

    def counting(module):
        solve = module.conformal_map_pair

        def counted(*args, **kwargs):
            calls.append(module.__name__)
            return solve(*args, **kwargs)
        return counted

    for module in (cli, flow):
        monkeypatch.setattr(module, "conformal_map_pair", counting(module))
    steps = ("--steps", "0") if command == "flow" else ()
    assert run_cli(command, "--curve", "cubic", "--out", str(tmp_path),
                   *steps) == 0
    assert calls == ["liouvol.cli"]


def test_subcommands_take_only_their_flags():
    common = {"--curve", "--out"}
    table = {
        "action": {"--trace"},
        "grunsky": set(),
        "surface": {"--mesh", "--r-max"},
        "volume": set(),
        "verify-identity": {"--tol"},
        "flow": {"--steps", "--obj-every"},
    }
    parser = cli._parser()
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(table)
    for name, flags in table.items():
        options = {opt for action in sub.choices[name]._actions
                   for opt in action.option_strings} - {"-h", "--help"}
        assert options == common | flags, name


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_order_and_dump_flags_are_input_errors(tmp_path, command):
    # the solvers choose every map's order, and surface writes the sheets
    # that volume's OBJ dump repeated
    flags = [("--series-order", "64")]
    if command == "volume":
        flags.append(("--dump-obj",))
    for flag in flags:
        out = tmp_path / flag[0][2:]
        assert run_cli(command, "--curve", "circle", "--out", str(out),
                       *flag) == 1
        assert not out.exists()


def test_manifest_config_names_only_the_command_flags(tmp_path):
    assert run_cli("action", "--curve", "circle", "--out", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest["config"]) == {"command", "curve", "trace"}


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = run_cli("action", "--curve", "cubic", "--out", str(out))
        assert code == 0
    for name in ("action.json", "manifest.json"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]
    assert m1["config_hash"] == m2["config_hash"]


def test_manifest_lists_all_outputs(tmp_path):
    code = run_cli("volume", "--curve", "circle", "--out", str(tmp_path))
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    written = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
    assert set(manifest["outputs"]) == written
    for name, digest in manifest["outputs"].items():
        import hashlib
        assert hashlib.sha256(
            (tmp_path / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("args", [
    ("surface", "--mesh", "16x24"),
    ("flow", "--steps", "4", "--obj-every", "2"),
])
def test_manifest_hashes_the_files_on_disk(tmp_path, args):
    # the writer hashes the bytes it writes; they are the file's bytes
    assert run_cli(*args, "--curve", "wobble", "--out", str(tmp_path)) == 0
    outputs = json.loads((tmp_path / "manifest.json").read_text())["outputs"]
    assert set(outputs) == {p.name for p in tmp_path.iterdir()} \
        - {"manifest.json"}
    assert any(name.endswith(".obj") for name in outputs)
    for name, digest in outputs.items():
        assert hashlib.sha256(
            (tmp_path / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("curve", ["ellipse", "cubic", "wobble"])
def test_surface_reports_the_apex_norm(tmp_path, curve):
    # the largest Schwarzian norm of the exterior sheet sits at its apex at
    # infinity, 1.5 |b_-1 / b1|, and the report counts that row
    assert run_cli("surface", "--curve", curve, "--out", str(tmp_path),
                   "--mesh", "16x24") == 0
    report = json.loads((tmp_path / "surface.json").read_text())
    column = np.loadtxt(tmp_path / "surface_out.csv", delimiter=",",
                        skiprows=1)[:, 8]
    _, g = cli.conformal_map_pair(cli.load_curve(curve))
    assert report["max_schwarzian_norm_out"] == column.max()
    assert column.max() >= 1.5 * abs(g.bneg[0] / g.b1)


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported only where polylines are splined and where the
    # surface separation builds its k-d tree
    src = str(Path(liouvol.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, liouvol.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def _uniform_angles(x):
    """Whether x holds the n-th roots of unity, or their inverses, in
    order, for some n >= 64."""
    x = np.asarray(x).ravel()
    if x.size < 64:
        return False
    roots = np.exp(2j * np.pi * np.arange(x.size) / x.size)
    return any(np.max(np.abs(x - r)) < 1e-12 for r in (roots, roots.conj()))


def test_horner_sees_no_uniform_angles(tmp_path, monkeypatch):
    # the commands evaluate maps at n uniform angles only by ring FFTs:
    # Horner (_taylor_horner, behind every jet, __call__, eval_unchecked
    # and deriv_at) is left the scattered points
    import liouvol.series as series
    horner = series._taylor_horner
    uniform = []

    def taylor(c, x, upto):
        uniform.append(_uniform_angles(x))
        return horner(c, x, upto)

    monkeypatch.setattr(series, "_taylor_horner", taylor)
    star = tmp_path / "star.json"
    star.write_text(json.dumps({"series": [[0, 0], [1, 0], [0, 0], [0, 0],
                                           [0, 0], [0.08, 0]]}))
    for args in (("action", "--curve", str(star)),
                 ("grunsky", "--curve", str(star)),
                 ("verify-identity", "--curve", str(star)),
                 ("flow", "--curve", "ellipse", "--steps", "2")):
        assert run_cli(*args, "--out", str(tmp_path / args[0])) == 0
    assert uniform and not any(uniform)


def test_every_exported_function_runs_under_the_cli_or_is_hooked(tmp_path):
    # the library is what the CLI runs: a function liouvol exports is called
    # by one of these commands or hooked by the benchmark's spans; code that
    # only the tests call belongs in tests/oracles.py
    path = Path(__file__).parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    hooked = {(hook.module, hook.attr) for hook in spans.HOOKS}

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    runs = [("action", "--trace"), ("grunsky",), ("surface", "--mesh", "8x8"),
            ("volume",), ("verify-identity",),
            ("flow", "--steps", "1", "--obj-every", "1")]
    sys.setprofile(profile)
    try:
        codes = [run_cli(*run, "--curve", "cubic",
                         "--out", str(tmp_path / run[0])) for run in runs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs)
    unused = [name for name, fn in vars(liouvol).items()
              if inspect.isfunction(fn) and fn.__code__ not in called
              and (fn.__module__.rpartition(".")[2], name) not in hooked]
    # so is every method and property of an exported class
    for cls in vars(liouvol).values():
        if not inspect.isclass(cls) or issubclass(cls, BaseException):
            continue
        module = cls.__module__.rpartition(".")[2]
        for attr, member in vars(cls).items():
            name = f"{cls.__name__}.{attr}"
            code = _own_code(member)
            if (code is not None and code not in called
                    and (module, name) not in hooked):
                unused.append(name)
    assert unused == []


def _own_code(member):
    """The code of a function, property, cached property or class method
    written in liouvol's source, else None: the methods the dataclass
    machinery generates have no source file."""
    for attr in ("fget", "func", "__func__"):
        member = getattr(member, attr, member)
    code = getattr(member, "__code__", None)
    source = Path(liouvol.__file__).parent
    if code is not None and Path(code.co_filename).parent == source:
        return code
    return None
