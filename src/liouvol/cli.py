"""Command-line front end.

Subcommands: action, grunsky, surface, volume, verify-identity, flow. Each
takes --curve and --out plus only the flags its handler reads (COMMANDS); no
flag sets a map's order. run alone solves the curve's map pair, for
cmd_*(config, writer, f, g). Every run writes its artifacts plus a
manifest.json carrying the config (the command, the curve and that command's
flag values), its hash and a content hash per output file. Exit codes: 0
success, 1 input error (usage errors included), 2 numerical contract failure.
"""

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .action import grunsky_gap, liouville_action
from .curves import CurveSpec
from .errors import ContractError, InputError
from .flow import gradient_ratio_min, run_flow, wp_path_length
from .mapping import conformal_map_pair
from .meshing import (mesh_surface, surface_separation, write_obj,
                      write_vertex_csv)
from .series import circle_samples, coefficient_sum, nonlinearity_of
from .volume import renormalized_volume

FIXTURE_DIR = Path(__file__).parent / "fixtures"
# the Grunsky contract holds when lhs <= rhs (1 + GRUNSKY_SLACK) +
# GRUNSKY_FLOOR: a slack relative to rhs, over 20 times the largest excess
# of resolved maps (3.8e-10 rhs on seeded starlike series and their
# polylines), and a floor for the circle, where both sides are 0
GRUNSKY_SLACK = 1e-8
GRUNSKY_FLOOR = 1e-13
# verify-identity passes when |S - 4 V_R| <= tol |S| + IDENTITY_FLOOR: the
# floor is for the circle, where both sides are 0
IDENTITY_FLOOR = 1e-12


@dataclass
class RunConfig:
    command: str
    curve: str
    out: str = "."
    steps: int = 50
    tol: float = 1e-9
    trace: bool = False
    mesh: str = "64x64"
    r_max: float = 1.0 - 2.0 ** -10
    obj_every: int = 0

    def canonical_json(self):
        # the experiment identity: the command, its curve and its own flags;
        # the output location is not part of it
        keys = ["command", "curve"]
        keys += [_dest(flag) for flag in COMMANDS[self.command][1]]
        return json.dumps({k: getattr(self, k) for k in keys}, sort_keys=True)

    def config_hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    def validate(self):
        if self.steps < 0 or self.steps > 10000:
            raise InputError("step count must be within [0, 10000]")
        if self.obj_every < 0:
            raise InputError("--obj-every must be at least 0")
        if not (0 < self.tol <= 1):
            raise InputError("tolerance must be in (0, 1]")
        rn, an = self.parse_mesh()
        if not (8 <= rn <= 1024 and 8 <= an <= 1024):
            raise InputError("mesh sides must be within [8, 1024]")
        return self

    def parse_mesh(self):
        try:
            rn, an = (int(p) for p in self.mesh.split("x"))
        except ValueError as exc:
            raise InputError(f"bad mesh spec {self.mesh!r}") from exc
        return rn, an


class ArtifactWriter:
    """Deterministic JSON/CSV output plus a hash manifest."""

    def __init__(self, out_dir, config):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.files = {}

    def _register(self, path):
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        self.files[Path(path).name] = digest

    def write_json(self, name, payload):
        path = self.out_dir / name
        body = {"config_hash": self.config.config_hash(), **payload}
        path.write_text(json.dumps(body, sort_keys=True, indent=2,
                                   allow_nan=True) + "\n")
        self._register(path)
        return path

    def write_csv(self, name, header, rows):
        path = self.out_dir / name
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(str(v) if isinstance(v, (int, np.integer))
                                  else repr(float(v)) for v in row))
        path.write_text("\n".join(lines) + "\n")
        self._register(path)
        return path

    def register_external(self, path):
        self._register(path)

    def finish(self):
        manifest = {
            "version": __version__,
            "config": json.loads(self.config.canonical_json()),
            "config_hash": self.config.config_hash(),
            "outputs": self.files,
        }
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        return path


def load_curve(spec):
    """Resolve a curve argument: bundled fixture name or a JSON file path."""
    candidate = FIXTURE_DIR / f"{spec}.json"
    path = candidate if candidate.exists() else Path(spec)
    if not path.exists():
        raise InputError(f"curve file not found: {spec}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"cannot parse curve JSON {path}: {exc}") from exc
    return CurveSpec.from_json(payload)


def cmd_action(config, writer, f, g):
    report = liouville_action(f, g)
    writer.write_json("action.json", asdict(report))
    if config.trace:
        # the coefficient sums at n/4, n/2 and all n circle samples
        inside, outside = (circle_samples(m, nonlinearity_of) for m in (f, g))
        rows = []
        for stride in (4, 2, 1):
            interior = coefficient_sum(f, inside[::stride])
            exterior = coefficient_sum(g, outside[::stride])
            rows.append((inside.size // stride, interior, exterior,
                         interior + exterior + report.log_term))
        writer.write_csv("action_trace.csv",
                         ["samples", "interior", "exterior", "total"], rows)


def cmd_grunsky(config, writer, f, g):
    gap = grunsky_gap(f, g)
    gap["gap"] = gap["rhs"] - gap["lhs"]
    writer.write_json("grunsky.json", gap)
    if gap["lhs"] > gap["rhs"] * (1 + GRUNSKY_SLACK) + GRUNSKY_FLOOR:
        raise ContractError(
            f"area inequality violated: lhs {gap['lhs']} > rhs {gap['rhs']}")


def write_sheets(writer, name, f, g, *mesh_args):
    """Mesh both envelope sheets with mesh_surface(map, *mesh_args) and write
    them as name_in.obj and name_out.obj. Returns the two meshes."""
    meshes = []
    for side, fmap in (("in", f), ("out", g)):
        mesh = mesh_surface(fmap, *mesh_args)
        obj = writer.out_dir / f"{name}_{side}.obj"
        write_obj(obj, mesh.vertices, mesh.faces, mesh.eta,
                  comment=f"{name}_{side} {writer.config.config_hash()}")
        writer.register_external(obj)
        meshes.append(mesh)
    return meshes


def cmd_surface(config, writer, f, g):
    rn, an = config.parse_mesh()
    mesh_in, mesh_out = write_sheets(writer, "surface", f, g,
                                     rn, an, config.r_max)
    for side, mesh in (("in", mesh_in), ("out", mesh_out)):
        csv = writer.out_dir / f"surface_{side}.csv"
        write_vertex_csv(csv, mesh)
        writer.register_external(csv)
    # innermost parameter radius from which the outer annulus stays an
    # immersion (Schwarzian norm below 1) on the sampled grid
    norm_in = mesh_in.curvature[:, 0]
    radii = np.abs(mesh_in.source[1:]).reshape(rn, an)
    ring_max = norm_in[1:].reshape(rn, an).max(axis=1)
    immersed_from = None
    for i in range(rn - 1, -1, -1):
        if ring_max[i] >= 1.0:
            break
        immersed_from = float(radii[i, 0])
    writer.write_json("surface.json", {
        "separation": surface_separation(mesh_in, mesh_out),
        "max_schwarzian_norm_in": float(np.max(norm_in)),
        "max_schwarzian_norm_out": float(np.max(mesh_out.curvature[1:, 0])),
        "immersed_annulus_from_radius": immersed_from,
        "vertices_per_sheet": int(mesh_in.n_vertices),
    })


def cmd_volume(config, writer, f, g):
    writer.write_json("volume.json", asdict(renormalized_volume(f, g)))


def cmd_verify_identity(config, writer, f, g):
    report = renormalized_volume(f, g)
    tol = config.tol * abs(report.action_total) + IDENTITY_FLOOR
    ok = abs(report.identity_residual) <= tol
    writer.write_json("verify_identity.json", {
        **asdict(report),
        "tolerance": tol,
        "passed": bool(ok),
    })
    if not ok:
        raise ContractError(
            f"identity residual {report.identity_residual:.3e} exceeds "
            f"tolerance {tol:.3e}")


def cmd_flow(config, writer, f, g):
    states = run_flow(f, g, max_steps=config.steps)
    rows = [(step, s.action, s.grad_wp_norm_sq, s.step_size, s.roundness)
            for step, s in enumerate(states)]
    writer.write_csv("flow.csv",
                     ["step", "action", "grad_wp_norm_sq", "step_size",
                      "roundness"], rows)
    if config.obj_every > 0:
        for step, s in enumerate(states):
            if step % config.obj_every == 0:
                write_sheets(writer, f"flow_{step:04d}", s.f, s.g)
    ratio = gradient_ratio_min(states)
    writer.write_json("flow.json", {
        "steps_accepted": len(states) - 1,
        "initial_action": states[0].action,
        "final_action": states[-1].action,
        "final_roundness": states[-1].roundness,
        "monotone": bool(all(b.action <= a.action
                             for a, b in zip(states, states[1:]))),
        "wp_path_length": wp_path_length(states),
        "gradient_ratio_min": ratio,
        "wp_length_bound": (0.0 if ratio is None
                            else math.sqrt(states[0].action / ratio)),
    })


# every command also takes --curve and --out; RunConfig holds the defaults
FLAGS = {
    "--steps": dict(type=int, help="maximum number of accepted flow steps"),
    "--tol": dict(type=float, help="relative tolerance of S = 4 V_R"),
    "--trace": dict(action="store_true", help="also write action_trace.csv"),
    "--mesh": dict(help="mesh resolution RxA: rings x angular nodes"),
    "--r-max": dict(type=float, help="outermost parameter radius"),
    "--obj-every": dict(type=int, help="write both sheets as OBJ (surface's "
                                       "default mesh) at every N-th accepted "
                                       "step (0: never)"),
}

COMMANDS = {
    "action": (cmd_action, ("--trace",)),
    "grunsky": (cmd_grunsky, ()),
    "surface": (cmd_surface, ("--mesh", "--r-max")),
    "volume": (cmd_volume, ()),
    "verify-identity": (cmd_verify_identity, ("--tol",)),
    "flow": (cmd_flow, ("--steps", "--obj-every")),
}


def _dest(flag):
    return flag[2:].replace("-", "_")


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit code 1), not argparse's exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def build_parser():
    return _parser(COMMANDS)


def _parser(names):
    """The parser with the subcommands ``names`` only."""
    parser = _Parser(
        prog="liouvol",
        description="Liouville action, envelope surfaces and renormalized "
                    "volume of Jordan curves")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        # flags left unset stay off the namespace, so RunConfig fills them
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--curve", required=True,
                       help="bundled fixture name or curve JSON path")
        p.add_argument("--out", help="output directory")
        for flag in COMMANDS[name][1]:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def run(config):
    """Execute one configured command; returns the process exit code."""
    writer = ArtifactWriter(config.out, config)
    try:
        f, g = conformal_map_pair(load_curve(config.curve))
        COMMANDS[config.command][0](config, writer, f, g)
    except ContractError as exc:
        writer.write_json("diagnostic.json",
                          {"error": type(exc).__name__, "detail": str(exc)})
        writer.finish()
        print(f"numerical contract failed: {exc}", file=sys.stderr)
        return 2
    writer.finish()
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named command needs only its subparser; any other argv gets them all
    names = argv[:1] if argv[:1] and argv[0] in COMMANDS else COMMANDS
    try:
        args = _parser(names).parse_args(argv)
        return run(RunConfig(**vars(args)).validate())
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
