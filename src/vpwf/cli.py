"""Command-line front end: generate | simulate | analyze | rescale.

Configuration comes from flags plus an optional key=value file given with
--config; flags win over file values.  In the file, a switch such as
``quality`` is set by on/true/yes and left unset by off/false/no.  Exit
codes: 0 ok, 2 bad arguments, 3 I/O or parse failure, 4 flow failure.
"""

import argparse
import math
import os
import re
import sys

# honor the thread cap before numpy initializes its pools
_threads = os.environ.get("VPWF_THREADS")
if _threads:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, _threads)

import numpy as np

from . import fileio
from .ddg import build_cache
from .diagnostics import record as make_record
from .diagnostics import sphere_fit
from .errors import (
    BadParamsError,
    FileFormatError,
    MeshError,
    VpwfError,
)
from .flow import FlowConfig, FlowState, QualityConfig, StopRule, run
from .generators import ellipsoid, icosphere, perturbed_sphere, torus
from .mesh import validate
from .rescale import RescaleSpec, rescale_mesh, rescale_record

EXIT_OK = 0
EXIT_BAD_ARGS = 2
EXIT_IO = 3
EXIT_FLOW = 4

# a comma-separated list whose first entry is a negative number
_NEGATIVE_LIST = re.compile(r"-\.?\d[^,]*,")


def _float_list(text):
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated floats")


def _add_generator_args(p):
    p.add_argument("--shape",
                   choices=["icosphere", "ellipsoid", "torus",
                            "perturbed_sphere"],
                   help="generator to build the initial mesh")
    p.add_argument("--level", type=int, default=3,
                   help="subdivision level for sphere-based shapes")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--a", type=float, default=1.0,
                   help="ellipsoid x semi-axis, or torus tube radius")
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--big-radius", type=float, default=2.0,
                   help="torus center-circle radius")
    p.add_argument("--nu", type=int, default=48)
    p.add_argument("--nv", type=int, default=24)
    p.add_argument("--harmonic-l", type=int, default=3)
    p.add_argument("--harmonic-m", type=int, default=2)
    p.add_argument("--amplitude", type=float, default=0.05)


def _add_flow_args(p):
    p.add_argument("--dt-safety", type=float, default=0.045)
    p.add_argument("--dt-max", type=float, default=1e-4)
    p.add_argument("--projection-tol", type=float, default=1e-10)
    p.add_argument("--dissipation-tol", type=float, default=1e-6)
    p.add_argument("--max-time", type=float, default=math.inf)
    p.add_argument("--max-steps", type=int, default=100000)
    p.add_argument("--speed-tol", type=float, default=0.0,
                   help="stop when max normal speed drops below (0 = off)")
    p.add_argument("--wbar-tol", type=float, default=0.0,
                   help="stop when the bending energy drops below (0 = off); "
                        "the clamp max(H^2/2 - 2K, 0) can make it exactly 0 "
                        "while the surface is still visibly non-round, so "
                        "use --speed-tol to detect convergence")
    p.add_argument("--quality", action="store_true", default=False,
                   help="flip edges whose opposite angles sum above "
                        "--flip-threshold every --quality-cadence steps")
    p.add_argument("--quality-cadence", type=int, default=25)
    p.add_argument("--flip-threshold", type=float, default=math.pi)
    p.add_argument("--record-cadence", type=int, default=10)
    p.add_argument("--kappa-radii", type=_float_list, default=(0.5, 1.0, 4.0))
    p.add_argument("--snapshot-times", type=_float_list, default=())
    p.add_argument("--snapshot-prefix", default="snapshot")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vpwf",
        description="Volume-preserving Willmore flow of closed triangle "
                    "meshes: generators, simulator, diagnostics, rescaling.",
        allow_abbrev=False,
    )
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--config", help="key=value file with defaults "
                                         "(flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a generated mesh as OBJ",
                       parents=[common], allow_abbrev=False)
    _add_generator_args(g)
    g.add_argument("--out", required=True)

    s = sub.add_parser("simulate", help="run the flow, write trajectory CSV",
                       parents=[common], allow_abbrev=False)
    _add_generator_args(s)
    s.add_argument("--in", dest="input", help="input OBJ/OFF mesh "
                                              "(alternative to --shape)")
    _add_flow_args(s)
    s.add_argument("--csv", help="trajectory CSV output path")
    s.add_argument("--final-obj", help="write the final mesh here")

    a = sub.add_parser("analyze", help="one diagnostics row for a mesh file",
                       parents=[common], allow_abbrev=False)
    a.add_argument("input", help="OBJ or OFF mesh path")
    a.add_argument("--kappa-radii", type=_float_list, default=(0.5, 1.0, 4.0))
    a.add_argument("--csv", help="also write the row as CSV")

    r = sub.add_parser("rescale", help="parabolic rescaling of a trajectory",
                       parents=[common], allow_abbrev=False)
    r.add_argument("input", help="trajectory CSV path")
    r.add_argument("--rho", type=float, required=True)
    r.add_argument("--origin", type=_float_list, default=(0.0, 0.0, 0.0))
    r.add_argument("--out", required=True)
    r.add_argument("--mesh", action="append", default=[],
                   help="also rescale this OBJ mesh (repeatable)")
    r.add_argument("--check-invariants", action="store_true",
                   help="print the multiplier integrals before and after")
    return parser


def _apply_config_file(parser, argv):
    """Load key=value defaults from --config before the real parse."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return argv
    defaults = {}
    try:
        with open(known.config) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise FileFormatError(
                        "expected key=value", known.config, lineno
                    )
                key, value = (x.strip() for x in line.split("=", 1))
                defaults[key] = value
    except OSError as exc:
        print("vpwf: cannot read config: %s" % exc, file=sys.stderr)
        sys.exit(EXIT_IO)
    # inject as option tokens ahead of the user's flags so flags win; one
    # --key=value token each, so a value may start with a minus
    injected = []
    for key, value in defaults.items():
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "on", "yes"):
            injected.append(flag)
        elif value.lower() not in ("false", "off", "no"):
            injected.append("%s=%s" % (flag, value))
    command, rest = argv[0], argv[1:]
    return [command] + injected + rest


def _generate_mesh(args):
    if args.shape == "icosphere":
        return icosphere(args.level, args.radius)
    if args.shape == "ellipsoid":
        return ellipsoid(args.a, args.b, args.c, args.level)
    if args.shape == "torus":
        return torus(args.big_radius, args.a, args.nu, args.nv)
    if args.shape == "perturbed_sphere":
        return perturbed_sphere(args.level, args.radius, args.harmonic_l,
                                args.harmonic_m, args.amplitude)
    raise BadParamsError("no shape given")


def _load_mesh(path):
    if path.endswith(".off"):
        return fileio.read_off(path)
    return fileio.read_obj(path)


def _flow_config(args):
    return FlowConfig(
        dt_safety=args.dt_safety,
        dt_max=args.dt_max,
        projection_tol=args.projection_tol,
        dissipation_tol=args.dissipation_tol,
        stop=StopRule(
            max_time=args.max_time,
            max_steps=args.max_steps,
            speed_tol=args.speed_tol,
            wbar_tol=args.wbar_tol,
        ),
        quality=QualityConfig(
            enabled=args.quality,
            flip_threshold_angle=args.flip_threshold,
            cadence_steps=args.quality_cadence,
        ),
        record_cadence=args.record_cadence,
        kappa_radii=tuple(args.kappa_radii),
        snapshot_times=tuple(args.snapshot_times),
    )


def _print_report(title, row):
    """The global energies of a :class:`~vpwf.diagnostics.DiagnosticsRecord`."""
    print(title)
    print("  area                = %.12g" % row.area)
    print("  signed volume       = %.12g" % row.volume)
    print("  willmore            = %.12g" % row.willmore)
    print("  wbar                = %.12g" % row.wbar)
    print("  gauss-bonnet defect = %.12g" % row.gauss_bonnet_defect)
    print("  lambda              = %.12g" % row.lam)


def _print_sphere_fit(mesh, cache):
    center, radius, rms, worst = sphere_fit(mesh, cache.mass)
    print("  best-fit sphere: center (%.9g, %.9g, %.9g)" % tuple(center))
    print("    radius %.9g, rms deviation %.3g, max deviation %.3g"
          % (radius, rms, worst))


def cmd_generate(args):
    mesh = _generate_mesh(args)
    topo = validate(mesh)
    fileio.write_obj(mesh, args.out, comments=[
        "vpwf generate shape=%s" % args.shape,
    ])
    print("wrote %s: %d vertices, %d faces, euler characteristic %d"
          % (args.out, topo.vertex_count, topo.face_count,
             topo.euler_characteristic))
    return EXIT_OK


def cmd_simulate(args):
    if args.input:
        mesh = _load_mesh(args.input)
    elif args.shape:
        mesh = _generate_mesh(args)
    else:
        print("vpwf simulate: need --in or --shape", file=sys.stderr)
        return EXIT_BAD_ARGS
    validate(mesh)
    config = _flow_config(args)
    try:
        traj = run(mesh, config)
    except VpwfError as exc:
        print("vpwf simulate: flow failed: %s" % exc, file=sys.stderr)
        last = getattr(exc, "last_state", None)
        if last is not None:
            path = "%s_lastgood.obj" % args.snapshot_prefix
            fileio.write_obj(last.mesh, path, comments=[
                "vpwf last good state t=%r" % last.time,
            ])
            print("vpwf simulate: last good state written to %s" % path,
                  file=sys.stderr)
        return EXIT_FLOW
    if args.csv:
        fileio.write_trajectory_csv(traj.records, args.csv)
    for t, snap in traj.snapshots:
        path = "%s_t%.9g.obj" % (args.snapshot_prefix, t)
        fileio.write_obj(snap, path, comments=["vpwf snapshot t=%r" % t])
    if args.final_obj:
        fileio.write_obj(traj.final_state.mesh, args.final_obj,
                         comments=["vpwf final state t=%r"
                                   % traj.final_state.time])
    state = traj.final_state
    print("stop reason: %s after %d steps (t = %.9g)"
          % (traj.stop_reason, state.step_index, state.time))
    # run always records the final state, so the last row is its row
    _print_report("final energies:", traj.records[-1])
    _print_sphere_fit(state.mesh, state.cache)
    return EXIT_OK


def cmd_analyze(args):
    mesh = _load_mesh(args.input)
    validate(mesh)
    cache = build_cache(mesh)
    row = make_record(FlowState(mesh=mesh), cache,
                      FlowConfig(kappa_radii=tuple(args.kappa_radii)))
    print("diagnostics for %s:" % args.input)
    _print_report("energies:", row)
    print("  diameter            = %.12g (bound %.12g)"
          % (row.diameter, row.diameter_bound))
    print("  isoperimetric ratio = %.12g" % row.isoperimetric_ratio)
    for r, v in row.kappa.items():
        print("  kappa(r=%g)          = %.12g" % (r, v))
    print("  scale defect        = %.3g" % row.scale_defect)
    print("  translation defect  = %.3g" % row.translation_defect)
    print("  min face quality    = %.6g" % row.min_face_quality)
    print("  li-yau (W < 8pi)    = %s" % row.li_yau)
    _print_sphere_fit(mesh, cache)
    if args.csv:
        fileio.write_trajectory_csv([row], args.csv)
    return EXIT_OK


def cmd_rescale(args):
    spec = RescaleSpec(rho=args.rho, origin=tuple(args.origin))
    records, _, comments = fileio.read_trajectory_csv(args.input)
    out = [rescale_record(rec, spec) for rec in records]
    provenance = [
        "vpwf rescale rho=%r origin=%r source=%s"
        % (args.rho, tuple(args.origin), args.input),
    ]
    fileio.write_trajectory_csv(out, args.out,
                                comments=comments + provenance)
    if args.check_invariants:
        for name, sel in (("L43", lambda r: r.accum_L43),
                          ("L2A", lambda r: r.accum_L2A)):
            before = sel(records[-1])
            after = sel(out[-1])
            denom = max(abs(before), 1e-300)
            print("%s: before %.17g after %.17g relative delta %.3g"
                  % (name, before, after, abs(after - before) / denom))
    for mesh_path in args.mesh:
        mesh = _load_mesh(mesh_path)
        scaled = rescale_mesh(mesh, spec)
        out_path = mesh_path.rsplit(".", 1)[0] + ".rescaled.obj"
        fileio.write_obj(scaled, out_path, comments=[
            "vpwf rescale rho=%r origin=%r source=%s"
            % (args.rho, tuple(args.origin), mesh_path),
        ])
        print("wrote %s" % out_path)
    return EXIT_OK


def _join_negative_lists(argv):
    """Attach a comma list that starts with a minus to the flag before it.

    argparse takes ``-0.34,1.3,-0.58`` for an option, so ``--origin
    -0.34,1.3,-0.58`` becomes the single token ``--origin=-0.34,1.3,-0.58``.
    """
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and len(out[-1]) > 2
                and "=" not in out[-1] and _NEGATIVE_LIST.match(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    argv = _join_negative_lists(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if argv and not argv[0].startswith("-"):
        argv = _apply_config_file(parser, argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = {
        "generate": cmd_generate,
        "simulate": cmd_simulate,
        "analyze": cmd_analyze,
        "rescale": cmd_rescale,
    }[args.command]
    try:
        return handler(args)
    except (FileNotFoundError, OSError, FileFormatError, MeshError) as exc:
        print("vpwf: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except BadParamsError as exc:
        print("vpwf: %s" % exc, file=sys.stderr)
        return EXIT_BAD_ARGS
    except VpwfError as exc:
        print("vpwf: %s" % exc, file=sys.stderr)
        return EXIT_FLOW


if __name__ == "__main__":
    sys.exit(main())
