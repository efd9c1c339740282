"""vpwf benchmark: run one workload in one process and print its metrics.

    python3 perfbench/run.py --workload relax --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  The seed picks a rigid motion that is
applied to the preset's generated mesh; the moved mesh reaches the program
as an OBJ through ``vpwf simulate --in``.  The workload drives
``vpwf.cli.main`` with the shipped ``scenarios/*.cfg`` plus the public
analysis calls, in whole rounds: at least two, and more while the next
one is likely to end within ``--seconds`` of the first step.  Each round
is timed in stretches scaled by a probe (``pace.py``).  Afterwards the
outputs of the last round are checked against computations made apart
from the program (``checks.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` operations, and the metrics.  With ``--trace
0`` they are the end-to-end metrics, measured untraced; with ``--trace 1``
every public function listed in ``tracing.py`` records spans and the metrics
are the per-layer ones, reported per round.  The process exits 0 when
every check passes, 1 when one fails and 2 when the program or its
presets cannot be found.
"""

import os
import sys

import threadcap

if __name__ == "__main__":
    threadcap.cap()

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import pace  # noqa: E402
from tracing import Tracer  # noqa: E402

# preset, generator level (None: the preset's own) and extra simulate flags
WORKLOADS = {
    "relax": ("ellipsoid-to-sphere", 3, []),
    "onset": ("ellipsoid-to-sphere", None, ["--max-time", "0.003"]),
    "monitor": ("sphere-stationarity", None, []),
    "blowup": ("perturbed-sphere", None, []),
}

# blow-up analysis: the concentration threshold and window constant of the
# acceptance criterion on the perturbed preset
BLOWUP_THRESHOLD = 4.0 * math.pi
BLOWUP_WINDOW_CONSTANT = 2e-6

# rounds per run at the least
MIN_ROUNDS = 2

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = [
    "flow.step.count", "flow.step.trials", "flow.step.accept_ratio",
    "flow.step.p50_us", "flow.step.p99_us", "flow.step.self_ms",
    "flow.run.self_ms", "flow.quality_pass.count", "flow.quality_pass.ms",
    "ddg.build_cache.count", "ddg.build_cache.p50_us",
    "ddg.build_cache.self_ms", "ddg.build_laplacian.ms",
    "ddg.lumped_mass.ms", "ddg.vertex_normals.ms", "ddg.mean_curvature.ms",
    "ddg.gaussian_curvature.ms",
    "functionals.wbar.ms", "functionals.lagrange_multiplier.ms",
    "diagnostics.record.count", "diagnostics.record.p50_ms",
    "diagnostics.record.self_ms", "diagnostics.concentration.count",
    "diagnostics.concentration.ms", "diagnostics.concentration_radius.ms",
    "diagnostics.sphere_fit.ms",
    "rescale.blowup_window.self_ms", "rescale.rescale_record.count",
    "fileio.write_obj.ms", "fileio.write_obj.bytes", "fileio.read_obj.ms",
    "fileio.read_obj.bytes", "fileio.write_trajectory_csv.ms",
    "fileio.write_trajectory_csv.bytes", "fileio.read_trajectory_csv.ms",
    "mesh.validate.ms", "generators.icosphere.ms", "generators.ellipsoid.ms",
    "generators.perturbed_sphere.ms", "cli.main.self_ms",
]

UNITS = {"count": "count", "trials": "count", "accept_ratio": "ratio",
         "ms": "ms", "self_ms": "ms", "p50_ms": "ms", "p50_us": "us",
         "p99_us": "us", "bytes": "bytes"}


def no_program(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def process_start():
    """Start of this process on the CLOCK_BOOTTIME scale, in seconds.

    Field 22 of /proc/self/stat, in clock ticks, so set-up counts the
    interpreter's own start too.
    """
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[19]) / os.sysconf("SC_CLK_TCK")


def load_vpwf():
    """Import vpwf from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import vpwf.cli
    except ImportError as exc:
        no_program("cannot import vpwf from %s: %s" % (src, exc))
    if not os.path.abspath(vpwf.cli.__file__).startswith(src + os.sep):
        no_program("vpwf came from %s, not %s" % (vpwf.cli.__file__, src))
    return vpwf


class OpFailed(Exception):
    pass


class Workload:
    """Inputs, outputs and operations of one workload in one directory."""

    def __init__(self, vpwf, name, seed, out):
        self.vpwf = vpwf
        self.name = name
        preset, level, self.flags = WORKLOADS[name]
        self.cfg_path = os.path.join(ROOT, "scenarios", preset + ".cfg")
        if not os.path.isfile(self.cfg_path):
            no_program("missing preset %s" % self.cfg_path)
        self.cfg = checks.read_cfg(self.cfg_path)
        self.level = level if level is not None else int(self.cfg["level"])
        self.rotation, self.translation = checks.rigid_motion(seed)
        self.out = out
        self.input = os.path.join(out, "input.obj")
        self.csv = os.path.join(out, "run.csv")
        self.final = os.path.join(out, "final.obj")
        self.prefix = os.path.join(out, "snap")
        self.logs = []
        self.steps = self.stop_reason = None
        # step index of every row the flow recorded in the last simulate
        self.row_steps = []
        self.traj = None
        self.windows = []
        self.deltas = {}
        self.rho = self.origin = None
        # span index ranges of the last round's simulate call
        self.sim_spans = (0, 0)

    def make_input(self):
        """Generate the preset's mesh, move it rigidly, write it as OBJ."""
        gen = self.vpwf.generators
        cfg = self.cfg
        shape = cfg["shape"]
        if shape == "ellipsoid":
            mesh = gen.ellipsoid(float(cfg["a"]), float(cfg["b"]),
                                 float(cfg["c"]), self.level)
        elif shape == "icosphere":
            mesh = gen.icosphere(self.level, float(cfg["radius"]))
        elif shape == "perturbed_sphere":
            mesh = gen.perturbed_sphere(
                self.level, float(cfg["radius"]), int(cfg["harmonic-l"]),
                int(cfg["harmonic-m"]), float(cfg["amplitude"]))
        else:
            no_program("no input recipe for shape %s" % shape)
        positions = mesh.positions @ self.rotation.T + self.translation
        checks.write_obj(self.input, positions, mesh.faces)

    def cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.vpwf.cli.main(argv)
        self.logs.append("$ vpwf %s\n%s" % (" ".join(argv), buf.getvalue()))
        if code != 0:
            raise OpFailed("vpwf %s exited %d" % (argv[0], code))
        return buf.getvalue()

    def operations(self):
        """Number of operations in one round."""
        if self.name != "blowup":
            return 1
        later = [t for t in self.snapshot_times() if t > 0.0]
        # simulate, read the snapshots, one window per snapshot with a
        # later one, rescale, analyze
        return 2 + len(later) + 2

    def simulate(self, tracer):
        lo = len(tracer) if tracer is not None else 0
        # flow.run looks its record function up in vpwf.diagnostics at each
        # call; one list append per row notes the step it was made at
        diagnostics = self.vpwf.diagnostics
        original = diagnostics.record
        self.row_steps = row_steps = []

        def record(state, *args, **kwargs):
            row_steps.append(state.step_index)
            return original(state, *args, **kwargs)

        diagnostics.record = record
        try:
            text = self.cli(["simulate", "--config", self.cfg_path,
                             "--in", self.input, "--csv", self.csv,
                             "--final-obj", self.final,
                             "--snapshot-prefix", self.prefix] + self.flags)
        finally:
            diagnostics.record = original
        self.sim_spans = (lo, len(tracer) if tracer is not None else 0)
        m = re.search(r"stop reason: (\S+) after (\d+) steps", text)
        self.stop_reason, self.steps = m.group(1), int(m.group(2))

    def snapshot_times(self):
        return [float(t) for t in
                self.cfg.get("snapshot-times", "").split(",") if t]

    def snapshots(self):
        """(time, path) of every snapshot OBJ, oldest first."""
        found = []
        for path in glob.glob(self.prefix + "_t*.obj"):
            if path.endswith(".rescaled.obj"):
                continue
            with open(path) as fh:
                m = re.match(r"# vpwf snapshot t=(\S+)", fh.readline())
            found.append((float(m.group(1)), path))
        return sorted(found)

    def read_snapshots(self, snaps):
        self.traj = self.vpwf.flow.Trajectory(snapshots=[
            (t, self.vpwf.fileio.read_obj(path)) for t, path in snaps])

    def blowup_window(self, index):
        w = self.vpwf.rescale.blowup_window(
            self.traj, BLOWUP_THRESHOLD, BLOWUP_WINDOW_CONSTANT,
            start_index=index)
        self.windows.append(w)

    def rescale(self, snaps):
        w = self.windows[0]
        self.rho, self.origin = w.radius, w.center
        argv = ["rescale", self.csv, "--rho", repr(self.rho),
                # one token, since a leading minus would read as a flag
                "--origin=" + ",".join(repr(float(x)) for x in self.origin),
                "--out", os.path.join(self.out, "rescaled.csv"),
                "--check-invariants"]
        for _, path in snaps:
            argv += ["--mesh", path]
        text = self.cli(argv)
        self.deltas = {m.group(1): float(m.group(2)) for m in re.finditer(
            r"(\w+): before \S+ after \S+ relative delta (\S+)", text)}

    def analyze(self, snaps):
        self.cli(["analyze", snaps[-1][1], "--kappa-radii",
                  self.cfg["kappa-radii"], "--csv",
                  os.path.join(self.out, "analyze.csv")])

    def round(self, tracer, attempt):
        """One round; ``attempt(fn, *args)`` runs and counts an operation."""
        self.windows = []
        attempt(self.simulate, tracer)
        if self.name != "blowup":
            return
        snaps = self.snapshots()
        attempt(self.read_snapshots, snaps)
        for index in range(len(snaps) - 1):
            attempt(self.blowup_window, index)
        attempt(self.rescale, snaps)
        attempt(self.analyze, snaps)


def pace_steps(flow, pacers):
    """Wrap flow.step so the current round's pacer sees every step."""
    original = flow.step

    def paced(*args, **kwargs):
        pacers[-1].step()
        return original(*args, **kwargs)

    flow.step = paced
    return original


# --- checks --------------------------------------------------------------

def window_check_args(vpwf, window, source_path):
    """Arguments of checks.check_window for a window and its source OBJ.

    The curvature weights |A|^2 * mass come from vpwf's cache; the
    benchmark sums them over its own balls.
    """
    src_pos, src_faces = checks.read_obj(source_path)
    caches = [vpwf.ddg.build_cache(m)
              for m in (window.mesh, vpwf.mesh.TriMesh(src_pos, src_faces))]
    weights = [c.abs_A_sq * c.mass for c in caches]
    return [window.mesh.positions, weights[0], src_pos, weights[1],
            window.radius, window.center, window.kappa_value]


def check_outputs(wl):
    """Every check of the workload; returns the names that ran."""
    vpwf = wl.vpwf
    in_pos, in_faces = checks.read_obj(wl.input)
    target = checks.signed_volume(in_pos, in_faces)
    table = checks.read_csv(wl.csv)
    final_pos, final_faces = checks.read_obj(wl.final)
    cadence = int(wl.cfg["record-cadence"])
    quality = wl.cfg.get("quality") == "on"
    snaps = wl.snapshots()
    ran = []

    checks.check_volume(target, table["V"], "CSV row")
    checks.check_volume(target, checks.signed_volume(final_pos, final_faces),
                        "final OBJ")
    ran.append("volume")
    checks.check_energy(table, cadence, quality)
    ran.append("energy")
    checks.check_rows(table, wl.steps, cadence, wl.snapshot_times(),
                      [t for t, _ in snaps], wl.row_steps)
    ran.append("rows")
    checks.check_diagnostics(
        table, final_pos if wl.name == "monitor" else None)
    ran.append("diagnostics")

    if wl.name == "relax":
        checks.require(wl.stop_reason == "speed_tol",
                       "relax stopped by %s", wl.stop_reason)
        checks.check_round_sphere(final_pos, final_faces, table["W"][-1],
                                  wl.translation)
        ran.append("round_sphere")
    if wl.name == "monitor":
        checks.check_stationary(final_pos, table, wl.translation)
        ran.append("stationary")
    if wl.name == "blowup":
        checks.check_topology(final_pos, final_faces, "final OBJ")
        for t, path in snaps:
            pos, faces = checks.read_obj(path)
            checks.check_topology(pos, faces, "snapshot t=%r" % t)
            checks.check_volume(target, checks.signed_volume(pos, faces),
                                "snapshot")
        ran.append("topology")
        by_time = dict(snaps)
        for w in wl.windows:
            checks.check_window(*window_check_args(
                vpwf, w, by_time[w.snapshot_time]))
        ran.append("window")
        checks.check_rescaled_table(
            table, checks.read_csv(os.path.join(wl.out, "rescaled.csv")),
            wl.rho)
        for t, path in snaps:
            checks.check_rescaled_mesh(
                checks.read_obj(path[:-4] + ".rescaled.obj")[0],
                checks.read_obj(path)[0], wl.rho, wl.origin)
        checks.check_invariant_deltas(wl.deltas)
        ran.append("rescale")
        row = checks.read_csv(os.path.join(wl.out, "analyze.csv"))
        checks.check_same_row(row, table, snaps[-1][0])
        ran.append("analyze")
    return ran


def check_totals(wl, tracer):
    """Per-round totals that the trace and the outputs reach apart."""
    lo, hi = wl.sim_spans
    steps = tracer.spans("flow.step", lo, hi)
    checks.require(len(steps) == wl.steps, "%d step spans, simulate printed "
                   "%d steps", len(steps), wl.steps)
    trials = sum(1 + tracer.extra[i] for i in steps)
    flow_spans = set(tracer.spans("flow.run", lo, hi) + steps)
    builds = [i for i in tracer.spans("ddg.build_cache", lo, hi)
              if tracer.parents[i] in flow_spans]
    passes = len(tracer.spans("flow.quality_pass", lo, hi))
    checks.require(len(builds) == 1 + trials + passes,
                   "flow made %d build_cache calls for %d trials and %d "
                   "quality passes", len(builds), trials, passes)
    table = checks.read_csv(wl.csv)
    records = tracer.spans("diagnostics.record", lo, hi)
    checks.require(len(records) == len(table), "%d record calls, %d CSV "
                   "rows", len(records), len(table))
    # each record call comes after as many step spans as the step the row
    # was made at
    step_starts = [tracer.starts[i] for i in steps]
    after = [bisect.bisect(step_starts, tracer.starts[i]) for i in records]
    checks.require(after == wl.row_steps, "record calls after %s steps, "
                   "rows at steps %s", after, wl.row_steps)
    writes = len(tracer.spans("fileio.write_obj", lo, hi))
    # check_rows ties the snapshot files to the configured times
    snapshots = len(wl.snapshots())
    checks.require(writes == snapshots + 1, "%d OBJ writes for %d "
                   "snapshots and the final mesh", writes, snapshots)


# --- metrics ---------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    values = sorted(values)
    rank = min(len(values), math.ceil(q * len(values)))
    return float(values[rank - 1])


def layer_metrics(tracer, rounds, first):
    """Per-layer metrics; spans from index ``first`` on are per round.

    The spans before ``first`` come from making the input, which happens
    once per process, so they count in full.
    """
    own = tracer.self_times()
    by_name = {}
    for i, name in enumerate(tracer.names):
        by_name.setdefault(name, []).append(i)

    def total(spans, value):
        once = sum(value(i) for i in spans if i < first)
        return once + sum(value(i) for i in spans if i >= first) / rounds

    out = {}
    for metric in PER_LAYER:
        fn, stat = metric.rsplit(".", 1)
        spans = by_name.get(fn, [])
        durations = [tracer.duration(i) for i in spans]
        if stat == "count":
            value = total(spans, lambda i: 1)
        elif stat == "trials":
            value = total(spans, lambda i: 1 + tracer.extra[i])
        elif stat == "accept_ratio":
            trials = total(spans, lambda i: 1 + tracer.extra[i])
            value = total(spans, lambda i: 1) / trials if trials else 0.0
        elif stat == "ms":
            value = total(spans, tracer.duration) / 1e6
        elif stat == "self_ms":
            value = total(spans, own.__getitem__) / 1e6
        elif stat == "p50_ms":
            value = percentile(durations, 0.50) / 1e6
        elif stat == "p50_us":
            value = percentile(durations, 0.50) / 1e3
        elif stat == "p99_us":
            value = percentile(durations, 0.99) / 1e3
        elif stat == "bytes":
            value = total(spans, tracer.extra.__getitem__)
        out[metric] = {"value": value, "unit": UNITS[stat]}
    return out


def main(argv=None):
    start = process_start()
    boot_offset = time.clock_gettime(time.CLOCK_BOOTTIME) - time.perf_counter()

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    vpwf = load_vpwf()

    # one directory per workload, emptied first, so repeated runs do not
    # pile up outputs
    out = os.path.join(ROOT, ".perfbench_out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    wl = Workload(vpwf, args.workload, args.seed, out)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    # the input and the probe are the benchmark's, not the program's: their
    # time is taken out of setup_s
    made = time.perf_counter()
    wl.make_input()
    # a probe inside the traced run would land in the spans
    probe = pace.Probe() if tracer is None else None
    made = time.perf_counter() - made
    first_round_span = len(tracer) if tracer is not None else 0

    attempted = failed = 0
    errors = []
    pacers = [pace.Pacer(probe)]

    def attempt(fn, *fn_args):
        nonlocal attempted, failed
        pacers[-1].tick()
        attempted += 1
        try:
            fn(*fn_args)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            errors.append("%s: %s: %s" % (fn.__name__,
                                          type(exc).__name__, exc))

    step = pace_steps(vpwf.flow, pacers)
    # (wall, scaled) seconds of each round
    round_times = []
    while True:
        ops_before = attempted
        wl.round(tracer, attempt)
        pacer = pacers[-1]
        if pacer.first is None:  # no step ran: the rest of the round fails
            rest = wl.operations() - (attempted - ops_before)
            attempted, failed = attempted + rest, failed + rest
            errors.append("round %d made no flow step" % len(round_times))
            break
        if not round_times:
            setup_s = pacer.first + boot_offset - start - made
        round_times.append(pacer.finish())
        # another round only if one as long as the last ends in time
        now = time.perf_counter()
        if failed or (len(round_times) >= MIN_ROUNDS and
                      (now - pacers[0].first) + (now - pacer.first)
                      > args.seconds):
            break
        pacers.append(pace.Pacer(probe))
    vpwf.flow.step = step
    rounds = max(len(round_times), 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.remove()
        tracer.write(os.path.join(out, "spans.csv"))
    with open(os.path.join(out, "cli.log"), "w") as fh:
        fh.write("\n".join(wl.logs))

    correct = not failed
    if correct:
        try:
            ran = check_outputs(wl)
            if tracer is not None:
                check_totals(wl, tracer)
                ran.append("totals")
            print("perfbench: checks passed: %s" % ", ".join(ran),
                  file=sys.stderr)
        except Exception as exc:  # a malformed output fails the checks too
            correct = False
            errors.append("check failed: %s: %s" % (type(exc).__name__, exc))
    for line in errors:
        print("perfbench: %s" % line, file=sys.stderr)

    # per-round wall times; traced ones against untraced ones give the
    # tracing overhead
    print("perfbench: %s wall s of %d rounds: %s" % (
        "traced" if tracer is not None else "untraced", len(round_times),
        " ".join("%.4f" % w for w, _ in round_times)), file=sys.stderr)
    if probe is not None and round_times:
        print("perfbench: run_s of the rounds: %s; probe median %.3f ms "
              "over %d stretches" % (
                  " ".join("%.4f" % s for _, s in round_times),
                  1e3 * statistics.median(p for r in pacers for p in r.probes),
                  sum(len(r.probes) for r in pacers)), file=sys.stderr)
    if tracer is not None:
        metrics = layer_metrics(tracer, rounds, first_round_span)
    else:
        metrics = {
            "setup_s": setup_s if round_times else 0.0,
            "run_s": (statistics.median(s for _, s in round_times)
                      if round_times else 0.0),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
