"""Output checks computed apart from vpwf.

Every check reads the program's files with the benchmark's own parsers and
recomputes what it compares against (tetrahedron volumes, sphere fits,
diameters, edge pairings, rescaling weights) with plain numpy.  None of
them depends on a step count or a trajectory value of one version of the
program; each holds for any correct flow.  A failed check raises
:class:`CheckFailed` with the quantity that broke it.
"""

import math

import numpy as np

# the projection leaves a relative volume error of at most its tolerance
# (FlowConfig.projection_tol, which no preset overrides); the slack covers
# the rounding of two independent tetrahedron sums
PROJECTION_TOL = 1e-10
VOLUME_SLACK = 1e-12
# FlowConfig.dissipation_tol: the energy monitor lets wbar rise by at most
# this times max(1, wbar) per accepted step, and the quality pass may add
# one more such allowance
DISSIPATION_TOL = 1e-6
# equal up to the rounding of two summation orders
ROUNDING = 1e-12


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(ok, message, *args):
    if not ok:
        raise CheckFailed(message % args)


# --- readers -------------------------------------------------------------

def read_obj(path):
    """(positions (n, 3) float64, faces (m, 3) int64) of an OBJ file."""
    positions, faces = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                positions.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(x.split("/")[0]) - 1 for x in parts[1:]])
    return (np.array(positions, dtype=np.float64),
            np.array(faces, dtype=np.int64))


def write_obj(path, positions, faces):
    """OBJ with shortest round-trip floats, so a re-read is bit-exact."""
    with open(path, "w") as fh:
        for p in positions:
            fh.write("v %r %r %r\n" % tuple(float(x) for x in p))
        for f in faces:
            fh.write("f %d %d %d\n" % tuple(int(i) + 1 for i in f))


class Table:
    """A trajectory CSV: column name -> float64 array, one entry per row."""

    def __init__(self, header, rows):
        self.header = header
        self.data = np.array(rows, dtype=np.float64).reshape(-1, len(header))

    def __len__(self):
        return self.data.shape[0]

    def __getitem__(self, name):
        return self.data[:, self.header.index(name)]

    def kappa_radii(self):
        return [float(c[len("kappa_"):]) for c in self.header
                if c.startswith("kappa_")]


def read_csv(path):
    header, rows = None, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    require(header is not None, "%s has no header", path)
    return Table(header, rows)


def read_cfg(path):
    """key=value preset file as a dict of strings."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                key, value = (x.strip() for x in line.split("=", 1))
                out[key] = value
    return out


# --- independent computations --------------------------------------------

def signed_volume(positions, faces):
    """Tetrahedron sum, positive for vpwf's inward winding."""
    p0, p1, p2 = (positions[faces[:, k]] for k in range(3))
    return -float(np.sum(np.cross(p1, p2) * p0)) / 6.0


def rigid_motion(seed):
    """Rotation matrix and translation picked by the seed."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    rotation = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    translation = rng.uniform(-0.5, 0.5, size=3)
    return rotation, translation


def fit_sphere(positions):
    """Unweighted least-squares sphere: (centre, radius, rms, max |res|).

    Algebraic fit, then Gauss-Newton on the geometric distances.
    """
    p = positions
    a = np.column_stack([2.0 * p, np.ones(len(p))])
    sol = np.linalg.lstsq(a, np.sum(p * p, axis=1), rcond=None)[0]
    centre = sol[:3]
    radius = math.sqrt(sol[3] + centre @ centre)
    for _ in range(8):
        d = p - centre
        dist = np.sqrt(np.sum(d * d, axis=1))
        jac = np.column_stack([-d / dist[:, None], -np.ones(len(p))])
        upd = np.linalg.lstsq(jac, radius - dist, rcond=None)[0]
        centre = centre + upd[:3]
        radius += upd[3]
    res = np.sqrt(np.sum((p - centre) ** 2, axis=1)) - radius
    rms = math.sqrt(np.mean(res ** 2))
    return centre, radius, rms, float(np.abs(res).max())


def brute_diameter(positions):
    """Largest vertex-pair distance, every pair differenced in float64."""
    best = 0.0
    for i in range(0, len(positions), 256):
        d = positions[i:i + 256, None, :] - positions[None, :, :]
        best = max(best, float(np.max(np.sum(d * d, axis=2))))
    return math.sqrt(best)


def edge_pairing(faces, vertex_count):
    """Euler characteristic, checking that the mesh is closed and oriented.

    Every directed edge must occur once and its reverse once as well.
    """
    directed = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]],
                               faces[:, [2, 0]]])
    code = directed[:, 0] * vertex_count + directed[:, 1]
    reverse = directed[:, 1] * vertex_count + directed[:, 0]
    uniq = np.unique(code)
    require(uniq.size == code.size, "a directed edge occurs twice: "
            "the mesh is not consistently oriented")
    require(np.all(np.isin(reverse, uniq)),
            "an edge has no opposite half: the mesh is not closed")
    used = np.unique(faces)
    require(used.size == vertex_count, "%d vertices are in no face",
            vertex_count - used.size)
    return vertex_count - code.size // 2 + len(faces)


# --- checks ----------------------------------------------------------------

def check_volume(target, volumes, what):
    """Each volume equals the input's to the projection tolerance."""
    volumes = np.atleast_1d(np.asarray(volumes, dtype=np.float64))
    rel = np.abs(volumes - target) / abs(target)
    worst = int(np.argmax(rel))
    require(rel[worst] <= PROJECTION_TOL + VOLUME_SLACK,
            "%s %d: volume %.17g is off the input's %.17g by %.3g (rel)",
            what, worst, volumes[worst], target, rel[worst])


def check_energy(table, cadence, quality):
    """Wbar never rises by more than the monitor allows between rows.

    A row is written at least every ``cadence`` steps, so at most that many
    per-step allowances separate two rows.
    """
    wbar = table["Wbar"]
    per_step = DISSIPATION_TOL * (2.0 if quality else 1.0)
    for i in range(1, len(wbar)):
        allowed = wbar[i - 1] + cadence * per_step * max(1.0, wbar[i - 1]) \
            * (1.0 + per_step) ** cadence
        require(wbar[i] <= allowed, "Wbar rises from %.17g to %.17g "
                "between rows %d and %d", wbar[i - 1], wbar[i], i - 1, i)


def check_rows(table, steps, cadence, snapshot_times, snapshot_files,
               row_steps):
    """One row at t = 0, at every cadence multiple, at each snapshot and at
    the end, in increasing time.

    ``row_steps`` are the step indices at which the flow called its record
    function, ``snapshot_files`` the times read from the snapshot OBJs and
    ``snapshot_times`` the configured ones.  Each configured time that the
    run reached is covered by the first snapshot at or after it (times
    that fall into one step share it), and each snapshot has one row.
    """
    t = table["t"]
    require(len(t) > 0 and t[0] == 0.0, "the first row is not at t = 0")
    require(np.all(np.diff(t) > 0), "row times do not increase")
    require(len(t) == len(row_steps), "%d rows in the CSV, the flow "
            "recorded %d", len(t), len(row_steps))
    row_steps = list(row_steps)
    require(row_steps == sorted(set(row_steps)) and row_steps[0] == 0
            and row_steps[-1] == steps, "rows recorded at steps %s..%s, "
            "not from 0 to %d", row_steps[0], row_steps[-1], steps)
    due = set(range(0, steps + 1, cadence)) | {steps}
    missing = sorted(due - set(row_steps))
    require(not missing, "no row at step %d (%d steps at cadence %d)",
            missing[0] if missing else 0, steps, cadence)
    require((0.0 in snapshot_files) == any(s <= 0.0 for s in snapshot_times),
            "the t = 0 snapshot does not match the configured times")
    later = sorted(f for f in snapshot_files if f > 0.0)
    covering = set()
    for s in sorted(s for s in snapshot_times if 0.0 < s <= t[-1]):
        after = [f for f in later if f >= s]
        require(after, "no snapshot for the configured time %r", s)
        covering.add(after[0])
    for f in later:
        require(f in covering, "a snapshot at t = %r covers no configured "
                "time", f)
        require(np.count_nonzero(t == f) == 1, "no row at snapshot time %r",
                f)
    for k, when in zip(row_steps, t):
        require(k in due or when in later, "a row at step %d, t = %r is "
                "neither due nor a snapshot", k, when)


def check_round_sphere(positions, faces, willmore, translation):
    """Converged to the round sphere of the enclosed volume, in place."""
    require(abs(willmore - 4 * math.pi) <= 0.02 * 4 * math.pi
            and willmore < 8 * math.pi,
            "final W = %.9g is not within 2%% of 4 pi", willmore)
    centre, radius, rms, _ = fit_sphere(positions)
    volume = signed_volume(positions, faces)
    matched = (3.0 * volume / (4 * math.pi)) ** (1 / 3)
    require(abs(radius - matched) <= 0.02 * matched,
            "fitted radius %.9g vs volume-matched %.9g", radius, matched)
    require(rms <= 0.01 * radius, "sphere-fit rms %.3g of the radius",
            rms / radius)
    drift = float(np.linalg.norm(centre - translation))
    require(drift <= 1e-9, "fitted centre moved %.3g from the "
            "ellipsoid's centre of symmetry", drift)


def check_stationary(positions, table, translation):
    """The round sphere stays where it was put and lambda stays ~0."""
    centre = fit_sphere(positions)[0]
    drift = float(np.linalg.norm(centre - translation))
    require(drift <= 1e-3, "sphere centre drifted by %.3g", drift)
    lam = float(np.max(np.abs(table["lambda"])))
    require(lam <= 1e-3, "|lambda| reaches %.3g", lam)


def check_diagnostics(table, final_positions=None):
    """Diameter, its bound and the concentration profile of every row.

    The final row's diameter must equal a brute-force one of the final
    mesh, when given.
    """
    radii = table.kappa_radii()
    diam = table["diam"]
    area, willmore, wbar = table["A"], table["W"], table["Wbar"]
    bound = (2.0 / math.pi) * np.sqrt(area * willmore)
    rel = np.abs(table["diam_bound"] - bound) / bound
    require(np.all(rel <= ROUNDING), "diam_bound differs from "
            "(2/pi) sqrt(A W) by %.3g (rel)", rel.max())
    require(np.all(diam <= bound), "diameter above (2/pi) sqrt(A W)")
    kappa = np.column_stack([table["kappa_%r" % r] for r in radii])
    require(np.all(np.diff(kappa, axis=1) >= 0.0),
            "kappa decreases in r")
    total = wbar + 2.0 * willmore
    for k, r in enumerate(radii):
        whole = r >= diam
        err = np.abs(kappa[whole, k] - total[whole]) / total[whole]
        require(np.all(err <= ROUNDING), "kappa_%r differs from Wbar + 2W "
                "by %.3g (rel) where the ball holds the surface", r,
                err.max() if err.size else 0.0)
    if final_positions is not None:
        exact = brute_diameter(final_positions)
        require(abs(diam[-1] - exact) <= ROUNDING * exact,
                "final diam %.17g, brute force %.17g", diam[-1], exact)


def check_topology(positions, faces, what):
    chi = edge_pairing(faces, len(positions))
    require(chi == 2, "%s has Euler characteristic %d", what, chi)


def ball_content(positions, weights, centre, radius):
    """Sum of weights at vertices strictly inside the ball."""
    d = positions - centre
    return float(np.sum(weights[np.sum(d * d, axis=1) < radius * radius]))


def check_window(window_positions, window_weights, source_positions,
                 source_weights, radius, centre, kappa_value):
    """The blow-up window is the source snapshot moved and scaled.

    Its unit ball holds the source's radius-r curvature content, and
    scaling back recovers the source.
    """
    unit = ball_content(window_positions, window_weights, np.zeros(3), 1.0)
    source = ball_content(source_positions, source_weights, centre, radius)
    for name, value in (("window unit ball", unit), ("source ball", source)):
        require(abs(value - kappa_value) <= 1e-10 * abs(kappa_value),
                "%s kappa %.17g vs reported %.17g", name, value, kappa_value)
    check_rescaled_mesh(window_positions, source_positions, radius, centre)


def check_rescaled_table(original, rescaled, rho):
    """t, A and V scale by rho^-4, rho^-2 and rho^-3 row by row."""
    require(len(original) == len(rescaled), "%d rows rescaled into %d",
            len(original), len(rescaled))
    for name, power in (("t", 4), ("A", 2), ("V", 3)):
        want = original[name] / rho ** power
        err = np.abs(rescaled[name] - want) / np.maximum(np.abs(want), 1e-300)
        require(np.all(err <= 1e-14), "rescaled %s off rho^-%d by %.3g "
                "(rel)", name, power, err.max())


def check_rescaled_mesh(scaled, source, rho, origin):
    """A mesh rescaled by (p - origin) / rho scales back onto its source."""
    err = np.max(np.abs(scaled * rho + origin - source))
    require(err <= 1e-14 * np.max(np.abs(source)), "rescaled mesh misses "
            "its source by %.3g", err)


def check_invariant_deltas(deltas):
    """--check-invariants reports drifts at the level of rounding."""
    require(len(deltas) == 2, "expected L43 and L2A deltas, got %d",
            len(deltas))
    for name, delta in deltas.items():
        require(delta <= 1e-14, "%s invariant drifts by %.3g", name, delta)


def check_same_row(row, table, t):
    """``vpwf analyze`` on a snapshot reproduces the trajectory row at its
    time in every column that depends on the mesh alone."""
    match = np.nonzero(table["t"] == t)[0]
    require(match.size == 1, "no trajectory row at t = %r", t)
    skip = {"t", "L43", "L2A"}
    for name in row.header:
        if name in skip:
            continue
        a, b = row[name][0], table[name][match[0]]
        require(a == b, "analyze gives %s = %.17g, the trajectory %.17g",
                name, a, b)
