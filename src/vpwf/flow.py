"""Explicit time integration of the volume-preserving Willmore flow.

Each step moves vertices along their normals by dt times the normal speed

    xi = -lap(H) - |A0|^2 H + lam,

re-projects the signed volume to the target with a safeguarded Newton
correction along the normals, and enforces monotone energy decay: a step
that raises the bending energy by more than the tolerance is rejected and
retried with half the step.  The accepted trial geometry becomes the next
step's cache, and the accepted state carries its rates (lam, xi, max|xi|
and wbar, :class:`Rates`): the driver's stop checks read them and the next
step moves by them, so the flow costs one geometry build and one rate
evaluation per step.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ddg import build_cache
from .errors import (
    DegenerateFaceError,
    DissipationViolationError,
    NonFiniteError,
    ProjectionDivergedError,
    QualityCollapseError,
    StepUnderflowError,
    ZeroNormalError,
)
from .functionals import lagrange_multiplier, signed_volume, wbar
from .mesh import (
    TriMesh,
    cross3,
    dot3,
    face_geometry,
    gather_corners,
    shape_quality,
    tet_volume,
)
from . import ddg

MAX_HALVINGS = 20
MAX_PROJECTION_ITERATIONS = 50

# failures of a trial's geometry that a smaller step can avoid: the step
# rejects the trial and retries with half the step, as for an energy rise
_TRIAL_FAILURES = (
    NonFiniteError, ProjectionDivergedError, DegenerateFaceError,
    ZeroNormalError,
)


@dataclass
class QualityConfig:
    """Opt-in mesh maintenance: Delaunay-style flips plus tangential smoothing."""

    enabled: bool = False
    flip_threshold_angle: float = math.pi  # radians; opposite-angle sum
    tangential_smoothing_weight: float = 0.1
    cadence_steps: int = 25
    min_quality: float = 1e-3


@dataclass
class StopRule:
    """Stopping criteria; a tolerance of zero disables that criterion."""

    max_time: float = math.inf
    max_steps: int = 100_000
    speed_tol: float = 0.0
    wbar_tol: float = 0.0


@dataclass
class FlowConfig:
    dt_safety: float = 0.045         # fraction of the h^4 stability heuristic
    dt_max: float = 1e-4
    dt_policy: str = "explicit-adaptive"
    projection_tol: float = 1e-10    # relative volume error after projection
    dissipation_tol: float = 1e-6    # allowed energy increase per step
    stop: StopRule = field(default_factory=StopRule)
    quality: QualityConfig = field(default_factory=QualityConfig)
    record_cadence: int = 10
    kappa_radii: tuple = (0.5, 1.0, 4.0)
    snapshot_times: tuple = ()

    def __post_init__(self):
        if not 0.0 < self.dt_safety <= 1.0:
            raise ValueError("dt_safety must lie in (0, 1]")
        if self.dt_max <= 0 or self.projection_tol <= 0:
            raise ValueError("dt_max and projection_tol must be positive")
        if self.dissipation_tol <= 0:
            raise ValueError("dissipation_tol must be positive")
        if self.dt_policy != "explicit-adaptive":
            raise ValueError("only the explicit-adaptive policy is implemented")


class Rates(NamedTuple):
    """What a state moves by: lam, xi = velocity(cache, lam), max|xi|, wbar."""

    lam: float
    xi: np.ndarray
    max_speed: float
    wbar: float


@dataclass
class FlowState:
    """One point of the evolution plus the running multiplier integrals.

    ``last_lambda``, ``last_max_speed`` and ``last_dt`` are what the step
    into this state moved by; ``rates`` are what the next step moves by,
    evaluated on ``cache``.
    """

    mesh: TriMesh
    time: float = 0.0
    step_index: int = 0
    target_volume: float = 0.0
    accum_L43: float = 0.0           # integral of |lam|^(4/3) dt
    accum_L2A: float = 0.0           # integral of lam^2 * area dt
    last_lambda: float = 0.0
    last_max_speed: float = 0.0
    last_dt: float = 0.0
    last_halvings: int = 0
    cache: object = field(default=None, repr=False, compare=False)
    rates: Rates = field(default=None, repr=False, compare=False)


@dataclass
class Trajectory:
    """Recorded diagnostics rows, optional snapshots and the final state."""

    records: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)   # (time, TriMesh)
    stop_reason: str = ""
    final_state: FlowState = None


def initial_state(mesh, cache=None):
    """Flow state at time zero; the current volume becomes the target.

    ``cache`` is the geometry of ``mesh`` when the caller has it.
    """
    if cache is None:
        cache = build_cache(mesh)
    return FlowState(
        mesh=mesh,
        target_volume=signed_volume(mesh),
        cache=cache,
        rates=_rates(cache, wbar(cache)),
    )


def velocity(cache, lam):
    """Normal speed of the flow at every vertex.

    Raises
    ------
    NonFiniteError
        If any entry is NaN or infinite, which signals operator blow-up;
        the caller must reject the step.
    """
    xi = -cache.lap_H - cache.tracefree_sq * cache.H + lam
    if not np.isfinite(xi).all():
        raise NonFiniteError("velocity field contains non-finite entries")
    return xi


def _rates(cache, wb):
    """The :class:`Rates` of an accepted cache whose wbar is ``wb``."""
    lam = lagrange_multiplier(cache)
    xi = velocity(cache, lam)
    return Rates(lam, xi, float(np.abs(xi).max()), wb)


def choose_dt(cache, config, max_speed):
    """Fourth-order explicit stability heuristic.

    dt = min(dt_max, sigma * h_min^4 / (1 + max|xi| * h_min^3)) with h_min
    the shortest edge; halving every edge divides the leading term by 16,
    matching the parabolic scaling of the flow.
    """
    h = cache.h_min
    dt = min(config.dt_max,
             config.dt_safety * h ** 4 / (1.0 + max_speed * h ** 3))
    if dt < 1e-18 * config.dt_max:
        raise StepUnderflowError("time step %.3e underflowed" % dt)
    return dt


def volume_project(mesh, normals, target_volume, tol, total_area):
    """Move vertices along ``normals`` so the signed volume hits the target.

    Newton iteration on c -> V(f + c*nu) with the first-variation derivative
    dV/dc = -A, ``total_area`` being the area A of ``mesh``, safeguarded by
    a residual-decrease check, for at most ``MAX_PROJECTION_ITERATIONS``
    iterations.  The projection is a small correction: it refuses to bridge
    volume errors of 50% or more.

    Returns (projected mesh, its corners), the corners in the
    :func:`~vpwf.mesh.gather_corners` layout, ready for
    :func:`~vpwf.ddg.build_cache`.
    """
    corners = gather_corners(mesh)
    v = tet_volume(corners)
    if target_volume == 0.0:
        raise ProjectionDivergedError("target volume is zero")
    rel = abs(v - target_volume) / abs(target_volume)
    if rel >= 0.5:
        raise ProjectionDivergedError(
            "volume error %.2f is too large for a projection" % rel
        )
    if rel <= tol:
        return mesh, corners
    c = 0.0
    best = rel
    for _ in range(MAX_PROJECTION_ITERATIONS):
        # dV/dc = -A for motion along the inward-positive normal
        c += (v - target_volume) / total_area
        projected = mesh.with_positions(mesh.positions + c * normals)
        corners = gather_corners(projected)
        v = tet_volume(corners)
        rel = abs(v - target_volume) / abs(target_volume)
        if rel <= tol:
            return projected, corners
        if rel >= best:
            # refresh the derivative before declaring failure
            total_area = float(np.sum(face_geometry(projected, corners)[0]))
        best = min(best, rel)
    raise ProjectionDivergedError(
        "volume projection stalled at relative error %.3e" % rel
    )


def _advance(state, cache, xi, dt, config):
    """Move by dt * xi along the normals, then :func:`_settle`."""
    moved = state.mesh.with_positions(
        state.mesh.positions + dt * xi[:, None] * cache.normals
    )
    return _settle(moved, cache.normals, state.target_volume, config,
                   cache.total_area)


def _settle(mesh, normals, target_volume, config, total_area):
    """Project a proposal onto the target volume and rebuild its geometry.

    ``normals`` and ``total_area`` are what :func:`volume_project` moves
    along and divides by.  Returns (mesh, cache, wbar); raises one of
    ``_TRIAL_FAILURES`` when the proposal's geometry fails.
    """
    projected, corners = volume_project(
        mesh, normals, target_volume, config.projection_tol, total_area,
    )
    cache = build_cache(projected, corners=corners)
    if not (np.isfinite(cache.H).all() and np.isfinite(cache.lap_H).all()):
        raise NonFiniteError("curvature blow-up after step")
    return projected, cache, wbar(cache)


def _no_energy_rise(before, after, config):
    """The monotone-energy rule: wbar may rise by at most
    dissipation_tol * max(1, wbar)."""
    return after <= before + config.dissipation_tol * max(1.0, before)


def step(state, config):
    """One accepted flow step from a state of :func:`initial_state` or of
    an earlier step; returns the successor state.

    The step moves by ``state.rates``.  A trial that breaks the
    monotone-energy rule, or whose geometry fails (``_TRIAL_FAILURES``), is
    retried with half the step, up to ``MAX_HALVINGS`` halvings.  When the
    quality cadence falls on the step, the mesh-maintenance pass runs on
    the accepted trial and is kept if it raises no energy either; a pass
    that fails (``QualityCollapseError`` or ``_TRIAL_FAILURES``) is
    skipped like one that raises the energy.  The returned state carries
    the rates of its own cache.
    """
    cache = state.cache
    lam, xi, max_speed, wb = state.rates
    dt = choose_dt(cache, config, max_speed)

    halvings = 0
    wb_trial = math.nan
    while True:
        failure = None
        try:
            mesh, trial_cache, wb_trial = _advance(state, cache, xi, dt, config)
            if _no_energy_rise(wb, wb_trial, config):
                break
        except _TRIAL_FAILURES as exc:
            wb_trial = math.nan
            failure = exc
        if halvings >= MAX_HALVINGS:
            message = (
                "energy still rising after %d halvings (wbar %.6e -> %.6e)"
                % (halvings, wb, wb_trial)
            )
            if failure is not None:
                message += "; last trial failed with %s: %s" % (
                    type(failure).__name__, failure
                )
            raise DissipationViolationError(message) from failure
        dt *= 0.5
        halvings += 1

    step_index = state.step_index + 1
    if (
        config.quality.enabled
        and config.quality.cadence_steps > 0
        and step_index % config.quality.cadence_steps == 0
    ):
        # mesh maintenance must not break the monotone-energy contract; a
        # pass that fails or raises the energy is skipped rather than applied
        try:
            improved, face_data = quality_pass(mesh, config, trial_cache)
            improved, improved_cache, wb_improved = _settle(
                improved, ddg.vertex_normals(improved, face_data),
                state.target_volume, config, float(np.sum(face_data[0])),
            )
        except (QualityCollapseError,) + _TRIAL_FAILURES:
            pass
        else:
            if _no_energy_rise(wb_trial, wb_improved, config):
                mesh, trial_cache, wb_trial = (
                    improved, improved_cache, wb_improved
                )

    return FlowState(
        mesh=mesh,
        time=state.time + dt,
        step_index=step_index,
        target_volume=state.target_volume,
        accum_L43=state.accum_L43 + abs(lam) ** (4.0 / 3.0) * dt,
        accum_L2A=state.accum_L2A + lam * lam * cache.total_area * dt,
        last_lambda=lam,
        last_max_speed=max_speed,
        last_dt=dt,
        last_halvings=halvings,
        cache=trial_cache,
        rates=_rates(trial_cache, wb_trial),
    )


def _flip_edges(mesh, threshold, angles):
    """Apply non-conflicting Delaunay-style edge flips; returns (mesh, count).

    An interior edge is flipped when the two angles opposite to it sum to
    more than ``threshold``.  Flips are selected greedily, worst first, no
    two sharing a face, and skipped when the flipped edge already exists or
    a resulting face would degenerate.  ``angles`` are the (3, m) corner
    angles of ``mesh``, a cache's ``corner_angles``.  When no flip is
    applied the input mesh itself is returned.
    """
    pairing = ddg._connectivity(mesh).pairing
    if not pairing.closed:
        raise QualityCollapseError("edge pairing failed; mesh not closed")
    angles = angles.reshape(-1)
    score = angles[pairing.corners[0]] + angles[pairing.corners[1]]
    candidates = np.flatnonzero(score > threshold)
    if candidates.size == 0:
        return mesh, 0

    # worst first; every check below but the shared face is fixed per edge
    order = candidates[np.argsort(-score[candidates])]
    i, j = (v[order] for v in pairing.ends)
    k, l = (v[order] for v in pairing.apexes)
    fa, fb = (v[order] for v in pairing.faces)
    key = np.minimum(k, l) * np.int64(mesh.vertex_count) + np.maximum(k, l)
    codes = pairing.codes
    at = np.minimum(np.searchsorted(codes, key), codes.size - 1)
    allowed = codes[at] != key
    # reject flips creating degenerate triangles
    pt = mesh.positions.T
    floor = 2.0 * mesh.area_floor()
    for apex, u, v in ((k, i, l), (j, l, k)):
        new = cross3(pt[:, u] - pt[:, apex], pt[:, v] - pt[:, apex])
        allowed &= np.sqrt(dot3(new, new)) >= floor

    used_faces = set()
    made = set()
    flips = []
    for e in np.flatnonzero(allowed).tolist():
        a, b, edge = int(fa[e]), int(fb[e]), int(key[e])
        if a in used_faces or b in used_faces or edge in made:
            continue
        used_faces.update((a, b))
        made.add(edge)
        flips.append(e)
    if not flips:
        return mesh, 0

    f = np.array(mesh.faces)
    f[fa[flips]] = np.column_stack([k[flips], i[flips], l[flips]])
    f[fb[flips]] = np.column_stack([l[flips], j[flips], k[flips]])
    return TriMesh(mesh.positions, f), len(flips)


def quality_pass(mesh, config, cache):
    """Edge flips plus tangential-only umbrella smoothing.

    Smoothing moves each vertex by weight times the tangential projection
    of the umbrella vector (neighbor mean minus vertex); the normal
    component is removed exactly, so volume changes only at second order
    and the subsequent re-projection is a tiny correction.  ``cache``, the
    geometry of ``mesh``, supplies the flip angles and, when nothing
    flips, the vertex normals.

    Returns (mesh, face data), the face data being
    :func:`~vpwf.mesh.face_geometry` of the returned mesh, built once for
    the quality check.

    Raises
    ------
    QualityCollapseError
        If a face's shape quality falls below ``min_quality``.
    """
    if cache.mesh is not mesh:
        raise ValueError("cache was built for another mesh")
    qc = config.quality
    mesh, count = _flip_edges(mesh, qc.flip_threshold_angle,
                              cache.corner_angles)

    weight = qc.tangential_smoothing_weight
    if weight != 0.0:
        if count == 0:
            normals = cache.normals
        else:
            normals = ddg.vertex_normals(mesh, face_geometry(mesh))
        neighbour_sum, degree = ddg._connectivity(mesh).umbrella
        umbrella = (ddg._matvec(neighbour_sum, mesh.positions)
                    / degree[:, None] - mesh.positions)
        tangential = umbrella - np.sum(
            umbrella * normals, axis=1
        )[:, None] * normals
        mesh = mesh.with_positions(mesh.positions + weight * tangential)

    try:
        face_data = face_geometry(mesh)
    except DegenerateFaceError as exc:
        raise QualityCollapseError(
            "a face degenerated in the quality pass: %s" % exc
        ) from exc
    areas, _, _, sq = face_data
    if float(np.min(shape_quality(areas, sq))) < qc.min_quality:
        raise QualityCollapseError(
            "minimum face quality fell below %.1e" % qc.min_quality
        )
    return mesh, face_data


def run(mesh, config, record_fn=None):
    """Drive the flow until a stop criterion fires; returns a Trajectory.

    ``record_fn(state, cache, config) -> row`` produces diagnostics rows
    (the diagnostics module supplies the standard one); rows are recorded
    at the configured cadence, at snapshot times and at the final state.
    """
    if record_fn is None:
        from .diagnostics import record as record_fn

    state = initial_state(mesh)
    traj = Trajectory()
    pending_snapshots = sorted(config.snapshot_times)

    def emit(state):
        traj.records.append(record_fn(state, state.cache, config))

    def snapshot(state):
        traj.snapshots.append((state.time, state.mesh))

    emit(state)
    if pending_snapshots and pending_snapshots[0] <= 0.0:
        while pending_snapshots and pending_snapshots[0] <= 0.0:
            pending_snapshots.pop(0)
        snapshot(state)

    recorded_at = state.step_index
    while True:
        stop = config.stop
        if stop.speed_tol > 0.0 and state.rates.max_speed < stop.speed_tol:
            traj.stop_reason = "speed_tol"
            break
        if stop.wbar_tol > 0.0 and state.rates.wbar < stop.wbar_tol:
            traj.stop_reason = "wbar_tol"
            break
        if state.time >= stop.max_time:
            traj.stop_reason = "max_time"
            break
        if state.step_index >= stop.max_steps:
            traj.stop_reason = "max_steps"
            break

        try:
            state = step(state, config)
        except Exception as exc:
            # attach the last good state so callers can save or inspect it
            traj.final_state = state
            exc.last_state = state
            exc.trajectory = traj
            raise

        took_snapshot = False
        if pending_snapshots and state.time >= pending_snapshots[0]:
            while pending_snapshots and state.time >= pending_snapshots[0]:
                pending_snapshots.pop(0)
            snapshot(state)
            took_snapshot = True
        if took_snapshot or (
            config.record_cadence > 0
            and state.step_index % config.record_cadence == 0
        ):
            emit(state)
            recorded_at = state.step_index

    if recorded_at != state.step_index:
        emit(state)
    traj.final_state = state
    return traj
