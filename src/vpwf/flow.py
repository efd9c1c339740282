"""Explicit time integration of the volume-preserving Willmore flow.

Each step moves vertices along their normals by dt times the normal speed

    xi = -lap(H) - |A0|^2 H + lam,

plus a uniform correction c that keeps the signed volume on its target,
and enforces monotone energy decay: a step that raises the bending energy
by more than the tolerance is rejected and retried with half the step.

The correction is predicted, not searched for.  Moving vertex i by s_i
along its normal changes the volume at the rate g_i = -|sum_f A_f n_f|_i / 3
(the cache's ``volume_slope``), so c solves V + g.(dt xi + c) + q dt^2 = T,
with V the state's volume as its own check measured it, T the target and
q the second-order remainder the previous step's check found, per dt^2.
The vertices move once; the trial's volume is measured on the face frame
its geometry is then built from, and only when it misses the tolerance
does a safeguarded Newton projection along the normals continue from
there (:func:`volume_project`).  So a step gathers its face corners once.

Every trial settles into its geometry and its rates (lam, xi, max|xi|
and wbar, :class:`Rates`) at once; the velocity's finiteness check is
the trial's blow-up check.  The accepted trial's geometry becomes the
next step's cache and its rates the state's: :func:`run`'s stop checks
read them and the next step moves by them, so the flow costs one
geometry build and one rate evaluation per trial.
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
from .functionals import lagrange_multiplier, wbar
from .mesh import (
    TriMesh,
    cross3,
    dot3,
    face_frame,
    face_geometry,
    shape_quality,
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


# a flip must beat its threshold by this much: the quads of a torus of
# revolution are cocircular, and their opposite-angle sums sit on pi to
# within a few ulps of it
FLIP_MARGIN = 1e-12


@dataclass
class QualityConfig:
    """Opt-in mesh maintenance: Delaunay-style edge flips.

    Every ``cadence_steps`` steps, each edge whose two opposite angles sum
    to more than ``flip_threshold_angle`` (plus ``FLIP_MARGIN``) is a flip
    candidate; a flipped mesh whose smallest face shape quality falls
    below ``min_quality`` is not kept.
    """

    enabled: bool = False
    flip_threshold_angle: float = math.pi  # radians; opposite-angle sum
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
    evaluated on ``cache``.  ``volume`` is the signed volume of ``mesh`` as
    its projection check measured it, and ``volume_remainder`` the part of
    the step's volume change that the linear prediction missed, divided by
    dt^2: the next step predicts its volume correction from both.
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
    volume: float = 0.0
    volume_remainder: float = 0.0
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

    ``cache`` is the geometry of ``mesh`` when the caller has it; its
    ``volume`` is the target.
    """
    if cache is None:
        cache = build_cache(mesh)
    return FlowState(
        mesh=mesh,
        target_volume=cache.volume,
        volume=cache.volume,
        cache=cache,
        rates=_rates(cache),
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


def _rates(cache):
    """The :class:`Rates` of ``cache``."""
    lam = lagrange_multiplier(cache)
    xi = velocity(cache, lam)
    return Rates(lam, xi, float(np.abs(xi).max()), wbar(cache))


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


def _volume_error(volume, target_volume):
    """Relative error of ``volume``; refuses what a projection cannot bridge.

    The projection is a small correction: errors of 50% or more raise
    ``ProjectionDivergedError``.
    """
    if target_volume == 0.0:
        raise ProjectionDivergedError("target volume is zero")
    rel = abs(volume - target_volume) / abs(target_volume)
    if rel >= 0.5:
        raise ProjectionDivergedError(
            "volume error %.2f is too large for a projection" % rel
        )
    return rel


def volume_project(mesh, normals, target_volume, tol, total_area, frame):
    """Move vertices along ``normals`` so the signed volume hits the target.

    Newton iteration on c -> V(f + c*nu) from c = 0, ``frame`` being the
    :class:`~vpwf.mesh.FaceFrame` of ``mesh`` and ``f`` its positions,
    with the first-variation derivative dV/dc = -A, ``total_area`` being
    the area A of ``mesh``, safeguarded by a residual-decrease check, for
    at most ``MAX_PROJECTION_ITERATIONS`` iterations.  It refuses volume
    errors of 50% or more.  The flow's step calls it only when its
    predicted correction missed (:func:`_advance`), so ``mesh`` is then
    already corrected once; the quality pass calls it on every mesh that
    its edge flips changed.

    Returns (projected mesh, its frame, its signed volume), the frame
    ready for :func:`~vpwf.ddg.build_cache`.
    """
    v = frame.volume
    rel = _volume_error(v, target_volume)
    if rel <= tol:
        return mesh, frame, v
    c = 0.0
    best = rel
    for _ in range(MAX_PROJECTION_ITERATIONS):
        # dV/dc = -A for motion along the inward-positive normal
        c += (v - target_volume) / total_area
        projected = mesh.with_positions(mesh.positions + c * normals)
        frame = face_frame(projected)
        v = frame.volume
        rel = abs(v - target_volume) / abs(target_volume)
        if rel <= tol:
            return projected, frame, v
        if rel >= best:
            # refresh the derivative before declaring failure
            total_area = float(np.sum(face_geometry(projected, frame)[0]))
        best = min(best, rel)
    raise ProjectionDivergedError(
        "volume projection stalled at relative error %.3e" % rel
    )


class _Trial(NamedTuple):
    """A settled proposal: its mesh, geometry and :class:`Rates`, the
    volume its projection check measured and the remainder that check
    found.  The rates are what the next step moves by if it is accepted."""

    mesh: TriMesh
    cache: object
    rates: Rates
    volume: float
    volume_remainder: float


def _advance(state, cache, xi, dt, config):
    """Predict the volume correction, move once, verify; then settle.

    The vertices move to X + (u + c) nu with u = dt * xi, ``cache``
    supplying the normals nu and the volume slopes g.  The correction c
    solves V + g.(u + c) + q dt^2 = T, V being the state's volume, T the
    target and q the state's ``volume_remainder``; a move whose predicted
    volume V + g.u + q dt^2 is 50% or more off the target is refused.  The
    moved mesh's volume is measured on the frame its geometry is built
    from; when it misses ``projection_tol``, :func:`volume_project`
    continues from there.  Returns a :class:`_Trial`; raises one of
    ``_TRIAL_FAILURES`` when the proposal's geometry fails.
    """
    target = state.target_volume
    slope = cache.volume_slope
    u = dt * xi
    moved_volume = (state.volume + float(slope @ u)
                    + state.volume_remainder * dt * dt)
    _volume_error(moved_volume, target)
    shift = u + (target - moved_volume) / float(slope.sum())
    # the normals are a transposed view of C-ordered rows: move the
    # component-first coordinates by the scaled rows
    mesh = state.mesh.with_columns(
        state.mesh.columns + shift * cache.normals.T
    )
    frame = face_frame(mesh)
    volume = frame.volume
    remainder = (volume - state.volume - float(slope @ shift)) / (dt * dt)
    if _volume_error(volume, target) > config.projection_tol:
        mesh, frame, volume = volume_project(
            mesh, cache.normals, target, config.projection_tol,
            cache.total_area, frame,
        )
    trial_cache, rates = _settle(mesh, frame)
    return _Trial(mesh, trial_cache, rates, volume, remainder)


def _settle(mesh, frame):
    """Build the geometry and rates of a projected proposal.

    Returns (cache, :class:`Rates`), ``frame`` being the mesh's
    :class:`~vpwf.mesh.FaceFrame`.  The rates are evaluated on every
    trial, so an accepted one is never evaluated again.  Raises
    ``NonFiniteError`` when the velocity is not finite, as it is not
    whenever H or lap(H) is not, and ``build_cache``'s failures among
    ``_TRIAL_FAILURES``.
    """
    cache = build_cache(mesh, frame)
    return cache, _rates(cache)


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
    quality cadence falls on the step, the accepted trial's edges are
    flipped (:func:`_maintain`) and the flipped mesh is kept if it raises
    no energy either; a pass that fails (``QualityCollapseError`` or
    ``_TRIAL_FAILURES``) is skipped like one that raises the energy, and a
    trial that no flip changes is handed on untouched.  The returned state
    carries the rates of its own cache.
    """
    cache = state.cache
    lam, xi, max_speed, wb = state.rates
    dt = choose_dt(cache, config, max_speed)

    halvings = 0
    while True:
        failure = None
        wb_trial = math.nan
        try:
            trial = _advance(state, cache, xi, dt, config)
            wb_trial = trial.rates.wbar
            if _no_energy_rise(wb, wb_trial, config):
                break
        except _TRIAL_FAILURES as exc:
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
            maintained = _maintain(trial, state.target_volume, config)
        except (QualityCollapseError,) + _TRIAL_FAILURES:
            maintained = None
        if maintained is not None and _no_energy_rise(
            trial.rates.wbar, maintained.rates.wbar, config
        ):
            trial = maintained

    return FlowState(
        mesh=trial.mesh,
        time=state.time + dt,
        step_index=step_index,
        target_volume=state.target_volume,
        accum_L43=state.accum_L43 + abs(lam) ** (4.0 / 3.0) * dt,
        accum_L2A=state.accum_L2A + lam * lam * cache.total_area * dt,
        last_lambda=lam,
        last_max_speed=max_speed,
        last_dt=dt,
        last_halvings=halvings,
        volume=trial.volume,
        volume_remainder=trial.volume_remainder,
        cache=trial.cache,
        rates=trial.rates,
    )


def _flip_edges(mesh, threshold, angles):
    """Apply non-conflicting Delaunay-style edge flips; returns (mesh, count).

    An interior edge is flipped when the two angles opposite to it sum to
    more than ``threshold`` by over ``FLIP_MARGIN``, so that rounding
    cannot make a cocircular pair of faces a candidate.  Flips are
    selected greedily, worst first, no two sharing a face, and skipped when
    the flipped edge already exists or a resulting face would degenerate.
    ``angles`` are the (3, m) corner angles of ``mesh``, a cache's
    ``corner_angles``.  When no flip is applied the input mesh itself is
    returned.
    """
    pairing = ddg._connectivity(mesh).pairing
    if not pairing.closed:
        raise QualityCollapseError("edge pairing failed; mesh not closed")
    angles = angles.reshape(-1)
    score = angles[pairing.corners[0]] + angles[pairing.corners[1]]
    candidates = np.flatnonzero(score > threshold + FLIP_MARGIN)
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


def _maintain(trial, target_volume, config):
    """The mesh-maintenance pass on an accepted :class:`_Trial`.

    Flips the trial's edges by its cache's ``corner_angles``; when no flip
    applies it returns None having built nothing.  Otherwise the flipped
    mesh passes :func:`quality_pass`, is projected back onto
    ``target_volume`` (a flip changes the enclosed volume) and settles into
    its geometry and rates, and the successor trial is returned.
    """
    flipped, count = _flip_edges(
        trial.mesh, config.quality.flip_threshold_angle,
        trial.cache.corner_angles,
    )
    if count == 0:
        return None
    frame, face_data = quality_pass(flipped, config)
    mesh, frame, volume = volume_project(
        flipped, ddg.vertex_normals(flipped, face_data)[0], target_volume,
        config.projection_tol, float(np.sum(face_data[0])), frame,
    )
    cache, rates = _settle(mesh, frame)
    return trial._replace(mesh=mesh, cache=cache, rates=rates, volume=volume)


def quality_pass(mesh, config):
    """The min-quality check of a mesh that edge flips changed.

    Returns (frame, face data): the mesh's
    :class:`~vpwf.mesh.FaceFrame` and its
    :func:`~vpwf.mesh.face_geometry`, built once for the check and handed
    on to the step's volume projection.

    Raises
    ------
    QualityCollapseError
        If a face degenerates or its shape quality falls below
        ``min_quality``.
    """
    qc = config.quality
    frame = face_frame(mesh)
    try:
        face_data = face_geometry(mesh, frame)
    except DegenerateFaceError as exc:
        raise QualityCollapseError(
            "a face degenerated in the quality pass: %s" % exc
        ) from exc
    areas, _, _, sq = face_data
    if float(np.min(shape_quality(areas, sq))) < qc.min_quality:
        raise QualityCollapseError(
            "minimum face quality fell below %.1e" % qc.min_quality
        )
    return frame, face_data


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
