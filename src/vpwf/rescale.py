"""Parabolic rescaling of meshes and trajectories; blow-up window extraction.

The flow is invariant under p -> (p - x0)/rho together with t -> t/rho^4.
Under this map the bending energies are unchanged, the multiplier scales
with rho^3, and the two time integrals of the multiplier are exactly
invariant, which is what makes them the right quantities to monitor across
scales.
"""

from dataclasses import dataclass, replace

import numpy as np

from .ddg import build_cache
from .diagnostics import concentration, concentration_radius
from .errors import BadParamsError, SnapshotMissingError
from .flow import FlowState, Trajectory
from .mesh import TriMesh


@dataclass(frozen=True)
class RescaleSpec:
    """Length ratio and origin of the rescaling p -> (p - origin)/rho."""

    rho: float
    origin: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not np.isfinite(self.rho) or self.rho <= 0.0:
            raise BadParamsError("rho must be positive and finite")


@dataclass(frozen=True)
class BlowupWindow:
    """Translated, rescaled snapshot around a concentration point."""

    t_start: float        # time at which the radius was measured
    snapshot_time: float  # time of the rescaled snapshot
    radius: float         # concentration radius r_j
    center: np.ndarray    # maximizing ball center x_j
    kappa_value: float    # curvature content of the r_j ball at x_j
    mesh: TriMesh


def rescale_mesh(mesh, spec):
    """Map positions by (p - origin)/rho; connectivity unchanged."""
    origin = np.asarray(spec.origin, dtype=np.float64)
    return mesh.with_positions((mesh.positions - origin) / spec.rho)


def _weights(rho):
    """Exact column weights of the rescaling (identity factors stay 1.0)."""
    return {
        "t": rho ** -4,
        "area": rho ** -2.0,
        "volume": rho ** -3.0,
        "lam": rho ** 3,
        "accum_L43": (rho ** 3) ** (4.0 / 3.0) * rho ** -4,
        "accum_L2A": (rho ** 3) ** 2 * rho ** -2 * rho ** -4,
        "length": 1.0 / rho,
        "translation_defect": rho,
    }


def rescale_record(rec, spec):
    """Transform one diagnostics row by its exact scaling weights.

    The scale-invariance defect column is exactly invariant for a
    rescaling about the origin; a nonzero origin perturbs it by the
    translation defect paired with the origin, which is not recoverable
    from the row alone and is left untouched.
    """
    w = _weights(spec.rho)
    return replace(
        rec,
        t=rec.t * w["t"],
        area=rec.area * w["area"],
        volume=rec.volume * w["volume"],
        lam=rec.lam * w["lam"],
        accum_L43=rec.accum_L43 * w["accum_L43"],
        accum_L2A=rec.accum_L2A * w["accum_L2A"],
        diameter=rec.diameter * w["length"],
        diameter_bound=rec.diameter_bound * w["length"],
        kappa={r * w["length"]: v for r, v in rec.kappa.items()},
        translation_defect=rec.translation_defect * w["translation_defect"],
    )


def rescale_trajectory(traj, spec):
    """Rescale every record, snapshot and the final state of a trajectory."""
    records = [rescale_record(r, spec) for r in traj.records]
    w = _weights(spec.rho)
    snapshots = [
        (t * w["t"], rescale_mesh(mesh, spec)) for t, mesh in traj.snapshots
    ]
    final = traj.final_state
    if final is not None:
        final = FlowState(
            mesh=rescale_mesh(final.mesh, spec),
            time=final.time * w["t"],
            step_index=final.step_index,
            target_volume=final.target_volume * w["volume"],
            accum_L43=final.accum_L43 * w["accum_L43"],
            accum_L2A=final.accum_L2A * w["accum_L2A"],
            last_lambda=final.last_lambda * w["lam"],
            last_max_speed=final.last_max_speed * spec.rho ** 3,
            last_dt=final.last_dt * w["t"],
            last_halvings=final.last_halvings,
            volume=final.volume * w["volume"],
            volume_remainder=(final.volume_remainder * w["volume"]
                              / w["t"] ** 2),
        )
    return Trajectory(
        records=records,
        snapshots=snapshots,
        stop_reason=traj.stop_reason,
        final_state=final,
    )


def blowup_window(traj, threshold, window_constant, start_index=0):
    """Extract the rescaled window mesh around a concentration point.

    From the snapshot at ``start_index``: measure the concentration radius
    r at ``threshold``; find the first stored snapshot at or after
    t + window_constant * r^4; center on the maximizing ball of radius r
    there; return that snapshot translated by the center and divided by r.
    The curvature content of the unit ball of the window equals the
    content of the radius-r ball of the source snapshot by construction.
    """
    if not traj.snapshots:
        raise SnapshotMissingError("trajectory has no mesh snapshots")
    if window_constant <= 0:
        raise BadParamsError("window constant must be positive")
    t_start, start_mesh = traj.snapshots[start_index]
    radius = concentration_radius(start_mesh, build_cache(start_mesh), threshold)
    if radius <= 0.0:
        raise BadParamsError(
            "threshold is below the hottest vertex; no usable radius"
        )
    target_time = t_start + window_constant * radius ** 4
    later = [(t, m) for t, m in traj.snapshots if t >= target_time]
    if not later:
        raise SnapshotMissingError(
            "no snapshot at or after t = %.6g (latest is %.6g)"
            % (target_time, traj.snapshots[-1][0])
        )
    t_late, late_mesh = later[0]
    kappa_value, center = concentration(
        late_mesh, build_cache(late_mesh), radius
    )
    window = rescale_mesh(late_mesh, RescaleSpec(rho=radius, origin=tuple(center)))
    return BlowupWindow(
        t_start=t_start,
        snapshot_time=t_late,
        radius=radius,
        center=center,
        kappa_value=kappa_value,
        mesh=window,
    )
