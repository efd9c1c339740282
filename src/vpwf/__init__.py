"""Volume-preserving Willmore flow on closed oriented triangle meshes.

The package simulates the constrained bending-energy gradient flow

    df/dt = (-lap(H) - |A0|^2 H + lam) nu,
    lam   = integral(|A0|^2 H) / area,

which decreases the Willmore energy while keeping the signed enclosed
volume fixed, together with the discrete-geometry operators, global
functionals, diagnostics (concentration function, diameter and
isoperimetric monitors, sphere fitting) and parabolic rescaling tools
around it.  See README.md for the command-line interface.
"""

from .mesh import TriMesh, MeshTopologySummary, validate
from .ddg import GeometryCache, build_cache
from .functionals import (
    EnergyReport,
    area,
    energy_report,
    lagrange_multiplier,
    scalar_willmore_gradient,
    signed_volume,
    wbar,
    willmore,
)
from .flow import (
    FlowConfig,
    FlowState,
    QualityConfig,
    StopRule,
    Trajectory,
    choose_dt,
    initial_state,
    quality_pass,
    run,
    step,
    velocity,
    volume_project,
)
from .diagnostics import (
    DiagnosticsRecord,
    concentration,
    concentration_radius,
    diameter,
    diameter_check,
    isoperimetric_ratio,
    area_ratio,
    record,
    sphere_fit,
)
from .rescale import (
    BlowupWindow,
    RescaleSpec,
    blowup_window,
    rescale_mesh,
    rescale_trajectory,
)
from .generators import ellipsoid, icosphere, perturbed_sphere, torus

__all__ = [
    "TriMesh", "MeshTopologySummary", "validate",
    "GeometryCache", "build_cache",
    "EnergyReport", "area", "energy_report", "lagrange_multiplier",
    "scalar_willmore_gradient", "signed_volume", "wbar", "willmore",
    "FlowConfig", "FlowState", "QualityConfig", "StopRule", "Trajectory",
    "choose_dt", "initial_state", "quality_pass", "run", "step",
    "velocity", "volume_project",
    "DiagnosticsRecord", "concentration", "concentration_radius",
    "diameter", "diameter_check", "isoperimetric_ratio", "area_ratio",
    "record", "sphere_fit",
    "BlowupWindow", "RescaleSpec", "blowup_window", "rescale_mesh",
    "rescale_trajectory",
    "ellipsoid", "icosphere", "perturbed_sphere", "torus",
]

__version__ = "0.1.0"
