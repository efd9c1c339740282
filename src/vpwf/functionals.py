"""Global energies, the volume constraint and the Lagrange multiplier.

The bending energy here is the integrated squared norm of the trace-free
second fundamental form (wbar); it differs from four times the integrated
squared-mean-curvature energy only by the topological constant 4*pi*chi,
and both are reported.  The signed volume follows the convention that the
inward normal gives positive volume.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import face_geometry, gather_corners, tet_volume


@dataclass(frozen=True)
class EnergyReport:
    """All global scalars of one mesh snapshot.

    ``gauss_bonnet_defect`` is wbar - (2*willmore - 4*pi*chi); it is exactly
    the mass removed by the nonnegativity clamp on |A0|^2 and shrinks under
    refinement.
    """

    area: float
    signed_volume: float
    willmore: float
    wbar: float
    gauss_bonnet_defect: float
    lam: float


def area(mesh):
    """Total surface area; a cache carries it as ``total_area``."""
    return float(np.sum(face_geometry(mesh)[0]))


def signed_volume(mesh):
    """Signed enclosed volume, positive for inward orientation.

    Computed with the exact signed-tetrahedron sum, which is translation
    invariant to roundoff on closed meshes and lets the flow's volume
    constraint be tested at machine precision.
    """
    return tet_volume(gather_corners(mesh))


def willmore(mesh, cache):
    """Quarter of the integrated squared mean curvature."""
    return 0.25 * float(np.sum(cache.H ** 2 * cache.mass))


def wbar(mesh, cache):
    """Integrated squared norm of the trace-free second fundamental form."""
    return float((cache.tracefree_sq * cache.mass).sum())


def scalar_willmore_gradient(cache):
    """Per-vertex scalar gradient of wbar: lap(H) + |A0|^2 H."""
    return cache.lap_H + cache.tracefree_sq * cache.H


def lagrange_multiplier(cache):
    """Nonlocal multiplier making the flow volume-preserving.

    integral(|A0|^2 H) / area, the area being ``cache.total_area``; contains
    no curvature derivatives, so it is computed from the pointwise cache
    fields every step.
    """
    return float(
        (cache.tracefree_sq * cache.H * cache.mass).sum()
    ) / cache.total_area


def scale_defect(mesh, cache, origin=None):
    """Residual of the scale-invariance identity of the bending energy.

    sum_i grad_i <nu_i, f_i - p> M_i vanishes for the smooth energy because
    uniform scaling about any point p leaves it unchanged; discretely it
    doubles as the consistency defect of the identity tying the multiplier
    to the volume (3 * lam * V).  ``origin`` defaults to 0.
    """
    grad = scalar_willmore_gradient(cache)
    pos = mesh.positions if origin is None else mesh.positions - origin
    radial = np.sum(cache.normals * pos, axis=1)
    return float(np.sum(grad * radial * cache.mass))


def translation_defect(cache):
    """Norm of sum_i grad_i nu_i M_i, zero for the smooth energy."""
    grad = scalar_willmore_gradient(cache)
    vec = np.sum(grad[:, None] * cache.normals * cache.mass[:, None], axis=0)
    return float(np.linalg.norm(vec))


def energy_report(mesh, cache):
    """Assemble the full :class:`EnergyReport` for one mesh."""
    a = cache.total_area
    w = willmore(mesh, cache)
    wb = wbar(mesh, cache)
    chi = mesh.topology().euler_characteristic
    return EnergyReport(
        area=a,
        signed_volume=signed_volume(mesh),
        willmore=w,
        wbar=wb,
        gauss_bonnet_defect=wb - (2.0 * w - 4.0 * np.pi * chi),
        lam=lagrange_multiplier(cache),
    )
