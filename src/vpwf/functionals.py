"""Global energies, the volume constraint and the Lagrange multiplier.

The bending energy here is the integrated squared norm of the trace-free
second fundamental form (wbar); it differs from twice the Willmore energy
W = integral(H^2) / 4 only by the topological constant 4*pi*chi, and both
are columns of the diagnostics row.  The signed volume follows the
convention that the inward normal gives positive volume.
"""

import numpy as np

from .mesh import dot3, face_frame


def signed_volume(mesh):
    """Signed enclosed volume, positive for inward orientation.

    The :class:`~vpwf.mesh.FaceFrame` volume, the exact signed-tetrahedron
    sum, which is translation invariant to roundoff on closed meshes and
    lets the flow's volume constraint be tested at machine precision.  A
    :class:`~vpwf.ddg.GeometryCache` carries the same number as
    ``volume``.
    """
    return face_frame(mesh).volume


def willmore(cache):
    """Quarter of the integrated squared mean curvature."""
    return 0.25 * float(np.sum(cache.H ** 2 * cache.mass))


def wbar(cache):
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
    pos = mesh.columns if origin is None else (
        mesh.columns - np.asarray(origin, dtype=np.float64)[:, None])
    # the normals' contiguous rows, summed (x + y) + z per vertex
    radial = dot3(cache.normals.T, pos)
    return float(np.sum(grad * radial * cache.mass))


def translation_defect(cache):
    """Norm of sum_i grad_i nu_i M_i, zero for the smooth energy.

    Each component is summed one vertex after another, as a C-ordered
    (n, 3) array's column sums run; a running sum along the contiguous
    normal rows gives those bits without the per-row reduction loop.
    """
    grad = scalar_willmore_gradient(cache)
    terms = grad * cache.normals.T * cache.mass
    vec = np.cumsum(terms, axis=1)[:, -1]
    return float(np.linalg.norm(vec))
