"""Monitored quantities: concentration function, inequalities, sphere fit.

Everything here is a pure read-only function of a mesh snapshot and its
geometry cache.  Ball-based quantities use extrinsic Euclidean balls with
vertex-sampled membership (consistent with the lumped quadrature); the
candidate ball centers are the vertex positions themselves, which
understates the true supremum over all of space by at most a covering
factor, and the error vanishes under refinement.

One membership rule holds for every ball: vertex j lies in the open ball
of radius r around vertex i when ``(dx^2 + dy^2) + dz^2 < r*r``, evaluated
on direct float64 differences (:func:`_direct_sq`).  The diameter is the
largest such direct distance, so it is exact.  :func:`record`,
:func:`concentration_profile` and :func:`diameter` share one pair scan that
keeps no n x n array: it assembles the pair matrix in float32 row blocks
whose float64 masks take at most ``_BLOCK_BYTES`` (512 KiB, so a block and
its mask stay in a 2 MiB L2 cache) and uses those products only as bounds.  The rounding band
of the bounds is derived in :func:`_pair_scan`: about 27 float32 unit
roundoffs of the squared extent for an entry, plus the float32 rounding of
the thresholds, held with a 16-fold margin.  Every returned value is then
recomputed by the direct rule, so float32 changes the cost of a scan and
never its answer.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoFiniteRadiusError, SingularFitError, ZeroVolumeError
from .functionals import (
    lagrange_multiplier,
    scalar_willmore_gradient,
    scale_defect,
    signed_volume,
    translation_defect,
    wbar,
    willmore,
)
from .mesh import bounding_box_extent, shape_quality

LI_YAU_THRESHOLD = 8.0 * np.pi

# bytes of the float64 mask of one block of the pair matrix; a block has as
# many rows as fit, and with its float32 products it fills 3/8 of a 2 MiB
# L2 cache (larger and smaller blocks both measured slower)
_BLOCK_BYTES = 1 << 19


@dataclass
class DiagnosticsRecord:
    """One time-series row of every monitored scalar."""

    t: float
    area: float
    volume: float
    willmore: float
    wbar: float
    gauss_bonnet_defect: float
    lam: float
    accum_L43: float
    accum_L2A: float
    diameter: float
    diameter_bound: float
    isoperimetric_ratio: float
    kappa: dict
    scale_defect: float
    translation_defect: float
    min_face_quality: float
    li_yau: bool


def _direct_sq(a, b):
    """The direct rule: squared distances of (3, k) columns, broadcast.

    ``(dx^2 + dy^2) + dz^2`` on float64 differences, the order of
    ``np.sum((p - p[i])**2, axis=1)``; every returned diameter and ball
    content is evaluated by this one function.
    """
    d = a - b
    d *= d
    return (d[0] + d[1]) + d[2]


def _pair_scan(p, weights=None, radii=(), diam_sq=None, rows=None):
    """Exact squared diameter and the heaviest vertex-centred ball per radius.

    Each pair is visited once: rows lo:hi against columns lo: form one
    float32 block, one matrix product on the centred augmented coordinates
    ``[q, |q|^2, 1]`` and ``[-2q, 1, |q|^2]``, which ``unit`` (a power of
    two, so exactly) scales to a largest ``|q|^2`` of s in [1/2, 2).  The
    blocks only bound the answer.  The diameter is the largest direct
    distance among the pairs within twice the rounding band of the running
    block maximum.  Each live radius gets an upper bound of every centre's
    content (float32 threshold r^2 plus the band, float64 masks and sums,
    which needs ``weights >= 0``); centres are then recomputed by the
    direct rule in decreasing bound order until the bound plus a summation
    slack falls below the best exact content.  A ball that holds every
    vertex gives the total at centre 0.

    The band.  With u = 2^-24 the unit roundoff of float32, a block entry
    e and the scaled direct value D of the same pair differ by at most
    27 u s:

    * rounding q to float32 moves each coordinate by at most u |q| (the
      scaling keeps every entry far from float32 overflow, and underflow
      costs at most 2^-149), so the cross term 2 q_i.q_j by at most
      4.0001 u s, and rounding the two float64 |q|^2 moves them by at most
      u s each: 6.0001 u s;
    * the 5-term product, in any order and with or without FMA, errs by at
      most gamma_5 = 5u / (1 - 5u) times the sum of the terms' magnitudes,
      2 |q_i||q_j| + |q_i|^2 + |q_j|^2 <= 4.0001 s: 20.001 u s;
    * the float64 centring and the direct rule itself add below
      10 eps64 s, under u s.

    The thresholds r^2 + band and top - 2 band are rounded to the nearest
    float32, which moves them by at most u (4 s + 3 band), under 5 u s for
    the live radii (r^2 <= 4 s + band) and for any top (<= 4 s + 27 u s).
    So a pair inside a ball (D < r^2) has e < r^2 + 27 u s, below its
    rounded threshold whenever band >= 32 u s; and the farthest pair has
    e >= top - 54 u s, at least the rounded top - 2 band whenever
    2 band >= 59 u s.  The band 256 eps32 s = 512 u s holds both with a
    16-fold margin.  The masks, the sums that credit them and the slack
    stay float64.

    A caller that scans the same points again can pass their exact squared
    diameter ``diam_sq``, which skips the near-pair search, and a dict
    ``rows`` that keeps the direct rows between scans; neither changes a
    returned bit.

    Returns (diam_sq, values, centres): the exact maximum and its first
    maximizing vertex per radius.
    """
    n = p.shape[0]
    radii_sq = [float(r) * float(r) for r in radii]
    # every direct difference runs on one contiguous component-first copy
    pt = np.ascontiguousarray(p.T)
    qt = pt - pt.mean(axis=1, keepdims=True)
    sq = _direct_sq(qt, 0.0)
    scale = float(sq.max())
    unit = math.ldexp(1.0, -(math.frexp(scale)[1] // 2))
    unit_sq = unit * unit
    s = scale * unit_sq
    band = 256.0 * float(np.finfo(np.float32).eps) * s
    exact_rows = {} if rows is None else rows

    def exact_sq(i):
        if i not in exact_rows:
            exact_rows[i] = _direct_sq(pt, pt[:, i, None])
        return exact_rows[i]

    # no pair is farther apart than twice the largest centroid distance
    live = [k for k, r_sq in enumerate(radii_sq)
            if r_sq * unit_sq <= 4.0 * s + band]
    thresholds = [np.float32(radii_sq[k] * unit_sq + band) for k in live]
    # rows [q, |q|^2, 1] times columns [-2q, 1, |q|^2], scaled by unit
    left = np.empty((n, 5), dtype=np.float32)
    left[:, :3] = (unit * qt).T
    left[:, 3] = unit_sq * sq
    left[:, 4] = 1.0
    right_t = np.empty((5, n), dtype=np.float32)
    right_t[:3] = (-2.0 * unit) * qt
    right_t[3] = 1.0
    right_t[4] = left[:, 3]
    entries = max(_BLOCK_BYTES // 8, n)
    d2_buffer = np.empty(entries, dtype=np.float32)
    inside_buffer = np.empty(entries)
    upper = np.zeros((len(live), n))
    top, near = -np.inf, []
    # each pair once: rows lo:hi against columns lo:, credited to both ends
    lo = 0
    while lo < n:
        width = n - lo
        hi = min(n, lo + max(1, entries // width))
        size = (hi - lo) * width
        d2 = d2_buffer[:size].reshape(hi - lo, width)
        inside = inside_buffer[:size].reshape(d2.shape)
        np.matmul(left[lo:hi], right_t[:, lo:], out=d2)
        if diam_sq is None:
            block_top = float(d2.max())
            if block_top >= top - 2.0 * band:
                top = max(top, block_top)
                pairs = np.divmod(
                    np.flatnonzero(d2 >= np.float32(top - 2.0 * band)), width)
                near.append((pairs[0] + lo, pairs[1] + lo))
        for slot, threshold in enumerate(thresholds):
            np.less(d2, threshold, out=inside)
            upper[slot, lo:hi] += inside @ weights[lo:]
            upper[slot, hi:] += weights[lo:hi] @ inside[:, hi - lo:]
        lo = hi
    if diam_sq is None:
        i, j = (np.concatenate(ends) for ends in zip(*near))
        diam_sq = float(np.max(_direct_sq(pt[:, i], pt[:, j])))

    # covers the rounding of the bound's and the direct rule's sums
    slack = 0.0 if weights is None else (
        2.0 * n * np.finfo(np.float64).eps * float(weights.sum()))
    values = np.empty(len(radii_sq))
    centres = np.zeros(len(radii_sq), dtype=np.int64)
    for k, r_sq in enumerate(radii_sq):
        if k not in live or r_sq > diam_sq:
            values[k] = weights[exact_sq(0) < r_sq].sum()
            continue
        bound = upper[live.index(k)]
        best, arg = -np.inf, 0
        for c in np.argsort(-bound, kind="stable"):
            if bound[c] + slack < best:
                break
            value = weights[exact_sq(c) < r_sq].sum()
            if value > best or (value == best and c < arg):
                best, arg = value, c
        values[k], centres[k] = best, arg
    return diam_sq, values, centres


def concentration_profile(mesh, cache, radii):
    """Concentration function at several radii; also the maximizing centers.

    kappa(r) is the largest curvature energy integral(|A|^2) over any open
    ball of radius r centered at a vertex: the largest
    ``weights[d2 < r*r].sum()`` with direct float64 ``d2`` (the module's
    one membership rule), exact, at the first vertex that attains it.

    Returns
    -------
    values : (len(radii),) array
    centers : (len(radii), 3) array
    """
    radii = np.asarray(radii, dtype=np.float64)
    if np.any(radii <= 0):
        raise ValueError("radii must be positive")
    weights = cache.abs_A_sq * cache.mass
    _, values, centres = _pair_scan(mesh.positions, weights, radii)
    return values, mesh.positions[centres]


def concentration(mesh, cache, radius):
    """Concentration function value and its maximizing center at one radius.

    Same rule as :func:`concentration_profile`; equals the ``kappa`` entry
    that :func:`record` writes for this radius.
    """
    values, centers = concentration_profile(mesh, cache, [radius])
    return float(values[0]), centers[0]


def total_curvature_energy(cache):
    """integral(|A|^2) over the whole surface = wbar + 2 * willmore."""
    return float(np.sum(cache.abs_A_sq * cache.mass))


def concentration_radius(mesh, cache, threshold, rel_tol=1e-6):
    """Largest radius whose concentration stays below ``threshold``.

    Bisection on the monotone map r -> kappa(r) to an absolute radius
    tolerance of ``rel_tol`` times the diameter.

    Raises
    ------
    NoFiniteRadiusError
        If the threshold is at least the total curvature energy, in which
        case the supremum is infinite.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    total = total_curvature_energy(cache)
    if threshold >= total:
        raise NoFiniteRadiusError(
            "threshold %.6g >= total curvature energy %.6g"
            % (threshold, total)
        )
    diam_sq = _diameter_sq(mesh.positions)
    diam = float(np.sqrt(diam_sq))
    weights = cache.abs_A_sq * cache.mass
    # every probe scans the same points: the diameter and the direct rows
    # carry over, so each probe costs one bounded scan
    rows = {}
    lo, hi = 0.0, 1.0000001 * diam
    tol = rel_tol * diam
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        _, values, _ = _pair_scan(mesh.positions, weights, [mid], diam_sq,
                                  rows)
        if values[0] < threshold:
            lo = mid
        else:
            hi = mid
    return lo


def diameter(mesh):
    """Exact maximum vertex-pair distance, a direct float64 difference."""
    return float(np.sqrt(_diameter_sq(mesh.positions)))


def _diameter_sq(p):
    """Squared :func:`diameter` of the points ``p``.

    The axis-aligned extent gives a cheap lower bound; any endpoint of a
    maximal pair must lie at least half that bound from the centroid, which
    prunes interior vertices before the pair scan.
    """
    lower = float(np.max(bounding_box_extent(p)))
    center = p.mean(axis=0)
    dist = np.linalg.norm(p - center, axis=1)
    # an endpoint x of a pair with |x - y| >= lower needs
    # |x - c| >= lower - max_j |y_j - c|
    r_max = float(dist.max())
    return _pair_scan(p[dist >= lower - r_max - 1e-12 * lower])[0]


def diameter_bound(area, willmore_energy):
    """(2/pi) * sqrt(area * willmore); an upper bound for the diameter."""
    return (2.0 / np.pi) * np.sqrt(area * willmore_energy)


def diameter_check(mesh, willmore_energy, area):
    """Evaluate the diameter inequality; returns (diameter, bound, ok).

    ``area`` is the mesh's total area, a cache's ``total_area``.  The bound
    gets a 1e-9 multiplicative slack to absorb roundoff; the inequality
    itself carries the explicit constant 2/pi.
    """
    d = diameter(mesh)
    bound = diameter_bound(area, willmore_energy)
    return d, bound, d <= bound * (1.0 + 1e-9)


def isoperimetric_ratio(area, volume):
    """sqrt(area) / cbrt(|volume|), scale invariant."""
    if volume == 0.0:
        raise ZeroVolumeError("isoperimetric ratio undefined at zero volume")
    return float(np.sqrt(area) / np.abs(volume) ** (1.0 / 3.0))


def area_ratio(mesh, cache, center, radius):
    """Vertex-sampled ball area divided by radius squared.

    The density that the monotonicity inequality controls; approaches pi
    for small balls centered on a smooth point of the surface.  Membership
    is the module's one rule, :func:`_direct_sq`.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=np.float64)
    d_sq = _direct_sq(mesh.positions.T, center[:, None])
    return float(np.sum(cache.mass[d_sq < radius * radius])) / radius ** 2


def sphere_fit(mesh, weights):
    """Best-fit sphere of the vertex set.

    Linear algebraic fit (|p|^2 = 2<c, p> + r^2 - |c|^2) refined by five
    Gauss-Newton iterations on the geometric distance.  The residuals and
    the rms deviation are weighted by ``weights``, usually the vertex
    areas ``cache.mass``; the max deviation is unweighted.

    Returns
    -------
    (center, radius, rms_deviation, max_deviation)

    Raises
    ------
    SingularFitError
        If the vertices are coplanar to 1e-12.
    """
    p = mesh.positions
    w = np.asarray(weights, dtype=np.float64)
    sw = np.sqrt(w / np.sum(w))
    a = np.column_stack([2.0 * p, np.ones(p.shape[0])]) * sw[:, None]
    rhs = np.einsum("ij,ij->i", p, p) * sw
    sol, _, rank, svals = np.linalg.lstsq(a, rhs, rcond=None)
    if rank < 4 or svals[-1] < 1e-12 * svals[0]:
        raise SingularFitError("vertices are coplanar; sphere fit singular")
    center = sol[:3]
    radius = float(np.sqrt(max(sol[3] + center @ center, 0.0)))

    for _ in range(5):
        delta = p - center
        dist = np.linalg.norm(delta, axis=1)
        res = dist - radius
        jac = np.empty((p.shape[0], 4))
        jac[:, :3] = -delta / np.where(dist > 0, dist, 1.0)[:, None]
        jac[:, 3] = -1.0
        jw = jac * sw[:, None]
        upd, _, _, _ = np.linalg.lstsq(jw, -res * sw, rcond=None)
        center = center + upd[:3]
        radius = float(radius + upd[3])

    delta = p - center
    dist = np.linalg.norm(delta, axis=1)
    res = dist - radius
    rms = float(np.sqrt(np.sum(w * res ** 2) / np.sum(w)))
    return center, radius, rms, float(np.max(np.abs(res)))


def record(state, cache, config):
    """Assemble the full diagnostics row for one flow state.

    The diameter and every ``kappa`` column come from one pair scan: the
    diameter is exact and ``kappa[r]`` equals ``concentration(mesh, cache,
    r)`` bit for bit, by the direct rule ``sum((p_i - p_j)**2) < r*r``.
    ``min_face_quality`` is :func:`~vpwf.mesh.shape_quality` of the
    cache's face areas and squared edge lengths.
    """
    mesh = state.mesh
    area = cache.total_area
    volume = signed_volume(mesh)
    w = willmore(mesh, cache)
    wb = wbar(mesh, cache)
    chi = mesh.topology().euler_characteristic
    lam = lagrange_multiplier(cache)
    radii = tuple(config.kappa_radii)
    diam_sq, kappa_vals, _ = _pair_scan(
        mesh.positions, cache.abs_A_sq * cache.mass, radii)
    diam = float(np.sqrt(diam_sq))
    bound = diameter_bound(area, w)
    kappa = dict(zip(radii, kappa_vals.tolist()))
    return DiagnosticsRecord(
        t=state.time,
        area=area,
        volume=volume,
        willmore=w,
        wbar=wb,
        gauss_bonnet_defect=wb - (2.0 * w - 4.0 * np.pi * chi),
        lam=lam,
        accum_L43=state.accum_L43,
        accum_L2A=state.accum_L2A,
        diameter=diam,
        diameter_bound=bound,
        isoperimetric_ratio=isoperimetric_ratio(area, volume),
        kappa=kappa,
        scale_defect=scale_defect(mesh, cache),
        translation_defect=translation_defect(cache),
        min_face_quality=float(
            np.min(shape_quality(cache.face_areas, cache.face_sq))),
        li_yau=bool(w < LI_YAU_THRESHOLD),
    )
