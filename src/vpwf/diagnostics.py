"""Monitored quantities: concentration function, inequalities, sphere fit.

Every returned value is a function of a mesh snapshot and its geometry
cache alone, and is computed from the arrays those already hold: the
cache's volume, normals and face data, and the mesh's component-first
coordinates (:attr:`~vpwf.mesh.TriMesh.columns`), so a diagnostics row
gathers no face corner and copies no coordinate array.  The one state the
module keeps is the record of its latest full pair scan (``_last_scan``),
whose bounds a later scan of points that have barely moved reuses: it can
save work, never change a result.
Ball-based quantities use extrinsic Euclidean balls with
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
    scale_defect,
    translation_defect,
    wbar,
    willmore,
)
from .mesh import bounding_box_extent, shape_quality

LI_YAU_THRESHOLD = 8.0 * np.pi

# bisection tolerance of concentration_radius, relative to the diameter
RADIUS_REL_TOL = 1e-6

# bytes of the float64 mask of one block of the pair matrix; a block has as
# many rows as fit, and with its float32 products it fills 3/8 of a 2 MiB
# L2 cache (larger and smaller blocks both measured slower)
_BLOCK_BYTES = 1 << 19


@dataclass
class DiagnosticsRecord:
    """One time-series row of every monitored scalar.

    ``gauss_bonnet_defect`` is wbar - (2*willmore - 4*pi*chi): the mass the
    nonnegativity clamp on |A0|^2 removes, which shrinks under refinement.
    """

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


@dataclass(frozen=True, eq=False)
class _BlockScan:
    """What one full block scan of :func:`_pair_scan` proved.

    ``pt`` and ``weights`` are the read-only (3, n) positions and a
    read-only copy of the weights it saw (``total`` their sum),
    ``radii_sq`` the squared radii it was asked for and ``live`` the
    indices of those it bounded: row ``slot`` of ``upper`` bounds every
    centre's content at radius ``live[slot]``, and ``order[slot]`` lists
    the centres by decreasing bound.  ``unit`` and ``s`` are the block
    scaling, ``band`` the rounding band and ``top`` the largest entry;
    ``near`` holds the pairs within twice the band of ``top`` and
    ``diam_sq`` their exact maximum.
    """

    pt: np.ndarray
    weights: np.ndarray
    total: float
    radii_sq: tuple
    unit: float
    s: float
    band: float
    live: tuple
    upper: np.ndarray
    order: tuple
    top: float
    near: tuple
    diam_sq: float


# the record of the latest full block scan that searched the near pairs;
# replaced by one assignment, never changed in place
_last_scan = None


def _block_bounds(qt, sq, unit, weights, thresholds, band, find_near):
    """The O(n^2) float32 block loop of :func:`_pair_scan`.

    Returns (upper, top, near): for each threshold the weight every centre
    credits to its entries below it, the largest entry, and the (i, j)
    index arrays of the entries within ``2 band`` of the running maximum
    (none unless ``find_near``).
    """
    n = qt.shape[1]
    # rows [q, |q|^2, 1] times columns [-2q, 1, |q|^2], scaled by unit
    left = np.empty((n, 5), dtype=np.float32)
    left[:, :3] = (unit * qt).T
    left[:, 3] = unit * unit * sq
    left[:, 4] = 1.0
    right_t = np.empty((5, n), dtype=np.float32)
    right_t[:3] = (-2.0 * unit) * qt
    right_t[3] = 1.0
    right_t[4] = left[:, 3]
    entries = max(_BLOCK_BYTES // 8, n)
    d2_buffer = np.empty(entries, dtype=np.float32)
    inside_buffer = np.empty(entries)
    upper = np.zeros((len(thresholds), n))
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
        if find_near:
            block_top = float(d2.max())
            if block_top >= top - 2.0 * band:
                top = max(top, block_top)
                pairs = np.divmod(
                    np.flatnonzero(d2 >= np.float32(top - 2.0 * band)),
                    width)
                near.append((pairs[0] + lo, pairs[1] + lo))
        for slot, threshold in enumerate(thresholds):
            np.less(d2, threshold, out=inside)
            upper[slot, lo:hi] += inside @ weights[lo:]
            upper[slot, hi:] += weights[lo:hi] @ inside[:, hi - lo:]
        lo = hi
    if find_near:
        near = tuple(np.concatenate(ends) for ends in zip(*near))
    return upper, top, near


def _full_scan(pt, weights, radii_sq, find_near):
    """Bound every live radius and find the near pairs by the block loop."""
    qt = pt - pt.mean(axis=1, keepdims=True)
    sq = _direct_sq(qt, 0.0)
    scale = float(sq.max())
    unit = math.ldexp(1.0, -(math.frexp(scale)[1] // 2))
    unit_sq = unit * unit
    s = scale * unit_sq
    band = 256.0 * float(np.finfo(np.float32).eps) * s
    # no pair is farther apart than twice the largest centroid distance
    live = tuple(k for k, r_sq in enumerate(radii_sq)
                 if r_sq * unit_sq <= 4.0 * s + band)
    thresholds = [np.float32(radii_sq[k] * unit_sq + band) for k in live]
    upper, top, near = _block_bounds(qt, sq, unit, weights, thresholds,
                                     band, find_near)
    diam_sq = None
    if find_near:
        i, j = near
        diam_sq = float(np.max(_direct_sq(pt[:, i], pt[:, j])))
    order = tuple(np.argsort(-bound, kind="stable") for bound in upper)
    if weights is not None:
        weights = np.array(weights, dtype=np.float64)
    for a in (pt, weights, upper, *order, *near):
        if a is not None:
            a.flags.writeable = False
    return _BlockScan(
        pt=pt, weights=weights,
        total=0.0 if weights is None else float(weights.sum()),
        radii_sq=radii_sq, unit=unit, s=s, band=band, live=live,
        upper=upper, order=order, top=top, near=near, diam_sq=diam_sq)


def _weight_growth(scan, pt, weights, radii_sq):
    """``sum(max(w - w_prev, 0))`` if ``scan`` still bounds this scan.

    None when the vertex count, the radii or the presence of weights
    differ, or when the points moved too far since ``scan`` for its bounds
    and near pairs to hold (the two drift tests of :func:`_pair_scan`).
    """
    if (scan is None or scan.pt.shape != pt.shape
            or scan.radii_sq != radii_sq
            or (scan.weights is None) != (weights is None)):
        return None
    us = scan.band / 512.0
    # the largest displacement in scaled units, rounded up
    delta = scan.unit * math.sqrt(float(np.max(_direct_sq(pt, scan.pt))))
    delta *= 1.0 + 1e-12
    rho = math.sqrt(min(max(radii_sq, default=0.0) * scan.unit ** 2,
                        4.0 * scan.s + scan.band))
    if 4.0 * delta * (rho + delta) > 0.5 * (scan.band - 32.0 * us):
        return None
    gap = (math.sqrt(max(scan.diam_sq * scan.unit ** 2 - us, 0.0))
           - math.sqrt(max(scan.top - 2.0 * scan.band + 33.0 * us, 0.0)))
    if 4.0 * delta > 0.5 * gap:
        return None
    if weights is None:
        return 0.0
    return float(np.maximum(weights - scan.weights, 0.0).sum())


def _pair_scan(pt, weights=None, radii=(), diam_sq=None, rows=None):
    """Exact squared diameter and the heaviest vertex-centred ball per radius.

    ``pt`` holds the points component-first, shape (3, n), best a mesh's
    :attr:`~vpwf.mesh.TriMesh.columns`, which are taken as they are; any
    other array is copied into that layout.  A full scan's record keeps
    ``pt`` and marks it read-only, so pass points that nobody changes.

    Each pair is visited once: rows lo:hi against columns lo: form one
    float32 block, one matrix product on the centred augmented coordinates
    ``[q, |q|^2, 1]`` and ``[-2q, 1, |q|^2]``, which ``unit`` (a power of
    two, so exactly) scales to a largest ``|q|^2`` of s in [1/2, 2).  The
    blocks only bound the answer.  The diameter is the largest direct
    distance among the pairs within twice the rounding band of the running
    block maximum.  A radius above the diameter holds every vertex in every
    ball: its value is the sum of all weights, at centre 0, the same bits
    as the masked sum over a row that is all inside.  Each other radius is
    live and gets an upper bound of every centre's content (float32
    threshold r^2 plus the band, float64 masks and sums, which needs
    ``weights >= 0``); centres are then recomputed by the direct rule in
    decreasing bound order until the bound plus a summation slack falls
    below the best exact content.

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

    Reuse.  A full scan that searched the near pairs leaves its
    :class:`_BlockScan` in ``_last_scan``.  A later scan of as many points
    with the same radii takes that record's bounds, order and near pairs
    instead of running the block loop when three tests hold.  Scaled
    quantities below are the record's.  Let delta be the largest vertex
    displacement since the record, times its ``unit`` and rounded up; no
    pair distance has changed by more than 2 delta.

    * Balls.  A pair inside a ball of scaled radius r now was less than
      r + 2 delta apart then, so its entry was below
      (r + 2 delta)^2 + 27 u s and under the rounded threshold whenever
      (r + 2 delta)^2 - r^2 <= band - 32 u s.  The test asks for half of
      that, 4 delta (rho + delta) <= (band - 32 u s) / 2, at rho the
      largest live radius; the other half holds the float64 rounding of
      the new direct values, below 16 eps64 s.  When a radius was not
      live (r^2 > 4 s + band), rho is the live limit sqrt(4 s + band),
      at least twice the largest centroid distance, and the same test
      keeps the new diameter squared under 4 s + band / 2: that ball
      still holds every vertex, and both scans give the total at centre 0.
    * Diameter.  A pair that is not near had e <= top - 2 band + 5 u s,
      so a distance of at most sqrt(top - 2 band + 32 u s), and the
      farthest near pair had sqrt(D) with D the record's scaled
      ``diam_sq``.  With gap = sqrt(D - u s) - sqrt(top - 2 band + 33 u s),
      where the extra u s on each side hold the float64 rounding of the
      direct values, the farthest pair now is still a near pair when
      4 delta <= gap; the test asks for 4 delta <= gap / 2.
    * Weights.  A ball now holds at most its content under the record's
      weights plus growth = sum(max(w - w_prev, 0)), so the slack gains
      growth, grown by n eps64 for its own rounding, and covers the
      rounding of sums of either weights.

    Every test reads the call's own arguments against the record's
    copies, and the recomputation phase returns the exact maximum and its
    first centre under any valid bound: a stale or foreign record can
    cost a block loop, never a returned bit, and a scan that reuses the
    record leaves it in place.

    A caller that scans the same points again can pass their exact squared
    diameter ``diam_sq``, which skips the near-pair search, and a dict
    ``rows`` that keeps the direct rows between scans; neither changes a
    returned bit.

    Returns (diam_sq, values, centres): the exact maximum and its first
    maximizing vertex per radius.
    """
    global _last_scan
    pt = np.ascontiguousarray(pt, dtype=np.float64)
    n = pt.shape[1]
    radii_sq = tuple(float(r) * float(r) for r in radii)
    scan = _last_scan
    growth = _weight_growth(scan, pt, weights, radii_sq)
    if growth is None:
        scan = _full_scan(pt, weights, radii_sq, diam_sq is None)
        growth = 0.0
        if diam_sq is None:
            _last_scan = scan
            diam_sq = scan.diam_sq
    if diam_sq is None:
        i, j = scan.near
        diam_sq = float(np.max(_direct_sq(pt[:, i], pt[:, j])))
    exact_rows = {} if rows is None else rows

    def exact_sq(i):
        if i not in exact_rows:
            exact_rows[i] = _direct_sq(pt, pt[:, i, None])
        return exact_rows[i]

    # covers the rounding of the bound's and the direct rule's sums, and
    # the weight the record's bounds do not know of
    eps = float(np.finfo(np.float64).eps)
    slack = 0.0 if weights is None else (
        2.0 * n * eps * max(float(weights.sum()), scan.total)
        + (1.0 + n * eps) * growth)
    values = np.empty(len(radii_sq))
    centres = np.zeros(len(radii_sq), dtype=np.int64)
    for k, r_sq in enumerate(radii_sq):
        if r_sq > diam_sq:
            # no pair is that far apart: every ball holds every vertex.
            # Every radius the block scan did not bound is one of these
            values[k] = weights.sum()
            continue
        slot = scan.live.index(k)
        bound = scan.upper[slot]
        best, arg = -np.inf, 0
        for c in scan.order[slot]:
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
    _, values, centres = _pair_scan(mesh.columns, weights, radii)
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


def concentration_radius(mesh, cache, threshold):
    """Largest radius whose concentration stays below ``threshold``.

    Bisection on the monotone map r -> kappa(r) to an absolute radius
    tolerance of ``RADIUS_REL_TOL`` times the diameter.

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
    diam_sq = _diameter_sq(mesh.columns)
    diam = float(np.sqrt(diam_sq))
    weights = cache.abs_A_sq * cache.mass
    # every probe scans the same points: the diameter and the direct rows
    # carry over, so each probe costs one bounded scan
    rows = {}
    lo, hi = 0.0, 1.0000001 * diam
    tol = RADIUS_REL_TOL * diam
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        _, values, _ = _pair_scan(mesh.columns, weights, [mid], diam_sq,
                                  rows)
        if values[0] < threshold:
            lo = mid
        else:
            hi = mid
    return lo


def diameter(mesh):
    """Exact maximum vertex-pair distance, a direct float64 difference."""
    return float(np.sqrt(_diameter_sq(mesh.columns)))


def _diameter_sq(pt):
    """Squared :func:`diameter` of the (3, n) points ``pt``.

    The axis-aligned extent gives a cheap lower bound; any endpoint of a
    maximal pair must lie at least half that bound from the centroid, which
    prunes interior vertices before the pair scan.
    """
    lower = float(np.max(bounding_box_extent(pt)))
    dist = np.sqrt(_direct_sq(pt, pt.mean(axis=1, keepdims=True)))
    # an endpoint x of a pair with |x - y| >= lower needs
    # |x - c| >= lower - max_j |y_j - c|
    r_max = float(dist.max())
    return _pair_scan(pt[:, dist >= lower - r_max - 1e-12 * lower])[0]


def diameter_bound(area, willmore_energy):
    """(2/pi) * sqrt(area * willmore); an upper bound for the diameter."""
    return (2.0 / np.pi) * np.sqrt(area * willmore_energy)


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
    d_sq = _direct_sq(mesh.columns, center[:, None])
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

    ``cache`` is the geometry of ``state.mesh``; only the mesh, time and
    multiplier integrals are read off ``state``, so a bare
    ``FlowState(mesh=mesh)`` will do.  The row is built from arrays the
    mesh and the cache already hold: the volume is the cache's, measured
    on the face frame the cache was built on (the flow's own volume
    check), and the pair scan and the scale defect read the mesh's
    component-first :attr:`~vpwf.mesh.TriMesh.columns`.  No face corner is
    gathered again.

    The diameter and every ``kappa`` column come from one pair scan: the
    diameter is exact and ``kappa[r]`` equals ``concentration(mesh, cache,
    r)`` bit for bit, by the direct rule ``sum((p_i - p_j)**2) < r*r``.
    While the mesh holds still (same vertex count and radii, every vertex
    within about 1e-6 of the mesh's extent of where the last full scan saw
    it), the scan reuses that scan's bounds and costs one O(n) pass plus
    the direct rows it recomputes: a row per step on a still mesh runs the
    O(n^2) block loop once.  A radius above the diameter costs one sum.
    ``min_face_quality`` is :func:`~vpwf.mesh.shape_quality` of the
    cache's face areas and squared edge lengths.
    """
    mesh = state.mesh
    area = cache.total_area
    volume = cache.volume
    w = willmore(cache)
    wb = wbar(cache)
    chi = mesh.topology().euler_characteristic
    lam = lagrange_multiplier(cache)
    radii = tuple(config.kappa_radii)
    diam_sq, kappa_vals, _ = _pair_scan(
        mesh.columns, cache.abs_A_sq * cache.mass, radii)
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
