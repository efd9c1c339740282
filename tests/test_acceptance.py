"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one verdict line (run pytest with -s to see them all).
The two flagship runs (stationary sphere, ellipsoid relaxation) execute
once per session through the shipped scenario preset files, so this module
is also an end-to-end exercise of the configuration path.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from vpwf import cli
from vpwf.ddg import build_cache
from vpwf.diagnostics import concentration, record as make_record, sphere_fit
from vpwf.flow import run
from vpwf.functionals import (
    lagrange_multiplier,
    signed_volume,
    scalar_willmore_gradient,
    wbar,
    willmore,
)
from vpwf.generators import ellipsoid, icosphere, perturbed_sphere, torus
from vpwf.mesh import TriMesh
from vpwf.rescale import RescaleSpec, blowup_window, rescale_mesh, \
    rescale_trajectory

from oracles import (
    octahedron,
    random_smooth_normal_field,
    volume_gradient_normal,
)

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def scenario_setup(name, **overrides):
    """Mesh and flow configuration from a shipped scenario preset."""
    parser = cli.build_parser()
    argv = cli._apply_config_file(
        parser, ["simulate", "--config", str(SCENARIOS / (name + ".cfg"))]
    )
    args = parser.parse_args(argv)
    for key, value in overrides.items():
        setattr(args, key, value)
    return cli._generate_mesh(args), cli._flow_config(args)


def verdict(name, ok, detail):
    print("\nACCEPTANCE %-28s %s  (%s)" % (name, "PASS" if ok else "FAIL",
                                           detail))
    assert ok, "%s: %s" % (name, detail)


@pytest.fixture(scope="module")
def sphere_run():
    mesh, config = scenario_setup("sphere-stationarity")
    assert mesh.vertex_count == 2562
    drifts = []

    def recorder(state, cache, cfg):
        radii = np.linalg.norm(state.mesh.positions, axis=1)
        drifts.append(float(np.max(np.abs(radii - 1.0))))
        return make_record(state, cache, cfg)

    start = time.perf_counter()
    traj = run(mesh, config, record_fn=recorder)
    elapsed = time.perf_counter() - start
    return traj, drifts, elapsed


@pytest.fixture(scope="module")
def ellipsoid_run():
    mesh, config = scenario_setup("ellipsoid-to-sphere")
    start = time.perf_counter()
    traj = run(mesh, config)
    elapsed = time.perf_counter() - start
    return traj, elapsed


@pytest.fixture(scope="module")
def perturbed_run():
    mesh, config = scenario_setup("perturbed-sphere")
    return run(mesh, config)


@pytest.fixture(scope="module")
def torus_run():
    mesh, config = scenario_setup("torus-monitoring")
    return run(mesh, config)


def test_criterion_1_sphere_stationarity(sphere_run):
    traj, drifts, elapsed = sphere_run
    state = traj.final_state
    assert state.step_index == 200
    assert len(traj.records) == 201  # one per step plus the initial row
    v0 = state.target_volume
    vol_err = max(abs(r.volume - v0) / abs(v0) for r in traj.records)
    lam_max = max(abs(r.lam) for r in traj.records)
    drift = max(drifts)
    ok = drift <= 1e-3 and lam_max <= 1e-3 and vol_err <= 1e-10 \
        and elapsed <= 30.0
    verdict("1 sphere stationarity", ok,
            "drift=%.2e lam=%.2e vol=%.2e runtime=%.1fs"
            % (drift, lam_max, vol_err, elapsed))


def test_criterion_2_ellipsoid_convergence(ellipsoid_run):
    traj, elapsed = ellipsoid_run
    state = traj.final_state
    target_radius = (3.0 * state.target_volume / (4.0 * np.pi)) ** (1.0 / 3.0)
    w_final = willmore(state.cache)
    _, radius, rms, _ = sphere_fit(state.mesh, state.cache.mass)
    ok = (
        traj.stop_reason in ("speed_tol", "wbar_tol")
        and abs(w_final - 4 * np.pi) <= 0.02 * 4 * np.pi
        and abs(radius - target_radius) <= 0.02 * target_radius
        and rms <= 0.01 * radius
        and elapsed <= 600.0
    )
    verdict("2 ellipsoid convergence", ok,
            "stop=%s W-4pi=%.4f radius err=%.3f%% rms=%.3f%% runtime=%.0fs"
            % (traj.stop_reason, w_final - 4 * np.pi,
               abs(radius - target_radius) / target_radius * 100,
               rms / radius * 100, elapsed))


def test_criterion_3_dissipation(sphere_run, ellipsoid_run):
    # per-step on the sphere scenario (cadence one); across-rows with the
    # accumulated per-step allowance on the ellipsoid scenario; plus a
    # per-step fine-grained window on a smaller relaxation
    tol = 1e-6
    worst = -np.inf

    def check(records, steps_between):
        nonlocal worst
        for a, b in zip(records, records[1:]):
            allowance = steps_between * tol * max(1.0, a.wbar)
            worst = max(worst, b.wbar - a.wbar - allowance)
            if b.wbar > a.wbar + allowance:
                return False
        return True

    ok = check(sphere_run[0].records, 1)
    ok = ok and check(ellipsoid_run[0].records, 400)

    mesh = ellipsoid(1.2, 1.0, 0.85, 3)
    from vpwf.flow import FlowConfig, StopRule

    fine = run(mesh, FlowConfig(record_cadence=1,
                                stop=StopRule(max_steps=300)))
    ok = ok and check(fine.records, 1)
    verdict("3 dissipation", ok, "worst excess=%.2e" % worst)


def test_criterion_4_gauss_bonnet():
    meshes = {
        "icosphere3": (icosphere(3), 2),
        "icosphere4": (icosphere(4), 2),
        "icosphere5": (icosphere(5), 2),
        "ellipsoid": (ellipsoid(1.2, 1.0, 0.85, 3), 2),
        "perturbed": (perturbed_sphere(3, 1.0, 3, 2, 0.08), 2),
        "octahedron": (octahedron(), 2),
        "torus": (torus(2.0, 1.0, 48, 24), 0),
    }
    worst = 0.0
    defects = []
    for name, (mesh, chi) in meshes.items():
        cache = build_cache(mesh)
        total = float(np.sum(cache.K * cache.mass))
        worst = max(worst, abs(total - 2 * np.pi * chi))
        if name.startswith("icosphere"):
            defects.append(abs(
                wbar(cache) - 2 * willmore(cache) + 4 * np.pi * chi
            ))
    monotone = defects[0] > defects[1] > defects[2]
    ok = worst <= 1e-9 and monotone
    verdict("4 discrete gauss-bonnet", ok,
            "worst=%.1e defects 3->5: %s" % (
                worst, " > ".join("%.3e" % d for d in defects)))


def test_criterion_5_curvature_convergence(sphere3, sphere4, sphere5):
    errors = {"H": [], "K": [], "W": [], "A": [], "V": []}
    for mesh, cache in (sphere3, sphere4, sphere5):
        errors["H"].append(np.max(np.abs(cache.H - 2.0) / 2.0))
        errors["K"].append(np.max(np.abs(cache.K - 1.0)))
        errors["W"].append(
            abs(willmore(cache) - 4 * np.pi) / (4 * np.pi))
        errors["A"].append(abs(cache.total_area - 4 * np.pi) / (4 * np.pi))
        errors["V"].append(
            abs(signed_volume(mesh) - 4 * np.pi / 3) / (4 * np.pi / 3))
    ratios = {
        key: (vals[0] / vals[1], vals[1] / vals[2])
        for key, vals in errors.items()
    }
    ok = all(
        vals[0] > vals[1] > vals[2] for vals in errors.values()
    ) and all(r1 >= 1.8 and r2 >= 1.8 for r1, r2 in ratios.values())
    verdict("5 curvature convergence", ok,
            " ".join("%s:%.1f/%.1f" % (k, *r) for k, r in ratios.items()))


def test_criterion_6_gradient_consistency(sphere4):
    mesh, cache = sphere4
    eps_sweep = (1e-3, 1e-4, 1e-5)

    # volume: central differences against the exact discrete gradient
    gvol = volume_gradient_normal(mesh, cache.normals)
    worst_v = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        phi = random_smooth_normal_field(mesh.positions, rng)
        pred = float(np.sum(gvol * phi))
        best = np.inf
        for eps in eps_sweep:
            vp = signed_volume(TriMesh(
                mesh.positions + eps * phi[:, None] * cache.normals,
                mesh.faces))
            vm = signed_volume(TriMesh(
                mesh.positions - eps * phi[:, None] * cache.normals,
                mesh.faces))
            best = min(best, abs((vp - vm) / (2 * eps) - pred) / abs(pred))
        worst_v = max(worst_v, best)

    # the gradient along the normals integrates to minus the area up to
    # the normal-field quadrature defect
    area_defect = abs(float(np.sum(gvol)) + cache.total_area) \
        / cache.total_area

    # bending energy: the sphere is umbilic, so both the finite difference
    # and the predicted derivative must vanish at the noise floor there;
    # the 5% agreement check runs at an anisotropic base point
    grad_sphere = scalar_willmore_gradient(cache)
    sphere_preds = []
    sphere_fds = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        phi = random_smooth_normal_field(mesh.positions, rng)
        sphere_preds.append(abs(float(np.sum(
            grad_sphere * phi * cache.mass))))
        eps = 1e-4
        plus = TriMesh(mesh.positions + eps * phi[:, None] * cache.normals,
                       mesh.faces)
        minus = TriMesh(mesh.positions - eps * phi[:, None] * cache.normals,
                        mesh.faces)
        sphere_fds.append(abs(
            wbar(build_cache(plus)) - wbar(build_cache(minus))
        ) / (2 * eps))
    stationary = max(max(sphere_preds), max(sphere_fds)) <= 1e-3

    worst_w = {}
    for level in (4, 5):
        emesh = ellipsoid(1.2, 1.0, 0.85, level)
        ecache = build_cache(emesh)
        grad = scalar_willmore_gradient(ecache)
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            phi = random_smooth_normal_field(emesh.positions, rng)
            pred = float(np.sum(grad * phi * ecache.mass))
            best = np.inf
            for eps in eps_sweep:
                plus = TriMesh(
                    emesh.positions + eps * phi[:, None] * ecache.normals,
                    emesh.faces)
                minus = TriMesh(
                    emesh.positions - eps * phi[:, None] * ecache.normals,
                    emesh.faces)
                fd = (wbar(build_cache(plus))
                      - wbar(build_cache(minus))) / (2 * eps)
                best = min(best, abs(fd - pred) / max(abs(fd), abs(pred)))
            worst = max(worst, best)
        worst_w[level] = worst

    ok = (worst_v <= 1e-8 and area_defect < 1e-3 and stationary
          and worst_w[4] <= 0.05 and worst_w[5] < worst_w[4])
    verdict("6 gradient consistency", ok,
            "V=%.1e area defect=%.1e Wbar lvl4=%.3f%% lvl5=%.3f%%"
            % (worst_v, area_defect, worst_w[4] * 100, worst_w[5] * 100))


def test_criterion_7_scaling_invariants(ellipsoid_run):
    traj, _ = ellipsoid_run
    final = traj.records[-1]
    assert final.accum_L43 > 0 and final.accum_L2A > 0
    ok = True
    for rho in (0.5, 2.0):
        scaled = rescale_trajectory(traj, RescaleSpec(rho=rho))
        for a, b in zip(traj.records, scaled.records):
            if a.accum_L43 > 0:
                ok = ok and abs(b.accum_L43 - a.accum_L43) \
                    <= 1e-12 * a.accum_L43
            if a.accum_L2A > 0:
                ok = ok and abs(b.accum_L2A - a.accum_L2A) \
                    <= 1e-12 * a.accum_L2A

    mesh = ellipsoid(1.2, 1.0, 0.85, 4)
    cache = build_cache(mesh)
    lam = lagrange_multiplier(cache)
    w = willmore(cache)
    for rho in (0.5, 2.0):
        scaled_mesh = rescale_mesh(mesh, RescaleSpec(rho=rho))
        scaled_cache = build_cache(scaled_mesh)
        ok = ok and abs(willmore(scaled_cache) - w) <= 1e-12 * w
        lam_scaled = lagrange_multiplier(scaled_cache)
        ok = ok and abs(lam_scaled - rho ** 3 * lam) <= 0.01 * abs(
            rho ** 3 * lam)
    verdict("7 scaling invariants", ok,
            "L43=%.6g L2A=%.6g preserved at rho=0.5,2"
            % (final.accum_L43, final.accum_L2A))


def test_criterion_8_inequality_monitors(sphere_run, ellipsoid_run,
                                         perturbed_run, torus_run):
    runs = {
        "sphere": sphere_run[0],
        "ellipsoid": ellipsoid_run[0],
        "perturbed": perturbed_run,
        "torus": torus_run,
    }
    frames = 0
    ok = True
    for name, traj in runs.items():
        for row in traj.records:
            frames += 1
            ok = ok and row.diameter <= row.diameter_bound * (1.0 + 1e-9)
            values = list(row.kappa.values())
            ok = ok and all(b >= a - 1e-12 for a, b in
                            zip(values, values[1:]))
            largest_radius = max(row.kappa.keys())
            if largest_radius >= row.diameter:
                total = row.kappa[largest_radius]
                target = row.wbar + 2.0 * row.willmore
                ok = ok and abs(total - target) <= 1e-9 * max(target, 1.0)
    verdict("8 inequality monitors", ok, "%d frames across 4 scenarios"
            % frames)


def test_criterion_9_blowup_window(perturbed_run):
    traj = perturbed_run
    assert len(traj.snapshots) >= 2
    threshold = 4 * np.pi
    window = blowup_window(traj, threshold, 2e-6)
    cache = build_cache(window.mesh)
    kappa_unit, _ = concentration(window.mesh, cache, 1.0)
    kappa_err = abs(kappa_unit - window.kappa_value) \
        / abs(window.kappa_value)

    source = [m for t, m in traj.snapshots if t == window.snapshot_time][0]
    undone = rescale_mesh(window.mesh, RescaleSpec(
        rho=1.0 / window.radius,
        origin=tuple(-window.center / window.radius),
    ))
    recover_err = np.max(np.abs(undone.positions - source.positions)) \
        / np.max(np.abs(source.positions))
    ok = kappa_err <= 1e-10 and recover_err <= 1e-14
    verdict("9 blow-up window", ok,
            "kappa err=%.1e recover err=%.1e r=%.3f"
            % (kappa_err, recover_err, window.radius))


def test_criterion_10_total_curvature_identity(sphere3, sphere4, sphere5):
    gaps = []
    ok = True
    for mesh, cache in (sphere3, sphere4, sphere5):
        total = float(np.sum(cache.abs_A_sq * cache.mass))
        chi = 2
        target = 4.0 * willmore(cache) - 4.0 * np.pi * chi
        defect = abs(wbar(cache) - 2 * willmore(cache)
                     + 4 * np.pi * chi)
        gap = abs(total - target)
        gaps.append(gap)
        ok = ok and gap <= defect * (1.0 + 1e-9) + 1e-12
    ok = ok and gaps[0] > gaps[1] > gaps[2]
    verdict("10 total curvature identity", ok,
            "gaps 3->5: %s" % " > ".join("%.3e" % g for g in gaps))


# decay rate of the sphere-fit rms on t in [0.05, 0.1], as a fraction of
# the linearized rate 24/R^4: the explicit level-3 flow reads 0.950
# (22.46 against 23.65); the window allows 5% below and 2% above theory
RATE_WINDOW = (0.90, 1.02)


def test_relaxation_rate_gate():
    # near a round sphere of radius R the flow is linearly u_t =
    # -lap(lap + 2/R^2) u; the volume constraint removes l = 0 and l = 1 is
    # a translation, so the slowest shape mode, l = 2, decays at 24/R^4
    mesh, config = scenario_setup("ellipsoid-to-sphere", level=3,
                                  speed_tol=0.0, max_time=0.1,
                                  record_cadence=20)
    radius = (3.0 * signed_volume(mesh) / (4.0 * np.pi)) ** (1.0 / 3.0)
    theory = 24.0 / radius ** 4
    samples = []

    def recorder(state, cache, cfg):
        samples.append((state.time, sphere_fit(state.mesh, cache.mass)[2]))

    run(mesh, config, record_fn=recorder)
    t, rms = np.array(samples).T
    late = t >= 0.05
    rate = -np.polyfit(t[late], np.log(rms[late]), 1)[0]
    ratio = rate / theory
    verdict("rate gate", RATE_WINDOW[0] <= ratio <= RATE_WINDOW[1],
            "rate=%.3f 24/R^4=%.3f ratio=%.4f over %d rows, t <= %.4f"
            % (rate, theory, ratio, int(late.sum()), t[-1]))
