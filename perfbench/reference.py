"""Reference per-call figures: p50 of build_cache, step and record.

    python3 perfbench/reference.py

Fixed inputs, no seed: the ellipsoid preset's shape (1.2, 1.0, 0.85) at
each level.  ``step`` runs from the preset's state at t = 0 (the line
reports how many times that step halves its dt); ``record`` uses the
preset's kappa radii.
The thread pools are capped as in ``run.py``.  Prints one line per level,
in milliseconds.
"""

import statistics
import time

import threadcap

if __name__ == "__main__":
    threadcap.cap()

import run  # noqa: E402

# level -> calls of build_cache, step and record
CALLS = {3: (200, 200, 40), 4: (100, 100, 10), 5: (30, 30, 3)}


def p50_ms(fn, calls):
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main():
    vpwf = run.load_vpwf()

    config = vpwf.flow.FlowConfig(dt_safety=0.09,
                                  kappa_radii=(0.5, 1.0, 4.0))
    for level, (n_cache, n_step, n_record) in CALLS.items():
        mesh = vpwf.generators.ellipsoid(1.2, 1.0, 0.85, level)
        cache = vpwf.ddg.build_cache(mesh)
        state = vpwf.flow.initial_state(mesh, cache)
        build = p50_ms(lambda: vpwf.ddg.build_cache(mesh), n_cache)
        step = p50_ms(lambda: vpwf.flow.step(state, config), n_step)
        record = p50_ms(
            lambda: vpwf.diagnostics.record(state, cache, config), n_record)
        halvings = vpwf.flow.step(state, config).last_halvings
        print("level %d (%d vertices): build_cache %.3f ms, step %.3f ms "
              "(%d halvings), record %.3f ms" % (
                  level, mesh.vertex_count, build, step, halvings, record))


if __name__ == "__main__":
    main()
