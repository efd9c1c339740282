"""Round times scaled by a fixed probe timed beside them.

The cores of a shared VM change speed in phases of one to several seconds
(by up to 1.8x on the machine of the README), and a whole run can fall in
one phase, so the plain wall time of a round varies from run to run by
more than a benchmark bound.  :class:`Pacer` cuts a round into stretches
of at least :data:`STRETCH_S` and times the probe after each one; a
stretch counts as its wall time times ``PROBE_REF_S / probe time``.  The
sum is the time the round takes at the pace where the probe takes
``PROBE_REF_S``.  The probe's time is kept out of the round's.

The probe mixes the kinds of work vpwf does: a pure-Python loop, the
gathers, cross products and ``bincount`` of the per-face kernels on a
level-4 sized mesh, and a float32 matrix product like the diagnostics'
frame scan.  Its inputs are fixed, never seeded.
"""

import time

import numpy as np

# shortest stretch between two probes
STRETCH_S = 0.15
# probe time of the reference pace: about the probe's time in the fast
# phases of a 2-core Xeon VM
PROBE_REF_S = 3.5e-3

_VERTICES, _FACES = 2562, 5120


class Probe:
    """A fixed mix of Python and numpy work; ``__call__`` returns its time."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.points = rng.standard_normal((_VERTICES, 3))
        self.faces = rng.integers(0, _VERTICES, (_FACES, 3))
        self.square = rng.standard_normal((192, 192)).astype(np.float32)

    def __call__(self):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(15000):
            acc += i * 0.5
        p, f = self.points, self.faces
        for _ in range(5):
            n = np.cross(p[f[:, 1]] - p[f[:, 0]], p[f[:, 2]] - p[f[:, 0]])
            np.bincount(f[:, 0], n[:, 0], minlength=_VERTICES)
        for _ in range(2):
            self.square @ self.square
        return time.perf_counter() - t0


class Pacer:
    """Wall and scaled time of one round, cut into probed stretches.

    With ``probe=None`` (the traced run, where a probe would land inside
    the spans) the stretches are not probed and only the wall time counts.
    """

    def __init__(self, probe):
        self.probe = probe
        self.first = None       # perf_counter of the round's first step
        self._last = None
        self.wall = self.scaled = 0.0
        self.probes = []

    def step(self):
        """Called before every flow step: starts the round at the first."""
        now = time.perf_counter()
        if self.first is None:
            self.first = self._last = now
        elif now - self._last >= STRETCH_S:
            self._close(now)

    def tick(self):
        """Called between the operations of a round."""
        if self.first is not None:
            now = time.perf_counter()
            if now - self._last >= STRETCH_S:
                self._close(now)

    def finish(self):
        """Closes the last stretch; (wall, scaled) seconds of the round."""
        self._close(time.perf_counter())
        return self.wall, self.scaled

    def _close(self, now):
        wall = now - self._last
        self.wall += wall
        if self.probe is None:
            self.scaled += wall
        else:
            took = self.probe()
            self.probes.append(took)
            self.scaled += wall * PROBE_REF_S / took
        self._last = time.perf_counter()
