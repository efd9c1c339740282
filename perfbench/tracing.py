"""In-memory spans around vpwf's public functions.

:meth:`Tracer.install` replaces each listed function, in every vpwf module
that binds it (``vpwf.flow.build_cache`` as well as
``vpwf.ddg.build_cache``), by a wrapper that records a span: its name,
start, end and the span that was open when it began.  Spans are kept in
lists and written out only when the run ends.  :meth:`Tracer.remove` puts
the original functions back.
"""

import functools
import importlib
import os
import sys
import time

# layer -> public functions that get a span
TRACED = {
    "cli": ["main"],
    "generators": ["icosphere", "ellipsoid", "perturbed_sphere"],
    "mesh": ["validate"],
    "ddg": ["build_cache", "build_laplacian", "lumped_mass", "vertex_normals",
            "mean_curvature", "gaussian_curvature"],
    "functionals": ["wbar", "lagrange_multiplier"],
    "flow": ["run", "step", "quality_pass"],
    "diagnostics": ["record", "concentration", "concentration_radius",
                    "sphere_fit"],
    "rescale": ["blowup_window", "rescale_record"],
    "fileio": ["write_obj", "read_obj", "write_trajectory_csv",
               "read_trajectory_csv"],
}


def _size_of_path_arg(args, kwargs, out):
    """Size of the file named by the ``path`` argument (first or second)."""
    if "path" in kwargs:
        return os.path.getsize(kwargs["path"])
    return os.path.getsize(args[1] if len(args) > 1 else args[0])


def _halvings(args, kwargs, out):
    return out.last_halvings


# per-span numbers besides the times: bytes moved by the file layer and the
# rejected trials of a flow step
EXTRA = {
    "flow.step": _halvings,
    "fileio.write_obj": _size_of_path_arg,
    "fileio.read_obj": _size_of_path_arg,
    "fileio.write_trajectory_csv": _size_of_path_arg,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.extra = {}
        self._open = [-1]
        self._patched = []

    def __len__(self):
        return len(self.names)

    def _wrap(self, name, fn):
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack, extra, measure = self._open, self.extra, EXTRA.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if measure is not None:
                extra[idx] = measure(args, kwargs, out)
            return out

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "vpwf" or n.startswith("vpwf.")]
        for layer, functions in TRACED.items():
            module = importlib.import_module("vpwf." + layer)
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = self._wrap("%s.%s" % (layer, fn_name), original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def remove(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def write(self, path):
        """Spans as CSV: index, name, start_ns, end_ns, parent, extra."""
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent,extra\n")
            for i, name in enumerate(self.names):
                fh.write("%d,%s,%d,%d,%d,%s\n" % (
                    i, name, self.starts[i], self.ends[i], self.parents[i],
                    self.extra.get(i, "")))

    # --- queries over a slice of spans ------------------------------------

    def spans(self, name, lo=0, hi=None):
        hi = len(self.names) if hi is None else hi
        return [i for i in range(lo, hi) if self.names[i] == name]

    def duration(self, i):
        return self.ends[i] - self.starts[i]

    def self_times(self):
        """Each span's duration minus that of its direct children.

        The program is single-threaded, so children never overlap and
        their durations add up to the part of the parent they cover.
        """
        own = [self.ends[i] - self.starts[i] for i in range(len(self))]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own
