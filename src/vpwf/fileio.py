"""OBJ / OFF mesh files and trajectory CSV files.

Floating point is written with repr-style shortest round-trip formatting
(17 significant digits), so write/read cycles preserve float64 values
bit-exactly and face index order is preserved verbatim.  Lines starting
with '#' are comments; rescaled outputs carry their provenance there.
"""

import numpy as np

from .diagnostics import DiagnosticsRecord
from .errors import FileFormatError
from .mesh import TriMesh

_FIXED_COLUMNS = [
    "t", "A", "V", "W", "Wbar", "gb_defect", "lambda", "L43", "L2A",
    "diam", "diam_bound", "isop_ratio",
]
_TAIL_COLUMNS = ["scale_defect", "trans_defect", "min_quality", "li_yau"]


def _fmt(x):
    return repr(float(x))


def write_obj(mesh, path, comments=()):
    """Write an ASCII OBJ file (v/f records, 1-based indices).

    Rows are formatted from Python floats and ints (``tolist``), where
    ``%r`` is the shortest round-trip repr, the same text as
    ``repr(float(x))`` for each numpy element.
    """
    lines = ["# %s\n" % line for line in comments]
    lines += ["v %r %r %r\n" % tuple(p) for p in mesh.positions.tolist()]
    lines += ["f %d %d %d\n" % tuple(f) for f in (mesh.faces + 1).tolist()]
    with open(path, "w") as fh:
        fh.writelines(lines)


def read_obj(path):
    """Read an ASCII OBJ file; only v and triangular f records are used."""
    positions = []
    faces = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise FileFormatError(
                        "vertex record needs 3 coordinates", path, lineno
                    )
                try:
                    positions.append([float(x) for x in parts[1:4]])
                except ValueError:
                    raise FileFormatError(
                        "bad vertex coordinate", path, lineno
                    ) from None
            elif tag == "f":
                if len(parts) != 4:
                    raise FileFormatError(
                        "only triangular faces are supported", path, lineno
                    )
                try:
                    idx = [int(p.split("/")[0]) for p in parts[1:]]
                except ValueError:
                    raise FileFormatError(
                        "bad face index", path, lineno
                    ) from None
                if any(i == 0 for i in idx):
                    raise FileFormatError(
                        "OBJ face indices are 1-based", path, lineno
                    )
                idx = [i - 1 if i > 0 else len(positions) + i for i in idx]
                faces.append(idx)
            # other records (vn, vt, o, g, s, usemtl...) are ignored
    if not positions or not faces:
        raise FileFormatError("no geometry found", path)
    return TriMesh(np.array(positions), np.array(faces))


def read_off(path):
    """Read an ASCII OFF file with triangular faces."""
    with open(path) as fh:
        tokens = []
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if not tokens or tokens[0] != "OFF":
        raise FileFormatError("missing OFF header", path)
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
        cursor = 4  # header + vertex/face/edge counts
        positions = np.array(
            [float(x) for x in tokens[cursor:cursor + 3 * nv]]
        ).reshape(nv, 3)
        cursor += 3 * nv
        faces = []
        for _ in range(nf):
            arity = int(tokens[cursor])
            if arity != 3:
                raise FileFormatError(
                    "only triangular OFF faces are supported", path
                )
            faces.append([int(x) for x in tokens[cursor + 1:cursor + 4]])
            cursor += 1 + arity
    except (ValueError, IndexError):
        raise FileFormatError("truncated or malformed OFF data", path) from None
    return TriMesh(positions, np.array(faces))


def csv_header(radii):
    """Column names for the fixed trajectory schema."""
    kappa = ["kappa_%s" % _fmt(r) for r in radii]
    return _FIXED_COLUMNS + kappa + _TAIL_COLUMNS


def record_row(rec):
    """Serialize one DiagnosticsRecord to its CSV fields."""
    fields = [
        rec.t, rec.area, rec.volume, rec.willmore, rec.wbar,
        rec.gauss_bonnet_defect, rec.lam, rec.accum_L43, rec.accum_L2A,
        rec.diameter, rec.diameter_bound, rec.isoperimetric_ratio,
    ]
    fields.extend(rec.kappa[r] for r in rec.kappa)
    fields.extend([rec.scale_defect, rec.translation_defect,
                   rec.min_face_quality])
    return [_fmt(x) for x in fields] + ["%d" % int(rec.li_yau)]


def write_trajectory_csv(records, path, comments=()):
    """Write diagnostics rows; all rows must share the same kappa radii."""
    if not records:
        raise ValueError("no records to write")
    radii = list(records[0].kappa.keys())
    with open(path, "w") as fh:
        for line in comments:
            fh.write("# %s\n" % line)
        fh.write(",".join(csv_header(radii)) + "\n")
        for rec in records:
            if list(rec.kappa.keys()) != radii:
                raise ValueError("inconsistent kappa radii across records")
            fh.write(",".join(record_row(rec)) + "\n")


def read_trajectory_csv(path):
    """Read a trajectory CSV; returns (records, radii, comments)."""
    comments = []
    header = None
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                comments.append(line[1:].strip())
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append((lineno, line.split(",")))
    if header is None:
        raise FileFormatError("missing header row", path)
    kappa_names = [c for c in header if c.startswith("kappa_")]
    expected = csv_header([float(c[len("kappa_"):]) for c in kappa_names])
    if header != expected:
        raise FileFormatError(
            "unexpected column layout: %s" % ",".join(header), path
        )
    radii = [float(c[len("kappa_"):]) for c in kappa_names]
    nk = len(radii)
    records = []
    for lineno, parts in rows:
        if len(parts) != len(header):
            raise FileFormatError(
                "expected %d fields, found %d" % (len(header), len(parts)),
                path, lineno,
            )
        try:
            vals = [float(x) for x in parts]
        except ValueError:
            raise FileFormatError("bad numeric field", path, lineno) from None
        records.append(DiagnosticsRecord(
            t=vals[0], area=vals[1], volume=vals[2], willmore=vals[3],
            wbar=vals[4], gauss_bonnet_defect=vals[5], lam=vals[6],
            accum_L43=vals[7], accum_L2A=vals[8], diameter=vals[9],
            diameter_bound=vals[10], isoperimetric_ratio=vals[11],
            kappa=dict(zip(radii, vals[12:12 + nk])),
            scale_defect=vals[12 + nk],
            translation_defect=vals[13 + nk],
            min_face_quality=vals[14 + nk],
            li_yau=bool(int(vals[15 + nk])),
        ))
    return records, radii, comments
