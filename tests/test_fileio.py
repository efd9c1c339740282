from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vpwf import fileio
from vpwf.ddg import build_cache
from vpwf.diagnostics import record
from vpwf.errors import FileFormatError
from vpwf.fileio import (
    csv_header,
    read_obj,
    read_off,
    read_trajectory_csv,
    write_obj,
    write_trajectory_csv,
)
from vpwf.flow import FlowConfig, initial_state
from vpwf.generators import icosphere, perturbed_sphere
from vpwf.mesh import TriMesh, validate

from oracles import per_row_obj_text, reference_read_obj


class TestObj:
    def test_round_trip_bit_exact(self, tmp_path):
        mesh = perturbed_sphere(2, 1.0, 3, 2, 0.123456789)
        path = tmp_path / "mesh.obj"
        write_obj(mesh, path, comments=["round trip probe"])
        back = read_obj(path)
        assert np.array_equal(back.positions, mesh.positions)
        assert np.array_equal(back.faces, mesh.faces)

    @settings(max_examples=80, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), n=st.integers(1, 12), m=st.integers(1, 12))
    def test_round_trip_property(self, tmp_path, data, n, m):
        # any finite float64, signed zeros and subnormals included, comes
        # back bit for bit; faces come back verbatim, in order
        finite = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072e-308,
                             -1.5e-310, 1.7976931348623157e308]),
        )
        positions = data.draw(arrays(np.float64, (n, 3), elements=finite))
        faces = data.draw(arrays(np.int64, (m, 3),
                                 elements=st.integers(0, n - 1)))
        path = tmp_path / "property.obj"
        write_obj(TriMesh(positions, faces), path)
        back = read_obj(path)
        assert np.array_equal(back.positions.view(np.int64),
                              positions.view(np.int64))
        assert np.array_equal(back.faces, faces)

    def test_bytes_match_per_row_formatter(self, tmp_path):
        # random magnitudes over the whole float64 range, signed zeros,
        # 1e-300 and subnormals: the text is the per-element repr's
        rng = np.random.default_rng(7)
        positions = rng.normal(size=(400, 3)) * 10.0 ** rng.integers(
            -320, 300, size=(400, 3))
        positions[:4] = [[-0.0, 0.0, 1e-300], [5e-324, -5e-324, -1e-300],
                         [2.2250738585072e-308, -1.5e-310, 1.0],
                         [1.7976931348623157e308, 1 / 3, -2.5]]
        faces = rng.integers(0, 400, size=(700, 3))
        path = tmp_path / "bytes.obj"
        write_obj(TriMesh(positions, faces), path, comments=["c1", "c 2"])
        expected = per_row_obj_text(positions, faces, ["c1", "c 2"])
        assert path.read_bytes() == expected.encode()

    def test_awkward_floats_survive(self, tmp_path):
        positions = np.array([
            [1 / 3, 2 / 7, -1e-17],
            [np.pi, -np.e, 1e300],
            [5e-324, -0.1, 0.3],
            [1.0, 2.0, 3.0],
        ])
        faces = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
        path = tmp_path / "tet.obj"
        write_obj(TriMesh(positions, faces), path)
        back = read_obj(path)
        assert np.array_equal(back.positions, positions)

    def test_slash_face_records(self, tmp_path):
        path = tmp_path / "slashed.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
            "f 1/1 2/2 3/3\nf 1//1 3//3 4//4\nf 1 4 2\nf 2 4 3\n"
        )
        mesh = read_obj(path)
        assert mesh.face_count == 4
        validate(mesh)

    def test_relative_indices_count_back_from_the_face_line(self, tmp_path):
        # -1 is the last vertex read before the face line, not the last
        # vertex of the file
        path = tmp_path / "relative.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -1 -2\n"
            "v 0 0 1\nf 1 -1 3\nf -4/1/1 -3//2 -1\nf 2 3 -1\n"
            "v 9 9 9\n"
        )
        mesh = read_obj(path)
        assert mesh.faces.tolist() == [[0, 2, 1], [0, 3, 2], [0, 1, 3],
                                       [1, 2, 3]]
        assert mesh.vertex_count == 5

    def test_w_coordinate_is_ignored(self, tmp_path):
        path = tmp_path / "homogeneous.obj"
        path.write_text(
            "v 0 0 0 1\nv 1 0 0 0.5\nv 0 1 0\nv\t0 0 1 2.0\n"
            "f 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n"
        )
        mesh = read_obj(path)
        assert np.array_equal(mesh.positions,
                              [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        validate(mesh)

    @pytest.mark.parametrize("face", ["f 0 1 2", "f 1 2/2 0/3", "f 1//1 0 2"])
    def test_zero_index_is_refused_at_its_line(self, tmp_path, face):
        path = tmp_path / "zero.obj"
        path.write_text("v 0 0 0\nv 1 0 0\n# c\nv 0 1 0\n%s\n" % face)
        with pytest.raises(FileFormatError) as err:
            read_obj(path)
        assert str(err.value) == "%s:5: OBJ face indices are 1-based" % path

    @pytest.mark.parametrize("text, line, message", [
        ("v 0 0 0\nf 1 2\nv 1 0\n", 2, "only triangular faces are supported"),
        ("f 1 x 2\nv 0 0\n", 1, "bad face index"),
        ("v 0 0 0\nv 0 0 q\nf 0 1 2\n", 2, "bad vertex coordinate"),
        ("v 0 0 0\nf 1 2 0\nv 0 0\n", 2, "OBJ face indices are 1-based"),
        ("f 1 2 3\n  v 0 0\nf 1 2 3 4\n", 2,
         "vertex record needs 3 coordinates"),
    ])
    def test_first_malformed_record_is_named(self, tmp_path, text, line,
                                             message):
        path = tmp_path / "bad.obj"
        path.write_text(text)
        with pytest.raises(FileFormatError) as err:
            read_obj(path)
        assert str(err.value) == "%s:%d: %s" % (path, line, message)

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=st.lists(st.one_of(
        st.tuples(st.just("v"), st.lists(
            st.one_of(st.floats(allow_nan=False).map(repr),
                      st.sampled_from(["1", "-0", "1e-320", "2."])),
            min_size=3, max_size=4)),
        st.tuples(st.just("f"), st.lists(
            st.tuples(st.integers(-6, -1) | st.integers(1, 6),
                      st.sampled_from(["", "/1", "//2", "/3/4"])),
            min_size=3, max_size=3)),
        st.sampled_from(["", "# f 0 0 0", "vn 0 0 1", "vt 0.5 0.5",
                         "o name", "  ", "s off", "\tv 1 2 3", " f 1 2 3"]),
        # each malformed in its own way
        st.sampled_from(["v 1 2", "v 1 x 3", "f 1 2", "f 1 2 3 4",
                         "f 1 0 2", "f 1/ 2 3", "f a b c",
                         "f 1 2 3 # note", "v 1 2 3 # note"]),
    ), max_size=25))
    def test_matches_the_line_at_a_time_reader(self, tmp_path, records):
        # the same arrays, or the same error text at the same line
        lines = []
        for record in records:
            if isinstance(record, str):
                lines.append(record)
            elif record[0] == "v":
                lines.append(" ".join(["v"] + record[1]))
            else:
                lines.append(" ".join(
                    ["f"] + ["%d%s" % index for index in record[1]]))
        path = tmp_path / "drawn.obj"
        path.write_text("\n".join(lines) + "\n")
        try:
            want = reference_read_obj(path)
        except FileFormatError as exc:
            want = str(exc)
        # the shipped chunk, and chunks of a few lines: relative indices
        # and error lines cross chunk boundaries
        for chunk in (fileio._OBJ_CHUNK_LINES, 1, 4):
            with mock.patch.object(fileio, "_OBJ_CHUNK_LINES", chunk):
                if isinstance(want, str):
                    with pytest.raises(FileFormatError) as err:
                        read_obj(path)
                    assert str(err.value) == want
                    continue
                mesh = read_obj(path)
            assert np.array_equal(mesh.positions.view(np.int64),
                                  want[0].view(np.int64))
            assert np.array_equal(mesh.faces, want[1])

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0\n")
        with pytest.raises(FileFormatError) as err:
            read_obj(path)
        assert ":2:" in str(err.value)

    def test_missing_geometry(self, tmp_path):
        path = tmp_path / "empty.obj"
        for text in ("# nothing here\n", ""):
            path.write_text(text)
            with pytest.raises(FileFormatError):
                read_obj(path)


class TestOff:
    def test_read_off(self, tmp_path):
        path = tmp_path / "tet.off"
        path.write_text(
            "OFF\n4 4 6\n"
            "0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
            "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n"
        )
        mesh = read_off(path)
        assert mesh.vertex_count == 4
        validate(mesh)

    def test_rejects_quads(self, tmp_path):
        path = tmp_path / "quad.off"
        path.write_text("OFF\n4 1 4\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
        with pytest.raises(FileFormatError):
            read_off(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "plain.off"
        path.write_text("4 4 6\n")
        with pytest.raises(FileFormatError):
            read_off(path)


def _sample_records(n=3):
    mesh = icosphere(2)
    cache = build_cache(mesh)
    state = initial_state(mesh, cache)
    config = FlowConfig(kappa_radii=(0.5, 1.0, 3.0))
    rows = []
    for k in range(n):
        row = record(state, cache, config)
        row.t = 0.25 * k  # synthetic times for the round trip
        rows.append(row)
    return rows


class TestTrajectoryCsv:
    def test_header_schema(self):
        header = csv_header([0.5, 1.0])
        assert header[:12] == [
            "t", "A", "V", "W", "Wbar", "gb_defect", "lambda", "L43",
            "L2A", "diam", "diam_bound", "isop_ratio",
        ]
        assert header[12:14] == ["kappa_0.5", "kappa_1.0"]
        assert header[14:] == [
            "scale_defect", "trans_defect", "min_quality", "li_yau",
        ]

    def test_round_trip(self, tmp_path):
        rows = _sample_records()
        path = tmp_path / "traj.csv"
        write_trajectory_csv(rows, path, comments=["provenance probe"])
        back, radii, comments = read_trajectory_csv(path)
        assert comments == ["provenance probe"]
        assert radii == [0.5, 1.0, 3.0]
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert a == b  # float fields survive exactly

    def test_field_count_mismatch(self, tmp_path):
        rows = _sample_records(1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(rows, path)
        lines = path.read_text().splitlines()
        lines.append(lines[-1] + ",0.0")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError):
            read_trajectory_csv(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(FileFormatError):
            read_trajectory_csv(path)

    def test_unexpected_columns(self, tmp_path):
        path = tmp_path / "weird.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FileFormatError):
            read_trajectory_csv(path)
