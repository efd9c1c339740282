import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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

from oracles import per_row_obj_text


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

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0\n")
        with pytest.raises(FileFormatError) as err:
            read_obj(path)
        assert ":2:" in str(err.value)

    def test_missing_geometry(self, tmp_path):
        path = tmp_path / "empty.obj"
        path.write_text("# nothing here\n")
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
