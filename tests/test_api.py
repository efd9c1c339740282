"""The public API: the names ``vpwf`` exports and the README example."""

import re
from pathlib import Path

import vpwf

PUBLIC = sorted("""
    TriMesh MeshTopologySummary validate GeometryCache build_cache
    lagrange_multiplier signed_volume wbar willmore
    FlowConfig FlowState QualityConfig StopRule Trajectory initial_state run
    step
    DiagnosticsRecord concentration concentration_radius diameter
    isoperimetric_ratio area_ratio record sphere_fit
    BlowupWindow RescaleSpec blowup_window rescale_mesh rescale_trajectory
    ellipsoid icosphere perturbed_sphere torus
""".split())


def test_all_holds_the_public_names():
    assert len(PUBLIC) == 34
    assert sorted(vpwf.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(vpwf, name), name


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) > 0.0
