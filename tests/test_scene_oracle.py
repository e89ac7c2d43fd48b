"""The lean scene generator returns the reference's bytes, in bounded memory.

``generate_scene`` draws color jitter ``_COLOR_CHUNK`` rows at a time and
releases each part once it is no longer needed. ``generating.py`` keeps the
generator as first written, whole arrays at a time, as the oracle: both
must return the same bytes for generated scenarios and on every chunk seam,
and the lean one must peak under a fixed multiple of its output's size.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from generating import reference_scene
from laserberry.scenario import (BerrySpec, ColorSettings, PaletteSpec, Scenario,
                                 bundled_scenario_path, load_scenario)
from laserberry.scene import _COLOR_CHUNK, generate_scene

C = _COLOR_CHUNK


def _arrays(scene):
    """Every array a scene returns, by name."""
    cloud1, cloud2, truth = scene
    return {"cloud1.xyz": cloud1.xyz, "cloud1.rgb": cloud1.rgb,
            "cloud2.xyz": cloud2.xyz, "cloud2.rgb": cloud2.rgb,
            **{f"truth.{f.name}": getattr(truth, f.name) for f in dataclasses.fields(truth)}}


def assert_same_scene(scenario):
    got, want = generate_scene(scenario), reference_scene(scenario)
    assert (got[0].frame, got[1].frame) == (want[0].frame, want[1].frame)
    for (name, a), b in zip(_arrays(got).items(), _arrays(want).values(), strict=True):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


@pytest.fixture(scope="module")
def demo():
    return load_scenario(bundled_scenario_path("demo_11"))


@pytest.mark.parametrize("name", ["demo_11", "demo_overreach", "perf_300k"])
def test_bundled_scenes_equal_the_reference(name):
    assert_same_scene(load_scenario(bundled_scenario_path(name)))


def test_the_camera_split_needs_no_einsum(demo, monkeypatch):
    # einsum's kernel rounds a three-term dot product by CPU features and
    # memory layout: both generators sum each facing left to right instead
    def refuse(*args, **kwargs):
        raise AssertionError("np.einsum called")

    monkeypatch.setattr(np, "einsum", refuse)
    assert_same_scene(demo)


@pytest.mark.parametrize("foliage", [0, 1, C - 1, C, C + 1, 2 * C + 1])
def test_foliage_counts_on_chunk_seams(demo, foliage):
    assert_same_scene(dataclasses.replace(demo, foliage_points=foliage))


@pytest.mark.parametrize("points", [C - 1, C, C + 1])
def test_palette_and_berry_counts_across_a_chunk(demo, points):
    assert_same_scene(dataclasses.replace(
        demo, berries=demo.berries[:2], berry_points=points,
        palette=dataclasses.replace(demo.palette, points=points)))


@st.composite
def scenarios(draw):
    coord = st.floats(-0.2, 0.2)
    berries = tuple(
        BerrySpec(center=(draw(coord), draw(coord), draw(st.floats(0.5, 0.65))),
                  diameter_m=draw(st.floats(0.01, 0.04)),
                  stem_diameter_mm=draw(st.none() | st.floats(1.0, 3.0)),
                  toughness=draw(st.none() | st.floats(0.5, 2.0)))
        for _ in range(draw(st.integers(0, 4))))
    channel = st.integers(0, 255)
    colors = ColorSettings(
        berry_base=(draw(channel), draw(channel), draw(channel)),
        berry_jitter=draw(channel),
        foliage_base=(draw(channel), draw(channel), draw(channel)),
        foliage_jitter=draw(channel), palette_jitter=draw(channel))
    return Scenario(seed=draw(st.integers(0, 2 ** 32 - 1)), berries=berries,
                    palette=PaletteSpec(points=draw(st.integers(1, 300))),
                    berry_points=draw(st.integers(1, 300)),
                    foliage_points=draw(st.integers(0, 2 * C + 2)), colors=colors)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(scenarios())
def test_generated_scenes_equal_the_reference(scenario):
    assert_same_scene(scenario)


def test_perf_scene_peaks_under_2_2_times_its_output():
    """Foliage positions plus the outputs, not three int64 color arrays and
    a copy of every part per camera."""
    scenario = load_scenario(bundled_scenario_path("perf_300k"))
    tracemalloc.start()
    try:
        scene = generate_scene(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(a.nbytes for a in _arrays(scene).values())
    assert peak <= 2.2 * output, f"peak {peak / 1e6:.1f} MB for {output / 1e6:.1f} MB out"


@pytest.mark.parametrize("berries, points", [(12, C // 3 - 1), (12, C // 3), (12, C // 3 + 1),
                                             (1, C + 1)])
def test_berry_counts_on_group_seams(demo, berries, points):
    """Berries are shaped in groups of ``C // points`` whole berries: three, three
    and two a group around ``C // 3``, and one berry of more than a chunk alone."""
    specs = (demo.berries * 2)[:berries]
    assert_same_scene(dataclasses.replace(demo, berries=specs, berry_points=points))


def test_large_berries_peak_under_1_7_times_their_output(demo):
    """Each group's working arrays die with the group (here one berry of twenty
    thousand points), so they never pile up on the parts built so far."""
    scenario = dataclasses.replace(demo, berry_points=20000)
    tracemalloc.start()
    try:
        scene = generate_scene(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(a.nbytes for a in _arrays(scene).values())
    assert peak <= 1.7 * output, f"peak {peak / 1e6:.1f} MB for {output / 1e6:.1f} MB out"
