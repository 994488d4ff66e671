"""Growth gate: the work of one compile plus validate, counted as cProfile
calls, and each artifact's bytes grow no faster than the workload.

The workloads are the benchmark's grouped bar charts (perfbench/workloads.py)
with 4 channels and a label on every second row, generated from seed 1. Each
is compiled once to warm the caches and then once more, profiled, with the
validation of its project. Call counts do not depend on the machine's speed.
"""

import cProfile
import pstats
from pathlib import Path

import pytest

from datareel.pipeline import ProjectConfig, run_pipeline, validate_project
from test_pipeline import _perfbench_workloads

# How much more a 4x larger workload may cost.
MAX_GROWTH = 4.6

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def measure(tmp_path_factory):
    """measure(rows, sentences, export) -> (calls, {artifact: bytes}), each
    workload measured once per module. manifest.json, which holds the run's
    times, is left out."""
    workloads = _perfbench_workloads()
    measured = {}

    def measure(rows: int, sentences: int, export: str):
        key = rows, sentences, export
        if key not in measured:
            shape = workloads.Shape(categories=rows // 4, channels=4, overlay_rows=rows // 2,
                                    sentences=sentences, export=export,
                                    broken_first_reply=False)
            root = tmp_path_factory.mktemp(f"growth-{rows}-{sentences}-{export}")
            inputs = workloads.generate("synth-long", 1, root / "inputs", ROOT, shape=shape)
            run_pipeline(ProjectConfig.from_file(inputs.config, output_dir=str(root / "warm-up")))
            config = ProjectConfig.from_file(inputs.config, output_dir=str(root / "project"))
            profile = cProfile.Profile()
            profile.enable()
            try:
                run_pipeline(config)
                validate_project(config.output_dir)
            finally:
                profile.disable()
            sizes = {path.name: path.stat().st_size for path in (root / "project").iterdir()
                     if path.name != "manifest.json"}
            measured[key] = pstats.Stats(profile).total_calls, sizes
        return measured[key]

    return measure


def _growth(small, large) -> tuple[float, dict[str, float]]:
    """The growth in calls and in each artifact's bytes from small to large."""
    (calls, sizes), (large_calls, large_sizes) = small, large
    assert sizes.keys() == large_sizes.keys()
    return large_calls / calls, {name: large_sizes[name] / size for name, size in sizes.items()}


class TestGrowthInRows:
    """200 -> 800 rows at 6 sentences."""

    @pytest.mark.parametrize("export", ["html", "video"])
    def test_calls_and_bytes_grow_at_most_linearly(self, measure, export):
        calls, sizes = _growth(measure(200, 6, export), measure(800, 6, export))
        assert calls <= MAX_GROWTH
        assert {name: g for name, g in sizes.items() if g > MAX_GROWTH} == {}


class TestGrowthInSentences:
    """24 -> 96 sentences at 400 rows, html export. The video export's calls
    are not gated here: they grow 7.2x (6.6x since the per-class compile),
    for the cause below, and the 96-sentence video run alone would take
    longer than this whole gate."""

    def test_calls_grow_at_most_linearly(self, measure):
        # The per-element compile grew 4.9x, rebuilding every element's
        # kept groups for each ramp.
        calls, _ = _growth(measure(400, 24, "html"), measure(400, 96, "html"))
        assert calls <= MAX_GROWTH

    def test_bytes_but_the_html_grow_at_most_linearly(self, measure):
        _, sizes = _growth(measure(400, 24, "html"), measure(400, 96, "html"))
        assert {name: g for name, g in sizes.items()
                if g > MAX_GROWTH and name != "video.html"} == {}

    @pytest.mark.xfail(strict=True, reason=(
        "O(E^2) track content for E emphases: each highlighted class's opacity track "
        "holds every other highlight's dimming, and the HTML writes those tracks per "
        "class (8.2x); ROADMAP item 5's cue-ramp option would write each dimming once"))
    def test_html_bytes_grow_at_most_linearly(self, measure):
        _, sizes = _growth(measure(400, 24, "html"), measure(400, 96, "html"))
        assert sizes["video.html"] <= MAX_GROWTH
