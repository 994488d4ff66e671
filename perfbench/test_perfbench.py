"""Self-test of the benchmark harness at tiny sizes.

Run with `python -m pytest perfbench`. Each workload's generator, one
compile and every output check run once, so the harness cannot rot
unnoticed. The tier-1 suite does not collect this file.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = {
    "synth-long": workloads.Shape(categories=6, channels=2, overlay_rows=3, sentences=3,
                                  export="video", broken_first_reply=False),
    "overlay-wide": workloads.Shape(categories=8, channels=2, overlay_rows=8, sentences=2,
                                    export="html", broken_first_reply=True),
}


def _loop(name: str, tmp_path: Path) -> run.Loop:
    inputs = workloads.generate(name, 7, tmp_path / "inputs", run.ROOT, TINY.get(name))
    return run.Loop(inputs, tmp_path / "out", run.VALIDATE_SHARE)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_compile_passes_every_check(name, tmp_path):
    loop = _loop(name, tmp_path)
    assert loop.compile_once() is not None
    assert loop.compile_once() is not None  # compared byte for byte with the first
    assert loop.failed == 0


def test_generator_is_deterministic(tmp_path):
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        workloads.generate("overlay-wide", seed, tmp_path / sub, run.ROOT, TINY["overlay-wide"])
    read = lambda sub: {p.name: p.read_text() for p in (tmp_path / sub).iterdir()
                        if p.name != "config.json"}
    assert read("a") == read("b")
    assert read("a") != read("c")


def test_frame_oracle_rejects_a_wrong_manifest(tmp_path):
    inputs = workloads.generate("synth-long", 7, tmp_path / "inputs", run.ROOT,
                                TINY["synth-long"])
    loop = run.Loop(inputs, tmp_path / "out")
    project = tmp_path / "project"
    config = loop.pipeline.ProjectConfig.from_file(inputs.config, output_dir=str(project))
    loop.pipeline.run_pipeline(config)
    assert checks.check_frames(project) == []

    path = project / "video_manifest.json"
    manifest = json.loads(path.read_text())
    manifest["frames"][0]["visible"] = manifest["frames"][0]["visible"][1:]
    path.write_text(json.dumps(manifest))
    assert checks.check_frames(project)


def test_traced_compile_accounts_for_its_time(tmp_path):
    inputs = workloads.generate("overlay-wide", 7, tmp_path / "inputs", run.ROOT,
                                TINY["overlay-wide"])
    loop = run.Loop(inputs, tmp_path / "out")
    tracer = Tracer()
    originals = {a: getattr(loop.pipeline, a) for a in ("run_pipeline", "validate_project")}
    with tracer.installed():
        sample = loop.compile_once(tracer)
    assert {a: getattr(loop.pipeline, a) for a in originals} == originals
    assert sample is not None
    layers = tracer.self_times()[sample["id"]]
    assert set(layers) <= set(run.LAYER_TIMES.values())
    covered = sum(layers.values())
    assert covered == pytest.approx(sample["compile_s"] + sum(sample["validate_s"]), rel=0.05)
    counts = tracer.counts[sample["id"]]
    assert counts["runtime.completions"] == 5 and counts["runtime.accepted"] == 3


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
