"""The benchmark tracer patches module attributes by name; every one must exist.

`perfbench/tracing.py` wraps functions at the name their caller looks them up
by. Renaming or inlining one of them would make `perfbench/run.py --trace 1`
fail with a KeyError, so the hook table is checked here against the package.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooks():
    tracing = _tracing_module()
    return ([(owner, attr) for owner, attr, *_ in tracing.SPANS + tracing.COUNTERS]
            + [(owner, attr) for owner, attr in tracing.ACCEPTING])


@pytest.mark.parametrize("owner_path, attr", _hooks())
def test_traced_attribute_exists(owner_path, attr):
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    assert attr in owner.__dict__, f"{owner_path} has no attribute {attr!r}"


def test_every_traced_layer_records_a_span(mock_project_config):
    """A stock-demo compile plus validate must reach every layer the benchmark reports.

    A layer whose patched attribute is no longer called would silently read 0.
    The parse and index span counts pin that no rendering is read twice.
    """
    from datareel import pipeline

    tracing = _tracing_module()
    tracer = tracing.Tracer()
    with tracer.installed():
        config = mock_project_config(export="both")
        pipeline.run_pipeline(config)
        assert pipeline.validate_project(config.output_dir).passing
    recorded = {span["name"] for span in tracer.spans}
    assert sorted({layer for _, _, layer, _ in tracing.SPANS} - recorded) == []
    counts = tracer.counts[tracer.compile_id]
    assert counts["runtime.accepted"] == counts["runtime.completions"] == 3
    # each rendering is parsed and indexed once, `validate` reads base.svg once more,
    # and binding extends the annotated index once
    spans = Counter(span["name"] for span in tracer.spans)
    assert (spans["binding.parse_svg"], spans["binding.index_marks"]) == (3, 4)


def test_validate_spans(mock_project_config):
    """A validate-only call reaches each check through the patched names and
    reads each artifact once, so its span counts on the stock demo are fixed."""
    from datareel import pipeline

    config = mock_project_config(export="both")
    pipeline.run_pipeline(config)
    tracer = _tracing_module().Tracer()
    with tracer.installed():
        assert pipeline.validate_project(config.output_dir).passing
    # The designer locates its 6 animation and 4 annotation segments through
    # timeline.locate_segments: two traced locate_span calls each, its first
    # match and the search for a second (none lies behind the cursor).
    assert Counter(span["name"] for span in tracer.spans) == {
        "pipeline.validate": 1, "analyst.run": 2, "designer.run": 2,
        "binding.resolve": 6, "binding.parse_svg": 1, "binding.index_marks": 1,
        "timeline.compile": 20,
    }
