"""Per-layer tracing from outside the program.

The tracer replaces public functions of the datareel modules with wrappers,
at the name their caller looks them up by, and restores them afterwards.
A span wrapper records name, start, end, parent span and compile id; a
counting wrapper only counts calls, for functions called so often that a
span each would swamp what it measures. Spans stay in memory until the run
writes them out.
"""

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

# (owner, attribute, layer, counts taken from the result).
# The owner is a module, or a module and a class joined by ":".
SPANS = (
    ("datareel.pipeline", "run_pipeline", "pipeline", None),
    ("datareel.pipeline", "validate_project", "pipeline.validate", None),
    ("datareel.ingest", "parse_csv", "ingest.parse_csv", None),
    ("datareel.ingest", "describe", "ingest.describe", lambda r: {"runtime.accepted": 1}),
    ("datareel.ingest", "extract_json", "runtime.extract_json", None),
    ("datareel.analyst", "extract_json", "runtime.extract_json", None),
    ("datareel.designer", "extract_json", "runtime.extract_json", None),
    ("datareel.analyst", "run_analyst", "analyst.run", None),
    ("datareel.analyst", "analyst_output_from_json", "analyst.run", None),
    ("datareel.analyst", "validate_visualization", "analyst.run", None),
    ("datareel.designer", "run_designer", "designer.run", None),
    ("datareel.designer", "designer_output_from_json", "designer.run", None),
    ("datareel.designer", "validate_animation_sequence", "designer.run", None),
    ("datareel.adapters", "render_visualization", "adapters.render", None),
    ("datareel.adapters:MockRenderer", "render", "adapters.render",
     lambda r: {"adapters.svg_bytes": len(r.encode("utf-8"))}),
    ("datareel.adapters", "parse_svg", "binding.parse_svg",
     lambda r: {"binding.svg_elements": len(r.elements)}),
    ("datareel.binding", "parse_svg", "binding.parse_svg",
     lambda r: {"binding.svg_elements": len(r.elements)}),
    ("datareel.adapters", "index_marks", "binding.index_marks", None),
    ("datareel.binding", "index_marks", "binding.index_marks", None),
    ("datareel.binding", "with_annotations", "binding.index_marks", None),
    ("datareel.binding", "diff_annotations", "binding.diff", None),
    ("datareel.binding", "resolve_targets", "binding.resolve", None),
    ("datareel.binding", "match_annotation_directives", "binding.match", None),
    ("datareel.adapters", "synthesize_speech", "adapters.tts", None),
    ("datareel.timeline", "locate_span", "timeline.compile",
     lambda r: {"timeline.locate_span_calls": 1}),
    ("datareel.timeline", "align_segments", "timeline.compile", None),
    ("datareel.timeline", "compile_timeline", "timeline.compile",
     lambda r: {"timeline.keyframes": sum(len(k) for k in r[0].tracks.values())}),
    ("datareel.adapters", "synthesize_video", "adapters.synth", None),
    ("datareel.adapters:MockSynth", "synthesize", "adapters.synth", None),
    ("datareel.adapters", "export_html", "adapters.html",
     lambda r: {"adapters.html_bytes": len(r.encode("utf-8"))}),
)

# (owner, attribute, counter): called per frame and element, or per reply.
COUNTERS = (
    ("datareel.adapters", "value_at", "adapters.value_at_calls"),
    ("datareel.designer", "locate_span", "timeline.locate_span_calls"),
    ("datareel.runtime:MockChatBackend", "send", "runtime.completions"),
)

# Counted only when the call returns: a reply the repair loop accepted.
ACCEPTING = (
    ("datareel.analyst", "repair_loop"),
    ("datareel.designer", "repair_loop"),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Collects spans and counts, keyed by the compile they belong to."""

    def __init__(self):
        self.compile_id = 0
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack = []  # [span id, child time] of the open spans

    def _span(self, layer: str, fn, counted):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)  # reserve the id; filled in on exit
            self._stack.append([span_id, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child_time = self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans[span_id] = {
                    "id": span_id, "parent": parent, "compile": self.compile_id,
                    "name": layer, "start": start, "end": end,
                    "self": end - start - child_time,
                }
            if counted is not None:
                for name, n in counted(result).items():
                    self.counts[self.compile_id][name] += n
            return result
        return wrapper

    def _counter(self, name: str, fn, on_return: bool):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not on_return:
                self.counts[self.compile_id][name] += 1
            result = fn(*args, **kwargs)
            if on_return:
                self.counts[self.compile_id][name] += 1
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        originals = []

        def patch(owner_path: str, attr: str, make) -> None:
            owner = _owner(owner_path)
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, make(original))

        try:
            for owner, attr, layer, counted in SPANS:
                patch(owner, attr, lambda fn: self._span(layer, fn, counted))
            for owner, attr, name in COUNTERS:
                patch(owner, attr, lambda fn: self._counter(name, fn, on_return=False))
            for owner, attr in ACCEPTING:
                patch(owner, attr, lambda fn: self._counter("runtime.accepted", fn,
                                                            on_return=True))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def self_times(self) -> dict:
        """{compile id: {layer: summed self seconds}}."""
        out = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            out[span["compile"]][span["name"]] += span["self"]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
