"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import os
import random
import time
from contextlib import contextmanager
import pytest

from datareel.analyst import parse_analyst_response
from datareel.binding import MarkEntry, MarkIndex, diff_annotations, parse_svg
from datareel.designer import parse_designer_response, validate_animation_sequence
from datareel.errors import ContractError, PipelineError, StageError
from datareel.ingest import load_template, parse_csv, parse_description_response
from datareel.model import (
    EMPHASIS_ANIMATIONS,
    AnimationDirective,
    IndexOutOfRange,
    UnknownAnimation,
    UnknownAnnotationType,
    UnknownInsightType,
    UnknownVisualizationType,
)
from datareel.pipeline import ProjectConfig, run_pipeline, validate_project
from datareel.runtime import SchemaError, extract_json
from datareel.timeline import (
    PlacedAnnotation,
    PlacedDirective,
    SegmentNotFound,
    Span,
    WordTiming,
    compile_timeline,
    locate_span,
    timeline_invariant_violations,
    value_at,
    visible_at,
)
from conftest import GOLDEN_DIR, STOCK_COMPANIES, TRANSCRIPTS
from helpers import brute_force_occurrences, inject_elements, random_svg, random_text


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.2f}s")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s budget"


# --- 1. prompt fidelity -----------------------------------------------------

def test_criterion_1_prompt_fidelity(stock_table):
    with criterion(1, "prompt fidelity", 1.0):
        for name in ("description_prompt.txt", "analyst_prompt.txt", "designer_prompt.txt"):
            golden = (GOLDEN_DIR / name).read_bytes()
            template_id = name.replace("_prompt.txt", "")
            assert load_template(template_id).encode("utf-8") == golden, name

        from datareel.analyst import build_analyst_prompt
        from datareel.designer import build_designer_prompt
        from datareel.ingest import build_description_prompt
        from datareel.model import DataDescription, VisualizationSpec

        description = DataDescription(text="Stock prices for four IT companies.")
        vis = VisualizationSpec(
            spec={"mark": "line", "encoding": {}, "data": {"values": [{"a": 1}]}},
            vis_type="line",
        )
        assert "Give a short and consistent description" in build_description_prompt(
            stock_table
        ).text
        assert build_analyst_prompt(description, stock_table).text.startswith(
            "You are a data analyst."
        )
        assert build_designer_prompt(vis, "Some narration.", stock_table).text.startswith(
            "You are a data video designer."
        )


# --- 2. contract parsing ----------------------------------------------------

def _analyst_reply(**overrides):
    payload = {
        "Insights": [{"insight": "Prices trend upward.", "type": ["Trend"]}],
        "Visualization": {"mark": "line", "encoding": {},
                          "data": {"values": [{"d": 1, "v": 2}]}},
        "Visualization_Type": "line",
        "Narration": "Prices rise steadily.",
    }
    payload.update(overrides)
    for key, value in list(payload.items()):
        if value is _DROP:
            del payload[key]
    return json.dumps(payload)


def _designer_reply(**overrides):
    payload = {
        "Annotated_Visualization": {"layer": [{"mark": "line", "encoding": {}}]},
        "Annotated_Narration_for_Animation": [{
            "animation": "Line-wipe-in", "narration": "Prices rise", "target": "line",
            "index": [0], "explanation": "entrance",
        }],
        "Annotated_Narration_for_Annotation": [],
    }
    payload.update(overrides)
    for key, value in list(payload.items()):
        if value is _DROP:
            del payload[key]
    return json.dumps(payload)


_DROP = object()


def test_criterion_2_contract_parsing():
    with criterion(2, "contract parsing", 5.0):
        table = parse_csv("d,v\n1,2\n3,4", "t")
        describe = parse_description_response
        analyze = lambda raw: parse_analyst_response(raw, table)
        design = lambda raw: parse_designer_response(raw, table)

        fixtures = [
            # description replies
            (describe, '{"Description": "Two rows of numbers."}', None),
            (describe, '```json\n{"Description": "fenced"}\n```', None),
            (describe, 'Sure! {"Description": "prose wrapped"} Hope that helps.', None),
            (describe, '{"description": "wrong case"}', SchemaError),
            (describe, '{"Summary": "wrong key"}', SchemaError),
            (describe, '{"Description": 42}', SchemaError),
            (describe, '{"Description": "  "}', SchemaError),
            (describe, 'no json at all', ContractError),
            # analyst replies
            (analyze, _analyst_reply(), None),
            (analyze, "```json\n" + _analyst_reply() + "\n```", None),
            (analyze, "Here are my findings. " + _analyst_reply() + " Done.", None),
            (analyze, _analyst_reply(Insights=_DROP), SchemaError),
            (analyze, _analyst_reply(Visualization=_DROP), SchemaError),
            (analyze, _analyst_reply(Visualization_Type=_DROP), SchemaError),
            (analyze, _analyst_reply(Narration=_DROP), SchemaError),
            (analyze, _analyst_reply(Visualization_Type="heatmap"), UnknownVisualizationType),
            (analyze, _analyst_reply(
                Insights=[{"insight": "x", "type": ["Correlation"]}]), UnknownInsightType),
            (analyze, _analyst_reply(Insights=[]), SchemaError),
            (analyze, _analyst_reply(Insights=[{"insight": "x", "type": []}]), SchemaError),
            (analyze, _analyst_reply(Insights={"not": "a list"}), SchemaError),
            (analyze, _analyst_reply(Narration=""), SchemaError),
            (analyze, _analyst_reply(Visualization="not an object"), SchemaError),
            # designer replies
            (design, _designer_reply(), None),
            (design, "```json\n" + _designer_reply() + "\n```", None),
            (design, "Of course. " + _designer_reply(), None),
            (design, _designer_reply(Annotated_Visualization=_DROP), SchemaError),
            (design, _designer_reply(Annotated_Narration_for_Animation=_DROP), SchemaError),
            (design, _designer_reply(Annotated_Narration_for_Annotation=_DROP), SchemaError),
            (design, _designer_reply(Annotated_Narration_for_Animation=[{
                "animation": "Slide-in", "narration": "x", "target": "t",
                "index": [], "explanation": "e"}]), UnknownAnimation),
            (design, _designer_reply(Annotated_Narration_for_Annotation=[{
                "type": ["banner"], "description": "d", "index": [], "nar": "n",
            }]), UnknownAnnotationType),
            (design, _designer_reply(Annotated_Narration_for_Annotation=[
                {"type": []},
                {"type": ["text"], "description": "d", "index": [1], "nar": "Prices"},
            ]), None),
            (design, _designer_reply(Annotated_Narration_for_Animation=[{
                "animation": "Fade-in", "narration": "x", "target": "t",
                "index": [99], "explanation": "e"}]), IndexOutOfRange),
            (design, _designer_reply(Annotated_Narration_for_Animation=[{
                "animation": "Fade-in", "narration": "x", "target": "t",
                "index": [0]}]), SchemaError),
        ]
        assert len(fixtures) >= 30
        for parser, raw, expected in fixtures:
            if expected is None:
                parser(raw)
            else:
                with pytest.raises(expected):
                    parser(raw)

        # extract_json against the reference JSON parser on a fuzz corpus
        rng = random.Random(2024)

        def random_value(depth=0):
            kinds = ["int", "str", "bool", "null", "float"]
            if depth < 3:
                kinds += ["list", "dict", "dict"]
            kind = rng.choice(kinds)
            if kind == "int":
                return rng.randint(-999999, 999999)
            if kind == "float":
                return round(rng.uniform(-1000, 1000), 6)
            if kind == "str":
                return "".join(rng.choice('ab{}[]"\\,: \n') for _ in range(rng.randint(0, 15)))
            if kind == "bool":
                return rng.random() < 0.5
            if kind == "null":
                return None
            if kind == "list":
                return [random_value(depth + 1) for _ in range(rng.randint(0, 5))]
            return {f"k{i}": random_value(depth + 1) for i in range(rng.randint(0, 5))}

        wrappers = [
            "{payload}",
            "```json\n{payload}\n```",
            "Sure thing!\n{payload}\nAnything else?",
            "Notes first ... then ```\n{payload}\n``` done",
            "prefix text {payload}",
        ]
        for i in range(50):
            value = random_value()
            if not isinstance(value, (dict, list)):
                value = [value]
            payload = json.dumps(value)
            wrapped = wrappers[i % len(wrappers)].format(payload=payload)
            assert extract_json(wrapped) == json.loads(payload)


# --- 3. animation legality --------------------------------------------------

_VOCAB = ("alpha", "bravo", "delta", "echo", "focus", "grow", "hold", "lift")


def _legality_scenario(rng: random.Random):
    """A clean directive set over a generated narration, plus mutation recipes."""
    n_sentences = rng.randint(4, 7)
    sentences = []
    for _ in range(n_sentences):
        words = [rng.choice(_VOCAB) for _ in range(rng.randint(3, 6))]
        sentences.append(" ".join(words) + ".")
    narration = " ".join(sentences)

    n_targets = rng.randint(2, 3)
    rows = {t: (t * 10, t * 10 + 1) for t in range(n_targets)}
    directives = [AnimationDirective(
        animation="Axes-fade-in", narration=sentences[0], target="the axes", index=(),
    )]
    plan = {}
    for t in range(n_targets):
        entrance_at = rng.randint(1, n_sentences - 3)
        emphasis_at = rng.randint(entrance_at, n_sentences - 2)
        exit_at = rng.randint(emphasis_at, n_sentences - 2)
        plan[t] = (entrance_at, emphasis_at, exit_at)
        directives.append(AnimationDirective(
            animation=rng.choice(("Fade-in", "Line-wipe-in", "Float-in")),
            narration=sentences[entrance_at], target=f"series {t}", index=rows[t],
        ))
        directives.append(AnimationDirective(
            animation=rng.choice(("Bar-bounce", "Shine-in-a-short-duration",
                                  "Highlight-one-and-fade-others")),
            narration=sentences[emphasis_at], target=f"series {t}", index=rows[t],
        ))
        if rng.random() < 0.5:
            directives.append(AnimationDirective(
                animation="Fade-out", narration=sentences[exit_at],
                target=f"series {t}", index=rows[t],
            ))
    return narration, sentences, directives, plan, rows


def test_criterion_3_animation_legality():
    with criterion(3, "animation legality", 5.0):
        rng = random.Random(31337)
        cases_per_class = {"axes-first-sentence": 0, "appear-before-emphasis": 0,
                           "emphasis-after-exit": 0, "segment-unlocatable": 0}
        clean_checked = 0

        while min(cases_per_class.values()) < 20 or clean_checked < 20:
            narration, sentences, directives, plan, rows = _legality_scenario(rng)
            report = validate_animation_sequence(directives, narration)
            assert report.passing, [str(v) for v in report.violations]
            clean_checked += 1

            # (a) Axes-fade-in outside the first sentence
            mutated = list(directives)
            mutated[0] = AnimationDirective(
                animation="Axes-fade-in", narration=sentences[rng.randint(1, len(sentences) - 1)],
                target="the axes", index=(),
            )
            codes = {v.code for v in validate_animation_sequence(mutated, narration).violations}
            assert codes == {"axes-first-sentence"}, codes
            cases_per_class["axes-first-sentence"] += 1

            # (b) emphasis placed before its target's entrance
            target = rng.choice(list(plan))
            entrance_at, _, _ = plan[target]
            mutated = list(directives) + [AnimationDirective(
                animation="Bar-bounce", narration=sentences[entrance_at - 1],
                target=f"series {target}", index=rows[target],
            )]
            codes = {v.code for v in validate_animation_sequence(mutated, narration).violations}
            assert codes == {"appear-before-emphasis"}, codes
            cases_per_class["appear-before-emphasis"] += 1

            # (c) emphasis after the target's exit ends
            target = rng.choice(list(plan))
            entrance_at, _, exit_at = plan[target]
            with_exit = [d for d in directives
                         if not (d.animation == "Fade-out" and d.index == rows[target])]
            with_exit.append(AnimationDirective(
                animation="Fade-out", narration=sentences[exit_at],
                target=f"series {target}", index=rows[target],
            ))
            with_exit.append(AnimationDirective(
                animation="Zoom-in-then-zoom-out", narration=sentences[exit_at + 1],
                target=f"series {target}", index=rows[target],
            ))
            codes = {v.code for v in validate_animation_sequence(with_exit, narration).violations}
            assert codes == {"emphasis-after-exit"}, codes
            cases_per_class["emphasis-after-exit"] += 1

            # (d) non-verbatim narration segment
            victim = rng.randrange(len(directives))
            broken_text = directives[victim].narration.replace(
                directives[victim].narration.split()[0], "zzqx", 1
            )
            mutated = list(directives)
            mutated[victim] = AnimationDirective(
                animation=directives[victim].animation, narration=broken_text,
                target=directives[victim].target, index=directives[victim].index,
            )
            codes = {v.code for v in validate_animation_sequence(mutated, narration).violations}
            assert codes == {"segment-unlocatable"}, codes
            cases_per_class["segment-unlocatable"] += 1

        assert all(count >= 20 for count in cases_per_class.values())
        assert clean_checked >= 20


# --- 4. segment location and alignment --------------------------------------

def _mock_timings(narration: str) -> list[WordTiming]:
    import re
    return [
        WordTiming(m.group(), round(i * 0.3, 9), round((i + 1) * 0.3, 9),
                   Span(m.start(), m.end()))
        for i, m in enumerate(re.finditer(r"\S+", narration))
    ]


def test_criterion_4_segment_location_and_alignment():
    with criterion(4, "segment location and alignment", 5.0):
        rng = random.Random(404)
        for _ in range(1000):
            narration = random_text(rng, rng.randint(2, 25), alphabet="ab \t")
            if not narration.strip():
                continue
            if rng.random() < 0.7 and len(narration) > 3:
                lo = rng.randrange(len(narration) - 1)
                hi = rng.randrange(lo + 1, len(narration) + 1)
                segment = narration[lo:hi]
            else:
                segment = random_text(rng, rng.randint(1, 4), alphabet="ab")
            if not segment:
                continue
            cursor = rng.randrange(0, len(narration) + 1)
            expected = [occ for occ in brute_force_occurrences(narration, segment)
                        if occ[0] >= cursor]
            try:
                got = locate_span(narration, segment, cursor)
            except SegmentNotFound:
                assert expected == [], (narration, segment, cursor)
            else:
                assert (got.start_char, got.end_char) == expected[0], (
                    narration, segment, cursor)

        # ten hand-computed alignment fixtures at 0.3 s/word, exact comparison
        narration = "w0 w1 w2 w3 w4 w5 w6 w7 w8 w9"
        timings = _mock_timings(narration)
        fixtures = [
            (Span(0, 2), (0.0, 0.3)),        # exactly w0
            (Span(0, 29), (0.0, 3.0)),       # whole narration
            (Span(9, 17), (0.9, 1.8)),       # words 3..5
            (Span(3, 5), (0.3, 0.6)),        # exactly w1
            (Span(4, 10), (0.3, 1.2)),       # partial w1 through partial w3
            (Span(27, 29), (2.7, 3.0)),      # last word
            (Span(12, 14), (1.2, 1.5)),      # w4 only
            (Span(0, 5), (0.0, 0.6)),        # w0..w1
            (Span(15, 26), (1.5, 2.7)),      # w5..w8
            (Span(21, 23), (2.1, 2.4)),      # w7 only
        ]
        from datareel.timeline import align_segments
        for span, expected_interval in fixtures:
            assert align_segments([span], timings) == [expected_interval]


# --- 5. annotation diff -----------------------------------------------------

def test_criterion_5_annotation_diff():
    with criterion(5, "annotation diff", 5.0):
        rng = random.Random(505)
        for _ in range(100):
            text = random_svg(rng)
            assert diff_annotations(parse_svg(text), parse_svg(text)) == []

        for _ in range(60):
            text = random_svg(rng)
            k = rng.randint(1, 10)
            injected_text, markers = inject_elements(rng, text, k)
            base, annotated = parse_svg(text), parse_svg(injected_text)
            extras = diff_annotations(base, annotated)
            assert len(extras) == k
            found_markers = {annotated.by_id[eid].attrs.get("data-marker") for eid in extras}
            assert found_markers == set(markers)

        for _ in range(40):
            text = random_svg(rng)
            doc = parse_svg(text)
            top = list(doc.root.children)
            rng.shuffle(top)
            doc.root.children = tuple(top)
            permuted = parse_svg(doc.to_text())
            assert diff_annotations(parse_svg(text), permuted) == []


# --- 6. timeline invariants -------------------------------------------------

def _random_scenario(rng: random.Random):
    n_words = rng.randint(12, 40)
    narration = random_text(rng, n_words, alphabet="abcdef")
    timings = _mock_timings(narration)
    duration = round(n_words * 0.3, 9)

    n_marks = rng.randint(3, 8)
    entries = {f"m{i}": MarkEntry(frozenset({"mark"}), frozenset({i})) for i in range(n_marks)}
    if rng.random() < 0.5:
        entries["legend"] = MarkEntry(frozenset({"legend"}), frozenset())
    for i in range(rng.randint(0, 2)):
        entries[f"ax{i}"] = MarkEntry(frozenset({"axis"}), frozenset())
    ann_ids = [f"a{i}" for i in range(rng.randint(0, 3))]
    for eid in ann_ids:
        entries[eid] = MarkEntry(frozenset({"annotation"}), frozenset())
    index = MarkIndex(entries=entries)

    # non-overlapping word ranges -> segment intervals
    n_segments = rng.randint(2, min(6, n_words // 2))
    cuts = sorted(rng.sample(range(n_words + 1), n_segments * 2))
    word_ranges = [(cuts[2 * i], max(cuts[2 * i + 1], cuts[2 * i] + 1))
                   for i in range(n_segments)]
    intervals = [(timings[a].start, timings[min(b, n_words) - 1].end)
                 for a, b in word_ranges]

    mark_ids = [f"m{i}" for i in range(n_marks)]
    rng.shuffle(mark_ids)
    placed = []
    entrance_targets: list[str] = []
    emphasis_specs = []
    exit_targets: list[str] = []

    for seg_i, interval in enumerate(intervals):
        position = seg_i / max(1, len(intervals) - 1)
        if seg_i == 0 or (position < 0.4 and mark_ids):
            take = frozenset(mark_ids[: rng.randint(1, max(1, len(mark_ids) // 2))])
            mark_ids = [m for m in mark_ids if m not in take]
            name = rng.choice(("Fade-in", "Line-wipe-in", "Bar-grow-in", "Zoom-in",
                               "Float-in", "Fly-in"))
            placed.append(PlacedDirective(name, take, interval))
            entrance_targets.extend(take)
        elif seg_i == len(intervals) - 1 and entrance_targets and rng.random() < 0.5:
            victims = frozenset(rng.sample(entrance_targets,
                                           rng.randint(1, len(entrance_targets))))
            placed.append(PlacedDirective("Fade-out", victims, interval))
            exit_targets.extend(victims)
        else:
            name = rng.choice(EMPHASIS_ANIMATIONS)
            pool = entrance_targets or [f"m{i}" for i in range(n_marks)]
            take = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
            placed.append(PlacedDirective(name, take, interval))
            emphasis_specs.append((name, take, interval))

    placed_annotations = []
    if ann_ids and len(intervals) > 1:
        placed_annotations.append(PlacedAnnotation(tuple(ann_ids), intervals[-1]))

    return (narration, duration, index, placed, placed_annotations,
            entrance_targets, emphasis_specs, exit_targets)


def test_criterion_6_timeline_invariants():
    with criterion(6, "timeline invariants", 10.0):
        rng = random.Random(606)
        for _ in range(200):
            (narration, duration, index, placed, placed_annotations,
             entrance_targets, emphasis_specs, exit_targets) = _random_scenario(rng)
            timeline, _ = compile_timeline(placed, placed_annotations, index, duration)

            assert timeline.duration == duration  # equals mock audio duration exactly
            assert timeline_invariant_violations(timeline) == []
            for kfs in timeline.tracks.values():
                for kf in kfs:
                    assert 0.0 <= kf.time <= duration

            for directive in placed:
                if directive.animation == "Fade-out":
                    end = directive.interval[1]
                    probe = min(end + 0.01, duration)
                    for eid in directive.target_ids:
                        assert not visible_at(timeline, eid, probe)
                elif directive.animation in EMPHASIS_ANIMATIONS:
                    start, end = directive.interval
                    if directive.animation == "Highlight-one-and-fade-others":
                        affected = index.mark_ids() - directive.target_ids
                        prop = "opacity"
                    elif directive.animation == "Shine-in-a-short-duration":
                        affected, prop = directive.target_ids, "opacity"
                    else:
                        affected, prop = directive.target_ids, "scale"
                    for eid in affected:
                        assert value_at(timeline, eid, prop, start) == value_at(
                            timeline, eid, prop, end
                        )
                else:  # entrance
                    start = directive.interval[0]
                    for eid in directive.target_ids:
                        assert timeline.initial_visibility[eid] == "hidden"
                        if start > 0:
                            assert not visible_at(timeline, eid, start - 0.01)


# --- 7. end-to-end mock reproduction ----------------------------------------

def test_criterion_7_end_to_end_mock(tmp_path, stock_csv_path):
    with criterion(7, "end-to-end mock reproduction", 10.0):
        def build(out_dir):
            return ProjectConfig(
                input_csv=str(stock_csv_path),
                output_dir=str(out_dir),
                title="Weekly Stock Prices of Four IT Companies",
                mock_mode=True,
                transcripts=dict(TRANSCRIPTS),
                export="both",
            )

        manifest = run_pipeline(build(tmp_path / "one"))
        assert all(s["status"] == "ok" for s in manifest.stages)
        out = tmp_path / "one"

        analyst_payload = json.loads((out / "analyst.json").read_text())
        assert analyst_payload["Visualization_Type"] == "line"

        bindings = json.loads((out / "bindings.json").read_text())
        series_to_id = {
            entry["series_key"]: entry["id"]
            for entry in bindings["mark_index"]
            if "mark" in entry["roles"]
        }
        assert set(series_to_id) == set(STOCK_COMPANIES)  # 4-series line chart

        # each company: at least one emphasis directive resolved to exactly its series
        emphasis_intervals = {}
        designer_payload = json.loads((out / "designer.json").read_text())
        for company in STOCK_COMPANIES:
            hits = [
                entry for entry in bindings["resolved_targets"]
                if entry["animation"] in EMPHASIS_ANIMATIONS
                and entry["ids"] == [series_to_id[company]]
            ]
            assert hits, company
            emphasis_intervals[company] = hits[0]["narration"]

        # annotation diff detects the scripted point+text annotations
        annotated = parse_svg((out / "annotated.svg").read_text())
        tags = sorted(annotated.by_id[eid].tag for eid in bindings["annotation_ids"])
        assert tags == ["circle"] * 4 + ["text"] * 4

        # dimming of the other lines happens only inside each emphasis interval
        timings = json.loads((out / "word_timings.json").read_text())
        words = timings["words"]

        def interval_for(segment: str) -> tuple[float, float]:
            narration = analyst_payload["Narration"]
            start_char = narration.index(segment)
            end_char = start_char + len(segment)
            covered = [w for w in words
                       if w["char_start"] < end_char and start_char < w["char_end"]]
            return covered[0]["start"], covered[-1]["end"]

        intervals = {c: interval_for(seg) for c, seg in emphasis_intervals.items()}
        video = json.loads((out / "video_manifest.json").read_text())
        path_ids = set(series_to_id.values())
        for frame in video["frames"]:
            t = frame["time"]
            dimmed_paths = {eid for eid, v in frame["opacity"].items()
                            if eid in path_ids and v < 1.0}
            inside_any = any(a <= t <= b for a, b in intervals.values())
            if not inside_any:
                assert not dimmed_paths, (t, dimmed_paths)
        for company, (a, b) in intervals.items():
            midpoint_frame = video["frames"][int((a + b) / 2 * video["fps"])]
            others = path_ids - {series_to_id[company]}
            assert others <= set(midpoint_frame["opacity"]), company
            assert series_to_id[company] not in midpoint_frame["opacity"]

        # deterministic across re-runs: byte-identical artifacts
        run_pipeline(build(tmp_path / "two"))
        for path in sorted(out.iterdir()):
            if path.name == "manifest.json":
                continue
            assert (tmp_path / "two" / path.name).read_bytes() == path.read_bytes(), path.name


# --- 8. live-backend smoke (optional) ----------------------------------------

LIVE_ENDPOINT = os.environ.get("DATAREEL_SMOKE_ENDPOINT")
LIVE_MODEL = os.environ.get("DATAREEL_SMOKE_MODEL", "gpt-4")
LIVE_KEY_ENV = os.environ.get("DATAREEL_SMOKE_KEY_ENV", "DATAREEL_API_KEY")


@pytest.mark.skipif(
    not LIVE_ENDPOINT or not os.environ.get(LIVE_KEY_ENV or "", ""),
    reason="live smoke needs DATAREEL_SMOKE_ENDPOINT and the configured key env",
)
def test_criterion_8_live_backend_smoke(tmp_path, stock_csv_path):
    from datareel.runtime import BackendConfig

    with criterion(8, "live-backend smoke", 600.0):
        config = ProjectConfig(
            input_csv=str(stock_csv_path),
            output_dir=str(tmp_path / "live"),
            title="Weekly Stock Prices of Four IT Companies",
            mock_mode=False,
            backend=BackendConfig(
                endpoint=LIVE_ENDPOINT, model_name=LIVE_MODEL,
                api_key_env=LIVE_KEY_ENV, temperature=0.0,
            ),
            export="both",
        )
        try:
            run_pipeline(config)
        except StageError as e:
            # agent-contract failures are an acceptable outcome; crashes are not
            assert isinstance(e.cause, PipelineError), e.cause
        report = validate_project(tmp_path / "live")
        assert report.passing, [str(v) for v in report.violations]
