import json
import math
import random
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from datareel import timeline as timeline_module
from datareel.adapters import MockSynth, export_html
from datareel.binding import MarkEntry, MarkIndex
from datareel.errors import PreconditionError
from datareel.designer import validate_animation_sequence, validate_designer_output
from datareel.model import (
    ANIMATIONS,
    AnimationDirective,
    AnnotationDirective,
    DesignerOutput,
    classify_animation,
    dump_artifact,
)
from datareel.timeline import (
    EASINGS,
    PROPERTIES,
    Keyframe,
    KeyframeEvaluator,
    NoWordOverlap,
    PlacedDirective,
    SegmentNotFound,
    TimedWord,
    Timeline,
    align_segments,
    compile_timeline,
    first_sentence_end,
    keyframes_for,
    locate_segments,
    locate_span,
    place,
    timeline_invariant_violations,
    value_at,
    word_tokens,
)
from helpers import (
    WS_ALPHABET,
    brute_force_occurrences,
    expand_changes,
    parse_html_rules,
    random_text,
    reference_align_segments,
    reference_dump_artifact,
    reference_html_rules,
    reference_value_at,
    reference_visible_at,
)


def mock_timings(narration: str, spw: float = 0.3) -> list[TimedWord]:
    import re
    return [
        {"word": m.group(), "start": round(i * spw, 9), "end": round((i + 1) * spw, 9),
         "char_start": m.start(), "char_end": m.end()}
        for i, m in enumerate(re.finditer(r"\S+", narration))
    ]


class TestLocateSpan:
    def test_first_occurrence(self):
        assert locate_span("A B A", "A", 0) == (0, 1)

    def test_cursor_advances(self):
        assert locate_span("A B A", "A", 1) == (4, 5)

    def test_not_found(self):
        assert locate_span("A B A", "Z", 0) is None

    def test_whitespace_runs_collapse(self):
        narration = "alpha   beta\tgamma"
        assert locate_span(narration, "alpha beta", 0) == (0, 12)
        assert locate_span(narration, "beta \t gamma", 0) == (8, 18)

    def test_empty_segment_rejected(self):
        with pytest.raises(PreconditionError):
            locate_span("abc", "", 0)

    def test_matches_brute_force_oracle_randomized(self):
        rng = random.Random(42)
        checked = 0
        for _ in range(400):
            narration = random_text(rng, rng.randint(2, 20), alphabet="ab" + WS_ALPHABET)
            if rng.random() < 0.7 and len(narration) > 3:
                lo = rng.randrange(len(narration) - 1)
                hi = rng.randrange(lo + 1, len(narration) + 1)
                segment = narration[lo:hi]
            else:
                segment = random_text(rng, rng.randint(1, 3), alphabet="ab")
            if not segment:
                continue
            cursor = rng.randrange(0, len(narration) + 1)
            expected = [occ for occ in brute_force_occurrences(narration, segment)
                        if occ[0] >= cursor]
            got = locate_span(narration, segment, cursor)
            assert got == (expected[0] if expected else None), (narration, segment, cursor)
            checked += 1
        assert checked >= 300


class TestAdvancingCursor:
    def test_spans_monotone_with_advancing_cursor(self):
        rng = random.Random(17)
        for _ in range(50):
            narration = random_text(rng, rng.randint(6, 30), alphabet="ab")
            timings = mock_timings(narration)
            tokens = narration.split()
            segments = [rng.choice(tokens) for _ in range(rng.randint(2, 6))]
            spans, cursor = [], 0
            for segment in segments:
                spans.append(locate_span(narration, segment, cursor))
                if spans[-1] is None:
                    break
                cursor = spans[-1][0]
            if spans[-1] is None:
                continue
            starts = [s[0] for s in spans]
            assert starts == sorted(starts)
            intervals = align_segments(spans, timings)
            interval_starts = [a for a, _ in intervals]
            assert interval_starts == sorted(interval_starts)


# Sentences of two words each; a narration of four or more repeats one.
SENTENCES = ("Prices rise.", "Costs fall.", "Sales hold.")


@st.composite
def spoken_cues(draw):
    """(narration, sentence texts, cue lists): a narration of 1-6 sentences
    from SENTENCES, an animation cue list and an annotation cue list, each
    cue (animation, row, sentence). Each list is in narration order, and each
    cue is on the first occurrence of its text from the previous cue's
    sentence on (from the first sentence for a list's first cue): a cue on a
    later occurrence has a cue on another sentence between them."""
    texts = draw(st.lists(st.sampled_from(SENTENCES), min_size=1, max_size=6))

    def cues(min_size):
        drawn, previous = [], 0
        for _ in range(draw(st.integers(min_size, 5))):
            reachable = [s for s in range(previous, len(texts))
                         if texts[s] not in texts[previous:s]]
            previous = draw(st.sampled_from(reachable))
            drawn.append((draw(st.sampled_from(("Fade-in", "Fade-out", "Bar-bounce"))),
                          draw(st.integers(0, 1)), previous))
        return drawn

    return " ".join(texts), texts, cues(1), cues(0)


class TestSegmentPlacement:
    """locate_segments is the one placement rule, shared by the designer and
    place: each segment is searched from the previous located segment's
    start, and with no match there it takes its first match."""

    NARRATION = "Prices rise. Costs fall. Prices rise."

    def test_repeated_sentence_animates_where_it_is_spoken(self):
        directives = [AnimationDirective("Fade-in", "Prices rise.", "A", (0,)),
                      AnimationDirective("Fade-in", "Costs fall.", "B", (1,)),
                      AnimationDirective("Bar-bounce", "Prices rise.", "B", (1,))]
        cues = place(self.NARRATION, mock_timings(self.NARRATION),
                     [(d, frozenset(d.target)) for d in directives], [])
        assert [(c.animation, c.target_ids, c.interval) for c in cues] == [
            ("Fade-in", frozenset("A"), (0.0, 0.6)), ("Fade-in", frozenset("B"), (0.6, 1.2)),
            ("Bar-bounce", frozenset("B"), (1.2, 1.8))]

    def test_segments_of_one_sentence_share_it(self):
        spans, repeated = locate_segments(self.NARRATION,
                                          ["Costs fall.", "Costs fall.", "Prices rise."])
        assert spans == [(13, 24), (13, 24), (25, 37)]
        assert repeated == [2]

    def test_no_match_from_the_cursor_falls_back_to_the_first(self):
        spans, repeated = locate_segments(
            self.NARRATION, ["Prices rise.", "Costs fall.", "Prices rise.", "Costs fall.",
                             "Gone.", "Prices  rise."])
        assert spans == [(0, 12), (13, 24), (25, 37), (13, 24), None, (25, 37)]
        assert repeated == [0, 2, 5]

    def test_a_whitespace_run_is_one_occurrence(self):
        # " rise." also matches from inside the run before "rise."
        assert locate_segments("Prices   rise. Costs fall.", [" rise."]) == ([(6, 14)], [])

    def test_place_rejects_an_unlocatable_segment(self):
        fade = AnimationDirective("Fade-in", "Gone.", "A", (0,))
        with pytest.raises(SegmentNotFound):
            place(self.NARRATION, mock_timings(self.NARRATION), [(fade, frozenset("A"))], [])

    @given(spoken_cues(), st.lists(st.booleans(), min_size=5, max_size=5))
    def test_every_cue_lands_where_it_is_spoken(self, drawn, labelled):
        """Every cue is timed by its drawn sentence; the designer locates each
        list as place does, and flags each segment whose text repeats."""
        narration, texts, animation_cues, annotation_cues = drawn
        words = mock_timings(narration)
        directives = [AnimationDirective(name, texts[s], f"row {row}", (row,))
                      for name, row, s in animation_cues]
        annotations = [AnnotationDirective(("text",), "", (0,), texts[s])
                       for _, _, s in annotation_cues]
        spoken = {f"m{k}": s for k, (_, _, s) in enumerate(animation_cues)}
        spoken.update((f"a{k}", s) for k, (_, _, s) in enumerate(annotation_cues)
                      if labelled[k])
        calls = {"place": [], "designer": []}

        def recording(caller):
            def locate(narration, segments):
                result = locate_segments(narration, segments)
                calls[caller].append((tuple(segments), result[0]))
                return result
            return locate

        with patch.object(timeline_module, "locate_segments", recording("place")):
            cues = place(narration, words,
                         [(d, frozenset({f"m{k}"})) for k, d in enumerate(directives)],
                         [(a, [f"a{k}"] if labelled[k] else [])
                          for k, a in enumerate(annotations)])
        for cue in cues:
            (cue_id,) = cue.target_ids
            s = spoken.pop(cue_id)
            assert cue.interval[0] == words[2 * s]["start"], (cue_id, s)
            if cue_id[0] == "m":
                assert cue.interval[1] == words[2 * s + 1]["end"], (cue_id, s)
        assert spoken == {}

        output = DesignerOutput({"layer": [{"mark": "bar", "encoding": {}}]},
                                tuple(directives), tuple(annotations))
        with patch("datareel.designer.locate_segments", recording("designer")):
            report = validate_designer_output(output, narration, lambda d: frozenset(d.index))
        if report.passing:
            assert sorted(calls["designer"]) == sorted(calls["place"])
        ambiguous = [a for a in report.advisories if a.code == "ambiguous-segment"]
        assert len(ambiguous) == sum(texts.count(texts[s]) > 1
                                     for _, _, s in animation_cues + annotation_cues)


class TestFirstSentence:
    def test_period_followed_by_space(self):
        assert first_sentence_end("One two. Three four.") == 8

    def test_no_terminal_punctuation(self):
        assert first_sentence_end("no punctuation at all") == 21

    def test_decimal_point_is_not_terminal(self):
        text = "Price hit 12.5 today. Next."
        assert first_sentence_end(text) == 21


class TestAlignSegments:
    def test_word_3_to_5(self):
        narration = "w0 w1 w2 w3 w4 w5 w6"
        timings = mock_timings(narration)
        span = (narration.index("w3"), narration.index("w5") + 2)
        assert align_segments([span], timings) == [(0.9, 1.8)]

    def test_whole_narration(self):
        narration = "a b c"
        timings = mock_timings(narration)
        assert align_segments([(0, len(narration))], timings) == [(0.0, 0.9)]

    def test_span_in_whitespace_gap(self):
        narration = "aa  bb"
        timings = mock_timings(narration)
        with pytest.raises(NoWordOverlap):
            align_segments([(2, 3)], timings)

    def test_partial_word_overlap_counts(self):
        narration = "alpha beta"
        timings = mock_timings(narration)
        assert align_segments([(3, 7)], timings) == [(0.0, 0.6)]

    @given(data=st.data())
    def test_bisection_equals_the_scan(self, data):
        whitespace = st.text(alphabet=WS_ALPHABET, min_size=1, max_size=3)
        tokens = data.draw(st.lists(st.text(alphabet="ab", min_size=1, max_size=3),
                                    min_size=1, max_size=10))
        gaps = data.draw(st.lists(whitespace, min_size=len(tokens) + 1,
                                  max_size=len(tokens) + 1))
        narration = "".join(g + t for g, t in zip(gaps, tokens + [""]))
        narration = narration[data.draw(st.integers(0, len(gaps[0]))):]
        # monotone word times, in hundredths of a second: a pause, then the word
        steps = data.draw(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 50)),
                                   min_size=len(tokens), max_size=len(tokens)))
        words, clock = [], 0
        for (word, char_start, char_end), (pause, length) in zip(word_tokens(narration), steps):
            words.append({"word": word, "start": (clock + pause) / 100,
                          "end": (clock + pause + length) / 100,
                          "char_start": char_start, "char_end": char_end})
            clock += pause + length
        spans = []
        for _ in range(data.draw(st.integers(1, 6))):
            lo = data.draw(st.integers(0, len(narration) - 1))
            hi = data.draw(st.integers(lo + 1, len(narration)))
            # a substring is always found; one inside a whitespace run overlaps no word
            spans.append(locate_span(narration, narration[lo:hi],
                                     data.draw(st.integers(0, lo))))
        try:
            expected = reference_align_segments(spans, words)
        except NoWordOverlap as e:
            with pytest.raises(NoWordOverlap) as raised:
                align_segments(spans, words)
            assert raised.value.span == e.span
        else:
            assert align_segments(spans, words) == expected


def _per_element(ramps) -> dict[str, list[Keyframe]]:
    """Each element's keyframes in keyframes_for's ramps, ramp by ramp."""
    per_element: dict[str, list[Keyframe]] = {}
    for ids, keyframes in ramps:
        for eid in ids:
            per_element.setdefault(eid, []).extend(keyframes)
    return per_element


class TestKeyframesFor:
    def test_fade_in(self):
        ramps, hidden = keyframes_for("Fade-in", {"x"}, (2.0, 3.0))
        assert [(ids, [(k.time, k.property, k.value) for k in kfs])
                for ids, kfs in ramps] == [
            ({"x"}, [(2.0, "opacity", 0.0), (3.0, "opacity", 1.0)]),
        ]
        assert hidden == frozenset({"x"})

    def test_fade_out(self):
        [(ids, kfs)], hidden = keyframes_for("Fade-out", {"x"}, (5.0, 6.0))
        assert ids == {"x"}
        assert [(k.time, k.value) for k in kfs] == [(5.0, 1.0), (6.0, 0.0)]
        assert hidden == frozenset()

    def test_highlight_one_and_fade_others(self):
        ramps, _ = keyframes_for(
            "Highlight-one-and-fade-others", {"target"}, (10.0, 12.0),
            other_ids={"a", "b", "c", "target"},
        )
        delta = 0.15 * 2.0
        per_element = _per_element(ramps)
        assert set(per_element) == {"a", "b", "c"}  # targets untouched
        for kfs in per_element.values():
            assert [(k.time, k.value) for k in kfs] == [
                (10.0, 1.0), (10.0 + delta, 0.2), (12.0 - delta, 0.2), (12.0, 1.0)]
        # one ramp: every dimmed element gets the same keyframe objects
        assert len(ramps) == 1 and len(ramps[0][1]) == 4

    def test_emphasis_restores_start_value(self):
        for name in ("Bar-bounce", "Zoom-in-then-zoom-out", "Shine-in-a-short-duration"):
            [(ids, kfs)], hidden = keyframes_for(name, {"x"}, (1.0, 2.0))
            assert ids == {"x"}
            assert kfs[0].value == kfs[-1].value
            assert hidden == frozenset()

    def test_line_wipe_with_legend(self):
        ramps, hidden = keyframes_for(
            "Line-wipe-and-legend-fade-in", {"line1"}, (0.0, 1.0), legend_ids={"leg"},
        )
        props = {(eid, k.property) for eid, kfs in _per_element(ramps).items() for k in kfs}
        assert ("line1", "clip_fraction") in props
        assert ("leg", "opacity") in props
        assert hidden == frozenset({"line1", "leg"})

    def test_zoom_in_combines_scale_and_opacity(self):
        ramps, _ = keyframes_for("Zoom-in", {"x"}, (0.0, 1.0))
        kfs = _per_element(ramps)["x"]
        assert {k.property for k in kfs} == {"scale", "opacity"}
        scale = [k for k in kfs if k.property == "scale"]
        assert scale[0].value == 0.5 and scale[-1].value == 1.0

    def test_empty_interval_rejected(self):
        with pytest.raises(PreconditionError):
            keyframes_for("Fade-in", {"x"}, (1.0, 1.0))


def _index(marks=("m0", "m1"), legend=(), axes=(), annotations=()):
    entries = {}
    for i, eid in enumerate(marks):
        entries[eid] = MarkEntry(roles=frozenset({"mark"}), data_rows=frozenset({i}))
    for eid in legend:
        entries[eid] = MarkEntry(roles=frozenset({"legend"}), data_rows=frozenset())
    for eid in axes:
        entries[eid] = MarkEntry(roles=frozenset({"axis"}), data_rows=frozenset())
    for eid in annotations:
        entries[eid] = MarkEntry(roles=frozenset({"annotation"}), data_rows=frozenset())
    return MarkIndex(entries=entries)


class TestCompileTimeline:
    def test_empty_compile(self):
        timeline, report = compile_timeline([], _index(), 6.0)
        assert timeline.duration == 6.0
        assert timeline.tracks == {}
        assert all(v == "visible" for v in timeline.initial_visibility.values())
        assert report.passing

    def test_line_wipe_fixture(self):
        placed = [PlacedDirective("Line-wipe-in", frozenset({"m0"}), (1.0, 2.5))]
        timeline, _ = compile_timeline(placed, _index(), 6.0)
        assert timeline.initial_visibility["m0"] == "hidden"
        kfs = timeline.tracks["m0"]
        assert [(k.time, k.property, k.value) for k in kfs] == [
            (1.0, "clip_fraction", 0.0), (2.5, "clip_fraction", 1.0),
        ]
        assert not reference_visible_at(timeline, "m0", 0.5)
        assert reference_visible_at(timeline, "m0", 2.0)

    def test_annotation_fade_default_half_second(self):
        timeline, _ = compile_timeline(_annotation_cues((4.2, 6.0)),
                                       _index(annotations=("a0",)), 10.0)
        kfs = timeline.tracks["a0"]
        assert [(k.time, k.value) for k in kfs] == [(4.2, 0.0), (4.7, 1.0)]
        assert timeline.initial_visibility["a0"] == "hidden"

    def test_annotation_fade_clamped_to_segment(self):
        assert _annotation_cues((1.0, 1.2))[0].interval == (1.0, 1.2)

    def test_place_lists_cues_by_segment_animations_first_at_a_tie(self):
        narration = "One here. Two now."
        first = AnnotationDirective(("text",), "", (0,), "One here.")
        second = AnnotationDirective(("text",), "", (0,), "Two now.")
        fade = AnimationDirective("Fade-in", "Two now.", "m0", (0,))
        cues = place(narration, mock_timings(narration), [(fade, frozenset({"m0"}))],
                     [(second, ["a1"]), (first, ["a0"])])
        assert [(c.target_ids, c.interval[0]) for c in cues] == [
            (frozenset({"a0"}), 0.0), (frozenset({"m0"}), 0.6), (frozenset({"a1"}), 0.6)]

    def test_last_writer_wins_with_advisory(self):
        placed = [
            PlacedDirective("Fade-in", frozenset({"m0"}), (1.0, 3.0), label="first"),
            PlacedDirective("Fade-in", frozenset({"m0"}), (2.0, 4.0), label="second"),
        ]
        timeline, report = compile_timeline(placed, _index(), 6.0)
        assert any(a.code == "track-overlap" for a in report.advisories)
        opacity = [k for k in timeline.tracks["m0"] if k.property == "opacity"]
        assert [k.time for k in opacity] == [2.0, 4.0]

    def test_adjacent_groups_share_boundary_without_duplicates(self):
        placed = [
            PlacedDirective("Fade-in", frozenset({"m0"}), (1.0, 2.0)),
            PlacedDirective("Shine-in-a-short-duration", frozenset({"m0"}), (2.0, 3.2)),
        ]
        timeline, report = compile_timeline(placed, _index(), 6.0)
        assert not any(a.code == "track-overlap" for a in report.advisories)
        times = [k.time for k in timeline.tracks["m0"] if k.property == "opacity"]
        assert times == sorted(times)
        assert len(times) == len(set(times))

    def test_entrance_exit_visibility_window(self):
        placed = [
            PlacedDirective("Fade-in", frozenset({"m0"}), (1.0, 2.0)),
            PlacedDirective("Fade-out", frozenset({"m0"}), (4.0, 5.0)),
        ]
        timeline, _ = compile_timeline(placed, _index(), 6.0)
        assert not reference_visible_at(timeline, "m0", 0.5)
        assert reference_visible_at(timeline, "m0", 3.0)
        assert not reference_visible_at(timeline, "m0", 5.5)

    def test_out_of_range_keyframes_rejected(self):
        placed = [PlacedDirective("Fade-in", frozenset({"m0"}), (1.0, 7.0))]
        with pytest.raises(ValueError):
            compile_timeline(placed, _index(), 6.0)

    def test_legend_variant_pulls_legend_ids_from_index(self):
        placed = [PlacedDirective(
            "Line-wipe-and-legend-fade-in", frozenset({"m0", "m1"}), (0.0, 1.0),
        )]
        timeline, _ = compile_timeline(placed, _index(legend=("leg",)), 6.0)
        assert timeline.initial_visibility["leg"] == "hidden"
        assert any(k.property == "opacity" for k in timeline.tracks["leg"])

    def test_highlight_dims_only_other_marks(self):
        placed = [PlacedDirective(
            "Highlight-one-and-fade-others", frozenset({"m0"}), (1.0, 3.0),
        )]
        index = _index(marks=("m0", "m1"), legend=("leg",), annotations=("a0",))
        timeline, _ = compile_timeline(placed, index, 6.0)
        assert "m0" not in timeline.tracks
        assert "leg" not in timeline.tracks
        assert "a0" not in timeline.tracks
        assert reference_value_at(timeline, "m1", "opacity", 2.0) == 0.2

    def test_unplaced_annotation_stays_visible(self):
        timeline, report = compile_timeline(_annotation_cues((1.0, 2.0)),
                                            _index(annotations=("a0", "a1")), 6.0)
        assert timeline.initial_visibility["a0"] == "hidden"
        assert timeline.initial_visibility["a1"] == "visible"
        assert "a1" not in timeline.tracks
        assert report.passing


def _placed_on(segment, resolved=(), annotated=()):
    """place's cues for directives that all cue the sentence "Label now.",
    spoken over the given interval after a sentence spoken from 0 s."""
    narration = "Intro here. Label now."
    start, end = segment
    times = [(0.0, start / 2), (start / 2, start), (start, (start + end) / 2),
             ((start + end) / 2, end)]
    words = [{**word, "start": t0, "end": t1}
             for word, (t0, t1) in zip(mock_timings(narration), times)]
    return place(narration, words, list(resolved), list(annotated))


def _annotation_cues(segment, ids=("a0",)):
    """place's cues for one annotation of ids cued by "Label now." (see _placed_on)."""
    annotation = AnnotationDirective(("text",), "a label", (0,), "Label now.")
    cues = _placed_on(segment, annotated=[(annotation, list(ids))])
    assert [(c.animation, c.target_ids, c.interval[0], c.label) for c in cues] == [
        ("Fade-in", frozenset(ids), segment[0], "Label now.")]
    return cues


@st.composite
def accepted_sequences(draw):
    """(cues, marks, duration) placed from directive lists over 2-4 marks
    that validate_animation_sequence accepts, and up to two annotations.
    Each directive cues a sentence of two 0.3 s words, the one before's or
    the next; no mark is a target twice in one sentence, where the later
    directive would win. No directive targets a mark after its Fade-out: a
    re-entrance interpolates across the gap between the exit and the next
    ramp on that property, a defect of the keyframe format that these tests
    do not cover. An annotation cues one of those sentences and holds the
    non-mark a0 or marks that no directive targets until after it; one mark
    may be kept for annotations, which no directive targets."""
    rows = range(draw(st.integers(2, 4)))
    kept = set(draw(st.lists(st.sampled_from(rows), max_size=1)))
    cued, exited, taken, sentence = [], set(), set(), 0
    for i in range(draw(st.integers(1, 8))):
        if i and draw(st.booleans()):
            sentence, taken = sentence + 1, set()
        live = [row for row in rows if row not in exited | taken | kept]
        if not live:
            continue
        # Fade-outs and highlights of others are what lifetimes are about.
        name = draw(st.sampled_from(ANIMATIONS) | st.sampled_from(
            ("Fade-out", "Highlight-one-and-fade-others")))
        index = tuple(draw(st.lists(st.sampled_from(live), min_size=1, unique=True)))
        taken.update(index)
        if name == "Fade-out":
            exited.update(index)
        cued.append((sentence, AnimationDirective(name, f"a{sentence} b{sentence}.",
                                                  f"rows {index}", index)))
    directives = [d for _, d in cued]
    narration = " ".join(dict.fromkeys(d.narration for d in directives))
    assume(validate_animation_sequence(directives, narration).passing)
    annotations, sentences = [], sorted({s for s, _ in cued})
    for _ in range(draw(st.integers(0, 2))):
        # The last sentence is where a highlight of others most often comes first.
        at = draw(st.sampled_from(sentences) | st.just(sentences[-1]))
        free = [f"m{row}" for row in rows
                if not any(s <= at and row in d.index for s, d in cued)]
        ids = draw(st.lists(st.sampled_from(["a0"] + free), min_size=1, unique=True))
        annotations.append((AnnotationDirective(("text",), "", (0,), f"a{at} b{at}."), ids))
    words = mock_timings(narration)
    resolved = [(d, frozenset(f"m{row}" for row in d.index)) for d in directives]
    return (place(narration, words, resolved, annotations), [f"m{row}" for row in rows],
            words[-1]["end"])


class TestMarkLifetime:
    """An emphasis of others dims only the marks on screen for its whole
    interval: none before its entrance starts, none after its Fade-out ends."""

    def test_highlight_does_not_revive_an_exited_mark(self):
        placed = [
            PlacedDirective("Fade-out", frozenset({"b"}), (1.0, 2.0)),
            PlacedDirective("Highlight-one-and-fade-others", frozenset({"a"}), (3.0, 5.0)),
        ]
        timeline, _ = compile_timeline(placed, _index(marks=("a", "b")), 8.0)
        for t in (2.5, 4.0, 6.0):
            assert not reference_visible_at(timeline, "b", t), t

    def test_highlight_does_not_show_a_mark_before_its_entrance(self):
        placed = [
            PlacedDirective("Bar-grow-in", frozenset({"a"}), (0.0, 1.0)),
            PlacedDirective("Highlight-one-and-fade-others", frozenset({"a"}), (2.0, 4.0)),
            PlacedDirective("Bar-grow-in", frozenset({"b"}), (5.0, 6.0)),
        ]
        timeline, _ = compile_timeline(placed, _index(marks=("a", "b")), 8.0)
        for t in (3.0, 4.5):
            assert not reference_visible_at(timeline, "b", t), t
        assert reference_visible_at(timeline, "b", 7.0)

    def test_highlight_does_not_show_a_mark_before_its_annotation(self):
        index = MarkIndex(entries={
            "m0": MarkEntry(roles=frozenset({"mark"}), data_rows=frozenset({0})),
            "m1": MarkEntry(roles=frozenset({"mark", "annotation"}), data_rows=frozenset({1})),
        })
        placed = [
            PlacedDirective("Highlight-one-and-fade-others", frozenset({"m0"}), (1.0, 3.0)),
            PlacedDirective("Fade-in", frozenset({"m1"}), (4.0, 4.5), "m1's label"),
        ]
        timeline, _ = compile_timeline(placed, index, 6.0)
        for t in (2.0, 3.5):
            assert not reference_visible_at(timeline, "m1", t), t
        assert reference_visible_at(timeline, "m1", 5.0)

    def test_annotation_fade_wins_over_a_highlight_of_its_own_sentence(self):
        """A mark annotated on the sentence of a highlight of others is born
        with that sentence, so the highlight dims it; the annotation's fade,
        placed after the highlight, replaces that dimming."""
        index = MarkIndex(entries={
            "m0": MarkEntry(roles=frozenset({"mark"}), data_rows=frozenset({0})),
            "m1": MarkEntry(roles=frozenset({"mark", "annotation"}), data_rows=frozenset({1})),
        })
        highlight = AnimationDirective("Highlight-one-and-fade-others", "Label now.", "m0", (0,))
        annotation = AnnotationDirective(("text",), "m1's label", (1,), "Label now.")
        placed = _placed_on((4.0, 5.0), [(highlight, frozenset({"m0"}))],
                            [(annotation, ["m1"])])
        timeline, _ = compile_timeline(placed, index, 6.0)
        assert not reference_visible_at(timeline, "m1", 3.9)
        assert [reference_value_at(timeline, "m1", "opacity", t)
                for t in (4.0, 4.5, 5.0)] == [0.0, 1.0, 1.0]

    @given(accepted_sequences())
    def test_marks_are_hidden_outside_their_lifetime(self, sequence):
        """A mark or annotation element with an entrance, an annotation's
        fade included, is hidden before its first entrance starts; a mark is
        hidden from the end of its Fade-out until a later entrance starts."""
        placed, marks, duration = sequence
        timeline, _ = compile_timeline(
            placed, _index(marks=marks, legend=("leg",), annotations=("a0",)), duration)
        times = [k * 0.05 for k in range(round(duration / 0.05) + 1)]
        frames = expand_changes(KeyframeEvaluator(timeline), times)
        for mark in marks + ["a0"]:
            mine = [p for p in placed if mark in p.target_ids]
            starts = sorted(p.interval[0] for p in mine
                            if classify_animation(p.animation) == "entrance")
            hidden = [(-math.inf, starts[0])] if starts else []
            for p in mine:
                if p.animation == "Fade-out":
                    end = p.interval[1]
                    hidden.append((end, min([s for s in starts if s >= end], default=math.inf)))
            for t, (visible, _) in zip(times, frames):
                for lo, hi in hidden:
                    assert not (lo <= t < hi and mark in visible), (mark, t, lo, hi)


class TestEvaluation:
    def test_interpolation_linear(self):
        timeline = Timeline(
            duration=10.0,
            tracks={"x": (Keyframe(2.0, "opacity", 0.0, "linear"),
                          Keyframe(4.0, "opacity", 1.0, "linear"))},
            initial_visibility={"x": "hidden"},
        )
        assert reference_value_at(timeline, "x", "opacity", 3.0) == pytest.approx(0.5)
        assert reference_value_at(timeline, "x", "opacity", 1.0) == 1.0  # rest before track
        assert reference_value_at(timeline, "x", "opacity", 9.0) == 1.0  # hold after track

    def test_easing_ease_out(self):
        timeline = Timeline(
            duration=10.0,
            tracks={"x": (
                Keyframe(0.0, "scale", 0.0, "ease-out"),
                Keyframe(1.0, "scale", 1.0, "ease-out"),
            )},
            initial_visibility={},
        )
        assert reference_value_at(timeline, "x", "scale", 0.5) == pytest.approx(0.75)

    def test_round_trip_serialization(self):
        placed = [PlacedDirective("Fade-in", frozenset({"m0"}), (1.0, 2.0))]
        timeline, _ = compile_timeline(placed, _index(), 6.0)
        again = Timeline.from_json(json.loads(dump_artifact(timeline.to_json())))
        assert again.duration == timeline.duration
        assert again.tracks == timeline.tracks
        assert again.initial_visibility == timeline.initial_visibility
        assert timeline_invariant_violations(again) == []


# Keyframe and frame times share a quarter-second grid, so frames land exactly
# on keyframes; arbitrary floats in between cover the interpolation.
GRID = [i / 4 for i in range(41)]
DURATION = GRID[-1]
times_on_grid = st.sampled_from(GRID) | st.floats(0.0, DURATION)
unit_values = st.sampled_from([0.0, 0.2, 1.0]) | st.floats(0.0, 1.0)
signed_values = st.sampled_from([0.0, 1.0]) | st.floats(-50.0, 50.0)


@st.composite
def raw_timelines(draw, unit=unit_values, signed=signed_values, times=times_on_grid):
    """Timelines built directly: all properties and easings, equal keyframe
    times within a track, untracked elements and hidden initial visibility."""
    tracks = {}
    for eid in draw(st.lists(st.sampled_from(["e0", "e1", "e2", "e3"]), unique=True)):
        keyframes = []
        for prop in draw(st.lists(st.sampled_from(PROPERTIES), unique=True)):
            values = signed if prop in ("scale", "translate_x", "translate_y") else unit
            for time in sorted(draw(st.lists(times, min_size=1, max_size=5))):
                keyframes.append(Keyframe(time, prop, draw(values),
                                          draw(st.sampled_from(EASINGS))))
        keyframes.sort(key=lambda k: (k.time, k.property))
        tracks[eid] = tuple(keyframes)
    named = draw(st.lists(st.sampled_from(["e0", "e1", "u0", "u1"]), unique=True))
    initial = {eid: draw(st.sampled_from(["visible", "hidden"])) for eid in named}
    return Timeline(duration=DURATION, tracks=tracks, initial_visibility=initial)


# Values from three levels make flat segments (equal neighbours) and repeated
# values common; random floats almost never produce them. Keyframes sit on the
# grid, so frames land on them too.
held_values = st.sampled_from([0.0, 0.5, 1.0])
held_timelines = raw_timelines(unit=held_values, signed=held_values,
                               times=st.sampled_from(GRID))


MARKS = ("m0", "m1", "m2", "m3")
LEGEND = ("leg0",)
ANNOTATIONS = ("a0", "a1")


@st.composite
def intervals(draw):
    start, end = sorted(draw(st.lists(times_on_grid, min_size=2, max_size=2, unique=True)))
    return start, end


@st.composite
def compiled_timelines(draw):
    """compile_timeline outputs over random directives and annotation cues
    placed on random intervals."""
    directives = [
        PlacedDirective(draw(st.sampled_from(ANIMATIONS)),
                        frozenset(draw(st.lists(st.sampled_from(MARKS + LEGEND), min_size=1))),
                        draw(intervals()))
        for _ in range(draw(st.integers(0, 5)))
    ]
    for _ in range(draw(st.integers(0, 2))):
        directives += _annotation_cues(
            draw(intervals()), draw(st.lists(st.sampled_from(ANNOTATIONS), min_size=1)))
    index = _index(marks=MARKS, legend=LEGEND, axes=("ax",), annotations=ANNOTATIONS)
    timeline, _ = compile_timeline(directives, index, DURATION)
    return timeline


def assert_sweep_matches_per_frame_evaluation(timeline, times):
    evaluator = KeyframeEvaluator(timeline)
    assert list(evaluator.ids) == sorted(set(timeline.tracks) | set(timeline.initial_visibility))
    frames = expand_changes(evaluator, times)
    assert len(frames) == len(times)
    for t, (visible, opacity) in zip(times, frames):
        assert visible == [eid for eid in evaluator.ids
                           if reference_visible_at(timeline, eid, t)]
        expected = {eid: reference_value_at(timeline, eid, "opacity", t) for eid in visible}
        assert opacity == {eid: v for eid, v in expected.items() if v != 1.0}
        for eid in evaluator.ids:
            for prop in PROPERTIES:
                assert value_at(timeline, eid, prop, t) == reference_value_at(timeline, eid, prop, t)


frame_times = st.one_of(
    st.sampled_from([2, 4, 10]).map(lambda fps: [f / fps for f in range(int(DURATION * fps))]),
    st.lists(times_on_grid, max_size=30).map(sorted),
)
grid_frame_times = st.one_of(
    st.sampled_from([2, 4, 8]).map(lambda fps: [f / fps for f in range(int(DURATION * fps))]),
    st.lists(st.sampled_from(GRID), max_size=30).map(sorted),
)


def _hold_between_ramps():
    """Opacity ramps 0 -> 0.5 over [1, 2], holds 0.5 until 8, ramps to 1 by 9."""
    return Timeline(duration=10.0, tracks={"x": (
        Keyframe(1.0, "opacity", 0.0, "linear"),
        Keyframe(2.0, "opacity", 0.5, "linear"),
        Keyframe(8.0, "opacity", 0.5, "linear"),
        Keyframe(9.0, "opacity", 1.0, "linear"),
    )})


class TestKeyframeEvaluator:
    @given(raw_timelines(), frame_times)
    def test_sweep_equals_per_frame_evaluation(self, timeline, times):
        assert_sweep_matches_per_frame_evaluation(timeline, times)

    @given(compiled_timelines(), frame_times)
    def test_compiled_timelines_hold_invariants_and_sweep_agrees(self, timeline, times):
        assert timeline_invariant_violations(timeline) == []
        assert_sweep_matches_per_frame_evaluation(timeline, times)

    @given(held_timelines, grid_frame_times)
    def test_sweep_over_held_segments_equals_per_frame_evaluation(self, timeline, times):
        assert_sweep_matches_per_frame_evaluation(timeline, times)

    def test_held_segments_are_not_resampled(self, monkeypatch):
        timeline = _hold_between_ramps()
        sampled = []
        original = timeline_module._segment

        def counting(left, right, times):
            sampled.extend(times)
            return original(left, right, times)

        monkeypatch.setattr(timeline_module, "_segment", counting)
        times = [f / 10 for f in range(100)]
        frames = expand_changes(KeyframeEvaluator(timeline), times)
        assert [opacity.get("x") for _, opacity in frames][20:80] == [0.5] * 60
        # Sampled on every frame of the two ramps only: never before the first
        # keyframe, in the hold between equal values or past the last keyframe.
        assert sampled == [t for t in times if 1.0 <= t < 2.0 or 8.0 <= t < 9.0]

    def test_changes_are_reported_once_per_group_and_change_point(self):
        times = [f / 10 for f in range(100)]
        timeline = _hold_between_ramps()
        timeline.tracks["y"] = timeline.tracks["x"]
        changes = list(KeyframeEvaluator(timeline).changes(times))
        assert changes[0] == [([0, 1], ["x", "y"], (True, 1.0))]
        # Hidden at opacity 0.0 on frame 10; the opacity changes on every
        # ramp frame and stays at 0.5 over the hold.
        changed = [f for f, due in enumerate(changes) if due]
        assert changed == [0] + list(range(10, 21)) + list(range(81, 91))
        assert all(len(due) <= 1 for due in changes)

    def test_elements_alike_but_for_one_detail_change_apart(self):
        # Elements with equal visibility data share one change computation;
        # an easing, an earlier first keyframe or the initial visibility
        # sets an element apart.
        def fade(easing="linear"):
            return (Keyframe(1.0, "opacity", 0.0, easing),
                    Keyframe(3.0, "opacity", 1.0, easing))

        timeline = Timeline(duration=4.0, tracks={
            "same": fade(), "twin": fade(),
            "eased": fade("ease-in"), "hidden": fade(),
            "early": (Keyframe(0.5, "translate_x", 5.0, "linear"),) + fade(),
        }, initial_visibility={"hidden": "hidden", "early": "hidden"})
        assert_sweep_matches_per_frame_evaluation(timeline, [f / 10 for f in range(40)])

    def test_equal_keyframe_times_use_the_later_keyframe(self):
        timeline = Timeline(duration=4.0, tracks={"x": (
            Keyframe(1.0, "opacity", 0.0, "linear"),
            Keyframe(2.0, "opacity", 0.5, "linear"),
            Keyframe(2.0, "opacity", 0.0, "linear"),
            Keyframe(3.0, "opacity", 1.0, "linear"),
        )})
        assert reference_value_at(timeline, "x", "opacity", 2.0) == 0.0
        assert reference_value_at(timeline, "x", "opacity", 2.5) == 0.5
        ((_, opacity),) = expand_changes(KeyframeEvaluator(timeline), [2.5])
        assert opacity == {"x": 0.5}

    def test_sweep_rejects_decreasing_times(self):
        timeline = Timeline(duration=4.0, tracks={}, initial_visibility={"x": "visible"})
        with pytest.raises(ValueError):
            list(KeyframeEvaluator(timeline).changes([1.0, 0.5]))


# Ids that break a stylesheet or an HTML document when written raw. Generated
# ids hold no NUL: XML allows none in an id, and CSS reads an escaped NUL as
# U+FFFD.
HOSTILE_IDS = ("1.bar", 'a"b', "x#y", "a}b", "</style>", " ", "\u00e9t\u00e9", "a\\b",
               "\u65e5\u672c", "-", "0", "a\nb")
hostile_names = st.lists(
    st.sampled_from(HOSTILE_IDS) | st.text(st.characters(exclude_characters="\x00"), min_size=1),
    min_size=8, max_size=8, unique=True)


def _renamed(timeline, names):
    """timeline with its ids, in sorted order, renamed to names; tracks stay shared."""
    new = dict(zip(sorted(set(timeline.tracks) | set(timeline.initial_visibility)), names))
    return Timeline(duration=timeline.duration,
                    tracks={new[eid]: track for eid, track in timeline.tracks.items()},
                    initial_visibility={new[eid]: v
                                        for eid, v in timeline.initial_visibility.items()})


def reference_manifest_frames(timeline, fps):
    """Frames by the MockSynth docstring, each evaluated on its own with the
    linear-scan references: visible ids sorted, and the opacity of each
    visible id that is not 1.0, rounded to 4 decimals after that comparison."""
    ids = sorted(set(timeline.tracks) | set(timeline.initial_visibility))
    frames = []
    for f in range(int(round(timeline.duration * fps))):
        t = f / fps
        visible = [eid for eid in ids if reference_visible_at(timeline, eid, t)]
        opacity = {eid: reference_value_at(timeline, eid, "opacity", t) for eid in visible}
        frames.append({"index": f, "time": round(t, 6), "visible": visible,
                       "opacity": {eid: round(v, 4) for eid, v in opacity.items() if v != 1.0}})
    return frames


def reference_manifest(timeline, fps):
    """The whole manifest by the MockSynth docstring, frames materialized."""
    frames = reference_manifest_frames(timeline, fps)
    return {"kind": "mock-video-manifest", "fps": fps, "duration": timeline.duration,
            "frame_count": len(frames), "svg": "chart.svg", "audio": "narration.wav",
            "frames": frames}


def synthesized_text(timeline, fps, directory) -> str:
    out = Path(directory) / "video.json"
    MockSynth(fps=fps).synthesize(timeline, "chart.svg", "narration.wav", out)
    return out.read_text(encoding="utf-8")


class TestMockSynthManifest:
    @given(compiled_timelines(), st.sampled_from([1, 3, 8]))
    def test_frames_equal_the_per_frame_reference(self, timeline, fps):
        with tempfile.TemporaryDirectory() as tmp:
            manifest = json.loads(synthesized_text(timeline, fps, tmp))
        assert manifest["frame_count"] == len(manifest["frames"])
        assert manifest["frames"] == reference_manifest_frames(timeline, fps)

    @given(compiled_timelines() | raw_timelines(), hostile_names, st.sampled_from([1, 3, 8]))
    def test_text_equals_the_materialized_reference(self, timeline, names, fps):
        timeline = _renamed(timeline, names)
        with tempfile.TemporaryDirectory() as tmp:
            text = synthesized_text(timeline, fps, tmp)
        expected = reference_manifest(timeline, fps)
        assert text == reference_dump_artifact(expected) == dump_artifact(expected)

    @pytest.mark.parametrize("fps", [1, 3, 8])
    def test_no_frame_still_writes_an_empty_list(self, fps, tmp_path):
        timeline = Timeline(duration=0.05, tracks={"a": (Keyframe(0.0, "opacity", 0.5, "linear"),)})
        text = synthesized_text(timeline, fps, tmp_path)
        assert '  "frame_count": 0,\n  "frames": [],\n' in text
        assert text == reference_dump_artifact(reference_manifest(timeline, fps))

    def test_streams_the_frames(self, tmp_path):
        # 120 staggered eight-second fades over 40 s at 30 fps: 1200 frames,
        # most with a new opacity map. Built whole, the frames and the text
        # take several times the file's size.
        timeline = Timeline(duration=40.0, tracks={
            f"m{i:03}": (Keyframe(i / 4, "opacity", 0.1, "linear"),
                         Keyframe(i / 4 + 8.0, "opacity", 0.9, "linear"))
            for i in range(120)})
        out = tmp_path / "video.json"
        tracemalloc.start()
        try:
            MockSynth(fps=30).synthesize(timeline, "chart.svg", "narration.wav", out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = out.stat().st_size
        assert written > 1_000_000
        assert peak < written / 2

    def test_failed_sweep_leaves_no_file(self, tmp_path, monkeypatch):
        changes = KeyframeEvaluator.changes

        def failing(self, times):
            for n, due in enumerate(changes(self, times)):
                if n == 5:
                    raise RuntimeError("sweep failed")
                yield due

        monkeypatch.setattr(KeyframeEvaluator, "changes", failing)
        with pytest.raises(RuntimeError, match="sweep failed"):
            synthesized_text(_dimming_timeline(), 3, tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestHtmlExport:
    @given(compiled_timelines() | raw_timelines(), hostile_names)
    def test_every_element_keeps_its_animations(self, timeline, names):
        timeline = _renamed(timeline, names)
        html = export_html(timeline, "<svg/>", "narration.wav")
        assert parse_html_rules(html) == reference_html_rules(timeline)


def _dimming_timeline():
    """m1..m3 are dimmed alike; m0 is the highlight target and also fades in."""
    placed = [
        PlacedDirective("Fade-in", frozenset({"m0"}), (0.0, 1.0)),
        PlacedDirective("Highlight-one-and-fade-others", frozenset({"m0"}), (2.0, 4.0)),
    ]
    timeline, _ = compile_timeline(placed, _index(marks=MARKS), DURATION)
    return timeline


# Values whose JSON text differs although they compare equal: 0, 0.0 and
# -0.0; 1 and 1.0.
exact_values = st.sampled_from([0, 0.0, -0.0, 1, 1.0, 0.5])
exact_times = st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2.5])


class TestSharedTracks:
    def test_elements_with_equal_tracks_hold_one_tuple(self):
        tracks = _dimming_timeline().tracks
        assert tracks["m1"] is tracks["m2"] is tracks["m3"]
        assert tracks["m0"] is not tracks["m1"]
        assert [(k.time, k.value) for k in tracks["m1"]] == [
            (2.0, 1.0), (2.3, 0.2), (3.7, 0.2), (4.0, 1.0)]

    def test_to_json_encodes_each_distinct_track_once(self, monkeypatch):
        encoded = []
        row_text = timeline_module.row_text
        monkeypatch.setattr(timeline_module, "row_text",
                            lambda rows: encoded.append(rows) or row_text(rows))
        timeline = _dimming_timeline()
        rows = [json.loads(row) for row in timeline.to_json()["tracks"]]
        assert [row["element_id"] for row in rows] == ["m0", "m1", "m2", "m3"]
        assert len(encoded) == 2  # m0's track and the dimming
        assert rows[1]["keyframes"] == rows[2]["keyframes"] == rows[3]["keyframes"]

    def test_from_json_interns_equal_tracks(self):
        def row(time, value):
            return {"easing": "linear", "property": "opacity", "time": time, "value": value}

        payload = json.loads(json.dumps({"duration": 5.0, "initial_visibility": {}, "tracks": [
            {"element_id": "a", "keyframes": [row(1.0, 0.0), row(2.0, 1.0)]},
            {"element_id": "b", "keyframes": [row(1.0, 0.0), row(2.0, 1.0)]},
            {"element_id": "c", "keyframes": [row(1.0, 0.0), row(3.0, 1.0)]},
        ]}))
        tracks = Timeline.from_json(payload).tracks
        assert tracks["a"] is tracks["b"]
        assert tracks["c"] is not tracks["a"]

    def test_from_text_decodes_each_distinct_track_once(self, monkeypatch):
        text = dump_artifact(_dimming_timeline().to_json())
        decoded = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda s, **kw: decoded.append(s) or loads(s, **kw))
        tracks = Timeline.from_text(text).tracks
        assert tracks["m1"] is tracks["m2"] is tracks["m3"]
        assert not [s for s in decoded if "element_id" in s]  # no row is decoded whole
        assert len([s for s in decoded if s.startswith('[{"easing"')]) == 2

    def test_from_json_keeps_values_that_only_compare_equal_apart(self):
        text = dump_artifact({"duration": 5.0, "initial_visibility": {}, "tracks": [
            {"element_id": eid, "keyframes": [
                {"easing": "linear", "property": "translate_x", "time": 1.0, "value": value}]}
            for eid, value in (("a", 0.0), ("b", -0.0), ("c", 1), ("d", 1.0))]})
        tracks = Timeline.from_json(json.loads(text)).tracks
        assert len({id(track) for track in tracks.values()}) == 4
        assert [repr(tracks[eid][0].value) for eid in "abcd"] == ["0.0", "-0.0", "1", "1.0"]

    @given(compiled_timelines())
    def test_compiled_timelines_round_trip(self, timeline):
        text = dump_artifact(timeline.to_json())
        again = Timeline.from_json(json.loads(text))
        assert again == timeline
        assert dump_artifact(again.to_json()) == text

    @given(raw_timelines(unit=exact_values, signed=exact_values, times=exact_times))
    def test_round_trip_keeps_signed_zeros_and_integers(self, timeline):
        text = dump_artifact(timeline.to_json())
        again = Timeline.from_json(json.loads(text))
        assert again == timeline
        assert dump_artifact(again.to_json()) == text

    def test_evaluator_shares_element_tracks_of_equal_tracks(self):
        timeline = _dimming_timeline()
        timeline.initial_visibility["m3"] = "hidden"
        groups = KeyframeEvaluator(timeline).groups
        assert [members for _, members in groups] == [["m0"], ["m1", "m2"], ["m3"]]
        # m3 holds m1's track with another visibility
        assert groups[2][0].by_property == groups[1][0].by_property
        assert [element.initially_visible for element, _ in groups] == [False, True, False]

    def test_html_formats_each_distinct_track_once(self, monkeypatch):
        from datareel import adapters

        formatted = []
        css_track = adapters._css_track
        monkeypatch.setattr(adapters, "_css_track",
                            lambda prop, seq: formatted.append(prop) or css_track(prop, seq))
        html = adapters.export_html(_dimming_timeline(), "<svg/>", "narration.wav")
        assert sorted(formatted) == ["opacity", "opacity"]  # m0's track and the dimming
        assert html.count("@keyframes") == 2
        assert '[id="m1"], [id="m2"], [id="m3"] { animation: kf_1 ' in html

    def test_invariant_problems_of_a_shared_track_name_every_holder(self):
        bad = (Keyframe(2.0, "opacity", 0.0, "linear"), Keyframe(1.0, "opacity", 1.0, "linear"),
               Keyframe(9.0, "scale", 1.0, "linear"))
        timeline = Timeline(duration=5.0, tracks={
            "b": bad, "a": bad, "ok": (Keyframe(1.0, "opacity", 0.0, "linear"),)})
        assert timeline_invariant_violations(timeline) == [
            "b: keyframe time 9.0 outside [0,5.0]",
            "b/opacity: keyframes not strictly time-sorted",
            "a: keyframe time 9.0 outside [0,5.0]",
            "a/opacity: keyframes not strictly time-sorted",
        ]


@st.composite
def shared_timelines(draw):
    """Timelines over HOSTILE_IDS whose elements hold a few drawn tracks: as
    one shared tuple, as equal tuples apart, as a twin whose numbers compare
    equal but may differ in type or sign, or as a track of their own. Times
    and values mix ints, floats and signed zeros."""
    def track():
        return tuple(Keyframe(draw(exact_times), draw(st.sampled_from(PROPERTIES)),
                              draw(exact_values), draw(st.sampled_from(EASINGS)))
                     for _ in range(draw(st.integers(0, 3))))

    def twin(held):
        """held with each number drawn again among the numbers equal to it."""
        def equal(x):
            return draw(st.sampled_from([y for y in (0, 0.0, -0.0, 1, 1.0) if y == x] or [x]))
        return tuple(Keyframe(equal(k.time), k.property, equal(k.value), k.easing) for k in held)

    pool = [track() for _ in range(draw(st.integers(1, 3)))]
    tracks = {}
    for eid in draw(st.lists(st.sampled_from(HOSTILE_IDS), unique=True, max_size=8)):
        held = draw(st.sampled_from(pool))
        tracks[eid] = draw(st.sampled_from([held, tuple(list(held)), twin(held), track()]))
    initial = draw(st.dictionaries(st.sampled_from(HOSTILE_IDS),
                                   st.sampled_from(["visible", "hidden"]), max_size=4))
    return Timeline(duration=DURATION, tracks=tracks, initial_visibility=initial)


def _exact(track):
    """A track's keyframes with each number's type and text, so 1 and 1.0, or
    0.0 and -0.0, differ."""
    return tuple((type(k.time), repr(k.time), k.property, type(k.value), repr(k.value), k.easing)
                 for k in track)


class TestTimelineText:
    @given(shared_timelines())
    def test_text_reloads_merging_exactly_the_equal_tracks(self, timeline):
        text = dump_artifact(timeline.to_json())
        assert text == reference_dump_artifact({
            "duration": timeline.duration,
            "initial_visibility": dict(sorted(timeline.initial_visibility.items())),
            "tracks": [{"element_id": eid, "keyframes": [
                {"time": k.time, "property": k.property, "value": k.value, "easing": k.easing}
                for k in timeline.tracks[eid]]} for eid in sorted(timeline.tracks)],
        })
        for again in (Timeline.from_json(json.loads(text)), Timeline.from_text(text)):
            assert again.tracks.keys() == timeline.tracks.keys()
            for a in timeline.tracks:
                assert _exact(again.tracks[a]) == _exact(timeline.tracks[a])
                for b in timeline.tracks:
                    assert (again.tracks[a] is again.tracks[b]) == (
                        _exact(timeline.tracks[a]) == _exact(timeline.tracks[b]))
            assert dump_artifact(again.to_json()) == text

    @given(shared_timelines(), st.data())
    def test_from_text_reads_edited_text_as_from_json(self, timeline, data):
        text = dump_artifact(timeline.to_json())
        edited = data.draw(edited_texts(text))
        assert _outcome(Timeline.from_text, edited) == _outcome(
            lambda x: Timeline.from_json(json.loads(x)), edited)


@st.composite
def edited_texts(draw, text):
    """text, a written timeline, edited in place: a slice replaced, a
    character changed at either end of a track row or of the text, a row
    duplicated or dropped, a number written another way, a trailing comma,
    whitespace inserted, or a second "tracks" key."""
    lines = text.split("\n")
    rows = [i for i, line in enumerate(lines) if line.startswith('    {"element_id"')]
    kind = draw(st.sampled_from(["slice", "end", "end", "row", "number", "comma", "space",
                                 "tracks"]))
    if kind == "slice":
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 4)))
        return text[:start] + draw(st.text('{}[]",:.\n -0e1\\a', max_size=3)) + text[end:]
    if kind == "end":  # a character replaced, deleted, or inserted before or after it
        ends = [i for m in re.finditer("{.*}", text) for i in (m.start(), m.end() - 1)]
        at = draw(st.sampled_from(ends + list(range(len(text) - 7, len(text)))))
        char = draw(st.sampled_from('{}[]",: \na0'))
        start, end, new = draw(st.sampled_from([(at, at + 1, char), (at, at + 1, ""),
                                                (at, at, char), (at + 1, at + 1, char)]))
        return text[:start] + new + text[end:]
    if kind == "row" and rows:
        i = draw(st.sampled_from(rows))
        if draw(st.booleans()):  # dropped, with the comma before it when it is the last
            if not lines[i].endswith(",") and i - 1 in rows:
                lines[i - 1] = lines[i - 1][:-1]
            del lines[i]
        else:
            lines.insert(i, lines[i].removesuffix(",") + ",")
        return "\n".join(lines)
    if kind == "number":
        match = draw(st.sampled_from(list(re.finditer(r"-?\d+(\.\d+)?", text))))
        number = match[0]
        forms = [number + "e0", number + "E+0", number + (".00" if "." not in number else "00")]
        return text[:match.start()] + draw(st.sampled_from(forms)) + text[match.end():]
    if kind == "comma":
        i = draw(st.sampled_from([i for i, c in enumerate(text) if c in "]}"]))
        return text[:i] + "," + text[i:]
    if kind == "space" and rows:
        line = lines[draw(st.sampled_from(rows))]
        i = draw(st.integers(0, len(line)))
        spaced = line[:i] + draw(st.sampled_from([" ", "\n", "\t", "\n    "])) + line[i:]
        return text.replace(line, spaced, 1)
    if kind == "tracks":
        second = '  "tracks": [' + (lines[rows[0]].strip().removesuffix(",") if rows else "") + "]"
        if draw(st.booleans()):
            return text.replace("{\n", "{\n" + second + ",\n", 1)
        return text[:-len("\n}\n")] + ",\n" + second + "\n}\n"
    return text


def _outcome(read, text):
    """What read(text) returns, as the values and types of its fields and which
    elements share a track, or the type and message of what it raises."""
    try:
        timeline = read(text)
    except Exception as e:
        return type(e), str(e)
    tracks = timeline.tracks
    return (type(timeline.duration), repr(timeline.duration),
            list(timeline.initial_visibility.items()),
            [(eid, _exact(track), next(e for e in tracks if tracks[e] is track))
             for eid, track in tracks.items()])

