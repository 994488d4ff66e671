import json

import pytest

from datareel.designer import (
    build_designer_prompt,
    designer_output_to_json,
    parse_designer_response,
    run_designer,
    validate_animation_sequence,
    validate_designer_output,
)
from datareel.ingest import load_template, parse_csv, render_table_text
from datareel.model import (
    AnimationDirective,
    JsonTypeError,
    VisualizationSpec,
)
from datareel.runtime import ChatSession, MockChatBackend, RepairExhausted

NARRATION = (
    "The chart shows three series over a week. "
    "Series A rises sharply in the middle. "
    "Series B stays flat until the end. "
    "Finally everything fades away."
)

VIS = VisualizationSpec(
    spec={"mark": "line", "encoding": {"x": {"field": "d"}, "y": {"field": "v"}},
          "data": {"values": [{"d": 1, "v": 2}]}},
    vis_type="line",
)


@pytest.fixture
def table():
    rows = "\n".join(f"d{i},{i}" for i in range(6))
    return parse_csv("day,value\n" + rows, "Six rows")


def _directive(animation, narration, target="Series A", index=(0,), explanation="why"):
    return {
        "animation": animation,
        "narration": narration,
        "target": target,
        "index": list(index),
        "explanation": explanation,
    }


def _reply(animations=None, annotations=None, spec=None):
    return json.dumps({
        "Annotated_Visualization": spec if spec is not None else {
            "layer": [{"mark": "line", "encoding": {}}],
        },
        "Annotated_Narration_for_Animation": animations if animations is not None else [
            _directive("Line-wipe-in", "The chart shows three series over a week.")
        ],
        "Annotated_Narration_for_Annotation": annotations if annotations is not None else [],
    })


class TestPrompt:
    def test_reblanked_prompt_matches_stored_template(self, table):
        prompt = build_designer_prompt(VIS, NARRATION, table)
        reblanked = (
            prompt
            .replace(json.dumps(VIS.spec), "{{visualization}}")
            .replace(render_table_text(table, 100), "{{table}}")
            .replace(NARRATION, "{{narration}}")
        )
        assert reblanked == load_template("designer")

    def test_anchor_lines(self, table):
        text = build_designer_prompt(VIS, NARRATION, table)
        assert text.startswith("You are a data video designer.")
        assert "Insert animations inside the narration text where you feel they are needed" in text
        assert "Narration text cannot be modified." in text
        assert "The text annotation should be short (e.g., fewer than 6 words)." in text


class TestParse:
    def test_minimal_valid(self, table):
        output = parse_designer_response(_reply(), table)
        assert len(output.animation_directives) == 1
        assert output.animation_directives[0].animation == "Line-wipe-in"

    def test_unknown_animation(self, table):
        reply = _reply(animations=[_directive("Fade-in", "The chart"),
                                   _directive("Slide-in", "The chart")])
        with pytest.raises(JsonTypeError) as err:
            parse_designer_response(reply, table)
        assert str(err.value).startswith(
            "Annotated_Narration_for_Animation[1]: unknown animation 'Slide-in'; "
            "one of 'Axes-fade-in', 'Bar-grow-in', ")
        assert str(err.value).endswith(", 'Fade-out'")

    def test_unknown_annotation_type(self, table):
        reply = _reply(annotations=[{
            "type": ["banner"], "description": "x", "index": [], "nar": "The chart",
        }])
        with pytest.raises(JsonTypeError) as err:
            parse_designer_response(reply, table)
        assert str(err.value) == (
            "Annotated_Narration_for_Annotation[0]: unknown annotation type 'banner'; "
            "one of 'mark label', 'circle', 'text', 'rule', 'trend line', 'arrow'")

    def test_empty_type_items_dropped(self, table):
        reply = _reply(annotations=[
            {"type": [], "whatever": True},
            {"type": ["text"], "description": "keep", "index": [1], "nar": "Series A"},
        ])
        output = parse_designer_response(reply, table)
        assert len(output.annotation_directives) == 1
        assert output.annotation_directives[0].description == "keep"

    def test_index_out_of_range(self, table):
        reply = _reply(animations=[_directive("Fade-in", "Series A", index=(0, 6))])
        with pytest.raises(JsonTypeError) as err:
            parse_designer_response(reply, table)
        assert str(err.value) == ("Annotated_Narration_for_Animation[0].index[1]: "
                                  "row 6 out of range (table has 6 rows)")

    def test_negative_index(self, table):
        reply = _reply(annotations=[
            {"type": []},
            {"type": ["text"], "description": "x", "index": [-1], "nar": "Series A"}])
        with pytest.raises(JsonTypeError) as err:
            parse_designer_response(reply, table)
        # The dropped item still counts in the position.
        assert str(err.value) == ("Annotated_Narration_for_Annotation[1].index[0]: "
                                  "row -1 out of range (table has 6 rows)")

    def test_missing_key(self, table):
        payload = json.loads(_reply())
        del payload["Annotated_Visualization"]
        with pytest.raises(JsonTypeError):
            parse_designer_response(json.dumps(payload), table)

    def test_missing_explanation_key(self, table):
        item = _directive("Fade-in", "Series A")
        del item["explanation"]
        with pytest.raises(JsonTypeError):
            parse_designer_response(_reply(animations=[item]), table)

    def test_item_rule_is_reported_at_the_item_path(self, table):
        # what the built directive rejects is named by the reply item it came from
        reply = _reply(animations=[_directive("Fade-in", "Series A"), _directive("Fade-in", " ")])
        with pytest.raises(JsonTypeError) as err:
            parse_designer_response(reply, table)
        assert str(err.value) == (
            "Annotated_Narration_for_Animation[1]: narration segment must be non-empty")

    def test_serialization_mirrors_reply_keys(self, table):
        output = parse_designer_response(_reply(), table)
        payload = designer_output_to_json(output)
        assert list(payload) == [
            "Annotated_Visualization",
            "Annotated_Narration_for_Animation",
            "Annotated_Narration_for_Annotation",
        ]


def _ad(animation, narration, target="A", index=()):
    return AnimationDirective(
        animation=animation, narration=narration, target=target, index=tuple(index),
    )


FIRST = "The chart shows three series over a week."
SECOND = "Series A rises sharply in the middle."
THIRD = "Series B stays flat until the end."
FOURTH = "Finally everything fades away."


class TestLegalityRules:
    def test_clean_sequence_passes(self):
        directives = [
            _ad("Axes-fade-in", FIRST, target="axes"),
            _ad("Line-wipe-in", FIRST, target="all lines", index=(0, 1, 2)),
            _ad("Highlight-one-and-fade-others", SECOND, target="A", index=(0,)),
            _ad("Fade-out", FOURTH, target="all lines", index=(0, 1, 2)),
        ]
        report = validate_animation_sequence(directives, NARRATION)
        assert report.passing

    def test_axes_fade_in_outside_first_sentence(self):
        report = validate_animation_sequence(
            [_ad("Axes-fade-in", SECOND, target="axes")], NARRATION
        )
        assert [v.code for v in report.violations] == ["axes-first-sentence"]

    def test_emphasis_before_entrance(self):
        directives = [
            _ad("Highlight-one-and-fade-others", SECOND, target="A", index=(0,)),
            _ad("Fade-in", THIRD, target="A", index=(0,)),
        ]
        report = validate_animation_sequence(directives, NARRATION)
        assert [v.code for v in report.violations] == ["appear-before-emphasis"]

    def test_exit_before_entrance(self):
        directives = [
            _ad("Fade-out", SECOND, target="A", index=(0,)),
            _ad("Fade-in", THIRD, target="A", index=(0,)),
        ]
        report = validate_animation_sequence(directives, NARRATION)
        assert [v.code for v in report.violations] == ["appear-before-emphasis"]

    def test_emphasis_after_exit(self):
        directives = [
            _ad("Fade-out", SECOND, target="A", index=(0,)),
            _ad("Bar-bounce", FOURTH, target="A", index=(0,)),
        ]
        report = validate_animation_sequence(directives, NARRATION)
        assert [v.code for v in report.violations] == ["emphasis-after-exit"]

    def test_unlocatable_segment(self):
        directives = [_ad("Fade-in", "Totally rewritten text.", index=(0,))]
        report = validate_animation_sequence(directives, NARRATION)
        assert [v.code for v in report.violations] == ["segment-unlocatable"]

    def test_emphasis_on_target_without_entrance_is_legal(self):
        # elements with no entrance are visible from time zero
        report = validate_animation_sequence(
            [_ad("Bar-bounce", SECOND, target="A", index=(3,))], NARRATION
        )
        assert report.passing

    def test_emphasis_in_same_segment_as_entrance_is_legal(self):
        directives = [
            _ad("Fade-in", SECOND, target="A", index=(0,)),
            _ad("Shine-in-a-short-duration", SECOND, target="A", index=(0,)),
        ]
        assert validate_animation_sequence(directives, NARRATION).passing

    def test_duplicate_directives_get_advisory(self):
        d = _ad("Fade-in", SECOND, target="A", index=(0,))
        report = validate_animation_sequence([d, d], NARRATION)
        assert report.passing
        assert any(a.code == "duplicate-directive" for a in report.advisories)

    def test_permutation_invariance(self):
        directives = [
            _ad("Axes-fade-in", SECOND, target="axes"),
            _ad("Fade-out", SECOND, target="A", index=(0,)),
            _ad("Fade-in", THIRD, target="A", index=(0,)),
            _ad("Bar-bounce", FOURTH, target="A", index=(0,)),
        ]
        def findings(order):
            # Each violation with the place in directives of the item its path names.
            report = validate_animation_sequence([directives[i] for i in order], NARRATION)
            return sorted((v.code, order[int(v.path.removeprefix(
                "Annotated_Narration_for_Animation[").removesuffix("]"))], v.message)
                for v in report.violations)

        baseline = findings(range(len(directives)))
        assert baseline
        assert baseline == findings(range(len(directives))[::-1])

    def test_resolver_intersection_semantics(self):
        # resolved sets intersect -> the emphasis is "on" the entrance's target
        directives = [
            _ad("Bar-bounce", SECOND, target="subset", index=(1,)),
            _ad("Fade-in", THIRD, target="all", index=(0, 1, 2)),
        ]
        report = validate_animation_sequence(directives, NARRATION)
        assert [v.code for v in report.violations] == ["appear-before-emphasis"]

    def test_emphasis_before_one_targets_entrance(self):
        # row 0 has entered, row 1 enters only later: row 1 may not be emphasized yet
        directives = [
            _ad("Fade-in", FIRST, target="A", index=(0,)),
            _ad("Bar-bounce", SECOND, target="A and B", index=(0, 1)),
            _ad("Fade-in", THIRD, target="A and B", index=(0, 1)),
        ]
        report = validate_animation_sequence(directives, NARRATION)
        assert [v.code for v in report.violations] == ["appear-before-emphasis"]


class TestRepeatedSentences:
    """A segment is located from the previous segment's start, so a repeated
    sentence is taken where it is spoken next, and it gets an advisory."""

    NARRATION = "Prices rise. Costs fall. Prices rise."

    def test_emphasis_on_the_repeated_sentence_follows_the_entrance(self):
        directives = [
            _ad("Fade-in", "Prices rise.", target="A", index=(0,)),
            _ad("Fade-in", "Costs fall.", target="B", index=(1,)),
            _ad("Bar-bounce", "Prices rise.", target="B", index=(1,)),
        ]
        report = validate_animation_sequence(directives, self.NARRATION)
        assert report.violations == ()
        assert [(a.code, a.path) for a in report.advisories] == [
            ("ambiguous-segment", "Annotated_Narration_for_Animation[0]"),
            ("ambiguous-segment", "Annotated_Narration_for_Animation[2]")]

    def test_repeated_annotation_segment_gets_an_advisory(self, table):
        output = parse_designer_response(_reply(
            animations=[_directive("Fade-in", "Costs fall.")],
            annotations=[{"type": ["text"], "description": "note", "index": [0],
                          "nar": "Prices rise."}]), table)
        report = validate_designer_output(output, self.NARRATION)
        assert report.passing
        assert [(a.code, a.path) for a in report.advisories] == [
            ("ambiguous-segment", "Annotated_Narration_for_Annotation[0]")]

    def test_a_segment_behind_the_cursor_falls_back_to_its_first_match(self):
        directives = [
            _ad("Fade-in", "Costs fall.", target="B", index=(1,)),
            _ad("Bar-bounce", "Prices rise.", target="B", index=(1,)),
            _ad("Fade-out", "Costs fall.", target="B", index=(1,)),
        ]
        report = validate_animation_sequence(directives, self.NARRATION)
        assert [v.code for v in report.violations] == ["emphasis-after-exit"]


class TestReentrance:
    NARRATION = "One. Two. Three. Four."

    def test_emphasis_after_a_reentrance_is_legal(self):
        directives = [
            _ad("Fade-in", "One.", index=(0,)),
            _ad("Fade-out", "Two.", index=(0,)),
            _ad("Fade-in", "Three.", index=(0,)),
            _ad("Bar-bounce", "Four.", index=(0,)),
        ]
        assert validate_animation_sequence(directives, self.NARRATION).passing

    def test_emphasis_between_the_exit_and_the_reentrance_is_not(self):
        directives = [
            _ad("Fade-in", "One.", index=(0,)),
            _ad("Fade-out", "Two.", index=(0,)),
            _ad("Bar-bounce", "Three.", index=(0,)),
            _ad("Fade-in", "Four.", index=(0,)),
        ]
        report = validate_animation_sequence(directives, self.NARRATION)
        assert [v.code for v in report.violations] == ["emphasis-after-exit"]

    def test_a_reentrance_inside_the_exit_sentence_does_not_count(self):
        # the entrance starts before the exit ends: the target is gone after both
        directives = [
            _ad("Fade-in", "One.", index=(0,)),
            _ad("Fade-out", "Two.", index=(0,)),
            _ad("Fade-in", "Two.", index=(0,)),
            _ad("Bar-bounce", "Four.", index=(0,)),
        ]
        report = validate_animation_sequence(directives, self.NARRATION)
        assert [v.code for v in report.violations] == ["emphasis-after-exit"]

    def test_only_the_reentered_target_is_back(self):
        directives = [
            _ad("Fade-in", "One.", index=(0, 1)),
            _ad("Fade-out", "Two.", index=(0, 1)),
            _ad("Fade-in", "Three.", index=(0,)),
            _ad("Bar-bounce", "Four.", index=(0, 1)),
        ]
        report = validate_animation_sequence(directives, self.NARRATION)
        assert [v.code for v in report.violations] == ["emphasis-after-exit"]


class TestRunDesigner:
    def test_modified_segment_then_valid(self, table):
        bad = _reply(animations=[_directive("Fade-in", "This text was changed.")])
        good = _reply(animations=[_directive("Fade-in", "Series A rises", index=(0,))])
        backend = MockChatBackend([
            {"match": "You are a data video designer.", "reply": bad},
            {"reply": good},
        ])
        session = ChatSession(backend=backend)
        output, report, repair = run_designer(
            session, VIS, NARRATION, table, max_attempts=2
        )
        assert repair.attempts == 2
        assert output.animation_directives[0].narration == "Series A rises"

    def test_unlocatable_annotation_segment_is_repaired(self, table):
        def reply(nar):
            return _reply(annotations=[{"type": ["text"], "description": "note",
                                        "index": [0], "nar": nar}])

        backend = MockChatBackend([{"reply": reply("This text was changed.")},
                                   {"reply": reply("Series A rises")}])
        output, report, repair = run_designer(
            ChatSession(backend=backend), VIS, NARRATION, table, max_attempts=2
        )
        assert repair.attempts == 2
        assert repair.violations_per_attempt[0] == [
            "[segment-unlocatable] at Annotated_Narration_for_Annotation[0]: narration "
            "segment is not a verbatim "
            "excerpt: 'This text was changed.'"
        ]
        assert output.annotation_directives[0].nar == "Series A rises"

    def test_layer_rule_violation_exhausts(self, table):
        bad_spec = {"layer": [{"mark": "line", "encoding": {}}], "mark": "line"}
        reply = _reply(spec=bad_spec)
        backend = MockChatBackend([{"reply": reply}, {"reply": reply}])
        session = ChatSession(backend=backend)
        with pytest.raises(RepairExhausted) as err:
            run_designer(session, VIS, NARRATION, table, max_attempts=2)
        assert any("layer" in v for v in err.value.last_violations)
