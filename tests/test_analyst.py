import json

import pytest

from datareel.analyst import (
    analyst_output_to_json,
    build_analyst_prompt,
    parse_analyst_response,
    run_analyst,
    validate_visualization,
)
from datareel.errors import PreconditionError
from datareel.ingest import load_template, parse_csv, render_table_text
from datareel.model import (
    DataDescription,
    DataTable,
    JsonTypeError,
    VisualizationSpec,
)
from datareel.runtime import ChatSession, MockChatBackend, RepairExhausted

DESCRIPTION = DataDescription(text="Closing stock prices for four IT companies.")


def _minimal_reply(**overrides):
    payload = {
        "Insights": [{"insight": "Prices trend upward.", "type": ["Trend"]}],
        "Visualization": {
            "mark": "line",
            "encoding": {"x": {"field": "date"}, "y": {"field": "price"}},
            "data": {"values": [{"date": "2023-01-03", "price": 125.07}]},
        },
        "Visualization_Type": "line",
        "Narration": "Prices rise steadily.",
    }
    payload.update(overrides)
    return json.dumps(payload)


@pytest.fixture
def small_table():
    return parse_csv("date,price\n2023-01-03,125.07\n2023-01-04,126.36", "Prices")


class TestPrompt:
    def test_reblanked_prompt_matches_stored_template(self, small_table):
        prompt = build_analyst_prompt(DESCRIPTION, small_table)
        reblanked = prompt.replace(
            render_table_text(small_table, 100), "{{table}}"
        ).replace(DESCRIPTION.text, "{{description}}")
        assert reblanked == load_template("analyst")

    def test_anchor_lines(self, small_table):
        text = build_analyst_prompt(DESCRIPTION, small_table)
        assert text.startswith("You are a data analyst. You have a data table at hand.")
        assert "Task 1: Please list the top insights you can gather" in text
        assert (
            "[Change Over Time, Characterize Distribution, Cluster, Comparison, "
            "Correlate, Determine Range, Deviation, Find Anomalies, Find Extremum, "
            "Magnitude, Part to Whole, Sort, Trend]" in text
        )
        assert "[bar, scatter, pie, line]" in text


class TestParse:
    def test_minimal_valid(self):
        output = parse_analyst_response(_minimal_reply())
        assert output.insights[0].types == ("Trend",)
        assert output.visualization.vis_type == "line"
        assert output.narration == "Prices rise steadily."

    def test_missing_narration(self):
        reply = json.loads(_minimal_reply())
        del reply["Narration"]
        with pytest.raises(JsonTypeError) as err:
            parse_analyst_response(json.dumps(reply))
        assert "Narration" in str(err.value)

    def test_unknown_visualization_type(self):
        with pytest.raises(JsonTypeError) as err:
            parse_analyst_response(_minimal_reply(Visualization_Type="heatmap"))
        assert str(err.value) == ("Visualization_Type: unknown visualization type 'heatmap'; "
                                  "one of 'bar', 'scatter', 'pie', 'line'")

    def test_unknown_insight_type(self):
        reply = _minimal_reply(
            Insights=[{"insight": "x", "type": ["Trend"]},
                      {"insight": "y", "type": ["Trend", "Correlation"]}]
        )
        with pytest.raises(JsonTypeError) as err:
            parse_analyst_response(reply)
        assert str(err.value).startswith(
            "Insights[1]: unknown insight type 'Correlation'; one of 'Change Over Time', ")

    def test_empty_insights(self):
        with pytest.raises(JsonTypeError):
            parse_analyst_response(_minimal_reply(Insights=[]))

    def test_empty_type_list(self):
        reply = _minimal_reply(Insights=[{"insight": "x", "type": []}])
        with pytest.raises(JsonTypeError) as err:
            parse_analyst_response(reply)
        assert str(err.value) == "Insights[0]: insight must carry at least one type"

    def test_fenced_reply(self):
        output = parse_analyst_response(
            "Here you go:\n```json\n" + _minimal_reply() + "\n```"
        )
        assert output.narration == "Prices rise steadily."


class TestValidateVisualization:
    def test_index_encoded_is_violation(self):
        spec = VisualizationSpec(
            spec={"mark": "bar", "encoding": {"x": {"field": "index"}}}, vis_type="bar"
        )
        report = validate_visualization(spec)
        assert any(v.code == "index-encoded" for v in report.violations)

    def test_line_without_points_is_advisory_only(self):
        spec = VisualizationSpec(
            spec={"mark": "line", "encoding": {"x": {"field": "d"}}}, vis_type="line"
        )
        report = validate_visualization(spec)
        assert report.passing
        assert any(a.code == "line-points" for a in report.advisories)

    def test_line_with_point_property_passes_clean(self):
        spec = VisualizationSpec(
            spec={"mark": {"type": "line", "point": True}, "encoding": {}}, vis_type="line"
        )
        report = validate_visualization(spec)
        assert report.passing
        assert not any(a.code == "line-points" for a in report.advisories)

    def test_top_level_mark_beside_layer_is_violation(self):
        spec = VisualizationSpec(
            spec={"layer": [{"mark": "bar", "encoding": {}}], "mark": "bar"}, vis_type="bar"
        )
        report = validate_visualization(spec)
        assert any(v.code == "layer-rule" for v in report.violations)

    def test_pie_without_text_layer_advisory(self):
        spec = VisualizationSpec(
            spec={"mark": "arc", "encoding": {"theta": {"field": "v"}}}, vis_type="pie"
        )
        report = validate_visualization(spec)
        assert any(a.code == "pie-label" for a in report.advisories)

    def test_long_title_advisory(self):
        spec = VisualizationSpec(
            spec={"mark": "bar", "encoding": {},
                  "title": "a very long title that definitely has more than ten words total"},
            vis_type="bar",
        )
        report = validate_visualization(spec)
        assert any(a.code == "title-length" for a in report.advisories)

    def test_deterministic(self):
        spec = VisualizationSpec(
            spec={"mark": "line", "encoding": {"x": {"field": "index"}}}, vis_type="line"
        )
        assert validate_visualization(spec) == validate_visualization(spec)


class TestRunAnalyst:
    def test_repair_after_missing_key(self, small_table):
        bad = _minimal_reply()
        bad_obj = json.loads(bad)
        del bad_obj["Insights"]
        backend = MockChatBackend([
            {"match": "You are a data analyst.", "reply": json.dumps(bad_obj)},
            {"reply": _minimal_reply()},
        ])
        session = ChatSession(backend=backend)
        output, report, repair = run_analyst(session, DESCRIPTION, small_table, max_attempts=2)
        assert repair.attempts == 2
        assert repair.final_status == "ok"
        assert output.visualization.vis_type == "line"

    def test_empty_table_refused_before_completion(self):
        table = DataTable(title="t", columns=(("a", ()),), row_count=0)
        backend = MockChatBackend([{"reply": _minimal_reply()}])
        session = ChatSession(backend=backend)
        with pytest.raises(PreconditionError):
            run_analyst(session, DESCRIPTION, table)
        assert backend.calls == 0

    def test_exhaustion(self, small_table):
        backend = MockChatBackend([{"reply": "not json"}, {"reply": "still not"}])
        session = ChatSession(backend=backend)
        with pytest.raises(RepairExhausted):
            run_analyst(session, DESCRIPTION, small_table, max_attempts=2)

    def test_every_accepted_insight_type_is_known(self, small_table):
        backend = MockChatBackend([{"reply": _minimal_reply()}])
        session = ChatSession(backend=backend)
        output, _, _ = run_analyst(session, DESCRIPTION, small_table)
        from datareel.model import INSIGHT_TYPES
        for insight in output.insights:
            assert all(t in INSIGHT_TYPES for t in insight.types)

    def test_serialization_mirrors_reply_keys(self):
        output = parse_analyst_response(_minimal_reply())
        payload = analyst_output_to_json(output)
        assert list(payload) == ["Insights", "Visualization", "Visualization_Type", "Narration"]
        assert list(payload["Insights"][0]) == ["insight", "type"]
