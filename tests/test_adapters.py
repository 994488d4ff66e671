import hashlib
import json
import os
import signal
import sys
import time
import wave
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from datareel.adapters import (
    CommandRenderer,
    CommandSynth,
    CommandTts,
    EmptyNarration,
    MockRenderer,
    MockSynth,
    MockTts,
    PALETTE,
    RendererCrashed,
    RendererRejectedSpec,
    SynthFailure,
    TtsFailure,
    export_html,
    read_rendering,
    render_visualization,
    synthesize_speech,
    synthesize_video,
)
from datareel.binding import UnboundMark, index_marks, parse_svg
from datareel.cli import _exit_code
from datareel.errors import PreconditionError, StageError
from datareel.ingest import parse_csv
from datareel.model import VisualizationSpec
from helpers import reference_match_rows
from datareel.timeline import (
    MAX_TRAILING_SILENCE_S,
    Keyframe,
    PlacedDirective,
    Timeline,
    compile_timeline,
    validate_timings,
)
from test_timeline import _index


def _bar_spec(rows=3):
    return {
        "mark": "bar",
        "encoding": {"x": {"field": "k"}, "y": {"field": "v"}},
        "data": {"values": [{"k": f"k{i}", "v": i + 1} for i in range(rows)]},
    }


@pytest.fixture
def command_renderer(tmp_path):
    """A subprocess renderer that satisfies the same contract as the mock."""
    script = tmp_path / "render.py"
    script.write_text(
        "import json, sys\n"
        "from datareel.adapters import MockRenderer, RendererRejectedSpec\n"
        "spec = json.load(sys.stdin)\n"
        "try:\n"
        "    sys.stdout.write(MockRenderer().render(spec))\n"
        "except RendererRejectedSpec as e:\n"
        "    sys.stderr.write(str(e))\n"
        "    sys.exit(1)\n",
        encoding="utf-8",
    )
    return CommandRenderer([sys.executable, str(script)])


class TestRendererContract:
    @pytest.fixture(params=["mock", "command"])
    def renderer(self, request, command_renderer):
        return MockRenderer() if request.param == "mock" else command_renderer

    def test_bar_rows_carry_metadata(self, renderer):
        svg_text = renderer.render(_bar_spec(3))
        doc = parse_svg(svg_text)
        rects = [el for el in doc.elements if el.tag == "rect"]
        assert [el.get("data-row") for el in rects] == ["0", "1", "2"]

    def test_mark_count_bar_equals_row_count(self, renderer):
        doc = parse_svg(renderer.render(_bar_spec(5)))
        assert len(index_marks(doc).mark_ids()) == 5

    def test_mark_count_line_equals_series_count(self, renderer):
        values = [{"d": d, "v": d, "s": s} for s in ("A", "B", "C") for d in range(4)]
        spec = {
            "mark": "line",
            "encoding": {"x": {"field": "d"}, "y": {"field": "v"},
                         "color": {"field": "s"}},
            "data": {"values": values},
        }
        doc = parse_svg(renderer.render(spec))
        index = index_marks(doc)
        assert len(index.mark_ids()) == 3
        assert {index.entries[e].series_key for e in index.mark_ids()} == {"A", "B", "C"}

    def test_unknown_field_rejected(self, renderer):
        spec = _bar_spec()
        spec["encoding"]["y"]["field"] = "nonexistent"
        with pytest.raises(RendererRejectedSpec):
            renderer.render(spec)

    def test_non_object_layer_rejected(self, renderer):
        spec = {"layer": [1], "data": {"values": [{"a": 1}]}}
        with pytest.raises(RendererRejectedSpec, match='"layer" entry 0 must be a JSON object'):
            renderer.render(spec)

    def test_output_is_deterministic(self, renderer):
        assert renderer.render(_bar_spec()) == renderer.render(_bar_spec())


class TestMockRendererDetails:
    def test_missing_inline_data_rejected(self):
        spec = {"mark": "bar", "encoding": {"x": {"field": "k"}}}
        with pytest.raises(RendererRejectedSpec):
            MockRenderer().render(spec)

    def test_overlay_layers_follow_marks_group(self):
        base = _bar_spec(2)
        layered = {
            "data": base["data"],
            "layer": [
                {"mark": base["mark"], "encoding": base["encoding"]},
                {"data": {"values": [{"k": "k1", "v": 2, "label": "top"}]},
                 "mark": "text",
                 "encoding": {"x": {"field": "k"}, "y": {"field": "v"},
                              "text": {"field": "label"}}},
            ],
        }
        base_doc = parse_svg(MockRenderer().render(base))
        layered_doc = parse_svg(MockRenderer().render(layered))
        base_mark_ids = sorted(index_marks(base_doc).mark_ids())
        layered_mark_ids = sorted(index_marks(layered_doc).mark_ids())
        assert base_mark_ids == layered_mark_ids  # ids stable across re-render

    def test_overlay_datum_matched_back_to_base_rows(self):
        base = _bar_spec(3)
        layered = {
            "data": base["data"],
            "layer": [
                {"mark": base["mark"], "encoding": base["encoding"]},
                {"data": {"values": [{"k": "k2", "v": 3}]},
                 "mark": "point",
                 "encoding": {"x": {"field": "k"}, "y": {"field": "v"}}},
            ],
        }
        doc = parse_svg(MockRenderer().render(layered))
        overlays = [el for el in doc.elements
                    if el.tag == "circle" and "data-row" in el.attrib]
        assert [el.get("data-row") for el in overlays] == ["2"]

    def test_legend_emitted_for_color_encoding(self):
        values = [{"d": 0, "v": 1, "s": "A"}, {"d": 1, "v": 2, "s": "B"}]
        spec = {"mark": "line",
                "encoding": {"x": {"field": "d"}, "y": {"field": "v"},
                             "color": {"field": "s"}},
                "data": {"values": values}}
        doc = parse_svg(MockRenderer().render(spec))
        legend = [el for el in doc.elements if el.get("data-role") == "legend"]
        assert len(legend) == 1


    @pytest.mark.parametrize("mark", ["line", "arc", "pie", "bar"])
    @pytest.mark.parametrize("position", ["base", "overlay"])
    def test_non_object_datum_rejected(self, mark, position):
        encoding = {"x": {"field": "a"}, "y": {"field": "b"}, "color": {"field": "a"}}
        values = [{"a": 1, "b": 2}, 5]
        if position == "base":
            spec = {"mark": mark, "encoding": encoding, "data": {"values": values}}
        else:
            spec = {"data": {"values": [{"a": 1, "b": 2}, {"a": 2, "b": 3}]},
                    "layer": [{"mark": "bar", "encoding": encoding},
                              {"mark": mark, "encoding": encoding,
                               "data": {"values": values}}]}
        with pytest.raises(RendererRejectedSpec, match="datum 1 is not an object"):
            MockRenderer().render(spec)


def _corpus_spec(mark: str, overlay: bool, series: bool) -> dict:
    """A four-row chart drawing `mark` as the base layer, or as an overlay on bars.

    Overlay data matches one base row, two base rows (shared "v"), and none.
    """
    encoding = {"x": {"field": "k"}, "y": {"field": "v"}, "text": {"field": "label"}}
    values = [{"k": f"k{i}", "v": v, "label": f"t{i}"} for i, v in enumerate((3, 1, 3, 2))]
    overlay_values = [{"k": "k1", "v": 1, "label": "t1"}, {"v": 3}, {"k": "k9", "v": 5}]
    if series:
        encoding["color"] = {"field": "s"}
        for i, datum in enumerate(values):
            datum["s"] = "AB"[i % 2]
        for datum, s in zip(overlay_values, "BAB"):
            datum["s"] = s
    if not overlay:
        return {"title": "Corpus", "mark": mark, "encoding": encoding,
                "data": {"values": values}}
    return {"title": "Corpus", "data": {"values": values},
            "layer": [{"mark": "bar", "encoding": encoding},
                      {"mark": mark, "encoding": encoding,
                       "data": {"values": overlay_values}}]}


class TestMarkEmitter:
    def test_corpus_digest(self):
        # every mark family, base and overlay, with and without a series field
        svgs = [MockRenderer().render(_corpus_spec(mark, overlay, series))
                for mark in MockRenderer.SUPPORTED_MARKS
                for overlay in (False, True) for series in (True, False)]
        digest = hashlib.sha256("\n".join(svgs).encode("utf-8")).hexdigest()
        assert digest == "db1823aa3ef510dbc2d19960020919e7fb110e2060419ca52ea0900975cb83be"

    def test_overlay_series_take_the_legend_colours(self):
        # the overlay data lists B before A; base bars and the legend put A first
        doc = parse_svg(MockRenderer().render(_corpus_spec("line", True, True)))
        overlay = [el for el in doc.elements if doc.role_paths[el.get("id")][-1:] == ("overlay",)]
        assert {el.get("data-series"): el.get("stroke") for el in overlay} == {
            "A": PALETTE[0], "B": PALETTE[1]}

    def test_overlay_series_missing_from_the_legend_come_after_it(self):
        spec = _corpus_spec("point", True, True)
        spec["layer"][1]["data"]["values"] = [{"v": 1, "s": "C"}, {"v": 2, "s": "B"}]
        doc = parse_svg(MockRenderer().render(spec))
        overlay = [el for el in doc.elements if doc.role_paths[el.get("id")][-1:] == ("overlay",)]
        assert [(el.get("data-series"), el.get("fill")) for el in overlay] == [
            ("C", PALETTE[2]), ("B", PALETTE[1])]

    @pytest.mark.parametrize("position", ["base", "overlay"])
    def test_equal_series_values_share_a_colour_but_keep_their_text(self, position):
        # 1, 1.0 and True are one dict key, so one series and one legend
        # position; each still writes its own text
        values = [{"k": f"k{i}", "v": i + 1, "s": s} for i, s in enumerate([1, 1.0, True, "1"])]
        encoding = {"x": {"field": "k"}, "y": {"field": "v"}, "color": {"field": "s"}}
        spec = {"mark": "bar", "encoding": encoding, "data": {"values": values}}
        if position == "overlay":
            spec = {"data": {"values": [{"k": "k0", "v": 1, "s": 1}]},
                    "layer": [{"mark": "bar", "encoding": encoding},
                              {"mark": "bar", "encoding": encoding,
                               "data": {"values": values}}]}
        doc = parse_svg(MockRenderer().render(spec))
        bars = [el for el in doc.elements if el.tag == "rect"][-4:]
        assert [el.get("data-series") for el in bars] == ["1", "1.0", "True", "1"]
        assert [el.get("fill") for el in bars] == [PALETTE[0]] * 3 + [PALETTE[1]]

    @pytest.mark.parametrize("mark", MockRenderer.SUPPORTED_MARKS)
    def test_list_and_object_series_cells_are_series(self, mark):
        values = [{"k": "k0", "v": 1, "s": [1]}, {"k": "k1", "v": 2, "s": {"a": 1}},
                  {"k": "k2", "v": 3, "s": [1.0]}]
        spec = {"mark": mark, "data": {"values": values},
                "encoding": {"x": {"field": "k"}, "y": {"field": "v"},
                             "color": {"field": "s"}}}
        doc = parse_svg(MockRenderer().render(spec))
        index = index_marks(doc)
        rows = sorted(tuple(sorted(index.entries[e].data_rows)) for e in index.mark_ids())
        if mark in ("line", "arc", "pie"):
            assert rows == [(0, 2), (1,)]
        else:
            assert rows == [(0,), (1,), (2,)]

    @pytest.mark.parametrize("mark", MockRenderer.SUPPORTED_MARKS)
    def test_null_or_missing_series_is_no_series(self, mark):
        values = [{"k": "k0", "v": 1, "s": "A"}, {"k": "k1", "v": 2, "s": None},
                  {"k": "k2", "v": 3}, {"k": "k3", "v": 4, "s": "B"}]
        spec = {"mark": mark, "data": {"values": values},
                "encoding": {"x": {"field": "k"}, "y": {"field": "v"},
                             "color": {"field": "s"}}}
        svg_text = MockRenderer().render(spec)
        doc = parse_svg(svg_text)
        assert "None" not in svg_text
        assert [el.get("data-series") for el in doc.elements
                if doc.role_paths[el.get("id")] == ("legend",)] == ["A", "B"]
        index = index_marks(doc)
        marks = [doc.by_id[eid] for eid in sorted(index.mark_ids(), key=lambda e: int(e[1:]))]
        series = {tuple(sorted(index.entries[el.get("id")].data_rows)): el.get("data-series")
                  for el in marks}
        if mark in ("line", "arc", "pie"):
            assert series == {(0,): "A", (1, 2): None, (3,): "B"}
        else:
            assert series == {(0,): "A", (1,): None, (2,): None, (3,): "B"}
        for position, el in enumerate(marks):
            colors = {el.get("fill"), el.get("stroke")} - {None, "none", "#333"}
            if mark in ("arc", "pie"):
                assert colors == {PALETTE[position]}
            elif colors:
                assert colors == {PALETTE[{"A": 0, None: 0, "B": 1}[el.get("data-series")]]}


# Cells that compare alike under `==` but not under identity (1, 1.0, True;
# 0, -0.0, False), json.loads's one NaN object, a second NaN, and cells a
# dict cannot hold (lists, objects).
_cells = st.one_of(
    st.sampled_from([0, 1, 2, 1.0, -0.0, 2.5, True, False, None, "", "1", "a",
                     json.loads("NaN"), float("nan")]),
    st.text(alphabet="ab", max_size=2),
    st.lists(st.sampled_from([1, 1.0, "a"]), max_size=2),
    st.dictionaries(st.sampled_from("xy"), st.sampled_from([1, True]), max_size=1),
)
_join_rows = st.dictionaries(st.sampled_from(["k", "v", "s"]), _cells, max_size=3)


class TestOverlayJoin:
    @given(st.lists(_join_rows, min_size=1, max_size=12),
           st.lists(_join_rows, min_size=1, max_size=6))
    def test_overlay_data_rows_equal_the_linear_join(self, base_rows, overlay_rows):
        spec = {"data": {"values": base_rows},
                "layer": [{"mark": "point", "encoding": {}},
                          {"mark": "point", "encoding": {}, "data": {"values": overlay_rows}}]}
        overlay = parse_svg(MockRenderer().render(spec)).elements
        rows = [el.get("data-row") for el in overlay if el.tag == "circle"][len(base_rows):]
        expected = [reference_match_rows(d, base_rows) for d in overlay_rows]
        assert rows == [";".join(map(str, m)) if m else None for m in expected]

    def test_nan_cells_never_match(self):
        nan = json.loads("NaN")
        spec = {"data": {"values": [{"k": nan}, {"k": 1}]},
                "layer": [{"mark": "point", "encoding": {}},
                          {"mark": "point", "encoding": {},
                           "data": {"values": [{"k": nan}, {"k": True}]}}]}
        circles = [el for el in parse_svg(MockRenderer().render(spec)).elements
                   if el.tag == "circle"]
        assert [el.get("data-row") for el in circles] == ["0", "1", None, "1"]


BAR_TABLE = parse_csv("k,v\n" + "\n".join(f"k{i},{i + 1}" for i in range(3)), "bars")


class TestRenderVisualization:
    def test_happy_path(self):
        spec = VisualizationSpec(spec=_bar_spec(), vis_type="bar")
        rendering = render_visualization(spec, MockRenderer(), BAR_TABLE)
        assert rendering.svg.startswith("<svg")
        reparsed = parse_svg(rendering.svg)
        assert rendering.doc.to_text() == reparsed.to_text()
        assert [el.get("id") for el in rendering.doc.elements] == [
            el.get("id") for el in reparsed.elements]
        assert rendering.index == index_marks(reparsed, BAR_TABLE)

    def test_deeply_nested_rendering_is_read(self):
        # A renderer's SVG may nest to any depth, far past the recursion limit.
        depth = 5000
        rendering = read_rendering(
            '<svg><g data-role="marks">' + "<g>" * depth + '<rect data-row="1"/>'
            + "</g>" * depth + "</g></svg>", BAR_TABLE)
        rect = rendering.doc.elements[-1]
        assert rendering.index.ids_of_rows([1]) == {rect.get("id")}
        assert rendering.doc.role_paths[rect.get("id")] == ("marks",)

    def test_structurally_invalid_spec_is_precondition_error(self):
        spec = VisualizationSpec(spec={"data": {}}, vis_type="bar")
        with pytest.raises(PreconditionError):
            render_visualization(spec, MockRenderer(), BAR_TABLE)

    def test_metadata_missing_detected(self):
        class BadRenderer:
            def render(self, spec):
                return '<svg><g data-role="marks"><rect/></g></svg>'

        spec = VisualizationSpec(spec=_bar_spec(), vis_type="bar")
        with pytest.raises(UnboundMark) as err:
            render_visualization(spec, BadRenderer(), BAR_TABLE)
        assert "data-row" in str(err.value)

    def test_invalid_svg_output_is_adapter_error(self):
        class GarbageRenderer:
            def render(self, spec):
                return "not xml at all"

        spec = VisualizationSpec(spec=_bar_spec(), vis_type="bar")
        with pytest.raises(RendererCrashed):
            render_visualization(spec, GarbageRenderer(), BAR_TABLE)

    def test_command_renderer_rejection_propagates(self, command_renderer):
        spec = VisualizationSpec(
            spec={"mark": "bar", "encoding": {"x": {"field": "zzz"}},
                  "data": {"values": [{"k": 1}]}},
            vis_type="bar",
        )
        with pytest.raises(RendererRejectedSpec):
            render_visualization(spec, command_renderer, BAR_TABLE)


@pytest.fixture
def command_tts(tmp_path):
    script = tmp_path / "tts.py"
    script.write_text(
        "import json, sys, wave\n"
        "req = json.load(sys.stdin)\n"
        "tokens = req['text'].split()\n"
        "duration = round(len(tokens) * 0.25, 9)\n"
        "with wave.open(req['audio_path'], 'wb') as w:\n"
        "    w.setnchannels(1); w.setsampwidth(2); w.setframerate(8000)\n"
        "    w.writeframes(b'\\x00\\x00' * int(duration * 8000))\n"
        "timings = [[t, round(i * 0.25, 9), round((i + 1) * 0.25, 9)]\n"
        "           for i, t in enumerate(tokens)]\n"
        "json.dump({'audio_path': req['audio_path'], 'duration': duration,\n"
        "           'timings': timings}, sys.stdout)\n",
        encoding="utf-8",
    )
    return CommandTts([sys.executable, str(script)])


class TestTtsContract:
    @pytest.fixture(params=["mock", "command"])
    def tts(self, request, command_tts):
        return MockTts() if request.param == "mock" else command_tts

    def test_words_match_whitespace_tokens(self, tts, tmp_path):
        narration = "Hello brave  new world"
        result = synthesize_speech(narration, tts, tmp_path / "a.wav")
        assert [w["word"] for w in result["words"]] == narration.split()
        assert validate_timings(narration, result) == []

    def test_audio_file_duration_matches(self, tts, tmp_path):
        result = synthesize_speech("one two three", tts, tmp_path / "a.wav")
        with wave.open(str(tmp_path / "a.wav"), "rb") as w:
            seconds = w.getnframes() / w.getframerate()
        assert seconds == pytest.approx(result["duration"], abs=1e-3)


class TestMockTts:
    def test_hello_world(self, tmp_path):
        result = synthesize_speech("Hello world", MockTts(), tmp_path / "a.wav")
        assert [(w["word"], w["start"], w["end"]) for w in result["words"]] == [
            ("Hello", 0.0, 0.3), ("world", 0.3, 0.6),
        ]
        assert result["duration"] == 0.6

    def test_ten_tokens_three_seconds(self, tmp_path):
        narration = " ".join(f"w{i}" for i in range(10))
        result = synthesize_speech(narration, MockTts(), tmp_path / "a.wav")
        assert result["duration"] == 3.0
        assert len(result["words"]) == 10

    def test_empty_narration(self, tmp_path):
        with pytest.raises(EmptyNarration):
            synthesize_speech("   ", MockTts(), tmp_path / "a.wav")

    def test_char_spans_cover_tokens(self, tmp_path):
        narration = "ab  cd"
        result = synthesize_speech(narration, MockTts(), tmp_path / "a.wav")
        spans = [(w["char_start"], w["char_end"]) for w in result["words"]]
        assert spans == [(0, 2), (4, 6)]


class TestCommandTtsFallback:
    def test_timings_estimated_when_missing(self, tmp_path):
        script = tmp_path / "tts_no_timings.py"
        script.write_text(
            "import json, sys, wave\n"
            "req = json.load(sys.stdin)\n"
            "with wave.open(req['audio_path'], 'wb') as w:\n"
            "    w.setnchannels(1); w.setsampwidth(2); w.setframerate(8000)\n"
            "    w.writeframes(b'\\x00\\x00' * 8000)\n"
            "json.dump({'audio_path': req['audio_path'], 'duration': 1.0}, sys.stdout)\n",
            encoding="utf-8",
        )
        tts = CommandTts([sys.executable, str(script)])
        result = synthesize_speech("alpha beta gamma", tts, tmp_path / "a.wav")
        assert any(a["code"] == "tts-timings-estimated" for a in result["advisories"])
        assert result["words"][-1]["end"] == pytest.approx(1.0)
        assert validate_timings("alpha beta gamma", result) == []

    def test_estimated_words_end_by_the_duration(self, tmp_path):
        # Rounded to 9 decimals, the last word would end at 1.0 s, past the duration.
        tts = _stub_tts(tmp_path, '{"audio_path": $AUDIO, "duration": 0.9999999996}')
        result = synthesize_speech("alpha beta gamma", tts, tmp_path / "a.wav")
        assert result["words"][-1]["end"] == result["duration"] == 0.9999999996

    def test_nonzero_exit_is_tts_failure(self, tmp_path):
        script = tmp_path / "tts_fail.py"
        script.write_text("import sys; sys.exit(3)\n", encoding="utf-8")
        tts = CommandTts([sys.executable, str(script)])
        with pytest.raises(TtsFailure):
            synthesize_speech("hello", tts, tmp_path / "a.wav")


def _stub_tts(tmp_path, reply: str, write_audio: bool = True) -> CommandTts:
    """A TTS command that writes one second of silence unless told not to,
    and prints reply, with $AUDIO replaced by the requested path."""
    script = tmp_path / "tts_stub.py"
    script.write_text(
        "import json, sys, wave\n"
        "req = json.load(sys.stdin)\n"
        + ("with wave.open(req['audio_path'], 'wb') as w:\n"
           "    w.setnchannels(1); w.setsampwidth(2); w.setframerate(8000)\n"
           "    w.writeframes(b'\\x00\\x00' * 8000)\n" if write_audio else "")
        + f"sys.stdout.write({reply!r}.replace('$AUDIO', json.dumps(req['audio_path'])))\n",
        encoding="utf-8",
    )
    return CommandTts([sys.executable, str(script)])


class TestCommandTtsReply:
    # json.loads reads NaN and Infinity, and float() parses them from strings.
    @pytest.mark.parametrize("duration", ["NaN", "Infinity", "-Infinity", "-1", "0",
                                          '"NaN"', '"inf"'])
    def test_duration_must_be_finite_and_positive(self, tmp_path, duration):
        tts = _stub_tts(tmp_path, '{"audio_path": $AUDIO, "duration": %s}' % duration)
        with pytest.raises(TtsFailure, match="duration"):
            synthesize_speech("alpha beta", tts, tmp_path / "a.wav")

    @pytest.mark.parametrize("start, end", [("NaN", "0.5"), ("0.0", "Infinity"),
                                            ('"nan"', "0.5")])
    def test_word_timings_must_be_finite(self, tmp_path, start, end):
        tts = _stub_tts(tmp_path, '{"audio_path": $AUDIO, "duration": 1.0, "timings": '
                                  '[["alpha", %s, %s], ["beta", 0.5, 1.0]]}' % (start, end))
        with pytest.raises(TtsFailure, match="invalid word timing"):
            synthesize_speech("alpha beta", tts, tmp_path / "a.wav")

    @pytest.mark.parametrize("timings", ['[["alpha", -1, 0.5], ["beta", 0.5, 1.0]]',
                                         '[["alpha", 0.5, 0.5], ["beta", 0.5, 1.0]]',
                                         '[["alpha", 0.0], ["beta", 0.5, 1.0]]',
                                         '[["alpha", 0.0, [1]], ["beta", 0.5, 1.0]]'])
    def test_malformed_word_timings_are_tts_failures(self, tmp_path, timings):
        tts = _stub_tts(tmp_path, '{"audio_path": $AUDIO, "duration": 1.0, "timings": %s}'
                        % timings)
        with pytest.raises(TtsFailure):
            synthesize_speech("alpha beta", tts, tmp_path / "a.wav")

    def test_estimated_timings_must_be_finite(self, tmp_path):
        # Finite, but the estimate of the first word's end overflows.
        tts = _stub_tts(tmp_path, '{"audio_path": $AUDIO, "duration": 1e308}')
        with pytest.raises(TtsFailure, match="invalid word timing"):
            synthesize_speech("alpha beta", tts, tmp_path / "a.wav")

    @pytest.mark.parametrize("past_end, accepted", [
        (0.0, True), (MAX_TRAILING_SILENCE_S, True), (MAX_TRAILING_SILENCE_S + 0.5, False),
        (1e9, False), (1e308, False)])
    def test_duration_ends_near_the_last_word(self, tmp_path, past_end, accepted):
        tts = _stub_tts(tmp_path, '{"audio_path": $AUDIO, "duration": %r, "timings": '
                                  '[["alpha", 0.0, 0.5], ["beta", 0.5, 1.0]]}' % (1.0 + past_end))
        if accepted:
            assert synthesize_speech("alpha beta", tts, tmp_path / "a.wav")["duration"] == \
                1.0 + past_end
        else:
            with pytest.raises(TtsFailure, match="past the last word's end at 1.0 s"):
                synthesize_speech("alpha beta", tts, tmp_path / "a.wav")

    @pytest.mark.parametrize("last_end, accepted", [
        (2 * MAX_TRAILING_SILENCE_S, True), (2 * MAX_TRAILING_SILENCE_S + 0.5, False),
        (1e9, False)])
    def test_words_end_within_the_limit_per_word(self, tmp_path, last_end, accepted):
        tts = _stub_tts(tmp_path, '{"audio_path": $AUDIO, "duration": %r, "timings": '
                                  '[["alpha", 0.0, 0.5], ["beta", 0.5, %r]]}' % (last_end, last_end))
        if accepted:
            assert synthesize_speech("alpha beta", tts, tmp_path / "a.wav")["words"][-1][
                "end"] == last_end
        else:
            with pytest.raises(TtsFailure, match="more than 10 s for each of 2 words"):
                synthesize_speech("alpha beta", tts, tmp_path / "a.wav")

    def test_estimated_words_end_within_the_limit_per_word(self, tmp_path):
        # Without timings the words are spread over the whole duration.
        tts = _stub_tts(tmp_path, '{"audio_path": $AUDIO, "duration": 1e307}')
        with pytest.raises(TtsFailure, match="words end at 1e[+]307 s, more than 10 s"):
            synthesize_speech("alpha beta", tts, tmp_path / "a.wav")

    def test_no_audio_file_is_tts_failure(self, tmp_path):
        tts = _stub_tts(tmp_path, '{"audio_path": $AUDIO, "duration": 1.0}', write_audio=False)
        with pytest.raises(TtsFailure, match="no audio file"):
            synthesize_speech("alpha beta", tts, tmp_path / "a.wav")
        assert not (tmp_path / "a.wav").exists()


def _six_second_timeline():
    placed = [
        PlacedDirective("Fade-in", frozenset({"m0"}), (2.0, 3.0)),
        PlacedDirective("Fade-out", frozenset({"m1"}), (4.0, 5.0)),
    ]
    timeline, _ = compile_timeline(placed, _index(), 6.0)
    return timeline


class TestMockSynth:
    def test_frame_count(self, tmp_path):
        timeline = _six_second_timeline()
        path = synthesize_video(timeline, tmp_path / "x.svg", tmp_path / "a.wav",
                                MockSynth(fps=30), tmp_path / "video.json")
        manifest = json.loads((tmp_path / "video.json").read_text())
        assert manifest["frame_count"] == 180
        assert manifest["duration"] == 6.0

    def test_zero_duration_fails(self, tmp_path):
        timeline = Timeline(duration=0.0)
        with pytest.raises(SynthFailure):
            synthesize_video(timeline, "x.svg", "a.wav", MockSynth(), tmp_path / "v.json")

    def test_hidden_element_excluded_before_entrance(self, tmp_path):
        timeline = _six_second_timeline()
        MockSynth(fps=30).synthesize(timeline, "x.svg", "a.wav", tmp_path / "v.json")
        manifest = json.loads((tmp_path / "v.json").read_text())
        for frame in manifest["frames"]:
            if frame["index"] < 60:  # t < 2.0
                assert "m0" not in frame["visible"]
        assert "m0" in manifest["frames"][100]["visible"]

    def test_exit_element_excluded_after_exit(self, tmp_path):
        timeline = _six_second_timeline()
        MockSynth(fps=30).synthesize(timeline, "x.svg", "a.wav", tmp_path / "v.json")
        manifest = json.loads((tmp_path / "v.json").read_text())
        for frame in manifest["frames"]:
            if frame["time"] > 5.0:
                assert "m1" not in frame["visible"]


class TestCommandSynth:
    def test_arguments_and_success(self, tmp_path):
        script = tmp_path / "synth.py"
        script.write_text(
            "import sys, pathlib\n"
            "timeline, svg, audio, out = sys.argv[1:5]\n"
            "pathlib.Path(out).write_text('video bytes: ' + pathlib.Path(timeline).name)\n",
            encoding="utf-8",
        )
        synth = CommandSynth([sys.executable, str(script)])
        out = synth.synthesize(_six_second_timeline(), tmp_path / "x.svg",
                               tmp_path / "a.wav", tmp_path / "video.mp4")
        assert (tmp_path / "video.mp4").read_text().startswith("video bytes")

    def test_failure_propagates(self, tmp_path):
        script = tmp_path / "synth_fail.py"
        script.write_text("import sys; sys.stderr.write('boom'); sys.exit(1)\n")
        synth = CommandSynth([sys.executable, str(script)])
        with pytest.raises(SynthFailure) as err:
            synth.synthesize(_six_second_timeline(), "x.svg", "a.wav", tmp_path / "v.mp4")
        assert "boom" in str(err.value)

    def test_no_output_file_is_synth_failure(self, tmp_path):
        script = tmp_path / "synth_silent.py"
        script.write_text("import sys\n", encoding="utf-8")
        synth = CommandSynth([sys.executable, str(script)])
        with pytest.raises(SynthFailure, match="no file"):
            synth.synthesize(_six_second_timeline(), "x.svg", "a.wav", tmp_path / "v.mp4")

    @pytest.mark.parametrize("ending", ["success", "failure", "timeout"])
    def test_its_timeline_input_is_removed_however_the_call_ends(self, tmp_path, ending):
        # The timeline.json input was written beside the output and left there.
        seen = tmp_path / "seen"
        does = {"success": 'cat "$1" > "$(dirname "$0")/copy"; echo video > "$4"',
                "failure": "exit 3", "timeout": "sleep 30"}[ending]
        synth = CommandSynth(["sh", "-c", f'echo "$1" > "$0"; {does}', str(seen)])
        synth.timeout = 0.5
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        if ending == "success":
            synth.synthesize(_six_second_timeline(), tmp_path / "x.svg", tmp_path / "a.wav",
                             out_dir / "video.mp4")
            assert Timeline.from_text((tmp_path / "copy").read_text()) == _six_second_timeline()
        else:
            with pytest.raises(SynthFailure):
                synth.synthesize(_six_second_timeline(), tmp_path / "x.svg",
                                 tmp_path / "a.wav", out_dir / "video.mp4")
        assert sorted(p.name for p in out_dir.iterdir()) == (
            ["video.mp4"] if ending == "success" else [])
        timeline_path = Path(seen.read_text().strip())
        assert timeline_path.name == "video.timeline.json"
        assert not timeline_path.parent.exists()


def _running(pid: int) -> bool:
    """Whether pid is a live process. A zombie, killed but not yet reaped by
    the process that adopted it, is not; without /proc it counts as live."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return not Path("/proc/self").exists()


_TOOL_FAILURES = {  # how the command fails -> its argv, and what the message names
    "missing-executable": (["/nonexistent/datareel-tool"], "No such file or directory"),
    "timeout": ([sys.executable, "-c", "import time; time.sleep(30)"], "timed out"),
    "nonzero-exit": ([sys.executable, "-c",
                      "import sys; sys.stderr.write('tool broke'); sys.exit(3)"], "tool broke"),
    "signal": ([sys.executable, "-c", "import os, signal; os.kill(os.getpid(), signal.SIGKILL)"],
               "-9"),
}


class TestCommandFailures:
    """Each way a tool command can fail is the tool's adapter error, exit 4."""

    @pytest.mark.parametrize("how", list(_TOOL_FAILURES))
    @pytest.mark.parametrize("adapter, stage, call, error, exit_error", [
        (CommandRenderer, "base_render", lambda tool, tmp: tool.render(_bar_spec()),
         RendererCrashed, RendererRejectedSpec),
        (CommandTts, "tts", lambda tool, tmp: tool.synthesize("alpha beta", tmp / "a.wav"),
         TtsFailure, TtsFailure),
        (CommandSynth, "video", lambda tool, tmp: tool.synthesize(
            _six_second_timeline(), tmp / "x.svg", tmp / "a.wav", tmp / "v.mp4"),
         SynthFailure, SynthFailure),
    ], ids=["renderer", "tts", "synth"])
    def test_failure_is_the_tools_adapter_error(self, tmp_path, how, adapter, stage, call,
                                                 error, exit_error):
        """exit_error is the error of a nonzero exit, error that of the others."""
        command, cause = _TOOL_FAILURES[how]
        tool = adapter(command)
        if how == "timeout":
            tool.timeout = 0.2  # the runner kills the sleeping child's process group
        expected = exit_error if how == "nonzero-exit" else error
        with pytest.raises(expected) as err:
            call(tool, tmp_path)
        assert type(err.value) is expected
        assert _exit_code(StageError(stage, err.value)) == 4
        assert cause in str(err.value)

    def test_a_timed_out_tool_takes_its_children_with_it(self, tmp_path):
        # Only the tool's own process was killed: its children ran on.
        pid_file = tmp_path / "pid"
        renderer = CommandRenderer(["sh", "-c", 'sleep 30 & echo $! > "$0"; wait', str(pid_file)])
        renderer.timeout = 0.2
        with pytest.raises(RendererCrashed, match="timed out"):
            renderer.render(_bar_spec())
        pid = int(pid_file.read_text())
        try:
            deadline = time.monotonic() + 5.0
            while _running(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not _running(pid)
        finally:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)

    def test_renderer_output_that_is_not_utf8_is_a_crash(self):
        # A UnicodeDecodeError escaped here, which exits 1.
        renderer = CommandRenderer([sys.executable, "-c",
                                    "import sys; sys.stdout.buffer.write(b'<svg>\\xff</svg>')"])
        with pytest.raises(RendererCrashed, match="renderer emitted invalid SVG: 'utf-8'") as err:
            renderer.render(_bar_spec())
        assert _exit_code(StageError("base_render", err.value)) == 4


class TestExportHtml:
    def test_empty_timeline_is_static_document(self):
        timeline = Timeline(duration=3.0, initial_visibility={"e1": "visible"})
        html = export_html(timeline, '<svg id="e0"><rect id="e1"/></svg>', "a.wav")
        assert "@keyframes" not in html
        assert '<rect id="e1"/>' in html
        assert 'src="a.wav"' in html

    def test_fade_track_becomes_css_animation(self):
        timeline = Timeline(
            duration=10.0,
            tracks={"e1": (Keyframe(2.0, "opacity", 0.0, "linear"),
                           Keyframe(3.0, "opacity", 1.0, "linear"))},
            initial_visibility={"e1": "hidden"},
        )
        html = export_html(timeline, '<svg><rect id="e1"/></svg>', "a.wav")
        assert "@keyframes kf_0 {" in html
        assert "0.0000% { opacity: 0;" in html
        assert "100.0000% { opacity: 1;" in html
        assert '[id="e1"] { animation: kf_0 1s linear 2s 1 normal both;' in html

    def test_hidden_initial_without_tracks_gets_opacity_zero(self):
        timeline = Timeline(duration=3.0, initial_visibility={"e1": "hidden", "e2": "hidden"})
        html = export_html(timeline, '<svg><rect id="e1"/><rect id="e2"/></svg>', "a.wav")
        assert '[id="e1"], [id="e2"] { opacity: 0; }' in html

    def test_one_keyframes_per_distinct_property_track_and_one_rule_per_group(self):
        fade = (Keyframe(1.0, "opacity", 0.0, "linear"), Keyframe(1.0, "scale", 0.5, "linear"),
                Keyframe(2.0, "opacity", 1.0, "linear"), Keyframe(2.0, "scale", 1.0, "linear"))
        dim = (Keyframe(3.0, "opacity", 1.0, "linear"), Keyframe(4.0, "opacity", 0.2, "linear"))
        timeline = Timeline(duration=5.0, tracks={"a": fade, "b": dim, "c": fade, "d": dim},
                            initial_visibility={"a": "hidden", "c": "hidden", "e": "hidden"})
        html = export_html(timeline, "<svg/>", "a.wav")
        # fade's opacity and scale, and dim's opacity
        assert html.count("@keyframes ") == 3
        rules = [line for line in html.splitlines() if line.startswith("[id=")]
        assert [rule.split(" {")[0] for rule in rules] == [
            '[id="a"], [id="c"]', '[id="b"], [id="d"]', '[id="e"]']
        assert rules[0].startswith('[id="a"], [id="c"] { animation: kf_0 1s linear 1s'
                                   ' 1 normal both, kf_1 1s linear 1s 1 normal both;')

    def test_ids_are_escaped_in_selectors(self):
        ids = ("1.bar", 'a"b', "x#y", "a}b", "</style>", "a b", "\u00e9")
        timeline = Timeline(duration=3.0,
                            tracks={eid: (Keyframe(1.0, "opacity", 0.0, "linear"),) for eid in ids})
        html = export_html(timeline, "<svg/>", "a.wav")
        style = html[html.index("<style>") + len("<style>"):html.index("</style>")]
        assert "</" not in style and '"b' not in style
        assert '[id="1\\2e bar"]' in style
        assert '[id="a\\22 b"]' in style
        assert '[id="\\3c \\2f style\\3e "]' in style
        assert '[id="\\e9 "]' in style
        assert html.count("</style>") == 1
