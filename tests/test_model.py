import ast
import copy
import json
import random
import re
import string
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from datareel import analyst, designer, ingest, model, pipeline
from datareel.model import (
    ANIMATIONS,
    ANNOTATION_TYPES,
    EFFECTS,
    INSIGHT_TYPES,
    VISUALIZATION_TYPES,
    AnalystOutput,
    AnimationDirective,
    AnnotationDirective,
    DataDescription,
    DataTable,
    Insight,
    JsonTypeError,
    UnknownName,
    VisualizationSpec,
    classify_animation,
    dump_artifact,
    parse_insight_type,
    parse_visualization_type,
    read_typed,
    structure_violations,
)
from datareel.errors import PreconditionError
from datareel.runtime import BackendConfig
from datareel.timeline import EASINGS, PROPERTIES, Keyframe, Timeline, WordTimingsJson
from conftest import GOLDEN_DIR
from helpers import reference_dump_artifact


CATEGORIES = ("entrance", "emphasis", "exit")


class TestVocabularies:
    def test_effect_table_has_17_rows(self):
        assert len(EFFECTS) == 17

    def test_effect_ramps_use_the_timelines_properties_and_easings(self):
        for name, (category, ramps) in EFFECTS.items():
            assert category in CATEGORIES, name
            assert ramps, name
            for subject, prop, stops, easing in ramps:
                assert subject in ("targets", "legend", "others"), name
                assert prop in PROPERTIES, name
                assert easing in EASINGS, name
                assert all(n != 0 for _, n, _ in stops), name

    def test_no_stop_is_written_at_k_equals_n(self):
        # t0 + n * length / n can round past t1; an interval's end is (0, -1, v).
        for name, (_, ramps) in EFFECTS.items():
            for _, _, stops, _ in ramps:
                assert not any(k == n > 0 for k, n, _ in stops), name

    def test_golden_prompts_list_the_vocabularies_in_order(self):
        # Each vocabulary, by the words that lead into its list in a prompt.
        vocabularies = {
            "The insight type belongs to the following list: ": INSIGHT_TYPES,
            "which is one of the values of ": VISUALIZATION_TYPES,
            "which is one or a set from ": ANNOTATION_TYPES,
            **{f"- {category.capitalize()} animations include ": tuple(
                name for name, (c, _) in EFFECTS.items() if c == category)
               for category in CATEGORIES},
        }
        text = "\n".join(path.read_text() for path in sorted(GOLDEN_DIR.glob("*_prompt.txt")))
        for lead, names in vocabularies.items():
            [listed] = re.findall(re.escape(lead) + r"\[(.*?)\]", text)
            assert tuple(listed.split(", ")) == names, lead
        # No other list of names in the prompts goes unchecked.
        assert sorted(re.findall(r"\[([^\[\]\n]*, [^\[\]\n]*)\]", text)) == sorted(
            ", ".join(names) for names in vocabularies.values() if len(names) > 1)

    def test_insight_vocabulary_has_13_names(self):
        assert len(INSIGHT_TYPES) == 13
        assert len(set(INSIGHT_TYPES)) == 13

    def test_classify_known_animations(self):
        assert classify_animation("Bar-grow-in") == "entrance"
        assert classify_animation("Fade-out") == "exit"
        assert classify_animation("Bar-bounce") == "emphasis"

    def test_classify_unknown_animation(self):
        with pytest.raises(UnknownName):
            classify_animation("Sparkle")

    def test_classify_total_over_vocabulary_and_errors_elsewhere(self):
        for name in ANIMATIONS:
            assert classify_animation(name) in CATEGORIES
        rng = random.Random(20260808)
        alphabet = string.ascii_letters + "- "
        for _ in range(500):
            name = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            if name.strip() in ANIMATIONS:
                continue
            with pytest.raises(UnknownName):
                classify_animation(name)

    def test_classify_trims_surrounding_whitespace_only(self):
        assert classify_animation(" Fade-in ") == "entrance"
        with pytest.raises(UnknownName):
            classify_animation("fade-in")  # case-sensitive

    def test_parse_insight_type(self):
        assert parse_insight_type("Trend") == "Trend"
        with pytest.raises(UnknownName):
            parse_insight_type("Correlation")  # the list has "Correlate"
        with pytest.raises(UnknownName):
            parse_insight_type("")

    def test_parse_visualization_type(self):
        assert parse_visualization_type("line") == "line"
        with pytest.raises(UnknownName):
            parse_visualization_type("heatmap")
        with pytest.raises(UnknownName):
            parse_visualization_type("Line")

    def test_annotation_vocabulary(self):
        assert ANNOTATION_TYPES == ("mark label", "circle", "text", "rule", "trend line", "arrow")


class TestDataTable:
    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            DataTable(title="t", columns=(("a", (1, 2)), ("b", (1,))), row_count=2)

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            DataTable(title="t", columns=(("a", (1,)), ("a", (2,))), row_count=1)

    def test_row_access(self):
        table = DataTable(title="t", columns=(("a", (1, 2)), ("b", ("x", "y"))), row_count=2)
        assert table.row(1) == {"a": 2, "b": "y"}
        assert table.column_names == ("a", "b")


class TestDirectives:
    def test_insight_requires_nonempty_types(self):
        with pytest.raises(ValueError):
            Insight(insight="something", types=())

    def test_animation_directive_validates_name(self):
        with pytest.raises(UnknownName):
            AnimationDirective(animation="Slide-in", narration="x", target="y", index=())

    def test_annotation_directive_validates_types(self):
        with pytest.raises(ValueError):
            AnnotationDirective(types=(), description="", index=(), nar="x")
        d = AnnotationDirective(types=("circle",), description="", index=(2,), nar="x")
        assert d.types == ("circle",)


class TestVisualizationStructure:
    def test_mark_encoding_spec_passes(self):
        assert structure_violations({"mark": "bar", "encoding": {}}, "") == ()

    def test_layered_spec_passes(self):
        assert structure_violations({"layer": [{"mark": "bar"}]}, "") == ()

    def test_top_level_mark_beside_layer_fails(self):
        problems = structure_violations({"layer": [{}], "mark": "bar"}, "")
        assert any("layer" in v.message for v in problems)

    def test_non_object_layer_entry_is_a_structure_violation(self):
        spec = {"layer": [{"mark": "bar"}, 1, None], "data": {}}
        assert [(v.code, v.message) for v in structure_violations(spec, "")] == [
            ("structure", '"layer" entry 1 must be a JSON object'),
            ("structure", '"layer" entry 2 must be a JSON object'),
        ]

    def test_missing_structure_fails(self):
        assert structure_violations({"data": {}}, "")
        assert structure_violations([1, 2], "")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
)


# Every scalar json writes (NaN, infinities, -0.0, big ints, non-ASCII text)
# and objects keyed by strings, by numbers and bools, or by one null or NaN.
artifact_scalars = (st.none() | st.booleans() | st.integers() | st.integers(2 ** 64, 2 ** 200)
                    | st.floats() | st.sampled_from([-0.0, float("inf"), float("-inf")])
                    | st.text() | st.text(st.characters(min_codepoint=0x80)))


def _artifact_objects(children):
    return (st.dictionaries(st.text(), children, max_size=4)
            | st.dictionaries(st.integers() | st.floats(allow_nan=False) | st.booleans(),
                              children, max_size=4)
            | st.dictionaries(st.none() | st.just(float("nan")), children, max_size=1))


artifact_values = st.recursive(
    artifact_scalars,
    lambda children: st.lists(children, max_size=4) | _artifact_objects(children),
    max_leaves=20,
)


small_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
small_containers = st.lists(small_values, max_size=3) | st.dictionaries(
    st.text(max_size=3), small_values, max_size=3)


@st.composite
def rows_sharing_objects(draw):
    """A payload whose row lists hold the same list and dict objects across
    rows, under two keys of one row and nested inside other members."""
    pool = draw(st.lists(small_containers, min_size=1, max_size=3))
    shared = st.sampled_from(pool)
    members = (shared | small_values | shared.map(lambda v: [v, v])
               | st.builds(lambda k, v: {k: v}, st.text(max_size=2), shared))
    rows = st.lists(st.dictionaries(st.text(max_size=3), members, max_size=4)
                    | st.lists(members, max_size=4), min_size=1, max_size=6)
    return {"rows": draw(rows), "more": draw(rows), "meta": draw(shared)}


# Objects of scalars whose values compare equal across objects but write
# apart (0.0 and -0.0; 1, 1.0 and True; NaN), with keys that need escaping.
scalar_objects = st.dictionaries(
    st.text(max_size=3) | st.sampled_from(['a"b', "a\\b", "\n", "</style>", "%s", "\u00e9t\u00e9"]),
    artifact_scalars | st.sampled_from([0.0, -0.0, 1, 1.0, True, 0.5, float("nan")]),
    max_size=16)


class TestDumpArtifact:
    @given(rows_sharing_objects())
    def test_shared_objects_write_as_unshared_ones(self, payload):
        text = dump_artifact(payload)
        assert text == dump_artifact(copy.deepcopy(payload))
        # json.loads builds every list and dict afresh, so nothing is shared.
        assert text == dump_artifact(json.loads(json.dumps(payload)))
        assert json.loads(text) == payload

    @given(artifact_values)
    def test_equals_one_encoder_call_per_row(self, value):
        assert dump_artifact(value) == reference_dump_artifact(value)

    @given(rows_sharing_objects())
    def test_row_texts_from_an_iterator_write_as_the_list(self, payload):
        texts = [model._COMPACT.encode(row) for row in payload["rows"]]
        streamed = dict(payload, rows=iter(texts))
        assert dump_artifact(streamed) == dump_artifact(payload) == reference_dump_artifact(payload)

    def test_iterator_of_no_rows_is_an_empty_list(self):
        assert dump_artifact({"rows": iter(()), "n": 1}) == '{\n  "n": 1,\n  "rows": []\n}\n'

    @pytest.mark.parametrize("row", [{"a": [1]}, [1], 2, None, b"{}"])
    def test_iterator_rows_must_be_texts(self, row):
        with pytest.raises(TypeError, match="an iterator row must be its JSON text"):
            dump_artifact({"rows": iter(['{"a":1}', row])})

    @given(scalar_objects)
    def test_object_of_scalars_is_laid_out_as_json_dumps(self, value):
        for payload in (value, {"outer": value, "n": 1}, {"a": {"b": value}}):
            assert dump_artifact(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [{1: "a", 2: 0.5}, {2.5: None, -1.0: 1.0},
                                       {True: 1, False: 0.0}, {None: -0.0}])
    def test_objects_with_non_string_keys_keep_the_old_path(self, value):
        assert not model._scalar_object(value)
        assert dump_artifact(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"
        other = dict.fromkeys(range(8), 0.25)
        rows = [{"o": value, "n": [1]}, {"o": other, "n": [2]}, {"o": value, "n": [3]}]
        assert dump_artifact(rows) == reference_dump_artifact(rows)

    @pytest.mark.parametrize("kind", ["set", "circular-list"])
    def test_unencodable_value_raises_as_json_dumps(self, kind):
        inner = [] if kind == "circular-list" else [{1}]
        if kind == "circular-list":
            inner.append(inner)
        payload = {"rows": [[inner], {"ok": 1}]}
        with pytest.raises(Exception) as expected:
            json.dumps(payload, default=model._COMPACT.default)
        with pytest.raises(type(expected.value)) as raised:
            dump_artifact(payload)
        assert str(raised.value) == str(expected.value)
        # The same objects, now encodable, write as json writes them: the
        # failed call left no circular-reference marker behind.
        inner[:] = [1]
        assert dump_artifact(payload) == reference_dump_artifact(payload)

    @pytest.mark.parametrize("shape", ["itself", "grandchild", "row"])
    def test_self_containing_object_raises_as_json_dumps(self, shape):
        payload = {}
        if shape == "itself":
            payload["d"] = payload
        elif shape == "grandchild":
            payload["meta"] = {"up": payload}
        else:
            payload["rows"] = [{"up": payload}]
        with pytest.raises(Exception) as expected:
            json.dumps(payload)
        with pytest.raises(type(expected.value)) as raised:
            dump_artifact(payload)
        assert str(raised.value) == str(expected.value) == "Circular reference detected"

    def test_object_under_two_keys_is_no_cycle(self):
        shared = {"a": {"b": 1}}
        payload = {"p": shared, "q": shared}
        assert dump_artifact(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_rows_with_non_string_keys_encode_whole(self):
        shared = [1, 2]
        rows = [{1: shared, 2: shared}, [shared, {"k": shared}], {2.5: None}]
        fresh = [{1: [1, 2], 2: [1, 2]}, [[1, 2], {"k": [1, 2]}], {2.5: None}]
        assert dump_artifact(rows) == dump_artifact(fresh) == (
            '[\n  {"1":[1,2],"2":[1,2]},\n  [[1,2],{"k":[1,2]}],\n  {"2.5":null}\n]\n')

    @given(json_values)
    def test_round_trip(self, value):
        text = dump_artifact(value)
        assert json.loads(text) == value
        assert json.dumps(json.loads(text), sort_keys=True) == json.dumps(value, sort_keys=True)
        assert text.endswith("\n")

    def test_layout(self):
        frames = [{"visible": ["b", "a"], "index": i, "opacity": {}} for i in range(3)]
        text = dump_artifact({"fps": 30, "frames": frames, "empty": [], "meta": {"ids": [2, 1]}})
        assert text == (
            '{\n'
            '  "empty": [],\n'
            '  "fps": 30,\n'
            '  "frames": [\n'
            '    {"index":0,"opacity":{},"visible":["b","a"]},\n'
            '    {"index":1,"opacity":{},"visible":["b","a"]},\n'
            '    {"index":2,"opacity":{},"visible":["b","a"]}\n'
            '  ],\n'
            '  "meta": {\n'
            '    "ids": [2,1]\n'
            '  }\n'
            '}\n'
        )

    def test_scalars_keep_json_dumps_text(self):
        # An object of scalars is laid out as json.dumps(indent=2) lays it out.
        value = {"nan": float("nan"), "inf": float("inf"), "third": 1 / 3, "word": "caf\u00e9",
                 "none": None, "big": 10 ** 30}
        assert dump_artifact(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    def test_package_has_no_indented_json_dump(self):
        # indent= sends json.dump(s) through the pure-Python encoder; artifacts
        # go through dump_artifact instead.
        package = Path(__file__).resolve().parent.parent / "src" / "datareel"
        offenders = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("dump", "dumps")
                        and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                        and any(k.arg == "indent" for k in node.keywords)):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


# One valid value of each type read through model.read_typed, how to read it,
# and the keys of its leaves that also take null. Float fields hold floats, so
# an int may stand in only where one does.
_TYPED_SAMPLES = {
    "config": (lambda value: read_typed(pipeline.ProjectConfig, value), {
        "input_csv": "in.csv", "output_dir": "out", "title": "T", "mock_mode": True,
        "transcripts": {"analyst": "a.json", "designer": "d.json"},
        "backend": {"endpoint": "http://x/v1", "model_name": "m", "temperature": 0.5,
                    "timeout": 60.0, "api_key_env": "KEY", "max_retries": 2,
                    "retry_delay": 0.5},
        "renderer_cmd": ["render", "-q"], "tts_cmd": ["tts"], "synth_cmd": ["synth"],
        "max_repair_attempts": 3, "fps": 30, "export": "both", "prompt_max_rows": 100,
        "cache_dir": "cache", "no_cache": False}, {"title", "cache_dir"}),
    "stage record": (lambda value: read_typed(pipeline.StageRecord, value), {
        "name": "tts", "status": "ok", "started_at": "2024-01-01T00:00:00Z",
        "finished_at": "2024-01-01T00:00:01Z", "error": "none",
        "artifacts": [{"path": "narration.wav", "sha256": "ab", "bytes": 44},
                      {"path": "word_timings.json", "sha256": "cd", "bytes": 120}]},
        {"finished_at", "error"}),
    "table": (lambda value: read_typed(pipeline._TableJson, value), {
        "title": "t", "row_count": 3,
        "columns": [{"name": "a", "values": [1, 2.5, None]},
                    {"name": "b", "values": ["x", "y", "z"]}]}, set()),
    "word timings": (lambda value: read_typed(WordTimingsJson, value), {
        "duration": 0.9,
        "words": [{"word": w, "start": 0.3 * i, "end": 0.3 * i + 0.3,
                   "char_start": 3 * i, "char_end": 3 * i + 2}
                  for i, w in enumerate(["ab", "cd", "ef"])],
        "advisories": [{"code": "tts-timings-estimated", "path": "", "message": "m"}]},
        set()),
    "timeline": (Timeline.from_json, {
        "duration": 4.0, "initial_visibility": {"e1": "hidden", "e2": "visible"},
        "tracks": [
            {"element_id": element_id, "keyframes": [
                {"time": 1.0, "property": "opacity", "value": 0.0, "easing": "linear"},
                {"time": 2.0, "property": "opacity", "value": 1.0, "easing": "ease-out"}]}
            for element_id in ("e1", "e2")]}, set()),
    # The agent replies; a Vega-Lite spec takes any object, so it holds no leaf.
    "description reply": (ingest.description_from_json, {"Description": "d"}, set()),
    "analyst reply": (analyst.analyst_output_from_json, {
        "Insights": [{"insight": "i", "type": ["Trend", "Sort"]},
                     {"insight": "j", "type": ["Cluster"]}],
        "Visualization": {}, "Visualization_Type": "bar", "Narration": "n"}, set()),
    "designer reply": (lambda value: designer.designer_output_from_json(value, _REPLY_TABLE), {
        "Annotated_Visualization": {},
        "Annotated_Narration_for_Animation": [
            {"animation": "Fade-in", "narration": "n", "target": "t", "index": [0, 2],
             "explanation": "e"}],
        "Annotated_Narration_for_Annotation": [
            {"type": ["text", "circle"], "description": "d", "index": [1], "nar": "n"}]},
        set()),
}

# The table the designer reply sample's rows index.
_REPLY_TABLE = DataTable("t", (("a", (1, 2, 3)),), 3)

# The objects of each reply sample that its format names: every level at
# which a key outside the format is ignored.
_REPLY_OBJECTS = [
    ("description reply", ()),
    ("analyst reply", ()),
    ("analyst reply", ("Insights", 1)),
    ("designer reply", ()),
    ("designer reply", ("Annotated_Narration_for_Animation", 0)),
    ("designer reply", ("Annotated_Narration_for_Annotation", 0)),
]

# Table cells take any scalar but a bool.
_CELL = {str, int, float, type(None)}

_JSON_TYPES = {
    type(None): st.none(), bool: st.booleans(), int: st.integers(),
    float: st.floats(allow_nan=False), str: st.text(max_size=4),
    list: st.lists(st.integers(), max_size=2),
    dict: st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}


def _leaves(value, path=()):
    """(path, value) of each scalar in a JSON value, the path as its keys."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, (*path, key))
    elif isinstance(value, list):
        for position, item in enumerate(value):
            yield from _leaves(item, (*path, position))
    else:
        yield path, value


def _path_text(path) -> str:
    return "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path).removeprefix(".")


class TestReadTyped:
    @given(data=st.data())
    def test_a_leaf_of_another_type_is_named_by_its_path(self, data):
        read, valid, nullable = _TYPED_SAMPLES[data.draw(st.sampled_from(sorted(_TYPED_SAMPLES)))]
        read(copy.deepcopy(valid))
        path, leaf = data.draw(st.sampled_from(list(_leaves(valid))))
        taken = ({type(leaf)} | ({int} if type(leaf) is float else set())
                 | ({type(None)} if path[-1] in nullable else set())
                 | (_CELL if "values" in path else set()))
        replacement = data.draw(st.sampled_from(
            [kind for kind in _JSON_TYPES if kind not in taken]).flatmap(_JSON_TYPES.get))
        value = copy.deepcopy(valid)
        owner = value
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = replacement
        with pytest.raises(JsonTypeError) as caught:
            read(value)
        assert str(caught.value).startswith(f"{_path_text(path)}: {replacement!r} is not ")

    @pytest.mark.parametrize("sample, path", _REPLY_OBJECTS)
    def test_a_reply_key_outside_the_format_is_ignored(self, sample, path):
        read, valid, _ = _TYPED_SAMPLES[sample]
        value = copy.deepcopy(valid)
        owner = value
        for key in path:
            owner = owner[key]
        owner["Notes"] = {"free": ["text"]}
        assert read(value) == read(copy.deepcopy(valid))


_KEYFRAME_ROW = {"time": 0.0, "property": "opacity", "value": 1.0, "easing": "linear"}


def _read_config(**keys):
    return read_typed(pipeline.ProjectConfig, {"input_csv": "i", "output_dir": "o", **keys})


class TestReadTypedMessages:
    """The reader's exact messages for the config and for keyframe rows."""

    @pytest.mark.parametrize("read, exception, message", [
        (lambda: read_typed(pipeline.ProjectConfig, {"output_dir": "o"}),
         JsonTypeError, "missing key 'input_csv'"),
        (lambda: read_typed(pipeline.ProjectConfig, {}),
         JsonTypeError, "missing key 'input_csv', 'output_dir'"),
        (lambda: _read_config(colour=1, shade=2), JsonTypeError, "unknown key 'colour', 'shade'"),
        (lambda: _read_config(backend={"endpoint": "e", "api_key_env": "K", "timeout": "x"}),
         JsonTypeError, "backend.timeout: 'x' is not a number"),
        (lambda: _read_config(backend={"endpoint": "e", "api_key_env": "K", "retries": 1}),
         JsonTypeError, "backend: unknown key 'retries'"),
        (lambda: _read_config(backend={"endpoint": "", "api_key_env": "K"}),
         PreconditionError, "live backend requires endpoint and api_key_env"),
        (lambda: _read_config(export="gif"),
         JsonTypeError, "export: 'gif' is not one of 'video', 'html', 'both'"),
        (lambda: read_typed(pipeline.ProjectConfig, 3), JsonTypeError, "3 is not an object"),
        (lambda: read_typed(list[Keyframe], [_KEYFRAME_ROW, {
            k: v for k, v in _KEYFRAME_ROW.items() if k != "easing"}]),
         JsonTypeError, "[1]: missing key 'easing'"),
        (lambda: read_typed(list[Keyframe], [_KEYFRAME_ROW, dict(_KEYFRAME_ROW, element_id="e")]),
         JsonTypeError, "[1]: unknown key 'element_id'"),
        (lambda: read_typed(list[Keyframe], [dict(_KEYFRAME_ROW, time="soon")]),
         JsonTypeError, "[0].time: 'soon' is not a number"),
        (lambda: read_typed(list[Keyframe], [dict(_KEYFRAME_ROW, value=True)]),
         JsonTypeError, "[0].value: True is not a number"),
        (lambda: read_typed(list[Keyframe], [7]), JsonTypeError, "[0]: 7 is not an object"),
        (lambda: read_typed(list[Keyframe], {}), JsonTypeError, "{} is not a list"),
        (lambda: read_typed(list[Keyframe], [dict(_KEYFRAME_ROW, property="bogus")]),
         ValueError, "unknown property 'bogus'"),
        (lambda: read_typed(list[Keyframe], [dict(_KEYFRAME_ROW, value=1.5)]),
         ValueError, "opacity 1.5 outside [0,1]"),
    ])
    def test_message(self, read, exception, message):
        with pytest.raises(exception) as caught:
            read()
        assert type(caught.value) is exception
        assert str(caught.value) == message

    def test_a_defaulted_key_left_out_takes_its_default(self):
        config = _read_config()
        assert config == pipeline.ProjectConfig(input_csv="i", output_dir="o")
        assert repr(config) == (
            "ProjectConfig(input_csv='i', output_dir='o', title=None, mock_mode=True, "
            "transcripts={}, backend=None, renderer_cmd=None, tts_cmd=None, synth_cmd=None, "
            "max_repair_attempts=3, fps=30, export='video', prompt_max_rows=100, "
            "cache_dir=None, no_cache=False)")
        backend = _read_config(backend={"endpoint": "e", "api_key_env": "K"}).backend
        assert backend == BackendConfig(endpoint="e", api_key_env="K")

    def test_keyframe_rows_read_in_order(self):
        rows = [dict(_KEYFRAME_ROW, time=1), dict(_KEYFRAME_ROW, property="scale", value=2.5)]
        assert read_typed(list[Keyframe], rows) == [
            Keyframe(1, "opacity", 1.0, "linear"), Keyframe(0.0, "scale", 2.5, "linear")]
        assert repr(read_typed(list[Keyframe], rows[:1])) == (
            "[Keyframe(time=1, property='opacity', value=1.0, easing='linear')]")

    @given(config=st.builds(
        pipeline.ProjectConfig, input_csv=st.text(), output_dir=st.text(),
        title=st.none() | st.text(), mock_mode=st.booleans(),
        transcripts=st.dictionaries(st.text(), st.text(), max_size=3),
        backend=st.none() | st.builds(
            BackendConfig, endpoint=st.text(min_size=1), model_name=st.text(),
            temperature=st.floats(allow_nan=False), timeout=st.floats(allow_nan=False),
            api_key_env=st.text(min_size=1), max_retries=st.integers(),
            retry_delay=st.floats(allow_nan=False)),
        renderer_cmd=st.none() | st.lists(st.text(), max_size=3),
        tts_cmd=st.none() | st.lists(st.text(), max_size=3),
        synth_cmd=st.none() | st.lists(st.text(), max_size=3),
        max_repair_attempts=st.integers(), fps=st.integers(),
        export=st.sampled_from(["video", "html", "both"]), prompt_max_rows=st.integers(),
        cache_dir=st.none() | st.text(), no_cache=st.booleans()))
    def test_config_round_trip(self, config):
        assert read_typed(pipeline.ProjectConfig, config.to_json()) == config


class TestConstructionChecks:
    """Each checked type raises at construction what it always raised."""

    @pytest.mark.parametrize("build, exception", [
        (lambda: DataTable("t", (("", (1,)),), 1), ValueError),
        (lambda: DataDescription("  "), ValueError),
        (lambda: Insight(insight=" ", types=("Trend",)), ValueError),
        (lambda: Insight(insight="i", types=("Trend", "Correlation")), UnknownName),
        (lambda: VisualizationSpec(spec={}, vis_type="heatmap"), UnknownName),
        (lambda: AnimationDirective(animation="Fade-in", narration=" ", target="y", index=()),
         ValueError),
        (lambda: AnnotationDirective(types=("blob",), description="", index=(), nar="x"),
         UnknownName),
        (lambda: AnnotationDirective(types=("circle",), description="", index=(), nar="\n"),
         ValueError),
        (lambda: AnalystOutput(insights=(), visualization=VisualizationSpec({}, "bar"),
                               narration="n"), ValueError),
        (lambda: AnalystOutput(insights=(Insight("i", ("Trend",)),),
                               visualization=VisualizationSpec({}, "bar"), narration=" "),
         ValueError),
        (lambda: Keyframe(0.0, "opacity", 1.0, "bounce"), ValueError),
        (lambda: Keyframe(0.0, "wheel_fraction", -0.5, "linear"), ValueError),
    ])
    def test_raises(self, build, exception):
        with pytest.raises(exception) as caught:
            build()
        assert type(caught.value) is exception
