import csv
import gc
import hashlib
import importlib.util
import json
import re
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from datareel import pipeline
from datareel.adapters import CommandRenderer, MockRenderer
from datareel.binding import UnboundMark
from datareel.cli import _parser, main
from datareel.errors import PreconditionError, StageError
from datareel.model import dump_artifact
from datareel.pipeline import (
    STAGE_TABLE,
    STAGES,
    ManifestNotFound,
    ProjectManifest,
    UnknownStage,
    _summarize_designer,
    inspect_stage,
    run_pipeline,
    validate_project,
)
from datareel.runtime import HttpChatBackend, RepairExhausted
from conftest import GOLDEN_DIR, STOCK_COMPANIES, TRANSCRIPTS
from helpers import ENTITY_EXPANSION_SVG


@pytest.fixture(scope="module")
def completed_project(tmp_path_factory):
    from datareel.pipeline import ProjectConfig

    out = tmp_path_factory.mktemp("project")
    config = ProjectConfig(
        input_csv=str(Path(__file__).parent / "data" / "stocks.csv"),
        output_dir=str(out),
        title="Weekly Stock Prices of Four IT Companies",
        mock_mode=True,
        transcripts=dict(TRANSCRIPTS),
        export="both",
    )
    manifest = run_pipeline(config)
    return out, manifest


class TestRunPipeline:
    def test_all_stages_ok_in_order(self, completed_project):
        _, manifest = completed_project
        assert [s["name"] for s in manifest.stages] == list(STAGES)
        assert all(s["status"] == "ok" for s in manifest.stages)

    def test_all_artifacts_hashed_and_present(self, completed_project):
        out, _ = completed_project
        assert validate_project(out).passing

    def test_missing_input_fails_before_any_stage(self, mock_project_config, tmp_path):
        config = mock_project_config(input_csv=str(tmp_path / "nope.csv"))
        with pytest.raises(PreconditionError):
            run_pipeline(config)
        assert not (Path(config.output_dir) / "manifest.json").exists()

    @pytest.mark.parametrize("override, message", [
        (dict(fps="30"), "invalid config: fps: '30' is not an integer"),
        (dict(renderer_cmd=["render", 5]), "invalid config: renderer_cmd[1]: 5 is not a string"),
        (dict(export="gif"), "export: 'gif' is not one of 'video', 'html', 'both'"),
    ], ids=["fps-text", "command-int", "export-gif"])
    def test_config_built_in_python_is_read_by_the_file_rule(self, mock_project_config,
                                                              override, message):
        config = mock_project_config(**override)
        with pytest.raises(PreconditionError, match=re.escape(message)):
            run_pipeline(config)
        assert not Path(config.output_dir).exists()

    def test_csv_byte_order_mark_is_stripped(self, completed_project, mock_project_config,
                                             stock_csv_path, tmp_path):
        # as spreadsheet exports save it
        bom_csv = tmp_path / "stocks.csv"
        bom_csv.write_bytes(b"\xef\xbb\xbf" + stock_csv_path.read_bytes())
        config = mock_project_config(input_csv=str(bom_csv))
        run_pipeline(config)
        out = Path(config.output_dir)
        table = json.loads((out / "table.json").read_text(encoding="utf-8"))
        assert [column["name"] for column in table["columns"]] == ["date", "company", "price"]
        expected, _ = completed_project
        names = sorted(p.name for p in expected.iterdir() if p.name != "manifest.json")
        assert sorted(p.name for p in out.iterdir() if p.name != "manifest.json") == names
        for name in names:
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name

    def test_designer_exhaustion_leaves_partial_manifest(self, mock_project_config, tmp_path):
        # a designer transcript whose replies never validate
        bad = tmp_path / "bad_designer.json"
        bad.write_text(json.dumps([
            {"reply": "{\"nope\": 1}"}, {"reply": "{\"nope\": 2}"},
            {"reply": "{\"nope\": 3}"},
        ]))
        config = mock_project_config(
            transcripts={**TRANSCRIPTS, "designer": str(bad)},
            output_dir=str(tmp_path / "failing"),
        )
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "designer"
        assert isinstance(err.value.cause, RepairExhausted)
        manifest = ProjectManifest.load(Path(config.output_dir) / "manifest.json")
        names = [s["name"] for s in manifest.stages]
        assert names == ["ingest", "description", "analyst", "base_render", "designer"]
        statuses = {s["name"]: s["status"] for s in manifest.stages}
        assert statuses["base_render"] == "ok"
        assert statuses["designer"] == "failed"
        assert "RepairExhausted" in manifest.stage("designer")["error"]

    def test_description_repaired_after_malformed_reply(self, mock_project_config, tmp_path):
        script = json.loads(Path(TRANSCRIPTS["description"]).read_text())
        malformed = {"match": script[0]["match"], "reply": '{"Summary": "prices"}'}
        transcript = tmp_path / "description.json"
        transcript.write_text(json.dumps([malformed, {"reply": script[0]["reply"]}]))
        config = mock_project_config(transcripts={**TRANSCRIPTS, "description": str(transcript)})
        manifest = run_pipeline(config)
        assert all(s["status"] == "ok" for s in manifest.stages)
        out = Path(config.output_dir)
        repair = json.loads((out / "description_repair.json").read_text())
        assert repair == {"attempts": 2, "final_status": "ok",
                          "violations_per_attempt": [["missing key 'Description'"], []]}
        description = json.loads((out / "description.json").read_text())
        assert description["Description"].startswith("Daily closing stock prices")

    def test_rows_outside_the_table_fail_at_base_render(self, mock_project_config, tmp_path):
        script = json.loads(Path(TRANSCRIPTS["analyst"]).read_text())
        reply = script[0]["reply"]
        payload = json.loads(reply[reply.index("{"):reply.rindex("}") + 1])
        values = payload["Visualization"]["data"]["values"]
        values.append(dict(values[0]))  # a 21st datum for a 20-row table
        transcript = tmp_path / "analyst.json"
        transcript.write_text(json.dumps([{**script[0], "reply": json.dumps(payload)}]))
        config = mock_project_config(transcripts={**TRANSCRIPTS, "analyst": str(transcript)})
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "base_render"
        assert isinstance(err.value.cause, UnboundMark)
        assert "references rows outside the table ('0;1;2;3;4;20', 20 rows)" in str(err.value)

    def test_case_study_shape(self, completed_project):
        out, _ = completed_project
        analyst = json.loads((out / "analyst.json").read_text())
        assert analyst["Visualization_Type"] == "line"
        assert any("Trend" in item["type"] for item in analyst["Insights"])
        bindings = json.loads((out / "bindings.json").read_text())
        series = {
            entry["series_key"]
            for entry in bindings["mark_index"]
            if "mark" in entry["roles"]
        }
        assert series == set(STOCK_COMPANIES)

    def test_rerun_is_byte_identical(self, completed_project, tmp_path, mock_project_config):
        out, _ = completed_project
        config = mock_project_config(output_dir=str(tmp_path / "again"), export="both")
        run_pipeline(config)
        for path in sorted(Path(out).iterdir()):
            if path.name == "manifest.json":
                continue
            other = Path(config.output_dir) / path.name
            assert other.read_bytes() == path.read_bytes(), path.name


def _inspect_golden() -> dict[str, str]:
    """Sections of the golden file, keyed by stage: '===== name' then the report."""
    text = (GOLDEN_DIR / "inspect_stock_demo.txt").read_text(encoding="utf-8")
    sections = {}
    for chunk in text.split("===== ")[1:]:
        name, _, report = chunk.partition("\n")
        sections[name] = report.rstrip("\n")
    return sections


class TestInspect:
    def test_golden_covers_every_stage(self):
        assert list(_inspect_golden()) == list(STAGES)

    @pytest.mark.parametrize("stage_name", STAGES)
    def test_stock_demo_report(self, completed_project, stage_name):
        out, _ = completed_project
        assert inspect_stage(out, stage_name) == _inspect_golden()[stage_name]

    def test_failed_and_unexecuted_stages(self, mock_project_config, tmp_path):
        bad = tmp_path / "bad_designer.json"
        bad.write_text(json.dumps([{"reply": "no json"}]))
        config = mock_project_config(
            transcripts={**TRANSCRIPTS, "designer": str(bad)}, max_repair_attempts=1,
        )
        with pytest.raises(StageError):
            run_pipeline(config)
        out = Path(config.output_dir)
        failed = inspect_stage(out, "designer").splitlines()
        assert failed[:2] == ["stage: designer", "status: failed"]
        assert failed[2].startswith("error: RepairExhausted: ")
        assert len(failed) == 3
        assert inspect_stage(out, "binding") == "stage: binding\nstatus: not executed"

    def test_designer_report(self, completed_project):
        out, _ = completed_project
        text = inspect_stage(out, "designer")
        assert "Highlight-one-and-fade-others (emphasis)" in text
        assert "Axes-fade-in (entrance)" in text

    def test_designer_summary_pairs_ids_by_position(self):
        segment = "Both series rise."
        directives = [{"animation": "Fade-in", "narration": segment, "target": t,
                       "index": [], "explanation": ""} for t in ("A", "B")]
        payload = {"Annotated_Visualization": {},
                   "Annotated_Narration_for_Animation": directives,
                   "Annotated_Narration_for_Annotation": []}
        bindings = {"resolved_targets": [dict(d, ids=[t.lower()]) for d, t in
                                         zip(directives, ("A", "B"))]}
        table = {"title": "t", "row_count": 0, "columns": []}
        lines = _summarize_designer(payload, bindings, table)
        assert lines[1].endswith("-> ['a']")
        assert lines[2].endswith("-> ['b']")
        assert _summarize_designer(payload, None, table)[1].endswith(f"segment={segment!r}")

    def test_timeline_report(self, completed_project):
        out, _ = completed_project
        text = inspect_stage(out, "timeline")
        assert "duration: 14.7 s" in text
        assert "initially hidden" in text

    # An artifact that does not load is named alone; a summary that fails
    # names every artifact it read.
    @pytest.mark.parametrize("stage_name, name, content, reason", [
        ("analyst", "analyst.json", "not json", "analyst.json: JSONDecodeError("),
        ("ingest", "table.json", "{}", "table.json: missing key 'columns', 'row_count', 'title'"),
        ("video", "video_manifest.json", "[]", "video_manifest.json: TypeError("),
        ("designer", "designer.json", '{"Annotated_Narration_for_Animation": 1}',
         "designer.json, bindings.json, table.json: missing key "
         "'Annotated_Narration_for_Annotation', "
         "'Annotated_Visualization'"),
        ("designer", "designer.json", '{"Annotated_Visualization": {}, '
         '"Annotated_Narration_for_Animation": 1, "Annotated_Narration_for_Annotation": []}',
         "designer.json, bindings.json, table.json: "
         "Annotated_Narration_for_Animation: 1 is not a list"),
        ("designer", "bindings.json", "not json", "bindings.json: JSONDecodeError("),
        ("designer", "bindings.json", "true",
         "designer.json, bindings.json, table.json: AttributeError("),
        ("timeline", "timeline.json", '{"initial_visibility": []}',
         "timeline.json: missing key 'duration', 'tracks'"),
    ], ids=["not-json", "empty-table", "video-manifest-list", "designer-int",
            "designer-animations-int", "bindings-not-json", "bindings-true",
            "visibility-list"])
    def test_unreadable_artifact_is_reported(self, completed_project, tmp_path, capsys,
                                             stage_name, name, content, reason):
        import shutil

        project = Path(shutil.copytree(completed_project[0], tmp_path / "copy"))
        (project / name).write_text(content)
        code, output = _cli(capsys, "inspect", "--project", str(project), "--stage", stage_name)
        assert code == 0, output
        *report, unreadable = output.splitlines()
        assert report == [line for line in _inspect_golden()[stage_name].splitlines()
                          if line.startswith(("stage:", "status:", "artifact:"))]
        assert unreadable.startswith(f"unreadable: {reason}")

    # Each summary reads its payload as validate reads it, so a value of the
    # wrong type is named by its path, and a row outside the table is reported.
    @pytest.mark.parametrize("stage_name, name, edit, line", [
        ("tts", "word_timings.json", lambda p: p.update(duration="3"),
         "unreadable: word_timings.json: duration: '3' is not a number"),
        ("timeline", "timeline.json", lambda p: p.update(tracks=5),
         "unreadable: timeline.json: tracks: 5 is not a list"),
        ("ingest", "table.json", lambda p: p.update(row_count="20"),
         "unreadable: table.json: row_count: '20' is not an integer"),
        ("description", "description.json", lambda p: p.update(Description=5),
         "unreadable: description.json: Description: 5 is not a string"),
        ("analyst", "analyst.json", lambda p: p.update(Narration=5),
         "unreadable: analyst.json: Narration: 5 is not a string"),
        ("designer", "designer.json",
         lambda p: p["Annotated_Narration_for_Annotation"][1].update(index=["4"]),
         "unreadable: designer.json, bindings.json, table.json: "
         "Annotated_Narration_for_Annotation[1].index[0]: '4' is not an integer"),
        ("designer", "designer.json",
         lambda p: p["Annotated_Narration_for_Annotation"][0].update(index=[999]),
         "unreadable: designer.json, bindings.json, table.json: "
         "Annotated_Narration_for_Annotation[0].index[0]: "
         "row 999 out of range (table has 20 rows)"),
    ], ids=["timings-duration-text", "timeline-tracks-int", "table-row-count-text",
            "description-int", "narration-int", "annotation-index-text",
            "annotation-row-outside-table"])
    def test_summary_names_the_path_of_a_wrong_type(self, completed_project, tmp_path, capsys,
                                                    stage_name, name, edit, line):
        import shutil

        project = Path(shutil.copytree(completed_project[0], tmp_path / "copy"))
        payload = json.loads((project / name).read_text())
        edit(payload)
        (project / name).write_text(json.dumps(payload))
        code, output = _cli(capsys, "inspect", "--project", str(project), "--stage", stage_name)
        assert code == 0, output
        assert output.splitlines()[-1] == line

    def test_designer_rows_need_the_table(self, completed_project, tmp_path):
        import shutil

        project = Path(shutil.copytree(completed_project[0], tmp_path / "copy"))
        (project / "table.json").unlink()
        assert inspect_stage(project, "designer").splitlines()[-1] == (
            "unreadable: designer.json, bindings.json: missing artifact table.json")

    def test_unknown_stage(self, completed_project):
        out, _ = completed_project
        with pytest.raises(UnknownStage):
            inspect_stage(out, "nosuch")

    def test_manifest_not_found(self, tmp_path):
        with pytest.raises(ManifestNotFound):
            inspect_stage(tmp_path, "designer")


class TestValidateProject:
    def test_clean_project_passes(self, completed_project):
        out, _ = completed_project
        report = validate_project(out)
        assert report.passing

    def test_tampered_artifact_detected(self, completed_project, tmp_path):
        import shutil

        out, _ = completed_project
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        target = copy / "analyst.json"
        payload = json.loads(target.read_text())
        payload["Narration"] = "Rewritten narration."
        target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        report = validate_project(copy)
        assert not report.passing
        codes = {v.code for v in report.violations}
        assert "artifact-hash" in codes


def _with_stage_run(stage_name: str | None, wrap):
    """STAGE_TABLE with the named stage's run function (every stage's, for
    None) replaced by wrap(stage)."""
    return tuple(stage._replace(run=wrap(stage))
                 if stage_name in (None, stage.name) else stage for stage in STAGE_TABLE)


class TestManifestRewrite:
    """run_pipeline rewrites manifest.json in place after every stage."""

    def test_manifest_on_disk_after_each_stage(self, mock_project_config, monkeypatch):
        config = mock_project_config()
        path = Path(config.output_dir) / "manifest.json"
        started = []

        def wrap(stage):
            def run(run, record):
                # what the earlier stages left: created by the first save, then rewritten
                earlier = ProjectManifest(run.manifest.config, run.manifest.created_at,
                                          run.manifest.stages[:-1])
                if earlier.stages:
                    assert path.read_bytes() == dump_artifact(earlier.to_json()).encode()
                else:
                    assert not path.exists()
                started.append(stage.name)
                return stage.run(run, record)
            return run

        monkeypatch.setattr(pipeline, "STAGE_TABLE", _with_stage_run(None, wrap))
        manifest = run_pipeline(config)
        assert started == list(STAGES)
        assert path.read_bytes() == dump_artifact(manifest.to_json()).encode()

    def test_failing_stage_leaves_its_record(self, mock_project_config, monkeypatch):
        def wrap(stage):
            def run(run, record):
                raise RuntimeError("boom")
            return run

        monkeypatch.setattr(pipeline, "STAGE_TABLE", _with_stage_run("binding", wrap))
        config = mock_project_config()
        with pytest.raises(StageError):
            run_pipeline(config)
        path = Path(config.output_dir) / "manifest.json"
        manifest = ProjectManifest.load(path)
        assert [s["name"] for s in manifest.stages] == list(STAGES[:STAGES.index("binding") + 1])
        assert manifest.stages[-1]["status"] == "failed"
        assert manifest.stages[-1]["error"] == "RuntimeError: boom"
        assert manifest.stages[-1]["finished_at"] is not None
        assert path.read_bytes() == dump_artifact(manifest.to_json()).encode()

    def test_rerun_over_a_longer_manifest(self, mock_project_config):
        run_pipeline(mock_project_config(export="both"))
        config = mock_project_config(export="html")
        path = Path(config.output_dir) / "manifest.json"
        longer = path.read_bytes()
        manifest = run_pipeline(config)
        assert path.read_bytes() == dump_artifact(manifest.to_json()).encode()
        assert len(path.read_bytes()) < len(longer)
        ProjectManifest().save(path)
        assert path.read_bytes() == dump_artifact(ProjectManifest().to_json()).encode()


class TestValidateReadsOnce:
    """validate hashes each listed artifact and checks it from one read."""

    @pytest.fixture
    def project_copy(self, completed_project, tmp_path):
        import shutil

        return Path(shutil.copytree(completed_project[0], tmp_path / "copy"))

    @pytest.mark.parametrize("missing", [None, "description.json", "designer.json"])
    def test_each_listed_artifact_is_read_once(self, project_copy, monkeypatch, missing):
        manifest = ProjectManifest.load(project_copy / "manifest.json")
        listed = [a["path"] for record in manifest.stages for a in record["artifacts"]]
        if missing:
            (project_copy / missing).unlink()
            listed.remove(missing)
        opened = Counter()
        path_open = Path.open

        def counting_open(path, *args, **kwargs):
            opened[path.name] += 1
            return path_open(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        report = validate_project(project_copy)
        assert opened == Counter(listed + ["manifest.json"])
        assert [v.message for v in report.violations] == (
            [f"{missing.removesuffix('.json')}: missing artifact {missing}"] if missing else [])

    # Each artifact is decoded as read_text(encoding="utf-8") decodes it: a
    # newline of either form reads as "\n" and a byte that is not UTF-8 fails.
    @pytest.mark.parametrize("name, code, edit", [
        ("analyst.json", "analyst-contract", lambda data: data.replace(b"\n", b"\r\n")),
        ("analyst.json", "analyst-contract",
         lambda data: data.replace(b"\n", b"\r\n") + b"\r\n}"),
        ("timeline.json", "timeline-contract", lambda data: data.replace(b"\n", b"\r") + b"x"),
        ("base.svg", "base_render-contract", lambda data: data.replace(b">", b">\r\n")),
        ("table.json", "ingest-contract", lambda data: data.replace(b'"title"', b'"\xfftitle"')),
        ("word_timings.json", "tts-contract", lambda data: data[:-2] + b"\xe2\x82"),
    ], ids=["crlf", "crlf-extra-data", "cr-extra-data", "svg-crlf", "not-utf-8",
            "cut-utf-8"])
    def test_decoded_as_text(self, project_copy, name, code, edit):
        path = project_copy / name
        _rewrite_artifact(project_copy, name, edit(path.read_bytes()))
        try:
            text = path.read_text(encoding="utf-8")
            if name.endswith(".json"):
                json.loads(text)
            expected = []
        except ValueError as e:
            expected = [(code, name, repr(e))]
        report = validate_project(project_copy)
        assert [(v.code, v.path, v.message) for v in report.violations] == expected

    def test_unchecked_artifact_is_hashed_in_chunks(self, project_copy):
        # No check reads video_manifest.json: its 4 MiB are never held whole.
        _rewrite_artifact(project_copy, "video_manifest.json", bytes(range(256)) * (4 << 12))
        tracemalloc.start()
        try:
            report = validate_project(project_copy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passing
        assert peak < 1 << 20

    def test_hash_problems_keep_manifest_order(self, project_copy):
        # Checked (table.json, timeline.json) and unchecked artifacts interleave.
        for name in ("table.json", "narration.wav", "timeline.json", "video.html"):
            with (project_copy / name).open("ab") as file:
                file.write(b" ")
        (project_copy / "bindings.json").unlink()
        report = validate_project(project_copy)
        assert [(v.code, v.message) for v in report.violations] == [
            ("artifact-hash", "ingest: hash mismatch for table.json"),
            ("artifact-hash", "binding: missing artifact bindings.json"),
            ("artifact-hash", "tts: hash mismatch for narration.wav"),
            ("artifact-hash", "timeline: hash mismatch for timeline.json"),
            ("artifact-hash", "video: hash mismatch for video.html"),
        ]


def _rewrite_artifact(project: Path, name: str, payload: dict | str | bytes) -> None:
    """Replace an artifact, given as a JSON payload, as text or as bytes, and
    re-hash its manifest entry, as a tool would."""
    path = project / name
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(payload if isinstance(payload, str)
                        else json.dumps(payload, indent=2, sort_keys=True) + "\n")
    manifest = ProjectManifest.load(project / "manifest.json")
    for record in manifest.stages:
        for artifact in record["artifacts"]:
            if artifact["path"] == name:
                artifact["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
                artifact["bytes"] = path.stat().st_size
    manifest.save(project / "manifest.json")


class TestValidateRerunsRunChecks:
    @pytest.fixture
    def project_copy(self, completed_project, tmp_path):
        import shutil

        out, _ = completed_project
        return Path(shutil.copytree(out, tmp_path / "copy"))

    def test_insight_count_advisory(self, project_copy):
        payload = json.loads((project_copy / "analyst.json").read_text())
        payload["Insights"] = (payload["Insights"] * 11)[:11]
        _rewrite_artifact(project_copy, "analyst.json", payload)
        report = validate_project(project_copy)
        assert report.passing
        assert "insight-count" in {a.code for a in report.advisories}

    def test_annotated_spec_layer_rule(self, project_copy):
        payload = json.loads((project_copy / "designer.json").read_text())
        assert "layer" in payload["Annotated_Visualization"]
        payload["Annotated_Visualization"]["mark"] = "line"
        _rewrite_artifact(project_copy, "designer.json", payload)
        report = validate_project(project_copy)
        assert [v.code for v in report.violations] == ["layer-rule"]

    def test_annotation_segment_must_be_verbatim(self, project_copy):
        payload = json.loads((project_copy / "designer.json").read_text())
        payload["Annotated_Narration_for_Annotation"][0]["nar"] = "Not in the narration."
        _rewrite_artifact(project_copy, "designer.json", payload)
        report = validate_project(project_copy)
        assert [(v.code, v.path) for v in report.violations] == [
            ("segment-unlocatable", "Annotated_Narration_for_Annotation[0]")]

    @pytest.mark.parametrize("name, code, edit, message", [
        ("timeline.json", "timeline-contract",
         lambda p: p["tracks"][0]["keyframes"][0].update(property="bogus"),
         "unknown property 'bogus'"),
        ("timeline.json", "timeline-contract",
         lambda p: p["tracks"][0]["keyframes"][0].pop("easing"),
         "tracks[0].keyframes[0]: missing key 'easing'"),
        ("timeline.json", "timeline-contract",
         lambda p: p["tracks"][0]["keyframes"][0].update(time="soon"), "'soon'"),
        ("timeline.json", "timeline-contract",
         lambda p: p.update(duration="long"), "'long' is not a number"),
        ("word_timings.json", "tts-contract",
         lambda p: p["words"][0].pop("end"), "words[0]: missing key 'end'"),
        # a whole artifact replaced: a falsy payload is not an absent one
        ("table.json", "ingest-contract", {}, "missing key 'columns', 'row_count', 'title'"),
        ("designer.json", "designer-contract", [], "[] is not an object"),
        ("description.json", "description-contract", lambda p: p.update(Description=5),
         "Description: 5 is not a string"),
        ("description.json", "description-contract", lambda p: p.update(Description="  "),
         "description text must be non-empty"),
        ("description.json", "description-contract", [], "[] is not an object"),
        ("word_timings.json", "tts-contract", [], "TypeError("),
        ("table.json", "ingest-contract", "not json", "JSONDecodeError("),
        ("analyst.json", "analyst-contract", "not json", "JSONDecodeError("),
        ("timeline.json", "timeline-contract", "not json", "JSONDecodeError("),
        ("base.svg", "base_render-contract", "not svg", "invalid SVG"),
        ("timeline.json", "timeline-duration", lambda p: p.update(duration=10**400),
         "!= audio duration"),
        ("timeline.json", "timeline-contract", "[" * 100_000 + "]" * 100_000,
         "RecursionError("),
        # values of the wrong type
        ("table.json", "ingest-contract", lambda p: p["columns"][0].update(name=5),
         "columns[0].name: 5 is not a string"),
        ("table.json", "ingest-contract", lambda p: p.update(row_count=float(p["row_count"])),
         "row_count: 20.0 is not an integer"),
        ("table.json", "ingest-contract", lambda p: p.update(title=[1]),
         "title: [1] is not a string"),
        ("table.json", "ingest-contract", lambda p: p["columns"][1]["values"].__setitem__(3, [1]),
         "columns[1].values[3]: [1] is not a string, a number or null"),
        ("table.json", "ingest-contract",
         lambda p: p["columns"][1]["values"].__setitem__(3, {"a": 1}),
         "columns[1].values[3]: {'a': 1} is not a string, a number or null"),
        ("timeline.json", "timeline-contract", lambda p: p["tracks"][0].update(element_id=5),
         "tracks[0].element_id: 5 is not a string"),
        ("timeline.json", "timeline-contract", lambda p: p["initial_visibility"].update(nosuch=5),
         "initial_visibility.nosuch: 5 is not one of 'visible', 'hidden'"),
        # a string of as many characters as the table has rows is no list of cells
        ("table.json", "ingest-contract", lambda p: p["columns"][0].update(values="x" * 20),
         "columns[0].values: 'xxxxxxxxxxxxxxxxxxxx' is not a list"),
        ("timeline.json", "timeline-contract",
         lambda p: p.update(initial_visibility=list(map(list, p["initial_visibility"].items()))),
         "]] is not an object"),
        ("word_timings.json", "tts-contract", lambda p: p["words"][0].update(char_start=1.0),
         "words[0].char_start: 1.0 is not an integer"),
        ("word_timings.json", "tts-contract", lambda p: p.update(advisories="x"),
         "advisories: 'x' is not a list"),
        ("word_timings.json", "tts-contract", lambda p: p.update(advisories=[5, None]),
         "advisories[0]: 5 is not an object"),
        ("word_timings.json", "tts-contract", lambda p: p["words"][0].update(start=False),
         "words[0].start: False is not a number"),
        ("timeline.json", "timeline-contract",
         lambda p: p["tracks"][0]["keyframes"][0].update(time=True),
         "tracks[0].keyframes[0].time: True is not a number"),
        ("timeline.json", "timeline-contract",
         lambda p: p["tracks"][0]["keyframes"][0].update(value=False),
         "tracks[0].keyframes[0].value: False is not a number"),
        ("word_timings.json", "tts-contract", lambda p: p.update(duration="3"),
         "duration: '3' is not a number"),
        ("word_timings.json", "tts-contract", lambda p: p["words"][0].update(char_end="3"),
         "words[0].char_end: '3' is not an integer"),
        # a well-typed span that is not its word's token in the narration
        ("word_timings.json", "tts-contract", lambda p: p["words"][0].update(char_start=1),
         "is not its token's [0,"),
        # well-typed times that break the timing rule
        ("word_timings.json", "tts-contract", lambda p: p["words"][0].update(start=0.3),
         "invalid word timing [0.3,0.3) of 'The'"),
        ("word_timings.json", "tts-contract", lambda p: p["words"][-1].update(end=20.0),
         "duration 14.7 s does not reach the last word's end at 20.0 s"),
        # the timeline follows the duration, so the trailing silence is the only fault
        ("word_timings.json", "tts-contract", (
            ("word_timings.json", lambda p: p.update(duration=25.0)),
            ("timeline.json", lambda p: p.update(duration=25.0))),
         "duration 25.0 s is more than 10 s past the last word's end at 14.7 s"),
    ], ids=["unknown-property", "no-easing", "text-time", "text-duration",
            "word-without-end", "empty-table", "designer-list", "description-int",
            "description-blank", "description-list", "timings-list",
            "table-not-json", "analyst-not-json", "timeline-not-json", "base-not-svg",
            "huge-duration", "deeply-nested", "column-name-int", "row-count-float",
            "title-list", "cell-list", "cell-object", "element-id-int", "visibility-int",
            "values-text", "visibility-pairs", "char-start-float", "advisories-text",
            "advisories-not-objects", "start-false", "keyframe-time-true",
            "keyframe-value-false", "timings-duration-text", "char-end-text",
            "char-start-off-token", "word-start-at-end", "last-word-past-duration",
            "trailing-silence"])
    def test_malformed_timeline_or_timings_is_a_violation(self, project_copy, name, code,
                                                          edit, message):
        # edit is one artifact's edit or whole new content, or a tuple of
        # (artifact, edit or content) pairs
        for artifact, change in edit if isinstance(edit, tuple) else [(name, edit)]:
            if callable(change):
                payload = json.loads((project_copy / artifact).read_text())
                change(payload)
            else:
                payload = change  # the artifact's whole new content
            _rewrite_artifact(project_copy, artifact, payload)
        report = validate_project(project_copy)
        assert [(v.code, v.path) for v in report.violations] == [(code, name)]
        assert message in report.violations[0].message

    def test_deeply_nested_base_rendering(self, project_copy):
        # A renderer's SVG may nest to any depth: here the marks sit 5,000
        # plain groups down, far past the interpreter's recursion limit.
        before = validate_project(project_copy)
        text = (project_copy / "base.svg").read_text()
        head = text.index('<g data-role="marks">') + len('<g data-role="marks">')
        tail = text.rindex("</g></svg>")
        _rewrite_artifact(project_copy, "base.svg",
                          text[:head] + "<g>" * 5000 + text[head:tail] + "</g>" * 5000 + text[tail:])
        report = validate_project(project_copy)
        assert report.passing
        assert report.to_json() == before.to_json()

    def test_analyst_checked_without_the_table(self, project_copy):
        payload = json.loads((project_copy / "analyst.json").read_text())
        payload["Narration"] = 5
        _rewrite_artifact(project_copy, "analyst.json", payload)
        (project_copy / "table.json").unlink()
        report = validate_project(project_copy)
        assert [(v.code, v.path) for v in report.violations] == [
            ("artifact-hash", ""), ("analyst-contract", "analyst.json")]
        assert "Narration: 5 is not a string" in report.violations[1].message

    def test_targets_resolve_against_the_base_rendering(self, project_copy):
        # run resolved targets on base.svg; an unreadable annotated.svg must not matter
        (project_copy / "annotated.svg").write_text("not svg")
        report = validate_project(project_copy)
        assert [v.code for v in report.violations] == ["artifact-hash"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=8), children, max_size=3)),
    max_leaves=8,
)


@st.composite
def hostile_edits(draw, payload):
    """payload with the whole of it, or one value at a drawn path inside it,
    replaced by an arbitrary JSON value."""
    if isinstance(payload, dict) and payload and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(payload)))
        return {**payload, key: draw(hostile_edits(payload[key]))}
    if isinstance(payload, list) and payload and draw(st.booleans()):
        position = draw(st.integers(0, len(payload) - 1))
        return [*payload[:position], draw(hostile_edits(payload[position])),
                *payload[position + 1:]]
    return draw(json_values)


class TestHostileArtifacts:
    @pytest.fixture(scope="class")
    def project(self, completed_project, tmp_path_factory):
        import shutil

        return Path(shutil.copytree(completed_project[0],
                                    tmp_path_factory.mktemp("hostile") / "copy"))

    @given(data=st.data())
    def test_validate_and_inspect_never_crash(self, project, data):
        manifest = ProjectManifest.load(project / "manifest.json")
        name = data.draw(st.sampled_from(sorted(
            artifact["path"] for record in manifest.stages for artifact in record["artifacts"]
            if artifact["path"].endswith(".json"))))
        original = (project / name).read_bytes()
        manifest_text = (project / "manifest.json").read_text()
        _rewrite_artifact(project, name, data.draw(hostile_edits(json.loads(original))))
        try:
            assert main(["validate", "--project", str(project)]) in (0, 3)
            for stage in STAGE_TABLE:
                if name in stage.reads:
                    assert main(["inspect", "--project", str(project),
                                 "--stage", stage.name]) == 0
        finally:
            (project / name).write_bytes(original)
            (project / "manifest.json").write_text(manifest_text)


class _Replying:
    """A TTS that returns the given word_timings.json payload."""

    def __init__(self, timings: dict):
        self.timings = timings

    def synthesize(self, narration: str, out_path) -> dict:
        return self.timings


# Each clause of the word-timing rule, with the words its message names.
_CLAUSES = {
    "words": "timed words do not equal the narration's whitespace-split tokens",
    "span": "is not its token's",
    "timing": "invalid word timing",
    "overlap": "timings overlap at",
    "per-word": "more than 10 s for each of 49 words",
    "short": "does not reach the last word's end",
    "trailing": "more than 10 s past the last word's end",
}


@st.composite
def _broken_timings(draw, timings: dict):
    """(clause, the stock demo's timings stretched and with that clause broken).

    The stretch keeps every keyframe of the demo's timeline.json within the
    duration, so the timeline stays valid at the payload's duration."""
    stretch = draw(st.integers(100, 200)) / 100
    words = [dict(w, start=round(w["start"] * stretch, 6), end=round(w["end"] * stretch, 6))
             for w in timings["words"]]
    last = words[-1]
    duration = last["end"] + draw(st.integers(0, 999)) / 100
    word = draw(st.sampled_from(words))
    clause = draw(st.sampled_from(sorted(_CLAUSES)))
    if clause == "words":
        word["word"] += "x"
    elif clause == "span":
        word["char_end"] += 1
    elif clause == "timing":
        word["start"] = draw(st.sampled_from([word["end"], float("nan")]))
    elif clause == "overlap":
        position = draw(st.integers(1, len(words) - 1))
        words[position]["start"] = (words[position - 1]["start"] + words[position - 1]["end"]) / 2
    elif clause == "per-word":
        last["end"] = 10.0 * len(words) + draw(st.integers(1, 10**6)) / 100
    elif clause == "short":
        last["end"] = duration + draw(st.integers(1, 100)) / 100
    else:
        duration = last["end"] + 10 + draw(st.integers(1, 10**6)) / 100
    return clause, dict(timings, duration=duration, words=words)


class TestTimingRule:
    """One rule, timeline.validate_timings, holds for run and validate alike."""

    @pytest.fixture(scope="class")
    def project(self, completed_project, tmp_path_factory):
        import shutil

        return Path(shutil.copytree(completed_project[0],
                                    tmp_path_factory.mktemp("timings") / "copy"))

    @given(data=st.data())
    def test_each_clause_is_named_by_run_and_validate(self, project, data):
        from datareel import timeline
        from datareel.adapters import TtsFailure, synthesize_speech

        narration = json.loads((project / "analyst.json").read_text())["Narration"]
        originals = {name: (project / name).read_bytes()
                     for name in ("word_timings.json", "timeline.json", "manifest.json")}
        clause, timings = data.draw(_broken_timings(json.loads(originals["word_timings.json"])))
        problems = timeline.validate_timings(narration, timings)
        assert len(problems) == 1 and _CLAUSES[clause] in problems[0], problems
        with pytest.raises(TtsFailure, match=re.escape(_CLAUSES[clause])):
            synthesize_speech(narration, _Replying(timings), project / "unused.wav")
        timeline_payload = json.loads(originals["timeline.json"])
        timeline_payload["duration"] = timings["duration"]
        try:
            _rewrite_artifact(project, "word_timings.json", timings)
            _rewrite_artifact(project, "timeline.json", timeline_payload)
            report = validate_project(project)
            assert [(v.code, v.path, v.message) for v in report.violations] == [
                ("tts-contract", "word_timings.json", problems[0])]
        finally:
            for name, content in originals.items():
                (project / name).write_bytes(content)


class TestArtifactDigests:
    """The mock synth and the HTML export write these exact bytes for the stock demo."""

    @pytest.mark.parametrize("export, name, digest", [
        ("video", "video_manifest.json",
         "2707be17fd689257bdacf636249ae4238bddde56a3e022100b6e4e83a0ffd6e8"),
        ("html", "video.html",
         "d0a7551205fc56b5bbee03545613f26fb1008d25f3527243a5291cb8f302f6fe"),
    ])
    def test_stock_demo_artifact_digest(self, mock_project_config, export, name, digest):
        config = mock_project_config(export=export)
        run_pipeline(config)
        data = (Path(config.output_dir) / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


class TestRegister:
    """A file an adapter wrote is hashed a chunk at a time, not read whole."""

    def test_hashes_in_chunks(self, mock_project_config, tmp_path):
        run = pipeline._Run(mock_project_config(output_dir=str(tmp_path)))
        data = bytes(range(256)) * (4 << 12)  # 4 MiB
        (tmp_path / "video.mp4").write_bytes(data)
        record = {"artifacts": []}
        tracemalloc.start()
        try:
            run.register(record, "video.mp4")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record["artifacts"] == [{"path": "video.mp4", "bytes": len(data),
                                        "sha256": hashlib.sha256(data).hexdigest()}]
        assert peak < 1 << 19


# SHA-256 of each stock-demo JSON artifact's canonical form (sorted keys, no
# whitespace), and of every other artifact's bytes. manifest.json holds
# timestamps and is not pinned.
DEMO_JSON_MEANING = {
    "analyst.json":
        "5c6935c96b54499519153a6e5cfb75b4e364ecb4a21e2023e20f0937f9419dc8",
    "analyst_repair.json":
        "41d37d5b6f739c1af0b94403db8e5ef9d9067c6e88de5764f94457bd77876c6a",
    "analyst_validation.json":
        "227d6506f3a5c7e9809176e44107537a410d137bff07f08fcb8957e15600b34b",
    "bindings.json":
        "22cb33c650ea19096a07b3a36070f4c54a56ce590fbeabea452db79af7cebec3",
    "description.json":
        "e656fc77459b77e76d2bf9c7664f1342cb6efc8f51a2e5e32780e65d712db00f",
    "description_repair.json":
        "41d37d5b6f739c1af0b94403db8e5ef9d9067c6e88de5764f94457bd77876c6a",
    "description_validation.json":
        "227d6506f3a5c7e9809176e44107537a410d137bff07f08fcb8957e15600b34b",
    "designer.json":
        "3dbc0c20cab2b90912b23083587c50fd33fa7d5e0dfd7340cec3886f7891998a",
    "designer_repair.json":
        "41d37d5b6f739c1af0b94403db8e5ef9d9067c6e88de5764f94457bd77876c6a",
    "designer_validation.json":
        "227d6506f3a5c7e9809176e44107537a410d137bff07f08fcb8957e15600b34b",
    "table.json":
        "83458104526a300dd3c08edb864752ecaf6fff0863b2cda94b3bceaa638bf175",
    "timeline.json":
        "8f7f37ff77550e55802c030423b491cb4043bd253c693d8033b95c0a30d510a1",
    "timeline_validation.json":
        "227d6506f3a5c7e9809176e44107537a410d137bff07f08fcb8957e15600b34b",
    "video_manifest.json":
        "dac3afef26dc5d61fc4d651cc456da01c386f9d283c0bb4843a11af87d30fc21",
    "word_timings.json":
        "b2e30ad3d20dd159dacdae45fc88cc5acfbed74f965d6e2d0abd4b735e431f62",
}
DEMO_OTHER_BYTES = {
    "annotated.svg":
        "24c7bf14688e92af69b649dff41a501141037659dbe3f31589bc1220c5af2e50",
    "base.svg":
        "1066f30eff1bc868f82b8dc114addd2d25154e2062c22281b899cfd27b7d2bf0",
    "narration.wav":
        "7dbec24177131c6e94eebf9d38383aefde37a1d8392b4f185cd63c265917705b",
    "video.html":
        "d0a7551205fc56b5bbee03545613f26fb1008d25f3527243a5291cb8f302f6fe",
}


class TestArtifactMeaning:
    """What each stock-demo artifact says, independent of how its JSON is laid out."""

    @pytest.fixture
    def demo_dir(self, completed_project):
        return completed_project[0]

    @pytest.mark.parametrize("name", sorted(DEMO_JSON_MEANING))
    def test_json_artifact_meaning(self, demo_dir, name):
        value = json.loads((demo_dir / name).read_text(encoding="utf-8"))
        canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == DEMO_JSON_MEANING[name]

    @pytest.mark.parametrize("name", sorted(DEMO_OTHER_BYTES))
    def test_other_artifact_bytes(self, demo_dir, name):
        digest = hashlib.sha256((demo_dir / name).read_bytes()).hexdigest()
        assert digest == DEMO_OTHER_BYTES[name]

    def test_every_artifact_is_pinned(self, demo_dir):
        names = {p.name for p in demo_dir.iterdir()} - {"manifest.json"}
        assert names == set(DEMO_JSON_MEANING) | set(DEMO_OTHER_BYTES)


def _grouped_bars_project(dest: Path) -> Path:
    """Run a small grouped-bars project in mock mode and return its directory.

    Six stores by three channels, text labels over seven bars, and a narration
    of one overview and three sentences. Two sentences carry
    Highlight-one-and-fade-others and one a Bar-bounce, so many marks hold
    equal keyframe tracks; a Shine on the Ashford bars overlaps the second
    dimming, which gives track-overlap advisories.
    """
    stores = ("Ashford", "Brookvale", "Carrow", "Dunmore", "Elmstead", "Farley")
    channels = ("Online", "Retail", "Export")
    rows = [{"store": s, "channel": c, "sales": float(100 + 37 * i + 11 * j)}
            for j, c in enumerate(channels) for i, s in enumerate(stores)]
    row_of = {(r["store"], r["channel"]): n for n, r in enumerate(rows)}
    dest.mkdir(parents=True)
    csv_path = dest / "table.csv"
    csv_path.write_text("store,channel,sales\n" + "".join(
        f"{r['store']},{r['channel']},{r['sales']}\n" for r in rows), encoding="utf-8")
    overview = "This chart compares sales across six stores and three channels."
    focus = (("Brookvale", "Retail"), ("Dunmore", "Online"), ("Farley", "Export"))
    sentences = [f"At {s} the {c} channel sold {rows[row_of[(s, c)]]['sales']} units."
                 for s, c in focus]
    encoding = {"x": {"field": "store", "type": "nominal"}, "xOffset": {"field": "channel"},
                "y": {"field": "sales", "type": "quantitative"},
                "color": {"field": "channel", "type": "nominal"}}
    spec = {"title": "Sales by Store and Channel", "data": {"values": rows}, "mark": "bar",
            "encoding": encoding}
    analyst = {
        "Insights": [{"insight": "Farley sells the most through Export.",
                      "type": ["Find Extremum"]},
                     {"insight": "Sales rise from Ashford to Farley.", "type": ["Trend"]},
                     {"insight": "Channels differ at every store.", "type": ["Comparison"]}],
        "Visualization": spec, "Visualization_Type": "bar",
        "Narration": " ".join([overview] + sentences),
    }
    overlay = [0, 3, 5, 8, 10, 13, 16]
    labels = [dict(rows[i], label=f"{rows[i]['sales']} units") for i in overlay]
    animations = [
        {"animation": "Axes-fade-in", "narration": overview, "target": "the axes",
         "index": [], "explanation": "Reveal the frame."},
        {"animation": "Bar-grow-and-legend-fade-in", "narration": overview,
         "target": "all bars and the legend", "index": [], "explanation": "Grow the bars."},
        {"animation": "Highlight-one-and-fade-others", "narration": sentences[0],
         "target": "the Brookvale bars", "explanation": "Point at Brookvale.",
         "index": [row_of[("Brookvale", c)] for c in channels]},
        {"animation": "Bar-bounce", "narration": sentences[1], "target": "one bar",
         "index": [row_of[focus[1]]], "explanation": "Point at Dunmore."},
        {"animation": "Highlight-one-and-fade-others", "narration": sentences[2],
         "target": "the Farley bars", "explanation": "Point at Farley.",
         "index": [row_of[("Farley", c)] for c in channels]},
        {"animation": "Shine-in-a-short-duration", "narration": sentences[2],
         "target": "the Ashford bars", "explanation": "Overlaps the dimming.",
         "index": [row_of[("Ashford", c)] for c in channels]},
    ]
    designer = {
        "Annotated_Visualization": {
            "title": spec["title"], "data": {"values": rows},
            "layer": [{"mark": "bar", "encoding": encoding},
                      {"data": {"values": labels}, "mark": "text",
                       "encoding": {"x": {"field": "store", "type": "nominal"},
                                    "y": {"field": "sales", "type": "quantitative"},
                                    "text": {"field": "label"}}}]},
        "Annotated_Narration_for_Animation": animations,
        "Annotated_Narration_for_Annotation": [
            {"type": ["text"], "description": "Sales labels.", "index": overlay[k::3],
             "nar": sentence} for k, sentence in enumerate(sentences)],
    }
    description = {"Description": "Yearly sales of six stores across three channels."}
    scripts = {
        "description": [{"match": "Give a short and consistent description",
                         "reply": json.dumps(description)}],
        "analyst": [{"match": "You are a data analyst.", "reply": json.dumps(analyst)}],
        "designer": [{"match": "You are a data video designer.",
                      "reply": json.dumps(designer)}],
    }
    transcripts = {}
    for role, script in scripts.items():
        transcripts[role] = str(dest / f"{role}_script.json")
        Path(transcripts[role]).write_text(json.dumps(script), encoding="utf-8")
    from datareel.pipeline import ProjectConfig

    out = dest / "project"
    run_pipeline(ProjectConfig(input_csv=str(csv_path), output_dir=str(out),
                               title=spec["title"], mock_mode=True,
                               transcripts=transcripts, export="html"))
    return out


class TestSharedTrackDigests:
    """A project where many marks share keyframe tracks writes these exact bytes."""

    @pytest.fixture(scope="class")
    def project(self, tmp_path_factory):
        return _grouped_bars_project(tmp_path_factory.mktemp("grouped") / "inputs")

    def test_project_validates(self, project):
        assert validate_project(project).passing

    @pytest.mark.parametrize("name, digest", [
        ("timeline.json",
         "7daf66f72a7411e3467b9549216758629f76780c79e6ab0b56b6eec1fd744862"),
        ("timeline_validation.json",
         "670d6f4d671e00bd74a5d6535c15f142caa1ede9bd184a65810d67fc4d70f209"),
        ("video.html",
         "e835af765f4c1d064ce5510e98126f9395681ffc09821d1e80e7f722c034060b"),
    ])
    def test_artifact_digest(self, project, name, digest):
        assert hashlib.sha256((project / name).read_bytes()).hexdigest() == digest


def _perfbench_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextmanager
def _collector(enabled: bool):
    """Automatic cyclic garbage collection on or off for the block."""
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was else gc.disable()


class TestCyclicCollector:
    """run_pipeline and validate_project pause automatic cyclic collection, so
    they must leave no reference cycles behind and must hand the collector
    back as they found it."""

    @pytest.mark.parametrize("workload", ["stock-demo", "synth-long", "overlay-wide"])
    def test_compile_and_validate_leave_no_cycles(self, tmp_path, workload):
        inputs = _perfbench_workloads().generate(
            workload, 1, tmp_path / "inputs", Path(__file__).resolve().parent.parent)
        from datareel.pipeline import ProjectConfig

        config = ProjectConfig.from_file(inputs.config, output_dir=str(tmp_path / "project"))
        with _collector(False):
            gc.collect()
            run_pipeline(config)
            assert gc.collect() == 0
            assert validate_project(config.output_dir).passing
            assert gc.collect() == 0

    def test_validate_frees_its_objects_while_paused(self, tmp_path):
        # Were the overlay-wide checks' objects still alive when the collector
        # resumes, the next allocation would start a collection over all of them.
        inputs = _perfbench_workloads().generate(
            "overlay-wide", 1, tmp_path / "inputs", Path(__file__).resolve().parent.parent)
        from datareel.pipeline import ProjectConfig

        config = ProjectConfig.from_file(inputs.config, output_dir=str(tmp_path / "project"))
        run_pipeline(config)
        collections = []
        gc.callbacks.append(lambda phase, info: collections.append(info["generation"]))
        try:
            with _collector(True):
                gc.collect()
                collections.clear()
                assert validate_project(config.output_dir).passing
        finally:
            gc.callbacks.pop()
        assert collections == []

    def test_run_frees_its_objects_while_paused(self, tmp_path):
        # Were the overlay-wide stage outputs still alive when the collector
        # resumes, the next allocation would start a collection over all of them.
        inputs = _perfbench_workloads().generate(
            "overlay-wide", 1, tmp_path / "inputs", Path(__file__).resolve().parent.parent)
        from datareel.pipeline import ProjectConfig

        # An object freed onto one of the interpreter's free lists does not
        # lower the allocation count that starts a collection, and a full
        # collection empties those lists. So compiles first fill them, as
        # earlier compiles in a process would have: until two in a row end at
        # the same gen-0 count, when the lists are as full as a compile leaves
        # them. Only the young generations are collected before each compile.
        ends = []
        for warm_up in range(6):
            config = ProjectConfig.from_file(inputs.config,
                                             output_dir=str(tmp_path / f"warm-up-{warm_up}"))
            gc.collect(1)
            run_pipeline(config)
            ends.append(gc.get_count()[0])
            if ends[-2:] == [ends[-1]] * 2:
                break
        config = ProjectConfig.from_file(inputs.config, output_dir=str(tmp_path / "project"))
        collections = []
        gc.callbacks.append(lambda phase, info: collections.append(info["generation"]))
        try:
            with _collector(True):
                gc.collect(1)
                collections.clear()
                run_pipeline(config)
        finally:
            gc.callbacks.pop()
        assert collections == []

    @pytest.mark.parametrize("enabled", [True, False])
    def test_setting_restored(self, mock_project_config, enabled):
        with _collector(enabled):
            config = mock_project_config(export="html")
            run_pipeline(config)
            assert gc.isenabled() is enabled
            assert validate_project(config.output_dir).passing
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_setting_restored_after_validate_error(self, tmp_path, enabled):
        with _collector(enabled):
            with pytest.raises(ManifestNotFound):
                validate_project(tmp_path / "absent")
            assert gc.isenabled() is enabled

    def test_setting_restored_after_stage_error(self, mock_project_config, tmp_path):
        bad = tmp_path / "bad_designer.json"
        bad.write_text(json.dumps([{"reply": "{}"}] * 3))
        config = mock_project_config(transcripts={**TRANSCRIPTS, "designer": str(bad)})
        with _collector(True):
            with pytest.raises(StageError):
                run_pipeline(config)
            assert gc.isenabled()


def _cli(capsys, *args: str) -> tuple[int, str]:
    """The exit code of `datareel <args>` and what it wrote, stdout then stderr."""
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out + captured.err


class TestCli:
    def _config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "output_dir": str(tmp_path / "proj"),
            "mock_mode": True,
            "transcripts": TRANSCRIPTS,
            "input_csv": "placeholder",
        }))
        return path

    # Each exited 1 with a traceback: Path.is_file() re-raises ENAMETOOLONG.
    # A listed artifact is a hash violation, every other path a precondition.
    @pytest.mark.parametrize("args, exit_code", [
        (["validate", "--project", "{project}"], 3),
        (["validate", "--project", "{long}"], 2),
        (["inspect", "--project", "{long}", "--stage", "video"], 2),
        (["run", "--input", "{csv}", "--config", "{config}", "--output", "{long}"], 2),
        (["run", "--input", "{long}", "--config", "{config}"], 2),
    ], ids=["listed-artifact", "validate-project", "inspect-project", "run-output",
            "run-input"])
    def test_path_too_long(self, completed_project, tmp_path, stock_csv_path, capsys,
                           args, exit_code):
        import shutil

        long_name = "x" * 300
        project = Path(shutil.copytree(completed_project[0], tmp_path / "copy"))
        manifest = ProjectManifest.load(project / "manifest.json")
        manifest.stages[-1]["artifacts"].append(
            {"path": long_name, "sha256": "0" * 64, "bytes": 0})
        manifest.save(project / "manifest.json")
        paths = {"project": project, "long": tmp_path / long_name, "csv": stock_csv_path,
                 "config": self._config_file(tmp_path)}
        code, output = _cli(capsys, *(arg.format(**paths) for arg in args))
        assert code == exit_code, output
        assert long_name in output
        if exit_code == 3:
            assert "violation [artifact-hash]: video: " in output

    def test_run_inspect_validate(self, tmp_path, stock_csv_path, capsys):
        config = self._config_file(tmp_path)
        code, output = _cli(
            capsys, "run", "--input", str(stock_csv_path),
            "--title", "Weekly Stock Prices of Four IT Companies",
            "--config", str(config), "--export", "both",
        )
        assert code == 0, output
        assert "video: ok" in output

        code, output = _cli(
            capsys, "inspect", "--project", str(tmp_path / "proj"), "--stage", "analyst")
        assert code == 0
        assert "visualization type: line" in output

        code, output = _cli(capsys, "validate", "--project", str(tmp_path / "proj"))
        assert code == 0
        assert "all validators passed" in output

    def test_validate_malformed_timeline_exit_code_3(self, completed_project, tmp_path, capsys):
        import shutil

        project = Path(shutil.copytree(completed_project[0], tmp_path / "copy"))
        payload = json.loads((project / "timeline.json").read_text())
        payload["tracks"][0]["keyframes"][0]["property"] = "bogus"
        _rewrite_artifact(project, "timeline.json", payload)
        code, output = _cli(capsys, "validate", "--project", str(project))
        assert code == 3, output
        assert "violation [timeline-contract] at timeline.json" in output

    def test_title_with_placeholder_text_compiles(self, tmp_path, stock_csv_path, capsys):
        config = self._config_file(tmp_path)
        code, output = _cli(
            capsys, "run", "--input", str(stock_csv_path), "--title", "{{table}}",
            "--config", str(config),
        )
        assert code == 0, output
        table = json.loads((tmp_path / "proj" / "table.json").read_text())
        assert table["title"] == "{{table}}"

    def test_shine_on_the_last_words_exits_0(self, tmp_path, capsys):
        # Shine's last stop was at t0 + 6 * length / 6, here 0.9000000000000001
        # past the 0.9 s narration, and the timeline stage failed.
        csv_path = tmp_path / "table.csv"
        csv_path.write_text("k,v\na,1\nb,2\n", encoding="utf-8")
        spec = {"data": {"values": [{"k": "a", "v": 1}, {"k": "b", "v": 2}]}, "mark": "bar",
                "encoding": {"x": {"field": "k", "type": "nominal"},
                             "y": {"field": "v", "type": "quantitative"}}}
        replies = {
            "description": ("Give a short and consistent description", {"Description": "d"}),
            "analyst": ("You are a data analyst.", {
                "Insights": [{"insight": "b is larger.", "type": ["Comparison"]}],
                "Visualization": spec, "Visualization_Type": "bar",
                "Narration": "Prices rise today."}),
            "designer": ("You are a data video designer.", {
                "Annotated_Visualization": spec,
                "Annotated_Narration_for_Animation": [{
                    "animation": "Shine-in-a-short-duration", "narration": "rise today.",
                    "target": "bar b", "index": [1], "explanation": "Point at b."}],
                "Annotated_Narration_for_Annotation": []}),
        }
        transcripts = {}
        for role, (match, reply) in replies.items():
            transcripts[role] = str(tmp_path / f"{role}.json")
            Path(transcripts[role]).write_text(
                json.dumps([{"match": match, "reply": json.dumps(reply)}]), encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"output_dir": str(tmp_path / "proj"), "mock_mode": True,
                                      "transcripts": transcripts}))
        code, output = _cli(capsys, "run", "--input", str(csv_path), "--config", str(config))
        assert code == 0, output
        timeline = json.loads((tmp_path / "proj" / "timeline.json").read_text())
        [track] = timeline["tracks"]
        assert track["keyframes"][-1]["time"] == timeline["duration"] == 0.9

    def test_missing_input_exit_code_2(self, tmp_path, capsys):
        config = self._config_file(tmp_path)
        code, _ = _cli(
            capsys, "run", "--input", str(tmp_path / "absent.csv"), "--config", str(config))
        assert code == 2

    def test_contract_failure_exit_code_3(self, tmp_path, stock_csv_path, capsys):
        bad = tmp_path / "bad_analyst.json"
        bad.write_text(json.dumps(
            [{"reply": "no json"}, {"reply": "still none"}, {"reply": "nope"}]
        ))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "output_dir": str(tmp_path / "proj"),
            "mock_mode": True,
            "transcripts": {**TRANSCRIPTS, "analyst": str(bad)},
            "input_csv": "placeholder",
        }))
        code, _ = _cli(
            capsys, "run", "--input", str(stock_csv_path), "--config", str(config_path))
        assert code == 3

    def test_non_object_layer_exit_code_3(self, tmp_path, stock_csv_path, capsys):
        # every analyst reply layers a non-object: a contract failure, not a crash
        reply = json.loads(Path(TRANSCRIPTS["analyst"]).read_text())[0]["reply"]
        payload = json.loads(reply[reply.index("{"):reply.rindex("}") + 1])
        visualization = payload["Visualization"]
        for key in ("mark", "encoding"):
            visualization.pop(key, None)
        visualization["layer"] = [1]
        bad = tmp_path / "bad_analyst.json"
        bad.write_text(json.dumps([{"reply": json.dumps(payload)}] * 3))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "output_dir": str(tmp_path / "proj"),
            "mock_mode": True,
            "transcripts": {**TRANSCRIPTS, "analyst": str(bad)},
            "input_csv": "placeholder",
        }))
        code, output = _cli(
            capsys, "run", "--input", str(stock_csv_path), "--config", str(config_path))
        assert code == 3, output
        assert '"layer" entry 0 must be a JSON object' in output

    # The renderer's output, not the agent's: a malformed data-row exits 4
    # on a mark (base render) and on an element only the annotated render has.
    @pytest.mark.parametrize("call, edit, stage, role", [
        (0, lambda svg: svg.replace('data-row="', 'data-row="1_', 1), "base_render", "mark"),
        (1, lambda svg: svg.replace("</svg>", '<text data-row="1_0">note</text></svg>'),
         "binding", "annotation"),
    ], ids=["mark", "annotation"])
    def test_malformed_data_row_exit_code_4(self, tmp_path, stock_csv_path, capsys,
                                            monkeypatch, call, edit, stage, role):
        calls = []
        render = MockRenderer.render

        def edited(renderer, spec):
            calls.append(spec)
            svg = render(renderer, spec)
            return edit(svg) if len(calls) - 1 == call else svg

        monkeypatch.setattr(MockRenderer, "render", edited)
        code, output = _cli(capsys, "run", "--input", str(stock_csv_path),
                            "--config", str(self._config_file(tmp_path)))
        assert code == 4, output
        assert f"stage '{stage}' failed: rendered {role} '" in output
        assert "carries malformed data-row '1_" in output

    def test_renderer_svg_with_a_dtd_internal_subset_exit_code_4(self, tmp_path, stock_csv_path,
                                                                capsys, monkeypatch):
        # The mock renderer hands the spec to a stub renderer command whose
        # SVG would expand to a 10,000-character text.
        stub = tmp_path / "render.py"
        stub.write_text("import sys\nsys.stdin.read()\n"
                        f"sys.stdout.write({ENTITY_EXPANSION_SVG!r})\n", encoding="utf-8")
        command = CommandRenderer([sys.executable, str(stub)])
        monkeypatch.setattr(MockRenderer, "render", lambda renderer, spec: command.render(spec))
        code, output = _cli(capsys, "run", "--input", str(stock_csv_path),
                            "--config", str(self._config_file(tmp_path)))
        assert code == 4, output
        assert "stage 'base_render' failed: " in output
        assert "renderer emitted invalid SVG: a DTD internal subset is not allowed" in output

    @pytest.mark.parametrize("attempts, exit_code", [(3, 4), (1, 3)])
    def test_malformed_description_reply_exit_code(self, tmp_path, stock_csv_path, capsys,
                                                   attempts, exit_code):
        # one scripted reply: a retry exhausts the transcript (adapter failure, 4);
        # with no retry allowed the reply is an unrepaired contract failure (3)
        bad = tmp_path / "bad_description.json"
        bad.write_text(json.dumps([{"reply": "no json"}]))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "output_dir": str(tmp_path / "proj"),
            "mock_mode": True,
            "transcripts": {**TRANSCRIPTS, "description": str(bad)},
            "input_csv": "placeholder",
            "max_repair_attempts": attempts,
        }))
        code, output = _cli(
            capsys, "run", "--input", str(stock_csv_path), "--config", str(config_path))
        assert code == exit_code, output

    def test_mode_and_cache_flags_override_config(self, tmp_path, stock_csv_path, capsys):
        config = self._config_file(tmp_path)
        args = ["run", "--input", str(stock_csv_path), "--config", str(config)]
        code, output = _cli(capsys, *args, "--no-mock")
        assert code == 2
        assert "live mode requires a backend configuration" in output
        code, output = _cli(capsys, *args, "--no-cache", "--export", "html")
        assert code == 0, output
        manifest = ProjectManifest.load(tmp_path / "proj" / "manifest.json")
        assert manifest.config["no_cache"] is True
        assert manifest.config["mock_mode"] is True

    @pytest.mark.parametrize("content, message", [
        (None, "unreadable config file"),
        ("{bad", "unreadable config file"),
        ("[]", "does not hold a JSON object"),
        (lambda c: c.pop("output_dir"), "missing key 'output_dir'"),
        (lambda c: c.update(fps="30"), "fps: '30' is not an integer"),
        (lambda c: c.update(fps=True), "fps: True is not an integer"),
        (lambda c: c.update(max_repair_attempts="3"), "max_repair_attempts: '3' is not an integer"),
        (lambda c: c.update(prompt_max_rows="x"), "prompt_max_rows: 'x' is not an integer"),
        (lambda c: c.update(title=5), "title: 5 is not a string or null"),
        (lambda c: c.update(renderer_cmd=["render", 5]), "renderer_cmd[1]: 5 is not a string"),
        (lambda c: c["transcripts"].update(analyst=5), "transcripts.analyst: 5 is not a string"),
    ], ids=["missing-file", "not-json", "list", "no-output-dir", "fps-text", "fps-bool",
            "attempts-text", "rows-text", "title-int", "command-int", "transcript-int"])
    def test_bad_config_exit_code_2(self, tmp_path, stock_csv_path, capsys, content, message):
        config = self._config_file(tmp_path)
        if content is None:
            config.unlink()
        elif callable(content):
            raw = json.loads(config.read_text())
            content(raw)
            config.write_text(json.dumps(raw))
        else:
            config.write_text(content)
        code, output = _cli(
            capsys, "run", "--input", str(stock_csv_path), "--config", str(config))
        assert code == 2, output
        assert message in output
        assert not (tmp_path / "proj").exists()

    def test_backend_kind_key_rejected_exit_code_2(self, tmp_path, stock_csv_path, capsys):
        config = self._config_file(tmp_path)
        raw = json.loads(config.read_text())
        raw["backend"] = {"kind": "live", "endpoint": "http://localhost:1/v1",
                          "api_key_env": "DATAREEL_API_KEY"}
        config.write_text(json.dumps(raw))
        code, output = _cli(
            capsys, "run", "--input", str(stock_csv_path), "--config", str(config))
        assert code == 2
        assert "backend: unknown key 'kind'" in output
        assert not (tmp_path / "proj").exists()

    @pytest.mark.parametrize("key, value", [
        ("max_retries", "2"), ("timeout", "60"), ("temperature", True),
    ], ids=["retries-text", "timeout-text", "temperature-bool"])
    def test_backend_value_of_wrong_type_exit_code_2(self, tmp_path, stock_csv_path, capsys,
                                                     monkeypatch, key, value):
        monkeypatch.setenv("DATAREEL_API_KEY", "unused")  # so a run would reach the backend
        config = self._config_file(tmp_path)
        raw = json.loads(config.read_text())
        raw["mock_mode"] = False
        raw["backend"] = {"endpoint": "http://localhost:1/v1",
                          "api_key_env": "DATAREEL_API_KEY", key: value}
        config.write_text(json.dumps(raw))
        code, output = _cli(
            capsys, "run", "--input", str(stock_csv_path), "--config", str(config))
        assert code == 2, output
        assert f"backend.{key}: {value!r} is not a" in output
        assert not (tmp_path / "proj").exists()

    def test_backend_float_takes_an_int(self, tmp_path, stock_csv_path, capsys):
        config = self._config_file(tmp_path)
        raw = json.loads(config.read_text())
        raw["backend"] = {"endpoint": "http://localhost:1/v1",
                          "api_key_env": "DATAREEL_API_KEY", "temperature": 0, "timeout": 5}
        config.write_text(json.dumps(raw))
        code, output = _cli(
            capsys, "run", "--input", str(stock_csv_path), "--config", str(config))
        assert code == 0, output

    @pytest.mark.parametrize("content", [b"{bad", b"\xff\xfe["], ids=["not-json", "not-utf8"])
    def test_unreadable_transcript_exit_code_2(self, tmp_path, stock_csv_path, capsys,
                                               content):
        bad = tmp_path / "analyst.json"
        bad.write_bytes(content)
        config = self._config_file(tmp_path)
        raw = json.loads(config.read_text())
        raw["transcripts"] = {**TRANSCRIPTS, "analyst": str(bad)}
        config.write_text(json.dumps(raw))
        code, output = _cli(
            capsys, "run", "--input", str(stock_csv_path), "--config", str(config))
        assert code == 2, output
        assert f"unreadable transcript {bad}" in output

    @pytest.mark.parametrize("entry, message", [
        ({"reply": 7}, "[0].reply: 7 is not a string"),
        ({"match": 5, "reply": "{}"}, "[0].match: 5 is not a string or null"),
    ], ids=["reply-not-text", "match-not-text"])
    def test_transcript_entry_of_wrong_type_exit_code_2(self, tmp_path, stock_csv_path, capsys,
                                                        entry, message):
        # A reply of 7 exited 4 as an exhausted transcript; a match of 5 exited 1.
        bad = tmp_path / "description.json"
        bad.write_text(json.dumps([entry]))
        config = self._config_file(tmp_path)
        raw = json.loads(config.read_text())
        raw["transcripts"] = {**TRANSCRIPTS, "description": str(bad)}
        config.write_text(json.dumps(raw))
        code, output = _cli(
            capsys, "run", "--input", str(stock_csv_path), "--config", str(config))
        assert code == 2, output
        assert f"unreadable transcript {bad}: {message}" in output

    def test_transcript_entry_keys_beyond_match_and_reply_are_ignored(self, tmp_path):
        from datareel.runtime import load_transcript

        path = tmp_path / "calls.json"
        path.write_text(json.dumps([{"reply": "hi", "attempt": 1, "prompt": "p"}]))
        assert [entry["reply"] for entry in load_transcript(path)] == ["hi"]

    @pytest.mark.parametrize("content, cause", [
        (b"dat\xe9,v\n1,2\n", "can't decode byte 0xe9"),
        (b"a,b\n" + b"x" * (csv.field_size_limit() + 1) + b",1\n",
         "field larger than field limit"),
    ], ids=["latin-1", "field-over-the-csv-limit"])
    def test_unreadable_input_csv_exit_code_2(self, tmp_path, capsys, content, cause):
        # Each exited 1: a UnicodeDecodeError, and a csv.Error, which is no ValueError.
        path = tmp_path / "input.csv"
        path.write_bytes(content)
        code, output = _cli(
            capsys, "run", "--input", str(path), "--config", str(self._config_file(tmp_path)))
        assert code == 2, output
        assert f"unreadable input CSV {path}: " in output and cause in output

    def test_input_csv_read_error_exit_code_2(self, tmp_path, stock_csv_path, capsys,
                                             monkeypatch):
        read_text = Path.read_text

        def failing_read(path, *args, **kwargs):
            if path == stock_csv_path:
                raise OSError(5, "Input/output error")
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", failing_read)
        code, output = _cli(capsys, "run", "--input", str(stock_csv_path),
                            "--config", str(self._config_file(tmp_path)))
        assert code == 2, output
        assert f"unreadable input CSV {stock_csv_path}: [Errno 5] Input/output error" in output

    @pytest.mark.parametrize("export, duration, message", [
        ("video", 1e308, "past the last word's end"), ("html", 1e9, "past the last word's end"),
        ("video", 1.0, "does not reach the last word's end at 14.7 s")],
        ids=["overflowing", "huge", "short"])
    def test_tts_duration_before_or_far_past_the_last_word_exit_code_4(
            self, tmp_path, stock_csv_path, capsys, monkeypatch, export, duration, message):
        # At 1e308 s the mock synth's frame count overflowed; at 1e9 s the
        # synth would build 3e10 frame times, and HTML export accepted it.
        # At 1.0 s the timeline stage found keyframes past the duration.
        tts = tmp_path / "tts.py"
        tts.write_text(
            "import json, sys\n"
            "request = json.load(sys.stdin)\n"
            "open(request['audio_path'], 'wb').close()\n"
            "words = request['text'].split()\n"
            "timings = [[w, i * 0.3, (i + 1) * 0.3] for i, w in enumerate(words)]\n"
            f"json.dump({{'audio_path': request['audio_path'], 'duration': {duration!r},\n"
            "           'timings': timings}, sys.stdout)\n", encoding="utf-8")
        # Live mode, to run tts_cmd; the scripted replies stand in for the endpoint.
        replies = {entry["match"]: entry["reply"] for path in TRANSCRIPTS.values()
                   for entry in json.loads(Path(path).read_text(encoding="utf-8"))}

        def scripted(backend, body):
            prompt = json.loads(body)["messages"][-1]["content"]
            return next(reply for match, reply in replies.items() if match in prompt)

        monkeypatch.setattr(HttpChatBackend, "_request", scripted)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "output_dir": str(tmp_path / "proj"), "input_csv": "placeholder",
            "mock_mode": False, "no_cache": True, "export": export,
            "backend": {"endpoint": "http://127.0.0.1:9/v1", "api_key_env": "UNUSED"},
            "tts_cmd": [sys.executable, str(tts)],
        }))
        code, output = _cli(
            capsys, "run", "--input", str(stock_csv_path), "--config", str(config_path))
        assert code == 4, output
        assert message in output
        assert ProjectManifest.load(tmp_path / "proj" / "manifest.json").stages[-1][
            "name"] == "tts"

    @pytest.mark.parametrize("command", ["validate", "inspect"])
    @pytest.mark.parametrize("content", [
        "not json", "{}", "[]", '{"config": {}}',
        # an edit of the stage records
        lambda stages: stages[0]["artifacts"][0].pop("sha256"),
        lambda stages: stages.__setitem__(0, 5),
        lambda stages: stages[-1].update(artifacts={}),
        lambda stages: stages[-1]["artifacts"][0].update(bytes="12"),
        lambda stages: stages[3].pop("status"),
    ], ids=["not-json", "empty-object", "list", "no-stages", "artifact-without-sha256",
            "record-int", "artifacts-object", "bytes-text", "no-status"])
    def test_unreadable_manifest_exit_code_2(self, completed_project, tmp_path, capsys,
                                             command, content):
        import shutil

        project = Path(shutil.copytree(completed_project[0], tmp_path / "copy"))
        if callable(content):
            manifest = json.loads((project / "manifest.json").read_text())
            content(manifest["stages"])
            content = json.dumps(manifest)
        (project / "manifest.json").write_text(content)
        args = ["--stage", "ingest"] if command == "inspect" else []
        code, output = _cli(capsys, command, "--project", str(project), *args)
        assert code == 2, output
        assert output.startswith("error: unreadable manifest ")

    def test_unknown_stage_exit_code_2(self, tmp_path, stock_csv_path, capsys):
        config = self._config_file(tmp_path)
        _cli(capsys, "run", "--input", str(stock_csv_path), "--config", str(config))
        code, _ = _cli(
            capsys, "inspect", "--project", str(tmp_path / "proj"), "--stage", "bogus")
        assert code == 2

    def test_help_exits_0_and_lists_the_commands(self, capsys):
        code, output = _cli(capsys, "--help")
        assert code == 0
        for command in ("run", "inspect", "validate"):
            assert command in output
        code, output = _cli(capsys, "validate", "--help")
        assert code == 0
        assert "--project" in output

    @pytest.mark.parametrize("args", [(), ("run", "--config", "config.json"), ("bogus",)])
    def test_usage_error_exit_code_2(self, capsys, args):
        code, output = _cli(capsys, *args)
        assert code == 2
        assert output.startswith("usage: datareel")

    @pytest.mark.parametrize("flag, mock", [("--mock", True), ("--no-mock", False), (None, None)])
    def test_mock_flag_parses(self, flag, mock):
        # absent, the flag leaves mock_mode to the config file
        args = ["run", "--input", "in.csv", "--config", "config.json"]
        assert _parser().parse_args(args + [flag] if flag else args).mock is mock
