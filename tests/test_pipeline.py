import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from datareel.adapters import MetadataMissing
from datareel.cli import main
from datareel.errors import PreconditionError, StageError
from datareel.pipeline import (
    STAGES,
    ManifestNotFound,
    ProjectManifest,
    UnknownStage,
    _summarize_designer,
    inspect_stage,
    run_pipeline,
    validate_project,
)
from datareel.runtime import RepairExhausted
from conftest import GOLDEN_DIR, STOCK_COMPANIES, TRANSCRIPTS


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
        out, manifest = completed_project
        assert manifest.verify(out) == []

    def test_missing_input_fails_before_any_stage(self, mock_project_config, tmp_path):
        config = mock_project_config(input_csv=str(tmp_path / "nope.csv"))
        with pytest.raises(PreconditionError):
            run_pipeline(config)
        assert not (Path(config.output_dir) / "manifest.json").exists()

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
                          "violations_per_attempt": [["Description: missing key"], []]}
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
        assert isinstance(err.value.cause, MetadataMissing)
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
        payload = {"Annotated_Narration_for_Animation": directives,
                   "Annotated_Narration_for_Annotation": []}
        bindings = {"resolved_targets": [dict(d, ids=[t.lower()]) for d, t in
                                         zip(directives, ("A", "B"))]}
        lines = _summarize_designer(payload, bindings)
        assert lines[1].endswith("-> ['a']")
        assert lines[2].endswith("-> ['b']")
        assert _summarize_designer(payload, None)[1].endswith(f"segment={segment!r}")

    def test_timeline_report(self, completed_project):
        out, _ = completed_project
        text = inspect_stage(out, "timeline")
        assert "duration: 14.7 s" in text
        assert "initially hidden" in text

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


def _rewrite_artifact(project: Path, name: str, payload: dict) -> None:
    """Replace a JSON artifact and re-hash its manifest entry, as a tool would."""
    path = project / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
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
            ("segment-unlocatable", "annotation[0]")]

    @pytest.mark.parametrize("name, code, edit, message", [
        ("timeline.json", "timeline-contract",
         lambda p: p["tracks"][0]["keyframes"][0].update(property="bogus"),
         "unknown property 'bogus'"),
        ("timeline.json", "timeline-contract",
         lambda p: p["tracks"][0]["keyframes"][0].pop("easing"), "KeyError('easing')"),
        ("timeline.json", "timeline-contract",
         lambda p: p["tracks"][0]["keyframes"][0].update(time="soon"), "'soon'"),
        ("timeline.json", "timeline-contract",
         lambda p: p.update(duration="long"), "'long' is not a number"),
        ("word_timings.json", "tts-contract",
         lambda p: p["words"][0].pop("end"), "KeyError('end')"),
    ], ids=["unknown-property", "no-easing", "text-time", "text-duration",
            "word-without-end"])
    def test_malformed_timeline_or_timings_is_a_violation(self, project_copy, name, code,
                                                          edit, message):
        payload = json.loads((project_copy / name).read_text())
        edit(payload)
        _rewrite_artifact(project_copy, name, payload)
        report = validate_project(project_copy)
        assert [(v.code, v.path) for v in report.violations] == [(code, name)]
        assert message in report.violations[0].message

    def test_targets_resolve_against_the_base_rendering(self, project_copy):
        # run resolved targets on base.svg; an unreadable annotated.svg must not matter
        (project_copy / "annotated.svg").write_text("not svg")
        report = validate_project(project_copy)
        assert [v.code for v in report.violations] == ["artifact-hash"]


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

    def test_run_inspect_validate(self, tmp_path, stock_csv_path):
        runner = CliRunner()
        config = self._config_file(tmp_path)
        result = runner.invoke(main, [
            "run", "--input", str(stock_csv_path),
            "--title", "Weekly Stock Prices of Four IT Companies",
            "--config", str(config), "--export", "both",
        ])
        assert result.exit_code == 0, result.output
        assert "video: ok" in result.output

        result = runner.invoke(main, [
            "inspect", "--project", str(tmp_path / "proj"), "--stage", "analyst",
        ])
        assert result.exit_code == 0
        assert "visualization type: line" in result.output

        result = runner.invoke(main, ["validate", "--project", str(tmp_path / "proj")])
        assert result.exit_code == 0
        assert "all validators passed" in result.output

    def test_validate_malformed_timeline_exit_code_3(self, completed_project, tmp_path):
        import shutil

        project = Path(shutil.copytree(completed_project[0], tmp_path / "copy"))
        payload = json.loads((project / "timeline.json").read_text())
        payload["tracks"][0]["keyframes"][0]["property"] = "bogus"
        _rewrite_artifact(project, "timeline.json", payload)
        result = CliRunner().invoke(main, ["validate", "--project", str(project)])
        assert result.exit_code == 3, result.output
        assert "violation [timeline-contract] at timeline.json" in result.output

    def test_title_with_placeholder_text_compiles(self, tmp_path, stock_csv_path):
        runner = CliRunner()
        config = self._config_file(tmp_path)
        result = runner.invoke(main, [
            "run", "--input", str(stock_csv_path), "--title", "{{table}}",
            "--config", str(config),
        ])
        assert result.exit_code == 0, result.output
        table = json.loads((tmp_path / "proj" / "table.json").read_text())
        assert table["title"] == "{{table}}"

    def test_missing_input_exit_code_2(self, tmp_path):
        runner = CliRunner()
        config = self._config_file(tmp_path)
        result = runner.invoke(main, [
            "run", "--input", str(tmp_path / "absent.csv"), "--config", str(config),
        ])
        assert result.exit_code == 2

    def test_contract_failure_exit_code_3(self, tmp_path, stock_csv_path):
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
        runner = CliRunner()
        result = runner.invoke(main, [
            "run", "--input", str(stock_csv_path), "--config", str(config_path),
        ])
        assert result.exit_code == 3

    def test_non_object_layer_exit_code_3(self, tmp_path, stock_csv_path):
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
        result = CliRunner().invoke(main, [
            "run", "--input", str(stock_csv_path), "--config", str(config_path),
        ])
        assert result.exit_code == 3, result.output
        assert '"layer" entry 0 must be a JSON object' in result.output

    @pytest.mark.parametrize("attempts, exit_code", [(3, 4), (1, 3)])
    def test_malformed_description_reply_exit_code(self, tmp_path, stock_csv_path,
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
        result = CliRunner().invoke(main, [
            "run", "--input", str(stock_csv_path), "--config", str(config_path),
        ])
        assert result.exit_code == exit_code, result.output

    def test_mode_and_cache_flags_override_config(self, tmp_path, stock_csv_path):
        runner = CliRunner()
        config = self._config_file(tmp_path)
        args = ["run", "--input", str(stock_csv_path), "--config", str(config)]
        result = runner.invoke(main, args + ["--no-mock"])
        assert result.exit_code == 2
        assert "live mode requires a backend configuration" in result.output
        result = runner.invoke(main, args + ["--no-cache", "--export", "html"])
        assert result.exit_code == 0, result.output
        manifest = ProjectManifest.load(tmp_path / "proj" / "manifest.json")
        assert manifest.config["no_cache"] is True
        assert manifest.config["mock_mode"] is True

    def test_backend_kind_key_rejected_exit_code_2(self, tmp_path, stock_csv_path):
        config = self._config_file(tmp_path)
        raw = json.loads(config.read_text())
        raw["backend"] = {"kind": "live", "endpoint": "http://localhost:1/v1",
                          "api_key_env": "DATAREEL_API_KEY"}
        config.write_text(json.dumps(raw))
        result = CliRunner().invoke(main, [
            "run", "--input", str(stock_csv_path), "--config", str(config),
        ])
        assert result.exit_code == 2
        assert "invalid backend config" in result.output
        assert not (tmp_path / "proj").exists()

    def test_unknown_stage_exit_code_2(self, tmp_path, stock_csv_path):
        runner = CliRunner()
        config = self._config_file(tmp_path)
        runner.invoke(main, [
            "run", "--input", str(stock_csv_path), "--config", str(config),
        ])
        result = runner.invoke(main, [
            "inspect", "--project", str(tmp_path / "proj"), "--stage", "bogus",
        ])
        assert result.exit_code == 2
