"""End-to-end pipeline orchestration with a persisted artifact manifest.

STAGE_TABLE fixes the stage order: ingest, description, analyst, base render,
designer, annotated render, binding, TTS, timeline, video. Each entry pairs a
stage's run function with its inspect summary. Every stage persists its
artifacts eagerly and the manifest is rewritten after each stage, so a failed
run leaves a partial manifest plus the failure record behind for debugging.
"""

import hashlib
import json
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import adapters, analyst, binding, designer, ingest, timeline as tl
from .errors import PreconditionError, StageError
from .model import (
    DataTable,
    RepairReport,
    ValidationReport,
    Violation,
    VisualizationSpec,
    classify_animation,
    dump_artifact,
)
from .runtime import BackendConfig, ChatSession, HttpChatBackend, MockChatBackend

AGENT_STAGES = ("description", "analyst", "designer")


class UnknownStage(PreconditionError):
    def __init__(self, name: str):
        super().__init__(f"unknown stage {name!r}; expected one of {', '.join(STAGES)}")


class ManifestNotFound(PreconditionError):
    pass


@dataclass
class ProjectConfig:
    """Everything one pipeline run needs: inputs, backends, tools, and knobs."""

    input_csv: str
    output_dir: str
    title: str | None = None
    mock_mode: bool = True
    transcripts: dict = field(default_factory=dict)
    backend: BackendConfig | None = None
    renderer_cmd: list | None = None
    tts_cmd: list | None = None
    synth_cmd: list | None = None
    max_repair_attempts: int = 3
    fps: int = 30
    export: str = "video"
    prompt_max_rows: int = 100
    cache_dir: str | None = None
    no_cache: bool = False

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "ProjectConfig":
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
        backend = raw.pop("backend", None)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise PreconditionError(f"unknown config keys: {', '.join(unknown)}")
        raw.update({k: v for k, v in overrides.items() if v is not None})
        config = cls(**raw)
        if backend is not None:
            try:
                config.backend = BackendConfig(**backend)
            except TypeError as e:
                raise PreconditionError(f"invalid backend config: {e}") from None
        return config

    def validate(self) -> None:
        if not Path(self.input_csv).is_file():
            raise PreconditionError(f"input file not found: {self.input_csv}")
        if self.export not in ("video", "html", "both"):
            raise PreconditionError(f"export must be video, html, or both; got {self.export!r}")
        if self.fps < 1:
            raise PreconditionError("fps must be at least 1")
        if self.mock_mode:
            missing = [s for s in AGENT_STAGES if s not in self.transcripts]
            if missing:
                raise PreconditionError(
                    f"mock mode requires transcript paths for: {', '.join(missing)}"
                )
            for stage_name, path in self.transcripts.items():
                if not Path(path).is_file():
                    raise PreconditionError(
                        f"transcript for {stage_name!r} not found: {path}"
                    )
        elif self.backend is None:
            raise PreconditionError("live mode requires a backend configuration")

    def to_json(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["transcripts"] = {k: str(v) for k, v in self.transcripts.items()}
        if payload.pop("backend") is not None:
            payload["backend"] = vars(self.backend)
        return payload


@dataclass
class ProjectManifest:
    """Execution record: ordered stages with artifact paths, hashes, and sizes."""

    config: dict = field(default_factory=dict)
    created_at: str = ""
    stages: list = field(default_factory=list)

    def stage(self, name: str) -> dict | None:
        for record in self.stages:
            if record["name"] == name:
                return record
        return None

    def to_json(self) -> dict:
        return {"config": self.config, "created_at": self.created_at, "stages": self.stages}

    def save(self, path: str | Path) -> None:
        Path(path).write_text(dump_artifact(self.to_json()), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ProjectManifest":
        if not Path(path).is_file():
            raise ManifestNotFound(f"manifest not found: {path}")
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(config=raw["config"], created_at=raw["created_at"], stages=raw["stages"])

    def verify(self, project_dir: str | Path) -> list[str]:
        """Check that every listed artifact exists and matches its hash."""
        problems = []
        for record in self.stages:
            for artifact in record.get("artifacts", []):
                path = Path(project_dir) / artifact["path"]
                if not path.is_file():
                    problems.append(f"{record['name']}: missing artifact {artifact['path']}")
                    continue
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                if digest != artifact["sha256"]:
                    problems.append(f"{record['name']}: hash mismatch for {artifact['path']}")
        return problems


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


class _Run:
    """Mutable state threaded through one pipeline execution."""

    def __init__(self, config: ProjectConfig):
        self.config = config
        self.out = Path(config.output_dir)
        self.manifest = ProjectManifest(config=config.to_json(), created_at=_now())
        self.live_backend = None
        self.table: DataTable | None = None
        self.description = None
        self.analyst_output = None
        self.designer_output = None
        self.base: binding.Rendering | None = None
        self.annotated: binding.Rendering | None = None
        self.bindings: binding.Bindings | None = None
        self.tts_result = None
        self.timeline: tl.Timeline | None = None

    def session_for(self, stage_name: str) -> ChatSession:
        if self.config.mock_mode:
            backend = MockChatBackend.from_file(self.config.transcripts[stage_name])
        else:
            if self.live_backend is None:
                cache_dir = None if self.config.no_cache else (
                    self.config.cache_dir or str(self.out / "cache")
                )
                self.live_backend = HttpChatBackend(self.config.backend, cache_dir=cache_dir)
            backend = self.live_backend
        return ChatSession(backend=backend)

    def renderer(self):
        if not self.config.mock_mode and self.config.renderer_cmd:
            return adapters.CommandRenderer(self.config.renderer_cmd)
        return adapters.MockRenderer()

    def tts(self):
        if not self.config.mock_mode and self.config.tts_cmd:
            return adapters.CommandTts(self.config.tts_cmd)
        return adapters.MockTts()

    def synth(self):
        if not self.config.mock_mode and self.config.synth_cmd:
            return adapters.CommandSynth(self.config.synth_cmd)
        return adapters.MockSynth(fps=self.config.fps)

    def write_artifact(self, record: dict, filename: str, content: str) -> None:
        """Write content as UTF-8 and record the hash and size of those bytes."""
        data = content.encode("utf-8")
        (self.out / filename).write_bytes(data)
        self._record(record, filename, data)

    def register(self, record: dict, filename: str) -> None:
        """Record a file an adapter wrote (video_manifest.json, narration.wav,
        video.mp4)."""
        self._record(record, filename, (self.out / filename).read_bytes())

    @staticmethod
    def _record(record: dict, filename: str, data: bytes) -> None:
        record["artifacts"].append({
            "path": filename,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        })


def run_pipeline(config: ProjectConfig) -> ProjectManifest:
    """Execute every stage in order, persisting artifacts and the manifest.

    Stops at the first unrecoverable error, wrapping it with the stage name;
    the partial manifest (including the failure record) is persisted first.
    """
    config.validate()
    run = _Run(config)
    run.out.mkdir(parents=True, exist_ok=True)

    for stage in STAGE_TABLE:
        record = {"name": stage.name, "status": "running", "started_at": _now(),
                  "finished_at": None, "artifacts": [], "error": None}
        run.manifest.stages.append(record)
        try:
            stage.run(run, record)
        except Exception as e:
            record["status"] = "failed"
            record["error"] = f"{type(e).__name__}: {e}"
            record["finished_at"] = _now()
            run.manifest.save(run.out / "manifest.json")
            raise StageError(stage.name, e) from e
        record["status"] = "ok"
        record["finished_at"] = _now()
        run.manifest.save(run.out / "manifest.json")
    return run.manifest


def _load_artifact(project_dir: Path, name: str):
    path = project_dir / name
    if not path.is_file():
        return None
    if name.endswith(".json"):
        return json.loads(path.read_text(encoding="utf-8"))
    return path.read_text(encoding="utf-8")


def _stage_ingest(run: _Run, record: dict) -> None:
    raw = Path(run.config.input_csv).read_text(encoding="utf-8")
    title = run.config.title or Path(run.config.input_csv).stem
    run.table = ingest.parse_csv(raw, title)
    run.write_artifact(record, "table.json", dump_artifact({
        "title": run.table.title,
        "row_count": run.table.row_count,
        "columns": [{"name": name, "values": list(values)}
                    for name, values in run.table.columns],
    }))


def _summarize_ingest(table: dict) -> list[str]:
    names = ", ".join(col["name"] for col in table["columns"])
    return [f"table: {table['title']!r}, {table['row_count']} rows, columns: {names}"]


def _write_agent_artifacts(run: _Run, record: dict, role: str, payload: dict,
                           report: ValidationReport, repair: RepairReport) -> None:
    run.write_artifact(record, f"{role}.json", dump_artifact(payload))
    run.write_artifact(record, f"{role}_validation.json", dump_artifact(report.to_json()))
    run.write_artifact(record, f"{role}_repair.json", dump_artifact(repair.to_json()))


def _stage_description(run: _Run, record: dict) -> None:
    run.description, report, repair = ingest.describe(
        run.session_for("description"), run.table,
        max_attempts=run.config.max_repair_attempts, max_rows=run.config.prompt_max_rows,
    )
    _write_agent_artifacts(run, record, "description", {"Description": run.description.text},
                           report, repair)


def _summarize_description(payload: dict) -> list[str]:
    return [f"description: {payload['Description']}"]


def _stage_analyst(run: _Run, record: dict) -> None:
    run.analyst_output, report, repair = analyst.run_analyst(
        run.session_for("analyst"), run.description, run.table,
        max_attempts=run.config.max_repair_attempts, max_rows=run.config.prompt_max_rows,
    )
    _write_agent_artifacts(run, record, "analyst",
                           analyst.analyst_output_to_json(run.analyst_output), report, repair)


def _summarize_analyst(payload: dict) -> list[str]:
    return [
        f"visualization type: {payload['Visualization_Type']}",
        *(f"insight [{', '.join(item['type'])}]: {item['insight']}"
          for item in payload["Insights"]),
        f"narration: {payload['Narration']}",
    ]


def _stage_base_render(run: _Run, record: dict) -> None:
    run.base = adapters.render_visualization(
        run.analyst_output.visualization, run.renderer(), run.table)
    run.write_artifact(record, "base.svg", run.base.svg)


def _designer_resolver(base: binding.Rendering):
    """Directive targets resolved against the base rendering's marks."""
    return lambda directive: binding.resolve_targets(directive, base.index)


def _stage_designer(run: _Run, record: dict) -> None:
    run.designer_output, report, repair = designer.run_designer(
        run.session_for("designer"), run.analyst_output.visualization,
        run.analyst_output.narration, run.table,
        max_attempts=run.config.max_repair_attempts,
        resolver=_designer_resolver(run.base),
        max_rows=run.config.prompt_max_rows,
    )
    _write_agent_artifacts(run, record, "designer",
                           designer.designer_output_to_json(run.designer_output), report, repair)


def _summarize_designer(payload: dict, bindings: dict | None) -> list[str]:
    # bindings.json lists resolved targets in directive order
    resolved = [entry["ids"] for entry in (bindings or {}).get("resolved_targets", [])]
    lines = ["animation directives:"]
    for position, item in enumerate(payload["Annotated_Narration_for_Animation"]):
        category = classify_animation(item["animation"]).value
        ids = resolved[position] if position < len(resolved) else None
        target_part = f" -> {ids}" if ids is not None else ""
        lines.append(
            f"  {item['animation']} ({category}) on {item['target']!r} "
            f"rows={item['index']} segment={item['narration']!r}{target_part}"
        )
    lines.append("annotation directives:")
    for item in payload["Annotated_Narration_for_Annotation"]:
        lines.append(
            f"  {'/'.join(item['type'])} rows={item['index']} "
            f"segment={item['nar']!r}: {item['description']}"
        )
    return lines


def _stage_annotated_render(run: _Run, record: dict) -> None:
    spec = VisualizationSpec(
        spec=run.designer_output.annotated_visualization,
        vis_type=run.analyst_output.visualization.vis_type,
    )
    run.annotated = adapters.render_visualization(spec, run.renderer(), run.table)
    run.write_artifact(record, "annotated.svg", run.annotated.svg)


def _stage_binding(run: _Run, record: dict) -> None:
    run.bindings = binding.bind(run.base, run.annotated, run.designer_output)
    run.write_artifact(record, "bindings.json", dump_artifact(run.bindings.to_json()))


def _summarize_binding(payload: dict) -> list[str]:
    roles: dict[str, int] = {}
    for entry in payload["mark_index"]:
        for role in entry["roles"]:
            roles[role] = roles.get(role, 0) + 1
    return [
        "indexed elements: " + ", ".join(f"{r}={n}" for r, n in sorted(roles.items())),
        f"annotation elements: {len(payload['annotation_ids'])}",
    ]


def _stage_tts(run: _Run, record: dict) -> None:
    narration = run.analyst_output.narration
    result, report = adapters.synthesize_speech(narration, run.tts(), run.out / "narration.wav")
    run.tts_result = result
    run.register(record, "narration.wav")
    run.write_artifact(record, "word_timings.json", dump_artifact({
        "duration": result.duration,
        "words": [
            {"word": t.word, "start": t.start, "end": t.end,
             "char_start": t.char_span.start_char, "char_end": t.char_span.end_char}
            for t in result.timings
        ],
        "advisories": [vars(a) for a in report.advisories],
    }))


def _summarize_tts(payload: dict) -> list[str]:
    return [f"duration: {payload['duration']} s, {len(payload['words'])} timed words"]


def _stage_timeline(run: _Run, record: dict) -> None:
    narration = run.analyst_output.narration
    timings = list(run.tts_result.timings)

    def interval_of(segment: str) -> tuple[float, float]:
        (interval,) = tl.align_segments([tl.locate_span(narration, segment, 0)], timings)
        return interval

    placed_directives = [
        tl.PlacedDirective(animation=d.animation, target_ids=ids,
                           interval=interval_of(d.narration),
                           label=f"{d.animation} on {d.target!r}")
        for d, ids in run.bindings.resolved_targets
    ]
    placed_annotations = [
        tl.PlacedAnnotation(element_ids=tuple(sorted(ids)), interval=interval_of(d.nar),
                            label=d.nar)
        for d, ids in run.bindings.assignments if ids
    ]
    run.timeline, report = tl.compile_timeline(
        placed_directives, placed_annotations, run.bindings.index, run.tts_result.duration,
    )
    run.write_artifact(record, "timeline.json", dump_artifact(run.timeline.to_json()))
    run.write_artifact(record, "timeline_validation.json", dump_artifact(report.to_json()))


def _summarize_timeline(payload: dict) -> list[str]:
    hidden = sum(1 for v in payload["initial_visibility"].values() if v == "hidden")
    keyframes = sum(len(t["keyframes"]) for t in payload["tracks"])
    return [
        f"duration: {payload['duration']} s, {len(payload['tracks'])} tracks, "
        f"{keyframes} keyframes, {hidden} initially hidden elements"
    ]


def _stage_video(run: _Run, record: dict) -> None:
    if run.config.export in ("video", "both"):
        synth = run.synth()
        out_name = ("video_manifest.json" if isinstance(synth, adapters.MockSynth)
                    else "video.mp4")
        adapters.synthesize_video(
            run.timeline, run.out / "annotated.svg", run.out / "narration.wav",
            synth, run.out / out_name,
        )
        run.register(record, out_name)
    if run.config.export in ("html", "both"):
        html = adapters.export_html(
            run.timeline, run.annotated.doc.to_text(), "narration.wav",
        )
        run.write_artifact(record, "video.html", html)


def _summarize_video(payload: dict) -> list[str]:
    return [f"mock video: {payload['frame_count']} frames at "
            f"{payload['fps']} fps, {payload['duration']} s"]


@dataclass(frozen=True)
class Stage:
    """One pipeline step. `inspect` calls summary with the persisted artifacts
    named in reads, when the first of them exists, and prints the lines."""

    name: str
    run: Callable[[_Run, dict], None]
    summary: Callable[..., list[str]] | None = None
    reads: tuple[str, ...] = ()


STAGE_TABLE = (
    Stage("ingest", _stage_ingest, _summarize_ingest, ("table.json",)),
    Stage("description", _stage_description, _summarize_description, ("description.json",)),
    Stage("analyst", _stage_analyst, _summarize_analyst, ("analyst.json",)),
    Stage("base_render", _stage_base_render),
    Stage("designer", _stage_designer, _summarize_designer,
          ("designer.json", "bindings.json")),
    Stage("annotated_render", _stage_annotated_render),
    Stage("binding", _stage_binding, _summarize_binding, ("bindings.json",)),
    Stage("tts", _stage_tts, _summarize_tts, ("word_timings.json",)),
    Stage("timeline", _stage_timeline, _summarize_timeline, ("timeline.json",)),
    Stage("video", _stage_video, _summarize_video, ("video_manifest.json",)),
)
STAGES = tuple(stage.name for stage in STAGE_TABLE)


def inspect_stage(project_dir: str | Path, stage_name: str) -> str:
    """Render a human-readable report for one persisted stage."""
    project_dir = Path(project_dir)
    manifest = ProjectManifest.load(project_dir / "manifest.json")
    stage = next((s for s in STAGE_TABLE if s.name == stage_name), None)
    if stage is None:
        raise UnknownStage(stage_name)
    record = manifest.stage(stage_name)
    lines = [f"stage: {stage_name}"]
    if record is None:
        lines.append("status: not executed")
        return "\n".join(lines)
    lines.append(f"status: {record['status']}")
    if record.get("error"):
        lines.append(f"error: {record['error']}")
    for artifact in record.get("artifacts", []):
        lines.append(f"artifact: {artifact['path']} ({artifact['bytes']} bytes)")
    if stage.summary is not None:
        payloads = [_load_artifact(project_dir, name) for name in stage.reads]
        if payloads[0]:
            lines.extend(stage.summary(*payloads))
    return "\n".join(lines)


def _table_from_artifact(payload: dict) -> DataTable:
    return DataTable(
        title=payload["title"],
        columns=tuple(
            (col["name"], tuple(col["values"])) for col in payload["columns"]
        ),
        row_count=payload["row_count"],
    )


def validate_project(project_dir: str | Path) -> ValidationReport:
    """Re-run all validators against the persisted artifacts of a project."""
    project_dir = Path(project_dir)
    manifest = ProjectManifest.load(project_dir / "manifest.json")
    violations: list[Violation] = []
    advisories: list[Violation] = []

    for problem in manifest.verify(project_dir):
        violations.append(Violation("artifact-hash", "", problem))

    table_payload = _load_artifact(project_dir, "table.json")
    table = _table_from_artifact(table_payload) if table_payload else None

    def reload(role: str, from_json):
        payload = _load_artifact(project_dir, f"{role}.json")
        if not (payload and table):
            return None
        try:
            return from_json(payload, table)
        except Exception as e:
            violations.append(Violation(f"{role}-contract", f"{role}.json", str(e)))
            return None

    def add(report: ValidationReport) -> None:
        violations.extend(report.violations)
        advisories.extend(report.advisories)

    analyst_output = reload("analyst", analyst.analyst_output_from_json)
    if analyst_output is not None:
        add(analyst.validate_analyst_output(analyst_output))
    designer_output = reload("designer", designer.designer_output_from_json)
    if designer_output is not None and analyst_output is not None:
        base_text = _load_artifact(project_dir, "base.svg")
        resolver = (_designer_resolver(adapters.read_rendering(base_text, table))
                    if base_text else None)
        add(designer.validate_designer_output(designer_output, analyst_output.narration,
                                              resolver))

    timings_payload = _load_artifact(project_dir, "word_timings.json")
    timeline_payload = _load_artifact(project_dir, "timeline.json")
    timings = None
    if timings_payload:
        try:
            timings = (timings_payload["duration"], [
                tl.WordTiming(w["word"], w["start"], w["end"],
                              tl.Span(w["char_start"], w["char_end"]))
                for w in timings_payload["words"]
            ])
        except (KeyError, TypeError, ValueError) as e:
            violations.append(Violation("tts-contract", "word_timings.json", repr(e)))
    if timeline_payload:
        try:
            timeline = tl.Timeline.from_json(timeline_payload)
        except (KeyError, TypeError, ValueError) as e:
            violations.append(Violation("timeline-contract", "timeline.json", repr(e)))
        else:
            for problem in tl.timeline_invariant_violations(timeline):
                violations.append(Violation("timeline-invariant", "timeline.json", problem))
            if timings and timeline.duration != timings[0]:
                violations.append(Violation(
                    "timeline-duration", "timeline.json",
                    f"timeline duration {timeline.duration} != audio duration {timings[0]}",
                ))
    if timings and analyst_output is not None:
        for problem in tl.validate_timings(analyst_output.narration, timings[1]):
            violations.append(Violation("tts-contract", "word_timings.json", problem))

    return ValidationReport(violations=tuple(violations), advisories=tuple(advisories))
