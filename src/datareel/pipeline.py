"""End-to-end pipeline orchestration with a persisted artifact manifest.

STAGE_TABLE fixes the stage order: ingest, description, analyst, base render,
designer, annotated render, binding, TTS, timeline, video. `run` calls each
entry's run function, `inspect` its summary and `validate` its check; `run` and
`validate` keep stage outputs in one map keyed by stage name. Each stage writes
its artifacts and the manifest as it ends, so a failed run leaves a partial
manifest plus the failure record behind for debugging.
"""

import csv
import gc
import hashlib
import json
import os
import time
from collections.abc import Callable
from contextlib import closing, contextmanager
from pathlib import Path
from typing import Literal, NamedTuple, TypedDict

from . import adapters, analyst, binding, designer, ingest, timeline as tl
from .errors import PipelineError, PreconditionError, StageError
from .model import (
    Cell,
    DataTable,
    JsonTypeError,
    ValidationReport,
    Violation,
    VisualizationSpec,
    dump_artifact,
    read_typed,
    row_text,
)
from .runtime import BackendConfig, ChatSession, HttpChatBackend, MockChatBackend

AGENT_STAGES = ("description", "analyst", "designer")


class UnknownStage(PreconditionError):
    def __init__(self, name: str):
        super().__init__(f"unknown stage {name!r}; expected one of {', '.join(STAGES)}")


class ManifestNotFound(PreconditionError):
    pass


class ProjectConfig(NamedTuple):
    """Everything one pipeline run needs: inputs, backends, tools, and knobs.

    The fields are the config file's keys, annotated with the types README's
    schema gives them; from_file and validate read the values by them
    (model.read_typed). Nothing changes a config or its values: every config
    built without transcripts holds one empty dict."""

    input_csv: str
    output_dir: str
    title: str | None = None
    mock_mode: bool = True
    transcripts: dict[str, str] = {}
    backend: BackendConfig | None = None
    renderer_cmd: list[str] | None = None
    tts_cmd: list[str] | None = None
    synth_cmd: list[str] | None = None
    max_repair_attempts: int = 3
    fps: int = 30
    export: Literal["video", "html", "both"] = "video"
    prompt_max_rows: int = 100
    cache_dir: str | None = None
    no_cache: bool = False

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "ProjectConfig":
        try:
            with open(path, encoding="utf-8") as f:
                raw = json.load(f)
        except (OSError, ValueError) as e:
            raise PreconditionError(f"unreadable config file {path}: {e}") from None
        if not isinstance(raw, dict):
            raise PreconditionError(f"config file {path} does not hold a JSON object")
        raw.update({k: v for k, v in overrides.items() if v is not None})
        try:
            return read_typed(cls, raw)
        except JsonTypeError as e:
            raise PreconditionError(f"invalid config {path}: {e}") from None

    def validate(self) -> None:
        """Raise PreconditionError unless the config can run, a config built
        in Python being read as from_file reads a file."""
        try:
            read_typed(ProjectConfig, self.to_json())
        except JsonTypeError as e:
            raise PreconditionError(f"invalid config: {e}") from None
        if not _found(self.input_csv):
            raise PreconditionError(f"input file not found: {self.input_csv}")
        if self.fps < 1:
            raise PreconditionError("fps must be at least 1")
        if self.mock_mode:
            missing = [s for s in AGENT_STAGES if s not in self.transcripts]
            if missing:
                raise PreconditionError(
                    f"mock mode requires transcript paths for: {', '.join(missing)}"
                )
            for stage_name, path in self.transcripts.items():
                if not _found(path):
                    raise PreconditionError(
                        f"transcript for {stage_name!r} not found: {path}"
                    )
        elif self.backend is None:
            raise PreconditionError("live mode requires a backend configuration")

    def to_json(self) -> dict:
        payload = self._asdict()
        payload["transcripts"] = {k: str(v) for k, v in self.transcripts.items()}
        if payload.pop("backend") is not None:
            payload["backend"] = self.backend._asdict()
        return payload


def _found(path: str | Path) -> bool:
    """Whether path names a file; PreconditionError if the OS refuses to look."""
    try:
        return Path(path).is_file()
    except OSError as e:  # ENAMETOOLONG or EACCES, which is_file re-raises
        raise PreconditionError(f"unusable path {path}: {e.strerror}") from None


class ProjectManifest:
    """Execution record: ordered stages with artifact paths, hashes, and sizes."""

    __slots__ = ("config", "created_at", "stages")

    def __init__(self, config: dict | None = None, created_at: str = "",
                 stages: list | None = None):
        self.config = {} if config is None else config
        self.created_at = created_at
        self.stages = [] if stages is None else stages

    def stage(self, name: str) -> dict | None:
        for record in self.stages:
            if record["name"] == name:
                return record
        return None

    def to_json(self) -> dict:
        return {"config": self.config, "created_at": self.created_at, "stages": self.stages}

    def save(self, path: str | Path) -> None:
        with closing(_ManifestFile(path)) as file:
            file.write(self)

    @classmethod
    def load(cls, path: str | Path) -> "ProjectManifest":
        if not _found(path):
            raise ManifestNotFound(f"manifest not found: {path}")
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
            manifest = cls(config=raw["config"], created_at=raw["created_at"],
                           stages=read_typed(list[StageRecord], raw["stages"], "stages"))
        except (KeyError, TypeError, ValueError) as e:
            raise PreconditionError(f"unreadable manifest {path}: {e!r}") from None
        return manifest


class ArtifactEntry(TypedDict):
    """One artifact of a stage: its path in the project, and the SHA-256 and
    size of its bytes."""

    path: str
    sha256: str
    bytes: int


class StageRecord(TypedDict):
    """One stage's record in the manifest, as run writes it."""

    name: str
    status: str
    started_at: str
    finished_at: str | None
    artifacts: list[ArtifactEntry]
    error: str | None


class _ManifestFile:
    """manifest.json, created by the first write and rewritten in place by
    each later one: the text goes to offset 0 and the file is cut to its
    length, so it is never truncated to zero on the way."""

    def __init__(self, path: str | Path):
        self.path = path
        self._file = None
        self._rows: list[str] = []  # the text of each stage record written so far

    def write(self, manifest: ProjectManifest) -> None:
        """Write manifest over the file. A stage record is encoded the first
        time it is written, so it must be final by then, as it is when a run
        writes the manifest after each stage."""
        self._rows.extend(map(row_text, manifest.stages[len(self._rows):]))
        payload = {**manifest.to_json(), "stages": iter(self._rows)}
        data = dump_artifact(payload).encode("utf-8")
        if self._file is None:
            self._file = open(os.open(self.path, os.O_RDWR | os.O_CREAT, 0o666), "r+b")
        self._file.seek(0)
        self._file.write(data)
        self._file.truncate()  # flushes, then cuts the file at the end of data

    def close(self) -> None:
        if self._file is not None:
            self._file.close()


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


class _Run:
    """Mutable state threaded through one pipeline execution."""

    def __init__(self, config: ProjectConfig):
        self.config = config
        self.out = Path(config.output_dir)
        self.manifest = ProjectManifest(config=config.to_json(), created_at=_now())
        self.live_backend = None
        self.outputs: dict = {}  # stage name -> what its run function returned
        self.agent_limits = {"max_attempts": config.max_repair_attempts,
                             "max_rows": config.prompt_max_rows}

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

    def tool(self, command: list[str] | None, adapter, mock):
        """adapter(command) when live mode has the tool's command, else mock."""
        return adapter(command) if not self.config.mock_mode and command else mock

    def write_artifact(self, record: dict, filename: str, content: str) -> None:
        """Write content as UTF-8 and record the hash and size of those bytes."""
        data = content.encode("utf-8")
        (self.out / filename).write_bytes(data)
        self._record(record, filename, hashlib.sha256(data).hexdigest(), len(data))

    def register(self, record: dict, filename: str) -> None:
        """Record a file an adapter wrote (video_manifest.json, narration.wav,
        video.mp4), read and hashed a chunk at a time."""
        with (self.out / filename).open("rb") as file:
            self._record(record, filename, _sha256_of(file), file.tell())

    @staticmethod
    def _record(record: dict, filename: str, sha256: str, size: int) -> None:
        record["artifacts"].append({"path": filename, "sha256": sha256, "bytes": size})


_HASH_CHUNK = 1 << 16


def _sha256_of(file) -> str:
    """The sha256 hex digest of a binary file read to its end _HASH_CHUNK
    bytes at a time."""
    digest = hashlib.sha256()
    while chunk := file.read(_HASH_CHUNK):
        digest.update(chunk)
    return digest.hexdigest()


@contextmanager
def _cyclic_gc_paused():
    """Pause automatic cyclic garbage collection; set it back as the caller had it.

    The stages and the validators leave no reference cycles behind, so the
    collector would only walk the objects they build."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def run_pipeline(config: ProjectConfig) -> ProjectManifest:
    """Execute every stage in order, persisting artifacts and the manifest.

    Stops at the first unrecoverable error, wrapping it with the stage name;
    the partial manifest (including the failure record) is persisted first.
    Automatic cyclic garbage collection is paused while the stages run.
    """
    config.validate()
    with _cyclic_gc_paused():  # what the stages build is freed in the helper, while paused
        return _run_pipeline(config)


def _run_pipeline(config: ProjectConfig) -> ProjectManifest:
    run = _Run(config)
    try:
        run.out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise PreconditionError(f"cannot create output directory {run.out}: {e.strerror}") from None
    with closing(_ManifestFile(run.out / "manifest.json")) as manifest_file:
        for stage in STAGE_TABLE:
            record = {"name": stage.name, "status": "running", "started_at": _now(),
                      "finished_at": None, "artifacts": [], "error": None}
            run.manifest.stages.append(record)
            try:
                run.outputs[stage.name] = stage.run(run, record)
                record["status"] = "ok"
            except Exception as e:
                record["status"] = "failed"
                record["error"] = f"{type(e).__name__}: {e}"
                raise StageError(stage.name, e) from e
            finally:
                record["finished_at"] = _now()
                manifest_file.write(run.manifest)
    return run.manifest


def _load_artifact(project_dir: Path, name: str, hashes: dict | None = None):
    """A persisted artifact, None if absent, else its bytes decoded as
    read_text(encoding="utf-8") decodes them, with universal newlines: parsed
    JSON for a .json file other than timeline.json, which Timeline.from_text
    reads, else the text. hashes, when given, gets name's sha256 from the
    bytes read, which are released once decoded."""
    path = project_dir / name
    if not path.is_file():
        return None
    data = path.read_bytes()
    if hashes is not None:
        hashes[name] = hashlib.sha256(data).hexdigest()
    text = data.decode("utf-8")
    del data
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return json.loads(text) if name.endswith(".json") and name != "timeline.json" else text


# What loading a hostile artifact, or summarizing or checking its payload, raises.
_UNREADABLE = (PipelineError, AttributeError, KeyError, RecursionError, TypeError, ValueError)


def _stage_ingest(run: _Run, record: dict) -> DataTable:
    path = Path(run.config.input_csv)
    try:  # a csv.Error: a field longer than csv.field_size_limit()
        table = ingest.parse_csv(path.read_text(encoding="utf-8-sig"),
                                 run.config.title or path.stem)
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise PreconditionError(f"unreadable input CSV {path}: {e}") from None
    run.write_artifact(record, "table.json", dump_artifact({
        "title": table.title,
        "row_count": table.row_count,
        "columns": [{"name": name, "values": list(values)} for name, values in table.columns],
    }))
    return table


class _Column(TypedDict):
    name: str
    values: list[Cell]


class _TableJson(TypedDict):
    title: str
    row_count: int
    columns: list[_Column]


def _check_ingest(payload, outputs):
    table = read_typed(_TableJson, payload)
    columns = tuple([(column["name"], tuple(column["values"])) for column in table["columns"]])
    return DataTable(table["title"], columns, table["row_count"]), ValidationReport()


def _summarize_ingest(payload) -> list[str]:
    table = read_typed(_TableJson, payload)
    names = ", ".join(col["name"] for col in table["columns"])
    return [f"table: {table['title']!r}, {table['row_count']} rows, columns: {names}"]


def _agent_output(run: _Run, record: dict, role: str, result: tuple, to_json):
    """Write an agent's reply, validation and repair artifacts; return the reply."""
    output, report, repair = result
    run.write_artifact(record, f"{role}.json", dump_artifact(to_json(output)))
    run.write_artifact(record, f"{role}_validation.json", dump_artifact(report.to_json()))
    run.write_artifact(record, f"{role}_repair.json", dump_artifact(repair.to_json()))
    return output


def _stage_description(run: _Run, record: dict):
    result = ingest.describe(run.session_for("description"), run.outputs["ingest"],
                             **run.agent_limits)
    return _agent_output(run, record, "description", result, ingest.description_to_json)


def _check_description(payload, outputs):
    return ingest.description_from_json(payload), ValidationReport()


def _summarize_description(payload) -> list[str]:
    return [f"description: {ingest.description_from_json(payload).text}"]


def _stage_analyst(run: _Run, record: dict):
    result = analyst.run_analyst(run.session_for("analyst"), run.outputs["description"],
                                 run.outputs["ingest"], **run.agent_limits)
    return _agent_output(run, record, "analyst", result, analyst.analyst_output_to_json)


def _check_analyst(payload, outputs):
    output = analyst.analyst_output_from_json(payload)
    return output, analyst.validate_analyst_output(output)


def _summarize_analyst(payload) -> list[str]:
    output = analyst.analyst_output_from_json(payload)
    return [
        f"visualization type: {output.visualization.vis_type}",
        *(f"insight [{', '.join(item.types)}]: {item.insight}" for item in output.insights),
        f"narration: {output.narration}",
    ]


def _stage_base_render(run: _Run, record: dict) -> binding.Rendering:
    renderer = run.tool(run.config.renderer_cmd, adapters.CommandRenderer, adapters.MockRenderer())
    base = adapters.render_visualization(
        run.outputs["analyst"].visualization, renderer, run.outputs["ingest"])
    run.write_artifact(record, "base.svg", base.svg)
    return base


def _check_base_render(svg, outputs):
    return adapters.read_rendering(svg, outputs["ingest"]), ValidationReport()


def _designer_resolver(base: binding.Rendering):
    """Directive targets resolved against the base rendering's marks."""
    return lambda directive: binding.resolve_targets(directive, base.index)


def _stage_designer(run: _Run, record: dict):
    vis, narration = run.outputs["analyst"].visualization, run.outputs["analyst"].narration
    result = designer.run_designer(
        run.session_for("designer"), vis, narration, run.outputs["ingest"],
        resolver=_designer_resolver(run.outputs["base_render"]), **run.agent_limits)
    return _agent_output(run, record, "designer", result, designer.designer_output_to_json)


def _check_designer(payload, outputs):
    output = designer.designer_output_from_json(payload, outputs["ingest"])
    return output, designer.validate_designer_output(
        output, outputs["analyst"].narration, _designer_resolver(outputs["base_render"]))


def _summarize_designer(payload, bindings: dict | None, table) -> list[str]:
    if table is None:
        raise PreconditionError("missing artifact table.json")
    output = designer.designer_output_from_json(payload, _check_ingest(table, None)[0])
    # bindings.json lists resolved targets in directive order
    resolved = [entry["ids"] for entry in (bindings or {}).get("resolved_targets", [])]
    lines = ["animation directives:"]
    for position, d in enumerate(output.animation_directives):
        ids = resolved[position] if position < len(resolved) else None
        target_part = f" -> {ids}" if ids is not None else ""
        lines.append(
            f"  {d.animation} ({d.category}) on {d.target!r} "
            f"rows={list(d.index)} segment={d.narration!r}{target_part}"
        )
    lines.append("annotation directives:")
    for d in output.annotation_directives:
        lines.append(
            f"  {'/'.join(d.types)} rows={list(d.index)} segment={d.nar!r}: {d.description}"
        )
    return lines


def _stage_annotated_render(run: _Run, record: dict) -> binding.Rendering:
    spec = VisualizationSpec(
        spec=run.outputs["designer"].annotated_visualization,
        vis_type=run.outputs["analyst"].visualization.vis_type,
    )
    renderer = run.tool(run.config.renderer_cmd, adapters.CommandRenderer, adapters.MockRenderer())
    annotated = adapters.render_visualization(spec, renderer, run.outputs["ingest"])
    run.write_artifact(record, "annotated.svg", annotated.svg)
    return annotated


def _stage_binding(run: _Run, record: dict) -> binding.Bindings:
    bindings = binding.bind(run.outputs["base_render"], run.outputs["annotated_render"],
                            run.outputs["designer"])
    run.write_artifact(record, "bindings.json", dump_artifact(bindings.to_json()))
    return bindings


def _summarize_binding(payload: dict) -> list[str]:
    roles: dict[str, int] = {}
    for entry in payload["mark_index"]:
        for role in entry["roles"]:
            roles[role] = roles.get(role, 0) + 1
    return [
        "indexed elements: " + ", ".join(f"{r}={n}" for r, n in sorted(roles.items())),
        f"annotation elements: {len(payload['annotation_ids'])}",
    ]


def _stage_tts(run: _Run, record: dict) -> tl.WordTimingsJson:
    tts = run.tool(run.config.tts_cmd, adapters.CommandTts, adapters.MockTts())
    timings = adapters.synthesize_speech(run.outputs["analyst"].narration, tts,
                                         run.out / "narration.wav")
    run.register(record, "narration.wav")
    run.write_artifact(record, "word_timings.json", dump_artifact(timings))
    return timings


def _check_tts(payload, outputs):
    timings = read_typed(tl.WordTimingsJson, payload)
    problems = tl.validate_timings(outputs["analyst"].narration, timings)
    return timings, ValidationReport(
        violations=tuple(Violation("tts-contract", "word_timings.json", p) for p in problems))


def _summarize_tts(payload) -> list[str]:
    payload = read_typed(tl.WordTimingsJson, payload)
    return [f"duration: {payload['duration']} s, {len(payload['words'])} timed words"]


def _stage_timeline(run: _Run, record: dict) -> tl.Timeline:
    bindings, tts = run.outputs["binding"], run.outputs["tts"]
    placed = tl.place(run.outputs["analyst"].narration, tts["words"],
                      bindings.resolved_targets, bindings.assignments)
    timeline, report = tl.compile_timeline(placed, bindings.index, tts["duration"])
    run.write_artifact(record, "timeline.json", dump_artifact(timeline.to_json()))
    run.write_artifact(record, "timeline_validation.json", dump_artifact(report.to_json()))
    return timeline


def _check_timeline(text: str, outputs):
    timeline, audio = tl.Timeline.from_text(text), outputs["tts"]["duration"]
    violations = [Violation("timeline-invariant", "timeline.json", problem)
                  for problem in tl.timeline_invariant_violations(timeline)]
    if timeline.duration != audio:
        message = f"timeline duration {timeline.duration} != audio duration {audio}"
        violations.append(Violation("timeline-duration", "timeline.json", message))
    return timeline, ValidationReport(violations=tuple(violations))


def _summarize_timeline(text: str) -> list[str]:
    timeline = tl.Timeline.from_text(text)
    hidden = sum(1 for v in timeline.initial_visibility.values() if v == "hidden")
    keyframes = sum(map(len, timeline.tracks.values()))
    return [
        f"duration: {timeline.duration} s, {len(timeline.tracks)} tracks, "
        f"{keyframes} keyframes, {hidden} initially hidden elements"
    ]


def _stage_video(run: _Run, record: dict) -> None:
    timeline = run.outputs["timeline"]
    if run.config.export in ("video", "both"):
        synth = run.tool(run.config.synth_cmd, adapters.CommandSynth,
                         adapters.MockSynth(fps=run.config.fps))
        out_name = ("video_manifest.json" if isinstance(synth, adapters.MockSynth)
                    else "video.mp4")
        adapters.synthesize_video(
            timeline, run.out / "annotated.svg", run.out / "narration.wav",
            synth, run.out / out_name,
        )
        run.register(record, out_name)
    if run.config.export in ("html", "both"):
        html = adapters.export_html(
            timeline, run.outputs["annotated_render"].doc.to_text(), "narration.wav",
        )
        run.write_artifact(record, "video.html", html)


def _summarize_video(payload: dict) -> list[str]:
    return [f"mock video: {payload['frame_count']} frames at "
            f"{payload['fps']} fps, {payload['duration']} s"]


class Stage(NamedTuple):
    """One pipeline step: run returns its output. When the first artifact named
    in reads exists, `inspect` prints summary's lines for the loaded artifacts,
    and `validate` calls check with the first one and the earlier outputs;
    check returns the stage's output, as run built it, and a ValidationReport."""

    name: str
    run: Callable[[_Run, dict], object]
    summary: Callable[..., list[str]] | None = None
    reads: tuple[str, ...] = ()
    check: Callable[[object, dict], tuple[object, ValidationReport]] | None = None


STAGE_TABLE = (
    Stage("ingest", _stage_ingest, _summarize_ingest, ("table.json",), _check_ingest),
    Stage("description", _stage_description, _summarize_description, ("description.json",),
          _check_description),
    Stage("analyst", _stage_analyst, _summarize_analyst, ("analyst.json",), _check_analyst),
    Stage("base_render", _stage_base_render, None, ("base.svg",), _check_base_render),
    Stage("designer", _stage_designer, _summarize_designer,
          ("designer.json", "bindings.json", "table.json"), _check_designer),
    Stage("annotated_render", _stage_annotated_render),
    Stage("binding", _stage_binding, _summarize_binding, ("bindings.json",)),
    Stage("tts", _stage_tts, _summarize_tts, ("word_timings.json",), _check_tts),
    Stage("timeline", _stage_timeline, _summarize_timeline, ("timeline.json",), _check_timeline),
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
    if stage.summary is not None and (project_dir / stage.reads[0]).is_file():
        payloads = []
        try:
            for name in stage.reads:
                payloads.append(_load_artifact(project_dir, name))
            # a summary that fails names every artifact it read
            name = ", ".join(n for n in stage.reads if (project_dir / n).is_file())
            lines.extend(stage.summary(*payloads))
        except _UNREADABLE as e:
            # the program's own errors are worded for the reader; others show their type
            lines.append(f"unreadable: {name}: {e if isinstance(e, PipelineError) else repr(e)}")
    return "\n".join(lines)


class _MissingInput(Exception):
    """A check read the output of an earlier stage that validate did not load."""


class _Outputs(dict):
    def __missing__(self, name: str):
        raise _MissingInput(name)


def validate_project(project_dir: str | Path) -> ValidationReport:
    """Run each stage's check in stage order, then check the manifest hashes.

    Each listed artifact is read once: a checked one is hashed from the bytes
    its check decodes, the others a chunk at a time. Hash violations come
    first, in manifest order. A stage is skipped when its artifact is absent
    or its check needs an earlier output that did not load; an artifact that
    does not load is one `<stage>-contract` violation. Cyclic GC is paused meanwhile."""
    with _cyclic_gc_paused():  # what the checks build is freed in the helper, while paused
        return _validate_project(Path(project_dir))


def _validate_project(project_dir: Path) -> ValidationReport:
    manifest = ProjectManifest.load(project_dir / "manifest.json")
    hashes = {}  # artifact -> the sha256 of its bytes, read once
    outputs = _Outputs()
    found = []
    for stage in STAGE_TABLE:
        if stage.check is None:
            continue
        name = stage.reads[0]
        try:
            payload = _load_artifact(project_dir, name, hashes)
            if name not in hashes:  # absent
                continue
            outputs[stage.name], report = stage.check(payload, outputs)
        except _MissingInput:
            continue
        except _UNREADABLE as e:
            report = ValidationReport(violations=(
                Violation(f"{stage.name}-contract", name, repr(e)),))
        found.append(report)
    problems = []
    for record in manifest.stages:
        for artifact in record.get("artifacts", []):
            name, path = artifact["path"], project_dir / artifact["path"]
            try:
                if name not in hashes and path.is_file():  # no check read it
                    with path.open("rb") as file:
                        hashes[name] = _sha256_of(file)
            except OSError as e:  # a path the OS refuses, such as one too long
                problems.append(f"{record['name']}: unreadable artifact {name}: {e.strerror}")
                continue
            if name not in hashes:
                problems.append(f"{record['name']}: missing artifact {name}")
            elif hashes[name] != artifact["sha256"]:
                problems.append(f"{record['name']}: hash mismatch for {name}")
    report = ValidationReport(violations=tuple(
        Violation("artifact-hash", "", problem) for problem in problems))
    for stage_report in found:
        report = report.merged(stage_report)
    return report
