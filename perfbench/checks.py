"""Output checks for one compiled project.

Every check returns a list of problem strings; an empty list means the
compile is correct. None of them calls the keyframe evaluator of the program
under test: the frame oracle below interpolates `timeline.json` itself.
"""

import bisect
import hashlib
import json
from pathlib import Path

VISIBILITY_PROPERTIES = ("opacity", "scale", "clip_fraction", "wheel_fraction")
REST_VALUES = {"opacity": 1.0, "scale": 1.0, "translate_x": 0.0, "translate_y": 0.0,
               "clip_fraction": 1.0, "wheel_fraction": 1.0}
OPACITY_TOLERANCE = 1e-4  # the manifest rounds opacity to four decimals
ORACLE_STRIDE_FRAMES = 64


def _load(project: Path, name: str):
    return json.loads((project / name).read_text(encoding="utf-8"))


def artifact_digests(project: Path) -> dict:
    """SHA-256 of every artifact except manifest.json, which holds timestamps."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(project.iterdir()) if p.name != "manifest.json"}


def artifact_bytes(project: Path) -> int:
    """Total size of the artifacts the manifest lists."""
    manifest = _load(project, "manifest.json")
    return sum(a["bytes"] for stage in manifest["stages"] for a in stage["artifacts"])


def read_video_manifest(project: Path) -> dict:
    """The mock video as {fps, frame_count, frames: [(visible ids, opacity map)]}.

    This is the only place that knows the layout of video_manifest.json.
    """
    raw = _load(project, "video_manifest.json")
    frames = [(frame["visible"], frame["opacity"]) for frame in raw["frames"]]
    return {"fps": raw["fps"], "frame_count": raw["frame_count"], "frames": frames}


def _ease(name: str, p: float) -> float:
    if name == "ease-in":
        return p * p
    if name == "ease-out":
        return 1.0 - (1.0 - p) * (1.0 - p)
    if name == "ease-in-out":
        return 2 * p * p if p < 0.5 else 1.0 - 2 * (1.0 - p) * (1.0 - p)
    return p


class TimelineOracle:
    """Evaluates a persisted timeline.json independently of the program.

    Semantics, as the timeline format defines them: before a property's first
    keyframe the property is at rest; after its last keyframe it holds the
    last value; in between it eases from the left keyframe toward the right
    one with the right keyframe's easing. An element is visible when, from
    its first keyframe on, no visibility property is at or below zero;
    before that it keeps its initial visibility.
    """

    def __init__(self, timeline: dict):
        self.initial = timeline["initial_visibility"]
        self.tracks = {}
        self.first = {}
        for track in timeline["tracks"]:
            by_prop = {}
            for kf in track["keyframes"]:
                by_prop.setdefault(kf["property"], []).append(kf)
            self.tracks[track["element_id"]] = {
                prop: ([k["time"] for k in kfs], kfs) for prop, kfs in by_prop.items()
            }
            if track["keyframes"]:
                self.first[track["element_id"]] = min(k["time"] for k in track["keyframes"])
        self.ids = sorted(set(self.initial) | set(self.tracks))

    def value(self, eid: str, prop: str, t: float) -> float:
        track = self.tracks.get(eid, {}).get(prop)
        if track is None:
            return REST_VALUES[prop]
        times, kfs = track
        if t < times[0]:
            return REST_VALUES[prop]
        if t >= times[-1]:
            return kfs[-1]["value"]
        right = bisect.bisect_right(times, t)
        a, b = kfs[right - 1], kfs[right]
        span = b["time"] - a["time"]
        p = (t - a["time"]) / span if span else 1.0
        return a["value"] + (b["value"] - a["value"]) * _ease(b["easing"], p)

    def visible(self, eid: str, t: float) -> bool:
        if eid not in self.first or t < self.first[eid]:
            return self.initial.get(eid, "visible") == "visible"
        return all(self.value(eid, prop, t) > 0.0 for prop in VISIBILITY_PROPERTIES)

    def key_times(self) -> list[float]:
        return sorted({t for props in self.tracks.values() for times, _ in props.values()
                       for t in times})


def check_frames(project: Path) -> list[str]:
    """Compare the mock video against the oracle at sampled frames.

    Samples every ORACLE_STRIDE_FRAMES-th frame, the last frame, and the
    first frame at or after every keyframe time, where tracks change shape.
    """
    video = read_video_manifest(project)
    oracle = TimelineOracle(_load(project, "timeline.json"))
    fps, count = video["fps"], video["frame_count"]
    if count != len(video["frames"]):
        return [f"frame_count {count} but {len(video['frames'])} frames listed"]
    sampled = set(range(0, count, ORACLE_STRIDE_FRAMES)) | {count - 1}
    for t in oracle.key_times():
        f = int(t * fps)
        sampled.update(i for i in (f, f + 1) if 0 <= i < count)
    problems = []
    for f in sorted(sampled):
        t = f / fps
        visible, opacity = video["frames"][f]
        expected = [eid for eid in oracle.ids if oracle.visible(eid, t)]
        if visible != expected:
            problems.append(f"frame {f}: visible ids differ from the timeline "
                            f"({len(visible)} listed, {len(expected)} expected)")
            continue
        for eid in expected:
            want = oracle.value(eid, "opacity", t)
            if abs(opacity.get(eid, 1.0) - want) > OPACITY_TOLERANCE:
                problems.append(f"frame {f}: opacity of {eid} is "
                                f"{opacity.get(eid, 1.0)}, timeline gives {want:.6f}")
                break
    return problems


def check_counts(project: Path, inputs) -> list[str]:
    """Counts that follow from how the workload's inputs were generated."""
    problems = []
    diffed = len(_load(project, "bindings.json")["annotation_ids"])
    if diffed != inputs.annotation_ids:
        problems.append(f"{diffed} diffed annotation ids, expected {inputs.annotation_ids}")
    for role, attempts in inputs.attempts.items():
        repair = _load(project, f"{role}_repair.json")
        if repair["attempts"] != attempts or repair["final_status"] != "ok":
            problems.append(f"{role}: {repair['attempts']} completions "
                            f"({repair['final_status']}), expected {attempts}")
        reason = inputs.first_rejection.get(role)
        if reason and not any(reason in v for v in repair["violations_per_attempt"][0]):
            problems.append(f"{role}: first reply was not rejected for {reason!r}")
    return problems


def check_project(project: Path, inputs, report, reference: dict | None) -> list[str]:
    """All checks on one compile: validator report, counts, frames, repeatability.

    `report` is what validate_project returned for the project; `reference`
    holds the artifact digests of an earlier compile of the same inputs.
    """
    problems = [f"validate: {v}" for v in report.violations]
    problems += check_counts(project, inputs)
    if inputs.export in ("video", "both"):
        problems += check_frames(project)
    if reference is not None and artifact_digests(project) != reference:
        problems.append("artifacts differ from the first compile of the same inputs")
    return problems
