"""Narration-clock timeline: span location, audio alignment, and keyframe compilation.

The narration text is the master timeline. Directive segments are located as
verbatim substrings (whitespace runs collapse to single spaces on both sides)
by locate_segments, each from the previous located segment's start, and
mapped to seconds through word timings. place turns the directives into one
list of cues, an annotation being a Fade-in of its elements, and
compile_timeline expands each cue into per-element keyframe tracks by its
animation's row of model.EFFECTS: every ramp comes from that table.
"""

import json
import marshal
import math
import re
from bisect import bisect_left, bisect_right
from itertools import repeat
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from typing import Literal, NamedTuple, TypedDict

from .errors import ContractError, PreconditionError
from .model import (
    EFFECTS,
    JsonTypeError,
    Record,
    ValidationReport,
    Violation,
    classify_animation,
    parse_animation,
    read_typed,
    row_text,
    split_rows,
)

PROPERTIES = ("opacity", "scale", "translate_x", "translate_y", "clip_fraction", "wheel_fraction")
EASINGS = ("linear", "ease-in", "ease-out", "ease-in-out")

REST_VALUES = {
    "opacity": 1.0,
    "scale": 1.0,
    "translate_x": 0.0,
    "translate_y": 0.0,
    "clip_fraction": 1.0,
    "wheel_fraction": 1.0,
}

ANNOTATION_FADE_IN = 0.5


class SegmentNotFound(ContractError):
    def __init__(self, segment: str):
        super().__init__(f"narration segment not found verbatim: {segment!r}")
        self.segment = segment


class NoWordOverlap(ContractError):
    def __init__(self, span: tuple[int, int]):
        super().__init__(f"span [{span[0]},{span[1]}) covers no spoken words")
        self.span = span


# How long each narration word may take on average, and how far past the
# last word's end the narration's duration may reach.
MAX_TRAILING_SILENCE_S = 10.0


class TimedWord(TypedDict):
    """One narration word: its audio start and end and its character span."""

    word: str
    start: float
    end: float
    char_start: int
    char_end: int


class WordTimingsJson(TypedDict):
    """The word_timings.json payload, which is also the tts stage's output."""

    duration: float
    words: list[TimedWord]
    advisories: list[Violation]


def word_tokens(narration: str) -> list[tuple[str, int, int]]:
    """The narration's whitespace-split tokens, each with its start and end offsets."""
    return [(m.group(), m.start(), m.end()) for m in re.finditer(r"\S+", narration)]


def validate_timings(narration: str, timings: WordTimingsJson) -> list[str]:
    """Check the word-timing contract; returns violation messages.

    The timed words are the narration's whitespace-split tokens, each spanning
    its token's characters. Each word has 0 <= start < end < inf, and no word
    starts before the one before it ends. The last word ends within
    MAX_TRAILING_SILENCE_S for each word, and the duration lies between the
    last word's end and MAX_TRAILING_SILENCE_S past it.
    """
    problems = []
    words, duration = timings["words"], timings["duration"]
    tokens = word_tokens(narration)
    if [w["word"] for w in words] != [word for word, _, _ in tokens]:
        problems.append("timed words do not equal the narration's whitespace-split tokens")
    else:
        for w, (word, start, end) in zip(words, tokens):
            if w["char_start"] != start or w["char_end"] != end:
                problems.append(f"char span [{w['char_start']},{w['char_end']}) "
                                f"of {word!r} is not its token's [{start},{end})")
    for w in words:
        if not 0 <= w["start"] < w["end"] < math.inf:
            problems.append(f"invalid word timing [{w['start']},{w['end']}) of {w['word']!r}")
    for prev, cur in zip(words, words[1:]):
        if cur["start"] < prev["end"]:
            problems.append(f"timings overlap at {cur['word']!r}")
    if words:
        last = words[-1]["end"]
        # A last end past the per-word limit may be too large to add to.
        if last > MAX_TRAILING_SILENCE_S * len(words):
            problems.append(f"words end at {last} s, more than "
                            f"{MAX_TRAILING_SILENCE_S:g} s for each of {len(words)} words")
        elif not last <= duration:
            problems.append(f"duration {duration} s does not reach "
                            f"the last word's end at {last} s")
        elif duration > last + MAX_TRAILING_SILENCE_S:
            problems.append(f"duration {duration} s is more than {MAX_TRAILING_SILENCE_S:g} s "
                            f"past the last word's end at {last} s")
    return problems


class _KeyframeFields(NamedTuple):
    time: float
    property: str
    value: float
    easing: str


# The properties whose values lie in [0, 1].
_FRACTIONS = ("opacity", "clip_fraction", "wheel_fraction")


class Keyframe(_KeyframeFields):
    """One stop of a property track: the value at time, eased into from the
    stop before.

    A keyframe names no element. Timeline.tracks keys each track by the
    element that holds it, and one keyframe, like one track, may serve many.
    """

    __slots__ = ()

    def __new__(cls, time: float, property: str, value: float, easing: str):
        if property not in PROPERTIES:
            raise ValueError(f"unknown property {property!r}")
        if easing not in EASINGS:
            raise ValueError(f"unknown easing {easing!r}")
        if property in _FRACTIONS and not 0.0 <= value <= 1.0:
            raise ValueError(f"{property} {value} outside [0,1]")
        return tuple.__new__(cls, (time, property, value, easing))


class Timeline(Record):
    """Per-element keyframe tracks and initial visibilities over the audio clock.

    Elements with equal tracks may hold one shared tuple (compile_timeline,
    from_text and from_json share them), so work keyed on a track's identity
    is done once per distinct track. Tracks are never mutated.
    """

    __slots__ = ("duration", "tracks", "initial_visibility")

    def __init__(self, duration: float, tracks: dict[str, tuple[Keyframe, ...]] | None = None,
                 initial_visibility: dict[str, str] | None = None):
        self.duration = duration
        self.tracks = {} if tracks is None else tracks
        self.initial_visibility = {} if initial_visibility is None else initial_visibility

    def to_json(self) -> dict:
        """The timeline.json payload. Its tracks are an iterator of row texts
        (see model.stream_artifact), one {"element_id", "keyframes"} row per
        element in id order; the keyframes text of each distinct track object
        is encoded once, for every element that holds it."""
        return {
            "duration": self.duration,
            "initial_visibility": dict(sorted(self.initial_visibility.items())),
            "tracks": self._track_rows(),
        }

    def _track_rows(self):
        texts: dict[int, str] = {}  # id(track) -> its keyframes text
        for eid in sorted(self.tracks):
            track = self.tracks[eid]
            if (text := texts.get(id(track))) is None:
                text = texts[id(track)] = row_text([
                    {"time": k.time, "property": k.property, "value": k.value,
                     "easing": k.easing} for k in track])
            yield '{"element_id":' + encode_basestring_ascii(eid) + ',"keyframes":' + text + "}"

    @classmethod
    def from_text(cls, text: str) -> "Timeline":
        """Timeline.from_json(json.loads(text)), read without decoding a
        track twice when text is laid out as to_json's payload is written:
        the text around the track rows is decoded once, and each distinct
        keyframes text once, for every element that holds it. Text in any
        other layout, or that does not read so, is read by from_json, so it
        returns or raises the same."""
        split = split_rows(text, "tracks")
        if split is not None:
            try:
                return cls._from_rows(*split)
            except (JsonTypeError, RecursionError, ValueError):
                pass  # read as any other text
        return cls.from_json(json.loads(text))

    @classmethod
    def _from_rows(cls, rest: str, rows: list[str]) -> "Timeline":
        """The timeline of rest, the text with its track list written [],
        and rows, that list's row texts. Raises ValueError unless each row
        starts and ends as _track_rows writes it; each row that reads is
        then one JSON value, so the whole text reads as from_json reads it.
        Tracks are shared as from_json shares them, on the marshal bytes of
        their parsed rows."""
        ids, texts = [], []
        for row in rows:
            match = _TRACK_ROW.match(row)
            if match is None or row[-1] != "}":
                raise ValueError("not a track row as written")
            ids.append(match[1])
            texts.append(row[match.end():-1])
        by_text: dict[str, tuple[Keyframe, ...]] = {}
        by_bytes: dict[bytes, tuple[Keyframe, ...]] = {}
        tracks = {}
        for eid, text in zip(json.loads("[" + ",".join(ids) + "]"), texts):
            if (track := by_text.get(text)) is None:
                value = json.loads(text)
                key = marshal.dumps(value)
                if (track := by_bytes.get(key)) is None:
                    track = by_bytes[key] = tuple(read_typed(list[Keyframe], value))
                by_text[text] = track
            tracks[eid] = track
        payload = read_typed(_TimelineJson, json.loads(rest))
        return cls(payload["duration"], tracks, payload["initial_visibility"])

    @classmethod
    def from_json(cls, value) -> "Timeline":
        """The inverse of to_json, read from the parsed text by
        model.read_typed. Equal tracks become one tuple, so a reloaded
        timeline shares tracks as a compiled one, and each distinct track's
        keyframes are read once.

        Tracks are matched on their rows' marshal bytes, which keep each
        value's type and exact bits: 1 and 1.0, or -0.0 and 0.0, never merge,
        so every value stays as written. The bytes also mark objects a row
        shares, which json.loads builds alike for equal rows; other sharing
        can only keep equal tracks apart. Raises JsonTypeError or ValueError
        on a malformed payload.
        """
        payload = read_typed(_TimelineJson, value)
        shared: dict[bytes, tuple[Keyframe, ...]] = {}
        tracks = {}
        for position, row in enumerate(payload["tracks"]):
            rows = row["keyframes"]
            key = marshal.dumps(rows)
            if key not in shared:
                shared[key] = tuple(read_typed(list[Keyframe], rows,
                                               "tracks", position, "keyframes"))
            tracks[row["element_id"]] = shared[key]
        return cls(payload["duration"], tracks, payload["initial_visibility"])


# The start of a row as _track_rows writes it, up to its keyframes text: the
# element id's JSON text is group 1.
_TRACK_ROW = re.compile(r'\{"element_id":("(?:[^"\\]|\\.)*"),"keyframes":')


class _TrackRow(TypedDict):
    element_id: str
    keyframes: list  # read as Keyframes by from_json, once per distinct track


class _TimelineJson(TypedDict):
    duration: float
    initial_visibility: dict[str, Literal["visible", "hidden"]]
    tracks: list[_TrackRow]


def locate_span(narration: str, segment: str, cursor: int = 0) -> tuple[int, int] | None:
    """The (start, end) span of segment's first match at or after cursor, or None.

    Matching is exact except that whitespace runs on both sides collapse to a
    single equivalence class: any run of whitespace in the segment matches any
    run in the narration (greedily).
    """
    if not segment:
        raise PreconditionError("segment must be non-empty")
    if cursor < 0:
        raise PreconditionError("cursor must be non-negative")
    m = _segment_pattern(segment).search(narration, cursor)  # not empty, as segment is not
    return (m.start(), m.end()) if m else None


@lru_cache(maxsize=1024)
def _segment_pattern(segment: str) -> re.Pattern:
    """segment's pattern, built once: locate_segments searches each segment
    two or three times, and the designer, place and validate locate alike."""
    return re.compile(r"\s+".join(re.escape(p) for p in re.split(r"\s+", segment)))


def locate_segments(narration: str, segments) -> tuple[list, list[int]]:
    """Locate segments in list order: each from the previous located
    segment's start, or at its first match if none follows there. Returns
    each segment's span (None if it is not a verbatim excerpt) and the
    positions of the segments that occur again after their first match."""
    spans, repeated, cursor = [], [], 0
    for i, segment in enumerate(segments):
        span = first = locate_span(narration, segment, 0)
        if first and locate_span(narration, segment, first[1]):
            repeated.append(i)
        if first and first[0] < cursor:
            span = locate_span(narration, segment, cursor) or first
        cursor = span[0] if span else cursor
        spans.append(span)
    return spans, repeated


def first_sentence_end(narration: str) -> int:
    """Offset just past the first terminal punctuation followed by space or end."""
    m = re.search(r"[.!?](?=\s|$)", narration)
    return m.end() if m else len(narration)


def align_segments(spans, words: list[TimedWord]) -> list[tuple[float, float]]:
    """Map (start, end) character spans to second intervals: from the start
    of a span's first overlapping word to the end of its last. The words are
    in narration order (validate_timings), so both are found by bisection."""
    starts = [w["char_start"] for w in words]
    ends = [w["char_end"] for w in words]
    intervals = []
    for span in spans:
        first = bisect_right(ends, span[0])
        last = bisect_left(starts, span[1]) - 1
        if first > last:
            raise NoWordOverlap(span)
        intervals.append((words[first]["start"], words[last]["end"]))
    return intervals


def _stop_time(k, n, t0: float, t1: float) -> float:
    """The time of a stop (k, n, value) over [t0, t1] (see model.EFFECTS)."""
    if n < 0:
        return t1 - k * (t1 - t0) / -n if k else t1
    return t0 + k * (t1 - t0) / n if k else t0


def keyframes_for(animation: str, element_ids, interval: tuple[float, float], *,
                  legend_ids=frozenset(), other_ids=frozenset()):
    """Expand one animation over an interval into (ramps, initially hidden ids).

    Each ramp of the animation's model.EFFECTS row becomes (ids, keyframes):
    one keyframe per stop, shared by every element of its subject. The
    targets are element_ids, the legend legend_ids, and the others other_ids
    less the targets. An entrance leaves all its subjects initially hidden.
    """
    category, row = EFFECTS[parse_animation(animation)]
    t0, t1 = interval
    if t1 <= t0:
        raise PreconditionError(f"interval [{t0},{t1}) is empty")
    targets = frozenset(element_ids)
    subjects = {"targets": targets, "legend": frozenset(legend_ids),
                "others": frozenset(other_ids) - targets}
    ramps = tuple((subjects[subject], tuple([Keyframe(_stop_time(k, n, t0, t1), prop, value,
                                                     easing) for k, n, value in stops]))
                  for subject, prop, stops, easing in row)
    if category != "entrance":
        return ramps, frozenset()
    return ramps, frozenset().union(*(ids for ids, _ in ramps))


class PlacedDirective(NamedTuple):
    """A cue for the compiler: an animation of target ids over an audio
    interval. An annotation is a Fade-in cue (see place)."""

    animation: str
    target_ids: frozenset
    interval: tuple[float, float]
    label: str = ""


def place(narration: str, words: list[TimedWord], resolved_targets,
          assignments) -> list[PlacedDirective]:
    """The cues of the resolved animation directives and of the annotation
    directives with elements, each timed by its narration segment, which
    locate_segments locates from the previous segment of its list. An
    annotation is a Fade-in of its elements over the first ANNOTATION_FADE_IN
    seconds of its segment, clamped to the segment. The cues are in segment
    order, an animation cue before an annotation cue at a tie, which is the
    order compile_timeline keeps for cues that start together."""
    def intervals(segments):
        spans, _ = locate_segments(narration, segments)
        if None in spans:
            raise SegmentNotFound(segments[spans.index(None)])
        return align_segments(spans, words)

    animations = intervals([d.narration for d, _ in resolved_targets])
    cues = [(interval, PlacedDirective(d.animation, ids, interval,
                                       f"{d.animation} on {d.target!r}"))
            for (d, ids), interval in zip(resolved_targets, animations)]
    for (d, ids), (start, end) in zip(assignments, intervals([d.nar for d, _ in assignments])):
        if ids:
            fade = (start, start + min(ANNOTATION_FADE_IN, end - start))
            cues.append(((start, end), PlacedDirective("Fade-in", frozenset(ids), fade, d.nar)))
    return [cue for _, cue in sorted(cues, key=itemgetter(0))]


def lifetime_changes(placed) -> list[tuple[float, bool, frozenset]]:
    """The (time, born, ids) changes of the cue targets' lifetimes in time
    order, deaths first at a tie: ids are born where an entrance of them
    starts and die where an exit of them ends."""
    changes = []
    for cue in placed:
        category = classify_animation(cue.animation)
        if category == "entrance":
            changes.append((cue.interval[0], True, cue.target_ids))
        elif category == "exit":
            changes.append((cue.interval[1], False, cue.target_ids))
    return sorted(changes, key=itemgetter(0, 1))


def alive_over(changes, marks: frozenset, t0: float, t1: float) -> set:
    """The marks alive over all of [t0, t1] by the lifetime changes; a mark
    with no entrance is alive from 0. One set is updated in place, so each
    change costs only its own ids."""
    alive = set(marks)
    alive.difference_update(*[ids for _, born, ids in changes if born])
    for time, born, ids in changes:
        if born and time <= t0:
            alive |= ids
        elif not born and time <= t1:
            alive -= ids
    alive &= marks
    return alive


def compile_timeline(placed, mark_index, duration: float) -> tuple[Timeline, ValidationReport]:
    """Compile one list of cues into a validated Timeline.

    Cues are processed in start order (cues that start together keep list
    order; place lists them by segment), each by its model.EFFECTS row.
    Elements with an entrance start hidden; everything else starts visible.
    An "others" ramp dims only the marks alive over its whole interval (see
    alive_over): from an entrance's start (or 0) to an exit's end.
    Overlapping keyframe groups on the same element and property resolve
    last-writer-wins with an advisory.

    Keyframes carry no element id. Every element of one ramp shares one group
    record, and elements that keep the same groups on every property share
    one merged track tuple, which is merged once.
    """
    if duration <= 0:
        raise PreconditionError("duration must be positive")
    advisories: list[Violation] = []
    # (element, property) -> the groups kept on that track, in arrival order.
    groups: dict[tuple[str, str], list[dict]] = {}

    def add_group(ramps, label: str):
        for ids, kfs in ramps:
            if not ids:
                continue
            for kf in kfs:
                if not 0.0 <= kf.time <= duration:
                    raise ValueError(f"keyframe time {kf.time} outside [0,{duration}]")
            kfs = sorted(kfs, key=attrgetter("time"))
            start, end, prop = kfs[0].time, kfs[-1].time, kfs[0].property
            record = {"start": start, "end": end, "keyframes": kfs, "label": label}
            for eid in sorted(ids):
                kept = []
                for g in groups.get((eid, prop), []):
                    if g["start"] < end and start < g["end"]:
                        advisories.append(Violation(
                            "track-overlap", eid,
                            f"{prop} keyframes from {g['label']!r} overlap {label!r}; "
                            "later directive wins",
                        ))
                    else:
                        kept.append(g)
                kept.append(record)
                groups[(eid, prop)] = kept

    initial = {eid: "visible" for eid in mark_index.entries}
    legend_ids = mark_index.ids_with_role("legend")
    changes = lifetime_changes(placed)
    for cue in sorted(placed, key=lambda cue: cue.interval[0]):
        subjects = {ramp[0] for ramp in EFFECTS[parse_animation(cue.animation)][1]}
        legend = legend_ids if "legend" in subjects else frozenset()
        others = frozenset()
        if "others" in subjects:
            others = alive_over(changes, mark_index.mark_ids(), *cue.interval)
        ramps, hidden = keyframes_for(cue.animation, cue.target_ids - legend, cue.interval,
                                      legend_ids=legend, other_ids=others)
        add_group(ramps, cue.label or cue.animation)
        for eid in hidden:
            initial[eid] = "hidden"

    tracks: dict[str, tuple[Keyframe, ...]] = {}
    by_element: dict[str, list[tuple[str, list[dict]]]] = {}
    for (eid, prop), bucket in groups.items():
        by_element.setdefault(eid, []).append((prop, bucket))
    # An element's track follows from the groups it keeps on each property;
    # a group record belongs to one property, so their ids in property order
    # name that history.
    merged_by_history: dict[tuple[int, ...], tuple[Keyframe, ...]] = {}
    for eid, prop_buckets in by_element.items():
        prop_buckets.sort(key=lambda pb: pb[0])
        history = tuple([id(g) for _, bucket in prop_buckets for g in bucket])
        if history not in merged_by_history:
            merged_all: list[Keyframe] = []
            for _, bucket in prop_buckets:
                merged: list[Keyframe] = []
                for g in sorted(bucket, key=lambda g: (g["start"], g["end"])):
                    for kf in g["keyframes"]:
                        if merged and kf.time == merged[-1].time:
                            merged[-1] = kf
                        elif merged and kf.time < merged[-1].time:
                            continue
                        else:
                            merged.append(kf)
                merged_all.extend(merged)
            merged_all.sort(key=lambda k: (k.time, k.property))
            merged_by_history[history] = tuple(merged_all)
        tracks[eid] = merged_by_history[history]

    timeline = Timeline(
        duration=duration,
        tracks=tracks,
        initial_visibility=initial,
    )
    return timeline, ValidationReport(advisories=tuple(advisories))


def _ease(name: str, p: float) -> float:
    if name == "ease-in":
        return p * p
    if name == "ease-out":
        return 1.0 - (1.0 - p) * (1.0 - p)
    if name == "ease-in-out":
        return 2 * p * p if p < 0.5 else 1.0 - 2 * (1.0 - p) * (1.0 - p)
    return p


def _segment(left: Keyframe, right: Keyframe, times) -> list[float]:
    """Values at each of times of the segment easing from keyframe left to right.

    Each time lies in [left.time, right.time); the easing is right's.
    """
    t0, v0 = left.time, left.value
    span, delta, easing = right.time - t0, right.value - v0, right.easing
    if easing == "linear":
        return [v0 + delta * ((t - t0) / span) for t in times]
    return [v0 + delta * _ease(easing, (t - t0) / span) for t in times]


# Properties that hide an element while any of them is at or below zero.
VISIBILITY_PROPERTIES = ("opacity", "scale", "clip_fraction", "wheel_fraction")

_HIDDEN = (False, 1.0)


class ElementTracks:
    """One element's keyframes split per property, in property-name order.

    Each property keeps its keyframes in track order (time-sorted in a compiled
    timeline) and their times beside them for searching.
    """

    def __init__(self, keyframes: tuple[Keyframe, ...], initially_visible: bool):
        split: dict[str, list[Keyframe]] = {}
        for kf in keyframes:
            split.setdefault(kf.property, []).append(kf)
        self.by_property = {prop: tuple(split[prop]) for prop in sorted(split)}
        self.times = {prop: tuple(k.time for k in kfs) for prop, kfs in self.by_property.items()}
        self.first = min(k.time for k in keyframes) if keyframes else None
        self.initially_visible = initially_visible

    def changes(self, times):
        """Yield (frame, (shown, opacity)) at frame 0 of sorted times and at
        each later frame where this element's state differs from the frame
        before.

        Before its first keyframe the element has its initial visibility;
        opacity is 1.0 while hidden. The frames are cut wherever one of its
        visibility tracks reaches a keyframe, and at its first keyframe.
        Inside a cut a property at rest, held between equal keyframe values
        or past its last keyframe is read once; a ramping one is evaluated
        at each frame by _segment, a chunk of frames at a time (_ramp_frames).
        """
        begin = len(times) if self.first is None else bisect_left(times, self.first)
        state = None
        if begin:
            state = (self.initially_visible, 1.0)
            yield 0, state
        tracks = [(prop, kfs, [bisect_left(times, t) for t in self.times[prop]])
                  for prop, kfs in self.by_property.items() if prop in VISIBILITY_PROPERTIES]
        cuts = sorted({begin, len(times)}.union(*(starts for *_, starts in tracks)))
        for start, end in zip(cuts, cuts[1:]):
            hidden, alpha, ramps = False, 1.0, []
            for prop, kfs, starts in tracks:
                i = bisect_right(starts, start)
                if 0 < i < len(kfs) and kfs[i - 1].value != kfs[i].value:
                    ramps.append((prop, kfs[i - 1], kfs[i]))
                    continue
                value = kfs[i - 1].value if i else REST_VALUES[prop]
                if value <= 0.0:
                    hidden = True
                elif prop == "opacity":
                    alpha = value
            if hidden or not ramps:
                states = ((start, _HIDDEN if hidden else (True, alpha)),)
            else:
                states = _ramp_frames(ramps, alpha, times, start, end)
            for frame, new in states:
                if new != state:
                    state = new
                    yield frame, new


# Ramp frames evaluated at once: enough to share the evaluation's set-up,
# few enough that a sweep over many concurrent ramps holds little of them.
_RAMP_CHUNK = 32


def _ramp_frames(ramps, alpha: float, times, start: int, end: int):
    """(frame, (shown, opacity)) for frames start to end - 1 of a ramp,
    evaluated _RAMP_CHUNK frames at a time."""
    for lo in range(start, end, _RAMP_CHUNK):
        hi = min(lo + _RAMP_CHUNK, end)
        yield from zip(range(lo, hi), _ramp_states(ramps, alpha, times[lo:hi]))


def _ramp_states(ramps, alpha: float, times) -> list[tuple[bool, float]]:
    """(shown, opacity) at each of times while the given segments ramp; a
    held opacity is alpha, and the other held properties show the element."""
    alphas = repeat(alpha)
    hidden = repeat(False)
    for prop, left, right in ramps:
        values = _segment(left, right, times)
        if prop == "opacity":
            alphas = values
        else:
            hidden = [h or v <= 0.0 for h, v in zip(hidden, values)]
    return [_HIDDEN if h or a <= 0.0 else (True, a) for h, a in zip(hidden, alphas)]


class KeyframeEvaluator:
    """A Timeline compiled once for sampling at many times.

    `ids` lists every element with a track or an initial visibility, sorted.
    `groups` states which of them share a track: one (ElementTracks, sorted
    ids) pair per distinct track object and initial visibility, in the order
    of each group's first id. changes and the HTML export work once per group.
    """

    def __init__(self, timeline: Timeline):
        self.ids = tuple(sorted(set(timeline.initial_visibility) | set(timeline.tracks)))
        groups: dict[tuple[int, bool], tuple[ElementTracks, list[str]]] = {}
        for eid in self.ids:
            track = timeline.tracks.get(eid, ())
            initially = timeline.initial_visibility.get(eid, "visible") == "visible"
            if (id(track), initially) not in groups:
                groups[id(track), initially] = ElementTracks(track, initially), []
            groups[id(track), initially][1].append(eid)
        self.groups = tuple(groups.values())

    def changes(self, times):
        """Yield, for each of times, the groups whose (shown, opacity) changes
        there: a list of (positions in ids, ids, (shown, opacity)), one entry
        per group. The first time's list holds every group. Opacity is 1.0
        while hidden.

        times must not decrease (ValueError otherwise). Applied in order, the
        changes give each element's state at each time: before its first
        keyframe its initial visibility; from then on hidden while any of
        VISIBILITY_PROPERTIES is at or below zero, else shown at
        value_at(..., "opacity", ...).

        The work follows change points, not frames x elements: each group's
        changes come from ElementTracks.changes, once for all its ids, and
        each time takes the changes due at it.
        """
        times = list(times)
        for previous, t in zip(times, times[1:]):
            if t < previous:
                raise ValueError(f"times decrease: {t} after {previous}")
        position = {eid: k for k, eid in enumerate(self.ids)}
        # frame -> [(positions in ids, their ids, change stream, (shown,
        # opacity))]: the next change of each group whose state still changes.
        due: dict[int, list] = {}

        def schedule(positions, members, stream):
            change = next(stream, None)
            if change is not None:
                due.setdefault(change[0], []).append((positions, members, stream, change[1]))

        for element, members in self.groups:
            schedule([position[eid] for eid in members], members, element.changes(times))
        for frame in range(len(times)):
            changes = due.pop(frame, ())
            for positions, members, stream, _ in changes:
                schedule(positions, members, stream)
            yield [(positions, members, state) for positions, members, _, state in changes]


def value_at(timeline: Timeline, element_id: str, prop: str, t: float) -> float:
    """One property's value at time t: at rest before its first keyframe, held
    from its last, and eased in between (see _segment)."""
    kfs = [k for k in timeline.tracks.get(element_id, ()) if k.property == prop]
    i = bisect_right([k.time for k in kfs], t)
    if i == 0:
        return REST_VALUES[prop]
    return kfs[-1].value if i == len(kfs) else _segment(kfs[i - 1], kfs[i], (t,))[0]


def timeline_invariant_violations(timeline: Timeline) -> list[str]:
    """Check the structural invariants of a compiled timeline.

    Each distinct track object is checked once; its problems are reported
    for every element that holds it, in track order.
    """
    problems = []
    if not 0 <= timeline.duration < math.inf:  # compares an int of any size
        problems.append(f"invalid duration {timeline.duration}")
    found: dict[int, list[str]] = {}
    for eid, kfs in timeline.tracks.items():
        if id(kfs) not in found:
            found[id(kfs)] = _track_problems(kfs, timeline.duration)
        if found[id(kfs)]:
            problems.extend(eid + problem for problem in found[id(kfs)])
    return problems


def _track_problems(kfs, duration: float) -> list[str]:
    """The invariant problems of one track, each to follow an element id."""
    problems = []
    per_prop: dict[str, list[Keyframe]] = {}
    for kf in kfs:
        if not 0.0 <= kf.time <= duration:
            problems.append(f": keyframe time {kf.time} outside [0,{duration}]")
        per_prop.setdefault(kf.property, []).append(kf)
    for prop, seq in per_prop.items():
        for a, b in zip(seq, seq[1:]):
            if b.time <= a.time:
                problems.append(f"/{prop}: keyframes not strictly time-sorted")
                break
    return problems
