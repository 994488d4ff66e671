"""A fixed reference workload that measures how fast the machine is right now.

The benchmark's machine is shared, and its speed drifts by a third or more
over tens of seconds, which swamps any change to the compiler. The
benchmark therefore times this workload right before and after every
compile, for about a tenth of the compile's own time, and reports compile
time as a multiple of one pass of it. The workload imitates
the compiler's own mix in roughly equal parts: keyframe interpolation over
small frozen objects, row matching by shared dict keys, a character scan of
a JSON reply, and emitting an indented JSON dump and an SVG that is parsed
and hashed. Contention then slows both alike. It never touches datareel, so
a change to the program cannot move it.
"""

import hashlib
import json
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass

MIN_PASSES = 3


@dataclass(frozen=True)
class _Keyframe:
    element: str
    time: float
    prop: str
    value: float


_PROPS = ("opacity", "scale", "clip_fraction", "translate_x")
_KEYFRAMES = tuple(_Keyframe(f"e{i % 60}", (i % 97) * 0.37, _PROPS[i % 4], (i % 11) / 10)
                   for i in range(1200))
_ROWS = [{"store": f"S{i % 30}", "channel": f"C{i % 4}", "sales": float(i % 50)}
         for i in range(160)]
_LABELS = [dict(row, label=f"{row['sales']} units") for row in _ROWS[::4]]
_REPLY = json.dumps({"rows": _ROWS * 5, "note": 'a {braced} "quoted" string'}, indent=2)


def _interpolate() -> list:
    tracks = {}
    for kf in _KEYFRAMES:
        tracks.setdefault(kf.element, []).append(kf)
    frames = []
    for f in range(30):
        t = f * 1.2
        visible, opacity = [], {}
        for element in sorted(tracks):
            track = [k for k in tracks[element] if k.prop == "opacity"]
            value = 1.0
            for a, b in zip(track, track[1:]):
                if a.time <= t < b.time:
                    value = a.value + (b.value - a.value) * (t - a.time) / (b.time - a.time)
            if value > 0.0:
                visible.append(element)
                opacity[element] = round(value, 4)
        frames.append({"index": f, "visible": visible, "opacity": opacity})
    return frames


def _match() -> int:
    hits = 0
    for label in _LABELS:
        for row in _ROWS:
            shared = set(label) & set(row)
            if shared and all(label[k] == row[k] for k in shared):
                hits += 1
    return hits


def _scan() -> int:
    depth, in_string, escaped = 0, False, False
    for ch in _REPLY:
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch in "{[":
            depth += 1
        elif ch in "}]":
            depth -= 1
    return depth


def _emit(frames: list) -> str:
    text = json.dumps(frames, indent=2, sort_keys=True)
    svg = "<svg>" + "".join(f'<rect data-row="{i}" x="{row["sales"] * 1.5:.2f}"/>'
                            for i, row in enumerate(_ROWS)) + "</svg>"
    count = sum(1 for _ in ET.fromstring(svg).iter())
    return hashlib.sha256(f"{text}{svg}{count}".encode("utf-8")).hexdigest()


def reference_seconds(at_least: float = 0.0) -> float:
    """Wall seconds one pass of the reference workload takes now.

    Runs MIN_PASSES passes, and more until `at_least` seconds have passed,
    and returns the mean time per pass.
    """
    start = time.perf_counter()
    passes = 0
    while True:
        _match()
        _scan()
        _emit(_interpolate())
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed >= at_least:
            return elapsed / passes
