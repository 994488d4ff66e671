"""Independent oracles and random generators shared by unit and acceptance tests.

Everything here is deliberately implemented without touching the code paths it
checks: the CSV oracle is a hand-rolled state machine, the span oracle is a
brute-force all-position scanner, and the SVG generator builds documents from
primitives.
"""

import json
import random
import xml.etree.ElementTree as ET

WS_ALPHABET = " \t\n"


def reference_csv_parse(raw: str) -> list[list[str]]:
    """RFC-4180 reference parser: a character state machine, no csv module."""
    rows: list[list[str]] = []
    field_chars: list[str] = []
    row: list[str] = []
    in_quotes = False
    after_quote = False
    started_row = False
    i = 0
    while i < len(raw):
        ch = raw[i]
        if in_quotes:
            if ch == '"':
                if i + 1 < len(raw) and raw[i + 1] == '"':
                    field_chars.append('"')
                    i += 1
                else:
                    in_quotes = False
                    after_quote = True
            else:
                field_chars.append(ch)
        elif ch == '"' and not field_chars and not after_quote:
            in_quotes = True
            started_row = True
        elif ch == ",":
            row.append("".join(field_chars))
            field_chars = []
            after_quote = False
            started_row = True
        elif ch == "\r" and i + 1 < len(raw) and raw[i + 1] == "\n":
            i += 1
            row.append("".join(field_chars))
            rows.append(row)
            row, field_chars, after_quote, started_row = [], [], False, False
        elif ch in ("\n", "\r"):
            row.append("".join(field_chars))
            rows.append(row)
            row, field_chars, after_quote, started_row = [], [], False, False
        else:
            field_chars.append(ch)
            started_row = True
        i += 1
    if field_chars or row or started_row:
        row.append("".join(field_chars))
        rows.append(row)
    return rows


def brute_force_occurrences(narration: str, segment: str) -> list[tuple[int, int]]:
    """All (start, end) matches of segment under whitespace-run-collapsing rules.

    A whitespace run in the segment matches a maximal whitespace run in the
    narration; non-whitespace characters match exactly.
    """
    import re

    parts = re.split(r"(\s+)", segment)
    occurrences = []
    for start in range(len(narration)):
        pos = start
        ok = True
        for part in parts:
            if part == "":
                continue
            if part[0].isspace():
                run_start = pos
                while pos < len(narration) and narration[pos].isspace():
                    pos += 1
                if pos == run_start:
                    ok = False
                    break
            else:
                if narration[pos:pos + len(part)] != part:
                    ok = False
                    break
                pos += len(part)
        if ok and pos > start:
            occurrences.append((start, pos))
    return occurrences


def reference_align_segments(spans, words) -> list[tuple[float, float]]:
    """Each span's interval, from a scan of every word: from the start of the
    first word that overlaps it to the end of the last. Raises NoWordOverlap
    for a span that overlaps none."""
    from datareel.timeline import NoWordOverlap

    intervals = []
    for span in spans:
        overlapping = [w for w in words
                       if w["char_start"] < span[1] and span[0] < w["char_end"]]
        if not overlapping:
            raise NoWordOverlap(span)
        intervals.append((overlapping[0]["start"], overlapping[-1]["end"]))
    return intervals


def random_text(rng: random.Random, words: int, alphabet: str = "abcde") -> str:
    tokens = []
    for _ in range(words):
        tokens.append("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 5))))
    return " ".join(tokens)


def random_svg(rng: random.Random, depth: int = 0) -> str:
    """A random SVG document with groups, shapes, text, and mixed attributes."""

    def element(level: int) -> str:
        if level < 2 and rng.random() < 0.35:
            children = "".join(element(level + 1) for _ in range(rng.randint(1, 4)))
            role = f' data-role="{rng.choice(["marks", "axis", "misc"])}"' if rng.random() < 0.4 else ""
            return f"<g{role}>{children}</g>"
        tag = rng.choice(["rect", "circle", "text", "line", "path"])
        attrs = f' x="{rng.randint(0, 500)}" y="{rng.randint(0, 300)}"'
        if rng.random() < 0.5:
            attrs += f' fill="#{rng.randrange(16 ** 6):06x}"'
        if rng.random() < 0.3:
            attrs += f' data-row="{rng.randint(0, 9)}"'
        if tag == "text":
            return f"<text{attrs}>{random_text(rng, rng.randint(1, 3))}</text>"
        return f"<{tag}{attrs}/>"

    body = "".join(element(depth) for _ in range(rng.randint(3, 10)))
    return f'<svg xmlns="http://www.w3.org/2000/svg">{body}</svg>'


def reference_role_paths(svg_text: str) -> list[tuple[str, ...]]:
    """Per element in document order, the data-role values of its ancestors,
    root first, found by walking up an ElementTree parent map."""
    root = ET.fromstring(svg_text)
    parent = {child: node for node in root.iter() for child in node}
    paths = []
    for node in root.iter():
        roles = []
        while node in parent:
            node = parent[node]
            if node.get("data-role") is not None:
                roles.append(node.get("data-role"))
        paths.append(tuple(reversed(roles)))
    return paths


def reference_ids(svg_text: str) -> list[str]:
    """Per element in document order, its own id, else the first of e0, e1,
    ... that neither an element's own id nor an earlier element takes."""
    nodes = list(ET.fromstring(svg_text).iter())
    taken = {node.get("id") for node in nodes} - {None}
    ids = []
    for node in nodes:
        eid = node.get("id")
        if eid is None:
            eid = next(f"e{k}" for k in range(len(taken) + 1) if f"e{k}" not in taken)
            taken.add(eid)
        ids.append(eid)
    return ids


def inject_elements(rng: random.Random, svg_text: str, count: int) -> tuple[str, list[str]]:
    """Insert uniquely-marked content elements at random top-level positions.

    Returns the new document plus the data-marker values that identify the
    injected elements.
    """
    assert svg_text.endswith("</svg>")
    head = svg_text[: -len("</svg>")]
    markers = []
    pieces = [head]
    for i in range(count):
        marker = f"inj-{rng.randrange(10 ** 9)}-{i}"
        markers.append(marker)
        tag = rng.choice(["text", "rect", "circle", "line"])
        if tag == "text":
            pieces.append(f'<text data-marker="{marker}" x="1" y="2">note {i}</text>')
        else:
            pieces.append(f'<{tag} data-marker="{marker}" x="1" y="2"/>')
    pieces.append("</svg>")
    return "".join(pieces), markers


REFERENCE_REST = {"opacity": 1.0, "scale": 1.0, "translate_x": 0.0, "translate_y": 0.0,
                  "clip_fraction": 1.0, "wheel_fraction": 1.0}
REFERENCE_EASE = {
    "linear": lambda p: p,
    "ease-in": lambda p: p * p,
    "ease-out": lambda p: 1.0 - (1.0 - p) * (1.0 - p),
    "ease-in-out": lambda p: 2 * p * p if p < 0.5 else 1.0 - 2 * (1.0 - p) * (1.0 - p),
}


def reference_value_at(timeline, element_id: str, prop: str, t: float) -> float:
    """Keyframe value by a linear scan over the element's whole track.

    Rest value before the first keyframe, the last value from the last one on,
    and in between the first keyframe pair (left, right) with
    left.time <= t < right.time, eased by the right keyframe's easing.
    """
    kfs = [k for k in timeline.tracks.get(element_id, ()) if k.property == prop]
    if not kfs or t < kfs[0].time:
        return REFERENCE_REST[prop]
    if t >= kfs[-1].time:
        return kfs[-1].value
    for left, right in zip(kfs, kfs[1:]):
        if left.time <= t < right.time:
            p = (t - left.time) / (right.time - left.time)
            return left.value + (right.value - left.value) * REFERENCE_EASE[right.easing](p)
    raise AssertionError("unreachable for a time-sorted track")


def reference_visible_at(timeline, element_id: str, t: float) -> bool:
    """Initial visibility before an element's first keyframe; afterwards hidden
    while opacity, scale, clip or wheel fraction is at or below zero."""
    kfs = timeline.tracks.get(element_id, ())
    if not kfs or t < min(k.time for k in kfs):
        return timeline.initial_visibility.get(element_id, "visible") == "visible"
    return all(reference_value_at(timeline, element_id, prop, t) > 0.0
               for prop in ("opacity", "scale", "clip_fraction", "wheel_fraction"))


def expand_changes(evaluator, times) -> list[tuple[list, dict]]:
    """KeyframeEvaluator.changes(times) applied in order: for each time, the
    visible ids in id order and {visible id: opacity} for each opacity other
    than 1.0."""
    state = {}
    frames = []
    for changes in evaluator.changes(times):
        for _, ids, change in changes:
            state.update(dict.fromkeys(ids, change))
        visible = [eid for eid in evaluator.ids if state[eid][0]]
        frames.append((visible, {eid: state[eid][1] for eid in visible if state[eid][1] != 1.0}))
    return frames


def reference_match_rows(datum: dict, base_rows: list[dict]) -> list[int]:
    """The base rows an overlay datum matches, by comparing it with every row:
    a row matches when it shares at least one key with the datum and every
    shared key is `==`. Ascending."""
    matches = []
    for i, row in enumerate(base_rows):
        shared = set(datum) & set(row)
        if shared and all(datum[k] == row[k] for k in shared):
            matches.append(i)
    return matches


def _reference_balanced_span(text: str, start: int) -> tuple[int, int] | None:
    """(end offset, nesting depth) of the bracket-balanced span starting at
    start, by a character loop that tracks strings and escapes; None if
    unbalanced."""
    pairs = {"{": "}", "[": "]"}
    stack = [pairs[text[start]]]
    depth = 1
    in_string = False
    escaped = False
    for i in range(start + 1, len(text)):
        ch = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch in pairs:
            stack.append(pairs[ch])
            depth = max(depth, len(stack))
        elif ch in ("}", "]"):
            if ch != stack.pop():
                return None
            if not stack:
                return i + 1, depth
    return None


def reference_extract_json(raw: str):
    """The first `{`/`[` whose balanced span nests at most
    runtime.MAX_REPLY_DEPTH levels and parses with json.loads.

    Raises the same NoJsonFound / MalformedJson(first candidate) as
    datareel.runtime.extract_json.
    """
    import json

    from datareel.runtime import MAX_REPLY_DEPTH, MalformedJson, NoJsonFound

    if not raw or not raw.strip():
        raise NoJsonFound("reply is empty")
    candidates = [i for i, ch in enumerate(raw) if ch in "{["]
    for start in candidates:
        span = _reference_balanced_span(raw, start)
        if span is not None and span[1] <= MAX_REPLY_DEPTH:
            try:
                return json.loads(raw[start:span[0]])
            except ValueError:
                pass
    if not candidates:
        raise NoJsonFound("reply contains no JSON object or array")
    raise MalformedJson(candidates[0])


def reference_match_annotation_directives(annotation_ids, directives, index, svg=None):
    """Annotation-to-directive assignment by comparing every pair of rows.

    An element with rows goes to the directive with the smallest
    min(|a - b|) over its rows a and the directive's rows b (0 on a shared
    row); one without rows goes to the directive whose marks lie nearest its
    position. Ties go to the lowest directive index; unassignable elements
    attach to directive 0 with an advisory, and directives left empty get one.
    Returns (assignments, advisories as (code, path) pairs).
    """
    import math

    from datareel.binding import _coords

    assignments = {i: [] for i in range(len(directives))}
    advisories = []
    if not directives:
        if annotation_ids:
            advisories.append(("unmatched-annotation", ""))
        return assignments, advisories
    row_positions = {}
    for eid, entry in (index.entries.items() if svg is not None else ()):
        pos = _coords(svg.by_id[eid]) if eid in svg.by_id else None
        if "mark" in entry.roles and pos is not None:
            for row in entry.data_rows:
                row_positions.setdefault(row, pos)
    for eid in annotation_ids:
        entry = index.entries.get(eid)
        rows = entry.data_rows if entry is not None else frozenset()
        candidates = []
        for i, directive in enumerate(directives):
            if rows and directive.index:
                candidates.append((min(abs(a - b) for a in rows for b in directive.index), i))
            elif not rows and svg is not None and eid in svg.by_id:
                pos = _coords(svg.by_id[eid])
                points = [row_positions[r] for r in directive.index if r in row_positions]
                if pos is not None and points:
                    candidates.append((min(math.dist(pos, p) for p in points), i))
        if candidates:
            assignments[min(candidates)[1]].append(eid)
        else:
            advisories.append(("unmatched-annotation", eid))
            assignments[0].append(eid)
    for i in range(len(directives)):
        if not assignments[i]:
            advisories.append(("directive-without-elements", f"annotation[{i}]"))
    return assignments, advisories


_REFERENCE_CSS_VALUE = {
    "opacity": lambda v: f"opacity: {v:g};",
    "scale": lambda v: f"transform: scale({v:g});",
    "translate_x": lambda v: f"transform: translateX({v:g}px);",
    "translate_y": lambda v: f"transform: translateY({v:g}px);",
    "clip_fraction": lambda v: f"clip-path: inset(0 {100 * (1 - v):.2f}% 0 0);",
    "wheel_fraction": lambda v: f"--wheel: {v * 360:.2f}deg;",
}


def reference_html_rules(timeline) -> dict:
    """What the HTML export gives each element, formatted as when every
    element had a rule and @keyframes of its own.

    An id with a track maps to one (property, @keyframes body, animation
    timing) per property, in name order. A body has one stop per keyframe at
    its percentage of the property's span (at least 1 ms), with the next
    keyframe's easing; the timing runs that span from the first keyframe.
    An id that starts "hidden" with no track maps to "static hidden"; other
    ids are absent.
    """
    rules = {}
    for eid in sorted(set(timeline.tracks) | set(timeline.initial_visibility)):
        track = timeline.tracks.get(eid, ())
        if not track:
            if timeline.initial_visibility.get(eid) == "hidden":
                rules[eid] = "static hidden"
            continue
        rules[eid] = []
        for prop in sorted({k.property for k in track}):
            kfs = [k for k in track if k.property == prop]
            first = kfs[0].time
            span = max(kfs[-1].time - first, 0.001)
            stops = [f"  {(k.time - first) / span * 100:.4f}% {{ "
                     f"{_REFERENCE_CSS_VALUE[prop](k.value)} animation-timing-function: "
                     f"{after.easing if after else 'linear'}; }}"
                     for k, after in zip(kfs, kfs[1:] + [None])]
            rules[eid].append((prop, "\n".join(stops),
                               f"{span:g}s linear {first:g}s 1 normal both"))
    return rules


_CSS_PREFIXES = (("opacity:", "opacity"), ("transform: scale(", "scale"),
                 ("transform: translateX(", "translate_x"),
                 ("transform: translateY(", "translate_y"),
                 ("clip-path:", "clip_fraction"), ("--wheel:", "wheel_fraction"))
_WHEEL_PROPERTY = "@property --wheel { syntax: '<angle>'; inherits: false; initial-value: 0deg; }"
_WHEEL_MASK = " mask-image: conic-gradient(#000 var(--wheel), transparent 0deg);"
_PLAYING_RULE = "#stage.playing * { animation-play-state: running; }"


def css_unescape(text: str) -> str:
    """A CSS string's text: a backslash and 1-6 hex digits, with one space
    after them, is that code point; a backslash before any other character
    is that character."""
    import re

    return re.sub(r"\\([0-9a-fA-F]{1,6}) ?|\\(.)",
                  lambda m: chr(int(m[1], 16)) if m[1] else m[2], text, flags=re.S)


def parse_html_rules(html: str) -> dict:
    """Read export_html's <style> back into reference_html_rules' terms.

    The style must be, in order: the --wheel @property line exactly when a
    wheel_fraction track is animated, the @keyframes blocks, one rule per
    line whose selector lists [id="..."], and the playing rule. Each id of a
    rule gets the rule's animations, each as (property read from the body,
    @keyframes body, timing), or "static hidden" for a rule of opacity 0.
    Any other text, or an id in two rules, fails an assertion.
    """
    import re

    style = html.partition("<style>\n")[2].partition("\n</style>\n")[0]
    assert "</" not in style
    lines = style.split("\n")
    uses_wheel = lines[0] == _WHEEL_PROPERTY
    style = "\n".join(lines[uses_wheel:])
    bodies = {}
    block = re.compile(r"@keyframes (kf_\d+) \{\n((?:  [^\n]*\n)*  [^\n]*)\n\}\n")
    pos = 0
    while m := block.match(style, pos):
        assert m[1] not in bodies
        bodies[m[1]] = m[2]
        pos = m.end()
    *rules, playing = style[pos:].split("\n")
    assert playing == _PLAYING_RULE
    parsed = {}
    wheels = 0
    for rule in rules:
        m = re.fullmatch(r'((?:\[id="[^"]*"\], )*\[id="[^"]*"\]) \{ (.*) \}', rule)
        assert m, rule
        if m[2] == "opacity: 0;":
            value = "static hidden"
        else:
            a = re.fullmatch(r"animation: (.*); animation-play-state: paused;((?:"
                             + re.escape(_WHEEL_MASK) + ")?)", m[2])
            assert a, rule
            value = []
            for animation in a[1].split(", "):
                name, timing = animation.split(" ", 1)
                body = bodies[name]
                declaration = body.split("% { ", 1)[1]
                prop = next(p for prefix, p in _CSS_PREFIXES if declaration.startswith(prefix))
                value.append((prop, body, timing))
            wheel = [prop for prop, *_ in value].count("wheel_fraction")
            assert a[2] == _WHEEL_MASK * wheel
            wheels += wheel
        for quoted in re.findall(r'\[id="([^"]*)"\]', m[1]):
            eid = css_unescape(quoted)
            assert eid not in parsed
            parsed[eid] = value
    assert uses_wheel == (wheels > 0)
    return parsed


def reference_resolve_targets(directive, index):
    """Directive targets by scanning every index entry, as resolve_targets
    did before it looked rows and series up: the marks bound to one of the
    directive's rows, plus the elements of the roles the target names
    (axis/axes, legend, title; all/chart for every mark) or, when it names
    none, the marks whose series key it names as a whole word. None when
    nothing resolves."""
    import re

    target = directive.target.lower()
    words = set(re.findall(r"[a-z]+", target))
    roles = {role for role, names in (("axis", {"axis", "axes"}), ("legend", {"legend"}),
                                      ("title", {"title"}), ("mark", {"all", "chart"}))
             if words & names}
    entries = index.entries.items()
    by_rows = {eid for eid, e in entries
               if "mark" in e.roles and e.data_rows & set(directive.index)}
    by_role = {eid for eid, e in entries if e.roles & roles}
    named = {eid for eid, e in entries if "mark" in e.roles and e.series_key and re.search(
        rf"(?<!\w){re.escape(e.series_key.lower())}(?!\w)", target)}
    return frozenset(by_rows | (by_role or named)) or None


def reference_mark_index_dict(index) -> dict:
    """The mark index as bindings.json wrote it before it became a row list:
    one {roles, data_rows, series_key} object per id."""
    return {
        eid: {"roles": sorted(entry.roles), "data_rows": sorted(entry.data_rows),
              "series_key": entry.series_key}
        for eid, entry in index.entries.items()
    }


def reference_dump_artifact(payload) -> str:
    """dump_artifact's layout with every row, key and inline value encoded by
    a json.JSONEncoder call of its own: objects nest two spaces deep with
    sorted keys, and a non-empty list of lists and objects has one row a line."""

    def encode(value) -> str:
        return json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode(value)

    def layout(value, indent: str) -> str:
        inner = indent + "  "
        if isinstance(value, dict) and value:
            # A key as json writes it in an object: '{' + key + ':0}'.
            lines = [f"{inner}{encode({k: 0})[1:-3]}: {layout(value[k], inner)}"
                     for k in sorted(value)]
            return "{\n" + ",\n".join(lines) + "\n" + indent + "}"
        if isinstance(value, (list, tuple)) and value and all(
                isinstance(v, (dict, list, tuple)) for v in value):
            return "[\n" + ",\n".join(inner + encode(v) for v in value) + "\n" + indent + "]"
        return encode(value)

    return layout(payload, "") + "\n"
