"""Shared domain types and the closed vocabularies every module validates against.

The four vocabularies (insight types, visualization types, animation names,
annotation types) are fixed lists; matching is exact and case-sensitive after
trimming surrounding whitespace. The value types here are NamedTuples, or
slotted classes whose constructor runs their checks; none is changed after
construction, so all are safe to share across threads.
"""

import io
import json
from collections.abc import Iterator
from functools import cache
from json.encoder import c_make_encoder, encode_basestring_ascii
from types import UnionType
from typing import (Literal, NamedTuple, Union, get_args, get_origin, get_type_hints,
                    is_typeddict)

from .errors import ContractError

Cell = str | int | float | None


class UnknownName(ContractError, ValueError):
    """A name outside its closed vocabulary; the message lists the allowed names."""

    def __init__(self, kind: str, name: str, names):
        super().__init__(f"unknown {kind} {name!r}; one of {', '.join(map(repr, names))}")


INSIGHT_TYPES = (
    "Change Over Time",
    "Characterize Distribution",
    "Cluster",
    "Comparison",
    "Correlate",
    "Determine Range",
    "Deviation",
    "Find Anomalies",
    "Find Extremum",
    "Magnitude",
    "Part to Whole",
    "Sort",
    "Trend",
)

VISUALIZATION_TYPES = ("bar", "scatter", "pie", "line")

# How far the Highlight dim ramps in and out, as a share of its interval.
EMPHASIS_RAMP_FRACTION = 0.15

# Each animation's meaning, stated once: its category ("entrance", "emphasis"
# or "exit") and its ramps. A ramp is (subject, property, stops, easing); its
# subject is the directive's "targets", the chart's "legend" or the "others":
# the marks on screen over the whole interval, targets excepted. Over an
# interval [t0, t1] of length t1 - t0, a stop (k, n, value) is at
# t0 + k * length / n, and with n negative at t1 - k * length / -n; k == 0 is
# t0 or t1 itself, so an interval's end is written (0, -1, value): at (n, n,
# value) it could round past t1. An entrance leaves its subjects hidden until
# it starts.
_IN = ((0, 1, 0.0), (0, -1, 1.0))
_FLY = ((0, 1, -40.0), (0, -1, 0.0))
EFFECTS = {
    "Axes-fade-in": ("entrance", (("targets", "opacity", _IN, "linear"),)),
    "Bar-grow-in": ("entrance", (("targets", "scale", _IN, "ease-out"),)),
    "Line-wipe-in": ("entrance", (("targets", "clip_fraction", _IN, "linear"),)),
    "Pie-wheel-in": ("entrance", (("targets", "wheel_fraction", _IN, "linear"),)),
    "Pie-wheel-in-and-legend-fly-in": ("entrance", (
        ("targets", "wheel_fraction", _IN, "linear"),
        ("legend", "translate_x", _FLY, "linear"),
        ("legend", "opacity", _IN, "linear"))),
    "Scatter-fade-in": ("entrance", (("targets", "opacity", _IN, "linear"),)),
    "Bar-grow-and-legend-fade-in": ("entrance", (
        ("targets", "scale", _IN, "ease-out"),
        ("legend", "opacity", _IN, "linear"))),
    "Line-wipe-and-legend-fade-in": ("entrance", (
        ("targets", "clip_fraction", _IN, "linear"),
        ("legend", "opacity", _IN, "linear"))),
    "Fade-in": ("entrance", (("targets", "opacity", _IN, "linear"),)),
    "Float-in": ("entrance", (
        ("targets", "translate_y", ((0, 1, 20.0), (0, -1, 0.0)), "linear"),
        ("targets", "opacity", _IN, "linear"))),
    "Fly-in": ("entrance", (
        ("targets", "translate_x", _FLY, "linear"),
        ("targets", "opacity", _IN, "linear"))),
    "Zoom-in": ("entrance", (
        ("targets", "scale", ((0, 1, 0.5), (0, -1, 1.0)), "linear"),
        ("targets", "opacity", _IN, "linear"))),
    "Bar-bounce": ("emphasis", (("targets", "scale", (
        (0, 1, 1.0), (1, 4, 1.15), (1, 2, 1.0), (3, 4, 1.15), (0, -1, 1.0)), "ease-in-out"),)),
    "Zoom-in-then-zoom-out": ("emphasis", (("targets", "scale", (
        (0, 1, 1.0), (1, 2, 1.25), (0, -1, 1.0)), "ease-in-out"),)),
    "Shine-in-a-short-duration": ("emphasis", (("targets", "opacity", tuple(
        (k, 6, 0.4 if k % 2 else 1.0) for k in range(6)) + ((0, -1, 1.0),), "linear"),)),
    "Highlight-one-and-fade-others": ("emphasis", (("others", "opacity", (
        (0, 1, 1.0), (EMPHASIS_RAMP_FRACTION, 1, 0.2), (EMPHASIS_RAMP_FRACTION, -1, 0.2),
        (0, -1, 1.0)), "linear"),)),
    "Fade-out": ("exit", (("targets", "opacity", ((0, 1, 1.0), (0, -1, 0.0)), "linear"),)),
}

ANIMATIONS = tuple(EFFECTS)

# The animations the designer may use only within the narration's first sentence.
FIRST_SENTENCE_ONLY = ("Axes-fade-in",)

ANNOTATION_TYPES = ("mark label", "circle", "text", "rule", "trend line", "arrow")


def _vocabulary(kind: str, names):
    """Exact-match lookup of a name, trimmed, into names; else raises UnknownName."""
    def lookup(name: str) -> str:
        if name.strip() not in names:
            raise UnknownName(kind, name, names)
        return name.strip()
    return lookup


parse_animation = _vocabulary("animation", EFFECTS)


def classify_animation(name: str) -> str:
    """Return the category of a known animation name; raise UnknownName otherwise."""
    return EFFECTS[parse_animation(name)][0]


parse_insight_type = _vocabulary("insight type", INSIGHT_TYPES)
parse_visualization_type = _vocabulary("visualization type", VISUALIZATION_TYPES)
parse_annotation_type = _vocabulary("annotation type", ANNOTATION_TYPES)


class Record:
    """Equality and hash by the values of a class's __slots__, in their
    order, for the value types that are classes; each one's __init__ sets
    its slots and runs its checks."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


class DataTable(Record):
    """Parsed tabular input with ordered columns.

    The implicit row index 0..row_count-1 is the identity that directive
    "index" fields refer to.
    """

    __slots__ = ("title", "columns", "row_count")

    def __init__(self, title: str, columns: tuple[tuple[str, tuple[Cell, ...]], ...],
                 row_count: int):
        names = [name for name, _ in columns]
        if len(set(names)) != len(names):
            raise ValueError("column names must be unique")
        if any(not name for name in names):
            raise ValueError("column names must be non-empty")
        for name, values in columns:
            if len(values) != row_count:
                raise ValueError(f"column {name!r} has {len(values)} values, expected {row_count}")
        self.title, self.columns, self.row_count = title, columns, row_count

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple([name for name, _ in self.columns])

    def row(self, index: int) -> dict[str, Cell]:
        if not 0 <= index < self.row_count:
            raise IndexError(f"row {index} out of range (table has {self.row_count} rows)")
        return {name: values[index] for name, values in self.columns}


class DataDescription(Record):
    """Natural-language description of a table produced by the perception step."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        if not text.strip():
            raise ValueError("description text must be non-empty")
        self.text = text


class Insight(Record):
    """One analyst insight and its insight types."""

    __slots__ = ("insight", "types")

    def __init__(self, insight: str, types: tuple[str, ...]):
        if not insight.strip():
            raise ValueError("insight text must be non-empty")
        if not types:
            raise ValueError("insight must carry at least one type")
        self.insight, self.types = insight, tuple([parse_insight_type(t) for t in types])


class VisualizationSpec(Record):
    """A Vega-Lite spec plus its declared chart type.

    Structural validity (mark/encoding presence, layer placement rule) is
    reported by the analyst validator rather than enforced at construction,
    so that malformed specs can flow into the repair loop.
    """

    __slots__ = ("spec", "vis_type")

    def __init__(self, spec: dict, vis_type: str):
        self.spec, self.vis_type = spec, parse_visualization_type(vis_type)


def structure_violations(spec, path: str) -> tuple["Violation", ...]:
    """The structural rules a Vega-Lite spec breaks, as Violations at path;
    empty means structurally valid.

    The spec must be a JSON object with either top-level "mark"+"encoding" or
    a non-empty "layer" list of objects, and when "layer" is present no
    "mark"/"encoding" may sit beside it at the top level. The code is
    "layer-rule" for the rules on where "layer", "mark" and "encoding" sit,
    and "structure" for a spec or "layer" entry that is not an object."""
    if not isinstance(spec, dict):
        return (Violation("structure", path, "visualization spec must be a JSON object"),)
    problems = []
    if "layer" in spec:
        layers = spec["layer"]
        if not isinstance(layers, list) or not layers:
            problems.append(("layer-rule", '"layer" must be a non-empty list'))
        else:
            problems.extend(("structure", f'"layer" entry {i} must be a JSON object')
                            for i, layer in enumerate(layers) if not isinstance(layer, dict))
        for key in ("mark", "encoding"):
            if key in spec:
                problems.append((
                    "layer-rule",
                    f'layered spec must not carry a top-level "{key}" key; '
                    'all "mark" and "encoding" keys belong inside "layer"',
                ))
    else:
        missing = [key for key in ("mark", "encoding") if key not in spec]
        if missing:
            problems.append((
                "layer-rule",
                "spec without a \"layer\" list must carry top-level "
                + " and ".join(f'"{k}"' for k in missing),
            ))
    return tuple(Violation(code, path, message) for code, message in problems)


def spec_layers(spec: dict) -> list[dict]:
    """The layer objects of a spec in order: its "layer" list, else the spec itself."""
    layers = spec.get("layer")
    if isinstance(layers, list):
        return [layer for layer in layers if isinstance(layer, dict)]
    return [spec]


def mark_type(layer: dict) -> str | None:
    """A layer's mark type, written as "bar" or as {"type": "bar", ...}."""
    mark = layer.get("mark")
    if isinstance(mark, str):
        return mark
    if isinstance(mark, dict) and isinstance(mark.get("type"), str):
        return mark["type"]
    return None


def title_text(spec: dict) -> str | None:
    """A spec's title, written as a string or as {"text": ..., ...}."""
    title = spec.get("title")
    if isinstance(title, str):
        return title
    if isinstance(title, dict) and isinstance(title.get("text"), str):
        return title["text"]
    return None


class AnimationDirective(Record):
    """A designer animation on a target, cued by a narration segment."""

    __slots__ = ("animation", "narration", "target", "index", "explanation")

    def __init__(self, animation: str, narration: str, target: str, index: tuple[int, ...],
                 explanation: str = ""):
        self.animation = parse_animation(animation)
        if not narration.strip():
            raise ValueError("narration segment must be non-empty")
        self.narration, self.target, self.index = narration, target, index
        self.explanation = explanation

    @property
    def category(self) -> str:
        return EFFECTS[self.animation][0]


class AnnotationDirective(Record):
    """A designer annotation on data rows, cued by a narration segment."""

    __slots__ = ("types", "description", "index", "nar")

    def __init__(self, types: tuple[str, ...], description: str, index: tuple[int, ...],
                 nar: str):
        if not types:
            raise ValueError("annotation directive must carry at least one type")
        self.types = tuple([parse_annotation_type(t) for t in types])
        if not nar.strip():
            raise ValueError("annotation narration segment must be non-empty")
        self.description, self.index, self.nar = description, index, nar


class AnalystOutput(Record):
    """The analyst's insights, visualization spec and narration."""

    __slots__ = ("insights", "visualization", "narration")

    def __init__(self, insights: tuple[Insight, ...], visualization: VisualizationSpec,
                 narration: str):
        # Each message starts with the reply key of the field at fault.
        if not insights:
            raise ValueError("Insights: analyst output must carry at least one insight")
        if not narration.strip():
            raise ValueError("Narration: narration must be non-empty")
        self.insights, self.visualization, self.narration = insights, visualization, narration


class DesignerOutput(NamedTuple):
    """The designer's annotated spec and its animation and annotation directives.

    annotation_positions is each annotation directive's place in the reply,
    which counts the items the reader dropped.
    """

    annotated_visualization: dict
    animation_directives: tuple[AnimationDirective, ...]
    annotation_directives: tuple[AnnotationDirective, ...]
    annotation_positions: tuple[int, ...]


class Violation(NamedTuple):
    """One validator finding: a code, the artifact path and a message."""

    code: str
    path: str
    message: str

    def __str__(self):
        where = f" at {self.path}" if self.path else ""
        return f"[{self.code}]{where}: {self.message}"


class ValidationReport(NamedTuple):
    """Fatal violations plus non-blocking advisories from a validator pass."""

    violations: tuple[Violation, ...] = ()
    advisories: tuple[Violation, ...] = ()

    @property
    def passing(self) -> bool:
        return not self.violations

    def merged(self, other: "ValidationReport") -> "ValidationReport":
        return ValidationReport(
            violations=self.violations + other.violations,
            advisories=self.advisories + other.advisories,
        )

    def to_json(self) -> dict:
        return {
            "violations": [v._asdict() for v in self.violations],
            "advisories": [a._asdict() for a in self.advisories],
        }


class JsonTypeError(ContractError, TypeError):
    """A parsed JSON value that breaks its format: a contract error, and a
    TypeError to the readers that catch one. The message names the value's
    JSON path: `words[0].char_start: 1.0 is not an integer`."""


class _Mismatch(Exception):
    def __init__(self, problem: str):
        self.problem, self.path = problem, []  # the path's keys, innermost first


# The JSON values that each type an annotation may name takes.
_KINDS = {str: "a string", int: "an integer", float: "a number", bool: "a boolean",
          type(None): "null", list: "a list", dict: "an object"}


def _at(path, problem: str) -> str:
    """problem, after the JSON path of path's keys when there are any."""
    where = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path).removeprefix(".")
    return f"{where}: {problem}" if where else problem


def read_typed(cls, value, *path, ignore_extra_keys: bool = False):
    """cls, a NamedTuple, a TypedDict or another annotation, read from a parsed
    JSON value. An annotation takes: str; int, not a bool; float, an int too;
    bool; list or dict, holding anything; T | None; list[T]; dict[str, T];
    Literal[...] of strings; a NamedTuple or TypedDict, as an object with
    every field that has no default and no other key, or, with
    ignore_extra_keys, other keys left unread at every level. Raises
    JsonTypeError naming the path of the value at fault, after path's keys."""
    try:
        return _plan(cls, ignore_extra_keys)[0](value)
    except _Mismatch as e:
        raise JsonTypeError(_at((*path, *e.path[::-1]), e.problem)) from None


def build_read(cls, *path, **fields):
    """cls(**fields), built from a value read at path's keys; raises a
    ValueError from its checks as a JsonTypeError naming that path."""
    try:
        return cls(**fields)
    except ValueError as e:
        raise JsonTypeError(_at(path, str(e))) from None


@cache
def _plan(tp, extra: bool):
    """(read, kinds, values) for annotation tp, an object's extra keys left
    out when extra is true. read(value) is what value reads as, or raises
    _Mismatch. A value whose type is in kinds, and which is in values where
    that is not None, reads as itself."""
    origin, args = get_origin(tp), get_args(tp)
    members = args if origin in (Union, UnionType) else (tp,)
    if set(members) <= _KINDS.keys():
        kinds = frozenset(members) | ({int} if float in members else set())
        names = [_KINDS[m] for m in members if m is not int or float not in members]
        return _leaf(kinds, None, " or ".join(filter(None, [", ".join(names[:-1]), names[-1]])))
    if origin is Literal:
        return _leaf(frozenset({str}), frozenset(args), "one of " + ", ".join(map(repr, args)))
    if type(None) in members:
        read = _plan(members[members[0] is type(None)], extra)[0]
        return (lambda value: None if value is None else read(value)), frozenset({type(None)}), None
    if origin is list or origin is dict:
        return _container(origin, *_plan(args[-1], extra)), frozenset(), None
    if hasattr(tp, "_fields") or is_typeddict(tp):
        return _object(tp, extra), frozenset(), None
    raise TypeError(f"read_typed cannot read {tp!r}")


def _leaf(kinds: frozenset, values: frozenset | None, expected: str):
    def read(value):
        if type(value) in kinds and (values is None or value in values):
            return value
        raise _Mismatch(f"{value!r} is not {expected}")
    return read, kinds, values


def _container(kind: type, read_item, kinds: frozenset, values: frozenset | None):
    def read(value):
        if type(value) is not kind:
            raise _Mismatch(f"{value!r} is not {_KINDS[kind]}")
        items = value if kind is list else value.values()
        if kinds and set(map(type, items)) <= kinds and (values is None or set(items) <= values):
            return value  # scalars, checked in one pass
        built = []
        for key, item in enumerate(value) if kind is list else value.items():
            try:
                built.append(read_item(item))
            except _Mismatch as e:
                e.path.append(key)
                raise
        return built if kind is list else dict(zip(value, built))
    return read


def _object(cls, extra: bool):
    hints = get_type_hints(cls)
    if is_typeddict(cls):
        order, required, build = list(hints), cls.__required_keys__, None
    else:  # a NamedTuple
        order, build = cls._fields, cls
        required = set(order) - cls._field_defaults.keys()
    names, plans = frozenset(order), {name: _plan(hints[name], extra) for name in order}
    # The types whose values read as themselves in each field, a Literal's none.
    kinds = {name: plan[1] if plan[2] is None else frozenset() for name, plan in plans.items()}

    def read(value):
        if type(value) is not dict:
            raise _Mismatch(f"{value!r} is not an object")
        if value.keys() != names:
            if extra:
                value = {name: item for name, item in value.items() if name in names}
            if not required <= value.keys() <= names:
                unknown, missing = sorted(value.keys() - names), sorted(required - set(value))
                raise _Mismatch(f"unknown key {', '.join(map(repr, unknown))}" if unknown
                                else f"missing key {', '.join(map(repr, missing))}")
        read_as = {}  # the fields that read as another value
        for name, item in value.items():
            if type(item) not in kinds[name]:
                try:
                    read_as[name] = plans[name][0](item)
                except _Mismatch as e:
                    e.path.append(name)
                    raise
        given = value | read_as if read_as else value
        return given if build is None else build(**given)
    return read


# Compact, key-sorted JSON; `indent` would bypass CPython's C encoder.
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset({str, int, float, bool, type(None)})
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dump_artifact(payload) -> str:
    """The JSON text of one project artifact, as stream_artifact writes it."""
    text = io.StringIO()
    stream_artifact(payload, text)
    return text.getvalue()


def stream_artifact(payload, file) -> None:
    """Write one project artifact's JSON text to an open text file, piece by
    piece: the only artifact writer.

    Keys are sorted and objects nest two spaces deep. A non-empty list whose
    elements are all objects or lists (frames, tracks, bindings, word
    timings) puts each element, a row, on its own line, encoded compact;
    other lists and scalars are encoded compact inline. An iterator stands
    for a list of rows given as their compact JSON text, written one a line
    as it yields them (`[]` when it yields none); any other row is a
    TypeError. The text ends with a newline.

    The bytes are those of encoding each value on its own; only work is shared:
    - a laid-out key, and a string, integer or float outside a row, is
      written from its own text, without an encoder call;
    - an object of string keys and scalar values is one encoder call, with
      the layout's separators when it is laid out;
    - a row is one encoder call.

    Values that json cannot encode raise what json.dumps raises.
    """
    _Writer(file.write).value(payload, "")
    file.write("\n")


_ROWS_END = "\n  ]\n}\n"


def split_rows(text: str, key: str) -> tuple[str, list[str]] | None:
    """The text of an object whose last key, key, holds a non-empty list of
    rows, laid out as stream_artifact writes it, split in two: the text with
    that list written `[]`, and the texts between the list's row separators.
    None for text not laid out so around the list. Neither part is decoded
    or checked: the caller decodes both, and a row text may be no row."""
    opening = "\n  " + encode_basestring_ascii(key) + ": ["
    start = text.find(opening + "\n    ")
    if start < 0 or not text.endswith(_ROWS_END):
        return None
    rows = text[start + len(opening) + 5:-len(_ROWS_END)].split(",\n    ")
    return text[:start] + opening + "]\n}\n", rows


def row_text(row) -> str:
    """The compact JSON text the writer gives a row; the form in which an
    iterator in a payload yields its rows."""
    return _COMPACT.encode(row)


def _encoder(item_separator: str = ",", key_separator: str = ":"):
    """A function that encodes one value as _COMPACT.encode does, with these
    separators.

    JSONEncoder.encode sets up a C encoder on every call; one is set up here
    per artifact instead. Its circular-reference markers are its own, so a
    failed encode leaves nothing behind for the next artifact."""
    if c_make_encoder is None:
        return json.JSONEncoder(sort_keys=True,
                                separators=(item_separator, key_separator)).encode
    encode = c_make_encoder({}, _COMPACT.default, encode_basestring_ascii, None,
                            key_separator, item_separator, True, False, True)
    return lambda value: "".join(encode(value, 0))


def float_text(value: float) -> str:
    """The JSON text of a float, as the artifact writer writes it."""
    text = float.__repr__(value)
    return _FLOAT_WORDS.get(text, text)


# The text of a scalar of these types, without an encoder call.
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__, float: float_text}


def _scalar_object(value: dict) -> bool:
    return (set(map(type, value)) == {str}
            and set(map(type, value.values())) <= _SCALARS)


class _Writer:
    """The layout of one artifact, written piece by piece to write."""

    def __init__(self, write):
        self.write = write
        self.encode = _encoder()
        self.indented: dict[str, object] = {}  # indent -> its scalar-object encoder
        # The ids of the objects being laid out around the current value. Only
        # objects recurse here; everything else reaches the encoder, whose own
        # markers catch a cycle.
        self.path: set[int] = set()

    def value(self, value, indent: str) -> None:
        scalar = _SCALAR_TEXT.get(type(value))
        if scalar is not None:
            self.write(scalar(value))
        elif isinstance(value, dict) and value:
            self.object(value, indent)
        elif isinstance(value, (list, tuple)) and value and all(
                isinstance(v, _CONTAINERS) for v in value):
            self.rows(value, indent)
        elif isinstance(value, Iterator):
            self.texts(value, indent)
        else:
            self.write(self.encode(value))

    def object(self, value: dict, indent: str) -> None:
        inner = indent + "  "
        if _scalar_object(value):
            encode = self.indented.get(inner)
            if encode is None:
                encode = self.indented[inner] = _encoder(",\n" + inner, ": ")
            self.write("{\n" + inner + encode(value)[1:-1] + "\n" + indent + "}")
            return
        if id(value) in self.path:
            raise ValueError("Circular reference detected")
        self.path.add(id(value))
        head = "{\n"
        for key in sorted(value):
            # Non-string keys become their JSON text, as json.dumps writes them.
            self.write(head + inner + encode_basestring_ascii(
                key if isinstance(key, str) else self.encode(key)) + ": ")
            self.value(value[key], inner)
            head = ",\n"
        self.write("\n" + indent + "}")
        self.path.remove(id(value))

    def texts(self, rows, indent: str) -> None:
        """Rows an iterator yields as their JSON text, one a line."""
        write = self.write
        inner = indent + "  "
        head = "[\n" + inner
        for row in rows:
            if not isinstance(row, str):
                raise TypeError(f"an iterator row must be its JSON text, not {type(row).__name__}")
            write(head + row)
            head = ",\n" + inner
        write("[]" if head[0] == "[" else "\n" + indent + "]")

    def rows(self, rows, indent: str) -> None:
        inner = indent + "  "
        self.write("[\n" + inner + f",\n{inner}".join(map(self.encode, rows)) + f"\n{indent}]")
