"""External-tool contracts (renderer, TTS, video synthesizer) with deterministic mocks.

Each contract has a subprocess-backed implementation for real tools and an
in-process mock. The mock renderer emits the binding metadata the pipeline
relies on: <g data-role="..."> groups and per-datum data-row / data-series
attributes on mark elements. The mock TTS speaks at a fixed 0.3 s per token;
the mock synthesizer writes a frame-by-frame visibility manifest instead of
pixels.
"""

import json
import math
import re
import subprocess
import wave
from dataclasses import dataclass
from pathlib import Path

from .binding import (
    NotSvg,
    Rendering,
    UnboundMark,
    XmlParseError,
    escape,
    index_marks,
    parse_svg,
    quoteattr,
)
from .errors import AdapterError, PreconditionError
from .model import (
    DataTable,
    ValidationReport,
    Violation,
    VisualizationSpec,
    dump_artifact,
    mark_type,
    spec_layers,
    title_text,
    visualization_structure_violations,
)
from .timeline import (
    KeyframeEvaluator,
    Span,
    Timeline,
    WordTiming,
    validate_timings,
    value_at,  # noqa: F401  -- kept importable as datareel.adapters.value_at
)


class RendererRejectedSpec(AdapterError):
    def __init__(self, diagnostics: str):
        super().__init__(f"renderer rejected the spec: {diagnostics}")
        self.diagnostics = diagnostics


class RendererCrashed(AdapterError):
    def __init__(self, exit_code: int, detail: str = ""):
        super().__init__(f"renderer crashed (exit {exit_code})" + (f": {detail}" if detail else ""))
        self.exit_code = exit_code


class MetadataMissing(AdapterError):
    def __init__(self, element_id: str, detail: str):
        super().__init__(f"rendered mark {element_id!r} {detail}")
        self.element_id = element_id


class EmptyNarration(PreconditionError):
    pass


class TtsFailure(AdapterError):
    pass


class SynthFailure(AdapterError):
    pass


PALETTE = (
    "#4c78a8", "#f58518", "#e45756", "#72b7b2", "#54a24b",
    "#eeca3b", "#b279a2", "#ff9da6", "#9d755d", "#bab0ac",
)

_PLOT_LEFT, _PLOT_TOP, _PLOT_RIGHT, _PLOT_BOTTOM = 60.0, 40.0, 600.0, 320.0


def _fmt(value: float) -> str:
    return f"{value:.2f}".rstrip("0").rstrip(".")


def _enc_field(encoding: dict, channel: str) -> str | None:
    defn = encoding.get(channel)
    if isinstance(defn, dict) and isinstance(defn.get("field"), str):
        return defn["field"]
    return None


class _Ordinal:
    """Distinct values in first-seen order, each with its position.

    Two values are the same when a list's `in` says so: identical, or `==`.
    Hashable values are looked up in a dict, which compares the same way;
    unhashable ones (list or dict cells) by a scan over the unhashable values
    seen so far.
    """

    def __init__(self, values=()):
        self.values: list = []
        self._positions: dict = {}
        self._unhashable: list = []
        for value in values:
            if self.position(value) is not None:
                continue
            try:
                self._positions[value] = len(self.values)
            except TypeError:
                self._unhashable.append((value, len(self.values)))
            self.values.append(value)

    def position(self, value) -> int | None:
        try:
            return self._positions.get(value)
        except TypeError:
            return next((i for seen, i in self._unhashable
                         if seen is value or seen == value), None)


def _dict_comparable(values: tuple) -> bool:
    """Whether a dict lookup on these values agrees with `==`: plain JSON
    scalars other than NaN, which a dict matches by identity."""
    return all(type(v) in (str, int, bool, type(None)) or (type(v) is float and v == v)
               for v in values)


class _RowIndex:
    """The base rows an overlay datum matches, found by dict lookups.

    A row matches when it shares at least one key with the datum and is `==`
    to it on every shared key. Rows are grouped by key set; per group and
    shared-key tuple, a table maps the rows' values on those keys to their
    indices. Values a dict cannot compare like `==` (see _dict_comparable)
    are compared one row at a time.
    """

    def __init__(self, rows: list[dict]):
        self._rows = rows
        self._groups: dict = {}
        for i, row in enumerate(rows):
            self._groups.setdefault(frozenset(row), (tuple(row), []))[1].append(i)
        self._tables: dict = {}

    def _table(self, keyset: frozenset, shared: tuple, members: list[int]):
        table = self._tables.get((keyset, shared))
        if table is None:
            by_values: dict = {}
            compared: list[int] = []
            for i in members:
                values = tuple(self._rows[i][k] for k in shared)
                if _dict_comparable(values):
                    by_values.setdefault(values, []).append(i)
                else:
                    compared.append(i)
            table = self._tables[(keyset, shared)] = (by_values, compared)
        return table

    def matches(self, datum: dict) -> list[int]:
        """Indices of the rows the datum matches, in no particular order."""
        out = []
        for keyset, (keys, members) in self._groups.items():
            shared = tuple(k for k in keys if k in datum)
            if not shared:
                continue
            values = tuple(datum[k] for k in shared)
            if _dict_comparable(values):
                by_values, compared = self._table(keyset, shared, members)
                out.extend(by_values.get(values, ()))
            else:
                compared = members
            out.extend(i for i in compared
                       if all(datum[k] == self._rows[i][k] for k in shared))
        return out


class MockRenderer:
    """Deterministic structural renderer for Vega-Lite-shaped specs.

    Layer zero renders directly under <g data-role="marks"> (one element per
    datum, or per series for line and pie marks); additional layers render
    under <g data-role="overlay"> groups placed after the marks group, so
    base element identities stay stable between base and annotated renders.
    """

    SUPPORTED_MARKS = ("bar", "line", "point", "circle", "scatter", "square",
                       "arc", "pie", "text", "rule", "tick")

    def render(self, spec: dict) -> str:
        problems = visualization_structure_violations(spec)
        if problems:
            raise RendererRejectedSpec("; ".join(problems))
        layers = spec_layers(spec)
        top_data = self._data_values(spec)
        base = layers[0]
        base_data = self._data_values(base) or top_data
        if not base_data:
            raise RendererRejectedSpec("spec carries no inline data values")
        base_enc = base.get("encoding") if isinstance(base.get("encoding"), dict) else None
        if base_enc is None:
            raise RendererRejectedSpec("base layer has no encoding")
        base_mark = mark_type(base)
        if base_mark not in self.SUPPORTED_MARKS:
            raise RendererRejectedSpec(f"unsupported mark type {base_mark!r}")
        datum_keys = set(base_data[0]) if isinstance(base_data[0], dict) else set()
        for channel, defn in base_enc.items():
            if isinstance(defn, dict) and isinstance(defn.get("field"), str):
                if defn["field"] not in datum_keys:
                    raise RendererRejectedSpec(
                        f"encoding channel {channel!r} references unknown field "
                        f"{defn['field']!r}"
                    )

        x_field = _enc_field(base_enc, "x")
        y_field = _enc_field(base_enc, "y")
        series_field = _enc_field(base_enc, "color") or _enc_field(base_enc, "detail")
        x_order = self._distinct(base_data, x_field)
        y_lo, y_hi = self._numeric_domain(base_data, y_field)
        legend = self._series_values(base_data, series_field)

        parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="640" height="360">']
        title = title_text(spec)
        if title is not None:
            parts.append(
                f'<g data-role="title"><text x="320" y="24">{escape(title)}</text></g>'
            )
        if base_mark not in ("arc", "pie"):
            parts.append(
                '<g data-role="axis" data-axis="x">'
                f'<line x1="{_fmt(_PLOT_LEFT)}" y1="{_fmt(_PLOT_BOTTOM)}" '
                f'x2="{_fmt(_PLOT_RIGHT)}" y2="{_fmt(_PLOT_BOTTOM)}"/>'
                f"<text x=\"330\" y=\"345\">{escape(x_field or '')}</text></g>"
            )
            parts.append(
                '<g data-role="axis" data-axis="y">'
                f'<line x1="{_fmt(_PLOT_LEFT)}" y1="{_fmt(_PLOT_TOP)}" '
                f'x2="{_fmt(_PLOT_LEFT)}" y2="{_fmt(_PLOT_BOTTOM)}"/>'
                f"<text x=\"20\" y=\"180\">{escape(y_field or '')}</text></g>"
            )
        if series_field is not None:
            legend_items = "".join(
                f'<text data-series={quoteattr(str(v))} x="612" y="{_fmt(60 + 18 * i)}">'
                f"{escape(str(v))}</text>"
                for i, v in enumerate(legend)
            )
            parts.append(f'<g data-role="legend">{legend_items}</g>')

        scales = (x_order, y_lo, y_hi)
        parts.append('<g data-role="marks">')
        parts.extend(self._layer_elements(base_mark, base_enc, base_data, scales,
                                          legend, base_rows=None))
        parts.append("</g>")

        base_index = _RowIndex(base_data)
        for k, layer in enumerate(layers[1:], start=1):
            layer_enc = layer.get("encoding") if isinstance(layer.get("encoding"), dict) else {}
            layer_mark = mark_type(layer)
            if layer_mark not in self.SUPPORTED_MARKS:
                raise RendererRejectedSpec(
                    f"unsupported mark type {layer_mark!r} in layer {k}"
                )
            layer_data = self._data_values(layer) or base_data
            parts.append(f'<g data-role="overlay" data-layer="{k}">')
            parts.extend(self._layer_elements(layer_mark, layer_enc, layer_data, scales,
                                              legend, base_rows=base_index))
            parts.append("</g>")
        parts.append("</svg>")
        return "".join(parts)

    @staticmethod
    def _data_values(node: dict) -> list | None:
        data = node.get("data")
        if isinstance(data, dict) and isinstance(data.get("values"), list) and data["values"]:
            return data["values"]
        return None

    @staticmethod
    def _distinct(data: list, field: str | None) -> _Ordinal:
        if field is None:
            return _Ordinal()
        return _Ordinal(d[field] for d in data if isinstance(d, dict) and field in d)

    @classmethod
    def _series_values(cls, data: list, field: str | None) -> list:
        """Distinct series values in first-seen order; null is no series."""
        return [v for v in cls._distinct(data, field).values if v is not None]

    @staticmethod
    def _numeric_domain(data: list, field: str | None) -> tuple[float, float]:
        values = [
            float(d[field]) for d in data
            if field is not None and isinstance(d, dict)
            and isinstance(d.get(field), (int, float)) and not isinstance(d.get(field), bool)
        ]
        if not values:
            return 0.0, 1.0
        return min(values), max(values)

    @staticmethod
    def _x_pos(x_order: _Ordinal, value) -> float:
        idx = x_order.position(value)
        if idx is None or len(x_order.values) <= 1:
            return (_PLOT_LEFT + _PLOT_RIGHT) / 2
        return _PLOT_LEFT + idx * (_PLOT_RIGHT - _PLOT_LEFT) / (len(x_order.values) - 1)

    @staticmethod
    def _y_pos(lo: float, hi: float, value) -> float:
        if not isinstance(value, (int, float)) or isinstance(value, bool) or hi == lo:
            return (_PLOT_TOP + _PLOT_BOTTOM) / 2
        frac = (float(value) - lo) / (hi - lo)
        return _PLOT_BOTTOM - frac * (_PLOT_BOTTOM - _PLOT_TOP)

    def _layer_elements(self, mark: str, encoding: dict, data: list, scales,
                        legend: list, base_rows: _RowIndex | None) -> list[str]:
        """One element per group of the layer's data: per series for line marks,
        per series (else per datum) for arc and pie marks, per datum otherwise.

        A group's data-row lists its own indices in the base layer and, in an
        overlay, the base rows its data matches (omitted when none match).
        A datum whose series value is missing or null has no series. A series
        is coloured by its position in the legend; a series the legend lacks
        comes after the legend's, in the layer's first-seen order.
        """
        for i, datum in enumerate(data):
            if not isinstance(datum, dict):
                raise RendererRejectedSpec(f"datum {i} is not an object")
        series_field = _enc_field(encoding, "color") or _enc_field(encoding, "detail")
        series_order = _Ordinal([*legend, *self._series_values(data, series_field)])

        def series_of(datum: dict):
            return datum.get(series_field) if series_field else None

        def group_of(i: int, datum: dict):
            if not by_series:
                return i
            series = series_of(datum)
            return None if series is None else series_order.position(series)

        by_series = mark == "line" or (mark in ("arc", "pie") and series_field)
        groups: dict = {}
        for i, datum in enumerate(data):
            groups.setdefault(group_of(i, datum), []).append((i, datum))

        out = []
        for n, members in enumerate(groups.values()):
            if base_rows is None:
                rows = [i for i, _ in members]
            else:
                rows = sorted({m for _, d in members for m in base_rows.matches(d)})
            attrs = f' data-row="{";".join(str(r) for r in rows)}"' if rows else ""
            series = series_of(members[0][1])
            if series is not None:
                attrs += f" data-series={quoteattr(str(series))}"
            if mark in ("arc", "pie"):
                color = PALETTE[n % len(PALETTE)]
            elif series is not None:
                color = PALETTE[series_order.position(series) % len(PALETTE)]
            else:
                color = PALETTE[0]
            tag, geometry = self._shape(mark, encoding, [d for _, d in members],
                                        (n, len(groups)), scales, color)
            out.append(f"<{tag}{attrs}{geometry}")
        return out

    def _shape(self, mark: str, encoding: dict, members: list,
               position: tuple[int, int], scales, color: str) -> tuple[str, str]:
        """A group's element tag and everything after its data attributes."""
        x_order, y_lo, y_hi = scales
        x_field = _enc_field(encoding, "x")
        y_field = _enc_field(encoding, "y")
        if mark == "line":
            points = " L ".join(
                f"{_fmt(self._x_pos(x_order, d.get(x_field)))} "
                f"{_fmt(self._y_pos(y_lo, y_hi, d.get(y_field)))}"
                for d in members
            )
            return "path", f' d="M {points}" fill="none" stroke="{color}" stroke-width="2"/>'
        if mark in ("arc", "pie"):
            n, total = position
            a0 = 2 * math.pi * n / total
            a1 = 2 * math.pi * (n + 1) / total
            x0, y0 = 320 + 120 * math.cos(a0), 180 + 120 * math.sin(a0)
            x1, y1 = 320 + 120 * math.cos(a1), 180 + 120 * math.sin(a1)
            return "path", (f' d="M 320 180 L {_fmt(x0)} {_fmt(y0)} '
                            f'A 120 120 0 0 1 {_fmt(x1)} {_fmt(y1)} Z" fill="{color}"/>')
        (datum,) = members
        x = self._x_pos(x_order, datum.get(x_field))
        y = self._y_pos(y_lo, y_hi, datum.get(y_field))
        if mark == "bar":
            return "rect", (f' x="{_fmt(x - 10)}" y="{_fmt(y)}" width="20" '
                            f'height="{_fmt(_PLOT_BOTTOM - y)}" fill="{color}"/>')
        if mark == "text":
            text_field = _enc_field(encoding, "text")
            label = str(datum.get(text_field, "")) if text_field else ""
            return "text", f' x="{_fmt(x)}" y="{_fmt(y - 8)}">{escape(label)}</text>'
        if mark == "rule" and y_field is not None and x_field is None:
            return "line", (f' x1="{_fmt(_PLOT_LEFT)}" y1="{_fmt(y)}" '
                            f'x2="{_fmt(_PLOT_RIGHT)}" y2="{_fmt(y)}" stroke="#333"/>')
        if mark == "rule":
            return "line", (f' x1="{_fmt(x)}" y1="{_fmt(_PLOT_TOP)}" '
                            f'x2="{_fmt(x)}" y2="{_fmt(_PLOT_BOTTOM)}" stroke="#333"/>')
        if mark == "tick":
            return "line", (f' x1="{_fmt(x - 6)}" y1="{_fmt(y)}" '
                            f'x2="{_fmt(x + 6)}" y2="{_fmt(y)}" stroke="#333"/>')
        return "circle", f' cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="{color}"/>'


class CommandRenderer:
    """Runs an external renderer command: spec JSON on stdin, SVG on stdout."""

    def __init__(self, command: list[str], timeout: float = 60.0):
        self.command = list(command)
        self.timeout = timeout

    def render(self, spec: dict) -> str:
        try:
            result = subprocess.run(
                self.command,
                input=json.dumps(spec).encode("utf-8"),
                capture_output=True,
                timeout=self.timeout,
            )
        except subprocess.TimeoutExpired:
            raise RendererCrashed(-1, f"timed out after {self.timeout}s") from None
        except OSError as e:
            raise RendererCrashed(-1, str(e)) from None
        if result.returncode != 0:
            diagnostics = result.stderr.decode("utf-8", errors="replace").strip()
            if result.returncode < 0:
                raise RendererCrashed(result.returncode, diagnostics)
            raise RendererRejectedSpec(diagnostics or f"exit code {result.returncode}")
        return result.stdout.decode("utf-8")


def read_rendering(svg_text: str, table: DataTable) -> Rendering:
    """Parse a renderer's SVG and index its marks against the table.

    Invalid SVG raises RendererCrashed; a mark with missing, malformed, or
    out-of-table data-row metadata raises MetadataMissing.
    """
    try:
        doc = parse_svg(svg_text)
    except (XmlParseError, NotSvg) as e:
        raise RendererCrashed(0, f"renderer emitted invalid SVG: {e}") from None
    try:
        index = index_marks(doc, table)
    except UnboundMark as e:
        raise MetadataMissing(e.element_id, e.detail) from None
    return Rendering(svg=svg_text, doc=doc, index=index)


def render_visualization(spec: VisualizationSpec, renderer, table: DataTable) -> Rendering:
    """Render a spec and read the result against the table (see read_rendering)."""
    problems = visualization_structure_violations(spec.spec)
    if problems:
        raise PreconditionError("spec is structurally invalid: " + "; ".join(problems))
    return read_rendering(renderer.render(spec.spec), table)


@dataclass(frozen=True)
class TtsResult:
    audio_path: str
    timings: tuple[WordTiming, ...]
    duration: float
    estimated_timings: bool = False


def _tokenize(narration: str) -> list[tuple[str, int, int]]:
    return [(m.group(), m.start(), m.end()) for m in re.finditer(r"\S+", narration)]


def _write_silent_wav(path: str | Path, duration: float, sample_rate: int = 8000) -> None:
    frames = int(round(duration * sample_rate))
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(sample_rate)
        w.writeframes(b"\x00\x00" * frames)


class MockTts:
    """Fixed-rate speech: 0.3 s per whitespace token, contiguous, silent audio."""

    def __init__(self, seconds_per_word: float = 0.3, sample_rate: int = 8000):
        self.seconds_per_word = seconds_per_word
        self.sample_rate = sample_rate

    def synthesize(self, narration: str, out_path: str | Path) -> TtsResult:
        tokens = _tokenize(narration)
        if not tokens:
            raise EmptyNarration("narration has no words")
        spw = self.seconds_per_word
        timings = tuple(
            WordTiming(
                word=word,
                start=round(i * spw, 9),
                end=round((i + 1) * spw, 9),
                char_span=Span(start, end),
            )
            for i, (word, start, end) in enumerate(tokens)
        )
        duration = round(len(tokens) * spw, 9)
        _write_silent_wav(out_path, duration, self.sample_rate)
        return TtsResult(audio_path=str(out_path), timings=timings, duration=duration)


class CommandTts:
    """Runs an external TTS command.

    stdin: {"text": narration, "audio_path": requested output}
    stdout: {"audio_path": ..., "duration": seconds, "timings": [[word, start, end], ...]}
    When the tool returns no timings they are estimated by proportional
    character weighting over the reported duration.
    """

    def __init__(self, command: list[str], timeout: float = 120.0):
        self.command = list(command)
        self.timeout = timeout

    def synthesize(self, narration: str, out_path: str | Path) -> TtsResult:
        tokens = _tokenize(narration)
        if not tokens:
            raise EmptyNarration("narration has no words")
        payload = json.dumps({"text": narration, "audio_path": str(out_path)})
        try:
            result = subprocess.run(
                self.command, input=payload.encode("utf-8"),
                capture_output=True, timeout=self.timeout,
            )
        except (subprocess.TimeoutExpired, OSError) as e:
            raise TtsFailure(f"TTS command failed: {e}") from None
        if result.returncode != 0:
            raise TtsFailure(result.stderr.decode("utf-8", errors="replace").strip()
                             or f"exit code {result.returncode}")
        try:
            reply = json.loads(result.stdout.decode("utf-8"))
            audio_path = reply["audio_path"]
            duration = float(reply["duration"])
            raw_timings = reply.get("timings") or []
        except (ValueError, KeyError, TypeError) as e:
            raise TtsFailure(f"malformed TTS reply: {e}") from None
        if raw_timings:
            if len(raw_timings) != len(tokens):
                raise TtsFailure(
                    f"TTS returned {len(raw_timings)} timings for {len(tokens)} words"
                )
            timings = tuple(
                WordTiming(word=word, start=float(s), end=float(e), char_span=Span(cs, ce))
                for (word, cs, ce), (_, s, e) in zip(tokens, raw_timings)
            )
            estimated = False
        else:
            timings = tuple(_estimate_timings(tokens, duration))
            estimated = True
        return TtsResult(audio_path=audio_path, timings=timings,
                         duration=duration, estimated_timings=estimated)


def _estimate_timings(tokens: list[tuple[str, int, int]], duration: float):
    weights = [len(word) + 1 for word, _, _ in tokens]
    total = sum(weights)
    elapsed = 0.0
    for (word, cs, ce), weight in zip(tokens, weights):
        start = round(elapsed, 9)
        elapsed += duration * weight / total
        yield WordTiming(word=word, start=start, end=round(elapsed, 9), char_span=Span(cs, ce))


def synthesize_speech(narration: str, tts, out_path: str | Path,
                      ) -> tuple[TtsResult, ValidationReport]:
    """Synthesize narration and verify the word-timing contract."""
    if not narration.strip():
        raise EmptyNarration("narration is empty")
    result = tts.synthesize(narration, out_path)
    problems = validate_timings(narration, list(result.timings))
    if problems:
        raise TtsFailure("TTS output violates the timing contract: " + "; ".join(problems))
    advisories = []
    if result.estimated_timings:
        advisories.append(Violation(
            "tts-timings-estimated", "",
            "TTS returned no word timings; estimated by character weighting",
        ))
    return result, ValidationReport(advisories=tuple(advisories))


class MockSynth:
    """Writes a frame-by-frame visibility manifest instead of rasterizing.

    The manifest holds round(duration * fps) frames. Frame i is at time i / fps
    (stored rounded to 6 decimals). Its "visible" lists the ids visible at that
    time, sorted by id. Its "opacity" maps only those visible ids whose opacity
    is not 1.0, each value rounded to 4 decimals after that comparison. The
    frames come from one change-point sweep of the compiled timeline
    (KeyframeEvaluator.sweep): consecutive frames with no change share their
    "visible" list and "opacity" map objects, each distinct opacity map is
    rounded once, and the writer encodes each shared object once.
    """

    def __init__(self, fps: int = 30):
        self.fps = fps

    def synthesize(self, timeline: Timeline, svg_path: str | Path,
                   audio_path: str | Path, out_path: str | Path) -> str:
        if timeline.duration <= 0:
            raise SynthFailure("timeline has zero duration")
        frame_count = int(round(timeline.duration * self.fps))
        times = [f / self.fps for f in range(frame_count)]
        frames = []
        # The sweep yields a new opacity map only when one changes, so the
        # rounded map is keyed on the identity of the last one. Elements
        # fading together repeat a few values, each rounded once.
        last = rounded = None
        values = {}
        for f, (t, (visible, opacity)) in enumerate(
                zip(times, KeyframeEvaluator(timeline).sweep(times))):
            if opacity is not last:
                last, rounded = opacity, {
                    eid: values[v] if v in values else values.setdefault(v, round(v, 4))
                    for eid, v in opacity.items()}
            frames.append({"index": f, "time": round(t, 6), "visible": visible,
                           "opacity": rounded})
        manifest = {
            "kind": "mock-video-manifest",
            "fps": self.fps,
            "duration": timeline.duration,
            "frame_count": frame_count,
            "svg": Path(svg_path).name,
            "audio": Path(audio_path).name,
            "frames": frames,
        }
        Path(out_path).write_text(dump_artifact(manifest), encoding="utf-8")
        return str(out_path)


class CommandSynth:
    """Runs an external synthesizer: timeline.json, SVG, and audio paths as arguments."""

    def __init__(self, command: list[str], timeout: float = 600.0):
        self.command = list(command)
        self.timeout = timeout

    def synthesize(self, timeline: Timeline, svg_path: str | Path,
                   audio_path: str | Path, out_path: str | Path) -> str:
        if timeline.duration <= 0:
            raise SynthFailure("timeline has zero duration")
        timeline_path = Path(out_path).with_suffix(".timeline.json")
        timeline_path.write_text(dump_artifact(timeline.to_json()), encoding="utf-8")
        cmd = self.command + [str(timeline_path), str(svg_path), str(audio_path), str(out_path)]
        try:
            result = subprocess.run(cmd, capture_output=True, timeout=self.timeout)
        except (subprocess.TimeoutExpired, OSError) as e:
            raise SynthFailure(f"synthesizer failed: {e}") from None
        if result.returncode != 0:
            raise SynthFailure(result.stderr.decode("utf-8", errors="replace").strip()
                               or f"exit code {result.returncode}")
        return str(out_path)


def synthesize_video(timeline: Timeline, svg_path: str | Path, audio_path: str | Path,
                     synth, out_path: str | Path) -> str:
    """Produce the final video (or mock manifest) from the compiled timeline."""
    return synth.synthesize(timeline, svg_path, audio_path, out_path)


_CSS_PROPS = {
    "opacity": lambda v: f"opacity: {v:g};",
    "scale": lambda v: f"transform: scale({v:g});",
    "translate_x": lambda v: f"transform: translateX({v:g}px);",
    "translate_y": lambda v: f"transform: translateY({v:g}px);",
    "clip_fraction": lambda v: f"clip-path: inset(0 {100 * (1 - v):.2f}% 0 0);",
    "wheel_fraction": lambda v: f"--wheel: {v * 360:.2f}deg;",
}


def _css_track(prop: str, seq) -> tuple[str, str]:
    """The @keyframes body and the animation timing of one property track."""
    first, last = seq[0].time, seq[-1].time
    duration = max(last - first, 0.001)
    stops = []
    for i, kf in enumerate(seq):
        pct = (kf.time - first) / duration * 100
        easing = seq[i + 1].easing if i + 1 < len(seq) else "linear"
        stops.append(
            f"  {pct:.4f}% {{ {_CSS_PROPS[prop](kf.value)}"
            f" animation-timing-function: {easing}; }}"
        )
    return "\n".join(stops), f"{duration:g}s linear {first:g}s 1 normal both"


_CSS_UNSAFE = re.compile(r"[^A-Za-z0-9_-]")


def _css_id(eid: str) -> str:
    """eid for the quotes of an [id="..."] selector: each character outside
    [A-Za-z0-9_-] becomes a hex escape, so no id can end the string, the
    rule or the <style> element."""
    return _CSS_UNSAFE.sub(lambda m: f"\\{ord(m.group()):x} ", eid)


def export_html(timeline: Timeline, svg_text: str, audio_ref: str) -> str:
    """Emit a self-contained HTML document animating the SVG along the timeline.

    Keyframe tracks become CSS @keyframes with matching delays and durations;
    animations stay paused until the play button starts them with the audio.
    svg_text must carry the element ids the timeline refers to.

    The style is one pass over KeyframeEvaluator.groups. Each distinct
    property track is one @keyframes kf_<n>, numbered in order of first use,
    and each group one rule whose selector lists [id="..."] for each of its
    ids (see _css_id). A group that starts hidden and has no track gets
    opacity 0.
    """
    keyframe_blocks = []
    group_rules = []
    uses_wheel = False
    # id of a property track -> its animation: "kf_<n> <timing>"
    animation_of: dict[int, str] = {}
    for element, members in KeyframeEvaluator(timeline).groups:
        selector = ", ".join(f'[id="{_css_id(eid)}"]' for eid in members)
        animations = []
        extra_style = ""
        for prop, seq in element.by_property.items():
            if id(seq) not in animation_of:
                body, timing = _css_track(prop, seq)
                name = f"kf_{len(animation_of)}"
                keyframe_blocks.append(f"@keyframes {name} {{\n{body}\n}}")
                animation_of[id(seq)] = f"{name} {timing}"
            animations.append(animation_of[id(seq)])
            if prop == "wheel_fraction":
                uses_wheel = True
                extra_style += (
                    " mask-image: conic-gradient(#000 var(--wheel), transparent 0deg);"
                )
        if animations:
            group_rules.append(
                f"{selector} {{ animation: {', '.join(animations)};"
                f" animation-play-state: paused;{extra_style} }}"
            )
        elif not element.initially_visible:
            group_rules.append(f"{selector} {{ opacity: 0; }}")
    playing_rule = "#stage.playing * { animation-play-state: running; }"
    wheel_property = (
        "@property --wheel { syntax: '<angle>'; inherits: false; initial-value: 0deg; }\n"
        if uses_wheel else ""
    )
    style = wheel_property + "\n".join(keyframe_blocks + group_rules + [playing_rule])
    return f"""<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>data video</title>
<style>
{style}
</style>
</head>
<body>
<button id="play">Play</button>
<div id="stage">
{svg_text}
</div>
<audio id="narration" src="{escape(audio_ref)}" preload="auto"></audio>
<script>
document.getElementById("play").addEventListener("click", function () {{
  document.getElementById("stage").classList.add("playing");
  document.getElementById("narration").play();
}});
</script>
</body>
</html>
"""
