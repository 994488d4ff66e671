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
import os
import re
import tempfile
import wave
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

from .binding import (
    NotSvg,
    Rendering,
    XmlParseError,
    escape,
    index_marks,
    parse_svg,
    quoteattr,
)
from .errors import AdapterError, PreconditionError
from .model import (
    DataTable,
    Violation,
    VisualizationSpec,
    dump_artifact,
    float_text,
    mark_type,
    spec_layers,
    stream_artifact,
    structure_violations,
    title_text,
)
from .timeline import (
    KeyframeEvaluator,
    Timeline,
    TimedWord,
    WordTimingsJson,
    validate_timings,
    value_at,  # noqa: F401  -- kept importable as datareel.adapters.value_at
    word_tokens,
)


class RendererRejectedSpec(AdapterError):
    def __init__(self, diagnostics: str):
        super().__init__(f"renderer rejected the spec: {diagnostics}")


class RendererCrashed(AdapterError):
    def __init__(self, exit_code: int, detail: str):
        super().__init__(f"renderer crashed (exit {exit_code})" + (f": {detail}" if detail else ""))


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
            try:
                if value in self._positions:
                    continue
                self._positions[value] = len(self.values)
            except TypeError:
                if self.position(value) is not None:
                    continue
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
    for v in values:
        if type(v) not in (str, int, bool, type(None)) and (type(v) is not float or v != v):
            return False
    return True


class _RowIndex:
    """The base rows an overlay datum matches, found by dict lookups.

    A row matches when it shares at least one key with the datum and is `==`
    to it on every shared key. Rows are grouped by their keys; per group and
    shared-key tuple, a table maps the rows' values on those keys to their
    indices. Values a dict cannot compare like `==` (see _dict_comparable)
    are compared one row at a time.
    """

    def __init__(self, rows: list[dict]):
        self._rows = rows
        self._groups: dict = {}
        for i, keys in enumerate(map(tuple, rows)):
            self._groups.setdefault(keys, []).append(i)
        self._tables: dict = {}
        self._plans: dict = {}  # datum key set -> per group: shared keys, getter, table

    def _plan(self, datum_keys: frozenset) -> list[tuple]:
        plan = []
        for keys, members in self._groups.items():
            shared = tuple([k for k in keys if k in datum_keys])
            if not shared:
                continue
            # itemgetter of one key returns the value, not a 1-tuple
            getter = itemgetter(*shared) if len(shared) > 1 else \
                (lambda datum, key=shared[0]: (datum[key],))
            if (keys, shared) not in self._tables:
                by_values, compared = self._tables[keys, shared] = {}, []
                for i in members:
                    values = getter(self._rows[i])
                    if _dict_comparable(values):
                        by_values.setdefault(values, []).append(i)
                    else:
                        compared.append(i)
            plan.append((shared, getter, members, *self._tables[keys, shared]))
        return plan

    def matches(self, datum: dict) -> list[int]:
        """Indices of the rows the datum matches, in no particular order."""
        datum_keys = frozenset(datum)
        if datum_keys not in self._plans:
            self._plans[datum_keys] = self._plan(datum_keys)
        out = []
        for shared, getter, members, by_values, compared in self._plans[datum_keys]:
            values = getter(datum)
            if _dict_comparable(values):
                out.extend(by_values.get(values, ()))
            else:
                compared = members
            if compared:
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
        problems = structure_violations(spec, "")
        if problems:
            raise RendererRejectedSpec("; ".join(v.message for v in problems))
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

        scales = (x_order, self._x_positions(x_order), y_lo, y_hi)
        parts.append('<g data-role="marks">')
        parts.extend(self._layer_elements(base_mark, base_enc, base_data, scales,
                                          legend, base_rows=None))
        parts.append("</g>")

        base_index = _RowIndex(base_data) if len(layers) > 1 else None
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
    def _x_positions(x_order: _Ordinal) -> list[float]:
        """The x position of each distinct x value, by its place in x_order."""
        count = len(x_order.values)
        if count <= 1:
            return [(_PLOT_LEFT + _PLOT_RIGHT) / 2] * count
        return [_PLOT_LEFT + idx * (_PLOT_RIGHT - _PLOT_LEFT) / (count - 1)
                for idx in range(count)]

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
        x_order, x_at, y_lo, y_hi = scales
        x_field = _enc_field(encoding, "x")
        y_field = _enc_field(encoding, "y")
        text_field = _enc_field(encoding, "text")
        series_field = _enc_field(encoding, "color") or _enc_field(encoding, "detail")
        series_order = _Ordinal([*legend, *self._series_values(data, series_field)])
        colors = [PALETTE[k % len(PALETTE)] for k in range(len(series_order.values))]
        # Per x position (None: mid-plot), the texts of x plus the mark's offsets.
        offsets = {"bar": (-10,), "tick": (-6, 6)}.get(mark, (0,))
        x_texts = {i: [_fmt(x + d) for d in offsets]
                   for i, x in [*enumerate(x_at), (None, (_PLOT_LEFT + _PLOT_RIGHT) / 2)]}
        series_attrs: dict[str, str] = {}  # str(series) -> its data-series attribute

        if mark == "line" or (mark in ("arc", "pie") and series_field):
            by_series: dict = {}
            for i, datum in enumerate(data):
                series = datum.get(series_field) if series_field else None
                key = None if series is None else series_order.position(series)
                by_series.setdefault(key, []).append(i)
            groups = list(by_series.values())
        else:
            groups = [[i] for i in range(len(data))]

        out = []
        for n, members in enumerate(groups):
            datum = data[members[0]]
            if base_rows is None:
                rows = members
            else:
                rows = sorted({m for i in members for m in base_rows.matches(data[i])})
            attrs = f' data-row="{";".join(map(str, rows))}"' if rows else ""
            series = datum.get(series_field) if series_field else None
            if series is not None:
                text = str(series)  # 1, 1.0 and True are one dict key but three texts
                if text not in series_attrs:
                    series_attrs[text] = f" data-series={quoteattr(text)}"
                attrs += series_attrs[text]
            if mark in ("arc", "pie"):
                color = PALETTE[n % len(PALETTE)]
            elif series is not None:
                color = colors[series_order.position(series)]
            else:
                color = PALETTE[0]

            if mark == "line":
                points = " L ".join(
                    f"{x_texts[x_order.position(data[i].get(x_field))][0]} "
                    f"{_fmt(self._y_pos(y_lo, y_hi, data[i].get(y_field)))}"
                    for i in members
                )
                out.append(f'<path{attrs} d="M {points}" fill="none" stroke="{color}" '
                           'stroke-width="2"/>')
                continue
            if mark in ("arc", "pie"):
                a0 = 2 * math.pi * n / len(groups)
                a1 = 2 * math.pi * (n + 1) / len(groups)
                x0, y0 = 320 + 120 * math.cos(a0), 180 + 120 * math.sin(a0)
                x1, y1 = 320 + 120 * math.cos(a1), 180 + 120 * math.sin(a1)
                out.append(f'<path{attrs} d="M 320 180 L {_fmt(x0)} {_fmt(y0)} '
                           f'A 120 120 0 0 1 {_fmt(x1)} {_fmt(y1)} Z" fill="{color}"/>')
                continue
            x = x_texts[x_order.position(datum.get(x_field))]
            y = self._y_pos(y_lo, y_hi, datum.get(y_field))
            if mark == "bar":
                out.append(f'<rect{attrs} x="{x[0]}" y="{_fmt(y)}" width="20" '
                           f'height="{_fmt(_PLOT_BOTTOM - y)}" fill="{color}"/>')
            elif mark == "text":
                label = str(datum.get(text_field, "")) if text_field else ""
                out.append(f'<text{attrs} x="{x[0]}" y="{_fmt(y - 8)}">{escape(label)}</text>')
            elif mark == "rule" and y_field is not None and x_field is None:
                out.append(f'<line{attrs} x1="{_fmt(_PLOT_LEFT)}" y1="{_fmt(y)}" '
                           f'x2="{_fmt(_PLOT_RIGHT)}" y2="{_fmt(y)}" stroke="#333"/>')
            elif mark == "rule":
                out.append(f'<line{attrs} x1="{x[0]}" y1="{_fmt(_PLOT_TOP)}" '
                           f'x2="{x[0]}" y2="{_fmt(_PLOT_BOTTOM)}" stroke="#333"/>')
            elif mark == "tick":
                out.append(f'<line{attrs} x1="{x[0]}" y1="{_fmt(y)}" '
                           f'x2="{x[1]}" y2="{_fmt(y)}" stroke="#333"/>')
            else:
                out.append(f'<circle{attrs} cx="{x[0]}" cy="{_fmt(y)}" r="4" fill="{color}"/>')
        return out


# The most stdout a tool command may write, and the tail of its stderr kept
# for its failure's message (see README, "Tool contracts").
MAX_TOOL_OUTPUT = 64 << 20
_STDERR_TAIL = 4096


def _run_tool(command: list[str], timeout: float, failure, stdin: bytes | None = None) -> bytes:
    """Run a tool command in a session of its own and return its stdout. A
    timeout, more than MAX_TOOL_OUTPUT bytes of stdout or a failure to start
    (exit -1) and a nonzero exit (negative for a signal) raise
    failure(exit_code, detail), detail the cause or stderr's tail."""
    # subprocess is imported here only: no mock run, validate or inspect starts a process.
    import signal
    import subprocess

    try:
        with subprocess.Popen(command, stdin=None if stdin is None else subprocess.PIPE,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              start_new_session=True) as process:
            try:
                stdout, stderr = _communicate(process, stdin, timeout, failure)
            except BaseException:  # a timeout, a flood or an interrupt kills the whole session
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
                raise
    except subprocess.TimeoutExpired:
        raise failure(-1, f"timed out after {timeout}s") from None
    except OSError as e:
        raise failure(-1, str(e)) from None
    if process.returncode != 0:
        raise failure(process.returncode, stderr.decode("utf-8", errors="replace").strip())
    return stdout


def _communicate(process, stdin: bytes | None, timeout: float, failure) -> tuple[bytes, bytes]:
    """process's stdout and its stderr's last _STDERR_TAIL bytes once it
    exits, stdin written to it. Raises subprocess.TimeoutExpired after
    timeout seconds, and failure(-1, ...) past MAX_TOOL_OUTPUT bytes of
    stdout; the caller kills the process."""
    import select
    import selectors
    import subprocess
    import time

    deadline = time.monotonic() + timeout
    stdout, stderr, pending = bytearray(), bytearray(), memoryview(stdin or b"")
    with selectors.DefaultSelector() as selector:
        selector.register(process.stdout, selectors.EVENT_READ, stdout)
        selector.register(process.stderr, selectors.EVENT_READ, stderr)
        if process.stdin:
            selector.register(process.stdin, selectors.EVENT_WRITE)
        while selector.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise subprocess.TimeoutExpired(process.args, timeout)
            for key, _ in selector.select(remaining):
                if key.data is None:  # stdin takes PIPE_BUF bytes without blocking
                    try:
                        pending = pending[os.write(key.fd, pending[:select.PIPE_BUF]):]
                    except BrokenPipeError:  # the tool stopped reading
                        pending = pending[:0]
                    done = not pending
                else:
                    chunk = os.read(key.fd, 1 << 16)
                    key.data.extend(chunk)
                    done = not chunk
                if done:
                    selector.unregister(key.fileobj)
                    key.fileobj.close()
            if len(stdout) > MAX_TOOL_OUTPUT:
                raise failure(-1, f"wrote more than {MAX_TOOL_OUTPUT} bytes to stdout")
            del stderr[:-_STDERR_TAIL]
    process.wait(max(deadline - time.monotonic(), 0))
    return bytes(stdout), bytes(stderr)


def _renderer_failure(exit_code: int, detail: str) -> AdapterError:
    """A positive exit rejects the spec; a signal, a timeout or a failure to start is a crash."""
    if exit_code > 0:
        return RendererRejectedSpec(detail or f"exit code {exit_code}")
    return RendererCrashed(exit_code, detail)


class CommandRenderer:
    """Runs an external renderer command: spec JSON on stdin, SVG on stdout."""

    timeout = 60.0

    def __init__(self, command: list[str]):
        self.command = list(command)

    def render(self, spec: dict) -> str:
        svg = _run_tool(self.command, self.timeout, _renderer_failure,
                        json.dumps(spec).encode("utf-8"))
        try:
            return svg.decode("utf-8")
        except UnicodeDecodeError as e:
            raise RendererCrashed(0, f"renderer emitted invalid SVG: {e}") from None


def read_rendering(svg_text: str, table: DataTable) -> Rendering:
    """Parse a renderer's SVG and index its marks against the table.

    Invalid SVG raises RendererCrashed; a mark with missing, malformed, or
    out-of-table data-row metadata raises binding.UnboundMark.
    """
    try:
        doc = parse_svg(svg_text)
    except (XmlParseError, NotSvg) as e:
        raise RendererCrashed(0, f"renderer emitted invalid SVG: {e}") from None
    return Rendering(svg=svg_text, doc=doc, index=index_marks(doc, table))


def render_visualization(spec: VisualizationSpec, renderer, table: DataTable) -> Rendering:
    """Render a spec and read the result against the table (see read_rendering)."""
    problems = structure_violations(spec.spec, "")
    if problems:
        raise PreconditionError("spec is structurally invalid: "
                                + "; ".join(v.message for v in problems))
    return read_rendering(renderer.render(spec.spec), table)


MOCK_SECONDS_PER_WORD = 0.3
MOCK_SAMPLE_RATE = 8000


def _write_silent_wav(path: str | Path, duration: float) -> None:
    frames = int(round(duration * MOCK_SAMPLE_RATE))
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(MOCK_SAMPLE_RATE)
        w.writeframes(b"\x00\x00" * frames)


def _timed_word(token: tuple[str, int, int], start: float, end: float) -> TimedWord:
    word, char_start, char_end = token
    return {"word": word, "start": start, "end": end,
            "char_start": char_start, "char_end": char_end}


class MockTts:
    """Fixed-rate speech: MOCK_SECONDS_PER_WORD per whitespace token,
    contiguous, with silent MOCK_SAMPLE_RATE audio."""

    def synthesize(self, narration: str, out_path: str | Path) -> WordTimingsJson:
        tokens = word_tokens(narration)
        spw = MOCK_SECONDS_PER_WORD
        words = [_timed_word(token, round(i * spw, 9), round((i + 1) * spw, 9))
                 for i, token in enumerate(tokens)]
        duration = round(len(tokens) * spw, 9)
        _write_silent_wav(out_path, duration)
        return {"duration": duration, "words": words, "advisories": []}


class CommandTts:
    """Runs an external TTS command.

    stdin: {"text": narration, "audio_path": requested output}
    stdout: {"audio_path": ..., "duration": seconds, "timings": [[word, start, end], ...]}
    When the tool returns no timings they are estimated by proportional
    character weighting over the reported duration, with an advisory.
    synthesize_speech holds the reply to timeline.validate_timings.
    """

    timeout = 120.0

    def __init__(self, command: list[str]):
        self.command = list(command)

    def synthesize(self, narration: str, out_path: str | Path) -> WordTimingsJson:
        tokens = word_tokens(narration)
        payload = json.dumps({"text": narration, "audio_path": str(out_path)}).encode("utf-8")
        stdout = _run_tool(self.command, self.timeout, lambda exit_code, detail: TtsFailure(
            f"TTS command failed: {detail or f'exit code {exit_code}'}"), payload)
        if not Path(out_path).is_file():
            raise TtsFailure(f"TTS command wrote no audio file at {out_path}")
        try:
            reply = json.loads(stdout.decode("utf-8"))
            reply["audio_path"]  # required, though the audio is read from out_path
            duration = float(reply["duration"])
            if not 0 < duration < math.inf:
                raise TtsFailure(f"TTS reported a duration of {duration} s")
            raw_timings = reply.get("timings") or []
            if raw_timings and len(raw_timings) != len(tokens):
                raise TtsFailure(
                    f"TTS returned {len(raw_timings)} timings for {len(tokens)} words"
                )
            words = [_timed_word(token, float(s), float(e))
                     for token, (_, s, e) in zip(tokens, raw_timings)]
        except (ValueError, KeyError, TypeError) as e:
            raise TtsFailure(f"malformed TTS reply: {e}") from None
        if raw_timings:
            return {"duration": duration, "words": words, "advisories": []}
        return {"duration": duration, "words": list(_estimate_timings(tokens, duration)),
                "advisories": [Violation(
                    "tts-timings-estimated", "",
                    "TTS returned no word timings; estimated by character weighting")._asdict()]}


def _estimate_timings(tokens: list[tuple[str, int, int]], duration: float):
    """Words spread over the duration by character weight; none ends past it."""
    weights = [len(word) + 1 for word, _, _ in tokens]
    total = sum(weights)
    elapsed = 0.0
    for token, weight in zip(tokens, weights):
        start = round(elapsed, 9)
        elapsed += duration * weight / total
        yield _timed_word(token, start, min(round(elapsed, 9), duration))


def synthesize_speech(narration: str, tts, out_path: str | Path) -> WordTimingsJson:
    """Synthesize narration into out_path; the word_timings.json payload,
    held to the word-timing contract (timeline.validate_timings)."""
    if not narration.strip():
        raise EmptyNarration("narration is empty")
    timings = tts.synthesize(narration, out_path)
    problems = validate_timings(narration, timings)
    if problems:
        raise TtsFailure("TTS output violates the timing contract: " + "; ".join(problems))
    return timings


MANIFEST_WRITE_BUFFER = 128 * 1024


class MockSynth:
    """Writes a frame-by-frame visibility manifest instead of rasterizing.

    The manifest holds round(duration * fps) frames. Frame i is at time i / fps
    (stored rounded to 6 decimals). Its "visible" lists the ids visible at that
    time, sorted by id. Its "opacity" maps only those visible ids whose opacity
    is not 1.0, each value rounded to 4 decimals after that comparison.

    Each frame's line is written from the evaluator's change points
    (KeyframeEvaluator.changes): only the positions of the groups that change
    at a frame are updated, each id's text is encoded once, and the
    "visible" and "opacity" texts are joined again only when a shown flag or
    an opacity entry changes. No list of frames or whole text is built. The
    text goes to a temporary file beside out_path, which replaces out_path
    only when the whole manifest is written, through a MANIFEST_WRITE_BUFFER
    buffer.
    """

    def __init__(self, fps: int = 30):
        self.fps = fps

    def synthesize(self, timeline: Timeline, svg_path: str | Path,
                   audio_path: str | Path, out_path: str | Path) -> str:
        frame_count = int(round(timeline.duration * self.fps))
        times = [f / self.fps for f in range(frame_count)]
        manifest = {
            "kind": "mock-video-manifest",
            "fps": self.fps,
            "duration": timeline.duration,
            "frame_count": frame_count,
            "svg": Path(svg_path).name,
            "audio": Path(audio_path).name,
            "frames": _frames(times, KeyframeEvaluator(timeline)),
        }
        out_path = Path(out_path)
        partial = out_path.with_name(out_path.name + ".partial")
        try:
            with partial.open("w", encoding="utf-8", buffering=MANIFEST_WRITE_BUFFER) as file:
                stream_artifact(manifest, file)
            partial.replace(out_path)
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
        return str(out_path)


_FRAME = '{"index":%d,"opacity":{%s},"time":%s,"visible":[%s]}'


def _frames(times, evaluator: KeyframeEvaluator):
    """The manifest's frame rows as their compact JSON text, one per time."""
    keys = [encode_basestring_ascii(eid) for eid in evaluator.ids]
    shown = [False] * len(keys)
    # Per position: '"id":opacity' while shown at an opacity other than 1.0.
    entries = [""] * len(keys)
    visible = opacity = ""
    for f, (t, changes) in enumerate(zip(times, evaluator.changes(times))):
        moved = faded = False
        for positions, _, (now_shown, alpha) in changes:
            first = positions[0]
            if now_shown != shown[first]:
                for k in positions:
                    shown[k] = now_shown
                moved = True
            value = ":" + float_text(round(alpha, 4)) if now_shown and alpha != 1.0 else ""
            if entries[first] != (value and keys[first] + value):
                for k in positions:
                    entries[k] = value and keys[k] + value
                faded = True
        if moved:
            visible = ",".join(compress(keys, shown))
        if faded:
            opacity = ",".join(filter(None, entries))
        yield _FRAME % (f, opacity, float_text(round(t, 6)), visible)


class CommandSynth:
    """Runs an external synthesizer: a temporary timeline.json, SVG and audio as arguments."""

    timeout = 600.0

    def __init__(self, command: list[str]):
        self.command = list(command)

    def synthesize(self, timeline: Timeline, svg_path: str | Path,
                   audio_path: str | Path, out_path: str | Path) -> str:
        with tempfile.TemporaryDirectory() as scratch:  # removed however the call ends
            timeline_path = Path(scratch, Path(out_path).with_suffix(".timeline.json").name)
            timeline_path.write_text(dump_artifact(timeline.to_json()), encoding="utf-8")
            cmd = self.command + [str(timeline_path), str(svg_path), str(audio_path), str(out_path)]
            _run_tool(cmd, self.timeout, lambda exit_code, detail: SynthFailure(
                f"synthesizer failed: {detail or f'exit code {exit_code}'}"))
        if not Path(out_path).is_file():
            raise SynthFailure(f"synthesizer wrote no file at {out_path}")
        return str(out_path)


def synthesize_video(timeline: Timeline, svg_path: str | Path, audio_path: str | Path,
                     synth, out_path: str | Path) -> str:
    """Produce the final video (or mock manifest) from the compiled timeline."""
    if timeline.duration <= 0:
        raise SynthFailure("timeline has zero duration")
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

    The style is one pass over KeyframeEvaluator.groups. Each property track
    of a group is one @keyframes kf_<n>, numbered in order, and each group one
    rule whose selector lists [id="..."] for each of its ids (see _css_id). A
    group that starts hidden and has no track gets opacity 0.
    """
    keyframe_blocks = []
    group_rules = []
    uses_wheel = False
    for element, members in KeyframeEvaluator(timeline).groups:
        selector = ", ".join(f'[id="{_css_id(eid)}"]' for eid in members)
        animations = []
        extra_style = ""
        for prop, seq in element.by_property.items():
            body, timing = _css_track(prop, seq)
            name = f"kf_{len(keyframe_blocks)}"
            keyframe_blocks.append(f"@keyframes {name} {{\n{body}\n}}")
            animations.append(f"{name} {timing}")
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
