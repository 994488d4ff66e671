"""Chat-completion backends, session bookkeeping, JSON extraction, and the repair loop.

Two backends ship here: a live HTTP adapter speaking the de-facto
chat-completion JSON shape, and a deterministic mock that replays a scripted
transcript. Live completions are cached on disk keyed by the endpoint and the
full request body (model name, message history, temperature) so repeated
runs are cheap and reproducible.
"""

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field
from itertools import accumulate, chain
from pathlib import Path

from .errors import AdapterError, ContractError, PreconditionError
from .model import PromptText, RepairReport, ValidationReport


class SchemaError(ContractError):
    def __init__(self, path: str, message: str):
        where = f"{path}: " if path else ""
        super().__init__(f"{where}{message}")
        self.path = path


class NoJsonFound(ContractError):
    pass


class MalformedJson(ContractError):
    def __init__(self, position: int):
        super().__init__(f"unparseable JSON starting at offset {position}")
        self.position = position


class RepairExhausted(ContractError):
    def __init__(self, report: RepairReport):
        last = report.violations_per_attempt[-1] if report.violations_per_attempt else []
        super().__init__(
            f"agent reply still invalid after {report.attempts} attempts: {'; '.join(last)}"
        )
        self.report = report
        self.last_violations = last


class BackendTimeout(AdapterError):
    pass


class BackendHTTPError(AdapterError):
    def __init__(self, status: int, detail: str = ""):
        super().__init__(f"backend returned HTTP {status}" + (f": {detail}" if detail else ""))
        self.status = status


class TranscriptExhausted(AdapterError):
    pass


class TranscriptMismatch(AdapterError):
    def __init__(self, expected: str, prompt: str):
        super().__init__(
            f"scripted reply expected prompt containing {expected!r}; got: {prompt[:120]!r}..."
        )


@dataclass(frozen=True)
class BackendConfig:
    """Configuration for the live chat-completion backend.

    Mock runs need none: they replay the transcripts named in the project config.
    """

    endpoint: str = ""
    model_name: str = "mock-model"
    temperature: float = 0.0
    timeout: float = 60.0
    api_key_env: str = ""
    max_retries: int = 2
    retry_delay: float = 0.5

    def __post_init__(self):
        if not self.endpoint or not self.api_key_env:
            raise PreconditionError("live backend requires endpoint and api_key_env")


def load_transcript(path: str | Path) -> list[dict]:
    """Load a scripted transcript: an ordered list of {match?, reply} objects."""
    with open(path, encoding="utf-8") as f:
        entries = json.load(f)
    if not isinstance(entries, list):
        raise PreconditionError(f"transcript {path} must be a JSON list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "reply" not in entry:
            raise PreconditionError(f"transcript {path} entry {i} must carry a 'reply'")
    return entries


class MockChatBackend:
    """Replays scripted replies in order, optionally asserting prompt content."""

    def __init__(self, script: list[dict]):
        self.script = list(script)
        self.calls = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "MockChatBackend":
        return cls(load_transcript(path))

    def send(self, messages: list[tuple[str, str]]) -> str:
        if self.calls >= len(self.script):
            raise TranscriptExhausted(
                f"transcript exhausted after {len(self.script)} scripted replies"
            )
        entry = self.script[self.calls]
        self.calls += 1
        match = entry.get("match")
        if match:
            prompt = messages[-1][1] if messages else ""
            if match not in prompt:
                raise TranscriptMismatch(match, prompt)
        return entry["reply"]


# The longest wait a Retry-After header can add between two attempts.
RETRY_AFTER_CAP_S = 60


def _retry_after(headers) -> int:
    """Seconds an integer Retry-After header asks for, at most RETRY_AFTER_CAP_S;
    0 when the header is absent or an HTTP date."""
    value = (headers.get("Retry-After") or "").strip()
    return min(int(value), RETRY_AFTER_CAP_S) if value.isascii() and value.isdecimal() else 0


class HttpChatBackend:
    """Adapter for an HTTP chat-completion endpoint with retries and a disk cache.

    A retry waits retry_delay seconds, or longer when a retryable response
    carries an integer Retry-After (honoured up to RETRY_AFTER_CAP_S).
    """

    RETRYABLE = frozenset({429, 500, 502, 503, 504})

    def __init__(self, config: BackendConfig, cache_dir: str | Path | None = None):
        self.config = config
        self.cache_dir = Path(cache_dir) if cache_dir else None

    def _cache_path(self, body: bytes) -> Path | None:
        """The cache file of one request: keyed by everything sent, the
        endpoint and the request body."""
        if self.cache_dir is None:
            return None
        key = hashlib.sha256(self.config.endpoint.encode("utf-8") + b"\n" + body).hexdigest()
        return self.cache_dir / f"{key}.json"

    def send(self, messages: list[tuple[str, str]]) -> str:
        body = json.dumps(
            {
                "model": self.config.model_name,
                "messages": [{"role": r, "content": c} for r, c in messages],
                "temperature": self.config.temperature,
            }
        ).encode("utf-8")
        cache_path = self._cache_path(body)
        if cache_path is not None and cache_path.exists():
            return json.loads(cache_path.read_text(encoding="utf-8"))["reply"]
        reply = self._request(body)
        if cache_path is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            tmp = cache_path.with_suffix(".tmp")
            tmp.write_text(json.dumps({"reply": reply}), encoding="utf-8")
            os.replace(tmp, cache_path)
        return reply

    def _request(self, body: bytes) -> str:
        # Imported here: urllib.request loads http.client, email and ssl,
        # which no mock run, validate or inspect needs.
        import urllib.error
        import urllib.request

        api_key = os.environ.get(self.config.api_key_env, "")
        if not api_key:
            raise PreconditionError(
                f"environment variable {self.config.api_key_env} is not set"
            )
        last_error: AdapterError | None = None
        delay = self.config.retry_delay
        for attempt in range(self.config.max_retries + 1):
            if attempt and delay:
                time.sleep(delay)
            delay = self.config.retry_delay
            request = urllib.request.Request(
                self.config.endpoint,
                data=body,
                method="POST",
                headers={
                    "Content-Type": "application/json",
                    "Authorization": f"Bearer {api_key}",
                },
            )
            try:
                with urllib.request.urlopen(request, timeout=self.config.timeout) as resp:
                    data = json.loads(resp.read().decode("utf-8"))
                return data["choices"][0]["message"]["content"]
            except urllib.error.HTTPError as e:
                last_error = BackendHTTPError(e.code, e.reason or "")
                if e.code not in self.RETRYABLE:
                    raise last_error from None
                delay = max(delay, _retry_after(e.headers))
            except TimeoutError:
                last_error = BackendTimeout(f"no response within {self.config.timeout}s")
            except urllib.error.URLError as e:
                if isinstance(e.reason, TimeoutError):
                    last_error = BackendTimeout(f"no response within {self.config.timeout}s")
                else:
                    last_error = BackendHTTPError(0, str(e.reason))
            except (KeyError, IndexError, ValueError) as e:
                raise BackendHTTPError(0, f"malformed completion response: {e}") from None
        raise last_error


@dataclass
class ChatSession:
    """Append-only message history bound to a single backend.

    Sessions are single-owner: one session per agent role per run.
    """

    backend: object
    messages: list[tuple[str, str]] = field(default_factory=list)

    def append(self, role: str, content: str) -> None:
        if role not in ("system", "user", "assistant"):
            raise ValueError(f"unknown role {role!r}")
        if self.messages and role != "system" and self.messages[-1][0] == role:
            raise ValueError(f"two consecutive {role!r} messages")
        self.messages.append((role, content))


def complete(session: ChatSession, user_message: str) -> str:
    """Send a user message on the session and return the assistant reply verbatim."""
    session.append("user", user_message)
    reply = session.backend.send(session.messages)
    session.append("assistant", reply)
    return reply


# A reply value nested deeper than this does not parse. The limit is fixed
# and well below the interpreter's recursion limit, so the C scanner never
# reaches that limit and a reply's result does not depend on the caller's stack.
MAX_REPLY_DEPTH = 200

_DECODER = json.JSONDecoder()
_OPENER = re.compile(r"[\[{]")
# A string of a reply, running to the end of the text when unterminated (a
# lone trailing backslash included). The loop is unrolled, so each character
# matches one way and a string never backtracks.
_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z)', re.S)
# One token of a reply read from a candidate on: a string, an opening bracket
# or a closing one.
_TOKEN = re.compile(_STRING.pattern + r"|([\[{])|([\]}])", re.S)
_NOT_STRUCTURE = bytes(b for b in range(256) if b not in b'[]{}"')
_NOT_BRACKET = bytes(b for b in range(256) if b not in b"[]{}")
_STEP = {ord("["): 1, ord("{"): 1, ord("]"): -1, ord("}"): -1}


def extract_json(raw: str):
    """Extract the first JSON object or array in a reply that parses.

    Tolerates Markdown code fences and leading/trailing prose: each `{` or `[`
    in turn is handed to the C JSON scanner, which honours string escapes, so
    braces inside strings never confuse it, and the first value that parses
    is returned. A value nested more than MAX_REPLY_DEPTH levels does not
    parse; its nesting is measured before the scanner sees it, once for all
    the candidates it holds. Raises NoJsonFound when the reply has no `{` or
    `[` at all, MalformedJson(position of the first one) when none of them
    parses.
    """
    if not raw or not raw.strip():
        raise NoJsonFound("reply is empty")
    starts = (m.start() for m in _OPENER.finditer(raw))
    first = next(starts, None)
    if first is None:
        raise NoJsonFound("reply contains no JSON object or array")
    fits = {first: True} if _plainly_shallow(raw, first) else {}
    for start in chain((first,), starts):
        if start not in fits:
            fits.update(_nesting(raw, start))
        if fits[start]:
            try:
                return _DECODER.raw_decode(raw, start)[0]
            except ValueError:
                pass
    raise MalformedJson(first)


def _plainly_shallow(raw: str, start: int) -> bool:
    """True when the value opened at start surely nests at most
    MAX_REPLY_DEPTH levels; False when this quick test cannot tell.

    Once escapes are dropped, if every string after start is free of
    brackets (each quote is next to its partner among the brackets and
    quotes), every bracket is structure. Otherwise one regex pass drops the
    strings, read as _TOKEN reads them, and every bracket left is structure.
    Their running depth up to the value's close is its nesting.
    """
    text = raw[start:].encode("utf-8", "surrogatepass")
    if b"\\" in text:
        text = text.replace(b"\\\\", b"").replace(b'\\"', b"")
    structure = text.translate(None, _NOT_STRUCTURE)
    if structure.count(b'"') != 2 * structure.count(b'""'):
        structure = _STRING.sub("", raw[start:]).encode("utf-8", "surrogatepass")
    brackets = structure.translate(None, _NOT_BRACKET)
    if max(accumulate(map(_STEP.__getitem__, brackets))) <= MAX_REPLY_DEPTH:
        return True
    depths = list(accumulate(map(_STEP.__getitem__, brackets)))
    end = depths.index(0) if 0 in depths else len(depths)
    return max(depths[:end]) <= MAX_REPLY_DEPTH


def _nesting(raw: str, start: int) -> dict[int, bool]:
    """Whether each bracket opened on the token stream from start nests at
    most MAX_REPLY_DEPTH levels, up to its closing bracket or the end of raw.

    One pass over the tokens; a stack holds [position, levels so far] of
    each open bracket, so an over-deep run is measured once, not once per
    bracket in it.
    """
    fits: dict[int, bool] = {}
    stack: list[list[int]] = []

    def close():
        position, levels = stack.pop()
        fits[position] = levels <= MAX_REPLY_DEPTH
        if stack and stack[-1][1] <= levels:
            stack[-1][1] = levels + 1

    for m in _TOKEN.finditer(raw, start):
        if m.lastindex == 1:
            stack.append([m.start(), 1])
        elif m.lastindex == 2 and stack:
            close()
    while stack:
        close()
    return fits


def _repair_message(violations: list[str]) -> str:
    lines = "\n".join(f"- {v}" for v in violations)
    return (
        "The previous reply violated the required output contract:\n"
        f"{lines}\n"
        "Reply again with the complete, corrected JSON object. Output only the JSON."
    )


def repair_loop(session: ChatSession, prompt: PromptText | str, parse, validate,
                max_attempts: int = 3) -> tuple[object, ValidationReport, RepairReport]:
    """Run a validate-and-retry loop around one prompt.

    parse turns the raw assistant text into a value; whatever it raises
    becomes the attempt's single violation. validate returns the value's
    ValidationReport; its violations reject the reply, its advisories do
    not. On rejection the violations are sent back verbatim and the backend
    gets another try, up to max_attempts completions. Returns (value,
    ValidationReport, RepairReport); raises RepairExhausted when every
    attempt fails.
    """
    if max_attempts < 1:
        raise PreconditionError("max_attempts must be at least 1")
    repair = RepairReport()
    message = prompt.text if isinstance(prompt, PromptText) else prompt
    for attempt in range(1, max_attempts + 1):
        raw = complete(session, message)
        repair.attempts = attempt
        try:
            value = parse(raw)
        except Exception as e:
            violations = [str(e)]
        else:
            report = validate(value)
            if report.passing:
                repair.violations_per_attempt.append([])
                repair.final_status = "ok"
                return value, report, repair
            violations = [str(v) for v in report.violations]
        repair.violations_per_attempt.append(violations)
        message = _repair_message(violations)
    repair.final_status = "exhausted"
    raise RepairExhausted(repair)
