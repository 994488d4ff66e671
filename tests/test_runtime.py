import json
import os
import random
import re
import subprocess
import sys
import threading
import time
import types
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from datareel import runtime
from datareel.errors import PreconditionError
from datareel.model import ValidationReport, Violation
from datareel.runtime import (
    BackendConfig,
    BackendHTTPError,
    ChatSession,
    HttpChatBackend,
    MalformedJson,
    MockChatBackend,
    NoJsonFound,
    RepairExhausted,
    TranscriptExhausted,
    TranscriptMismatch,
    complete,
    extract_json,
    repair_loop,
)
from helpers import reference_extract_json


class TestExtractJson:
    def test_prose_prefix(self):
        assert extract_json('Sure! {"a": 1}') == {"a": 1}

    def test_fenced_array_with_braces_in_strings(self):
        assert extract_json('```json\n[{"x": "b}r{ace"}]\n```') == [{"x": "b}r{ace"}]

    def test_no_json(self):
        with pytest.raises(NoJsonFound):
            extract_json("no json here")

    def test_empty(self):
        with pytest.raises(NoJsonFound):
            extract_json("   ")

    def test_malformed_reports_position(self):
        with pytest.raises(MalformedJson) as err:
            extract_json("text {never closes")
        assert err.value.position == 5

    def test_skips_incomplete_candidates(self):
        assert extract_json('{oops then {"good": true}') == {"good": True}

    def test_escaped_quotes_inside_strings(self):
        assert extract_json('{"s": "a \\" b [ { "}') == {"s": 'a " b [ { '}

    def test_first_complete_value_wins(self):
        assert extract_json('{"first": 1} {"second": 2}') == {"first": 1}

    def test_round_trip_randomized(self):
        rng = random.Random(99)

        def random_value(depth=0):
            kinds = ["int", "float", "str", "bool", "null"]
            if depth < 3:
                kinds += ["list", "dict", "dict"]
            kind = rng.choice(kinds)
            if kind == "int":
                return rng.randint(-10**6, 10**6)
            if kind == "float":
                return round(rng.uniform(-100, 100), 6)
            if kind == "str":
                return "".join(rng.choice('ab{}[]",\\ :') for _ in range(rng.randint(0, 12)))
            if kind == "bool":
                return rng.random() < 0.5
            if kind == "null":
                return None
            if kind == "list":
                return [random_value(depth + 1) for _ in range(rng.randint(0, 4))]
            return {f"k{i}": random_value(depth + 1) for i in range(rng.randint(0, 4))}

        for _ in range(200):
            value = random_value()
            if not isinstance(value, (dict, list)):
                value = {"wrapped": value}
            assert extract_json(json.dumps(value)) == value


_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10, 10**6),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(alphabet='ab{}[]",\\: \n', max_size=8)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(alphabet='k{"\\', max_size=3), inner, max_size=3),
    max_leaves=8,
)
_containers = _json_values.filter(lambda v: isinstance(v, (list, dict)))
_reply_pieces = st.one_of(
    st.sampled_from(["Sure!", "```json", "```", "\n", " ", "{", "[", "}", "]", '"',
                     '\\"', ",", ":", "NaN", "oops {never", 'text "quoted {"']),
    st.text(alphabet="abc {}[]\"\\:,\n", max_size=6),
    _containers.map(json.dumps),
    # a truncated value
    st.tuples(_containers.map(json.dumps), st.integers(0, 60)).map(lambda t: t[0][:t[1]]),
)


def _outcome(extract, raw):
    try:
        return "value", repr(extract(raw))
    except MalformedJson as e:
        return "MalformedJson", e.position
    except NoJsonFound:
        return "NoJsonFound", None


class TestExtractJsonEquivalence:
    @given(st.lists(_reply_pieces, max_size=8).map("".join))
    def test_equals_the_balanced_scan_reference(self, raw):
        assert _outcome(extract_json, raw) == _outcome(reference_extract_json, raw)

    @given(st.lists(_reply_pieces, max_size=8).map("".join))
    def test_depth_limit_equals_the_balanced_scan_reference(self, raw):
        # A limit of 2 levels puts the small generated replies on both sides of it.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runtime, "MAX_REPLY_DEPTH", 2)
            assert _outcome(extract_json, raw) == _outcome(reference_extract_json, raw)

    def test_unclosed_nesting_fails_fast(self):
        raw = "x " + '{"a": [' * 3000
        started = time.perf_counter()
        with pytest.raises(MalformedJson) as err:
            extract_json(raw)
        assert err.value.position == 2
        assert time.perf_counter() - started < 0.2

    def test_nesting_past_the_recursion_limit_does_not_parse(self):
        # The outer candidates nest too deep; the first one within the limit
        # is returned, not a RecursionError.
        value = extract_json("[" * 5000 + "]" * 5000)
        depth = 1
        while value != []:
            (value,) = value
            depth += 1
        assert depth == runtime.MAX_REPLY_DEPTH

    @pytest.mark.parametrize("text", ['"]"', r'"\"]\""', r'"\\", "]", "\\"'],
                             ids=["bracket", "escaped-quotes", "escaped-backslashes"])
    def test_brackets_inside_strings_do_not_hide_nesting(self, text):
        value = extract_json(f"[{text}, " * 300 + "[]" + "]" * 300)
        depth = 1
        while value != []:
            value = value[-1]
            depth += 1
        assert depth == runtime.MAX_REPLY_DEPTH

    def test_brackets_in_later_strings_skip_the_token_pass(self, monkeypatch):
        rows = [{"store": f"Store [{i}]", "sales": i} for i in range(50)]
        raw = "Here it is:\n```json\n" + json.dumps(
            {"title": "Sales [2024]", "rows": rows, "note": "a \\\" ] { quote"}) + "\n```"

        def forbidden(raw, start):
            raise AssertionError("the token pass ran")

        monkeypatch.setattr(runtime, "_nesting", forbidden)
        assert extract_json(raw) == json.loads(raw[raw.index("{"):raw.rindex("}") + 1])

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="possessive quantifiers need 3.11")
    @given(st.text(alphabet='ab"\\[]{}\n', max_size=16))
    def test_tokens_equal_the_possessive_pattern(self, text):
        # The token pattern once used possessive quantifiers, which need 3.11.
        possessive = re.compile(r'"(?:[^"\\]++|\\.?)*+(?:"|\Z)|([\[{])|([\]}])', re.S)
        assert ([(m.span(), m.lastindex) for m in runtime._TOKEN.finditer(text)]
                == [(m.span(), m.lastindex) for m in possessive.finditer(text)])

    @pytest.mark.parametrize("raw", [
        "[" * 5000 + "]" * 5000,
        "x " + '{"a": [' * 3000,
        '{"a": ' * 700 + "1" + "}" * 700,
        '["]", ' * 400 + "[]" + "]" * 400,
    ], ids=["closed-arrays", "unclosed-objects", "closed-objects", "brackets-in-strings"])
    def test_result_does_not_depend_on_the_callers_stack(self, raw):
        def nested(frames):
            return _outcome(extract_json, raw) if frames == 0 else nested(frames - 1)

        assert nested(300) == _outcome(extract_json, raw)


class TestMockBackend:
    def test_scripted_reply(self):
        backend = MockChatBackend([{"reply": "hi"}])
        session = ChatSession(backend=backend)
        assert complete(session, "anything") == "hi"
        assert session.messages == [("user", "anything"), ("assistant", "hi")]

    def test_exhausted(self):
        backend = MockChatBackend([])
        session = ChatSession(backend=backend)
        with pytest.raises(TranscriptExhausted):
            complete(session, "anything")

    def test_match_assertion(self):
        backend = MockChatBackend([{"match": "magic token", "reply": "ok"}])
        session = ChatSession(backend=backend)
        with pytest.raises(TranscriptMismatch):
            complete(session, "no such thing")

    def test_session_rejects_consecutive_same_role(self):
        session = ChatSession(backend=MockChatBackend([]))
        session.append("user", "one")
        with pytest.raises(ValueError):
            session.append("user", "two")


class TestBackendConfig:
    def test_live_requires_endpoint_and_key(self):
        with pytest.raises(PreconditionError):
            BackendConfig(endpoint="", api_key_env="")


class _StubHandler(BaseHTTPRequestHandler):
    status_plan: list[int] = []
    retry_after: str | None = None  # sent with every error response when set
    calls = 0

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        cls = type(self)
        status = cls.status_plan[min(cls.calls, len(cls.status_plan) - 1)]
        cls.calls += 1
        if status == 200:
            body = json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": "stub reply"}}]}
            ).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_response(status)
            if cls.retry_after is not None:
                self.send_header("Retry-After", cls.retry_after)
            self.send_header("Content-Length", "0")
            self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    _StubHandler.calls = 0
    _StubHandler.retry_after = None
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat"
    server.shutdown()


def _live_config(endpoint, retries=2, temperature=0.0, retry_delay=0.0):
    return BackendConfig(
        endpoint=endpoint, api_key_env="DATAREEL_TEST_KEY", model_name="stub-model",
        temperature=temperature, max_retries=retries, retry_delay=retry_delay, timeout=5.0,
    )


class TestHttpBackend:
    def test_rate_limited_after_retries(self, stub_server, monkeypatch):
        monkeypatch.setenv("DATAREEL_TEST_KEY", "k")
        backend = HttpChatBackend(_live_config(stub_server, retries=2))
        _StubHandler.status_plan = [429]
        with pytest.raises(BackendHTTPError) as err:
            backend.send([("user", "hello")])
        assert err.value.status == 429
        assert _StubHandler.calls == 3  # initial try + 2 retries

    def test_retry_then_success(self, stub_server, monkeypatch):
        monkeypatch.setenv("DATAREEL_TEST_KEY", "k")
        backend = HttpChatBackend(_live_config(stub_server, retries=2))
        _StubHandler.status_plan = [429, 200]
        assert backend.send([("user", "hello")]) == "stub reply"

    @pytest.mark.parametrize("retry_after, retry_delay, waits", [
        (None, 0.5, [0.5, 0.5]),
        ("3", 0.5, [3, 3]),
        (" 2 ", 5.0, [5.0, 5.0]),
        ("7200", 0.5, [60, 60]),
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.5, [0.5, 0.5]),
        ("-1", 0.0, []),
    ], ids=["absent", "seconds", "below-delay", "capped", "http-date", "negative"])
    def test_retry_after_stretches_the_wait(self, stub_server, monkeypatch,
                                            retry_after, retry_delay, waits):
        monkeypatch.setenv("DATAREEL_TEST_KEY", "k")
        sleeps = []
        monkeypatch.setattr(runtime, "time", types.SimpleNamespace(sleep=sleeps.append))
        backend = HttpChatBackend(_live_config(stub_server, retries=2, retry_delay=retry_delay))
        _StubHandler.status_plan = [503, 429, 200]
        _StubHandler.retry_after = retry_after
        assert backend.send([("user", "hello")]) == "stub reply"
        assert sleeps == waits

    def test_non_retryable_raises_immediately(self, stub_server, monkeypatch):
        monkeypatch.setenv("DATAREEL_TEST_KEY", "k")
        backend = HttpChatBackend(_live_config(stub_server, retries=3))
        _StubHandler.status_plan = [404]
        with pytest.raises(BackendHTTPError) as err:
            backend.send([("user", "hello")])
        assert err.value.status == 404
        assert _StubHandler.calls == 1

    def test_missing_key_env(self, stub_server, monkeypatch):
        monkeypatch.delenv("DATAREEL_TEST_KEY", raising=False)
        backend = HttpChatBackend(_live_config(stub_server))
        with pytest.raises(PreconditionError):
            backend.send([("user", "hello")])

    def test_disk_cache_write_once(self, stub_server, monkeypatch, tmp_path):
        monkeypatch.setenv("DATAREEL_TEST_KEY", "k")
        backend = HttpChatBackend(_live_config(stub_server), cache_dir=tmp_path / "cache")
        _StubHandler.status_plan = [200]
        assert backend.send([("user", "hello")]) == "stub reply"
        assert _StubHandler.calls == 1
        assert backend.send([("user", "hello")]) == "stub reply"
        assert _StubHandler.calls == 1  # served from cache
        assert backend.send([("user", "different")]) == "stub reply"
        assert _StubHandler.calls == 2


    def test_disk_cache_is_keyed_by_the_whole_request(self, stub_server, monkeypatch, tmp_path):
        monkeypatch.setenv("DATAREEL_TEST_KEY", "k")
        _StubHandler.status_plan = [200]
        cache = tmp_path / "cache"
        for temperature in (0.0, 0.7, 0.7):
            backend = HttpChatBackend(_live_config(stub_server, temperature=temperature),
                                      cache_dir=cache)
            assert backend.send([("user", "hello")]) == "stub reply"
        assert _StubHandler.calls == 2
        other_endpoint = stub_server.replace("/v1/chat", "/v2/chat")
        HttpChatBackend(_live_config(other_endpoint), cache_dir=cache).send([("user", "hello")])
        assert _StubHandler.calls == 3

def _needs_key(value) -> ValidationReport:
    if "needed" in value:
        return ValidationReport(advisories=(Violation("note", "", "accepted"),))
    return ValidationReport(violations=(Violation("missing", "needed", "missing key"),))


def _loop(session, max_attempts):
    return repair_loop(session, "please reply", extract_json, _needs_key, max_attempts)


class TestRepairLoop:
    def test_invalid_then_valid(self):
        backend = MockChatBackend([
            {"reply": '{"wrong": 1}'},
            {"reply": '{"needed": 1}'},
        ])
        session = ChatSession(backend=backend)
        value, report, repair = _loop(session, max_attempts=2)
        assert value == {"needed": 1}
        assert report.passing and [a.code for a in report.advisories] == ["note"]
        assert repair.attempts == 2
        assert repair.final_status == "ok"
        assert repair.violations_per_attempt == [["[missing] at needed: missing key"], []]

    def test_parse_error_becomes_the_attempts_violation(self):
        backend = MockChatBackend([{"reply": "no json here"}, {"reply": '{"needed": 1}'}])
        session = ChatSession(backend=backend)
        value, _, repair = _loop(session, max_attempts=2)
        assert value == {"needed": 1}
        assert repair.violations_per_attempt == [
            ["reply contains no JSON object or array"], [],
        ]

    def test_valid_first_try(self):
        backend = MockChatBackend([{"reply": '{"needed": 1}'}])
        session = ChatSession(backend=backend)
        _, _, repair = _loop(session, max_attempts=3)
        assert repair.attempts == 1
        assert repair.violations_per_attempt == [[]]
        assert len(session.messages) == 2

    def test_exhausted_collects_all_violation_lists(self):
        backend = MockChatBackend([{"reply": '{"a": 1}'}, {"reply": "{"}])
        session = ChatSession(backend=backend)
        with pytest.raises(RepairExhausted) as err:
            _loop(session, max_attempts=2)
        assert err.value.report.attempts == 2
        assert err.value.report.violations_per_attempt == [
            ["[missing] at needed: missing key"], ["unparseable JSON starting at offset 0"],
        ]
        assert err.value.report.final_status == "exhausted"
        assert err.value.last_violations == ["unparseable JSON starting at offset 0"]

    def test_never_exceeds_max_attempts_and_history_grows_2n(self):
        script = [{"reply": '{"x": 1}'} for _ in range(10)]
        backend = MockChatBackend(script)
        session = ChatSession(backend=backend)
        with pytest.raises(RepairExhausted):
            _loop(session, max_attempts=4)
        assert backend.calls == 4
        assert len(session.messages) == 8

    def test_repair_message_quotes_violations(self):
        backend = MockChatBackend([{"reply": '{"a": 1}'}, {"reply": '{"needed": 1}'}])
        session = ChatSession(backend=backend)
        _loop(session, max_attempts=2)
        follow_up = session.messages[2][1]
        assert "- [missing] at needed: missing key" in follow_up
        assert "corrected JSON" in follow_up

    def test_zero_attempts_rejected(self):
        backend = MockChatBackend([{"reply": '{"needed": 1}'}])
        for max_attempts in (0, -1):
            with pytest.raises(PreconditionError):
                _loop(ChatSession(backend=backend), max_attempts=max_attempts)
        assert backend.calls == 0


HTTP_AND_SAX_MODULES = ("urllib.request", "urllib.error", "http.client", "email", "ssl",
                        "xml.sax", "xml.sax.saxutils")


def _loaded_modules(*imports: str) -> set:
    """sys.modules of a fresh interpreter after the given imports."""
    code = "".join(f"import {name}\n" for name in imports) + (
        "import json, sys\nprint(json.dumps(sorted(sys.modules)))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": pythonpath}, timeout=120)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))


def test_importing_the_cli_loads_no_http_stack_or_sax():
    # Compared with a bare interpreter, whose .pth files may load some of these.
    added = _loaded_modules("datareel.cli") - _loaded_modules()
    assert not added & set(HTTP_AND_SAX_MODULES)
    # argparse, not click; subprocess only once a command adapter runs
    assert not added & {"click", "subprocess"}


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # Each dataclass compiles and runs generated source at import, and the
    # dataclasses module loads inspect, ast, dis and tokenize.
    added = _loaded_modules("datareel.cli") - _loaded_modules()
    assert not added & {"dataclasses", "inspect"}
