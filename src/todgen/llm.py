"""Pluggable chat-completion backends.

Two backends share one interface: an HTTP client speaking the common
chat-completions wire shape, and a deterministic mock that is a pure function
of (request, seed). The mock reads the structured ``metadata`` attached to a
request by pipeline stages; the HTTP backend ignores metadata entirely and
sends only the rendered prompt messages.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import ipaddress
import json
import os
import random
import re
import select
import socket
import ssl
import time
import urllib.parse
import urllib.request
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional, TypeVar

from .runner import waiting
from .values import (
    FIRST_NAMES,
    JOB_LEVELS,
    PLACES,
    parse_display_date,
    sample_value,
)

if TYPE_CHECKING:
    from .config import PipelineConfig

# keep in step with the version in pyproject.toml
__version__ = "0.1.0"

# sent explicitly: some API gateways reject urllib's default "Python-urllib/3.x"
USER_AGENT = f"todgen/{__version__}"

__all__ = [
    "CompletionRequest",
    "RetryPolicy",
    "BackendConfig",
    "Backend",
    "MockBackend",
    "HttpBackend",
    "BackendError",
    "AuthError",
    "BackendTimeout",
    "RetryExhaustedError",
    "ContentError",
    "parse_json_object",
    "complete_validated",
    "make_backend",
    "missing_key",
]


class BackendError(RuntimeError):
    pass


class AuthError(BackendError):
    pass


class BackendTimeout(BackendError):
    pass


class RetryExhaustedError(BackendError):
    def __init__(self, message: str, attempts: int):
        self.attempts = attempts
        super().__init__(f"{message} (after {attempts} attempts)")


@dataclass(frozen=True)
class CompletionRequest:
    messages: tuple[tuple[str, str], ...]
    temperature: float
    max_tokens: int
    tag: str = ""
    # structured hints for the mock backend; never sent over the wire
    metadata: Optional[dict] = None

    def __post_init__(self):
        if not self.messages:
            raise ValueError("messages must be nonempty")


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    backoff: float = 0.1

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be at least 1, got {self.max_attempts}")
        if not self.backoff >= 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")


@dataclass(frozen=True)
class BackendConfig:
    """One backend, checked when it is built, from YAML or in code: a config
    that could only fail at its first completion, or whose failure would be
    retried as if it were transient, is rejected here."""

    kind: str = "mock"  # "mock" or "http"
    endpoint: str = ""
    model: str = ""
    auth_env: str = "TODGEN_API_KEY"
    timeout: float = 30.0
    retry: RetryPolicy = RetryPolicy()

    def __post_init__(self):
        if self.kind not in ("mock", "http"):
            raise ValueError(f"kind must be 'mock' or 'http', got {self.kind!r}")
        if self.kind == "http":
            if not self.endpoint:
                raise ValueError("http backend requires an endpoint")
            try:
                url = urllib.parse.urlsplit(self.endpoint)
                ok = url.scheme in ("http", "https") and bool(url.hostname)
            except ValueError:
                ok = False
            if not ok:
                raise ValueError(
                    "endpoint must be an absolute http:// or https:// URL "
                    f"with a host, got {self.endpoint!r}")
        # what http.client refuses in a request target or a Host
        if re.search(r"[\x00-\x20\x7f]", self.endpoint):
            raise ValueError("endpoint holds a space or a control character")
        if not self.timeout > 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")


class Backend:
    """A chat-completion backend; subclasses supply ``_complete``."""

    def complete(self, req: CompletionRequest) -> str:
        return self._complete(req)

    def _complete(self, req: CompletionRequest) -> str:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend keeps open between completions; nothing
        unless a subclass keeps something."""


def _is_loopback(host: str) -> bool:
    """Whether ``host`` names the local machine: ``localhost`` or a
    loopback address. Other names are not resolved to find out."""
    if host.rstrip(".").lower() == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


# redirect statuses; _read_answer returns them as they are and follows none
_REDIRECTS = (301, 302, 303, 307, 308)
RETRY_AFTER_CAP = 60.0  # seconds: the longest wait a Retry-After sets


class HttpBackend(Backend):
    """Chat-completions HTTP client with bounded retry on transient failures
    (connection errors, timeouts, 429 and 5xx).

    ``http.client`` only opens connections (TCP, TLS, the ``CONNECT``
    tunnel). A request goes out in one ``sendall`` of the bytes
    ``http.client`` would send, and :func:`_read_answer` reads its answer
    under ``http.client``'s bounds, framings and keep-alive rule.

    Idle keep-alive connections are pooled. A request takes the most
    recently used idle connection or opens a new one, so the backend never
    holds more connections than it has had requests in flight at once (at
    most ``max_concurrency`` in a stage). A connection goes back to the pool
    only after its whole answer was read and the server did not ask to close
    it. One whose attempt raised, timed out, broke or got a malformed answer
    is closed, so a late answer is never read as the next request's.
    An idle connection whose socket is readable, which means the server
    closed it or sent bytes nobody asked for, is closed before a send, and
    the request goes out on another connection; that costs no attempt. A
    request that fails on a reused connection after it was sent is one
    failed attempt of the :class:`RetryPolicy`, like a failure on a new
    connection, so every resend is counted. :meth:`close` closes the idle
    connections.

    ``http.client`` sets ``TCP_NODELAY`` on each new connection. After each
    request is sent, ``TCP_QUICKACK`` is set where the platform has it (the
    option does not stay on): a server that writes its headers and its body
    in two sends without ``TCP_NODELAY`` holds the body until the client
    acknowledges the headers, which a delayed ACK would put off by some
    40 ms on a reused connection.

    The route is worked out once, when the backend is built: proxies come from
    the environment (``http_proxy``, ``https_proxy``, ``no_proxy``) as
    ``urllib.request`` reads them, and an https endpoint behind a proxy is
    reached through a ``CONNECT`` tunnel. HTTPS verifies against the system
    CA store. Redirects are refused: a 301, 302, 303, 307 or 308 answer
    raises :class:`BackendError` naming its ``Location`` and is not retried.

    Backoff ``k`` of a retry waits ``backoff * k`` seconds times a factor
    drawn uniformly between 0.5 and 1.5, so retries of dialogs that failed
    together spread out while the mean wait stays the same; a ``Retry-After``
    in seconds is waited exactly, up to ``RETRY_AFTER_CAP`` (60) seconds. The
    factor comes from the backend's own ``random.Random``, never from the
    pipeline's RNG.

    The request is built and sent with the dialog's turn held (see
    :mod:`todgen.runner`), so it is on the wire before another dialog runs.
    The turn is given up while the request awaits its answer, body
    included, during every connect (TLS and tunnel included) and during a
    retry backoff. A request on a reused connection makes no connect, so
    with keep-alive a connect is rare.
    """

    def __init__(self, config: BackendConfig):
        self.config = config
        # idle connections, most recently used last; a deque's append and pop
        # are atomic, so threads outside run_dialogs may share the backend
        self._idle: deque[http.client.HTTPConnection] = deque()
        self._jitter = random.Random()
        url = urllib.parse.urlsplit(config.endpoint)
        https = url.scheme == "https"
        target = urllib.parse.urlunsplit(("", "", url.path or "/", url.query, ""))
        host = _host(url.netloc, 443 if https else 80)
        fields = f"Content-Type: application/json\r\nUser-Agent: {USER_AGENT}\r\n"
        self._tunnel: Optional[dict] = None  # set_tunnel's arguments
        via = _proxy(url)
        if via is None:
            peer, tls = url.netloc, https
        else:
            peer = via.netloc.rpartition("@")[2]
            auth = {}
            if via.username and via.password:
                creds = urllib.parse.unquote(f"{via.username}:{via.password}")
                auth["Proxy-Authorization"] = "Basic " + base64.b64encode(
                    creds.encode()).decode("ascii")
            if https:  # TLS to the endpoint, through a CONNECT to the proxy
                tls = True
                self._tunnel = {"host": url.netloc, "headers": auth}
            else:  # the absolute form, with the endpoint's netloc as Host
                tls = via.scheme == "https"
                target, host = config.endpoint, _host(url.netloc, None)
                fields += "".join(f"{k}: {v}\r\n" for k, v in auth.items())
        # the head http.client would send, cut at the Content-Length value
        self._head = (f"POST {target} HTTP/1.1\r\nHost: {host}\r\n"
                      "Accept-Encoding: identity\r\nContent-Length: "
                      ).encode("ascii")
        self._tail = fields.encode("latin-1")  # the fields after that value
        # one TLS context for every request; loading the CA store costs tens
        # of milliseconds, so a route without TLS does without it
        if tls:
            self._connection = partial(http.client.HTTPSConnection, peer,
                                       context=ssl.create_default_context())
        else:
            self._connection = partial(http.client.HTTPConnection, peer)

    def _complete(self, req: CompletionRequest) -> str:
        token = os.environ.get(self.config.auth_env, "")
        if "\r" in token or "\n" in token:
            raise ValueError(f"${self.config.auth_env} holds a line break")
        auth = f"Authorization: Bearer {token}\r\n" if token else ""
        data = json.dumps({
            "model": self.config.model,
            "messages": [{"role": r, "content": c} for r, c in req.messages],
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        }).encode("utf-8")
        message = b"".join((self._head, b"%d\r\n" % len(data), self._tail,
                            auth.encode("latin-1"), b"\r\n", data))
        policy = self.config.retry
        last_error: Optional[Exception] = None
        for attempt in range(1, policy.max_attempts + 1):
            retry_after = None  # the Retry-After header of a 429
            try:
                status, answer_headers, body = self._send(message)
            except BackendError as e:
                last_error = e
            else:
                if status in (401, 403):
                    raise AuthError(f"authentication failed ({status})")
                if status == 429:
                    last_error = BackendError("rate limited (429)")
                    retry_after = answer_headers.get("retry-after")
                elif status >= 500:
                    last_error = BackendError(f"server error {status}")
                elif status in _REDIRECTS:
                    raise BackendError(
                        f"redirect refused: status {status} to "
                        f"{answer_headers.get('location')}")
                elif status != 200:
                    raise BackendError(f"unexpected status {status}")
                else:
                    try:
                        obj = json.loads(body)
                        content = obj["choices"][0]["message"]["content"]
                    except (ValueError, TypeError, KeyError, IndexError,
                            RecursionError) as e:
                        raise BackendError(f"malformed response body: {e}") from e
                    if not isinstance(content, str):
                        raise BackendError(
                            "malformed response body: content is "
                            f"{type(content).__name__}, not a string")
                    return content
            if attempt < policy.max_attempts:
                delay = _retry_after(retry_after, policy.backoff * attempt
                                     * self._jitter.uniform(0.5, 1.5))
                with waiting():
                    time.sleep(delay)
        raise RetryExhaustedError(str(last_error), policy.max_attempts)

    def close(self) -> None:
        """Close the idle connections, with no request in flight. The backend
        stays usable: a later request opens a new connection."""
        while self._idle:
            self._idle.pop().close()

    def _idle_connection(self) -> Optional[http.client.HTTPConnection]:
        """The most recently used idle connection the server has not closed,
        or None. Idle connections found readable are closed on the way."""
        while True:
            try:
                conn = self._idle.pop()
            except IndexError:
                return None
            if not _readable(conn.sock):
                return conn
            conn.close()

    def _send(self, message: bytes) -> tuple[int, dict[str, str], bytes]:
        """One attempt, on an idle connection or a new one: the status, the
        fields by lower-cased name and the whole body. A transport failure or
        a bad answer raises :class:`BackendTimeout` or :class:`BackendError`."""
        conn = self._idle_connection()
        if conn is None:
            conn = self._connection(timeout=self.config.timeout)
            if self._tunnel:
                conn.set_tunnel(**self._tunnel)
        reusable = False
        try:
            if conn.sock is None:  # a new connection
                with waiting():
                    conn.connect()
            conn.sock.sendall(message)
            if _QUICKACK is not None:
                conn.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
            with waiting(), conn.sock.makefile("rb") as fp:
                status, fields, body, reusable = _read_answer(fp)
            return status, fields, body
        except (OSError, http.client.HTTPException) as e:  # connect included
            if isinstance(e, TimeoutError):
                raise BackendTimeout(
                    f"timed out after {self.config.timeout:g} s") from e
            raise BackendError(f"{type(e).__name__}: {e}") from e
        finally:
            if reusable:
                self._idle.append(conn)
            else:
                conn.close()


def _proxy(url) -> Optional[urllib.parse.SplitResult]:
    """The proxy the environment names for the split URL ``url``, or None."""
    proxy = urllib.request.getproxies().get(url.scheme)
    if not proxy or urllib.request.proxy_bypass(url.netloc):
        return None
    if "://" not in proxy:  # a bare host:port: the endpoint's scheme
        proxy = f"{url.scheme}://{proxy}"
    via = urllib.parse.urlsplit(proxy)
    if via.scheme not in ("http", "https") or not via.hostname:
        raise ValueError(f"the {url.scheme} proxy must be an http:// "
                         "or https:// URL with a host")
    return via


def missing_key(config: BackendConfig) -> bool:
    """Whether ``config`` is an http backend whose ``auth_env`` is unset or
    empty and whose endpoint or proxy is not a loopback address."""
    if config.kind != "http" or os.environ.get(config.auth_env):
        return False
    url = urllib.parse.urlsplit(config.endpoint)
    via = _proxy(url)
    return not all(_is_loopback(h) for h in
                   [url.hostname] + ([via.hostname] if via else []))


def _host(netloc: str, default_port: Optional[int]) -> str:
    """The ``Host`` that ``http.client`` sends to ``netloc``: IDNA for a
    non-ASCII name, and no port where it is ``default_port`` (if given)."""
    if default_port is not None:
        name, colon, port = netloc.rpartition(":")
        if colon and "]" not in port:  # a port, not a colon of an IPv6 literal
            number = int(port) if port else default_port
            netloc = name if number == default_port else f"{name}:{number}"
    return netloc if netloc.isascii() else netloc.encode("idna").decode("ascii")


# http.client's bounds on the head of an answer
_MAX_LINE = 65536
_MAX_FIELDS = 100  # the blank line that ends them counts
_STATUS_LINE = re.compile(rb"HTTP/1\.(\d+) ([1-9]\d\d)(?:\s|\Z)")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]+")
_PIECE = 65536  # the most of a body read at once


def _read_answer(fp) -> tuple[int, dict[str, str], bytes, bool]:
    """The status, the fields by lower-cased name (the first of a repeated
    name wins), the body and whether the connection may be reused, of one
    answer read from ``fp`` as ``http.client`` reads it. Anything malformed,
    a body cut short included, raises :class:`BackendError`."""
    status = 100
    while status < 200:  # interim 1xx answers are skipped
        line = _line(fp)
        match = _STATUS_LINE.match(line)
        if not match:
            raise BackendError(f"bad status line {line[:80]!r}" if line else
                               "connection closed before an answer")
        status = int(match[2])
        fields = _fields(fp)
    connection = fields.get("connection", "").lower()
    if match[1] == b"0":  # HTTP/1.0 closes unless asked to keep alive
        reusable = bool(fields.get("keep-alive")) or "keep-alive" in connection
    else:
        reusable = "close" not in connection
    length = fields.get("content-length")
    if status in (204, 304):
        body = b""
    elif fields.get("transfer-encoding", "").lower() == "chunked":
        body = _read_chunked(fp)  # chunked wins over Content-Length
    elif length:
        if not (length.isascii() and length.isdigit()):
            raise BackendError(f"bad Content-Length {length[:80]!r}")
        body = _read_exactly(fp, int(length))
    else:  # the body runs to the end of the connection
        body, reusable = fp.read(), False
    return status, fields, body, reusable


def _line(fp) -> bytes:
    line = fp.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise BackendError(f"answer line longer than {_MAX_LINE} bytes")
    return line


def _fields(fp) -> dict[str, str]:
    """Header or trailer fields up to a blank line, by lower-cased name."""
    fields: dict[str, str] = {}
    for _ in range(_MAX_FIELDS):
        line = _line(fp)
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise BackendError(f"bad header line {line[:80]!r}")
        fields.setdefault(name.lower(), value.strip())
    raise BackendError(f"more than {_MAX_FIELDS} lines in an answer's head")


def _read_chunked(fp) -> bytes:
    """A chunked body, its chunk extensions and trailers dropped."""
    chunks = []
    while True:
        size = _line(fp).partition(b";")[0].strip()
        if not _CHUNK_SIZE.fullmatch(size):
            raise BackendError(f"bad chunk size {size[:80]!r}")
        n = int(size, 16)
        if not n:
            _fields(fp)  # the trailers
            return b"".join(chunks)
        chunk = _read_exactly(fp, n + 2)
        if chunk[n:] != b"\r\n":
            raise BackendError("chunk not ended by CRLF")
        chunks.append(chunk[:n])


def _read_exactly(fp, n: int) -> bytes:
    """``n`` bytes of a body, read in pieces of at most 64 KiB, so that
    memory grows only as bytes arrive, whatever length the answer claims.
    An end of file before ``n`` bytes raises :class:`BackendError`."""
    pieces, left = [], n
    while left:
        piece = fp.read(min(left, _PIECE))
        if not piece:
            raise BackendError(f"body cut short at {n - left} of {n} bytes")
        pieces.append(piece)
        left -= len(piece)
    return b"".join(pieces)


# Linux only; set after each send, since the kernel clears it again
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)


def _readable(sock: socket.socket) -> bool:
    """Whether ``sock`` has bytes or an end of file waiting, checked without
    reading or blocking, as urllib3 checks a pooled connection. ``poll``
    where there is one, since ``select`` fails on descriptors past
    ``FD_SETSIZE``."""
    if not hasattr(select, "poll"):
        return bool(select.select([sock], [], [], 0)[0])
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _retry_after(header: Optional[str], default: float) -> float:
    """Seconds to wait from a ``Retry-After`` header in its delay-seconds form,
    at most ``RETRY_AFTER_CAP``; ``default`` when the header is absent, an
    HTTP date or anything else. Only ASCII digits count: ``str.isdigit`` also
    passes digits such as a latin-1 superscript two, which ``float``
    rejects."""
    value = (header or "").strip()
    if value.isascii() and value.isdigit():
        return min(float(value), RETRY_AFTER_CAP)
    return default


class ContentError(ValueError):
    """A completion that fails to parse or validate; asking again may help."""


_DECODER = json.JSONDecoder()


def parse_json_object(text: str, opening: str = "{") -> dict | list:
    """The JSON value that starts at the first ``opening`` bracket of possibly
    noisy text: an object for ``{``, an array for ``[``. Text around it is
    ignored."""
    kind = "object" if opening == "{" else "array"
    start = text.find(opening)
    if start < 0:
        raise ContentError(f"no JSON {kind} in completion: {text[:80]!r}")
    try:
        return _DECODER.raw_decode(text, start)[0]
    except json.JSONDecodeError as e:
        raise ContentError(f"invalid JSON {kind}: {e}") from e
    except RecursionError:
        raise ContentError(f"JSON {kind} nested too deeply") from None


T = TypeVar("T")


def complete_validated(llm: Backend, config: PipelineConfig, tag: str,
                       prompt: str, metadata: dict,
                       parse: Callable[[str], T],
                       error: type[Exception] = ContentError,
                       max_tokens: Optional[int] = None) -> T:
    """``parse`` of the first completion it accepts for ``prompt``, sent as
    one user message under the config's ``temperature`` and ``max_tokens``
    (or ``max_tokens`` when given), asking up to ``config.content_retries``
    times. Attempt ``k`` adds ``"attempt": k`` to ``metadata``, so the mock
    answers each attempt afresh. ``parse`` rejects a completion by raising
    :class:`ContentError`; any other exception, backend errors included,
    propagates at once. When every attempt is rejected, ``error`` is raised
    with the last reason."""
    retries = config.content_retries
    problem: object = "no attempt made"
    for attempt in range(retries):
        completion = llm.complete(CompletionRequest(
            messages=(("user", prompt),), temperature=config.temperature,
            max_tokens=max_tokens or config.max_tokens, tag=tag,
            metadata={**metadata, "attempt": attempt}))
        try:
            return parse(completion)
        except ContentError as e:
            problem = e
    raise error(f"{tag} failed validation after {retries} attempts: {problem}")


# ---------------------------------------------------------------------------
# Mock backend
# ---------------------------------------------------------------------------

_AFFILIATIONS = [
    "Northside Clinic", "Crestview Logistics", "Bluefield University",
    "Harbor Analytics", "Summit Retail Group", "Maple Grove School District",
]
_HOBBIES = ["hiking", "photography", "cooking", "gardening", "chess", "cycling"]


def _words(text: str) -> int:
    return len(text.split())


# the mock's request digest input; changing it changes every mock answer
_CANONICAL = json.JSONEncoder(sort_keys=True, ensure_ascii=False, default=str)


class MockBackend(Backend):
    """Deterministic completion generator, a pure function of (request, seed).

    Output format per request tag matches what the corresponding pipeline
    stage parses from a real model, so mock and HTTP runs share code paths.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    def _rng(self, req: CompletionRequest) -> random.Random:
        # tuples encode as lists, so the messages need no copy
        canon = _CANONICAL.encode({
            "seed": self.seed,
            "tag": req.tag,
            "metadata": req.metadata,
            "messages": req.messages,
        })
        digest = hashlib.sha256(canon.encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def _complete(self, req: CompletionRequest) -> str:
        rng = self._rng(req)
        meta = req.metadata or {}
        handler = _MOCK_HANDLERS.get(req.tag.split(":")[0], _mock_fallback)
        return handler(rng, meta, req)


def _mock_fallback(rng, meta, req) -> str:
    return "OK."


def _mock_persona_details(rng, meta, req) -> str:
    return json.dumps(
        {
            "location": rng.choice(PLACES),
            "affiliation": rng.choice(_AFFILIATIONS),
            "job_level": rng.choice(JOB_LEVELS),
        }
    )


def _mock_persona_intro(rng, meta, req) -> str:
    surname = meta.get("surname", "Doe")
    first = meta.get("first_name") or rng.choice(FIRST_NAMES)
    status = meta.get("work_status", "employed")
    occupation = meta.get("occupation_title", "")
    hobby = rng.choice(_HOBBIES)
    if status == "employed" and occupation:
        work = f"works as a {occupation.lower()}"
    elif status == "student":
        work = f"is a student studying {occupation.lower() or 'general studies'}"
    else:
        work = "is retired"
    intro = (
        f"{first} {surname} {work} and lives in {rng.choice(PLACES)}. "
        f"{first} enjoys {hobby} on weekends and keeps a busy schedule "
        f"organized with a phone assistant."
    )
    return json.dumps({"first_name": first, "introduction": intro})


def _mock_context(rng, meta, req) -> str:
    """One JSON object mapping each service to its records, made in the order
    given; services listed in ``contact_dependent`` draw person names from
    the contacts made earlier in the same answer."""
    today = parse_display_date(meta.get("today"))
    dependent = set(meta.get("contact_dependent", []))
    contact_names = None
    out = {}
    for spec in meta.get("services", []):
        service = spec["service"]
        if service == "contacts":
            names = FIRST_NAMES
        else:
            names = contact_names if service in dependent else None
        potential = spec.get("potential_values", {})
        out[service] = [
            {
                slot: sample_value(rng, slot, potential.get(slot, []), today, names)
                for slot in spec.get("record_slots", [])
            }
            for _ in range(spec.get("count", 2))
        ]
        if service == "contacts":
            contact_names = [str(r.get("name", "")) for r in out[service]]
    return json.dumps(out, ensure_ascii=False)


def _mock_slot_values(rng, meta, req) -> str:
    today = parse_display_date(meta.get("today"))
    names = meta.get("contact_names") or None
    out = {}
    for spec in meta.get("slots", []):
        key = f"{spec['service']}.{spec['intent']}.{spec['slot']}"
        out[key] = sample_value(
            rng, spec["slot"], spec.get("potential_values", []), today, names
        )
    return json.dumps(out, ensure_ascii=False)


def _mock_db_query(rng, meta, req) -> str:
    today = parse_display_date(meta.get("today"))
    inputs = meta.get("input_values", {})
    result_slots = meta.get("result_slots", [])
    records = []
    for _ in range(5):
        record = dict(inputs)
        for slot in result_slots:
            if slot not in record:
                record[slot] = sample_value(rng, slot, [], today)
        records.append(record)
    return json.dumps(records, ensure_ascii=False)


def _mock_user_turn(rng, meta, req) -> str:
    """Deterministic user message templated from per-action head + values."""
    parts = []
    for act in meta.get("action_info", []):
        head = act.get("head", "")
        base = head.split("_", 1)[-1] if "_" in head else head
        values = [str(v) for v in act.get("values", [])]
        detail = ", ".join(values)
        if head == "hello":
            parts.append("Hi.")
        elif head.endswith("confirm") and not values:
            parts.append("Yes, that's correct.")
        elif head.endswith("inform_information"):
            parts.append(f"It's {detail}." if detail else "As I said.")
        else:
            verb = head.replace("_", " ")
            parts.append(
                f"I'd like to {verb}" + (f" with {detail}, please." if detail
                                         else ", please.")
            )
        if act.get("correction_new") is not None:
            parts.append(f"Actually, make that {act['correction_new']} instead.")
    message = " ".join(parts) if parts else "Okay."
    return json.dumps(
        {"actions": meta.get("actions", []), "message": message},
        ensure_ascii=False,
    )


def _mock_system_turn(rng, meta, req) -> str:
    """Six style variants with strictly increasing word counts low<mid<high.

    ``action_info`` lists one entry per action in the turn; each contributes a
    sentence to every variant.
    """
    last_user = meta.get("last_user_utterance", "")
    mirror_phrase = ""
    if last_user:
        # mirror noun/verb wording only; never echo raw dates or times
        tokens = [
            t.strip(".,!?\"'")
            for t in last_user.split()
            if not any(c.isdigit() for c in t)
        ]
        mirror_phrase = " ".join(tokens[-3:])

    lows, mids, highs = [], [], []
    for act in meta.get("action_info", [{}]):
        low, mid, high = _mock_system_sentences(act)
        lows.append(low)
        mids.append(mid)
        highs.append(high)
    low, mid, high = " ".join(lows), " ".join(mids), " ".join(highs)

    # enforce strict word-count ordering low < mid < high
    while _words(mid) <= _words(low):
        mid += " indeed"
    while _words(high) <= _words(mid):
        high += " Thank you."

    def mirrored(text: str) -> str:
        if mirror_phrase:
            return f"{text[:-1]}, regarding \"{mirror_phrase}\"."
        return text

    return json.dumps(
        {
            "verbosity_low mirroring": mirrored(low) if mirror_phrase else low,
            "verbosity_low no_mirroring": low,
            "verbosity_mid mirroring": mirrored(mid),
            "verbosity_mid no_mirroring": mid,
            "verbosity_high mirroring": mirrored(high),
            "verbosity_high no_mirroring": high,
        },
        ensure_ascii=False,
    )


def _mock_system_sentences(act: dict) -> tuple[str, str, str]:
    values = [str(v) for v in act.get("values", [])]
    head = act.get("head", "notify_done")
    detail = "; ".join(values)
    if head.endswith("request_information"):
        slot = act.get("requested_slot", "that")
        low = f"{slot.replace('_', ' ').capitalize()}?"
        mid = f"Could you tell me the {slot.replace('_', ' ')} you would prefer?"
        high = (
            f"To continue, could you please tell me which "
            f"{slot.replace('_', ' ')} you would like for this request?"
        )
    elif head.endswith("ask_confirm"):
        low = "Confirm?"
        mid = "Can you confirm that you want me to go ahead with it?"
        high = (
            f"Please confirm that you want to proceed with the following "
            f"details: {detail}. Is that correct?"
            if detail
            else "Please confirm that you want me to proceed with this "
            "operation as requested. Is that correct?"
        )
    elif head.endswith(("inform_result", "summary")):
        low = "Here it is."
        mid = "Here is what I found for that request of yours."
        high = (
            f"Here is the information you asked for: {detail}."
            if detail
            else "Here is the full information you asked for in your request."
        )
    elif head.endswith("notify_done"):
        low = "Done."
        mid = "I have completed that operation for you now."
        high = (
            f"All done. I have completed the operation with these details: "
            f"{detail}."
            if detail
            else "All done. I have completed the requested operation for you "
            "successfully."
        )
    elif head.endswith("offer_help"):
        low = "How can I help?"
        mid = "Hello there, how can I help you out today?"
        high = (
            "Hello! I am your assistant and I am ready to help you with "
            "whatever you need today."
        )
    else:
        low = "Okay."
        mid = "Alright, I have taken note of that for you."
        high = (
            f"Alright, I have noted everything you mentioned: {detail}."
            if detail
            else "Alright, I have carefully noted everything that you have "
            "mentioned so far."
        )
    return low, mid, high


_NOT_ALNUM_OR_SPACE = re.compile(r"[^\w\s]|_")


def _normalize_for_match(text: str) -> str:
    return _NOT_ALNUM_OR_SPACE.sub("", text.lower())


def _mock_qc_eval(rng, meta, req) -> str:
    """Rule-based consistency: every action literal must appear in its
    utterance (case-insensitive, punctuation-stripped)."""
    for pair in meta.get("pairs", []):
        utterance = _normalize_for_match(pair.get("utterance", ""))
        for value in pair.get("values", []):
            if _normalize_for_match(str(value)) not in utterance:
                return (
                    f"inconsistent: value {value!r} from the actions does not "
                    f"appear in the corresponding utterance"
                )
    return "consistent"


_MOCK_HANDLERS: dict[str, Callable] = {
    "persona_details": _mock_persona_details,
    "persona_intro": _mock_persona_intro,
    "context": _mock_context,
    "slot_values": _mock_slot_values,
    "db_query": _mock_db_query,
    "user_turn": _mock_user_turn,
    "system_turn": _mock_system_turn,
    "qc_eval": _mock_qc_eval,
}


def make_backend(config: BackendConfig, seed: int) -> Backend:
    """The backend ``config`` describes; a mock answers under ``seed``, the
    pipeline seed."""
    if config.kind == "mock":
        return MockBackend(seed=seed)
    return HttpBackend(config)
