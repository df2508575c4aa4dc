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
import ssl
import time
import urllib.parse
import urllib.request
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


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "mock"  # "mock" or "http"
    endpoint: str = ""
    model: str = ""
    auth_env: str = "TODGEN_API_KEY"
    timeout: float = 30.0
    retry: RetryPolicy = RetryPolicy()

    def __post_init__(self):
        if self.kind == "http" and not self.endpoint:
            raise ValueError("http backend requires an endpoint")


class Backend:
    """A chat-completion backend; subclasses supply ``_complete``."""

    def complete(self, req: CompletionRequest) -> str:
        return self._complete(req)

    def _complete(self, req: CompletionRequest) -> str:
        raise NotImplementedError


def _is_loopback(host: str) -> bool:
    """Whether ``host`` names the local machine: ``localhost`` or a
    loopback address. Other names are not resolved to find out."""
    if host.rstrip(".").lower() == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


# redirect statuses; http.client returns them as they are and follows none
_REDIRECTS = (301, 302, 303, 307, 308)


class HttpBackend(Backend):
    """Chat-completions HTTP client with bounded retry on transient failures
    (connection errors, timeouts, 429 and 5xx).

    The transport is ``http.client`` with one connection per request. The
    route is worked out once, when the backend is built: proxies come from
    the environment (``http_proxy``, ``https_proxy``, ``no_proxy``) as
    ``urllib.request`` reads them, and an https endpoint behind a proxy is
    reached through a ``CONNECT`` tunnel. HTTPS verifies against the system
    CA store. Redirects are refused: a 301, 302, 303, 307 or 308 answer
    raises :class:`BackendError` naming its ``Location`` and is not retried.

    The request is built and sent with the dialog's turn held (see
    :mod:`todgen.runner`), so it is on the wire before another dialog runs.
    The turn is given up while the request awaits its answer, body
    included, for a connect unless every peer is a loopback address, and
    during a retry backoff. A loopback connect takes less time than the
    other dialog's work that would run before the send if the turn were
    given up.
    """

    def __init__(self, config: BackendConfig):
        self.config = config
        url = urllib.parse.urlsplit(config.endpoint)
        https = url.scheme == "https"
        # one request per connection, so a keep-alive server closes it after
        # the answer
        self._headers = {"Content-Type": "application/json",
                         "User-Agent": USER_AGENT, "Connection": "close"}
        self._tunnel: Optional[dict] = None  # set_tunnel's arguments
        self._target = urllib.parse.urlunsplit(
            ("", "", url.path or "/", url.query, ""))
        proxy = urllib.request.getproxies().get(url.scheme)
        if not proxy or urllib.request.proxy_bypass(url.netloc):
            peer, tls, hosts = url.netloc, https, [url.hostname]
        else:
            if "://" not in proxy:  # a bare host:port: the endpoint's scheme
                proxy = f"{url.scheme}://{proxy}"
            via = urllib.parse.urlsplit(proxy)
            if via.scheme not in ("http", "https") or not via.hostname:
                raise ValueError(f"the {url.scheme} proxy must be an http:// "
                                 "or https:// URL with a host")
            peer, hosts = via.netloc.rpartition("@")[2], [via.hostname]
            auth = {}
            if via.username and via.password:
                creds = urllib.parse.unquote(f"{via.username}:{via.password}")
                auth["Proxy-Authorization"] = "Basic " + base64.b64encode(
                    creds.encode()).decode("ascii")
            if https:  # TLS to the endpoint, through a CONNECT to the proxy
                tls = True
                self._tunnel = {"host": url.netloc, "headers": auth}
                hosts.append(url.hostname)
            else:
                tls = via.scheme == "https"
                self._target = config.endpoint
                self._headers.update(auth)
        # one TLS context for every request; loading the CA store costs tens
        # of milliseconds, so a route without TLS does without it
        if tls:
            self._connection = partial(http.client.HTTPSConnection, peer,
                                       context=ssl.create_default_context())
        else:
            self._connection = partial(http.client.HTTPConnection, peer)
        self._loopback = all(_is_loopback(h) for h in hosts)

    def _complete(self, req: CompletionRequest) -> str:
        token = os.environ.get(self.config.auth_env, "")
        headers = dict(self._headers)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        data = json.dumps({
            "model": self.config.model,
            "messages": [{"role": r, "content": c} for r, c in req.messages],
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        }).encode("utf-8")
        policy = self.config.retry
        last_error: Optional[Exception] = None
        for attempt in range(1, policy.max_attempts + 1):
            delay = policy.backoff * attempt
            try:
                status, answer_headers, body = self._send(data, headers)
            except BackendError as e:
                last_error = e
            else:
                if status in (401, 403):
                    raise AuthError(f"authentication failed ({status})")
                if status == 429:
                    last_error = BackendError("rate limited (429)")
                    delay = _retry_after(answer_headers.get("Retry-After"), delay)
                elif status >= 500:
                    last_error = BackendError(f"server error {status}")
                elif status in _REDIRECTS:
                    raise BackendError(
                        f"redirect refused: status {status} to "
                        f"{answer_headers.get('Location')}")
                elif status != 200:
                    raise BackendError(f"unexpected status {status}")
                else:
                    try:
                        obj = json.loads(body)
                        content = obj["choices"][0]["message"]["content"]
                    except (ValueError, TypeError, KeyError, IndexError) as e:
                        raise BackendError(f"malformed response body: {e}") from e
                    if not isinstance(content, str):
                        raise BackendError(
                            "malformed response body: content is "
                            f"{type(content).__name__}, not a string")
                    return content
            if attempt < policy.max_attempts:
                with waiting():
                    time.sleep(delay)
        raise RetryExhaustedError(str(last_error), policy.max_attempts)

    def _send(self, data: bytes, headers: dict
              ) -> tuple[int, http.client.HTTPMessage, bytes]:
        """One attempt on a new connection: the status, the headers and the
        whole body. A transport failure raises :class:`BackendTimeout` or
        :class:`BackendError`, both retried."""
        conn = self._connection(timeout=self.config.timeout)
        try:
            if self._tunnel:
                conn.set_tunnel(**self._tunnel)
            if self._loopback:
                conn.connect()
            else:
                with waiting():
                    conn.connect()
            conn.request("POST", self._target, data, headers)
            with waiting(), conn.getresponse() as response:
                return response.status, response.headers, response.read()
        except (OSError, http.client.HTTPException) as e:
            if isinstance(e, TimeoutError):
                raise BackendTimeout(
                    f"timed out after {self.config.timeout:g} s") from e
            raise BackendError(f"{type(e).__name__}: {e}") from e
        finally:
            conn.close()


def _retry_after(header: Optional[str], default: float) -> float:
    """Seconds to wait from a ``Retry-After`` header in its delay-seconds form;
    ``default`` when the header is absent or an HTTP date."""
    return float(header) if header and header.strip().isdigit() else default


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
    if config.kind == "http":
        return HttpBackend(config)
    raise ValueError(f"unknown backend kind {config.kind!r}")
