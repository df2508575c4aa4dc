"""The mock backend: a pure function of (request, seed) that answers from
the request's metadata, takes a request digest only for the tags whose
answers draw, and reads metadata that the prompt does not show a real
model."""

import datetime
import json
import sys
from collections import Counter

import pytest

from todgen import cli, mock
from todgen.config import PipelineConfig
from todgen.llm import BackendError, CompletionRequest
from todgen.mock import MockBackend, _normalize_for_match
from todgen.values import format_date


def req(tag="user_turn", metadata=None, content="hello"):
    return CompletionRequest(
        messages=(("user", content),), temperature=0.7, max_tokens=512,
        tag=tag, metadata=metadata
    )


class TestMockBackend:
    def test_pure_function_of_request_and_seed(self):
        a = MockBackend(seed=5)
        b = MockBackend(seed=5)
        r = req(metadata={"action_info": [{"head": "create",
                                          "values": ["07:00"]}]})
        assert a.complete(r) == b.complete(r)
        # repeated calls on one instance are stable too
        assert a.complete(r) == a.complete(r)

    def test_seed_changes_output(self):
        r = req(tag="persona_details", metadata={"work_status": "employed"})
        outputs = {MockBackend(seed=s).complete(r) for s in range(20)}
        assert len(outputs) > 1

    def test_metadata_changes_output(self):
        backend = MockBackend(seed=0)
        services = [{"service": "alarms", "record_slots": ["name"], "count": 2}]
        a = backend.complete(req(tag="context", metadata={
            "services": services, "attempt": 0}))
        b = backend.complete(req(tag="context", metadata={
            "services": services, "attempt": 1}))
        assert a != b

    def test_request_digest_is_pinned(self):
        """Every mock answer is drawn from a digest of the request's canonical
        JSON; a change to those bytes would change every mock artifact."""
        request = CompletionRequest(
            messages=(("system", "Sé brief."), ("user", "book a table for 2")),
            temperature=0.7,
            max_tokens=512,
            tag="user_turn",
            metadata={"attempt": 1, "when": datetime.date(2024, 5, 3),
                      "values": ["x", 3]},
        )
        rng = MockBackend(seed=7)._rng(request)
        assert rng.getrandbits(64) == 15374177986679739076

    def test_normalize_for_match_keeps_exactly_alnum_and_space(self):
        """Checked on every code point against the character predicate."""
        text = "".join(map(chr, range(sys.maxunicode + 1)))
        kept = [c for c in text.lower() if c.isalnum() or c.isspace()]
        assert list(_normalize_for_match(text)) == kept

    def test_unknown_tag_is_refused(self):
        """A misspelt tag fails at once instead of answering content that
        every retry rejects."""
        with pytest.raises(BackendError, match="'mystery'"):
            MockBackend(seed=0).complete(req(tag="mystery"))

    def test_empty_messages_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            CompletionRequest(messages=(), temperature=0.7, max_tokens=512)

    def test_format_date_has_weekday(self):
        import datetime as dt

        assert format_date(dt.date(2025, 4, 16)) == "Wed 2025-04-16"


# the tags whose answers draw from an RNG seeded by the request digest
DRAWING = {"persona_details", "persona_intro", "context", "slot_values",
           "db_query"}


def _stage_sequence(tmp_path, dialogs: int) -> None:
    """Every stage, in order, on the mock backend at seed 7."""
    cfg = PipelineConfig(seed=7, dialog_count=dialogs, max_concurrency=1,
                         output_dir=str(tmp_path))
    for stage in cli._STAGES.values():
        stage(cfg)


def test_only_drawing_tags_take_a_digest(tmp_path, monkeypatch):
    """A 20-dialog mock run requests every tag, and hashes a request into an
    RNG seed for exactly the tags whose answers draw, once per request."""
    requested, digested = Counter(), Counter()
    complete, rng = MockBackend._complete, MockBackend._rng

    def counting_complete(self, request):
        requested[request.tag] += 1
        return complete(self, request)

    def counting_rng(self, request):
        digested[request.tag] += 1
        return rng(self, request)

    monkeypatch.setattr(MockBackend, "_complete", counting_complete)
    monkeypatch.setattr(MockBackend, "_rng", counting_rng)
    _stage_sequence(tmp_path, 20)
    assert set(requested) == set(mock._MOCK_HANDLERS)
    assert digested == {tag: requested[tag] for tag in DRAWING}


PURE_REQUESTS = {
    "user_turn": {"actions": ["create(name=\"Joker\")"], "action_info": [
        {"head": "create", "values": ["Joker"], "correction_new": None,
         "requested_slot": "that"}]},
    "system_turn": {"action_info": [{"head": "ask_confirm",
                                     "values": ["07:00"]}],
                    "last_user_utterance": "Wake me at seven, please."},
    "qc_eval": {"pairs": [{"utterance": "It's at 7:00.",
                           "values": ["07:00"]}]},
}


@pytest.mark.parametrize("tag", sorted(PURE_REQUESTS))
def test_pure_tag_answer_ignores_seed_and_attempt(tag, monkeypatch):
    """A tag whose answer does not draw answers every seed and attempt
    alike, without a request digest."""

    def no_digest(self, request):
        raise AssertionError(f"{request.tag} took a request digest")

    monkeypatch.setattr(MockBackend, "_rng", no_digest)
    answers = {
        MockBackend(seed=seed).complete(req(tag=tag, metadata={
            **PURE_REQUESTS[tag], "attempt": attempt}))
        for seed in (0, 7) for attempt in (0, 1)
    }
    assert len(answers) == 1, answers


# ids that vary the mock's RNG and are no content of the prompt
RNG_ONLY = {"attempt", "dialog"}

# (tag, path) -> why the prompt does not show what the mock reads there; a
# path covers the paths below it
KNOWN_GAPS = {
    ("context", "services[].potential_values"):
        "the context prompt does not name each slot's allowed values",
    ("slot_values", "contact_names[]"):
        "the slot_values prompt does not list the contacts the mock draws "
        "person names from",
    ("qc_eval", "pairs[].utterance"):
        "the mock judges a system turn's high-verbosity mirroring variant; "
        "the prompt shows its default variant",
}


class _Tracked(dict):
    """Metadata that records each value read from it, with its path:
    ``key.key`` into a dict, ``key[]`` into the items of a list."""

    def __init__(self, data, path, reads):
        super().__init__(data)
        self._path, self._reads = path, reads

    def __getitem__(self, key):
        return self._read(key, super().__getitem__(key))

    def get(self, key, default=None):
        return self._read(key, super().__getitem__(key)) if key in self \
            else default

    def __iter__(self):  # so that dict(self) reads through __getitem__
        return super().__iter__()

    def _read(self, key, value):
        path = f"{self._path}.{key}" if self._path else key
        if isinstance(value, dict):
            value = _Tracked(value, path, self._reads)
        elif isinstance(value, list):
            value = [_Tracked(v, f"{path}[]", self._reads)
                     if isinstance(v, dict) else v for v in value]
        self._reads.append((path, value))
        return value


def _leaves(path, value):
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _leaves(f"{path}.{key}", v)
    elif isinstance(value, list):
        for v in value:
            yield from _leaves(f"{path}[]", v)
    else:
        yield path, value


def _shown(value, prompt: str) -> bool:
    """Whether ``prompt`` holds ``value`` as it is or JSON-escaped; None,
    which stands for no value, needs no showing."""
    if value is None:
        return True
    text = value if isinstance(value, str) else json.dumps(value)
    return any(form in prompt for form in (
        text, json.dumps(text)[1:-1], json.dumps(text, ensure_ascii=False)[1:-1]))


def _unshown(reads: list, prompt: str) -> set:
    """The paths of the values read that ``prompt`` does not hold. A list or
    dict read whole counts through its leaves; one read further down counts
    only through those reads."""
    paths = {path for path, _ in reads}
    unshown = set()
    for path, value in reads:
        if path.partition(".")[0].partition("[")[0] in RNG_ONLY:
            continue
        if isinstance(value, (dict, list)) and any(
                p.startswith((f"{path}.", f"{path}[]")) for p in paths):
            continue
        unshown.update(p for p, leaf in _leaves(path, value)
                       if not _shown(leaf, prompt))
    return unshown


def _gap(tag: str, path: str) -> tuple:
    """The known gap that covers ``path``, or ``(tag, path)`` itself."""
    for known_tag, known in KNOWN_GAPS:
        if known_tag == tag and (path == known or path.startswith(
                (f"{known}.", f"{known}[]"))):
            return known_tag, known
    return tag, path


def test_mock_reads_only_what_the_prompt_says(tmp_path, monkeypatch):
    """A 50-dialog seed-7 mock run that requests every tag: every metadata
    value a handler reads appears in its prompt, except the known gaps, each
    of which still shows up. The RNG digest of a drawing tag hashes the
    untracked metadata, so the run is the usual one."""
    requests, gaps = Counter(), Counter()

    def complete(self, request):
        reads = []
        draws, handler = mock._MOCK_HANDLERS[request.tag]
        meta = _Tracked(request.metadata or {}, "", reads)
        text = handler(self._rng(request), meta) if draws else handler(meta)
        prompt = "\n".join(content for _, content in request.messages)
        requests[request.tag] += 1
        gaps.update({_gap(request.tag, p) for p in _unshown(reads, prompt)})
        return text

    monkeypatch.setattr(MockBackend, "_complete", complete)
    _stage_sequence(tmp_path, 50)
    assert set(requests) == set(mock._MOCK_HANDLERS)
    found = {gap: f"{n} of {requests[gap[0]]} requests"
             for gap, n in sorted(gaps.items())}
    assert set(found) == set(KNOWN_GAPS), found
