"""App-context generation: clock sampling, record validation, contact
dependencies, and retries."""

import datetime as dt
import json

import pytest

from todgen.config import PipelineConfig
from todgen.context import (
    CONTACT_DEPENDENT,
    CONTEXT_SERVICE_ORDER,
    RECORD_COUNT_OVERRIDES,
    AppContext,
    ContextError,
    context_services,
    generate_contexts,
    sample_current_time,
)
from todgen.llm import (
    Backend,
    ContentError,
    MockBackend,
    make_backend,
    parse_json_object,
)
from todgen.persona import Persona
from todgen.rng import derive_rng
from todgen.schema import load_schema_set

CFG = PipelineConfig(seed=41)
SCHEMAS = load_schema_set(CFG.schema_manifest_path)
LLM = make_backend(CFG.user_backend, CFG.seed)
PERSONA = Persona(
    id="persona-ctx", surname="Okafor",
    introduction="Ada Okafor works as a teacher in Denver.",
    speaking_habit="plain",
)

WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


class TestSampleCurrentTime:
    def test_within_window(self):
        lo = dt.date(2025, 6, 1)
        hi = dt.date(2025, 6, 30)
        for i in range(100):
            now = sample_current_time(derive_rng(i), ("2025-06-01", "2025-06-30"))
            assert lo <= now.date() <= hi
            assert 7 <= now.hour <= 22
            assert now.minute in (0, 15, 30, 45)

    def test_deterministic(self):
        assert sample_current_time(derive_rng(9), CFG.time_window) == \
            sample_current_time(derive_rng(9), CFG.time_window)


class TestContextServices:
    def test_dependency_order_contacts_first(self):
        services = context_services(SCHEMAS)
        assert services == tuple(
            s for s in CONTEXT_SERVICE_ORDER if SCHEMAS.has_service(s)
        )
        if "contacts" in services:
            for dependent in CONTACT_DEPENDENT:
                if dependent in services:
                    assert services.index("contacts") < services.index(dependent)

    def test_subset_restricts_services(self):
        subset = SCHEMAS.subset(("alarms", "weather"))
        assert context_services(subset) == ("alarms",)


@pytest.fixture(scope="module")
def contexts():
    now = dt.datetime(2025, 4, 16, 9, 30)
    return generate_contexts(PERSONA, SCHEMAS, now, LLM, CFG, derive_rng("c"))


class TestGenerateContexts:
    def test_one_context_per_context_service(self, contexts):
        assert set(contexts) == set(context_services(SCHEMAS))

    def test_shared_clock_with_derived_weekday(self, contexts):
        for ctx in contexts.values():
            assert ctx.today == "Wed 2025-04-16"  # 2025-04-16 is a Wednesday
            assert ctx.time == "09:30"

    def test_record_counts_respect_config(self, contexts):
        for service, ctx in contexts.items():
            lo, hi = RECORD_COUNT_OVERRIDES.get(service, CFG.record_count_range)
            assert lo <= len(ctx.records) <= hi

    def test_records_carry_expected_slots(self, contexts):
        for service, ctx in contexts.items():
            svc = SCHEMAS.service(service)
            slot_names = {s.name for s in svc.slots}
            for record in ctx.records:
                assert record
                assert set(record) <= slot_names

    def test_contact_names_reused_downstream(self, contexts):
        names = {str(r["name"]) for r in contexts["contacts"].records}
        for service in CONTACT_DEPENDENT:
            if service not in contexts:
                continue
            for record in contexts[service].records:
                for key in ("sender", "attendees", "recipient"):
                    if key in record:
                        assert str(record[key]) in names

    def test_deterministic(self):
        now = dt.datetime(2025, 4, 16, 9, 30)
        a = generate_contexts(PERSONA, SCHEMAS, now, LLM, CFG, derive_rng("c"))
        b = generate_contexts(
            PERSONA, SCHEMAS, now, make_backend(CFG.user_backend, CFG.seed), CFG,
            derive_rng("c"),
        )
        assert {k: v.to_dict() for k, v in a.items()} == \
            {k: v.to_dict() for k, v in b.items()}

    def test_retries_invalid_records_then_succeeds(self):
        class FlakyBackend(Backend):
            def __init__(self):
                self.attempts = 0

            def _complete(self, req):
                self.attempts += 1
                out = {}
                for spec in req.metadata["services"]:
                    record = {}
                    for slot in spec["record_slots"]:
                        if slot in ("sender", "attendees", "recipient"):
                            record[slot] = "Ana"
                        elif slot == "name" and spec["service"] == "contacts":
                            record[slot] = "Ana"
                        elif "time" in slot:
                            record[slot] = "09:00"
                        elif "date" in slot:
                            record[slot] = "Thu 2025-04-17"
                        else:
                            record[slot] = f"{slot} value"
                    # wrong count for every service on the first try
                    count = 0 if self.attempts == 1 else spec["count"]
                    out[spec["service"]] = [dict(record) for _ in range(count)]
                return json.dumps(out)

        backend = FlakyBackend()
        now = dt.datetime(2025, 4, 16, 9, 30)
        out = generate_contexts(PERSONA, SCHEMAS, now, backend, CFG,
                                derive_rng("flaky"))
        assert set(out) == set(context_services(SCHEMAS))
        # the first batch was invalid, so the whole batch was asked again
        assert backend.attempts == 2

    def test_persistent_invalid_records_raise(self):
        class BrokenBackend(Backend):
            def _complete(self, req):
                return json.dumps([{"unknown_slot": 1}])

        now = dt.datetime(2025, 4, 16, 9, 30)
        with pytest.raises(ContextError, match="failed validation"):
            generate_contexts(PERSONA, SCHEMAS, now, BrokenBackend(), CFG,
                              derive_rng("x"))


class TestAppContext:
    def test_round_trip(self, contexts):
        for ctx in contexts.values():
            assert AppContext.from_dict(ctx.to_dict()).to_dict() == ctx.to_dict()


class _RecordingMock(MockBackend):
    """The mock backend, keeping every request it answers."""

    def __init__(self, seed=0):
        super().__init__(seed=seed)
        self.requests = []

    def _complete(self, req):
        self.requests.append(req)
        return super()._complete(req)


class _StrangerSender(MockBackend):
    """Mock answers whose messages come from a name that is not a contact,
    for the first ``bad`` attempts."""

    def __init__(self, bad):
        super().__init__(seed=0)
        self.bad = bad
        self.attempts = 0

    def _complete(self, req):
        self.attempts += 1
        obj = json.loads(super()._complete(req))
        if self.attempts <= self.bad:
            for record in obj["messages"]:
                record["sender"] = "Stranger Danger"
        return json.dumps(obj)


class TestBatchedContexts:
    NOW = dt.datetime(2025, 4, 16, 9, 30)

    def test_one_context_call_per_dialog(self):
        backend = _RecordingMock()
        generate_contexts(PERSONA, SCHEMAS, self.NOW, backend, CFG,
                          derive_rng("one"))
        assert [r.tag for r in backend.requests] == ["context"]

    def test_no_call_without_context_services(self):
        backend = _RecordingMock()
        out = generate_contexts(PERSONA, SCHEMAS.subset(("weather",)), self.NOW,
                                backend, CFG, derive_rng("none"))
        assert out == {}
        assert backend.requests == []

    def test_sender_outside_contacts_is_retried(self):
        backend = _StrangerSender(bad=1)
        out = generate_contexts(PERSONA, SCHEMAS, self.NOW, backend, CFG,
                                derive_rng("sender"))
        assert backend.attempts == 2
        names = {r["name"] for r in out["contacts"].records}
        assert all(r["sender"] in names for r in out["messages"].records)

    def test_sender_outside_contacts_raises_naming_messages(self):
        backend = _StrangerSender(bad=CFG.content_retries)
        with pytest.raises(ContextError,
                           match=r"attempts: messages: sender .* not in contacts"):
            generate_contexts(PERSONA, SCHEMAS, self.NOW, backend, CFG,
                              derive_rng("sender"))
        assert backend.attempts == CFG.content_retries

    def test_prompt_states_every_count_and_key(self):
        backend = _RecordingMock()
        generate_contexts(PERSONA, SCHEMAS, self.NOW, backend, CFG,
                          derive_rng("prompt"))
        (req,) = backend.requests
        prompt = req.messages[0][1]
        assert PERSONA.introduction in prompt
        assert "Wed 2025-04-16" in prompt
        assert "one of the generated contact names" in prompt
        lines = {
            line.split(":")[0][2:]: line
            for line in prompt.splitlines() if line.startswith("- ")
        }
        specs = req.metadata["services"]
        assert [spec["service"] for spec in specs] == \
            list(context_services(SCHEMAS)) == list(lines)
        for spec in specs:
            line = lines[spec["service"]]
            assert f" {spec['count']} records" in line
            for key in spec["record_slots"]:
                assert repr(key) in line

    def test_equal_prompts_get_equal_mock_answers(self):
        """The replay stub keys on the prompt alone, so nothing the mock
        reads may vary while the prompt stays the same."""
        twin = Persona(id="persona-twin", surname=PERSONA.surname,
                       introduction=PERSONA.introduction,
                       speaking_habit=PERSONA.speaking_habit)
        runs = []
        for persona in (PERSONA, twin):
            backend = _RecordingMock()
            out = generate_contexts(persona, SCHEMAS, self.NOW, backend, CFG,
                                    derive_rng("twin"))
            runs.append((backend.requests[0].messages,
                         {k: v.to_dict() for k, v in out.items()}))
        assert runs[0] == runs[1]


class TestParseJsonObject:
    """The one JSON extractor, on the shapes every backend stage's answers
    come in."""

    def test_extracts_object_from_noise(self):
        assert parse_json_object('sure! {"alarms": [{"a": 1}]} done') == \
            {"alarms": [{"a": 1}]}
        assert parse_json_object('noise {"a": {"b": 1}} trailing') == \
            {"a": {"b": 1}}
        assert parse_json_object('{"a": 1} then {"b": 2}') == {"a": 1}

    def test_brackets_in_strings(self):
        assert parse_json_object('{"alarms": [{"a": "]}["}]}') == \
            {"alarms": [{"a": "]}["}]}
        assert parse_json_object('{"a": "}{"}') == {"a": "}{"}
        assert parse_json_object(r'{"a": "say \"}\" {"}') == {"a": 'say "}" {'}

    def test_errors_without_object(self):
        for text in ("no structure here", "plain text", ""):
            with pytest.raises(ContentError, match="no JSON object"):
                parse_json_object(text)

    def test_errors_on_truncated_object(self):
        for text in ('{"a": 1', '{"a": "}', "{'a': 1}"):
            with pytest.raises(ContentError, match="invalid JSON object"):
                parse_json_object(text)

    def test_array_opening(self):
        assert parse_json_object('records:\n```json\n[{"a": "]"}]\n```',
                                 "[") == [{"a": "]"}]
        with pytest.raises(ContentError, match="no JSON array"):
            parse_json_object('{"a": 1}', "[")
        with pytest.raises(ContentError, match="invalid JSON array"):
            parse_json_object("[1, 2", "[")

    def test_errors_on_deep_nesting(self):
        text = '{"a":' * 200_000 + "1" + "}" * 200_000
        with pytest.raises(ContentError, match="nested too deeply"):
            parse_json_object(text)
