"""Schema loading and validation tests."""

import json
from pathlib import Path

import pytest

from todgen.schema import (
    SchemaError,
    SchemaSet,
    load_schema,
    load_schema_set,
    validate_schema_set,
)

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src/todgen/data/schemas"


@pytest.fixture(scope="module")
def schema_set():
    return load_schema_set(SCHEMA_DIR / "manifest.txt")


@pytest.fixture()
def calendar_json():
    return json.loads((SCHEMA_DIR / "calendar_events.json").read_text())


def test_calendar_create_intent(schema_set):
    svc = schema_set.service("calendar_events")
    create = svc.intent("create")
    assert create.required_slots == ("date", "start_time", "duration_time")
    assert create.optional_slots == ("attendees", "name", "location")
    assert create.minimum_input_slot_number == 1
    assert not create.require_confirmation


def test_all_bundled_schemas_load(schema_set):
    assert len(schema_set.services) == 11
    assert {s.service_name for s in schema_set.services} == {
        "calendar_events", "alarms", "messages", "reminders", "contacts",
        "weather", "restaurant_booking", "hotel_booking", "movie",
        "smart_home", "banking",
    }


def test_zero_intents_is_valid():
    svc = load_schema('{"service_name": "empty", "intent_operations": [], "slots": []}')
    assert svc.intent_operations == ()


def test_dangling_slot_reference(calendar_json):
    calendar_json["intent_operations"][0]["required_slots"][0] = "tiem"
    with pytest.raises(SchemaError, match="tiem"):
        load_schema(json.dumps(calendar_json))


def test_unknown_field_rejected(calendar_json):
    calendar_json["intent_operations"][0]["require_confrmation"] = True
    with pytest.raises(SchemaError, match="unknown field"):
        load_schema(json.dumps(calendar_json))


def test_duplicate_slot_name(calendar_json):
    calendar_json["slots"].append(calendar_json["slots"][0])
    with pytest.raises(SchemaError, match="duplicate"):
        load_schema(json.dumps(calendar_json))


def test_overlapping_slot_groups(calendar_json):
    calendar_json["intent_operations"][0]["optional_slots"].append("date")
    with pytest.raises(SchemaError, match="two slot groups"):
        load_schema(json.dumps(calendar_json))


def test_min_slot_number_bound(calendar_json):
    calendar_json["intent_operations"][0]["minimum_input_slot_number"] = 99
    with pytest.raises(SchemaError, match="exceeds"):
        load_schema(json.dumps(calendar_json))


def test_self_alias_rejected(calendar_json):
    calendar_json["slots"][0]["alias"] = ["date"]
    with pytest.raises(SchemaError, match="aliases itself"):
        load_schema(json.dumps(calendar_json))


def test_malformed_json():
    with pytest.raises(SchemaError, match="malformed"):
        load_schema("{not json")


def test_alias_closure_transitive():
    svc = load_schema(json.dumps({
        "service_name": "t",
        "intent_operations": [],
        "slots": [
            {"name": "a", "alias": ["b"]},
            {"name": "b", "alias": ["c"]},
        ],
    }))
    assert svc.alias_closure("a") == {"a", "b", "c"}


def test_single_service_alias_cycle_rejected():
    with pytest.raises(SchemaError, match="alias cycle detected"):
        load_schema(json.dumps({
            "service_name": "t",
            "intent_operations": [],
            "slots": [
                {"name": "a", "alias": ["b"]},
                {"name": "b", "alias": ["a"]},
            ],
        }))


@pytest.mark.parametrize(
    "flag", ["require_input_values", "check_on_input", "can_refer_to_input_slot"])
def test_removed_meta_indicator_is_unknown_field(flag):
    with pytest.raises(SchemaError, match=f"{flag}: unknown field"):
        load_schema(json.dumps({
            "service_name": "t",
            "intent_operations": [{"name": "x", flag: True}],
            "slots": [],
        }))


def test_validate_set_duplicate_service():
    svc = load_schema('{"service_name": "alarms", "intent_operations": [], "slots": []}')
    diags = validate_schema_set([svc, svc])
    assert any("duplicate service" in d for d in diags)


def test_validate_set_single_calendar_clean():
    svc = load_schema((SCHEMA_DIR / "calendar_events.json").read_text())
    assert validate_schema_set([svc]) == []


def test_validate_set_alias_cycle():
    a = load_schema(json.dumps({
        "service_name": "s1", "intent_operations": [],
        "slots": [{"name": "a", "alias": ["b"]}],
    }))
    b = load_schema(json.dumps({
        "service_name": "s2", "intent_operations": [],
        "slots": [{"name": "b", "alias": ["a"]}],
    }))
    diags = validate_schema_set([a, b])
    assert any("cycle" in d for d in diags)


def test_bundled_set_clean(schema_set):
    assert validate_schema_set(schema_set.services) == []


def test_every_referenced_slot_resolves_uniquely(schema_set):
    for svc in schema_set.services:
        for intent in svc.intent_operations:
            refs = (
                intent.required_slots + intent.optional_slots
                + intent.result_slots + intent.minimum_initial_slots
                + intent.summary_emphasis_slots
            )
            for ref in refs:
                assert svc.slot(ref).name == ref


def test_manifest_missing_file(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("nope.json\n")
    with pytest.raises(SchemaError, match="nope.json"):
        load_schema_set(manifest)


def test_subset(schema_set):
    sub = schema_set.subset(["alarms", "movie"])
    assert [s.service_name for s in sub.services] == ["alarms", "movie"]
