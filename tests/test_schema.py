"""Schema loading and validation tests."""

import dataclasses
import json
import shutil
import typing
from pathlib import Path

import pytest

from todgen.schema import (
    IntentSpec,
    SchemaError,
    ServiceSchema,
    SlotSpec,
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
    with pytest.raises(SchemaError, match=r"^<document>: intent_operations\[0\]: "
                       r"unknown keys \['require_confrmation'\]$"):
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
    with pytest.raises(SchemaError, match=rf"unknown keys \['{flag}'\]"):
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


# a value of the wrong type for each type a schema field has
_WRONG = {str: 7, bool: 1, int: 2.7}


def _wrong(tp):
    if dataclasses.is_dataclass(tp):
        return 3
    if typing.get_origin(tp) is tuple:
        return [_wrong(typing.get_args(tp)[0])]
    return _WRONG[tp]


def _wrong_typed_fields():
    """``(dotted path, schema)`` with one field of a service, of its intent
    or of its slot wrong-typed, for every field in turn."""
    for cls, at in ((ServiceSchema, ()), (IntentSpec, ("intent_operations", 0)),
                    (SlotSpec, ("slots", 0))):
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            doc = {"service_name": "t", "intent_operations": [{"name": "x"}],
                   "slots": [{"name": "a"}]}
            (doc[at[0]][at[1]] if at else doc)[f.name] = _wrong(hints[f.name])
            path = f"{at[0]}[{at[1]}].{f.name}" if at else f.name
            yield pytest.param(path, doc, id=path)


@pytest.mark.parametrize("path, doc", _wrong_typed_fields())
def test_wrong_typed_field_named_by_path(path, doc):
    with pytest.raises(SchemaError) as e:
        load_schema(json.dumps(doc))
    assert str(e.value).startswith(f"<document>: {path}: expected ")


@pytest.mark.parametrize("edit, message", [
    (lambda s: s.update(slots=5),
     "slots: expected list of mappings, got 5"),
    (lambda s: s.update(slots=["a"]),
     "slots: expected list of mappings, got ['a']"),
    (lambda s: s.update(intent_operations={"name": "x"}),
     "intent_operations: expected list of mappings, got {'name': 'x'}"),
    (lambda s: s["intent_operations"][0].update(description=[1]),
     "intent_operations[0].description: expected string, got [1]"),
    (lambda s: s["slots"][0].update(description=5),
     "slots[0].description: expected string, got 5"),
    (lambda s: s.pop("service_name"),
     "service_name: missing required key"),
    (lambda s: s["slots"][1].pop("name"),
     "slots[1].name: missing required key"),
    (lambda s: s["slots"][1].update(name=""),
     "slots[1].name: must be a nonempty string"),
    (lambda s: s["slots"].append(s["slots"][0]),
     "slots[6].name: duplicate name 'date'"),
    (lambda s: s["intent_operations"][1].update(minimum_input_slot_number=-1),
     "intent_operations[1].minimum_input_slot_number: expected a count >= 0, "
     "got -1"),
])
def test_ill_typed_schema_named_by_file_and_path(tmp_path, calendar_json,
                                                  edit, message):
    """Inputs an earlier loader crashed on, accepted or mis-reported, each
    named by its file and dotted path."""
    edit(calendar_json)
    path = tmp_path / "calendar_events.json"
    path.write_text(json.dumps(calendar_json))
    with pytest.raises(SchemaError) as e:
        load_schema(path)
    assert str(e.value) == f"{path}: {message}"
    with pytest.raises(SchemaError) as e:
        load_schema(json.dumps(calendar_json))
    assert str(e.value) == f"<document>: {message}"


def test_schema_set_error_names_the_file(tmp_path):
    for p in SCHEMA_DIR.iterdir():
        shutil.copy(p, tmp_path)
    bad = tmp_path / "alarms.json"
    doc = json.loads(bad.read_text())
    doc["intent_operations"][0]["require_confrmation"] = True
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as e:
        load_schema_set(tmp_path / "manifest.txt")
    assert str(e.value) == (f"{bad}: intent_operations[0]: "
                            "unknown keys ['require_confrmation']")


def test_subset_names_every_unknown_service(schema_set):
    with pytest.raises(SchemaError, match=r"unknown services \['nosuch', 'gone'\]"):
        schema_set.subset(["alarms", "nosuch", "gone"])
