"""Persona-grounded app-context generation.

All of a dialog's contexts come from one completion. Services are listed and
checked in a fixed dependency order (contacts first), so that the generated
contact names can be reused as message senders and event attendees.
"""

from __future__ import annotations

import datetime as dt
import random
from dataclasses import dataclass, field

from .config import PipelineConfig
from .llm import (
    Backend,
    ContentError,
    complete_validated,
    parse_json_object,
)
from .persona import Persona
from .schema import SchemaSet
from .values import format_date

__all__ = [
    "AppContext",
    "ContextError",
    "context_today",
    "sample_current_time",
    "generate_contexts",
    "context_services",
]


# Context-bearing services in generation dependency order: contacts first,
# since its names feed messages and calendar events.
CONTEXT_SERVICE_ORDER = (
    "contacts",
    "messages",
    "calendar_events",
    "reminders",
    "alarms",
)

# Which context services draw person names from the generated contacts.
CONTACT_DEPENDENT = ("messages", "calendar_events")

# Record slots used when generating app-context instances.
CONTEXT_RECORD_SLOTS = {
    "alarms": ("time", "name", "if_repeat"),
    "calendar_events": ("name", "date", "start_time", "duration_time", "location"),
    "messages": ("sender", "time", "content"),
    "reminders": ("content", "time", "date"),
    "contacts": ("name", "phone_number", "email", "relationship"),
}

# Record-count ranges that replace ``record_count_range`` for one service.
RECORD_COUNT_OVERRIDES = {"alarms": (1, 4)}


class ContextError(ValueError):
    pass


@dataclass
class AppContext:
    service_name: str
    today: str  # display form, e.g. "Wed 2025-04-16"
    time: str  # 24h "HH:MM"
    records: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "service_name": self.service_name,
            "today": self.today,
            "time": self.time,
            "records": self.records,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AppContext":
        return cls(
            service_name=d["service_name"],
            today=d["today"],
            time=d["time"],
            records=list(d["records"]),
        )


def context_today(contexts: dict[str, AppContext]) -> str:
    """The display date a dialog's contexts share; "" when it has none."""
    return next((c.today for c in contexts.values()), "")


def sample_current_time(
    rng: random.Random, window: tuple[str, str]
) -> dt.datetime:
    """Uniform datetime in the window; the weekday is always derived from the
    date, never sampled."""
    start = dt.date.fromisoformat(window[0])
    end = dt.date.fromisoformat(window[1])
    day = start + dt.timedelta(days=rng.randint(0, (end - start).days))
    return dt.datetime(
        day.year, day.month, day.day, rng.randint(7, 22), rng.choice((0, 15, 30, 45))
    )


def context_services(schemas: SchemaSet) -> tuple[str, ...]:
    """Context-bearing services present in the active set, dependency order."""
    return tuple(s for s in CONTEXT_SERVICE_ORDER if schemas.has_service(s))


def _validate_records(records, slots: list[str], allowed_keys: set,
                      count: int, names: list) -> str:
    if not isinstance(records, list) or len(records) != count:
        return f"expected {count} records"
    for r in records:
        if not isinstance(r, dict):
            return "record is not an object"
        if set(r) - allowed_keys:
            return f"unknown record key {sorted(set(r) - allowed_keys)[0]!r}"
        for slot in slots:
            if slot not in r:
                return f"record missing slot {slot!r}"
    if names:
        for r in records:
            for key in ("sender", "attendees", "recipient"):
                if key in r and str(r[key]) not in names:
                    return f"{key} {r[key]!r} not in contacts"
    return ""


def generate_contexts(
    persona: Persona,
    schemas: SchemaSet,
    now: dt.datetime,
    llm: Backend,
    config: PipelineConfig,
    rng: random.Random,
) -> dict[str, AppContext]:
    """Generate one AppContext per context-bearing service in the set, all
    from one completion that maps each service to its records."""
    today = format_date(now.date())
    clock = f"{now.hour:02d}:{now.minute:02d}"
    services = context_services(schemas)
    if not services:
        return {}
    batch, allowed_keys = [], {}
    for service in services:
        svc = schemas.service(service)
        lo, hi = RECORD_COUNT_OVERRIDES.get(service, config.record_count_range)
        batch.append({
            "service": service,
            "record_slots": [
                s for s in CONTEXT_RECORD_SLOTS.get(service, ()) if svc.has_slot(s)
            ],
            "count": rng.randint(lo, hi),
            "potential_values": {
                s.name: list(s.potential_values)
                for s in svc.slots if s.potential_values
            },
        })
        allowed_keys[service] = {s.name for s in svc.slots}
    prompt = (
        "Generate realistic app records for this user as one JSON object that "
        "maps each service below to a JSON array of record objects.\n"
        + "".join(
            f"- {b['service']}: {b['count']} records with keys {b['record_slots']}\n"
            for b in batch
        )
        + f"Persona: {persona.introduction} Today is {today}."
        + (
            " Every sender, attendees and recipient must be one of the "
            "generated contact names."
            if "contacts" in services
            else ""
        )
    )
    metadata = {
        "services": batch,
        "contact_dependent": [s for s in services if s in CONTACT_DEPENDENT],
        "today": today,
    }

    def parse(completion: str) -> dict[str, AppContext]:
        obj = parse_json_object(completion)
        contact_names: list[str] = []
        for b in batch:
            service = b["service"]
            records = obj.get(service)
            problem = _validate_records(
                records, b["record_slots"], allowed_keys[service], b["count"],
                contact_names if service in CONTACT_DEPENDENT else [],
            )
            if problem:
                raise ContentError(f"{service}: {problem}")
            if service == "contacts":
                contact_names = [str(r.get("name", "")) for r in records]
        return {
            s: AppContext(service_name=s, today=today, time=clock, records=obj[s])
            for s in services
        }

    # the per-request token budget once per service in the batch
    return complete_validated(llm, config, "context", prompt, metadata, parse,
                              ContextError,
                              max_tokens=config.max_tokens * len(batch))
