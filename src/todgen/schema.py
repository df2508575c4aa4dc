"""Per-service schema loading, validation, and indexing.

A schema file is JSON with keys ``service_name``, ``intent_operations`` and
``slots``. Each intent carries meta-indicator flags that steer plot
construction (e.g. ``require_confirmation``). Unknown fields are rejected so
meta-indicator typos fail loudly at load time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

__all__ = [
    "SlotSpec",
    "IntentSpec",
    "ServiceSchema",
    "SchemaSet",
    "SchemaError",
    "load_schema",
    "load_schema_set",
    "validate_schema_set",
]


class SchemaError(ValueError):
    """Schema parse or validation failure, with a path to the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class SlotSpec:
    name: str
    description: str = ""
    potential_values: tuple[str, ...] = ()
    alias: tuple[str, ...] = ()


@dataclass(frozen=True)
class IntentSpec:
    name: str
    description: str = ""
    require_context: bool = False
    require_confirmation: bool = False
    return_list: bool = False
    report_result: bool = False
    minimum_input_slot_number: int = 0
    minimum_initial_slots: tuple[str, ...] = ()
    summary_emphasis_slots: tuple[str, ...] = ()
    required_slots: tuple[str, ...] = ()
    optional_slots: tuple[str, ...] = ()
    result_slots: tuple[str, ...] = ()

    @property
    def input_slots(self) -> tuple[str, ...]:
        return self.required_slots + self.optional_slots

    @property
    def performs_operation(self) -> bool:
        """True when the intent changes state (gets a terminal notify_done)."""
        return not (self.report_result or self.return_list)


@dataclass(frozen=True)
class ServiceSchema:
    service_name: str
    intent_operations: tuple[IntentSpec, ...] = ()
    slots: tuple[SlotSpec, ...] = ()

    def slot(self, name: str) -> SlotSpec:
        for s in self.slots:
            if s.name == name:
                return s
        raise KeyError(f"{self.service_name}: no slot {name!r}")

    def intent(self, name: str) -> IntentSpec:
        for i in self.intent_operations:
            if i.name == name:
                return i
        raise KeyError(f"{self.service_name}: no intent {name!r}")

    def has_slot(self, name: str) -> bool:
        return any(s.name == name for s in self.slots)

    def alias_closure(self, slot_name: str) -> set[str]:
        """Names the slot may stand in for: itself, its aliases, and the
        aliases of alias slots defined in this service, transitively."""
        closure = {slot_name}
        stack = [slot_name]
        while stack:
            current = stack.pop()
            if not self.has_slot(current):
                continue  # abstract parent name, no outgoing aliases
            for parent in self.slot(current).alias:
                if parent not in closure:
                    closure.add(parent)
                    stack.append(parent)
        return closure


_SLOT_FIELDS = {"name", "description", "potential_values", "alias"}
_INTENT_FIELDS = {
    "name",
    "description",
    "require_context",
    "require_confirmation",
    "return_list",
    "report_result",
    "minimum_input_slot_number",
    "minimum_initial_slots",
    "summary_emphasis_slots",
    "required_slots",
    "optional_slots",
    "result_slots",
}
_SERVICE_FIELDS = {"service_name", "intent_operations", "slots"}


def _check_fields(obj: dict, allowed: set[str], path: str):
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"{path}.{sorted(unknown)[0]}", "unknown field")


def _str_list(obj, path: str) -> tuple[str, ...]:
    if not isinstance(obj, list) or not all(isinstance(x, str) for x in obj):
        raise SchemaError(path, "expected a list of strings")
    return tuple(obj)


def _parse_slot(obj: dict, path: str) -> SlotSpec:
    _check_fields(obj, _SLOT_FIELDS, path)
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{path}.name", "slot name must be a nonempty string")
    alias = _str_list(obj.get("alias", []), f"{path}.alias")
    if name in alias:
        raise SchemaError(f"{path}.alias", f"slot {name!r} aliases itself")
    return SlotSpec(
        name=name,
        description=obj.get("description", ""),
        potential_values=_str_list(
            obj.get("potential_values", []), f"{path}.potential_values"
        ),
        alias=alias,
    )


def _parse_intent(obj: dict, path: str) -> IntentSpec:
    _check_fields(obj, _INTENT_FIELDS, path)
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{path}.name", "intent name must be a nonempty string")
    kwargs = {"name": name, "description": obj.get("description", "")}
    for flag in (
        "require_context",
        "require_confirmation",
        "return_list",
        "report_result",
    ):
        if flag in obj:
            if not isinstance(obj[flag], bool):
                raise SchemaError(f"{path}.{flag}", "expected a boolean")
            kwargs[flag] = obj[flag]
    if "minimum_input_slot_number" in obj:
        n = obj["minimum_input_slot_number"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise SchemaError(
                f"{path}.minimum_input_slot_number", "expected a count >= 0"
            )
        kwargs["minimum_input_slot_number"] = n
    for lst in (
        "minimum_initial_slots",
        "summary_emphasis_slots",
        "required_slots",
        "optional_slots",
        "result_slots",
    ):
        if lst in obj:
            kwargs[lst] = _str_list(obj[lst], f"{path}.{lst}")
    return IntentSpec(**kwargs)


def _validate_service(svc: ServiceSchema):
    path = f"service {svc.service_name!r}"
    slot_names = [s.name for s in svc.slots]
    if len(slot_names) != len(set(slot_names)):
        dup = next(n for n in slot_names if slot_names.count(n) > 1)
        raise SchemaError(f"{path}.slots", f"duplicate slot name {dup!r}")
    intent_names = [i.name for i in svc.intent_operations]
    if len(intent_names) != len(set(intent_names)):
        dup = next(n for n in intent_names if intent_names.count(n) > 1)
        raise SchemaError(f"{path}.intent_operations", f"duplicate intent {dup!r}")
    # alias cycles within the service's own slot graph
    for slot in svc.slots:
        seen = {slot.name}
        stack = list(slot.alias)
        while stack:
            cur = stack.pop()
            if cur == slot.name:
                raise SchemaError(
                    f"{path}.slots.{slot.name}.alias", "alias cycle detected"
                )
            if cur in seen or not svc.has_slot(cur):
                continue
            seen.add(cur)
            stack.extend(svc.slot(cur).alias)
    defined = set(slot_names)
    for intent in svc.intent_operations:
        ipath = f"{path}.intent_operations.{intent.name}"
        for lst_name in (
            "required_slots",
            "optional_slots",
            "result_slots",
            "minimum_initial_slots",
            "summary_emphasis_slots",
        ):
            for ref in getattr(intent, lst_name):
                if ref not in defined:
                    raise SchemaError(
                        f"{ipath}.{lst_name}", f"references undefined slot {ref!r}"
                    )
        req, opt, res = (
            set(intent.required_slots),
            set(intent.optional_slots),
            set(intent.result_slots),
        )
        overlap = (req & opt) | (req & res) | (opt & res)
        if overlap:
            raise SchemaError(
                ipath, f"slot {sorted(overlap)[0]!r} listed in two slot groups"
            )
        if intent.minimum_input_slot_number > len(req) + len(opt):
            raise SchemaError(
                f"{ipath}.minimum_input_slot_number",
                "exceeds number of required + optional slots",
            )


def load_schema(source: Union[Path, str]) -> ServiceSchema:
    """Load one service schema from a file path or from JSON text."""
    text = source.read_text(encoding="utf-8") if isinstance(source, Path) else source
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError("<document>", f"malformed JSON: {e}") from e
    if not isinstance(obj, dict):
        raise SchemaError("<document>", "expected a JSON object")
    _check_fields(obj, _SERVICE_FIELDS, "<document>")
    name = obj.get("service_name")
    if not isinstance(name, str) or not name:
        raise SchemaError("service_name", "must be a nonempty string")
    slots = tuple(
        _parse_slot(s, f"slots[{i}]")
        for i, s in enumerate(obj.get("slots", []))
    )
    intents = tuple(
        _parse_intent(x, f"intent_operations[{i}]")
        for i, x in enumerate(obj.get("intent_operations", []))
    )
    svc = ServiceSchema(service_name=name, intent_operations=intents, slots=slots)
    _validate_service(svc)
    return svc


def validate_schema_set(schemas: Iterable[ServiceSchema]) -> list[str]:
    """Cross-service diagnostics; empty list means the set is consistent.

    Alias targets may be abstract parent names (e.g. ``time``) that no service
    defines as a concrete slot, so only duplicates and cycles are flagged.
    """
    schemas = list(schemas)
    diagnostics = []
    seen = set()
    for svc in schemas:
        if svc.service_name in seen:
            diagnostics.append(f"duplicate service name {svc.service_name!r}")
        seen.add(svc.service_name)
    # cycle check over the union alias graph (name -> union of alias targets)
    edges: dict[str, set[str]] = {}
    for svc in schemas:
        for slot in svc.slots:
            edges.setdefault(slot.name, set()).update(slot.alias)
    state: dict[str, int] = {}  # 1 = on stack, 2 = done

    def visit(node: str, trail: tuple[str, ...]):
        if state.get(node) == 2:
            return
        if state.get(node) == 1:
            cycle = trail[trail.index(node):] + (node,)
            diagnostics.append("alias cycle: " + " -> ".join(cycle))
            return
        state[node] = 1
        for nxt in sorted(edges.get(node, ())):
            visit(nxt, trail + (node,))
        state[node] = 2

    for name in sorted(edges):
        visit(name, ())
    return diagnostics


@dataclass(frozen=True)
class SchemaSet:
    """An ordered, validated collection of service schemas."""

    services: tuple[ServiceSchema, ...]

    def __post_init__(self):
        diagnostics = validate_schema_set(self.services)
        if diagnostics:
            raise SchemaError("<schema set>", "; ".join(diagnostics))

    def service(self, name: str) -> ServiceSchema:
        for svc in self.services:
            if svc.service_name == name:
                return svc
        raise KeyError(f"no service {name!r}")

    def has_service(self, name: str) -> bool:
        return any(s.service_name == name for s in self.services)

    def subset(self, names: Iterable[str]) -> "SchemaSet":
        names = list(names)
        return SchemaSet(tuple(self.service(n) for n in names))


def load_schema_set(manifest_path: Union[str, Path]) -> SchemaSet:
    """Load the active schema set from a manifest (one filename per line,
    relative to the manifest; '#' comments allowed)."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise SchemaError(str(manifest_path), "manifest file not found")
    services = []
    for line in manifest_path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        schema_path = manifest_path.parent / line
        if not schema_path.exists():
            raise SchemaError(str(schema_path), "schema file not found")
        services.append(load_schema(schema_path))
    return SchemaSet(tuple(services))
