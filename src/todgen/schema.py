"""Per-service schema loading, validation, and indexing.

A schema file is JSON with keys ``service_name``, ``intent_operations`` and
``slots``. Each intent carries meta-indicator flags that steer plot
construction (e.g. ``require_confirmation``). Unknown fields are rejected so
meta-indicator typos fail loudly at load time, and every field must have the
type of its annotation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

from .typed import BuildError, build

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
    """Schema parse or validation failure, naming the file and the path to
    the offending field."""

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


def _validate_service(svc: ServiceSchema):
    """The checks the field annotations cannot express, each failing with a
    ``BuildError`` at the path of the offending field."""
    if not svc.service_name:
        raise BuildError(("service_name",), "must be a nonempty string")
    for key in ("slots", "intent_operations"):
        names = [x.name for x in getattr(svc, key)]
        for i, name in enumerate(names):
            if not name:
                raise BuildError((key, i, "name"), "must be a nonempty string")
            if name in names[:i]:
                raise BuildError((key, i, "name"), f"duplicate name {name!r}")
    for i, slot in enumerate(svc.slots):
        if slot.name in slot.alias:
            raise BuildError(("slots", i, "alias"),
                             f"slot {slot.name!r} aliases itself")
    for diagnostic in validate_schema_set([svc]):  # its own alias cycles
        raise BuildError(("slots",), diagnostic)
    defined = {s.name for s in svc.slots}
    for i, intent in enumerate(svc.intent_operations):
        at = ("intent_operations", i)
        n = intent.minimum_input_slot_number
        if n < 0:
            raise BuildError((*at, "minimum_input_slot_number"),
                             f"expected a count >= 0, got {n}")
        for lst_name in (
            "required_slots",
            "optional_slots",
            "result_slots",
            "minimum_initial_slots",
            "summary_emphasis_slots",
        ):
            for ref in getattr(intent, lst_name):
                if ref not in defined:
                    raise BuildError((*at, lst_name),
                                     f"references undefined slot {ref!r}")
        req, opt, res = (
            set(intent.required_slots),
            set(intent.optional_slots),
            set(intent.result_slots),
        )
        overlap = (req & opt) | (req & res) | (opt & res)
        if overlap:
            raise BuildError(
                at, f"slot {sorted(overlap)[0]!r} listed in two slot groups"
            )
        if n > len(req) + len(opt):
            raise BuildError((*at, "minimum_input_slot_number"),
                             "exceeds number of required + optional slots")


def load_schema(source: Union[Path, str]) -> ServiceSchema:
    """Load one service schema from a file path or from JSON text. The
    fields are checked by ``typed.build``, the rule configs are checked by;
    an error names the file (``<document>`` for text) and the dotted path."""
    where = str(source) if isinstance(source, Path) else "<document>"
    text = source.read_text(encoding="utf-8") if isinstance(source, Path) else source
    try:
        svc = build(ServiceSchema, json.loads(text))
        _validate_service(svc)
    except json.JSONDecodeError as e:
        raise SchemaError(where, f"malformed JSON: {e}") from e
    except BuildError as e:
        raise SchemaError(where, str(e)) from e
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
            diagnostics.append("alias cycle detected: " + " -> ".join(cycle))
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
        unknown = [n for n in names if not self.has_service(n)]
        if unknown:
            raise SchemaError("services", f"unknown services {unknown}; the "
                              f"set has {[s.service_name for s in self.services]}")
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
