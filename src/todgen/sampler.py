"""Sampling of dialog structure: kind, intents, phenomena, and slot values."""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from typing import Optional

from .config import PipelineConfig
from .context import AppContext, context_today
from .llm import (
    Backend,
    CompletionRequest,
    ContentError,
    complete_validated,
    parse_json_object,
)
from .schema import SchemaSet

__all__ = [
    "DialogSpecimen",
    "CompositionalPair",
    "SamplerError",
    "sample_kind",
    "enumerate_compositional_pool",
    "sample_compositional",
    "generate_slot_values",
    "sample_specimen",
]

KINDS = ("Compound", "Compositional", "Single")
SELF_CORRECTION = "self_correction"
COMPLEX_REFERRAL = "complex_referral"


class SamplerError(ValueError):
    pass


@dataclass(frozen=True)
class CompositionalPair:
    outer_service: str
    outer_intent: str
    outer_slot: str  # input slot of the outer intent
    inner_service: str
    inner_intent: str
    inner_slot: str  # result slot of the inner intent


@dataclass
class DialogSpecimen:
    kind: str
    intents: tuple[tuple[str, str], ...]
    phenomena: frozenset
    persona_id: str
    matched_slot: Optional[tuple[str, str]] = None  # (inner result, outer input)
    slot_values: dict = field(default_factory=dict)  # "svc.intent.slot" -> value
    context_targets: dict = field(default_factory=dict)  # "svc.intent" -> index

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SamplerError(f"bad kind {self.kind!r}")
        if self.kind == "Single" and len(self.intents) != 1:
            raise SamplerError("Single specimen needs exactly 1 intent")
        if self.kind in ("Compound", "Compositional") and len(self.intents) != 2:
            raise SamplerError(f"{self.kind} specimen needs exactly 2 intents")
        if self.kind == "Compositional" and self.matched_slot is None:
            raise SamplerError("Compositional specimen needs matched_slot")

    def value(self, service: str, intent: str, slot: str):
        return self.slot_values.get(f"{service}.{intent}.{slot}")

    def set_value(self, service: str, intent: str, slot: str, value) -> None:
        self.slot_values[f"{service}.{intent}.{slot}"] = value

    def target_index(self, service: str, intent: str) -> Optional[int]:
        return self.context_targets.get(f"{service}.{intent}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "intents": [list(i) for i in self.intents],
            "phenomena": sorted(self.phenomena),
            "persona_id": self.persona_id,
            "matched_slot": list(self.matched_slot) if self.matched_slot else None,
            "slot_values": self.slot_values,
            "context_targets": self.context_targets,
        }


def sample_kind(
    rng: random.Random,
    kind_ratios: tuple[float, float, float],
    self_correction_rate: float,
    complex_referral_rate: float,
) -> tuple[str, frozenset]:
    """Kind from the configured categorical (compound, compositional, single),
    whose ratios ``PipelineConfig`` checks; local phenomena flags drawn
    independently."""
    kind = rng.choices(KINDS, weights=kind_ratios)[0]
    phenomena = set()
    if rng.random() < self_correction_rate:
        phenomena.add(SELF_CORRECTION)
    if rng.random() < complex_referral_rate:
        phenomena.add(COMPLEX_REFERRAL)
    return kind, frozenset(phenomena)


@functools.cache
def enumerate_compositional_pool(schemas: SchemaSet) -> tuple[CompositionalPair, ...]:
    """All valid (outer input slot, inner result slot) matches: the outer
    input slot name must equal the inner result slot or appear in its alias
    closure (the outer slot is a super-set of the inner result). Computed
    once per schema set."""
    pool = []
    for inner_svc in schemas.services:
        for inner_intent in inner_svc.intent_operations:
            for s_out in inner_intent.result_slots:
                superset_names = inner_svc.alias_closure(s_out)
                for outer_svc in schemas.services:
                    for outer_intent in outer_svc.intent_operations:
                        if (outer_svc.service_name, outer_intent.name) == (
                            inner_svc.service_name,
                            inner_intent.name,
                        ):
                            continue
                        # an outer intent that edits an existing record takes
                        # its inputs from that record, not from the user query,
                        # so it cannot host a nested value action
                        if outer_intent.require_context:
                            continue
                        for s_in in outer_intent.input_slots:
                            if s_in in superset_names:
                                pool.append(
                                    CompositionalPair(
                                        outer_service=outer_svc.service_name,
                                        outer_intent=outer_intent.name,
                                        outer_slot=s_in,
                                        inner_service=inner_svc.service_name,
                                        inner_intent=inner_intent.name,
                                        inner_slot=s_out,
                                    )
                                )
    return tuple(pool)


def sample_compositional(rng: random.Random, schemas: SchemaSet) -> CompositionalPair:
    pool = enumerate_compositional_pool(schemas)
    if not pool:
        raise SamplerError("no valid compositional intent pairs in the schema set")
    return pool[rng.randrange(len(pool))]


def _all_intent_pairs(schemas: SchemaSet) -> list[tuple[str, str]]:
    return [
        (svc.service_name, intent.name)
        for svc in schemas.services
        for intent in svc.intent_operations
    ]


def _is_context_intent(schemas: SchemaSet, pair: tuple[str, str]) -> bool:
    return schemas.service(pair[0]).intent(pair[1]).require_context


def _sample_intent(
    rng: random.Random, choices: list[tuple[str, str]]
) -> tuple[str, str]:
    if not choices:
        raise SamplerError("no intents available under the sampling constraints")
    return choices[rng.randrange(len(choices))]


def sample_specimen(
    rng: random.Random,
    schemas: SchemaSet,
    persona_id: str,
    contexts: dict[str, AppContext],
    llm: Backend,
    config: PipelineConfig,
    dialog_id: str = "",
) -> DialogSpecimen:
    """Sample one dialog's structure and fill its slot values."""
    kind, phenomena = sample_kind(
        rng,
        config.kind_ratios,
        config.self_correction_rate,
        config.complex_referral_rate,
    )
    all_pairs = _all_intent_pairs(schemas)
    context_pairs = [
        p for p in all_pairs
        if _is_context_intent(schemas, p) and contexts.get(p[0]) and
        contexts[p[0]].records
    ]
    plain_pairs = [p for p in all_pairs if not _is_context_intent(schemas, p)]
    want_referral = COMPLEX_REFERRAL in phenomena and bool(context_pairs)
    no_context_dialog = (not want_referral) and rng.random() < config.no_context_probability
    pool = plain_pairs if no_context_dialog else all_pairs

    matched = None
    if kind == "Compositional":
        try:
            pair = sample_compositional(rng, schemas)
        except SamplerError:
            kind = "Single"  # degenerate schema set; fall back
        else:
            intents = (
                (pair.outer_service, pair.outer_intent),
                (pair.inner_service, pair.inner_intent),
            )
            matched = (pair.inner_slot, pair.outer_slot)
    if kind == "Compound":
        first = _sample_intent(rng, context_pairs if want_referral else pool)
        second = _sample_intent(rng, [p for p in pool if p != first])
        intents = (first, second)
    elif kind == "Single":
        intents = (_sample_intent(rng, context_pairs if want_referral else pool),)

    # a referral needs one of the intents to act on a context record
    if COMPLEX_REFERRAL in phenomena and not (
        want_referral and any(p in context_pairs for p in intents)
    ):
        phenomena = phenomena - {COMPLEX_REFERRAL}

    spec = DialogSpecimen(
        kind=kind,
        intents=intents,
        phenomena=phenomena,
        persona_id=persona_id,
        matched_slot=matched,
    )
    generate_slot_values(spec, schemas, contexts, llm, config, rng,
                         dialog_id=dialog_id)
    return spec


def generate_slot_values(
    spec: DialogSpecimen,
    schemas: SchemaSet,
    contexts: dict[str, AppContext],
    llm: Backend,
    config: PipelineConfig,
    rng: random.Random,
    dialog_id: str = "",
) -> dict:
    """Fill all slot values with a single backend completion.

    Context-interaction intents copy values from a sampled context record
    instead of asking the backend; a compositional outer's matched slot takes
    the inner intent's result value. Input slots are listed before result
    slots so generated outputs can condition on the inputs.
    """
    fill: list[dict] = []  # ordered prompt slots
    # compositional: the inner (service, intent, result slot) fills the outer
    # (service, intent, input slot)
    inner = outer = None
    if spec.kind == "Compositional":
        inner_slot, outer_slot = spec.matched_slot
        inner = (*spec.intents[1], inner_slot)
        outer = (*spec.intents[0], outer_slot)

    def add_fill(service, intent, slot):
        slot_spec = schemas.service(service).slot(slot)
        fill.append(
            {
                "service": service,
                "intent": intent,
                "slot": slot,
                "potential_values": list(slot_spec.potential_values),
            }
        )

    for service, intent_name in spec.intents:
        intent = schemas.service(service).intent(intent_name)
        if intent.require_context:
            ctx = contexts.get(service)
            if ctx is None or not ctx.records:
                raise SamplerError(
                    f"intent {service}.{intent_name} requires a context"
                )
            idx = rng.randrange(len(ctx.records))
            spec.context_targets[f"{service}.{intent_name}"] = idx
            record = ctx.records[idx]
            for slot, value in record.items():
                spec.set_value(service, intent_name, slot, value)
            # new values for a modify-style context intent come from the backend
            n = intent.minimum_input_slot_number
            if intent.performs_operation and intent.optional_slots and n > 0:
                k = min(n, len(intent.optional_slots))
                for slot in rng.sample(list(intent.optional_slots), k=k):
                    add_fill(service, f"{intent_name}.new", slot)
        else:
            for slot in intent.input_slots:
                # the outer's matched slot comes from the inner intent
                if (service, intent_name, slot) != outer:
                    add_fill(service, intent_name, slot)

    # compositional: the inner result value is generated last so it can
    # condition on the inputs, unless the inner is a context check (then it
    # is read straight from the target record)
    if inner is not None and \
            not schemas.service(inner[0]).intent(inner[1]).require_context:
        add_fill(*inner)

    if fill:
        today = context_today(contexts)
        contact_names = [
            str(r.get("name", ""))
            for r in (contexts.get("contacts").records if contexts.get("contacts") else [])
        ]
        prompt = (
            "Generate a consistent value for every listed slot. Return JSON "
            "mapping 'service.intent.slot' to the value. Slots: "
            + json.dumps(fill)
            + (f" Today is {today}." if today else "")
        )
        request = CompletionRequest(
            messages=(("user", prompt),),
            temperature=config.temperature, max_tokens=config.max_tokens,
            tag="slot_values",
            metadata={
                "slots": fill,
                "today": today,
                "contact_names": contact_names,
                "dialog": dialog_id,
            },
        )

        def parse(completion: str) -> dict:
            values = parse_json_object(completion)
            for slot_spec in fill:
                key = (
                    f"{slot_spec['service']}.{slot_spec['intent']}."
                    f"{slot_spec['slot']}"
                )
                if key not in values:
                    raise ContentError(f"missing value for {key}")
                allowed = slot_spec["potential_values"]
                if allowed and str(values[key]) not in allowed:
                    raise ContentError(
                        f"value {values[key]!r} not allowed for {key}")
            return values

        spec.slot_values.update(complete_validated(
            llm, request, parse, config.content_retries, SamplerError))

    # propagate the inner result into the outer matched slot
    if inner is not None:
        value = spec.value(*inner)
        if value is None:
            raise SamplerError(f"inner result {'.'.join(inner)} has no value")
        spec.set_value(*outer, value)
    return spec.slot_values
