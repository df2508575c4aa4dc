"""The deterministic mock backend, the default backend of every role.

The mock is a pure function of (request, seed). It answers from the
structured ``metadata`` a stage attaches beside the prompt, not from the
prompt, in the format that stage parses from a real model, so mock and HTTP
runs share code paths. Only the five tags whose answers draw seed an RNG,
from a digest of the request's canonical JSON (seed, tag, metadata and
messages), so every hint attached to them changes the answer; ``user_turn``,
``system_turn`` and ``qc_eval`` answers are pure functions of their metadata,
the same under any seed and attempt.

A real model sees only the prompt. Three values the mock reads are missing
from it: the ``context`` slots' ``potential_values``, the ``slot_values``
``contact_names``, and the ``qc_eval`` utterances, where the mock judges the
``verbosity_high mirroring`` variant while the prompt shows the default one.
``tests/test_mock.py`` lists them and fails on a new one.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from typing import Callable

from .llm import Backend, BackendError, CompletionRequest
from .plot import STYLES
from .realizer import SIX_KEYS
from .values import (FIRST_NAMES, JOB_LEVELS, PLACES, parse_display_date,
                     sample_value)

__all__ = ["MockBackend"]

_AFFILIATIONS = [
    "Northside Clinic", "Crestview Logistics", "Bluefield University",
    "Harbor Analytics", "Summit Retail Group", "Maple Grove School District",
]
_HOBBIES = ["hiking", "photography", "cooking", "gardening", "chess", "cycling"]


def _words(text: str) -> int:
    return len(text.split())


# the mock's request digest input; changing it changes every drawn answer
_CANONICAL = json.JSONEncoder(sort_keys=True, ensure_ascii=False, default=str)
_write_json = json.JSONEncoder(ensure_ascii=False).encode


class MockBackend(Backend):
    """Deterministic completion generator, a pure function of (request, seed)."""

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
        entry = _MOCK_HANDLERS.get(req.tag)
        if entry is None:
            raise BackendError(f"mock backend has no answer for tag {req.tag!r}")
        draws, handler = entry
        meta = req.metadata or {}
        return handler(self._rng(req), meta) if draws else handler(meta)


def _mock_persona_details(rng, meta) -> str:
    return json.dumps(
        {
            "location": rng.choice(PLACES),
            "affiliation": rng.choice(_AFFILIATIONS),
            "job_level": rng.choice(JOB_LEVELS),
        }
    )


def _mock_persona_intro(rng, meta) -> str:
    surname = meta.get("surname", "Doe")
    first = rng.choice(FIRST_NAMES)
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


def _mock_context(rng, meta) -> str:
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
    return _write_json(out)


def _mock_slot_values(rng, meta) -> str:
    today = parse_display_date(meta.get("today"))
    names = meta.get("contact_names") or None
    out = {}
    for spec in meta.get("slots", []):
        key = f"{spec['service']}.{spec['intent']}.{spec['slot']}"
        out[key] = sample_value(
            rng, spec["slot"], spec.get("potential_values", []), today, names
        )
    return _write_json(out)


def _mock_db_query(rng, meta) -> str:
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
    return _write_json(records)


def _mock_user_turn(meta) -> str:
    """Deterministic user message templated from per-action head + values."""
    parts = []
    for act in meta.get("action_info", []):
        head = act.get("head", "")
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
    return _write_json({"actions": meta.get("actions", []), "message": message})


def _mock_system_turn(meta) -> str:
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

    texts = {"low": low, "mid": mid, "high": high}
    variants = {}
    for key, (verbosity, mirroring) in zip(SIX_KEYS, STYLES):
        text = texts[verbosity]
        if mirroring == "yes" and mirror_phrase:
            text = f"{text[:-1]}, regarding \"{mirror_phrase}\"."
        variants[key] = text
    return _write_json(variants)


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


def _mock_qc_eval(meta) -> str:
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


# tag -> (draws, handler): a drawing handler takes (rng, meta), a pure one
# (meta) alone, and only a drawing one costs a request digest
_MOCK_HANDLERS: dict[str, tuple[bool, Callable]] = {
    "persona_details": (True, _mock_persona_details),
    "persona_intro": (True, _mock_persona_intro),
    "context": (True, _mock_context),
    "slot_values": (True, _mock_slot_values),
    "db_query": (True, _mock_db_query),
    "user_turn": (False, _mock_user_turn),
    "system_turn": (False, _mock_system_turn),
    "qc_eval": (False, _mock_qc_eval),
}
