"""Two-step quality control: deterministic sanity checks (format leaks, slot
coverage) followed by a backend-evaluated consistency screen.

Inconsistent evaluator verdicts flag a datapoint for review; only the
deterministic checks can drop one.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .config import PipelineConfig
from .dataset import Datapoint
from .llm import Backend, ContentError, complete_validated
from .mr import collect_literals, print_action
from .realizer import StyledResponse, render_template
from .runner import run_dialogs
from .values import WEEKDAYS

__all__ = [
    "QCReport",
    "check_unformatted",
    "check_slot_coverage",
    "evaluate_consistency",
    "run_qc",
    "value_variants",
]


# leak patterns: internal representations that must never surface verbatim
_ISO_DATETIME = re.compile(r"\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}")
_ISO_DATE = re.compile(r"(?<![\w-])(\d{4}-\d{2}-\d{2})(?![\w-])")
_PLACEHOLDER = re.compile(r"\{\{[^}]*\}\}")
_MR_FRAGMENT = re.compile(r"\b[A-Za-z_]\w*\([^()]*=[^()]*\)")


@dataclass
class QCReport:
    datapoint_id: str
    verdicts: dict = field(default_factory=dict)  # check name -> "pass"/"fail"
    details: list = field(default_factory=list)
    disposition: str = "keep"  # keep | drop | flag-for-review

    def __post_init__(self):
        if self.disposition not in ("keep", "drop", "flag-for-review"):
            raise ValueError(f"bad disposition {self.disposition!r}")

    def to_dict(self) -> dict:
        return {
            "datapoint_id": self.datapoint_id,
            "verdicts": dict(self.verdicts),
            "details": list(self.details),
            "disposition": self.disposition,
        }


def _iter_utterances(dp: Datapoint):
    """(turn index, label, utterance) over user turns and every system
    variant."""
    for i, realized in enumerate(dp.dialog.turns):
        if isinstance(realized, str):
            yield i, "user", realized
        elif isinstance(realized, StyledResponse):
            for key, text in realized.variants.items():
                yield i, key, text


def check_unformatted(dp: Datapoint) -> tuple[str, list]:
    """Fail on bare ISO dates (no weekday display form), ISO datetimes,
    unresolved template placeholders, or raw MR fragments in any utterance."""
    details = []
    for i, label, text in _iter_utterances(dp):
        if _ISO_DATETIME.search(text):
            details.append(
                f"turn {i} ({label}): ISO datetime "
                f"{_ISO_DATETIME.search(text).group(0)!r}"
            )
            continue
        for m in _ISO_DATE.finditer(text):
            start = m.start()
            prefix = text[max(0, start - 4):start]
            if not any(prefix.startswith(w) for w in WEEKDAYS):
                details.append(f"turn {i} ({label}): bare ISO date {m.group(1)!r}")
                break
        if _PLACEHOLDER.search(text):
            details.append(
                f"turn {i} ({label}): unresolved placeholder "
                f"{_PLACEHOLDER.search(text).group(0)!r}"
            )
        if _MR_FRAGMENT.search(text):
            details.append(
                f"turn {i} ({label}): raw action fragment "
                f"{_MR_FRAGMENT.search(text).group(0)!r}"
            )
    return ("fail" if details else "pass"), details


_NUMBER_WORDS = (
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
    "nine", "ten", "eleven", "twelve",
)


def value_variants(value) -> tuple[str, ...]:
    """Normalized surface forms a value may legitimately take in text."""
    text = str(value).casefold()
    variants = [text]
    if isinstance(value, int) and 0 <= value <= 12:
        variants.append(_NUMBER_WORDS[value])
    if isinstance(value, str):
        # 24h time -> 12h clock form ("20:00" ~ "8:00 pm")
        m = re.fullmatch(r"(\d{1,2}):(\d{2})", value)
        if m:
            hour, minute = int(m.group(1)), m.group(2)
            suffix = "am" if hour < 12 else "pm"
            hour12 = hour % 12 or 12
            variants.append(f"{hour12}:{minute} {suffix}")
        # weekday display date ~ bare ISO date (it may appear weekday-first)
        m = re.fullmatch(r"(mon|tue|wed|thu|fri|sat|sun) (\d{4}-\d{2}-\d{2})",
                         text)
        if m:
            variants.append(m.group(2))
        if value.isdigit() and 0 <= int(value) <= 12:
            variants.append(_NUMBER_WORDS[int(value)])
    return tuple(variants)


def _covers(utterance: str, value) -> bool:
    folded = utterance.casefold()
    return any(v in folded for v in value_variants(value))


def _checked_turns(dp: Datapoint):
    """(values, label, utterance) per turn: the literal slot values of the
    turn's actions and the utterance that must carry them. A system turn is
    checked in its high-verbosity mirroring variant only (the most
    complete)."""
    for turn, realized in zip(dp.plot.turns, dp.dialog.turns):
        values = [v for action in turn.actions for v in collect_literals(action)]
        if isinstance(realized, str):
            yield values, "user", realized
        else:
            label = "verbosity_high mirroring"
            yield values, label, realized.variants[label]


def check_slot_coverage(dp: Datapoint) -> tuple[str, list]:
    """Every literal slot value in a turn's actions must appear in the turn's
    utterance."""
    details = [
        f"value {value!r} missing from {label} utterance {utterance!r}"
        for values, label, utterance in _checked_turns(dp)
        for value in values
        if not _covers(utterance, value)
    ]
    return ("fail" if details else "pass"), details


def _actions_and_utterances(dp: Datapoint) -> str:
    lines = []
    for turn, realized in zip(dp.plot.turns, dp.dialog.turns):
        actions = ", ".join(print_action(a) for a in turn.actions)
        if isinstance(realized, str):
            lines.append(f"user actions: [{actions}]")
            lines.append(f"user: {realized}")
        else:
            lines.append(f"assistant actions: [{actions}]")
            lines.append(f"assistant: {realized.default_utterance}")
    return "\n".join(lines)


def evaluate_consistency(
    dp: Datapoint, llm: Backend, config: PipelineConfig
) -> tuple[str, str]:
    """Backend consistency screen; returns (verdict, rationale) where verdict
    is 'consistent', 'inconsistent', or 'unparseable'."""
    context_payload = json.dumps(
        [c.to_dict() for c in dp.contexts.values()], ensure_ascii=False
    )
    prompt = render_template(
        "qc.txt",
        {
            "context": context_payload,
            "actions_and_utterances": _actions_and_utterances(dp),
        },
    )
    pairs = [{"utterance": utterance, "values": values}
             for values, _, utterance in _checked_turns(dp)]

    def parse(completion: str) -> tuple[str, str]:
        text = completion.strip()
        lowered = text.lower()
        for verdict in ("inconsistent", "consistent"):
            if lowered.startswith(verdict):
                return verdict, text
        raise ContentError("no verdict")

    try:
        return complete_validated(llm, config, "qc_eval", prompt,
                                  {"pairs": pairs, "datapoint": dp.id}, parse)
    except ContentError:
        return "unparseable", "no parseable verdict from the evaluator"


def run_qc(dps: list, llm: Backend, config: PipelineConfig) -> list:
    """Full QC pass. Deterministic failures drop; evaluator disagreement (or
    an unparseable evaluator) flags for review, never drops. Runs up to
    ``config.max_concurrency`` datapoints at once; reports keep input order."""

    def report(dp: Datapoint) -> QCReport:
        verdicts, details = {}, []
        v, d = check_unformatted(dp)
        verdicts["unformatted"] = v
        details.extend(d)
        v, d = check_slot_coverage(dp)
        verdicts["slot_coverage"] = v
        details.extend(d)
        if any(v == "fail" for v in verdicts.values()):
            disposition = "drop"
        else:
            verdict, rationale = evaluate_consistency(dp, llm, config)
            verdicts["consistency"] = (
                "pass" if verdict == "consistent" else "fail"
            )
            if verdict == "consistent":
                disposition = "keep"
            else:
                disposition = "flag-for-review"
                details.append(rationale)
        return QCReport(
            datapoint_id=dp.id,
            verdicts=verdicts,
            details=details,
            disposition=disposition,
        )

    return run_dialogs(report, dps, config.max_concurrency)
