"""Utterance realization: user turns via persona-conditioned prompting and
system turns via six-style single-pass generation, with dialog history built
from each system turn's default style."""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field

from .config import PipelineConfig, data_path
from .context import AppContext
from .llm import (
    Backend,
    ContentError,
    complete_validated,
    parse_json_object,
)
from .mr import Action, Turn, collect_literals, print_action, split_correction
from .persona import Persona
from .plot import STYLES, Plot

__all__ = [
    "SIX_KEYS",
    "StyledResponse",
    "DialogRecord",
    "RealizerError",
    "TemplateError",
    "render_template",
    "build_history",
    "realize_user_turn",
    "realize_system_turn",
    "realize_dialog",
    "style_key",
]

_write_json = json.JSONEncoder(ensure_ascii=False).encode

_SEEDED_EXCHANGE = (
    'user: {"actions": ["hello()"], "message": "Hi."}',
    'assistant: {"actions": ["offer_help()"], "message": "Hello, how can I help?"}',
)


class RealizerError(ValueError):
    pass


class VariantsError(RealizerError, ContentError):
    """Variants that break the six-style rule; a new completion may not."""


class TemplateError(ValueError):
    pass


def style_key(verbosity: str, mirroring: str) -> str:
    """('high', 'yes') -> 'verbosity_high mirroring'."""
    suffix = "mirroring" if mirroring == "yes" else "no_mirroring"
    return f"verbosity_{verbosity} {suffix}"


SIX_KEYS = tuple(style_key(*style) for style in STYLES)


@dataclass(frozen=True)
class StyledResponse:
    variants: dict  # six-key map -> utterance
    default_key: str

    def __post_init__(self):
        if self.default_key not in SIX_KEYS:
            raise RealizerError(f"bad default key {self.default_key!r}")
        blank = [k for k, v in self.variants.items()
                 if not (isinstance(v, str) and v.strip())]
        if blank or set(self.variants) != set(SIX_KEYS):
            raise VariantsError(
                f"response must have exactly the six style keys, each a "
                f"non-blank string; got {sorted(self.variants)}, blank or "
                f"not a string: {blank}"
            )

    @property
    def default_utterance(self) -> str:
        return self.variants[self.default_key]

    def to_dict(self) -> dict:
        return {"variants": dict(self.variants), "default_key": self.default_key}

    @classmethod
    def from_dict(cls, d: dict) -> "StyledResponse":
        return cls(variants=dict(d["variants"]), default_key=d["default_key"])


@dataclass(frozen=True)
class DialogRecord:
    turns: list = field(default_factory=list)  # str (user) | StyledResponse

    def validate_against(self, plot: Plot) -> None:
        if len(self.turns) != len(plot.turns):
            raise RealizerError(
                f"dialog has {len(self.turns)} turns, plot has {len(plot.turns)}"
            )
        for realized, turn in zip(self.turns, plot.turns):
            if turn.speaker == "User" and not isinstance(realized, str):
                raise RealizerError("user turn must be a plain utterance")
            if turn.speaker == "System" and not isinstance(realized, StyledResponse):
                raise RealizerError("system turn must be a styled response")

    def to_dict(self) -> dict:
        return {
            "turns": [
                t if isinstance(t, str) else t.to_dict() for t in self.turns
            ]
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DialogRecord":
        return cls(
            turns=[
                t if isinstance(t, str) else StyledResponse.from_dict(t)
                for t in d["turns"]
            ]
        )


_PLACEHOLDER = re.compile(r"\{\{\s*([A-Za-z_][\w\[\]\.]*)\s*\}\}")


@functools.cache
def _template(name: str) -> str:
    """A bundled template's text, read once per process (failures are not)."""
    try:
        return data_path("templates", name).read_text(encoding="utf-8")
    except OSError as e:
        raise TemplateError(f"cannot read template {name!r}: {e}")


def render_template(name: str, bindings: dict) -> str:
    """Substitute ``{{ variable }}`` placeholders; unbound variables error."""

    def sub(m: re.Match) -> str:
        var = m.group(1)
        if var not in bindings:
            raise TemplateError(f"unbound template variable {var!r} in {name!r}")
        return str(bindings[var])

    return _PLACEHOLDER.sub(sub, _template(name))


def _requested_slot(action: Action) -> str:
    for arg in action.args:
        if arg.value is None and arg.keyword:
            return arg.keyword
    return "that"


def _action_info(turn: Turn) -> list:
    """Per action: its head, its literals, the value its self-correction
    changes to (None without one) and the slot it requests."""
    info = []
    for action in turn.actions:
        base, correction = split_correction(action)
        info.append(
            {
                "head": action.head,
                "values": collect_literals(base),
                "correction_new": (correction.args[0].value
                                   if correction and correction.args else None),
                "requested_slot": _requested_slot(base),
            }
        )
    return info


def build_history(actions: list[str], utterance) -> str:
    """One prompt-ready history line for a realized turn: its printed actions
    and its utterance, a system turn shown in its default style."""
    if isinstance(utterance, StyledResponse):
        role, message = "assistant", utterance.default_utterance
    else:
        role, message = "user", utterance
    return f"{role}: " + _write_json({"actions": actions, "message": message})


def _context_summary(contexts: dict[str, AppContext]) -> str:
    if not contexts:
        return "{}"
    first = next(iter(contexts.values()))
    payload = {"today": first.today, "time": first.time}
    for name, ctx in contexts.items():
        payload[name] = ctx.records
    return _write_json(payload)


def realize_user_turn(
    turn: Turn,
    actions: list[str],
    history: str,
    persona: Persona,
    context: str,
    situation: str,
    llm: Backend,
    config: PipelineConfig,
) -> str:
    """``context`` is the dialog's context summary, encoded once per dialog."""
    if turn.speaker != "User":
        raise RealizerError("realize_user_turn needs a user turn")
    prompt = render_template(
        "user.txt",
        {
            "user_intro": persona.introduction,
            "context": context,
            "situation": situation,
            "history": history,
            "action[cur_turn]": _write_json(actions),
            "user_style_instruction": persona.speaking_habit,
        },
    )

    def parse(completion: str) -> str:
        message = parse_json_object(completion).get("message")
        if not (isinstance(message, str) and message.strip()):
            raise ContentError("completion has no 'message' key")
        return message.strip()

    return complete_validated(
        llm, config, "user_turn", prompt,
        {"actions": actions, "action_info": _action_info(turn)}, parse,
        RealizerError)


def realize_system_turn(
    turn: Turn,
    actions: list[str],
    history: str,
    situation: str,
    default_style: tuple[str, str],
    last_user_utterance: str,
    llm: Backend,
    config: PipelineConfig,
) -> StyledResponse:
    if turn.speaker != "System":
        raise RealizerError("realize_system_turn needs a system turn")
    prompt = render_template(
        "system.txt",
        {
            "situation": situation,
            "history": history,
            "action[cur_turn]": _write_json({k: actions for k in SIX_KEYS}),
        },
    )
    metadata = {
        "action_info": _action_info(turn),
        "last_user_utterance": last_user_utterance,
    }

    def parse(completion: str) -> StyledResponse:
        # StyledResponse raises a retried ContentError for bad variants;
        # key-sorted, as dialogs.jsonl stores them
        variants = parse_json_object(completion)
        return StyledResponse(variants=dict(sorted(variants.items())),
                              default_key=style_key(*default_style))

    return complete_validated(llm, config, "system_turn", prompt, metadata,
                              parse, RealizerError)


def realize_dialog(
    plot: Plot,
    persona: Persona,
    contexts: dict[str, AppContext],
    user_llm: Backend,
    system_llm: Backend,
    config: PipelineConfig,
) -> DialogRecord:
    """Realize all turns in plot order; each turn sees the history of the
    default-styled turns before it."""
    if len(plot.default_styles) != len(plot.system_turns):
        raise RealizerError("plot is missing default styles; assign them first")
    situation = ", ".join(plot.services)
    context = _context_summary(contexts)
    history = list(_SEEDED_EXCHANGE)  # one line per realized turn follows
    default_styles = iter(plot.default_styles)
    realized: list = []
    last_user = ""
    for turn in plot.turns:
        actions = [print_action(a) for a in turn.actions]
        if turn.speaker == "User":
            utterance = last_user = realize_user_turn(
                turn, actions, "\n".join(history), persona, context,
                situation, user_llm, config,
            )
        else:
            utterance = realize_system_turn(
                turn,
                actions,
                "\n".join(history),
                situation,
                next(default_styles),
                last_user,
                system_llm,
                config,
            )
        realized.append(utterance)
        history.append(build_history(actions, utterance))
    # built in plot order, so aligned by construction; Datapoint checks it
    return DialogRecord(turns=realized)
