"""Action-plot construction: slot-filling flow, multi-intent merging,
phenomena injection, referring expressions, database queries, and default
response styles."""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import combinations, product
from typing import Optional

from .config import PipelineConfig
from .context import AppContext, context_today
from .llm import (
    Backend,
    ContentError,
    complete_validated,
    parse_json_object,
)
from .mr import (
    CORRECTION,
    INDEX,
    ORDERED_BY,
    SELECTORS,
    Action,
    Arg,
    Call,
    FieldAccess,
    Turn,
    getter_head,
    getter_service,
    index_referral,
    matching_records,
    parse_action_list,
    print_action_list,
    referral_filters,
    select_records,
    split_correction,
)
from .sampler import COMPLEX_REFERRAL, SELF_CORRECTION, DialogSpecimen
from .schema import IntentSpec, SchemaSet
from .values import parse_display_date, sample_value

__all__ = [
    "Plot",
    "PlotError",
    "build_plot",
    "build_single_plot",
    "merge_compound",
    "merge_compositional",
    "inject_phenomena",
    "choose_referring_expression",
    "query_database",
    "assign_default_styles",
    "derive_labels",
]

# Referring-expression slot preference per context service, most intuitive
# first (time-like slots beat locations).
PREFERENCE_ORDERS = {
    "alarms": ("time", "name"),
    "calendar_events": ("start_time", "name", "date", "location"),
    "messages": ("sender", "time"),
    "reminders": ("time", "content", "date"),
    "contacts": ("name", "phone_number"),
}


class PlotError(ValueError):
    pass


# every (verbosity, mirroring) a system turn's default style can take
STYLES = tuple(product(("low", "mid", "high"), ("yes", "no")))


@dataclass(frozen=True)
class Plot:
    turns: tuple  # tuple[Turn], strictly alternating, first is User
    services: tuple = ()
    intents: tuple = ()  # "service.intent" strings
    # per-system-turn (verbosity, mirroring) aligned with system turn order
    default_styles: tuple = ()
    # read off the turns
    kind: str = field(init=False)
    phenomena: tuple = field(init=False)

    def __post_init__(self):  # runs on every build, replace() included
        object.__setattr__(self, "turns", tuple(self.turns))
        for name in ("services", "intents"):
            names = getattr(self, name)
            if not (isinstance(names, (list, tuple))
                    and all(isinstance(n, str) and n for n in names)):
                raise PlotError(f"{name} {names!r} is not a list of non-empty strings")
            object.__setattr__(self, name, tuple(names))
        object.__setattr__(self, "default_styles",
                           tuple(tuple(s) for s in self.default_styles))
        if not self.turns:
            raise PlotError("empty plot")
        if self.turns[0].speaker != "User":
            raise PlotError("first turn must be the user's")
        for prev, cur in zip(self.turns, self.turns[1:]):
            if prev.speaker == cur.speaker:
                raise PlotError(f"speakers do not alternate at {cur}")
        styles = self.default_styles
        if styles and len(styles) != len(self.system_turns):
            raise PlotError(f"{len(styles)} default styles for "
                            f"{len(self.system_turns)} system turns")
        if not set(styles).issubset(STYLES):
            raise PlotError(f"default styles {styles} are not all "
                            f"low/mid/high x yes/no pairs")
        initial = self.turns[0].actions
        if len(initial) > 1:
            kind = "Compound"
        elif any(isinstance(a.value, Action) for a in initial[0].args):
            kind = "Compositional"
        else:
            kind = "Single"
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "phenomena", derive_phenomena(self.turns))

    @property
    def system_turns(self) -> list:
        return [t for t in self.turns if t.speaker == "System"]

    def to_text(self) -> str:
        return "\n".join(
            f"@{t.speaker}@: {print_action_list(t.actions)}" for t in self.turns
        )

    @property
    def labels(self) -> dict:
        return {
            "services": list(self.services),
            "intents": list(self.intents),
            "kind": self.kind,
            "phenomena": list(self.phenomena),
        }

    def to_dict(self) -> dict:
        return {
            "turns": self.to_text(),
            "default_styles": [list(s) for s in self.default_styles],
            "labels": self.labels,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Plot":
        """The plot :meth:`to_dict` wrote; a missing key raises ``KeyError``
        and a stored kind or phenomena the turns do not show, ``PlotError``."""
        turns = []
        # MR strings are JSON, which leaves \r, \x85, \u2028... unescaped
        for line in d["turns"].split("\n"):
            speaker, _, rest = line.partition("@: ")
            turns.append(Turn(speaker.lstrip("@"), parse_action_list(rest)))
        labels = d["labels"]
        plot = cls(
            turns=turns,
            services=labels["services"],
            intents=labels["intents"],
            default_styles=d["default_styles"],
        )
        derived = plot.labels
        for key in ("kind", "phenomena"):
            if labels[key] != derived[key]:
                raise PlotError(f"stored {key} {labels[key]!r} != "
                                f"{derived[key]!r} read off the turns")
        return plot


def choose_referring_expression(
    target: dict, records: list, preference: tuple[str, ...]
) -> tuple[str, ...]:
    """Smallest slot set that uniquely identifies the target record; ties on
    size resolve to the most preferred combination in preference order."""
    if not any(r is target or r == target for r in records):
        raise PlotError("target record is not in the context")
    usable = [s for s in preference if s in target]
    for size in range(1, len(usable) + 1):
        for combo in combinations(usable, size):
            matches = matching_records(records, [(s, target[s]) for s in combo])
            if len(matches) == 1:
                return combo
    raise PlotError("no referring expression disambiguates the target record")


def query_database(
    service: str,
    intent: IntentSpec,
    input_values: dict,
    llm: Backend,
    config: PipelineConfig,
    today: str = "",
) -> list[dict]:
    """One backend completion producing 5 result records consistent with
    every input value."""
    if not (intent.report_result or intent.return_list):
        raise PlotError(f"intent {intent.name!r} does not query a database")
    prompt = (
        f"Simulate a database search for {service}.{intent.name}. Given the "
        f"conditions {json.dumps(input_values)}, return a JSON array of 5 "
        f"different records, each echoing the conditions and filling "
        f"{list(intent.result_slots)}."
        + (f" Today is {today}." if today else "")
    )
    metadata = {
        "input_values": input_values,
        "result_slots": list(intent.result_slots),
        "today": today,
        "service": service,
        "intent": intent.name,
    }

    def parse(completion: str) -> list[dict]:
        records = parse_json_object(completion, "[")
        if len(records) != 5:
            raise ContentError("expected exactly 5 records")
        if not all(isinstance(r, dict) for r in records):
            raise ContentError("record is not an object")
        if len(matching_records(records, input_values.items())) != 5:
            raise ContentError("a record does not echo every input value")
        missing = [s for s in intent.result_slots if any(s not in r for r in records)]
        if missing:
            raise ContentError(f"record missing result slot {missing[0]!r}")
        return records

    return complete_validated(llm, config, "db_query", prompt, metadata,
                              parse, PlotError)


def _value_args(values: dict, slots) -> tuple[Arg, ...]:
    return tuple(Arg(s, values[s]) for s in slots if s in values)


def _input_values(spec: DialogSpecimen, service: str, intent: IntentSpec) -> dict:
    """The specimen's value of each input slot that has one."""
    return {s: v for s in intent.input_slots
            if (v := spec.value(service, intent.name, s)) is not None}


def _build_context_initial(
    service: str,
    intent: IntentSpec,
    spec: DialogSpecimen,
    contexts: dict[str, AppContext],
    prefix: str,
) -> tuple[Action, Action, dict]:
    """User initial action, the system-side target reference and the target
    record of a context-interaction intent."""
    ctx = contexts.get(service)
    if ctx is None:
        raise PlotError(f"{service}.{intent.name} requires an app context")
    idx = spec.target_index(service, intent.name)
    if idx is None or idx >= len(ctx.records):
        raise PlotError(f"no context target for {service}.{intent.name}")
    target = ctx.records[idx]
    preference = PREFERENCE_ORDERS.get(service) or tuple(target)
    try:
        ref_slots = choose_referring_expression(target, ctx.records, preference)
    except PlotError:
        ref_slots = ()  # duplicate records; fall back to an index referral
    if ref_slots:
        getter_args = tuple(Arg(s, target[s]) for s in ref_slots)
    else:
        getter_args = index_referral(ctx.records, target, preference[0])
    # what the operation acts on / reports: keyword new values for state
    # changes, bare emphasis slots otherwise
    new_values = {
        slot: spec.slot_values[f"{service}.{intent.name}.new.{slot}"]
        for slot in intent.optional_slots
        if f"{service}.{intent.name}.new.{slot}" in spec.slot_values
    }
    if new_values:
        op_args = tuple(Arg(k, v) for k, v in new_values.items())
    else:
        emphasis = intent.summary_emphasis_slots or intent.result_slots[:1]
        op_args = tuple(Arg(s, None) for s in emphasis)
    getter = getter_head(service)
    user_action = Action(
        getter, getter_args, (Call(f"{prefix}{intent.name}", op_args),)
    )
    target_action = Action(getter, getter_args, (Call(intent.name, op_args),))
    return user_action, target_action, target


def _choose_initial_slots(
    intent: IntentSpec, values: dict, rng: random.Random,
    config: PipelineConfig, forced: tuple[str, ...] = (),
) -> tuple[str, ...]:
    """The input slots of an intent's opening query, in schema order: its
    minimum initial slots and ``forced``, each other required slot with
    probability 1/2 and each optional slot that has a value with
    ``optional_slot_probability``, padded with valued slots up to
    ``minimum_input_slot_number``."""
    chosen = list(intent.minimum_initial_slots)
    chosen += [s for s in forced if s not in chosen]
    for slot in intent.required_slots:
        if slot not in chosen and rng.random() < 0.5:
            chosen.append(slot)
    for slot in intent.optional_slots:
        if (slot in values and slot not in chosen
                and rng.random() < config.optional_slot_probability):
            chosen.append(slot)
    pending = [s for s in intent.input_slots if s not in chosen and s in values]
    while len(chosen) < intent.minimum_input_slot_number and pending:
        chosen.append(pending.pop(0))
    return tuple(s for s in intent.input_slots if s in chosen)


def build_single_plot(
    spec: DialogSpecimen,
    service_intent: tuple[str, str],
    schemas: SchemaSet,
    contexts: dict[str, AppContext],
    rng: random.Random,
    llm: Backend,
    config: PipelineConfig,
    prefix: str = "",
    initial_slots: Optional[tuple[str, ...]] = None,
    forced: tuple[str, ...] = (),
) -> Plot:
    """Plot for one intent: an initial query (a context record reference, or
    slot values plus one information request per missing required slot),
    optional confirmation, result reporting, and a terminal completion
    notice. ``initial_slots`` pins the query's slots; otherwise they are
    drawn, always including ``forced``."""
    service, intent_name = service_intent
    intent = schemas.service(service).intent(intent_name)

    # the opening turns, the action the intent performs (what is confirmed
    # and notified), and the records whose values are reported
    if intent.require_context:
        user_action, subject, target = _build_context_initial(
            service, intent, spec, contexts, prefix
        )
        turns = [Turn("User", (user_action,))]
        records = [target] if intent.report_result else []
    else:
        values = _input_values(spec, service, intent)
        missing_values = [s for s in intent.required_slots if s not in values]
        if missing_values:
            raise PlotError(
                f"specimen lacks a value for required slot {missing_values[0]!r}"
            )
        if initial_slots is None:
            initial_slots = _choose_initial_slots(intent, values, rng, config,
                                                  forced)
        used_slots = tuple(
            s for s in intent.input_slots
            if s in values and (s in initial_slots or s in intent.required_slots)
        )
        head = f"{prefix}{intent_name}"
        turns = [Turn("User", (Action(head, _value_args(values, initial_slots)),))]
        for slot in intent.required_slots:
            if slot in initial_slots:
                continue
            turns.append(
                Turn(
                    "System",
                    (Action(f"{prefix}request_information", (Arg(slot, None),)),),
                )
            )
            turns.append(
                Turn(
                    "User",
                    (Action(f"{prefix}inform_information",
                            (Arg(slot, values[slot]),)),),
                )
            )
        subject = Action(intent_name, _value_args(values, used_slots))
        records = []
        if intent.report_result or intent.return_list:
            inputs = {s: values[s] for s in used_slots}
            # a pre-generated result value (compositional inner) constrains
            # the query
            for slot in intent.result_slots:
                fixed = spec.value(service, intent_name, slot)
                if fixed is not None:
                    inputs[slot] = fixed
            records = query_database(service, intent, inputs, llm, config,
                                     context_today(contexts))
            if not intent.return_list:
                records = records[:1]

    if intent.require_confirmation:
        turns.append(
            Turn("System", (Action(f"{prefix}ask_confirm", (Arg(None, subject),)),))
        )
        turns.append(Turn("User", (Action(f"{prefix}confirm"),)))
    final_actions = []
    emphasis = intent.summary_emphasis_slots or intent.result_slots
    if len(records) > 1:  # a returned list is summarized slot by slot
        final_actions.append(
            Action(
                f"{prefix}summary",
                tuple(Arg(s, "; ".join(str(r[s]) for r in records))
                      for s in emphasis),
            )
        )
    elif records:
        first = records[0]
        final_actions.append(
            Action(
                f"{prefix}inform_result",
                tuple(Arg(s, first[s]) for s in emphasis if s in first),
            )
        )
    if intent.performs_operation:
        final_actions.append(
            Action(f"{prefix}notify_done", (Arg(None, subject),))
        )
    if final_actions:
        turns.append(Turn("System", tuple(final_actions)))
    return Plot(
        turns=turns, services=(service,), intents=(f"{service}.{intent_name}",)
    )


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------


def _requests_info(turn: Turn) -> bool:
    return any(a.head.endswith("request_information") for a in turn.actions)


def _is_confirm_turn(turn: Turn) -> bool:
    return any(a.head.endswith("ask_confirm") for a in turn.actions)


def _is_notify_only(turn: Turn) -> bool:
    return all(a.head.endswith("notify_done") for a in turn.actions)


def _normalize_alternation(turns: list) -> list:
    """Join consecutive turns of one speaker; a joined system turn puts its
    confirmations first."""
    merged: list[Turn] = []
    for turn in turns:
        if merged and merged[-1].speaker == turn.speaker:
            actions = merged[-1].actions + turn.actions
            if turn.speaker == "System":
                actions = tuple(sorted(
                    actions, key=lambda a: 0 if a.head.endswith("ask_confirm") else 1
                ))
            merged[-1] = Turn(turn.speaker, actions)
        else:
            merged.append(turn)
    return merged


def merge_compound(a: Plot, b: Plot) -> Plot:
    """Merge two single-intent plots: concatenated initial queries; paired
    information requests stay sequential; other system responses combine with
    confirmations first; a finished plot's completion notice waits until after
    the other plot's confirmation."""
    if len(a.intents) != 1 or len(b.intents) != 1:
        raise PlotError("merge_compound expects single-intent plots")
    turns: list[Turn] = [
        Turn("User", a.turns[0].actions + b.turns[0].actions)
    ]
    qa, qb = deque(a.turns[1:]), deque(b.turns[1:])

    def emit_pair(q):
        turns.append(q.popleft())
        if q and q[0].speaker == "User":
            turns.append(q.popleft())

    def notify_after_confirm(confirming, done) -> bool:
        """``done`` has only its completion notice left and ``confirming``
        asks for confirmation: emit that exchange, then the notice joined
        to ``confirming``'s next system turn."""
        if not (_is_confirm_turn(confirming[0]) and _is_notify_only(done[0])
                and len(done) == 1):
            return False
        notify = done.popleft()
        emit_pair(confirming)  # ask_confirm + user confirm
        if confirming:
            notify = Turn("System", confirming.popleft().actions + notify.actions)
        turns.append(notify)
        return True

    while qa and qb:
        if _requests_info(qa[0]) and _requests_info(qb[0]):
            emit_pair(qa)
            emit_pair(qb)
            continue
        if notify_after_confirm(qa, qb) or notify_after_confirm(qb, qa):
            continue
        # both system turns, then both answers: _normalize_alternation
        # joins each pair, confirmations first
        turns.extend((qa.popleft(), qb.popleft()))
        turns.extend([q.popleft() for q in (qa, qb)
                      if q and q[0].speaker == "User"])
    turns.extend(qa)
    turns.extend(qb)
    return Plot(
        turns=_normalize_alternation(turns),
        services=a.services + tuple(s for s in b.services if s not in a.services),
        intents=a.intents + b.intents,
    )


def merge_compositional(
    outer: Plot,
    inner: tuple[str, str],
    inner_action: Action,
    matched_slot: tuple[str, str],
    inner_lead_actions: tuple[Action, ...] = (),
) -> Plot:
    """Substitute the inner intent action for the outer intent's matched input
    slot; any inner resolution actions lead the first system response. The
    plot is labeled with the outer intent, then ``inner``, the inner intent's
    (service, intent) pair."""
    inner_service, inner_intent = inner
    _, outer_input_slot = matched_slot
    initial = list(outer.turns[0].actions)
    hit = next((i for i, action in enumerate(initial)
                if action.has_arg(outer_input_slot)), None)
    if hit is None:
        raise PlotError(
            f"outer initial action has no arg {outer_input_slot!r} to substitute"
        )
    initial[hit] = initial[hit].replace_arg(outer_input_slot, inner_action)
    turns = [Turn("User", tuple(initial))] + list(outer.turns[1:])
    if inner_lead_actions:
        for i, turn in enumerate(turns):
            if turn.speaker == "System":
                turns[i] = Turn("System", inner_lead_actions + turn.actions)
                break
        else:
            turns.append(Turn("System", inner_lead_actions))
    return Plot(
        turns=_normalize_alternation(turns),
        services=tuple(dict.fromkeys(outer.services + (inner_service,))),
        intents=outer.intents + (f"{inner_service}.{inner_intent}",),
    )


# ---------------------------------------------------------------------------
# phenomena
# ---------------------------------------------------------------------------


def _correctable(arg: Arg) -> bool:
    """A keyword arg with a literal value a user could give and correct."""
    return (
        arg.keyword not in (None, *SELECTORS)
        and isinstance(arg.value, (str, int))
        and not isinstance(arg.value, bool)
    )


def _literal_keyword_args(action: Action, contexts: dict):
    """Args a user could plausibly correct: informed values, not the
    referring-expression filters that pick out a context record."""
    if getter_service(action) not in contexts:
        yield from filter(_correctable, action.args)
    for seg in split_correction(action)[0].chain:
        if isinstance(seg, Call):
            yield from filter(_correctable, seg.args)


def _with_action(turn: Turn, j: int, action: Action) -> Turn:
    """``turn`` with its ``j``-th action replaced by ``action``."""
    return Turn(turn.speaker, turn.actions[:j] + (action,) + turn.actions[j + 1:])


def _replace_value_deep(action: Action, keyword: str, old, new) -> Action:
    def fix_args(args):
        out = []
        for arg in args:
            value = arg.value
            if isinstance(value, Action):
                value = _replace_value_deep(value, keyword, old, new)
            elif arg.keyword == keyword and value == old:
                value = new
            out.append(Arg(arg.keyword, value))
        return tuple(out)

    chain = []
    for seg in action.chain:
        if isinstance(seg, Call):
            chain.append(Call(seg.name, fix_args(seg.args)))
        else:
            chain.append(seg)
    return Action(action.head, fix_args(action.args), tuple(chain))


def _slot_potential_values(schemas: SchemaSet, services, slot: str):
    for name in services:
        svc = schemas.service(name)
        if svc.has_slot(slot):
            return svc.slot(slot).potential_values
    return ()


def _resample_value(rng: random.Random, slot: str, old, potential_values,
                    today: str):
    day = parse_display_date(today)
    for _ in range(8):
        candidate = sample_value(rng, slot, potential_values, day)
        if str(candidate) != str(old):
            return candidate
    return f"new {old}" if isinstance(old, str) else old + 1


def inject_phenomena(
    plot: Plot,
    phenomena: frozenset,
    rng: random.Random,
    contexts: dict[str, AppContext],
    schemas: SchemaSet,
) -> Plot:
    """Add self-correction and complex-referral surface forms to user turns.
    The plot's phenomena are what its turns then show: an ambiguous context
    can force an index referral even when none was sampled."""
    turns = list(plot.turns)
    user = [i for i, turn in enumerate(turns) if turn.speaker == "User"]

    if COMPLEX_REFERRAL in phenomena:
        # the first user action that can be rewritten as an index referral
        site = next((
            (i, j, rewritten)
            for i in user
            for j, action in enumerate(turns[i].actions)
            if (rewritten := _rewrite_as_referral(action, contexts)) is not None
        ), None)
        if site:
            i, j, rewritten = site
            turns[i] = _with_action(turns[i], j, rewritten)
        elif not contexts:
            raise PlotError("complex referral requires an app context")

    if SELF_CORRECTION in phenomena:
        candidates = [
            (i, j, arg, False)
            for i in user
            for j, action in enumerate(turns[i].actions)
            for arg in _literal_keyword_args(action, contexts)
        ]
        if not candidates:
            # a misspoken referring expression: the user first gives a wrong
            # filter value, then corrects to the record's real one, so later
            # references still resolve
            candidates = next(filter(None, (
                [(i, j, arg, True) for arg in action.args if _correctable(arg)]
                for i in user
                for j, action in enumerate(turns[i].actions)
                if getter_service(action) in contexts
            )), [])
        if candidates:
            i, j, arg, misspoken = candidates[rng.randrange(len(candidates))]
            new_value = _resample_value(
                rng, arg.keyword, arg.value,
                _slot_potential_values(schemas, plot.services, arg.keyword),
                context_today(contexts))
            action = turns[i].actions[j]
            if misspoken:
                args = action.replace_arg(arg.keyword, new_value).args
                said = arg.value
            else:
                args, said = action.args, new_value
                # later turns carry the corrected value
                for k in range(i + 1, len(turns)):
                    turns[k] = Turn(turns[k].speaker, tuple(
                        _replace_value_deep(a, arg.keyword, arg.value, new_value)
                        for a in turns[k].actions))
            correction = Call(CORRECTION, (Arg(arg.keyword, said),))
            turns[i] = _with_action(
                turns[i], j, Action(action.head, args, action.chain + (correction,)))
    return replace(plot, turns=turns)


def _rewrite_as_referral(action: Action, contexts: dict[str, AppContext]):
    """Rewrite a slot-filter context getter into an ordered_by/index referral
    that resolves to the same record."""
    def rewrite_getter(a: Action):
        ctx = contexts.get(getter_service(a))
        filters = referral_filters(a)
        if ctx is None or not filters or any(map(a.has_arg, SELECTORS)):
            return None
        selected = select_records(a, ctx.records)
        order_slot = filters[0][0]
        if len(selected) != 1 or order_slot not in selected[0]:
            return None
        args = index_referral(ctx.records, selected[0], order_slot)
        return Action(a.head, args, a.chain)

    direct = rewrite_getter(action)
    if direct is not None:
        return direct
    # nested referral (e.g. a compositional inner getter)
    for arg in action.args:
        if isinstance(arg.value, Action):
            nested = rewrite_getter(arg.value)
            if nested is not None:
                args = tuple(Arg(x.keyword, nested) if x is arg else x
                             for x in action.args)
                return Action(action.head, args, action.chain)
    return None


# ---------------------------------------------------------------------------
# default styles
# ---------------------------------------------------------------------------

_MIRROR_UNSAFE_TERMS = (
    "damn", "hell", "stupid", "idiot", "hate", "kill", "sucks", "crap",
    "terrible people", "race", "gender", "politics", "immigrants",
)


def _confirmed_op(action: Action) -> Optional[str]:
    """The op name a confirmation refers to."""
    for arg in action.args:
        if isinstance(arg.value, Action):
            nested = split_correction(arg.value)[0]
            return next((seg.name for seg in nested.chain
                         if isinstance(seg, Call)), nested.head)
    return None


def _requires_confirmation(
    action: Action, services, schemas: SchemaSet
) -> bool:
    """Whether the confirmed intent's schema sets ``require_confirmation``."""
    op = _confirmed_op(action)
    return op is not None and any(
        i.name == op.removeprefix(f"{service}_") and i.require_confirmation
        for service in services
        for i in schemas.service(service).intent_operations
    )


def _mirroring_unsafe(
    user_turn: Turn, contexts: dict[str, AppContext]
) -> bool:
    """Safety screen: emotionally/bias-loaded literals, or an ambiguous
    referring expression matching more than one context record."""
    def scan(action: Action) -> bool:
        for arg in action.args:
            if isinstance(arg.value, str):
                lowered = arg.value.lower()
                if any(term in lowered for term in _MIRROR_UNSAFE_TERMS):
                    return True
            if isinstance(arg.value, Action) and scan(arg.value):
                return True
        ctx = contexts.get(getter_service(action))
        return (ctx is not None and not action.has_arg(INDEX)
                and bool(referral_filters(action))
                and len(select_records(action, ctx.records)) > 1)

    return any(scan(a) for a in user_turn.actions)


def assign_default_styles(
    plot: Plot,
    schemas: SchemaSet,
    contexts: dict[str, AppContext],
) -> Plot:
    """Default (verbosity, mirroring) per system turn.

    Priority: phenomenon in the previous user turn -> high; confirmation of an
    intent whose schema sets ``require_confirmation`` -> high; new
    information -> mid for a single-record inform, high for a multi-record
    summary; otherwise low. Mirroring defaults to yes unless the previous user
    turn fails the safety screen.
    """
    styles = []
    for i, turn in enumerate(plot.turns):
        if turn.speaker != "System":
            continue
        prev_user = plot.turns[i - 1] if i > 0 else None
        if prev_user is not None and derive_phenomena((prev_user,)):
            verbosity = "high"
        elif any(
            a.head.endswith("ask_confirm")
            and _requires_confirmation(a, plot.services, schemas)
            for a in turn.actions
        ):
            verbosity = "high"
        elif any(a.head.endswith("summary") for a in turn.actions):
            verbosity = "high"
        elif any(a.head.endswith("inform_result") for a in turn.actions):
            verbosity = "mid"
        else:
            verbosity = "low"
        mirroring = "yes"
        if prev_user is not None and _mirroring_unsafe(prev_user, contexts):
            mirroring = "no"
        styles.append((verbosity, mirroring))
    return replace(plot, default_styles=styles)


# ---------------------------------------------------------------------------
# top level + labels
# ---------------------------------------------------------------------------


def _intent_owners(schemas: SchemaSet, intent: str) -> list[str]:
    """Services that define an intent named ``intent``."""
    return [
        svc.service_name
        for svc in schemas.services
        if any(i.name == intent for i in svc.intent_operations)
    ]


def _build_inner_action(
    spec: DialogSpecimen,
    schemas: SchemaSet,
    contexts: dict[str, AppContext],
) -> tuple[Action, tuple[Action, ...]]:
    """Inner intent as a nested value action, plus any system actions that
    resolve it (a database-backed inner leads the first system response)."""
    inner_service, inner_intent_name = spec.intents[1]
    inner_slot, _ = spec.matched_slot
    svc = schemas.service(inner_service)
    intent = svc.intent(inner_intent_name)
    prefix = f"{inner_service}_"
    if intent.require_context:
        _, target_action, _ = _build_context_initial(
            inner_service, intent, spec, contexts, prefix
        )
        # reference form: getter + service-prefixed check + field access
        inner = Action(
            target_action.head,
            target_action.args,
            (Call(f"{prefix}check", (Arg(inner_slot, None),)),
             FieldAccess(inner_slot)),
        )
        return inner, ()
    values = _input_values(spec, inner_service, intent)
    inner = Action(
        f"{prefix}{inner_intent_name}",
        _value_args(values, intent.input_slots),
        (FieldAccess(inner_slot),),
    )
    result_value = spec.value(inner_service, inner_intent_name, inner_slot)
    lead = (
        Action(f"{prefix}inform_result", (Arg(inner_slot, result_value),)),
    )
    return inner, lead


def build_plot(
    spec: DialogSpecimen,
    schemas: SchemaSet,
    contexts: dict[str, AppContext],
    rng: random.Random,
    llm: Backend,
    config: PipelineConfig,
) -> Plot:
    """Full plot for a specimen: construct, merge, inject phenomena, style."""
    if spec.kind == "Single":
        service, intent = spec.intents[0]
        # unprefixed unless the intent name is ambiguous
        prefix = f"{service}_" if len(_intent_owners(schemas, intent)) > 1 else ""
        plot = build_single_plot(
            spec, (service, intent), schemas, contexts, rng, llm, config,
            prefix=prefix,
        )
    elif spec.kind == "Compound":
        parts = [
            build_single_plot(
                spec, pair, schemas, contexts, rng, llm, config,
                prefix=f"{pair[0]}_",
            )
            for pair in spec.intents
        ]
        plot = merge_compound(parts[0], parts[1])
    else:  # Compositional
        outer_pair = spec.intents[0]
        outer = build_single_plot(
            spec, outer_pair, schemas, contexts, rng, llm, config,
            # the inner action is substituted for the matched outer slot
            prefix=f"{outer_pair[0]}_", forced=spec.matched_slot[1:],
        )
        inner_action, lead = _build_inner_action(spec, schemas, contexts)
        plot = merge_compositional(outer, spec.intents[1], inner_action,
                                   spec.matched_slot, lead)
    plot = inject_phenomena(plot, spec.phenomena, rng, contexts, schemas)
    return assign_default_styles(plot, schemas, contexts)


def derive_phenomena(turns) -> tuple:
    """Phenomenon labels recomputed from user-turn surface forms, nested
    actions included."""
    found = set()

    def walk(action: Action) -> None:
        if split_correction(action)[1] is not None:
            found.add(SELF_CORRECTION)
        if getter_service(action) is not None and action.has_arg(ORDERED_BY):
            found.add(COMPLEX_REFERRAL)
        for arg in action.args:
            if isinstance(arg.value, Action):
                walk(arg.value)

    for turn in turns:
        if turn.speaker == "User":
            for action in turn.actions:
                walk(action)
    return tuple(sorted(found))


def derive_labels(plot: Plot, schemas: SchemaSet) -> dict:
    """Services attributed to the initial user turn's actions through the
    schemas (consistency oracle)."""
    def action_service(action: Action) -> str:
        service = getter_service(action)
        if service is not None and schemas.has_service(service):
            return service
        for svc in schemas.services:
            if any(action.head == f"{svc.service_name}_{intent.name}"
                   for intent in svc.intent_operations):
                return svc.service_name
        owners = _intent_owners(schemas, action.head)
        if len(owners) == 1:
            return owners[0]
        raise PlotError(f"cannot attribute action {action.head!r} to a service")

    services = []
    for action in plot.turns[0].actions:
        services.append(action_service(action))
        for arg in action.args:
            if isinstance(arg.value, Action):
                try:
                    services.append(action_service(arg.value))
                except PlotError:
                    pass
    return {"services": tuple(dict.fromkeys(services))}
