"""Pseudocode meaning-representation (MR) language for dialog action plots.

Grammar::

    action := IDENT '(' arglist? ')' chain*
    chain  := '.' IDENT ( '(' arglist? ')' )?
    arg    := IDENT '=' value | IDENT | value
    value  := STRING | INT | BOOL | action

STRING is a JSON string literal.

A bare identifier argument (no '=') denotes a slot name, e.g. ``check(time)``.
An argument that is itself an action is positional, e.g.
``ask_confirm(get_alarms(name="Gym").delete(name))``.

This module owns the forms plots use: the context getter ``get_<service>``,
its selectors ``ordered_by`` and ``index``, and the ``self_correction``
chain call. Other modules build and read them through its helpers only.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, replace
from typing import Optional, Union

__all__ = [
    "Action",
    "Arg",
    "Call",
    "FieldAccess",
    "Turn",
    "MRSyntaxError",
    "MRResolutionError",
    "parse_action",
    "parse_action_list",
    "print_action",
    "print_action_list",
    "CORRECTION",
    "INDEX",
    "ORDERED_BY",
    "SELECTORS",
    "getter_head",
    "getter_service",
    "matching_records",
    "order_records",
    "referral_filters",
    "select_records",
    "index_referral",
    "resolve_referral",
    "split_correction",
    "apply_self_correction",
    "collect_literals",
]

Value = Union[str, int, bool, "Action"]


class MRSyntaxError(ValueError):
    """Raised on malformed MR text; carries byte offset and expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {offset}{detail}")


class MRResolutionError(ValueError):
    """Raised when an MR referral cannot be evaluated over an app context."""


@dataclass(frozen=True)
class Arg:
    """One call argument: keyword=value, bare slot name, or positional value."""

    keyword: Optional[str]
    value: Optional[Value]

    def __post_init__(self):
        if self.keyword is None and self.value is None:
            raise ValueError("argument needs a keyword or a value")


class _HasArgs:
    """Keyword-arg lookup and replacement for an action or a chain call."""

    args: tuple[Arg, ...]

    def arg_value(self, keyword: str) -> Optional[Value]:
        for a in self.args:
            if a.keyword == keyword:
                return a.value
        return None

    def has_arg(self, keyword: str) -> bool:
        return any(a.keyword == keyword for a in self.args)

    def replace_arg(self, keyword: str, value: Value):
        return replace(self, args=tuple(
            Arg(a.keyword, value) if a.keyword == keyword else a
            for a in self.args))


@dataclass(frozen=True)
class Call(_HasArgs):
    name: str
    args: tuple[Arg, ...] = ()


@dataclass(frozen=True)
class FieldAccess:
    name: str


Segment = Union[Call, FieldAccess]


@dataclass(frozen=True)
class Action(_HasArgs):
    head: str
    args: tuple[Arg, ...] = ()
    chain: tuple[Segment, ...] = ()

    def __post_init__(self):
        if not self.head:
            raise ValueError("action head must be nonempty")
        keywords = [a.keyword for a in self.args if a.keyword is not None]
        if len(keywords) != len(set(keywords)):
            raise ValueError(f"duplicate keyword in args of {self.head!r}")


@dataclass(frozen=True)
class Turn:
    """One plot turn: a speaker plus the actions it performs."""

    speaker: str  # "User" or "System"
    actions: tuple[Action, ...]

    def __post_init__(self):
        if self.speaker not in ("User", "System"):
            raise ValueError(f"bad speaker {self.speaker!r}")
        if not self.actions:
            raise ValueError("turn needs at least one action")


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?[0-9]+")
_WS_RE = re.compile(r"\s*")
# strict=False reads rows printed before strings were JSON, which may hold
# raw tabs
_read_json = json.JSONDecoder(strict=False).raw_decode
_write_json = json.JSONEncoder(ensure_ascii=False).encode


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        self.pos = _WS_RE.match(self.text, self.pos).end()

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str):
        self._skip_ws()
        if self._peek() != ch:
            raise MRSyntaxError(
                f"unexpected {self._peek()!r}", self.pos, (repr(ch),)
            )
        self.pos += 1

    def _ident(self) -> str:
        self._skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            raise MRSyntaxError("expected identifier", self.pos, ("IDENT",))
        self.pos = m.end()
        return m.group()

    def action(self) -> Action:
        head = self._ident()
        self._expect("(")
        args = self._arglist()
        self._expect(")")
        chain = []
        self._skip_ws()
        while self._peek() == ".":
            self.pos += 1
            name = self._ident()
            self._skip_ws()
            if self._peek() == "(":
                self.pos += 1
                seg_args = self._arglist()
                self._expect(")")
                chain.append(Call(name, seg_args))
            else:
                chain.append(FieldAccess(name))
            self._skip_ws()
        return Action(head, args, tuple(chain))

    def _arglist(self) -> tuple[Arg, ...]:
        args = []
        self._skip_ws()
        if self._peek() == ")":
            return ()
        while True:
            args.append(self._arg())
            self._skip_ws()
            if self._peek() == ",":
                self.pos += 1
            else:
                break
        return tuple(args)

    def _arg(self) -> Arg:
        self._skip_ws()
        ch = self._peek()
        if ch == '"':
            return Arg(None, self._string())
        if ch.isdigit() or ch == "-":
            return Arg(None, self._int())
        self._skip_ws()
        start = self.pos
        ident = self._ident()
        self._skip_ws()
        if self._peek() == "=":
            self.pos += 1
            return Arg(ident, self._value())
        if self._peek() == "(":
            # positional nested action, rewind to re-parse from the ident
            self.pos = start
            return Arg(None, self.action())
        if ident in ("true", "false", "True", "False"):
            return Arg(None, ident.lower() == "true")
        return Arg(ident, None)  # bare slot-name argument

    def _value(self) -> Value:
        self._skip_ws()
        ch = self._peek()
        if ch == '"':
            return self._string()
        if ch.isdigit() or ch == "-":
            return self._int()
        start = self.pos
        ident = self._ident()
        if ident in ("true", "false", "True", "False"):
            return ident.lower() == "true"
        self._skip_ws()
        if self._peek() == "(":
            self.pos = start
            return self.action()
        raise MRSyntaxError(
            "expected value", start, ("STRING", "INT", "BOOL", "action")
        )

    def _string(self) -> str:
        try:
            value, self.pos = _read_json(self.text, self.pos)
        except json.JSONDecodeError as e:
            raise MRSyntaxError(e.msg, e.pos, ("STRING",)) from None
        return value

    def _int(self) -> int:
        self._skip_ws()
        m = _INT_RE.match(self.text, self.pos)
        if not m:
            raise MRSyntaxError("expected integer", self.pos, ("INT",))
        self.pos = m.end()
        return int(m.group())


def parse_action(text: str) -> Action:
    """Parse a single MR action; whitespace between tokens is insignificant."""
    p = _Parser(text)
    a = p.action()
    p._skip_ws()
    if p.pos != len(text):
        raise MRSyntaxError("trailing input", p.pos, ("end of input",))
    return a


# Every stage re-reads the same plot lines; the parsed tuples are immutable,
# so they are shared. At ~3 distinct lines and ~1.2 kB per dialog, the bound
# holds a ~10k-dialog run and caps the memo near 40 MB.
@functools.lru_cache(maxsize=1 << 15)
def parse_action_list(text: str) -> tuple[Action, ...]:
    """Parse ``[a, b]`` or a single bare action (memoized; failures are not)."""
    stripped = text.strip()
    if not stripped.startswith("["):
        return (parse_action(stripped),)
    p = _Parser(text)
    p._expect("[")
    actions = [p.action()]
    p._skip_ws()
    while p._peek() == ",":
        p.pos += 1
        actions.append(p.action())
        p._skip_ws()
    p._expect("]")
    p._skip_ws()
    if p.pos != len(text):
        raise MRSyntaxError("trailing input", p.pos, ("end of input",))
    return tuple(actions)


def _print_value(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Action):
        return print_action(v)
    return _write_json(v)


def _print_arg(a: Arg) -> str:
    if a.keyword is None:
        return _print_value(a.value)
    if a.value is None:
        return a.keyword
    return f"{a.keyword}={_print_value(a.value)}"


def print_action(a: Action) -> str:
    """Canonical text form; ``parse_action(print_action(a)) == a``."""
    parts = [a.head, "(", ", ".join(_print_arg(x) for x in a.args), ")"]
    for seg in a.chain:
        if isinstance(seg, FieldAccess):
            parts.append(f".{seg.name}")
        else:
            parts.append(f".{seg.name}({', '.join(_print_arg(x) for x in seg.args)})")
    return "".join(parts)


def print_action_list(actions: tuple[Action, ...]) -> str:
    if len(actions) == 1:
        return print_action(actions[0])
    return "[" + ", ".join(print_action(a) for a in actions) + "]"


# the getter args that pick among the records the other args match
ORDERED_BY, INDEX = SELECTORS = ("ordered_by", "index")
# the chain call with which a user restates values they misspoke
CORRECTION = "self_correction"
_GETTER = "get_"


def getter_head(service: str) -> str:
    """The head of the action that reads ``service``'s app context."""
    return _GETTER + service


def getter_service(a: Action) -> Optional[str]:
    """The service a getter action reads; None for any other action."""
    return a.head[len(_GETTER):] if a.head.startswith(_GETTER) else None


def _is_check_call(seg: Segment) -> bool:
    return isinstance(seg, Call) and (
        seg.name == "check" or seg.name.endswith("_check")
    )


def matching_records(records: list, filters: list) -> list:
    """The records that match every ``(slot, value)`` filter: a record's
    slot value and the filter value compare as strings."""
    return [r for r in records
            if all(str(r.get(slot)) == str(value) for slot, value in filters)]


def order_records(records: list, slot: str) -> list:
    """``records`` sorted ascending by the string of their ``slot`` value;
    ties keep their order."""
    return sorted(records, key=lambda r: str(r.get(slot)))


def referral_filters(a: Action) -> list:
    """A getter's ``(slot, value)`` filters: its keyword args that have a
    value, the selectors aside (a bare slot name does not filter)."""
    return [(x.keyword, x.value) for x in a.args
            if x.value is not None and x.keyword not in (None, *SELECTORS)]


def select_records(a: Action, records: list) -> list:
    """The records a getter picks: its filters narrow ``records``,
    ``ordered_by`` sorts them by the named slot and ``index`` picks one,
    0-based."""
    records = matching_records(records, referral_filters(a))
    ordered_by = a.arg_value(ORDERED_BY)
    if ordered_by is not None:
        if records and ordered_by not in records[0]:
            raise MRResolutionError(f"unknown slot {ordered_by!r} in ordered_by")
        records = order_records(records, ordered_by)
    index = a.arg_value(INDEX)
    if index is not None:
        if not 0 <= index < len(records):
            raise MRResolutionError(
                f"index {index} out of range for {len(records)} record(s)"
            )
        records = [records[index]]
    return records


def index_referral(records: list, target: dict, slot: str) -> tuple[Arg, Arg]:
    """The selector args that pick ``target`` out of ``records`` sorted by
    ``slot``."""
    ordered = order_records(records, slot)
    return Arg(ORDERED_BY, slot), Arg(INDEX, ordered.index(target))


def resolve_referral(a: Action, ctx) -> Union[dict, list, Value]:
    """Evaluate a context-getter action over an app context: the records
    :func:`select_records` picks, projected by the chain. Chained
    ``check(slot)`` calls or field accesses project a slot value from the
    unique selected record."""
    if getter_service(a) is None:
        raise MRResolutionError(f"{a.head!r} is not a context getter")
    current = select_records(a, ctx.records)

    def _single() -> dict:
        if len(current) == 0:
            raise MRResolutionError("no record matches the referral")
        if len(current) > 1:
            raise MRResolutionError(
                f"ambiguous referral: {len(current)} records match"
            )
        return current[0]

    for seg in a.chain:
        if isinstance(seg, FieldAccess):
            record = _single()
            if seg.name not in record:
                raise MRResolutionError(f"unknown slot {seg.name!r}")
            return record[seg.name]
        if _is_check_call(seg):
            record = _single()
            slots = [x.keyword for x in seg.args if x.keyword and x.value is None]
            if not slots:
                return record
            if slots[0] not in record:
                raise MRResolutionError(f"unknown slot {slots[0]!r}")
            return record[slots[0]]
        # operation segment (delete/modify/...): referral resolves to the target
        return _single()
    return current[0] if len(current) == 1 else current


def split_correction(a: Action) -> tuple[Action, Optional[Call]]:
    """``a`` without its ``self_correction`` chain call, wherever it is, and
    that call (None if ``a`` has none)."""
    for i, seg in enumerate(a.chain):
        if isinstance(seg, Call) and seg.name == CORRECTION:
            return Action(a.head, a.args, a.chain[:i] + a.chain[i + 1:]), seg
    return a, None


def apply_self_correction(a: Action) -> Action:
    """Collapse a trailing ``.self_correction(slot=new)`` into the args it
    restates: the head's, else the first chain call's with that slot."""
    corrected, correction = split_correction(a)
    if correction is None or a.chain[-1] is not correction:
        raise ValueError("action does not end in a self_correction segment")
    for override in correction.args:
        keyword = override.keyword
        if keyword is None:
            raise ValueError("self_correction overrides must be keyword=value")
        if corrected.has_arg(keyword):
            corrected = corrected.replace_arg(keyword, override.value)
            continue
        chain = list(corrected.chain)
        hit = next((i for i, seg in enumerate(chain)
                    if isinstance(seg, Call) and seg.has_arg(keyword)), None)
        if hit is None:
            raise ValueError(f"self_correction keyword {keyword!r} not in action args")
        chain[hit] = chain[hit].replace_arg(keyword, override.value)
        corrected = Action(corrected.head, corrected.args, tuple(chain))
    return corrected


def collect_literals(a: Action) -> list:
    """All literal slot values a speaker would verbalize for this action:
    head and chain-call keyword/positional literals, recursing into nested
    actions. Referral computation args (ordered_by, index) are excluded —
    they surface as phrases like "earliest", not as literal tokens."""
    out: list = []

    def visit(action: Action) -> None:
        def take(args) -> None:
            for arg in args:
                if arg.keyword in SELECTORS:
                    continue
                if isinstance(arg.value, Action):
                    visit(arg.value)
                elif arg.value is not None and not isinstance(arg.value, bool):
                    out.append(arg.value)

        take(action.args)
        for seg in action.chain:
            if isinstance(seg, Call):
                take(seg.args)

    visit(a)
    return out
