"""Acceptance suite: twelve pinned criteria covering reference-example
conformance, statistical targets, determinism, QC fault detection, and
backend robustness. Each test prints one pass/fail line."""

import collections
import copy
import dataclasses
import itertools
import json
import random
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from click.testing import CliRunner

from todgen.cli import main as cli_main, make_backend
from todgen.config import PipelineConfig
from todgen.context import generate_contexts, sample_current_time
from todgen.dataset import read_dataset, split, word_count
from todgen.llm import BackendConfig, HttpBackend, RetryPolicy
from todgen.mr import Action, Turn, apply_self_correction, getter_service, \
    parse_action, parse_action_list, print_action, resolve_referral, \
    split_correction
from todgen.persona import generate_pool
from todgen.plot import (
    Plot,
    PlotError,
    assign_default_styles,
    build_plot,
    build_single_plot,
    choose_referring_expression,
)
from todgen.qc import check_slot_coverage, check_unformatted
from todgen.realizer import SIX_KEYS, realize_dialog
from todgen.rng import derive_rng
from todgen.sampler import COMPLEX_REFERRAL, DialogSpecimen, sample_specimen
from todgen.schema import load_schema_set

CFG = PipelineConfig(seed=1)
SCHEMAS = load_schema_set(CFG.schema_manifest_path)
LLM = make_backend(CFG.user_backend, CFG.seed)


# one line per criterion; echoed immediately (visible with -s) and replayed
# uncaptured in the terminal summary by conftest.py
CRITERION_LINES: list = []


@contextmanager
def criterion(number: int, name: str):
    def announce(outcome: str) -> None:
        line = f"[criterion {number:2d}] {name}: {outcome}"
        CRITERION_LINES.append(line)
        print(line, flush=True)

    try:
        yield
    except BaseException:
        announce("FAIL")
        raise
    announce("PASS")


# ---------------------------------------------------------------------------
# shared 200-dialog mock corpus (used by criteria 7, 9, 10, 11)
# ---------------------------------------------------------------------------

RUN_CONFIG = (
    "persona_pool_size: 50\n"
    "dialog_count: 200\n"
    "seed: 424242\n"
)


def _run_all(config_path: Path, out: Path) -> None:
    runner = CliRunner()
    result = runner.invoke(
        cli_main,
        ["run-all", "--config", str(config_path), "--out", str(out)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output


@pytest.fixture(scope="module")
def corpus_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-corpus")
    config = root / "config.yaml"
    config.write_text(RUN_CONFIG)
    first, second = root / "first", root / "second"
    _run_all(config, first)
    _run_all(config, second)
    return first, second


@pytest.fixture(scope="module")
def corpus(corpus_dirs):
    return read_dataset(corpus_dirs[0] / "dialogs.jsonl")


# ---------------------------------------------------------------------------
# 1. MR conformance on reference action strings
# ---------------------------------------------------------------------------

REFERENCE_ACTION_STRINGS = (
    # phenomena examples table
    'restaurant_booking_reserve_table(restaurant="French Brasserie", '
    'time="8:00 PM")',
    'hotel_booking_search_hotel(location="Las Vegas")',
    'weather_get_weather(date=get_calendar_events(name="Art Class")'
    '.calendar_events_check(date).date)',
    'get_movie_time(movie_name="Fast & Furious Presents: Hobbs & Shaw", '
    'location="Miami").self_correction(location="Houston")',
    'get_alarms(ordered_by="time", index=0).check(time)',
    # worked dialog examples table, alarm row
    'get_alarms(ordered_by="time", index=0).alarms_delete(name)',
    'get_alarms(ordered_by="time", index=1).alarms_check(name)',
    'alarms_ask_confirm(get_alarms(name="Morning Workout").delete(name))',
    'alarms_inform_result(name="Family Dinner")',
    "alarms_confirm()",
    'alarms_notify_done(get_alarms(name="Morning Workout").delete(name))',
    # worked dialog examples table, movie row
    'purchase_tickets(movie_name="Joker", date="Tue 2026-12-29", '
    'cinema_name="Regal Cinemas", ticket_quantity=1, movie_format="3d")',
    "request_infomation(showtime)",
    'inform_infomation(showtime="20:00")',
    'ask_confirm(purchase_tickets(movie_name="Joker", ticket_quantity=1, '
    'date="Tue 2026-12-29", showtime="20:00", movie_format="3d", '
    'cinema_name="Regal Cinemas"))',
    "confirm()",
    'notify_done(purchase_tickets(movie_name="Joker", ticket_quantity=1, '
    'date="Tue 2026-12-29", showtime="20:00", movie_format="3d", '
    'cinema_name="Regal Cinemas"))',
)


def test_criterion_1_mr_conformance():
    with criterion(1, "MR parse + print round trip"):
        for s in REFERENCE_ACTION_STRINGS:
            action = parse_action(s)
            assert print_action(action) == s, s
        # bracketed multi-action turn form parses as well
        pair = parse_action_list(
            "[" + REFERENCE_ACTION_STRINGS[5] + ", "
            + REFERENCE_ACTION_STRINGS[6] + "]"
        )
        assert len(pair) == 2


# ---------------------------------------------------------------------------
# 2. plot conformance: movie-ticket reference dialog
# ---------------------------------------------------------------------------

REFERENCE_TICKET_PLOT = """\
@User@: purchase_tickets(movie_name="Joker", date="Tue 2026-12-29", cinema_name="Regal Cinemas", ticket_quantity=1, movie_format="3d")
@System@: request_infomation(showtime)
@User@: inform_infomation(showtime="20:00")
@System@: ask_confirm(purchase_tickets(movie_name="Joker", ticket_quantity=1, date="Tue 2026-12-29", showtime="20:00", movie_format="3d", cinema_name="Regal Cinemas"))
@User@: confirm()
@System@: notify_done(purchase_tickets(movie_name="Joker", ticket_quantity=1, date="Tue 2026-12-29", showtime="20:00", movie_format="3d", cinema_name="Regal Cinemas"))"""

SPELLING_FIXES = (
    ("request_infomation", "request_information"),
    ("inform_infomation", "inform_information"),
)


def _normalized_structure(action: Action):
    """Order-insensitive view of an action: keyword args as a sorted set."""
    def norm_value(v):
        return _normalized_structure(v) if isinstance(v, Action) else v

    args = tuple(sorted(
        (a.keyword or "", repr(norm_value(a.value))) for a in action.args
    ))
    chain = tuple(
        (type(seg).__name__, getattr(seg, "name", getattr(seg, "field", "")),
         tuple(sorted(
             (a.keyword or "", repr(norm_value(a.value)))
             for a in getattr(seg, "args", ())
         )))
        for seg in action.chain
    )
    return (action.head, args, chain)


def test_criterion_2_ticket_plot_reconstruction():
    with criterion(2, "reference ticket plot reconstruction"):
        spec = DialogSpecimen(
            kind="Single",
            intents=(("movie", "purchase_tickets"),),
            phenomena=frozenset(),
            persona_id="p",
            slot_values={
                "movie.purchase_tickets.movie_name": "Joker",
                "movie.purchase_tickets.date": "Tue 2026-12-29",
                "movie.purchase_tickets.cinema_name": "Regal Cinemas",
                "movie.purchase_tickets.ticket_quantity": 1,
                "movie.purchase_tickets.showtime": "20:00",
                "movie.purchase_tickets.movie_format": "3d",
            },
        )
        plot = build_single_plot(
            spec, ("movie", "purchase_tickets"), SCHEMAS, {}, derive_rng(0),
            LLM, CFG,
            initial_slots=("movie_name", "date", "cinema_name",
                           "ticket_quantity", "movie_format"),
        )
        expected_lines = REFERENCE_TICKET_PLOT.splitlines()
        for fix in SPELLING_FIXES:
            expected_lines = [l.replace(*fix) for l in expected_lines]
        assert len(plot.turns) == len(expected_lines)
        for turn, line in zip(plot.turns, expected_lines):
            speaker, _, rest = line.partition("@: ")
            assert turn.speaker == speaker.lstrip("@")
            expected_actions = parse_action_list(rest)
            assert len(turn.actions) == len(expected_actions)
            for got, want in zip(turn.actions, expected_actions):
                assert _normalized_structure(got) == \
                    _normalized_structure(want), print_action(got)


# ---------------------------------------------------------------------------
# 3. compositional substitution: nested weather/calendar action
# ---------------------------------------------------------------------------

def test_criterion_3_compositional_substitution():
    with criterion(3, "nested compositional action string"):
        from todgen.context import AppContext

        ctx = AppContext(
            service_name="calendar_events",
            today="Wed 2025-04-16",
            time="09:00",
            records=[
                {"name": "Art Class", "date": "Thu 2025-04-17",
                 "start_time": "16:00", "duration_time": "1 hour",
                 "location": "Studio 4"},
                {"name": "Piano Lesson", "date": "Fri 2025-04-18",
                 "start_time": "16:00", "duration_time": "1 hour",
                 "location": "Room 2"},
            ],
        )
        spec = DialogSpecimen(
            kind="Compositional",
            intents=(("weather", "get_weather"), ("calendar_events", "check")),
            phenomena=frozenset(),
            persona_id="p",
            matched_slot=("date", "date"),
            slot_values={
                "calendar_events.check.name": "Art Class",
                "calendar_events.check.date": "Thu 2025-04-17",
                "weather.get_weather.date": "Thu 2025-04-17",
            },
            context_targets={"calendar_events.check": 0},
        )
        plot = build_plot(
            spec, SCHEMAS, {"calendar_events": ctx}, derive_rng(0), LLM, CFG
        )
        assert print_action(plot.turns[0].actions[0]) == (
            'weather_get_weather(date=get_calendar_events(name="Art Class")'
            ".calendar_events_check(date).date)"
        )


# ---------------------------------------------------------------------------
# 4. referral round-trip over 1,000 random contexts
# ---------------------------------------------------------------------------

def test_criterion_4_referral_round_trip():
    with criterion(4, "1,000 referral round trips"):
        persona = generate_pool(
            PipelineConfig(seed=2, persona_pool_size=1), LLM
        )[0]
        context_intents = [
            (svc.service_name, intent.name)
            for svc in SCHEMAS.services
            for intent in svc.intent_operations
            if intent.require_context
        ]
        successes = 0
        for i in range(1000):
            rng = derive_rng("referral", i)
            now = sample_current_time(derive_rng("referral-clock", i),
                                      CFG.time_window)
            contexts = generate_contexts(
                persona, SCHEMAS, now, LLM, CFG, derive_rng("referral-ctx", i)
            )
            service, intent = context_intents[rng.randrange(len(context_intents))]
            spec = DialogSpecimen(
                kind="Single",
                intents=((service, intent),),
                phenomena=frozenset({COMPLEX_REFERRAL}),
                persona_id=persona.id,
            )
            idx = rng.randrange(len(contexts[service].records))
            spec.context_targets[f"{service}.{intent}"] = idx
            for slot, value in contexts[service].records[idx].items():
                spec.set_value(service, intent, slot, value)
            plot = build_plot(spec, SCHEMAS, contexts, rng, LLM, CFG)
            getter = plot.turns[0].actions[0]
            assert getter.has_arg("ordered_by") and getter.has_arg("index")
            base = Action(getter.head, getter.args)
            resolved = resolve_referral(base, contexts[service])
            if resolved == contexts[service].records[idx]:
                successes += 1
        assert successes == 1000, f"only {successes}/1000 round trips held"


# ---------------------------------------------------------------------------
# 5. referring-expression minimality vs brute force
# ---------------------------------------------------------------------------

def _brute_force_reference(target, records, slots):
    for size in range(1, len(slots) + 1):
        for combo in itertools.combinations(slots, size):
            matches = [
                r for r in records
                if all(str(r[s]) == str(target[s]) for s in combo)
            ]
            if len(matches) == 1:
                return combo
    return None


def test_criterion_5_referring_expression_minimality():
    with criterion(5, "referring-expression minimality oracle"):
        checked = 0
        # exhaustive over small binary-valued contexts
        slots3 = ("s0", "s1", "s2")
        for n in (2, 3):
            for values in itertools.product(
                itertools.product((0, 1), repeat=3), repeat=n
            ):
                records = [dict(zip(slots3, v)) for v in values]
                target = records[0]
                expected = _brute_force_reference(target, records, slots3)
                checked += 1
                if expected is None:
                    with pytest.raises(PlotError):
                        choose_referring_expression(target, records, slots3)
                else:
                    assert choose_referring_expression(
                        target, records, slots3
                    ) == expected
        # randomized up to 4 records x 4 slots with a 3-value alphabet
        slots4 = ("s0", "s1", "s2", "s3")
        rng = random.Random(99)
        for _ in range(5000):
            n = rng.randint(2, 4)
            records = [
                {s: rng.randint(0, 2) for s in slots4} for _ in range(n)
            ]
            target = records[rng.randrange(n)]
            expected = _brute_force_reference(target, records, slots4)
            checked += 1
            if expected is None:
                with pytest.raises(PlotError):
                    choose_referring_expression(target, records, slots4)
            else:
                assert choose_referring_expression(
                    target, records, slots4
                ) == expected
        assert checked > 5000


# ---------------------------------------------------------------------------
# 6. default-style rules: 20-case fixture suite
# ---------------------------------------------------------------------------

def _turns(text: str):
    out = []
    for line in text.strip().splitlines():
        speaker, _, rest = line.partition("@: ")
        out.append(Turn(speaker.lstrip("@"), parse_action_list(rest.strip())))
    return out


def _ctx(service, records):
    from todgen.context import AppContext

    return {service: AppContext(service_name=service, today="Wed 2025-04-16",
                                time="09:00", records=records)}


ALARM_RECORDS = [
    {"time": "07:00", "name": "Morning Workout", "if_repeat": "True"},
    {"time": "18:30", "name": "Family Dinner", "if_repeat": "True"},
]

STYLE_CASES = [
    # (name, plot text, services, contexts, expected styles)
    ("request slot -> low",
     '@User@: purchase_tickets(movie_name="Joker")\n'
     "@System@: request_information(showtime)",
     ("movie",), {}, [("low", "yes")]),
    ("completion notice -> low",
     '@User@: create(time="07:00", name="Run")\n'
     '@System@: notify_done(create(time="07:00", name="Run"))',
     ("alarms",), {}, [("low", "yes")]),
    ("irreversible delete confirmation -> high",
     '@User@: get_alarms(time="18:30").delete(name)\n'
     '@System@: ask_confirm(get_alarms(name="Family Dinner").delete(name))',
     ("alarms",), _ctx("alarms", ALARM_RECORDS), [("high", "yes")]),
    ("irreversible purchase confirmation -> high",
     '@User@: confirm()\n'
     '@System@: notify_done(purchase_tickets(movie_name="Joker"))',
     ("movie",), {}, [("low", "yes")]),
    ("ticket confirmation turn -> high",
     '@User@: inform_information(showtime="20:00")\n'
     '@System@: ask_confirm(purchase_tickets(movie_name="Joker", '
     'showtime="20:00"))',
     ("movie",), {}, [("high", "yes")]),
    ("reservation confirmation -> high",
     '@User@: reserve_table(restaurant="French Brasserie", time="20:00", '
     'date="Fri 2025-04-18", party_size=2)\n'
     '@System@: ask_confirm(reserve_table(restaurant="French Brasserie", '
     'time="20:00", date="Fri 2025-04-18", party_size=2))',
     ("restaurant_booking",), {}, [("high", "yes")]),
    ("reversible create confirmation -> low",
     '@User@: create(time="07:00", name="Run")\n'
     '@System@: ask_confirm(create(time="07:00", name="Run"))',
     ("alarms",), {}, [("low", "yes")]),
    ("single-record inform -> mid",
     '@User@: get_alarms(name="Family Dinner").check(time)\n'
     '@System@: inform_result(time="18:30")',
     ("alarms",), _ctx("alarms", ALARM_RECORDS), [("mid", "yes")]),
    ("search summary -> high",
     '@User@: search_hotel(location="Las Vegas", date="Fri 2025-04-18")\n'
     '@System@: summary(hotel_name="Grand Plaza Hotel", price=120)',
     ("hotel_booking",), {}, [("high", "yes")]),
    ("self-correction in prior user turn -> high",
     '@User@: get_movie_time(movie_name="Joker", location="Miami", '
     'date="Fri 2025-04-18").self_correction(location="Houston")\n'
     '@System@: inform_result(showtime="19:00")',
     ("movie",), {}, [("high", "yes")]),
    ("complex referral in prior user turn -> high",
     '@User@: get_alarms(ordered_by="time", index=0).check(name)\n'
     '@System@: inform_result(name="Morning Workout")',
     ("alarms",), _ctx("alarms", ALARM_RECORDS), [("high", "yes")]),
    ("nested referral inside outer action -> high",
     '@User@: weather_get_weather(date=get_calendar_events('
     'ordered_by="date", index=0).calendar_events_check(date).date)\n'
     '@System@: weather_request_information(location)',
     ("weather", "calendar_events"), {}, [("high", "yes")]),
    ("referral answer keeps high only for the next turn",
     '@User@: get_alarms(ordered_by="time", index=0).delete(name)\n'
     '@System@: ask_confirm(get_alarms(name="Morning Workout").delete(name))\n'
     "@User@: confirm()\n"
     '@System@: notify_done(get_alarms(name="Morning Workout").delete(name))',
     ("alarms",), _ctx("alarms", ALARM_RECORDS),
     [("high", "yes"), ("low", "yes")]),
    ("loaded language disables mirroring",
     '@User@: create(time="07:00", name="I hate mondays")\n'
     '@System@: notify_done(create(time="07:00", name="I hate mondays"))',
     ("alarms",), {}, [("low", "no")]),
    ("ambiguous referring expression disables mirroring",
     '@User@: get_alarms(if_repeat="True").check(name)\n'
     '@System@: inform_result(name="Morning Workout")',
     ("alarms",), _ctx("alarms", ALARM_RECORDS), [("mid", "no")]),
    ("unique referring expression keeps mirroring",
     '@User@: get_alarms(name="Family Dinner").check(time)\n'
     '@System@: inform_result(time="18:30")',
     ("alarms",), _ctx("alarms", ALARM_RECORDS), [("mid", "yes")]),
    ("indexed referral is unambiguous -> mirroring stays",
     '@User@: get_alarms(ordered_by="time", index=1).check(name)\n'
     '@System@: inform_result(name="Family Dinner")',
     ("alarms",), _ctx("alarms", ALARM_RECORDS), [("high", "yes")]),
    ("confirmation outranks inform in a combined turn",
     '@User@: [get_alarms(ordered_by="time", index=0).alarms_delete(name), '
     'get_alarms(ordered_by="time", index=1).alarms_check(name)]\n'
     '@System@: [alarms_ask_confirm(get_alarms(name="Morning Workout")'
     '.delete(name)), alarms_inform_result(name="Family Dinner")]\n'
     "@User@: alarms_confirm()\n"
     '@System@: alarms_notify_done(get_alarms(name="Morning Workout")'
     ".delete(name))",
     ("alarms",), _ctx("alarms", ALARM_RECORDS),
     [("high", "yes"), ("low", "yes")]),
    ("inform beside notice stays mid",
     '@User@: [alarms_confirm(), reminders_get_reminders(content='
     '"water the plants").reminders_check(time)]\n'
     '@System@: [alarms_notify_done(alarms_create(time="07:00")), '
     'reminders_inform_result(time="21:00")]',
     ("alarms", "reminders"),
     _ctx("reminders", [{"content": "water the plants", "time": "21:00",
                         "date": "Thu 2025-04-17"}]),
     [("mid", "yes")]),
    ("greeting exchange -> low",
     "@User@: hello()\n@System@: offer_help()",
     ("alarms",), {}, [("low", "yes")]),
]


def test_criterion_6_default_style_fixture_suite():
    with criterion(6, "20-case default-style fixtures"):
        assert len(STYLE_CASES) == 20
        for name, text, services, contexts, expected in STYLE_CASES:
            plot = Plot(turns=_turns(text), services=tuple(services))
            styled = assign_default_styles(plot, SCHEMAS, contexts)
            assert styled.default_styles == tuple(expected), (
                f"{name}: got {styled.default_styles}, want {expected}"
            )


# ---------------------------------------------------------------------------
# 7. end-to-end determinism, 200 dialogs
# ---------------------------------------------------------------------------

def test_criterion_7_end_to_end_determinism(corpus_dirs):
    with criterion(7, "byte-identical 200-dialog reruns"):
        first, second = corpus_dirs
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert "dataset.jsonl" in names
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


# ---------------------------------------------------------------------------
# 8. distribution targets over 1,000 mock dialogs
# ---------------------------------------------------------------------------

def test_criterion_8_distribution_targets():
    with criterion(8, "kind/phenomena share targets"):
        persona = generate_pool(
            PipelineConfig(seed=3, persona_pool_size=1), LLM
        )[0]
        kinds = collections.Counter()
        phenomena = collections.Counter()
        n = 1000
        for i in range(n):
            rng = derive_rng("dist", i)
            now = sample_current_time(derive_rng("dist-clock", i),
                                      CFG.time_window)
            contexts = generate_contexts(
                persona, SCHEMAS, now, LLM, CFG, derive_rng("dist-ctx", i)
            )
            spec = sample_specimen(rng, SCHEMAS, persona.id, contexts, LLM, CFG,
                                   dialog_id=f"dist-{i}")
            plot = build_plot(spec, SCHEMAS, contexts, rng, LLM, CFG)
            kinds[plot.kind] += 1
            for p in plot.phenomena:
                phenomena[p] += 1
            if len(plot.phenomena) > 1:
                phenomena["overlap"] += 1
        shares = {k: v / n for k, v in kinds.items()}
        assert abs(shares.get("Compound", 0) - 0.405) <= 0.03, shares
        assert abs(shares.get("Compositional", 0) - 0.209) <= 0.03, shares
        assert abs(shares.get("Single", 0) - 0.386) <= 0.03, shares
        p_shares = {k: v / n for k, v in phenomena.items()}
        assert abs(p_shares.get("self_correction", 0) - 0.190) <= 0.03, p_shares
        assert abs(p_shares.get("complex_referral", 0) - 0.151) <= 0.03, p_shares
        assert abs(p_shares.get("overlap", 0) - 0.033) <= 0.03, p_shares


# ---------------------------------------------------------------------------
# 9. split correctness
# ---------------------------------------------------------------------------

def test_criterion_9_split_correctness(corpus):
    with criterion(9, "zero-shot/test split correctness"):
        manifest = split(corpus, CFG.held_out_service, 0.10, 424242)
        by_id = {dp.id: dp for dp in corpus}
        for i in manifest.zero_shot_ids:
            assert CFG.held_out_service in by_id[i].plot.services
        for i in manifest.train_ids + manifest.test_ids:
            assert CFG.held_out_service not in by_id[i].plot.services
        touching = sum(
            1 for dp in corpus if CFG.held_out_service in dp.plot.services
        )
        assert len(manifest.zero_shot_ids) == touching
        assert abs(len(manifest.test_ids) - round(len(corpus) * 0.10)) <= 1


# ---------------------------------------------------------------------------
# 10. QC seeded faults
# ---------------------------------------------------------------------------

def _seed_date_leak(dp, rng):
    out = copy.deepcopy(dp)
    i = rng.randrange(len(out.dialog.turns))
    leak = f" Noted for 20{rng.randint(25, 29)}-0{rng.randint(1, 9)}-15."
    realized = out.dialog.turns[i]
    if isinstance(realized, str):
        out.dialog.turns[i] = realized + leak
    else:
        out.dialog.turns[i] = dataclasses.replace(realized, variants={
            k: v + leak for k, v in realized.variants.items()})
    return out


def _seed_dropped_value(dp, rng):
    from todgen.mr import collect_literals

    out = copy.deepcopy(dp)
    candidates = []
    for i, (turn, realized) in enumerate(zip(out.plot.turns, out.dialog.turns)):
        values = [v for a in turn.actions for v in collect_literals(a)]
        if values:
            candidates.append(i)
    i = candidates[rng.randrange(len(candidates))]
    # deliberately free of substrings that could cover short slot values
    blank = "Mm, by all means."
    if isinstance(out.dialog.turns[i], str):
        out.dialog.turns[i] = blank
    else:
        out.dialog.turns[i] = dataclasses.replace(out.dialog.turns[i], variants={
            k: blank for k in out.dialog.turns[i].variants
        })
    return out


def test_criterion_10_qc_seeded_faults(corpus):
    with criterion(10, "seeded-fault detection, zero false positives"):
        clean = corpus[:200]
        assert len(clean) == 200
        for dp in clean:
            assert check_unformatted(dp)[0] == "pass"
            assert check_slot_coverage(dp)[0] == "pass"
        rng = random.Random(7)
        detected_leak = sum(
            check_unformatted(_seed_date_leak(clean[i % len(clean)], rng))[0]
            == "fail"
            for i in range(200)
        )
        assert detected_leak == 200
        from todgen.mr import collect_literals

        coverable = [
            dp for dp in clean
            if any(
                any(collect_literals(a) for a in t.actions)
                for t in dp.plot.turns
            )
        ]
        detected_drop = sum(
            check_slot_coverage(
                _seed_dropped_value(coverable[i % len(coverable)], rng)
            )[0] == "fail"
            for i in range(200)
        )
        assert detected_drop == 200


def test_corpus_self_corrections_apply_and_resolve(corpus):
    """Every corrected user action in the corpus collapses under
    ``apply_self_correction``, and a corrected context getter picks one
    record."""
    corrected = getters = 0
    for dp in corpus:
        for turn in dp.plot.turns:
            for action in turn.actions:
                if turn.speaker != "User" or split_correction(action)[1] is None:
                    continue
                fixed = apply_self_correction(action)
                corrected += 1
                # get_movie_time is an intent, not a context getter
                ctx = dp.contexts.get(getter_service(fixed))
                if ctx is not None:
                    record = resolve_referral(Action(fixed.head, fixed.args),
                                              ctx)
                    assert isinstance(record, dict), (dp.id, fixed)
                    getters += 1
    assert corrected > 0 and getters > 0, (corrected, getters)


# ---------------------------------------------------------------------------
# 11. verbosity ordering across the corpus
# ---------------------------------------------------------------------------

def test_criterion_11_verbosity_ordering(corpus):
    with criterion(11, "per-dialog verbosity ordering"):
        ordered = 0
        measured = 0
        for dp in corpus:
            means = {}
            for level in ("low", "mid", "high"):
                counts = [
                    word_count(t.variants[f"verbosity_{level} no_mirroring"])
                    for t in dp.dialog.turns
                    if not isinstance(t, str)
                ]
                if not counts:
                    break
                means[level] = sum(counts) / len(counts)
            if len(means) < 3:
                continue
            measured += 1
            if means["low"] < means["mid"] < means["high"]:
                ordered += 1
        assert measured > 0
        assert ordered / measured >= 0.99, f"{ordered}/{measured}"


# ---------------------------------------------------------------------------
# 12. backend robustness against a scripted fault server
# ---------------------------------------------------------------------------

class _FaultHandler(BaseHTTPRequestHandler):
    """Plays a script of (status, content) entries, one per request."""

    script: list = []
    served = 0

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        status, content = (
            self.script.pop(0) if self.script else (200, "{}")
        )
        type(self).served += 1
        if status != 200:
            self.send_response(status)
            self.end_headers()
            return
        body = json.dumps(
            {"choices": [{"message": {"content": content}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_criterion_12_backend_robustness():
    with criterion(12, "HTTP fault script survival"):
        spec = DialogSpecimen(
            kind="Single",
            intents=(("alarms", "create"),),
            phenomena=frozenset(),
            persona_id="p",
            slot_values={"alarms.create.time": "07:00",
                         "alarms.create.name": "Run"},
        )
        plot = build_single_plot(
            spec, ("alarms", "create"), SCHEMAS, {}, derive_rng(0), LLM, CFG,
            initial_slots=("time", "name"),
        )
        plot = assign_default_styles(plot, SCHEMAS, {})
        assert len(plot.turns) == 2  # one user turn, one system turn

        user_reply = json.dumps(
            {"actions": [], "message": "Set an alarm called Run for 07:00."}
        )
        system_reply = json.dumps({
            k: f"variant {i} {'word ' * i}".strip()
            for i, k in enumerate(SIX_KEYS)
        })
        _FaultHandler.script = [
            (500, ""), (500, ""), (200, user_reply),   # transient, then ok
            (200, "<<not json>>"), (200, system_reply),  # malformed, then ok
        ]
        _FaultHandler.served = 0
        server = HTTPServer(("127.0.0.1", 0), _FaultHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            backend = HttpBackend(
                BackendConfig(
                    kind="http",
                    endpoint=(
                        f"http://127.0.0.1:{server.server_address[1]}/v1"
                        "/chat/completions"
                    ),
                    model="stub",
                    retry=RetryPolicy(max_attempts=3, backoff=0.0),
                )
            )
            from todgen.persona import Persona

            persona = Persona(id="p", surname="Stub", introduction="A tester.",
                              speaking_habit="plain")
            record = realize_dialog(plot, persona, {}, backend, backend, CFG)
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        # the user turn took all three HTTP attempts; the system turn took
        # two content attempts, each answered at its first HTTP attempt;
        # every plot turn was realized
        assert _FaultHandler.served == 3 + 1 + 1
        assert len(record.turns) == len(plot.turns)
        assert record.turns[0] == "Set an alarm called Run for 07:00."
        assert record.turns[1].variants["verbosity_high no_mirroring"] \
            .startswith("variant 5")
