"""Plot construction: slot-filling flow, merges, phenomena, referring
expressions, database queries, and default styles."""

import dataclasses
import datetime as dt
import itertools
import json

import pytest

from todgen import cli
from todgen.config import PipelineConfig
from todgen.context import AppContext, generate_contexts
from todgen.llm import MockBackend, make_backend
from todgen.mr import (
    Action,
    Arg,
    Call,
    FieldAccess,
    Turn,
    parse_action_list,
    print_action,
    resolve_referral,
)
from todgen.plot import (
    Plot,
    PlotError,
    assign_default_styles,
    build_plot,
    build_single_plot,
    choose_referring_expression,
    derive_labels,
    derive_phenomena,
    inject_phenomena,
    merge_compound,
    query_database,
)
from todgen.persona import Persona
from todgen.rng import derive_rng
from todgen.sampler import DialogSpecimen, generate_slot_values, sample_specimen
from todgen.schema import load_schema_set

CFG = PipelineConfig(seed=3)
SCHEMAS = load_schema_set(CFG.schema_manifest_path)
LLM = make_backend(CFG.user_backend, CFG.seed)
# the bundled intents whose schema sets ``require_confirmation``
CONFIRMED_INTENTS = [
    ("alarms", "modify"), ("alarms", "delete"),
    ("calendar_events", "modify"), ("calendar_events", "delete"),
    ("reminders", "modify"), ("reminders", "delete"),
    ("contacts", "delete"),
    ("messages", "delete"), ("messages", "send_message"),
    ("movie", "purchase_tickets"),
    ("restaurant_booking", "reserve_table"),
    ("hotel_booking", "book_hotel"),
    ("banking", "transfer_money"),
]

ALARM_CTX = AppContext(
    service_name="alarms",
    today="Wed 2025-04-16",
    time="09:00",
    records=[
        {"time": "07:00", "name": "Morning Workout", "if_repeat": "True"},
        {"time": "18:30", "name": "Family Dinner", "if_repeat": "True"},
    ],
)


def movie_specimen(**extra):
    values = {
        "movie.purchase_tickets.movie_name": "Joker",
        "movie.purchase_tickets.date": "Tue 2026-12-29",
        "movie.purchase_tickets.cinema_name": "Regal Cinemas",
        "movie.purchase_tickets.ticket_quantity": 1,
        "movie.purchase_tickets.showtime": "20:00",
        "movie.purchase_tickets.movie_format": "3d",
    }
    values.update(extra)
    return DialogSpecimen(
        kind="Single",
        intents=(("movie", "purchase_tickets"),),
        phenomena=frozenset(),
        persona_id="p",
        slot_values=values,
    )


class TestBuildSinglePlot:
    def test_ticket_purchase_flow(self):
        """The published 6-turn movie-ticket plot, reconstructed exactly."""
        plot = build_single_plot(
            movie_specimen(), ("movie", "purchase_tickets"), SCHEMAS, {},
            derive_rng(0), LLM, CFG,
            initial_slots=("movie_name", "date", "cinema_name",
                           "ticket_quantity", "movie_format"),
        )
        expected = [
            ("User", 'purchase_tickets(movie_name="Joker", date="Tue 2026-12-29", '
                     'cinema_name="Regal Cinemas", ticket_quantity=1, '
                     'movie_format="3d")'),
            ("System", "request_information(showtime)"),
            ("User", 'inform_information(showtime="20:00")'),
            ("System", 'ask_confirm(purchase_tickets(movie_name="Joker", '
                       'date="Tue 2026-12-29", cinema_name="Regal Cinemas", '
                       'ticket_quantity=1, showtime="20:00", movie_format="3d"))'),
            ("User", "confirm()"),
            ("System", 'notify_done(purchase_tickets(movie_name="Joker", '
                       'date="Tue 2026-12-29", cinema_name="Regal Cinemas", '
                       'ticket_quantity=1, showtime="20:00", movie_format="3d"))'),
        ]
        assert [
            (t.speaker, print_action(t.actions[0])) for t in plot.turns
        ] == expected

    def test_two_turn_plot_when_nothing_missing(self):
        """All inputs up front, no confirmation, no result -> 2 turns."""
        spec = DialogSpecimen(
            kind="Single",
            intents=(("alarms", "create"),),
            phenomena=frozenset(),
            persona_id="p",
            slot_values={"alarms.create.time": "07:30",
                         "alarms.create.name": "Stretch"},
        )
        plot = build_single_plot(
            spec, ("alarms", "create"), SCHEMAS, {}, derive_rng(0), LLM, CFG,
            initial_slots=("time", "name"),
        )
        assert len(plot.turns) == 2
        assert plot.turns[1].actions[0].head == "notify_done"

    def test_context_check_reports_emphasis_slot(self):
        spec = DialogSpecimen(
            kind="Single",
            intents=(("alarms", "check"),),
            phenomena=frozenset(),
            persona_id="p",
            context_targets={"alarms.check": 1},
        )
        plot = build_single_plot(
            spec, ("alarms", "check"), SCHEMAS, {"alarms": ALARM_CTX},
            derive_rng(0), LLM, CFG,
        )
        assert len(plot.turns) == 2
        user, system = plot.turns
        assert user.actions[0].head == "get_alarms"
        assert system.actions[0].head == "inform_result"
        assert system.actions[0].arg_value("name") == "Family Dinner"

    def test_context_delete_confirms_then_notifies(self):
        spec = DialogSpecimen(
            kind="Single",
            intents=(("alarms", "delete"),),
            phenomena=frozenset(),
            persona_id="p",
            context_targets={"alarms.delete": 0},
        )
        plot = build_single_plot(
            spec, ("alarms", "delete"), SCHEMAS, {"alarms": ALARM_CTX},
            derive_rng(0), LLM, CFG,
        )
        heads = [t.actions[0].head for t in plot.turns]
        assert heads == ["get_alarms", "ask_confirm", "confirm", "notify_done"]
        # the system-side reference resolves to the target record
        nested = plot.turns[1].actions[0].args[0].value
        base = Action(nested.head, nested.args)
        assert resolve_referral(base, ALARM_CTX)["name"] == "Morning Workout"

    def test_missing_required_value_raises(self):
        spec = movie_specimen()
        del spec.slot_values["movie.purchase_tickets.showtime"]
        with pytest.raises(PlotError, match="showtime"):
            build_single_plot(
                spec, ("movie", "purchase_tickets"), SCHEMAS, {},
                derive_rng(0), LLM, CFG,
            )

    def test_context_intent_without_context_raises(self):
        spec = DialogSpecimen(
            kind="Single", intents=(("alarms", "check"),),
            phenomena=frozenset(), persona_id="p",
        )
        with pytest.raises(PlotError, match="context"):
            build_single_plot(
                spec, ("alarms", "check"), SCHEMAS, {}, derive_rng(0), LLM, CFG
            )


class TestMergeCompound:
    def _context_plot(self, intent, target):
        spec = DialogSpecimen(
            kind="Single", intents=(("alarms", intent),),
            phenomena=frozenset(), persona_id="p",
            context_targets={f"alarms.{intent}": target},
        )
        return build_single_plot(
            spec, ("alarms", intent), SCHEMAS, {"alarms": ALARM_CTX},
            derive_rng(0), LLM, CFG, prefix="alarms_",
        )

    def test_confirmation_leads_combined_turn(self):
        """Delete (needs confirmation) + check (informs): the first system
        turn combines [ask_confirm, inform_result]; the user answers only the
        confirmation; the completion notice follows."""
        merged = merge_compound(
            self._context_plot("delete", 0), self._context_plot("check", 1)
        )
        assert len(merged.turns) == 4
        first_user = merged.turns[0]
        assert [a.head for a in first_user.actions] == ["get_alarms", "get_alarms"]
        combined = merged.turns[1]
        assert [a.head for a in combined.actions] == [
            "alarms_ask_confirm", "alarms_inform_result"
        ]
        assert [a.head for a in merged.turns[2].actions] == ["alarms_confirm"]
        assert [a.head for a in merged.turns[3].actions] == ["alarms_notify_done"]
        assert merged.kind == "Compound"

    def test_parallel_requests_stay_sequential(self):
        def needing_plot(service, intent, values, initial):
            spec = DialogSpecimen(
                kind="Single", intents=((service, intent),),
                phenomena=frozenset(), persona_id="p", slot_values=values,
            )
            return build_single_plot(
                spec, (service, intent), SCHEMAS, {}, derive_rng(0), LLM, CFG,
                prefix=f"{service}_", initial_slots=initial,
            )

        a = needing_plot(
            "alarms", "create",
            {"alarms.create.time": "07:00", "alarms.create.name": "Run"},
            ("name",),
        )
        b = needing_plot(
            "reminders", "create",
            {"reminders.create.content": "stretch",
             "reminders.create.time": "21:00"},
            ("content",),
        )
        merged = merge_compound(a, b)
        heads = [[x.head for x in t.actions] for t in merged.turns]
        assert heads[1] == ["alarms_request_information"]
        assert heads[2] == ["alarms_inform_information"]
        assert heads[3] == ["reminders_request_information"]
        assert heads[4] == ["reminders_inform_information"]

    def test_finished_plot_defers_notice_past_confirmation(self):
        """A plot needing nothing merges its completion notice into the first
        system turn after the other plot's confirmation."""
        done_spec = DialogSpecimen(
            kind="Single", intents=(("alarms", "create"),),
            phenomena=frozenset(), persona_id="p",
            slot_values={"alarms.create.time": "06:00",
                         "alarms.create.name": "Run"},
        )
        done = build_single_plot(
            done_spec, ("alarms", "create"), SCHEMAS, {}, derive_rng(0), LLM,
            CFG, prefix="alarms_", initial_slots=("time", "name"),
        )
        confirming = self._context_plot("delete", 0)
        merged = merge_compound(confirming, done)
        heads = [[x.head for x in t.actions] for t in merged.turns]
        assert heads[1] == ["alarms_ask_confirm"]
        assert heads[2] == ["alarms_confirm"]
        assert sorted(heads[3]) == ["alarms_notify_done", "alarms_notify_done"]

    def test_alternation_always_holds(self):
        merged = merge_compound(
            self._context_plot("check", 0), self._context_plot("check", 1)
        )
        assert dataclasses.replace(merged) == merged  # rebuilt and checked
        speakers = [t.speaker for t in merged.turns]
        assert speakers == ["User", "System"]

    def test_rejects_multi_intent_inputs(self):
        a = self._context_plot("check", 0)
        merged = merge_compound(a, self._context_plot("check", 1))
        with pytest.raises(PlotError):
            merge_compound(merged, a)


class TestCompositional:
    CAL_CTX = AppContext(
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

    def test_published_nested_weather_action(self):
        """Exact nested substitution target from the published example."""
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
            spec, SCHEMAS, {"calendar_events": self.CAL_CTX}, derive_rng(0),
            LLM, CFG,
        )
        assert print_action(plot.turns[0].actions[0]) == (
            'weather_get_weather(date=get_calendar_events(name="Art Class")'
            ".calendar_events_check(date).date)"
        )
        assert plot.kind == "Compositional"
        assert set(plot.services) == {"weather", "calendar_events"}

    def test_db_backed_inner_leads_first_system_turn(self):
        spec = DialogSpecimen(
            kind="Compositional",
            intents=(("movie", "purchase_tickets"), ("movie", "get_movie_time")),
            phenomena=frozenset(),
            persona_id="p",
            matched_slot=("showtime", "showtime"),
            slot_values={
                "movie.purchase_tickets.movie_name": "Joker",
                "movie.purchase_tickets.date": "Tue 2026-12-29",
                "movie.purchase_tickets.cinema_name": "Regal Cinemas",
                "movie.purchase_tickets.ticket_quantity": 1,
                "movie.purchase_tickets.showtime": "19:00",
                "movie.get_movie_time.movie_name": "Joker",
                "movie.get_movie_time.date": "Tue 2026-12-29",
                "movie.get_movie_time.location": "Boston",
                "movie.get_movie_time.showtime": "19:00",
            },
        )
        plot = build_plot(spec, SCHEMAS, {}, derive_rng(1), LLM, CFG)
        initial = plot.turns[0].actions[0]
        nested = initial.arg_value("showtime")
        assert isinstance(nested, Action)
        assert nested.head == "movie_get_movie_time"
        first_system = plot.system_turns[0]
        assert first_system.actions[0].head == "movie_inform_result"
        assert first_system.actions[0].arg_value("showtime") == "19:00"

    def test_inner_value_propagates_to_outer(self):
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
            spec, SCHEMAS, {"calendar_events": self.CAL_CTX}, derive_rng(0),
            LLM, CFG,
        )
        # the weather query turn carries the resolved date, never a nested MR
        final = plot.system_turns[-1]
        assert all(
            not isinstance(arg.value, Action)
            for a in final.actions for arg in a.args
        )

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_openings_meet_the_outer_minimum(self, tmp_path, seed):
        """The plots stage over 250 all-compositional dialogs: each outer
        opening carries at least minimum_input_slot_number slots."""
        cfg = PipelineConfig(seed=seed, dialog_count=250, persona_pool_size=2,
                             kind_ratios=(0.0, 1.0, 0.0), output_dir=tmp_path)
        for stage in (cli.stage_personas, cli.stage_contexts):
            stage(cfg)
        rows = cli.stage_plots(cfg)
        assert {r["specimen"]["kind"] for r in rows} == {"Compositional"}
        for row in rows:
            service, intent_name = row["specimen"]["intents"][0]
            intent = SCHEMAS.service(service).intent(intent_name)
            opening = Plot.from_dict(row["plot"]).turns[0].actions[0]
            assert opening.head == f"{service}_{intent_name}"
            assert len(opening.args) >= intent.minimum_input_slot_number, \
                (row["dialog_id"], print_action(opening))


class TestChooseReferringExpression:
    RECORDS = [
        {"time": "07:00", "name": "Standup", "location": "Office"},
        {"time": "07:00", "name": "Workout", "location": "Office"},
        {"time": "09:00", "name": "Standup", "location": "Office"},
    ]

    def test_single_slot_when_unique(self):
        combo = choose_referring_expression(
            self.RECORDS[2], self.RECORDS, ("time", "name", "location")
        )
        assert combo == ("time",)

    def test_minimal_pair_when_singletons_ambiguous(self):
        combo = choose_referring_expression(
            self.RECORDS[0], self.RECORDS, ("time", "name", "location")
        )
        assert combo == ("time", "name")

    def test_preference_breaks_size_ties(self):
        records = [
            {"a": 1, "b": 1, "c": 1},
            {"a": 1, "b": 2, "c": 2},
        ]
        assert choose_referring_expression(records[0], records, ("a", "b", "c")) \
            == ("b",)

    def test_matches_brute_force_oracle(self):
        """Exhaustive agreement on synthetic contexts up to 4 records x 4
        slots (the spec oracle, scaled to unit-test time here)."""
        rng = derive_rng("ref-oracle")
        slots = ("s0", "s1", "s2", "s3")
        for _ in range(300):
            n = rng.randint(2, 4)
            records = [
                {s: rng.randint(0, 2) for s in slots} for _ in range(n)
            ]
            target = records[rng.randrange(n)]

            def brute(target, records):
                best = None
                for size in range(1, len(slots) + 1):
                    for combo in itertools.combinations(slots, size):
                        matches = [
                            r for r in records
                            if all(str(r[s]) == str(target[s]) for s in combo)
                        ]
                        if len(matches) == 1:
                            return combo
                return None

            expected = brute(target, records)
            if expected is None:
                with pytest.raises(PlotError):
                    choose_referring_expression(target, records, slots)
            else:
                assert choose_referring_expression(target, records, slots) \
                    == expected

    def test_target_not_in_context_raises(self):
        with pytest.raises(PlotError, match="not in the context"):
            choose_referring_expression({"time": "x"}, self.RECORDS, ("time",))


class TestQueryDatabase:
    def test_five_records_echo_conditions(self):
        intent = SCHEMAS.service("movie").intent("get_movie_time")
        records = query_database(
            "movie", intent, {"movie_name": "Joker", "date": "Tue 2026-12-29"},
            LLM, CFG, today="Mon 2026-12-28",
        )
        assert len(records) == 5
        for r in records:
            assert r["movie_name"] == "Joker"
            assert "showtime" in r and "cinema_name" in r

    def test_fixed_result_value_is_respected(self):
        intent = SCHEMAS.service("movie").intent("get_movie_time")
        records = query_database(
            "movie", intent, {"movie_name": "Joker", "showtime": "19:00"},
            LLM, CFG,
        )
        assert all(str(r["showtime"]) == "19:00" for r in records)

    def test_prompt_carries_today(self):
        """The mock draws dates from ``today``, so a real model must see it
        too; without it, equal prompts from different days get different
        answers."""
        prompts = []

        class Recording(MockBackend):
            def _complete(self, req):
                prompts.append(req.messages[0][1])
                return super()._complete(req)

        intent = SCHEMAS.service("movie").intent("get_movie_time")
        query_database("movie", intent, {"movie_name": "Joker"},
                       Recording(seed=3), CFG, today="Mon 2026-12-28")
        assert prompts and prompts[0].endswith(" Today is Mon 2026-12-28.")

    def test_rejects_non_query_intent(self):
        intent = SCHEMAS.service("alarms").intent("create")
        with pytest.raises(PlotError, match="does not query"):
            query_database("alarms", intent, {}, LLM, CFG)

    def test_non_object_records_are_asked_again(self):
        backend = NonObjectRecords(bad=1)
        intent = SCHEMAS.service("movie").intent("get_movie_time")
        records = query_database("movie", intent, {"movie_name": "Joker"},
                                 backend, CFG)
        assert all(r["movie_name"] == "Joker" for r in records)
        assert backend.calls == 2

    def test_array_wrapped_in_prose_and_fence_is_read(self):
        """A real model may put text or a code fence around the array."""
        class Chatty(MockBackend):
            calls = 0

            def _complete(self, req):
                self.calls += 1
                array = super()._complete(req)
                return f"Here are the records:\n```json\n{array}\n```\nDone."

        backend = Chatty(seed=3)
        intent = SCHEMAS.service("movie").intent("get_movie_time")
        records = query_database("movie", intent, {"movie_name": "Joker"},
                                 backend, CFG)
        assert len(records) == 5
        assert all(r["movie_name"] == "Joker" for r in records)
        assert backend.calls == 1

    def test_non_object_records_exhaust_as_plot_error(self):
        backend = NonObjectRecords(bad=CFG.content_retries)
        intent = SCHEMAS.service("movie").intent("get_movie_time")
        with pytest.raises(PlotError, match="record is not an object"):
            query_database("movie", intent, {"movie_name": "Joker"},
                           backend, CFG)
        assert backend.calls == CFG.content_retries

    def test_record_not_echoing_an_input_is_asked_again(self):
        backend = StrayRecord(bad=1)
        intent = SCHEMAS.service("movie").intent("get_movie_time")
        records = query_database("movie", intent, {"movie_name": "Joker"},
                                 backend, CFG)
        assert all(r["movie_name"] == "Joker" for r in records)
        assert backend.calls == 2

    def test_records_not_echoing_an_input_exhaust_as_plot_error(self):
        backend = StrayRecord(bad=CFG.content_retries)
        intent = SCHEMAS.service("movie").intent("get_movie_time")
        with pytest.raises(PlotError, match="does not echo every input value"):
            query_database("movie", intent, {"movie_name": "Joker"},
                           backend, CFG)
        assert backend.calls == CFG.content_retries


class NonObjectRecords(MockBackend):
    """Answers an array of five numbers for the first ``bad`` requests."""

    def __init__(self, bad):
        super().__init__(seed=3)
        self.bad = bad
        self.calls = 0

    def _complete(self, req):
        self.calls += 1
        answer = super()._complete(req)
        return self.spoil(answer) if self.calls <= self.bad else answer

    def spoil(self, answer: str) -> str:
        return "[1, 2, 3, 4, 5]"


class StrayRecord(NonObjectRecords):
    """Answers the mock's five records with the third naming another movie,
    so it does not echo the input ``movie_name``, for the first ``bad``
    requests."""

    def spoil(self, answer: str) -> str:
        records = json.loads(answer)
        records[2]["movie_name"] = "Up"
        return json.dumps(records)


class TestInjectPhenomena:
    def _delete_plot(self):
        spec = DialogSpecimen(
            kind="Single", intents=(("alarms", "delete"),),
            phenomena=frozenset(), persona_id="p",
            context_targets={"alarms.delete": 1},
        )
        return spec, build_single_plot(
            spec, ("alarms", "delete"), SCHEMAS, {"alarms": ALARM_CTX},
            derive_rng(0), LLM, CFG,
        )

    def test_complex_referral_resolves_to_same_record(self):
        spec, plot = self._delete_plot()
        injected = inject_phenomena(
            plot, frozenset({"complex_referral"}), derive_rng(1),
            {"alarms": ALARM_CTX}, SCHEMAS,
        )
        getter = injected.turns[0].actions[0]
        assert getter.has_arg("ordered_by") and getter.has_arg("index")
        base = Action(getter.head, getter.args)
        assert resolve_referral(base, ALARM_CTX)["name"] == "Family Dinner"
        assert "complex_referral" in injected.phenomena

    def test_self_correction_propagates_forward(self):
        spec = movie_specimen()
        plot = build_single_plot(
            spec, ("movie", "purchase_tickets"), SCHEMAS, {}, derive_rng(0),
            LLM, CFG,
            initial_slots=("movie_name", "date", "cinema_name",
                           "ticket_quantity", "showtime", "movie_format"),
        )
        injected = inject_phenomena(
            plot, frozenset({"self_correction"}), derive_rng(5), {}, SCHEMAS,
        )
        corrected = injected.turns[0].actions[0]
        seg = corrected.chain[-1]
        assert isinstance(seg, Call) and seg.name == "self_correction"
        slot = seg.args[0].keyword
        new_value = seg.args[0].value
        old_value = corrected.arg_value(slot)
        assert new_value != old_value
        # every later reference uses the corrected value
        for turn in injected.turns[1:]:
            for action in turn.actions:
                for arg in action.args:
                    if isinstance(arg.value, Action):
                        assert arg.value.arg_value(slot) == new_value

    def test_correction_of_referral_filter_keeps_resolution(self):
        """With no informed values to correct, the user misspeaks the
        referring expression and corrects it to the record's real value."""
        spec = DialogSpecimen(
            kind="Single", intents=(("alarms", "check"),),
            phenomena=frozenset(), persona_id="p",
            context_targets={"alarms.check": 0},
        )
        plot = build_single_plot(
            spec, ("alarms", "check"), SCHEMAS, {"alarms": ALARM_CTX},
            derive_rng(0), LLM, CFG,
        )
        injected = inject_phenomena(
            plot, frozenset({"self_correction"}), derive_rng(2),
            {"alarms": ALARM_CTX}, SCHEMAS,
        )
        getter = injected.turns[0].actions[0]
        seg = getter.chain[-1]
        assert isinstance(seg, Call) and seg.name == "self_correction"
        # the corrected (final) value resolves to the original target
        fixed = Action(
            getter.head,
            tuple(
                Arg(a.keyword, seg.args[0].value)
                if a.keyword == seg.args[0].keyword else a
                for a in getter.args
            ),
        )
        assert resolve_referral(fixed, ALARM_CTX)["name"] == "Morning Workout"

    def test_no_phenomena_is_identity(self):
        spec, plot = self._delete_plot()
        out = inject_phenomena(
            plot, frozenset(), derive_rng(0), {"alarms": ALARM_CTX}, SCHEMAS,
        )
        assert out.to_text() == plot.to_text()


class TestDefaultStyles:
    def _styled(self, plot, contexts=None):
        return assign_default_styles(plot, SCHEMAS, contexts or {})

    def test_confirmation_of_irreversible_intent_is_high(self):
        spec = DialogSpecimen(
            kind="Single", intents=(("alarms", "delete"),),
            phenomena=frozenset(), persona_id="p",
            context_targets={"alarms.delete": 0},
        )
        plot = build_single_plot(
            spec, ("alarms", "delete"), SCHEMAS, {"alarms": ALARM_CTX},
            derive_rng(0), LLM, CFG,
        )
        styled = self._styled(plot, {"alarms": ALARM_CTX})
        # ask_confirm(delete) -> high; notify_done afterwards -> low
        assert styled.default_styles[0][0] == "high"
        assert styled.default_styles[1][0] == "low"

    @pytest.mark.parametrize("service, intent", CONFIRMED_INTENTS,
                             ids=[f"{s}.{i}" for s, i in CONFIRMED_INTENTS])
    def test_confirmation_of_every_confirmed_intent_is_high(self, service,
                                                            intent):
        """The schema's ``require_confirmation`` makes its confirmation turn
        high; no phenomenon is injected, so nothing else can."""
        persona = Persona(id="p", surname="Stub", introduction="A tester.",
                          speaking_habit="plain")
        contexts = generate_contexts(
            persona, SCHEMAS, dt.datetime(2025, 4, 16, 9, 0), LLM, CFG,
            derive_rng("ctx", service, intent))
        spec = DialogSpecimen(kind="Single", intents=((service, intent),),
                              phenomena=frozenset(), persona_id="p")
        generate_slot_values(spec, SCHEMAS, contexts, LLM, CFG,
                             derive_rng("values", service, intent))
        plot = build_single_plot(spec, (service, intent), SCHEMAS, contexts,
                                 derive_rng(0), LLM, CFG)
        system = [t for t in plot.turns if t.speaker == "System"]
        styles = self._styled(plot, contexts).default_styles
        assert [v for t, (v, _) in zip(system, styles)
                if t.actions[0].head == "ask_confirm"] == ["high"]

    def test_inform_mid_summary_high_request_low(self):
        spec = DialogSpecimen(
            kind="Single", intents=(("alarms", "check"),),
            phenomena=frozenset(), persona_id="p",
            context_targets={"alarms.check": 1},
        )
        check = build_single_plot(
            spec, ("alarms", "check"), SCHEMAS, {"alarms": ALARM_CTX},
            derive_rng(0), LLM, CFG,
        )
        assert self._styled(check).default_styles[0][0] == "mid"

        hotel_spec = DialogSpecimen(
            kind="Single", intents=(("hotel_booking", "search_hotel"),),
            phenomena=frozenset(), persona_id="p",
            slot_values={"hotel_booking.search_hotel.location": "Boston",
                         "hotel_booking.search_hotel.date": "Fri 2026-05-01"},
        )
        hotel = build_single_plot(
            hotel_spec, ("hotel_booking", "search_hotel"), SCHEMAS, {},
            derive_rng(0), LLM, CFG,
            initial_slots=("location", "date"),
        )
        assert self._styled(hotel).default_styles[0][0] == "high"

        request_plot = build_single_plot(
            movie_specimen(), ("movie", "purchase_tickets"), SCHEMAS, {},
            derive_rng(0), LLM, CFG, initial_slots=("movie_name",),
        )
        styled = self._styled(request_plot)
        assert styled.default_styles[0][0] == "low"  # request_information

    def test_phenomenon_turn_forces_high(self):
        spec, = [DialogSpecimen(
            kind="Single", intents=(("alarms", "check"),),
            phenomena=frozenset(), persona_id="p",
            context_targets={"alarms.check": 0},
        )]
        plot = build_single_plot(
            spec, ("alarms", "check"), SCHEMAS, {"alarms": ALARM_CTX},
            derive_rng(0), LLM, CFG,
        )
        injected = inject_phenomena(
            plot, frozenset({"complex_referral"}), derive_rng(1),
            {"alarms": ALARM_CTX}, SCHEMAS,
        )
        styled = self._styled(injected, {"alarms": ALARM_CTX})
        assert styled.default_styles[0][0] == "high"  # would be mid otherwise

    def test_mirroring_off_for_loaded_language(self):
        plot = Plot(
            turns=list(
                parse_turns(
                    '@User@: create(name="I hate mondays", time="07:00")\n'
                    "@System@: notify_done(create())"
                )
            ),
            services=("alarms",),
            intents=("alarms.create",),
        )
        styled = self._styled(plot)
        assert styled.default_styles[0][1] == "no"

    def test_mirroring_off_for_ambiguous_referral(self):
        ctx = AppContext(
            service_name="alarms", today="Wed 2025-04-16", time="09:00",
            records=[{"time": "07:00", "name": "A"},
                     {"time": "07:00", "name": "B"}],
        )
        plot = Plot(
            turns=list(
                parse_turns(
                    '@User@: get_alarms(time="07:00").check(name)\n'
                    '@System@: inform_result(name="A")'
                )
            ),
            services=("alarms",),
            intents=("alarms.check",),
        )
        styled = self._styled(plot, {"alarms": ctx})
        assert styled.default_styles[0][1] == "no"

    def test_idempotent(self):
        spec = movie_specimen()
        plot = build_single_plot(
            spec, ("movie", "purchase_tickets"), SCHEMAS, {}, derive_rng(0),
            LLM, CFG,
        )
        once = self._styled(plot)
        twice = self._styled(once)
        assert once.default_styles == twice.default_styles


def parse_turns(text):
    from todgen.mr import Turn

    for line in text.splitlines():
        speaker, _, rest = line.partition("@: ")
        yield Turn(speaker.lstrip("@"), parse_action_list(rest))


class TestDeriveLabels:
    def test_single_compound_compositional_detection(self):
        single = Plot(
            turns=list(parse_turns(
                '@User@: purchase_tickets(movie_name="Joker")\n'
                "@System@: request_information(date)"
            )),
        )
        assert single.kind == "Single"
        assert derive_labels(single, SCHEMAS)["services"] == ("movie",)

        comp = Plot(
            turns=list(parse_turns(
                '@User@: weather_get_weather(date=get_calendar_events('
                'name="Art Class").calendar_events_check(date).date)\n'
                "@System@: weather_inform_result(conditions=\"sunny\")"
            )),
        )
        assert comp.kind == "Compositional"
        labels = derive_labels(comp, SCHEMAS)
        assert set(labels["services"]) == {"weather", "calendar_events"}

    def test_ambiguous_unprefixed_intent_raises(self):
        plot = Plot(
            turns=list(parse_turns(
                '@User@: create(time="07:00")\n@System@: notify_done(create())'
            )),
        )
        with pytest.raises(PlotError, match="cannot attribute"):
            derive_labels(plot, SCHEMAS)

    def test_pipeline_plots_are_label_consistent(self):
        from todgen.context import generate_contexts, sample_current_time
        from todgen.persona import generate_pool

        persona = generate_pool(CFG, LLM)[0]
        for i in range(40):
            rng = derive_rng("labels", i)
            now = sample_current_time(derive_rng("clock", i), CFG.time_window)
            contexts = generate_contexts(
                persona, SCHEMAS, now, LLM, CFG, derive_rng("ctx", i)
            )
            spec = sample_specimen(
                rng, SCHEMAS, persona.id, contexts, LLM, CFG,
                dialog_id=f"lab{i}",
            )
            plot = build_plot(spec, SCHEMAS, contexts, rng, LLM, CFG)
            labels = derive_labels(plot, SCHEMAS)
            assert set(labels["services"]) == set(plot.services)
            assert plot.kind == spec.kind


class TestDerivePhenomena:
    """Labels come from one walk over user-turn actions, nested action args
    at any depth included."""

    @staticmethod
    def _weather_turn(date_value) -> Turn:
        return Turn("User", (Action("weather_get_weather", (Arg("date", date_value),)),))

    def test_nested_self_correction_is_labelled(self):
        inner = Action(
            "get_calendar_events", (Arg("name", "Art Class"),),
            (Call("calendar_events_check", (Arg("date", None),)),
             Call("self_correction", (Arg("name", "Book Club"),)),
             FieldAccess("date")),
        )
        assert derive_phenomena([self._weather_turn(inner)]) == ("self_correction",)

    def _two_deep_referral_turn(self) -> Turn:
        getter = Action(
            "get_alarms", (Arg("ordered_by", "time"), Arg("index", 0)),
            (Call("alarms_check", (Arg("time", None),)), FieldAccess("time")),
        )
        middle = Action("calendar_events_find", (Arg("start_time", getter),),
                        (FieldAccess("date"),))
        return self._weather_turn(middle)

    def test_referral_two_levels_deep_is_labelled(self):
        turns = [self._two_deep_referral_turn()]
        assert derive_phenomena(turns) == ("complex_referral",)

    def test_system_turn_after_nested_phenomenon_is_high(self):
        request = Turn("System", (Action("weather_request_information",
                                         (Arg("location", None),)),))
        plain = self._weather_turn("Fri 2026-05-01")
        styled = assign_default_styles(
            Plot(turns=[plain, request, self._two_deep_referral_turn(), request]),
            SCHEMAS, {},
        )
        assert [v for v, _ in styled.default_styles] == ["low", "high"]


class TestPlotSerialization:
    def test_text_round_trip(self):
        plot = build_single_plot(
            movie_specimen(), ("movie", "purchase_tickets"), SCHEMAS, {},
            derive_rng(0), LLM, CFG,
        )
        plot = assign_default_styles(plot, SCHEMAS, {})
        back = Plot.from_dict(plot.to_dict())
        assert back.to_text() == plot.to_text()
        assert back.default_styles == plot.default_styles
        assert back.kind == plot.kind

    def test_rebuilds_share_no_mutable_state(self):
        """A plot is frozen and holds only tuples, so rebuilds of one row
        cannot change each other."""
        plot = build_single_plot(
            movie_specimen(), ("movie", "purchase_tickets"), SCHEMAS, {},
            derive_rng(0), LLM, CFG,
        )
        row = assign_default_styles(plot, SCHEMAS, {}).to_dict()
        first, second = Plot.from_dict(row), Plot.from_dict(row)
        assert first == second
        for field in dataclasses.fields(Plot):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(first, field.name, getattr(second, field.name))
        for value in (first.turns, first.services, first.intents,
                      first.phenomena, first.default_styles,
                      *first.default_styles):
            assert type(value) is tuple
        assert second == Plot.from_dict(row)

    @pytest.mark.parametrize("edit", [
        lambda p: dataclasses.replace(p, turns=p.turns[1:]),
        lambda p: dataclasses.replace(p, turns=()),
        lambda p: dataclasses.replace(p, turns=p.turns + p.turns[-1:]),
        lambda p: Plot(turns=p.turns[:1] + p.turns[:1]),
    ], ids=["system-first", "empty", "system-twice", "user-twice"])
    def test_every_construction_is_checked(self, edit):
        plot = build_single_plot(
            movie_specimen(), ("movie", "purchase_tickets"), SCHEMAS, {},
            derive_rng(0), LLM, CFG,
        )
        with pytest.raises(PlotError):
            edit(plot)

    @pytest.mark.parametrize("path", [
        ("turns",), ("default_styles",), ("labels",), ("labels", "services"),
        ("labels", "intents"), ("labels", "kind"), ("labels", "phenomena"),
    ], ids="/".join)
    def test_from_dict_needs_every_key_to_dict_writes(self, path):
        plot = build_single_plot(
            movie_specimen(), ("movie", "purchase_tickets"), SCHEMAS, {},
            derive_rng(0), LLM, CFG,
        )
        row = assign_default_styles(plot, SCHEMAS, {}).to_dict()
        *parents, key = path
        owner = row
        for parent in parents:
            owner = owner[parent]
        del owner[key]
        with pytest.raises(KeyError, match=key):
            Plot.from_dict(row)

    def test_brackets_only_for_multi_action_turns(self):
        spec = DialogSpecimen(
            kind="Single", intents=(("alarms", "check"),),
            phenomena=frozenset(), persona_id="p",
            context_targets={"alarms.check": 0},
        )
        plot = build_single_plot(
            spec, ("alarms", "check"), SCHEMAS, {"alarms": ALARM_CTX},
            derive_rng(0), LLM, CFG,
        )
        for line in plot.to_text().splitlines():
            assert not line.partition(": ")[2].startswith("[")

    def test_values_with_line_breaks_round_trip(self):
        """MR strings are JSON literals and a row splits its turns at
        ``\\n`` only, so no value can break a turn line."""
        odd = "a\nb\rc\td\x85e\u2028f\"g\\h"
        plot = Plot(
            turns=[
                Turn("User", (Action("create", (Arg("name", odd),)),)),
                Turn("System", (Action("notify_done", (
                    Arg(None, Action("create", (Arg("name", odd),))),)),)),
            ],
            services=("alarms",), intents=("alarms.create",),
            default_styles=[("low", "yes")],
        )
        back = Plot.from_dict(json.loads(json.dumps(plot.to_dict())))
        assert back == plot
        assert back.turns[0].actions[0].arg_value("name") == odd

    def test_row_with_a_raw_tab_in_a_string_reads(self):
        """Rows printed before strings were JSON may hold raw tabs."""
        row = {
            "turns": '@User@: create(name="Gym\tclass")\n'
                     '@System@: notify_done(create(name="Gym\tclass"))',
            "default_styles": [["low", "yes"]],
            "labels": {"services": ["alarms"], "intents": ["alarms.create"],
                       "kind": "Single", "phenomena": []},
        }
        plot = Plot.from_dict(row)
        assert plot.turns[0].actions[0].arg_value("name") == "Gym\tclass"

    @pytest.mark.parametrize("key, stored", [
        ("kind", "Compound"), ("phenomena", ["self_correction"]),
    ])
    def test_from_dict_rejects_labels_the_turns_contradict(self, key, stored):
        plot = build_single_plot(
            movie_specimen(), ("movie", "purchase_tickets"), SCHEMAS, {},
            derive_rng(0), LLM, CFG,
        )
        row = assign_default_styles(plot, SCHEMAS, {}).to_dict()
        row["labels"][key] = stored
        with pytest.raises(PlotError, match=f"stored {key}"):
            Plot.from_dict(row)

    @pytest.mark.parametrize("styles, problem", [
        (lambda s: s[:-1], "default styles for"),
        (lambda s: s + s[-1:], "default styles for"),
        (lambda s: [("loud", "yes")] + s[1:], "low/mid/high x yes/no"),
        (lambda s: [("low", "mirroring")] + s[1:], "low/mid/high x yes/no"),
    ], ids=["one-short", "one-over", "bad-verbosity", "bad-mirroring"])
    def test_default_styles_fit_the_system_turns(self, styles, problem):
        plot = build_single_plot(
            movie_specimen(), ("movie", "purchase_tickets"), SCHEMAS, {},
            derive_rng(0), LLM, CFG,
        )
        styled = assign_default_styles(plot, SCHEMAS, {})
        assert len(styled.default_styles) > 1
        with pytest.raises(PlotError, match=problem):
            dataclasses.replace(styled,
                                default_styles=styles(list(styled.default_styles)))
