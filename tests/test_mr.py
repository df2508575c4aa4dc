"""Parser, printer, and evaluator tests for the MR action language."""

import pytest
from hypothesis import given, settings, strategies as st

from todgen.mr import (
    Action,
    Arg,
    Call,
    FieldAccess,
    MRResolutionError,
    MRSyntaxError,
    apply_self_correction,
    parse_action,
    parse_action_list,
    print_action,
    print_action_list,
    resolve_referral,
)


# Every published action string must parse (conformance corpus).
CONFORMANCE_STRINGS = [
    'restaurant_booking_reserve_table(restaurant="French Brasserie", time="8:00 PM")',
    'hotel_booking_search_hotel(location="Las Vegas")',
    'weather_get_weather(date=get_calendar_events(name="Art Class").calendar_events_check(date).date)',
    'get_movie_time(movie_name="Fast & Furious Presents: Hobbs & Shaw", location="Miami").self_correction(location="Houston")',
    'get_alarms(ordered_by="time", index=0).check(time)',
    'get_alarms(ordered_by="time", index=0).alarms_delete(name)',
    'get_alarms(ordered_by="time", index=1).alarms_check(name)',
    'alarms_ask_confirm(get_alarms(name="Morning Workout").delete(name))',
    'alarms_inform_result(name="Family Dinner")',
    'alarms_confirm()',
    'alarms_notify_done(get_alarms(name="Morning Workout").delete(name))',
    'purchase_tickets(movie_name="Joker", date="Tue 2026-12-29", cinema_name="Regal Cinemas", ticket_quantity=1, movie_format="3d")',
    'request_infomation(showtime)',
    'inform_infomation(showtime="20:00")',
    'ask_confirm(purchase_tickets(movie_name="Joker", ticket_quantity=1, date="Tue 2026-12-29", showtime="20:00", movie_format="3d", cinema_name="Regal Cinemas"))',
    'confirm()',
    'notify_done(purchase_tickets(movie_name="Joker", ticket_quantity=1, date="Tue 2026-12-29", showtime="20:00", movie_format="3d", cinema_name="Regal Cinemas"))',
]


class TestParse:
    def test_empty_call(self):
        assert parse_action("confirm()") == Action("confirm")

    def test_args_and_chain(self):
        a = parse_action('get_alarms(ordered_by="time", index=0).alarms_check(name)')
        assert a.head == "get_alarms"
        assert a.args == (Arg("ordered_by", "time"), Arg("index", 0))
        assert a.chain == (Call("alarms_check", (Arg("name", None),)),)

    def test_nested_action_with_field_access(self):
        a = parse_action(
            'weather_get_weather(date=get_calendar_events(name="Art Class")'
            ".calendar_events_check(date).date)"
        )
        inner = a.arg_value("date")
        assert isinstance(inner, Action)
        assert inner.head == "get_calendar_events"
        assert inner.chain[-1] == FieldAccess("date")

    def test_positional_action_arg(self):
        a = parse_action('ask_confirm(get_alarms(name="Gym").delete(name))')
        assert a.args[0].keyword is None
        assert isinstance(a.args[0].value, Action)

    def test_whitespace_insensitive(self):
        assert parse_action('f( a = 1 , b = "x" ) . g ( c )') == parse_action(
            'f(a=1, b="x").g(c)'
        )

    @pytest.mark.parametrize("text", CONFORMANCE_STRINGS)
    def test_conformance_corpus_parses(self, text):
        a = parse_action(text)
        assert parse_action(print_action(a)) == a

    @pytest.mark.parametrize(
        "bad", ["", "f(", "f(a=)", "f()..g", "f() trailing", "1f()", 'f(a="x)']
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(MRSyntaxError) as exc:
            parse_action(bad)
        assert exc.value.offset >= 0

    def test_error_reports_offset(self):
        with pytest.raises(MRSyntaxError) as exc:
            parse_action("f(a=1,")
        assert exc.value.offset == 6

    def test_action_list(self):
        actions = parse_action_list(
            '[get_alarms(index=0).alarms_delete(name), alarms_confirm()]'
        )
        assert len(actions) == 2
        assert parse_action_list("confirm()") == (Action("confirm"),)

    def test_string_escapes_round_trip(self):
        a = parse_action('f(x="say \\"hi\\" \\\\ bye")')
        assert a.arg_value("x") == 'say "hi" \\ bye'
        assert parse_action(print_action(a)) == a


class TestPrint:
    def test_empty(self):
        assert print_action(Action("confirm")) == "confirm()"

    def test_canonical_spacing(self):
        text = 'get_movie_time(movie_name="Joker", location="Miami").self_correction(location="Houston")'
        assert print_action(parse_action(text)) == text

    def test_bool_canonical_form(self):
        assert print_action(parse_action("f(x=True)")) == "f(x=true)"


# random AST generator for the round-trip property
# the language of [a-z_][a-z0-9_]{0,8}, drawn without st.from_regex, which
# spent most of this module's run time on identifiers
_idents = st.builds(
    str.__add__,
    st.sampled_from("abcdefghijklmnopqrstuvwxyz_"),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", max_size=8),
)
_literals = st.one_of(
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12
    ),
    st.integers(-1000, 1000),
    st.booleans(),
)


def _actions(depth):
    values = _literals if depth == 0 else st.one_of(_literals, _actions(depth - 1))
    args = st.lists(
        st.tuples(_idents, values), max_size=3, unique_by=lambda kv: kv[0]
    ).map(lambda kvs: tuple(Arg(k, v) for k, v in kvs))
    bare_args = st.lists(_idents, max_size=2, unique=True).map(
        lambda ks: tuple(Arg(k, None) for k in ks)
    )
    segments = st.lists(
        st.one_of(
            _idents.map(FieldAccess),
            st.tuples(_idents, st.one_of(args, bare_args)).map(
                lambda na: Call(*na)
            ),
        ),
        max_size=2,
    ).map(tuple)
    return st.builds(Action, _idents, args, segments)


@settings(max_examples=1000, deadline=None)
@given(_actions(2))
def test_print_parse_round_trip(action):
    text = print_action(action)
    assert "\n" not in text  # a stored plot splits its turns at "\n"
    assert parse_action(text) == action


@settings(max_examples=50, deadline=None)
@given(st.lists(_actions(1), min_size=1, max_size=3).map(tuple))
def test_cached_action_list_round_trip(actions):
    text = print_action_list(actions)
    assert parse_action_list(text) == actions
    assert parse_action_list(text) == actions  # served from the parse cache


def test_malformed_action_list_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(MRSyntaxError, match="unexpected"):
            parse_action_list("[confirm(), f(a=1]")


class _Ctx:
    def __init__(self, records):
        self.records = records


ALARMS = _Ctx(
    [
        {"time": "07:00", "name": "Morning Workout", "if_repeat": "True"},
        {"time": "18:30", "name": "Family Dinner", "if_repeat": "True"},
    ]
)


class TestResolveReferral:
    def test_earliest_record(self):
        a = parse_action('get_alarms(ordered_by="time", index=0)')
        assert resolve_referral(a, ALARMS)["name"] == "Morning Workout"

    def test_index_then_check(self):
        a = parse_action('get_alarms(ordered_by="time", index=1).alarms_check(name)')
        assert resolve_referral(a, ALARMS) == "Family Dinner"

    def test_generic_check(self):
        a = parse_action('get_alarms(ordered_by="time", index=0).check(time)')
        assert resolve_referral(a, ALARMS) == "07:00"

    def test_filter_selects_matches(self):
        a = parse_action('get_alarms(name="Family Dinner")')
        assert resolve_referral(a, ALARMS)["time"] == "18:30"

    def test_empty_context_index_error(self):
        a = parse_action('get_alarms(ordered_by="time", index=0)')
        with pytest.raises(MRResolutionError, match="out of range"):
            resolve_referral(a, _Ctx([]))

    def test_unknown_slot(self):
        a = parse_action('get_alarms(index=0).check(volume)')
        with pytest.raises(MRResolutionError, match="volume"):
            resolve_referral(a, ALARMS)

    def test_ambiguous_projection(self):
        a = parse_action('get_alarms(if_repeat="True").check(time)')
        with pytest.raises(MRResolutionError, match="ambiguous"):
            resolve_referral(a, ALARMS)

    def test_tie_break_is_insertion_order(self):
        ctx = _Ctx(
            [
                {"time": "09:00", "name": "first"},
                {"time": "09:00", "name": "second"},
            ]
        )
        a = parse_action('get_alarms(ordered_by="time", index=0)')
        assert resolve_referral(a, ctx)["name"] == "first"

    def test_operation_chain_returns_target(self):
        a = parse_action('get_alarms(ordered_by="time", index=0).alarms_delete(name)')
        assert resolve_referral(a, ALARMS)["name"] == "Morning Workout"


class TestSelfCorrection:
    def test_table_override(self):
        a = parse_action(
            'get_movie_time(movie_name="Hobbs & Shaw", location="Miami")'
            '.self_correction(location="Houston")'
        )
        corrected = apply_self_correction(a)
        assert corrected == parse_action(
            'get_movie_time(movie_name="Hobbs & Shaw", location="Houston")'
        )

    def test_zero_overrides(self):
        a = parse_action("f(x=1).self_correction()")
        assert apply_self_correction(a) == parse_action("f(x=1)")

    def test_override_missing_keyword(self):
        a = parse_action('f(x=1).self_correction(y="2")')
        with pytest.raises(ValueError, match="'y'"):
            apply_self_correction(a)

    def test_head_only_even_if_chained_call_shares_keyword(self):
        a = parse_action('f(x="a").g(x="b").self_correction(x="c")')
        corrected = apply_self_correction(a)
        assert corrected.arg_value("x") == "c"
        assert corrected.chain == (Call("g", (Arg("x", "b"),)),)

    def test_requires_trailing_segment(self):
        with pytest.raises(ValueError):
            apply_self_correction(parse_action("f(x=1)"))
