"""Utterance realization: templates, styled responses, history construction,
and retry behavior on malformed completions."""

import json
from collections import Counter

import pytest
from click.testing import CliRunner

from todgen import realizer
from todgen.cli import main
from todgen.config import PipelineConfig, data_path
from todgen.dataset import read_dataset
from todgen.llm import Backend, make_backend
from todgen.mr import print_action
from todgen.persona import Persona
from todgen.plot import assign_default_styles, build_single_plot
from todgen.realizer import (
    SIX_KEYS,
    DialogRecord,
    RealizerError,
    StyledResponse,
    TemplateError,
    build_history,
    realize_dialog,
    realize_system_turn,
    realize_user_turn,
    render_template,
    style_key,
)
from todgen.rng import derive_rng
from todgen.sampler import DialogSpecimen
from todgen.schema import load_schema_set

CFG = PipelineConfig(seed=11)
SCHEMAS = load_schema_set(CFG.schema_manifest_path)
LLM = make_backend(CFG.user_backend, CFG.seed)

PERSONA = Persona(
    id="persona-test",
    surname="Nguyen",
    first_name="Mai",
    introduction="Mai Nguyen works as a nurse and lives in Boston.",
    speaking_habit="You speak in a brief, reserved way and state concrete "
                   "facts plainly.",
)


def ticket_plot():
    spec = DialogSpecimen(
        kind="Single",
        intents=(("movie", "purchase_tickets"),),
        phenomena=frozenset(),
        persona_id=PERSONA.id,
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
        spec, ("movie", "purchase_tickets"), SCHEMAS, {}, derive_rng(0), LLM,
        CFG,
        initial_slots=("movie_name", "date", "cinema_name", "ticket_quantity",
                       "movie_format"),
    )
    return assign_default_styles(plot, SCHEMAS, {})


def printed(turn):
    return [print_action(a) for a in turn.actions]


class ScriptedBackend(Backend):
    """Returns canned completions in order; repeats the last one."""

    def __init__(self, completions):
        self.completions = list(completions)
        self.calls = 0

    def _complete(self, req):
        self.calls += 1
        index = min(self.calls - 1, len(self.completions) - 1)
        return self.completions[index]


class TestRenderTemplate:
    def test_substitutes_placeholders(self, monkeypatch):
        monkeypatch.setattr(realizer, "_template",
                            {"t.txt": "Hello {{ name }}, {{name}}!"}.__getitem__)
        out = render_template("t.txt", {"name": "Ada"})
        assert out == "Hello Ada, Ada!"

    def test_unbound_variable_errors(self, monkeypatch):
        monkeypatch.setattr(realizer, "_template",
                            {"t.txt": "{{ missing }}"}.__getitem__)
        with pytest.raises(TemplateError, match="unbound template variable"):
            render_template("t.txt", {})

    def test_missing_template_errors(self):
        for _ in range(2):  # a failed read is not cached
            with pytest.raises(TemplateError, match="cannot read"):
                render_template("absent.txt", {})

    def test_mock_run_reads_each_template_once(self, monkeypatch, tmp_path):
        reads = Counter()

        def counting_data_path(*parts):
            reads[parts[-1]] += 1
            return data_path(*parts)

        monkeypatch.setattr(realizer, "data_path", counting_data_path)
        realizer._template.cache_clear()
        config = tmp_path / "config.yaml"
        config.write_text("persona_pool_size: 4\n")
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run-all", "--config", str(config), "--backend", "mock",
                   "--count", "12", "--out", str(out)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
        assert len(read_dataset(out / "dialogs.jsonl")) == 12
        assert len((out / "qc_report.jsonl").read_text().splitlines()) == 12
        assert reads == {"user.txt": 1, "system.txt": 1, "qc.txt": 1}

    def test_packaged_templates_render(self):
        bindings_user = {
            "user_intro": "x", "context": "{}", "situation": "movie",
            "history": "", "action[cur_turn]": "[]",
            "user_style_instruction": "terse",
        }
        text = render_template("user.txt", bindings_user)
        assert "{{" not in text
        text = render_template(
            "system.txt",
            {"situation": "movie", "history": "", "action[cur_turn]": "{}"},
        )
        assert "{{" not in text
        text = render_template(
            "qc.txt", {"context": "{}", "actions_and_utterances": ""}
        )
        assert "{{" not in text


class TestStyledResponse:
    def test_requires_exactly_six_nonempty_variants(self):
        good = {k: f"v {k}" for k in SIX_KEYS}
        r = StyledResponse(variants=good, default_key=SIX_KEYS[0])
        assert r.default_utterance == f"v {SIX_KEYS[0]}"

        for bad in (
            {k: good[k] for k in SIX_KEYS[:-1]},               # missing key
            {**good, SIX_KEYS[2]: ""},                          # empty value
            {**good, SIX_KEYS[2]: "   "},                       # blank value
            {**good, SIX_KEYS[2]: 5},                           # not a string
            {**good, "verbosity_extreme mirroring": "x"},       # extra key
        ):
            with pytest.raises(RealizerError):
                StyledResponse(variants=bad, default_key=SIX_KEYS[0])
        with pytest.raises(RealizerError, match="bad default key"):
            StyledResponse(variants=good, default_key="loud")

    def test_style_key_mapping(self):
        assert style_key("high", "yes") == "verbosity_high mirroring"
        assert style_key("low", "no") == "verbosity_low no_mirroring"


class TestBuildHistory:
    def test_seeded_exchange_then_default_styles(self):
        plot = ticket_plot()
        styled = StyledResponse(
            variants={k: f"resp [{k}]" for k in SIX_KEYS},
            default_key="verbosity_low no_mirroring",
        )
        seeded = realizer._SEEDED_EXCHANGE
        assert seeded[0].startswith('user: {"actions": ["hello()"]')
        assert seeded[1].startswith('assistant: {"actions": ["offer_help()"]')
        user_line = build_history(printed(plot.turns[0]), "I want a ticket.")
        assert user_line.startswith("user: ") and "\n" not in user_line
        user_entry = json.loads(user_line.split("user: ", 1)[1])
        assert user_entry["message"] == "I want a ticket."
        assert user_entry["actions"][0].startswith("purchase_tickets(")
        system_line = build_history(printed(plot.turns[1]), styled)
        system_entry = json.loads(system_line.split("assistant: ", 1)[1])
        assert system_entry == {
            "actions": [print_action(a) for a in plot.turns[1].actions],
            "message": "resp [verbosity_low no_mirroring]",
        }

    def test_turn_k_sees_seeded_exchange_and_k_earlier_lines(self, monkeypatch):
        histories = []
        render = realizer.render_template

        def recording_render(name, bindings):
            histories.append(bindings["history"])
            return render(name, bindings)

        monkeypatch.setattr(realizer, "render_template", recording_render)
        plot = ticket_plot()
        record = realize_dialog(plot, PERSONA, {}, LLM, LLM, CFG)
        assert len(histories) == len(plot.turns) > 2
        for k, history in enumerate(histories):
            lines = history.split("\n")
            assert lines[:2] == list(realizer._SEEDED_EXCHANGE)
            assert len(lines) == 2 + k
            for line, turn, realized in zip(lines[2:], plot.turns,
                                            record.turns):
                role, payload = line.split(": ", 1)
                user = turn.speaker == "User"
                assert role == ("user" if user else "assistant")
                assert json.loads(payload) == {
                    "actions": [print_action(a) for a in turn.actions],
                    "message": realized if user else realized.default_utterance,
                }


class TestRealizeUserTurn:
    def test_mock_turn_mentions_values(self):
        plot = ticket_plot()
        turn = plot.turns[0]
        utterance = realize_user_turn(
            turn, printed(turn), "", PERSONA, {}, "movie", LLM, CFG
        )
        assert "Joker" in utterance and "Regal Cinemas" in utterance

    def test_deterministic(self):
        plot = ticket_plot()
        turn = plot.turns[0]
        a = realize_user_turn(turn, printed(turn), "", PERSONA, {}, "movie",
                              LLM, CFG)
        b = realize_user_turn(turn, printed(turn), "", PERSONA, {}, "movie",
                              make_backend(CFG.user_backend, CFG.seed), CFG)
        assert a == b

    def test_retries_after_malformed_completion(self):
        plot = ticket_plot()
        backend = ScriptedBackend(
            ["not json at all", '{"actions": [], "message": "Two tickets."}']
        )
        turn = plot.turns[0]
        utterance = realize_user_turn(
            turn, printed(turn), "", PERSONA, {}, "movie", backend, CFG
        )
        assert utterance == "Two tickets."
        assert backend.calls == 2

    def test_exhausted_retries_raise(self):
        plot = ticket_plot()
        backend = ScriptedBackend(['{"actions": []}'])  # never has a message
        with pytest.raises(RealizerError, match="no 'message' key"):
            realize_user_turn(plot.turns[0], printed(plot.turns[0]), "",
                              PERSONA, {}, "movie", backend, CFG)
        assert backend.calls == CFG.content_retries

    def test_rejects_system_turn(self):
        plot = ticket_plot()
        with pytest.raises(RealizerError, match="needs a user turn"):
            realize_user_turn(plot.turns[1], printed(plot.turns[1]), "",
                              PERSONA, {}, "movie", LLM, CFG)


class TestRealizeSystemTurn:
    def test_six_variants_with_verbosity_ordering(self):
        from todgen.dataset import word_count

        plot = ticket_plot()
        turn = plot.turns[1]
        response = realize_system_turn(
            turn, printed(turn), "", "movie", ("low", "no"),
            "A ticket please.", LLM, CFG,
        )
        assert set(response.variants) == set(SIX_KEYS)
        for suffix in ("mirroring", "no_mirroring"):
            low = word_count(response.variants[f"verbosity_low {suffix}"])
            mid = word_count(response.variants[f"verbosity_mid {suffix}"])
            high = word_count(response.variants[f"verbosity_high {suffix}"])
            assert low < mid < high

    def test_mirroring_variant_echoes_user_wording(self):
        plot = ticket_plot()
        turn = plot.turns[1]
        response = realize_system_turn(
            turn, printed(turn), "", "movie", ("low", "no"),
            "I want to see a funny movie tonight", LLM, CFG,
        )
        mirrored = response.variants["verbosity_high mirroring"]
        plain = response.variants["verbosity_high no_mirroring"]
        assert "funny movie tonight" in mirrored
        assert "funny movie tonight" not in plain

    def test_missing_style_keys_retry_then_fail(self):
        plot = ticket_plot()
        backend = ScriptedBackend(['{"only": "one"}'])
        with pytest.raises(RealizerError, match="six style keys"):
            realize_system_turn(
                plot.turns[1], printed(plot.turns[1]), "", "movie",
                ("low", "no"), "", backend, CFG
            )
        assert backend.calls == CFG.content_retries

    def test_non_string_variant_is_retried(self):
        plot = ticket_plot()
        bad = json.dumps({k: 5 if i == 2 else f"words {i}"
                          for i, k in enumerate(SIX_KEYS)})
        backend = ScriptedBackend([bad])
        with pytest.raises(RealizerError, match="non-blank string"):
            realize_system_turn(
                plot.turns[1], printed(plot.turns[1]), "", "movie",
                ("low", "no"), "", backend, CFG
            )
        assert backend.calls == CFG.content_retries

    def test_bad_default_style_is_not_retried(self):
        plot = ticket_plot()
        valid = json.dumps({k: f"words {i}" for i, k in enumerate(SIX_KEYS)})
        backend = ScriptedBackend([valid])
        with pytest.raises(RealizerError, match="bad default key"):
            realize_system_turn(
                plot.turns[1], printed(plot.turns[1]), "", "movie",
                ("loud", "no"), "", backend, CFG
            )
        assert backend.calls == 1

    def test_malformed_then_valid_completion_recovers(self):
        plot = ticket_plot()
        valid = json.dumps({k: f"words for {k} {'x ' * i}" for i, k in
                            enumerate(SIX_KEYS)})
        backend = ScriptedBackend(["<<garbage>>", valid])
        turn = plot.turns[1]
        response = realize_system_turn(
            turn, printed(turn), "", "movie", ("low", "no"), "", backend, CFG
        )
        assert backend.calls == 2
        assert response.variants["verbosity_low mirroring"].startswith("words")


class TestRealizeDialog:
    def test_each_action_is_printed_once(self, monkeypatch):
        calls = []

        def counting_print(action):
            calls.append(action)
            return print_action(action)

        monkeypatch.setattr(realizer, "print_action", counting_print)
        plot = ticket_plot()
        realize_dialog(plot, PERSONA, {}, LLM, LLM, CFG)
        assert calls == [a for turn in plot.turns for a in turn.actions]

    def test_every_plot_turn_is_realized(self):
        plot = ticket_plot()
        record = realize_dialog(plot, PERSONA, {}, LLM, LLM, CFG)
        assert len(record.turns) == len(plot.turns)
        record.validate_against(plot)
        for turn, realized in zip(plot.turns, record.turns):
            if turn.speaker == "User":
                assert isinstance(realized, str) and realized
            else:
                assert isinstance(realized, StyledResponse)

    def test_default_styles_required(self):
        spec = DialogSpecimen(
            kind="Single",
            intents=(("movie", "purchase_tickets"),),
            phenomena=frozenset(),
            persona_id=PERSONA.id,
            slot_values={
                "movie.purchase_tickets.movie_name": "Joker",
                "movie.purchase_tickets.date": "Tue 2026-12-29",
                "movie.purchase_tickets.cinema_name": "Regal Cinemas",
                "movie.purchase_tickets.ticket_quantity": 1,
                "movie.purchase_tickets.showtime": "20:00",
                "movie.purchase_tickets.movie_format": "3d",
            },
        )
        bare = build_single_plot(
            spec, ("movie", "purchase_tickets"), SCHEMAS, {}, derive_rng(0),
            LLM, CFG,
        )
        with pytest.raises(RealizerError, match="default styles"):
            realize_dialog(bare, PERSONA, {}, LLM, LLM, CFG)

    def test_record_round_trip(self):
        plot = ticket_plot()
        record = realize_dialog(plot, PERSONA, {}, LLM, LLM, CFG)
        back = DialogRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        back.validate_against(plot)
        assert back.to_dict() == record.to_dict()
