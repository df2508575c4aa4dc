"""Dialog specimen sampling: kind ratios, phenomenon rates, the
compositional intent-pair pool, and specimen invariants."""

import collections
import json

import pytest

from todgen.cli import make_backend
from todgen.config import PipelineConfig
from todgen.context import generate_contexts, sample_current_time
from todgen.persona import generate_pool
from todgen.rng import derive_rng
from todgen.sampler import (
    COMPLEX_REFERRAL,
    KINDS,
    SELF_CORRECTION,
    CompositionalPair,
    DialogSpecimen,
    SamplerError,
    enumerate_compositional_pool,
    sample_compositional,
    sample_kind,
    sample_specimen,
)
from todgen.schema import load_schema_set

CFG = PipelineConfig(seed=53, persona_pool_size=2)
SCHEMAS = load_schema_set(CFG.schema_manifest_path)
LLM = make_backend(CFG.user_backend, CFG.seed)


class TestSampleKind:
    def test_rates_match_configuration(self):
        kinds = collections.Counter()
        corrections = referrals = 0
        n = 5000
        rng = derive_rng("kinds")
        for _ in range(n):
            kind, phenomena = sample_kind(
                rng, CFG.kind_ratios, CFG.self_correction_rate,
                CFG.complex_referral_rate)
            kinds[kind] += 1
            corrections += SELF_CORRECTION in phenomena
            referrals += COMPLEX_REFERRAL in phenomena
        assert abs(kinds["Compound"] / n - 0.405) < 0.02
        assert abs(kinds["Compositional"] / n - 0.209) < 0.02
        assert abs(kinds["Single"] / n - 0.386) < 0.02
        assert abs(corrections / n - 0.19) < 0.02
        assert abs(referrals / n - 0.151) < 0.02


class TestCompositionalPool:
    def test_pool_contains_movie_showtime_pair(self):
        pool = enumerate_compositional_pool(SCHEMAS)
        assert CompositionalPair(
            outer_service="movie", outer_intent="purchase_tickets",
            outer_slot="showtime", inner_service="movie",
            inner_intent="get_movie_time", inner_slot="showtime",
        ) in pool

    def test_pool_contains_calendar_date_to_weather(self):
        pool = enumerate_compositional_pool(SCHEMAS)
        assert any(
            p.outer_service == "weather" and p.inner_service == "calendar_events"
            and p.outer_slot == "date"
            for p in pool
        )

    def test_no_self_pairs_or_context_outers(self):
        for p in enumerate_compositional_pool(SCHEMAS):
            assert (p.outer_service, p.outer_intent) != \
                (p.inner_service, p.inner_intent)
            outer = SCHEMAS.service(p.outer_service).intent(p.outer_intent)
            assert not outer.require_context
            inner = SCHEMAS.service(p.inner_service).intent(p.inner_intent)
            assert p.inner_slot in inner.result_slots
            assert p.outer_slot in outer.input_slots

    def test_sample_is_deterministic(self):
        a = sample_compositional(derive_rng(3), SCHEMAS)
        b = sample_compositional(derive_rng(3), SCHEMAS)
        assert a == b

    def test_empty_pool_raises(self):
        # weather has no intent whose result feeds another weather input
        lonely = SCHEMAS.subset(("weather",))
        with pytest.raises(SamplerError, match="no valid compositional"):
            sample_compositional(derive_rng(0), lonely)


class TestDialogSpecimen:
    def test_intent_count_enforced_per_kind(self):
        with pytest.raises(SamplerError, match="exactly 1"):
            DialogSpecimen(kind="Single", intents=(("a", "b"), ("c", "d")),
                           phenomena=frozenset(), persona_id="p")
        with pytest.raises(SamplerError, match="exactly 2"):
            DialogSpecimen(kind="Compound", intents=(("a", "b"),),
                           phenomena=frozenset(), persona_id="p")
        with pytest.raises(SamplerError, match="matched_slot"):
            DialogSpecimen(kind="Compositional",
                           intents=(("a", "b"), ("c", "d")),
                           phenomena=frozenset(), persona_id="p")
        with pytest.raises(SamplerError, match="bad kind"):
            DialogSpecimen(kind="Weird", intents=(("a", "b"),),
                           phenomena=frozenset(), persona_id="p")

    def test_round_trip(self):
        spec = DialogSpecimen(
            kind="Compositional",
            intents=(("movie", "purchase_tickets"), ("movie", "get_movie_time")),
            phenomena=frozenset({SELF_CORRECTION}),
            persona_id="p",
            matched_slot=("showtime", "showtime"),
            slot_values={"movie.purchase_tickets.movie_name": "Dune"},
            context_targets={},
        )
        assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()
        assert spec.value("movie", "purchase_tickets", "movie_name") == "Dune"


@pytest.fixture(scope="module")
def sampled():
    persona = generate_pool(CFG, LLM)[0]
    specs = []
    for i in range(300):
        rng = derive_rng("spec", i)
        now = sample_current_time(derive_rng("spec-clock", i), CFG.time_window)
        contexts = generate_contexts(
            persona, SCHEMAS, now, LLM, CFG, derive_rng("spec-ctx", i)
        )
        specs.append(
            (sample_specimen(rng, SCHEMAS, persona.id, contexts, LLM, CFG,
                             dialog_id=f"s{i}"), contexts)
        )
    return specs


class TestSampleSpecimen:
    def test_kind_distribution_survives_constraints(self, sampled):
        kinds = collections.Counter(s.kind for s, _ in sampled)
        n = len(sampled)
        for kind, target in zip(KINDS, CFG.kind_ratios):
            assert abs(kinds[kind] / n - target) < 0.08

    def test_referral_only_on_context_intents(self, sampled):
        for spec, contexts in sampled:
            if COMPLEX_REFERRAL not in spec.phenomena:
                continue
            assert any(
                SCHEMAS.service(s).intent(i).require_context
                and contexts.get(s) and contexts[s].records
                for s, i in spec.intents
            )

    def test_context_targets_index_real_records(self, sampled):
        for spec, contexts in sampled:
            for key, idx in spec.context_targets.items():
                service = key.split(".")[0]
                assert 0 <= idx < len(contexts[service].records)

    def test_required_values_are_filled(self, sampled):
        for spec, _ in sampled:
            for service, intent_name in spec.intents:
                intent = SCHEMAS.service(service).intent(intent_name)
                if intent.require_context:
                    continue
                for slot in intent.input_slots:
                    assert spec.value(service, intent_name, slot) is not None, \
                        f"{service}.{intent_name}.{slot} unfilled"

    def test_compositional_matched_value_propagated(self, sampled):
        seen = False
        for spec, _ in sampled:
            if spec.kind != "Compositional":
                continue
            seen = True
            inner_slot, outer_slot = spec.matched_slot
            outer = spec.intents[0]
            inner = spec.intents[1]
            assert spec.value(*outer, outer_slot) == \
                spec.value(*inner, inner_slot)
        assert seen

    def test_potential_value_slots_stay_in_vocabulary(self, sampled):
        for spec, _ in sampled:
            for key, value in spec.slot_values.items():
                service, intent, slot = key.split(".", 2)
                svc = SCHEMAS.service(service)
                if not svc.has_slot(slot):
                    continue
                allowed = svc.slot(slot).potential_values
                if allowed and not SCHEMAS.service(service).intent(
                    intent.split(".")[0]
                ).require_context:
                    assert str(value) in allowed

    def test_deterministic(self, sampled):
        persona = generate_pool(CFG, LLM)[0]
        _, contexts = sampled[0]
        a = sample_specimen(derive_rng("spec", 0), SCHEMAS, persona.id, contexts,
                            LLM, CFG, dialog_id="s0")
        assert a.to_dict() == sampled[0][0].to_dict()
