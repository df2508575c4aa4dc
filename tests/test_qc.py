"""Quality control: leak detection, slot coverage with value normalization,
evaluator dispositions, and fault seeding."""

import copy

import pytest

from todgen.config import PipelineConfig
from todgen.context import generate_contexts, sample_current_time
from todgen.dataset import Datapoint
from todgen.llm import Backend, make_backend
from todgen.persona import generate_pool
from todgen.plot import build_plot
from todgen.qc import (
    check_slot_coverage,
    check_unformatted,
    evaluate_consistency,
    run_qc,
    value_variants,
)
from todgen.realizer import realize_dialog
from todgen.rng import derive_rng
from todgen.sampler import sample_specimen
from todgen.schema import load_schema_set

CFG = PipelineConfig(seed=23, persona_pool_size=2)
SCHEMAS = load_schema_set(CFG.schema_manifest_path)
LLM = make_backend(CFG.user_backend, CFG.seed)


@pytest.fixture(scope="module")
def clean_datapoints():
    persona = generate_pool(CFG, LLM)[0]
    dps = []
    i = 0
    while len(dps) < 6:
        rng = derive_rng("qc", i)
        i += 1
        now = sample_current_time(derive_rng("qc-clock", i), CFG.time_window)
        contexts = generate_contexts(
            persona, SCHEMAS, now, LLM, CFG, derive_rng("qc-ctx", i)
        )
        spec = sample_specimen(rng, SCHEMAS, persona.id, contexts, LLM, CFG,
                               dialog_id=f"qc-{i}")
        plot = build_plot(spec, SCHEMAS, contexts, rng, LLM, CFG)
        dialog = realize_dialog(plot, persona, contexts, LLM, LLM, CFG)
        dps.append(Datapoint(id=f"qc-{i}", plot=plot, dialog=dialog,
                             persona_id=persona.id, contexts=contexts))
    return dps


def _mutate_utterance(dp, fn):
    """Deep-copied datapoint with fn applied to the first user utterance and
    every variant of the first system turn."""
    out = copy.deepcopy(dp)
    for i, realized in enumerate(out.dialog.turns):
        if isinstance(realized, str):
            out.dialog.turns[i] = fn(realized)
        else:
            realized.variants = {k: fn(v) for k, v in realized.variants.items()}
        break
    return out


class TestCheckUnformatted:
    def test_clean_dialogs_pass(self, clean_datapoints):
        for dp in clean_datapoints:
            verdict, details = check_unformatted(dp)
            assert verdict == "pass", details

    def test_bare_iso_date_fails(self, clean_datapoints):
        bad = _mutate_utterance(
            clean_datapoints[0], lambda t: t + " See you on 2026-03-01."
        )
        verdict, details = check_unformatted(bad)
        assert verdict == "fail"
        assert any("bare ISO date" in d for d in details)

    def test_weekday_prefixed_date_is_allowed(self, clean_datapoints):
        ok = _mutate_utterance(
            clean_datapoints[0], lambda t: t + " See you on Sun 2026-03-01."
        )
        verdict, _ = check_unformatted(ok)
        assert verdict == "pass"

    def test_iso_datetime_fails_even_with_weekday(self, clean_datapoints):
        bad = _mutate_utterance(
            clean_datapoints[0], lambda t: t + " At Sun 2026-03-01 17:30."
        )
        verdict, details = check_unformatted(bad)
        assert verdict == "fail"
        assert any("ISO datetime" in d for d in details)

    def test_unresolved_placeholder_fails(self, clean_datapoints):
        bad = _mutate_utterance(
            clean_datapoints[0], lambda t: t + " {{ user_name }}"
        )
        verdict, details = check_unformatted(bad)
        assert verdict == "fail"
        assert any("placeholder" in d for d in details)

    def test_raw_action_fragment_fails(self, clean_datapoints):
        bad = _mutate_utterance(
            clean_datapoints[0], lambda t: t + ' I ran create(name="Run").'
        )
        verdict, details = check_unformatted(bad)
        assert verdict == "fail"
        assert any("action fragment" in d for d in details)

    def test_plain_parentheses_are_fine(self, clean_datapoints):
        ok = _mutate_utterance(
            clean_datapoints[0], lambda t: t + " (as discussed earlier)"
        )
        verdict, _ = check_unformatted(ok)
        assert verdict == "pass"


class TestValueVariants:
    def test_24h_time_matches_12h_clock(self):
        assert "8:00 pm" in value_variants("20:00")
        assert "9:15 am" in value_variants("09:15")
        assert "12:30 pm" in value_variants("12:30")
        assert "12:05 am" in value_variants("00:05")

    def test_display_date_matches_bare_iso(self):
        assert "2026-12-29" in value_variants("Tue 2026-12-29")

    def test_small_integers_match_words(self):
        assert "one" in value_variants(1)
        assert "three" in value_variants("3")
        assert "thirteen" not in value_variants(13)

    def test_casefolded(self):
        assert value_variants("Regal Cinemas")[0] == "regal cinemas"


class TestCheckSlotCoverage:
    def test_clean_dialogs_pass(self, clean_datapoints):
        for dp in clean_datapoints:
            verdict, details = check_slot_coverage(dp)
            assert verdict == "pass", details

    def test_missing_value_fails(self, clean_datapoints):
        # find a datapoint whose first turn carries literals, then blank them
        for dp in clean_datapoints:
            bad = _mutate_utterance(dp, lambda t: "Mm hm.")
            verdict, details = check_slot_coverage(bad)
            if verdict == "fail":
                assert any("missing from" in d for d in details)
                return
        pytest.fail("no datapoint exercised slot coverage")

    def test_normalized_forms_count_as_coverage(self, clean_datapoints):
        """A 12h-clock paraphrase of a 24h value passes coverage."""
        from todgen.mr import collect_literals

        for dp in clean_datapoints:
            for turn, realized in zip(dp.plot.turns, dp.dialog.turns):
                values = [
                    v for a in turn.actions for v in collect_literals(a)
                ]
                times = [v for v in values if isinstance(v, str)
                         and ":" in str(v) and str(v)[:2].isdigit()]
                if not times or not isinstance(realized, str):
                    continue
                out = copy.deepcopy(dp)
                idx = dp.dialog.turns.index(realized)
                paraphrased = realized
                for t in times:
                    hour, minute = int(t[:2]), t[3:5]
                    suffix = "am" if hour < 12 else "pm"
                    paraphrased = paraphrased.replace(
                        t, f"{hour % 12 or 12}:{minute} {suffix}"
                    )
                out.dialog.turns[idx] = paraphrased
                verdict, details = check_slot_coverage(out)
                assert verdict == "pass", details
                return
        pytest.skip("no time-valued user turn in the fixture corpus")


class ScriptedEvaluator(Backend):
    def __init__(self, completions):
        self.completions = list(completions)

    def _complete(self, req):
        return self.completions.pop(0) if self.completions else "consistent"


class TestEvaluateConsistency:
    def test_verdict_parsing(self, clean_datapoints):
        dp = clean_datapoints[0]
        v, _ = evaluate_consistency(
            dp, ScriptedEvaluator(["Consistent. All turns line up."]), CFG
        )
        assert v == "consistent"
        v, rationale = evaluate_consistency(
            dp, ScriptedEvaluator(["inconsistent: turn 2 contradicts"]), CFG
        )
        assert v == "inconsistent" and "turn 2" in rationale

    def test_unparseable_after_retries(self, clean_datapoints):
        evaluator = ScriptedEvaluator(["huh?", "what?", "no idea"])
        v, _ = evaluate_consistency(clean_datapoints[0], evaluator, CFG)
        assert v == "unparseable"

    def test_mock_evaluator_accepts_clean_data(self, clean_datapoints):
        for dp in clean_datapoints:
            v, rationale = evaluate_consistency(dp, LLM, CFG)
            assert v == "consistent", rationale


class TestRunQC:
    def test_clean_corpus_all_keep(self, clean_datapoints):
        reports = run_qc(clean_datapoints, LLM, CFG)
        assert all(r.disposition == "keep" for r in reports)
        assert all(
            set(r.verdicts) == {"unformatted", "slot_coverage", "consistency"}
            for r in reports
        )

    def test_deterministic_failure_drops(self, clean_datapoints):
        bad = _mutate_utterance(
            clean_datapoints[0], lambda t: t + " raw 2026-01-01 leak"
        )
        reports = run_qc([bad], LLM, CFG)
        assert reports[0].disposition == "drop"
        assert reports[0].verdicts["unformatted"] == "fail"

    def test_evaluator_disagreement_flags_not_drops(self, clean_datapoints):
        evaluator = ScriptedEvaluator(["inconsistent: looks off"])
        reports = run_qc(clean_datapoints[:1], evaluator, CFG)
        assert reports[0].disposition == "flag-for-review"
        assert reports[0].verdicts["consistency"] == "fail"

    def test_unparseable_evaluator_flags(self, clean_datapoints):
        evaluator = ScriptedEvaluator(["???"] * 10)
        reports = run_qc(clean_datapoints[:1], evaluator, CFG)
        assert reports[0].disposition == "flag-for-review"

    def test_report_serialization(self, clean_datapoints):
        report = run_qc(clean_datapoints[:1], LLM, CFG)[0]
        d = report.to_dict()
        assert d["datapoint_id"] == clean_datapoints[0].id
        assert d["disposition"] == "keep"
