"""Persona synthesis: sampling steps, introduction validation, pool
generation, and serialization."""

import collections
import threading
import time
from dataclasses import replace

import pytest

from todgen.config import PipelineConfig
from todgen.dataset import read_jsonl, write_jsonl
from todgen.llm import Backend, MockBackend, make_backend
from todgen.persona import (
    GENDERS,
    MBTI_TYPES,
    RACES,
    WORK_STATUSES,
    OccupationTable,
    Persona,
    PersonaError,
    SurnameTable,
    generate_pool,
    persona_rng,
    sample_demographics,
    sample_occupation,
    speaking_habit_for,
    write_introduction,
)
from todgen.runner import waiting

CFG = PipelineConfig(seed=17, persona_pool_size=30)
LLM = make_backend(CFG.user_backend, CFG.seed)
OCCUPATIONS = OccupationTable.load(CFG.industry_table_path)
SURNAMES = SurnameTable.load(CFG.surname_table_path)


class TestTables:
    def test_bundled_tables_load(self):
        assert len(OCCUPATIONS.rows) > 5
        assert len(SURNAMES.surnames) > 5
        assert len(SURNAMES.race_weights[0]) == len(RACES)

    def test_malformed_surname_table_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("surname,count\nSmith,abc\n")
        with pytest.raises(PersonaError, match="malformed surname table"):
            SurnameTable.load(path)

    def test_empty_occupation_table_rejected(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("code,title\n")
        with pytest.raises(PersonaError, match="empty occupation table"):
            OccupationTable.load(path)


class TestSampling:
    def test_occupation_fields_by_status(self):
        statuses = collections.Counter()
        for i in range(300):
            out = sample_occupation(persona_rng(CFG.seed, i), OCCUPATIONS, LLM,
                                    CFG, f"persona-{i:04d}")
            statuses[out["work_status"]] += 1
            if out["work_status"] == "unemployed/retired":
                assert out["occupation_title"] == ""
                assert out["location"] == ""
            else:
                assert out["occupation_title"]
                assert out["location"]
        # default weights 0.6/0.2/0.2 within loose tolerance
        assert abs(statuses["employed"] / 300 - 0.6) < 0.1
        assert set(statuses) <= set(WORK_STATUSES)

    def test_demographics_draws_from_tables(self):
        for i in range(50):
            out = sample_demographics(persona_rng(CFG.seed, i), SURNAMES)
            assert out["surname"] in SURNAMES.surnames
            assert out["race"] in RACES
            assert out["gender"] in GENDERS
            assert out["mbti"] in MBTI_TYPES

    def test_streams_are_deterministic_and_independent(self):
        a = sample_demographics(persona_rng(5, 0), SURNAMES)
        b = sample_demographics(persona_rng(5, 0), SURNAMES)
        c = sample_demographics(persona_rng(5, 1), SURNAMES)
        assert a == b
        assert a != c or sample_demographics(persona_rng(5, 2), SURNAMES) != a


class TestSpeakingHabit:
    def test_mbti_and_level_shape_instruction(self):
        chatty = speaking_habit_for("ENFP", "senior")
        assert "outgoing" in chatty and "polished" in chatty
        terse = speaking_habit_for("ISTJ", "entry-level")
        assert "reserved" in terse and "casual" in terse
        assert speaking_habit_for("INTP", "not-specified").endswith(".")


class TestWriteIntroduction:
    PARTIAL = {
        "id": "persona-0000", "surname": "Garcia", "work_status": "employed",
        "occupation_title": "Nursing", "mbti": "ISFJ", "job_level": "senior",
    }

    def test_mock_introduction_mentions_surname_and_work(self):
        out = write_introduction(dict(self.PARTIAL), LLM, CFG)
        lowered = out["introduction"].lower()
        assert "garcia" in lowered
        assert "work" in lowered
        assert out["first_name"]
        assert out["speaking_habit"]

    def test_rejects_partial_without_surname(self):
        with pytest.raises(PersonaError, match="no surname"):
            write_introduction({"work_status": "employed"}, LLM, CFG)

    def test_retries_until_valid(self):
        class FlakyBackend(Backend):
            def __init__(self):
                self.calls = 0

            def _complete(self, req):
                self.calls += 1
                if self.calls == 1:
                    return "not json"
                if self.calls == 2:
                    return '{"introduction": "no surname here works fine"}'
                return ('{"first_name": "Ana", "introduction": '
                        '"Ana Garcia works as a nurse."}')

        backend = FlakyBackend()
        out = write_introduction(dict(self.PARTIAL), backend,
                                 replace(CFG, content_retries=3))
        assert backend.calls == 3
        assert out["first_name"] == "Ana"

    def test_exhausted_retries_raise_with_reason(self):
        class StubbornBackend(Backend):
            def _complete(self, req):
                return '{"introduction": "mentions Garcia only"}'

        with pytest.raises(PersonaError, match="work status"):
            write_introduction(dict(self.PARTIAL), StubbornBackend(),
                               replace(CFG, content_retries=2))


@pytest.fixture(scope="module")
def pool():
    return generate_pool(CFG, LLM)


class TestGeneratePool:
    def test_size_and_unique_ids(self, pool):
        assert len(pool) == CFG.persona_pool_size
        assert len({p.id for p in pool}) == len(pool)

    def test_every_persona_is_complete(self, pool):
        for p in pool:
            assert p.surname and p.introduction and p.speaking_habit
            assert p.mbti in MBTI_TYPES
            assert p.surname.lower() in p.introduction.lower()

    def test_refused_details_answer_is_asked_again(self):
        class RefusesOnce(MockBackend):
            def __init__(self, seed):
                super().__init__(seed)
                self.details = []  # (prompt, attempt) of each details request

            def _complete(self, req):
                if req.tag != "persona_details":
                    return super()._complete(req)
                self.details.append((req.messages, req.metadata["attempt"]))
                if len(self.details) == 1:
                    return "Sorry, I can't help with that."
                return super()._complete(req)

        backend = RefusesOnce(seed=3)
        pool = generate_pool(PipelineConfig(seed=3, persona_pool_size=4),
                             backend)
        (refused, attempt0), (again, attempt1) = backend.details[:2]
        assert again == refused and (attempt0, attempt1) == (0, 1)
        assert [p.id for p in pool] == [f"persona-{i:04d}" for i in range(4)]
        # the persona asked again keeps its draws and uses the second answer
        (asked,) = [p for p in pool if f"Persona {p.id} " in refused[0][1]]
        assert asked.location

    def test_details_prompts_are_distinct(self):
        """The persona id makes every details prompt its own, so a backend
        keyed by prompt answers each persona independently of call order."""
        prompts = []

        class Recording(MockBackend):
            def _complete(self, req):
                if req.tag == "persona_details":
                    prompts.append(req.messages)
                return super()._complete(req)

        generate_pool(PipelineConfig(seed=7, persona_pool_size=500),
                      Recording(seed=7))
        assert len(prompts) > 300
        assert len(set(prompts)) == len(prompts)

    def test_concurrent_pool_overlaps_waits_and_matches_serial(self):
        """A backend that waits inside ``waiting()`` has ``max_concurrency``
        persona requests in flight, and the pool is the serial pool."""

        class Waiting(MockBackend):
            def __init__(self, seed):
                super().__init__(seed)
                self._lock = threading.Lock()
                self.in_flight = self.peak = 0

            def _complete(self, req):
                with waiting():
                    with self._lock:
                        self.in_flight += 1
                        self.peak = max(self.peak, self.in_flight)
                    time.sleep(0.01)
                    with self._lock:
                        self.in_flight -= 1
                return super()._complete(req)

        cfg = PipelineConfig(seed=5, persona_pool_size=24)
        serial = generate_pool(cfg, MockBackend(seed=5))
        backend = Waiting(seed=5)
        pool = generate_pool(replace(cfg, max_concurrency=4), backend)
        assert backend.peak == 4
        assert [p.to_dict() for p in pool] == [p.to_dict() for p in serial]

    def test_deterministic_under_seed(self, pool):
        again = generate_pool(CFG, MockBackend(seed=CFG.seed))
        assert [p.to_dict() for p in again] == [p.to_dict() for p in pool]

    def test_pool_round_trip(self, pool, tmp_path):
        path = tmp_path / "pool.jsonl"
        write_jsonl(path, (p.to_dict() for p in pool))
        back = read_jsonl(path, Persona.from_dict, "persona")
        assert [p.to_dict() for p in back] == [p.to_dict() for p in pool]
        assert isinstance(back[0], Persona)
