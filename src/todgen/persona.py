"""Persona synthesis: occupation sampling, demographic sampling, and a
backend-written introduction.

Bundled simplified surname and industry tables stand in for the full census
downloads; the config accepts replacement files with the same headers.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, asdict

from .config import PipelineConfig
from .llm import (
    Backend,
    ContentError,
    complete_validated,
    parse_json_object,
)
from .rng import derive_rng
from .runner import run_dialogs
from .values import JOB_LEVELS

__all__ = [
    "Persona",
    "OccupationTable",
    "SurnameTable",
    "PersonaError",
    "sample_occupation",
    "sample_demographics",
    "write_introduction",
    "generate_pool",
]

WORK_STATUSES = ("employed", "unemployed/retired", "student")
GENDERS = ("male", "female")
MBTI_TYPES = (
    "ISTJ", "ISFJ", "INFJ", "INTJ", "ISTP", "ISFP", "INFP", "INTP",
    "ESTP", "ESFP", "ENFP", "ENTP", "ESTJ", "ESFJ", "ENFJ", "ENTJ",
)
RACES = (
    "White",
    "Hispanic or Latino",
    "Black or African American",
    "Asian or Pacific Islander",
    "American Indian or Alaska Native",
    "not specified",
)
_RACE_COLUMNS = (
    "white", "hispanic", "black", "asian_pacific", "american_indian",
    "not_specified",
)


class PersonaError(ValueError):
    pass


@dataclass(frozen=True)
class Persona:
    id: str
    surname: str
    first_name: str = ""
    gender: str = ""
    race: str = ""
    work_status: str = ""
    occupation_code: str = ""
    occupation_title: str = ""
    location: str = ""
    affiliation: str = ""
    job_level: str = "not-specified"
    mbti: str = ""
    introduction: str = ""
    speaking_habit: str = ""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Persona":
        return cls(**d)


@dataclass(frozen=True)
class OccupationTable:
    rows: tuple[tuple[str, str], ...]  # (code, title)

    @classmethod
    def load(cls, path) -> "OccupationTable":
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            rows = tuple((r["code"], r["title"]) for r in reader)
        if not rows:
            raise PersonaError(f"empty occupation table: {path}")
        return cls(rows)


@dataclass(frozen=True)
class SurnameTable:
    surnames: tuple[str, ...]
    counts: tuple[float, ...]
    race_weights: tuple[tuple[float, ...], ...]  # aligned with RACES

    @classmethod
    def load(cls, path) -> "SurnameTable":
        surnames, counts, weights = [], [], []
        with open(path, newline="", encoding="utf-8") as f:
            for i, row in enumerate(csv.DictReader(f)):
                try:
                    surnames.append(row["surname"])
                    counts.append(float(row["count"]))
                    weights.append(tuple(float(row[c]) for c in _RACE_COLUMNS))
                except (KeyError, ValueError) as e:
                    raise PersonaError(f"malformed surname table row {i}: {e}")
        if not surnames:
            raise PersonaError(f"empty surname table: {path}")
        return cls(tuple(surnames), tuple(counts), tuple(weights))


def persona_rng(seed: int, index: int) -> random.Random:
    """Independent RNG per persona, stable under parallel schedules."""
    return derive_rng(seed, "persona", index)


def sample_occupation(
    rng: random.Random,
    table: OccupationTable,
    llm: Backend,
    config: PipelineConfig,
    persona_id: str,
) -> dict:
    """Step 1: work status, industry occupation, and backend-filled details."""
    status = rng.choices(WORK_STATUSES, weights=config.work_status_weights)[0]
    out = {
        "work_status": status,
        "occupation_code": "",
        "occupation_title": "",
        "location": "",
        "affiliation": "",
        "job_level": "not-specified",
    }
    if status == "unemployed/retired":
        return out
    code, title = table.rows[rng.randrange(len(table.rows))]
    out["occupation_code"] = code
    out["occupation_title"] = title
    prompt = (
        f"Persona {persona_id} is {status} in the industry {title!r}. Invent "
        "a plausible work location, affiliation, and job level (senior, "
        "intermediate, entry-level, or not-specified). Return JSON with keys "
        "location, affiliation, job_level."
    )

    def parse(completion: str) -> dict:
        details = parse_json_object(completion)
        level = str(details.get("job_level", "not-specified"))
        return {
            **out,
            "location": str(details.get("location", "")),
            "affiliation": str(details.get("affiliation", "")),
            "job_level": level if level in JOB_LEVELS else "not-specified",
        }

    return complete_validated(
        llm, config, "persona_details", prompt,
        {"work_status": status, "occupation_title": title}, parse,
        PersonaError)


def sample_demographics(rng: random.Random, table: SurnameTable) -> dict:
    """Step 2: (surname, race) drawn jointly, plus gender and MBTI."""
    idx = rng.choices(range(len(table.surnames)), weights=table.counts)[0]
    surname = table.surnames[idx]
    race = rng.choices(RACES, weights=table.race_weights[idx])[0]
    return {
        "surname": surname,
        "race": race,
        "gender": rng.choice(GENDERS),
        "mbti": rng.choice(MBTI_TYPES),
    }


_STATUS_CUES = {
    "employed": ("works", "working", "work"),
    "student": ("student", "studies", "studying"),
    "unemployed/retired": ("retired", "unemployed", "between jobs"),
}


def speaking_habit_for(mbti: str, job_level: str) -> str:
    """Fixed MBTI/job-level mapping to a speaking-style instruction."""
    energy = (
        "You speak in an outgoing, chatty way"
        if mbti.startswith("E")
        else "You speak in a brief, reserved way"
    )
    if mbti[1:2] == "N":
        framing = "and sometimes describe things in roundabout terms"
    else:
        framing = "and state concrete facts plainly"
    if job_level == "senior":
        register = ". You use a polished, professional register."
    elif job_level == "entry-level":
        register = ". You use casual, informal wording."
    else:
        register = "."
    return f"{energy} {framing}{register}"


def write_introduction(
    partial: dict, llm: Backend, config: PipelineConfig
) -> dict:
    """Step 3: backend-written introduction with fictionalized details."""
    surname = partial.get("surname", "")
    if not surname:
        raise PersonaError("persona has no surname; run demographics first")
    if not partial.get("work_status"):
        raise PersonaError("persona has no work status; run occupation first")
    cues = _STATUS_CUES[partial["work_status"]]
    prompt = (
        "Write a short first-person-free introduction for this persona, "
        "inventing a first name, age, and hobbies. Mention the surname "
        f"and work situation. Persona: {json.dumps(partial, sort_keys=True)}"
    )
    metadata = {
        "surname": surname,
        "work_status": partial["work_status"],
        "occupation_title": partial.get("occupation_title", ""),
        "mbti": partial.get("mbti", ""),
    }

    def parse(completion: str) -> dict:
        obj = parse_json_object(completion)
        intro = str(obj.get("introduction", ""))
        lowered = intro.lower()
        if surname.lower() not in lowered:
            raise ContentError("introduction does not mention the surname")
        if not any(cue in lowered for cue in cues):
            raise ContentError("introduction does not mention the work status")
        out = dict(partial)
        out["first_name"] = str(obj.get("first_name", ""))
        out["introduction"] = intro
        out["speaking_habit"] = speaking_habit_for(
            partial.get("mbti", "ISTJ"), partial.get("job_level", "not-specified")
        )
        return out

    return complete_validated(llm, config, "persona_intro", prompt, metadata,
                              parse, PersonaError)


def generate_pool(config: PipelineConfig, llm: Backend) -> list[Persona]:
    """Generate the persona pool, ``max_concurrency`` personas at a time; a
    persona is drawn again when its details or introduction keep failing
    validation."""
    occupations = OccupationTable.load(config.industry_table_path)
    surnames = SurnameTable.load(config.surname_table_path)

    def persona(index: int) -> Persona:
        rng = persona_rng(config.seed, index)
        persona_id = f"persona-{index:04d}"
        for _ in range(5):  # resampling bound
            try:
                partial = {"id": persona_id, **sample_occupation(
                    rng, occupations, llm, config, persona_id)}
                partial.update(sample_demographics(rng, surnames))
                return Persona.from_dict(
                    write_introduction(partial, llm, config))
            except PersonaError:
                continue
        raise PersonaError(f"could not generate persona {index}")

    return run_dialogs(persona, range(config.persona_pool_size),
                       config.max_concurrency)
