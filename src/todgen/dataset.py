"""Dataset serialization, train/test/zero-shot splitting, and corpus
statistics."""

from __future__ import annotations

import json
import string
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Union

from .context import AppContext
from .plot import Plot, derive_labels
from .realizer import SIX_KEYS, DialogRecord, StyledResponse
from .rng import derive_rng
from .schema import SchemaSet

__all__ = [
    "Datapoint",
    "SplitManifest",
    "DatasetError",
    "write_jsonl",
    "write_dataset",
    "read_jsonl",
    "read_dataset",
    "split",
    "compute_stats",
    "stats_to_text",
    "word_count",
]


class DatasetError(ValueError):
    pass


@dataclass
class Datapoint:
    id: str
    plot: Plot
    dialog: DialogRecord
    persona_id: str
    contexts: dict = field(default_factory=dict)  # service -> AppContext

    def __post_init__(self):
        self.dialog.validate_against(self.plot)

    def check_labels(self, schemas: SchemaSet) -> None:
        """Stored services must match those the schemas attribute to the
        plot's initial actions (a plot reads its kind and phenomena off its
        turns itself)."""
        derived = derive_labels(self.plot, schemas)["services"]
        if set(derived) != set(self.plot.services):
            raise DatasetError(
                f"{self.id}: stored services {list(self.plot.services)!r} != "
                f"derived {list(derived)!r}"
            )

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "persona_id": self.persona_id,
            "plot": self.plot.to_dict(),
            "dialog": self.dialog.to_dict(),
            "contexts": [c.to_dict() for c in self.contexts.values()],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Datapoint":
        contexts = {
            c["service_name"]: AppContext.from_dict(c)
            for c in d["contexts"]
        }
        return cls(
            id=d["id"],
            plot=Plot.from_dict(d["plot"]),
            dialog=DialogRecord.from_dict(d["dialog"]),
            persona_id=d["persona_id"],
            contexts=contexts,
        )


def write_dataset(dps: list, sink: Union[str, Path]) -> None:
    write_jsonl(sink, (dp.to_dict() for dp in dps))


def write_jsonl(path: Union[str, Path], rows) -> None:
    """One key-sorted JSON line per row, non-ASCII kept as is."""
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def read_jsonl(source: Union[str, Path], decode: Callable, what: str) -> list:
    """``decode`` of each non-blank JSON line, in order. A line that is not
    JSON or not of the shape ``decode`` expects raises :class:`DatasetError`
    naming the file and line."""
    rows = []
    with open(source, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rows.append(decode(json.loads(line)))
            except (KeyError, TypeError, AttributeError, ValueError) as e:
                raise DatasetError(f"{source}:{lineno}: malformed {what}: {e}")
    return rows


def read_dataset(source: Union[str, Path]) -> list:
    return read_jsonl(source, Datapoint.from_dict, "datapoint")


@dataclass
class SplitManifest:
    held_out_service: str
    seed: int
    test_fraction: float
    train_ids: tuple
    test_ids: tuple
    zero_shot_ids: tuple

    def to_dict(self) -> dict:
        return {
            "held_out_service": self.held_out_service,
            "seed": self.seed,
            "test_fraction": self.test_fraction,
            "train": list(self.train_ids),
            "test": list(self.test_ids),
            "zero_shot": list(self.zero_shot_ids),
        }


def split(
    dps: list,
    held_out_service: str,
    test_fraction: float,
    seed: int,
) -> SplitManifest:
    """Zero-shot split = every dialog touching the held-out service; the
    remainder is shuffled and divided so test is ``test_fraction`` of the
    whole corpus (not of the remainder) and train takes the rest."""
    if not any(held_out_service in dp.plot.services for dp in dps):
        raise DatasetError(
            f"held-out service {held_out_service!r} absent from the corpus"
        )
    zero_shot = [dp.id for dp in dps if held_out_service in dp.plot.services]
    rest = [dp.id for dp in dps if held_out_service not in dp.plot.services]
    rng = derive_rng(seed, "split")
    rng.shuffle(rest)
    n_test = round(len(dps) * test_fraction)
    if n_test > len(rest):
        raise DatasetError("test fraction exceeds the non-held-out remainder")
    return SplitManifest(
        held_out_service=held_out_service,
        seed=seed,
        test_fraction=test_fraction,
        train_ids=tuple(sorted(rest[n_test:])),
        test_ids=tuple(sorted(rest[:n_test])),
        zero_shot_ids=tuple(sorted(zero_shot)),
    )


_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def word_count(text: str) -> int:
    """Whitespace split after punctuation stripping."""
    return len(text.translate(_PUNCT_TABLE).split())


def compute_stats(dps: list) -> dict:
    """Corpus statistics: length/word histograms, coverage, kind and
    phenomenon shares, default-style shares, verbosity word means."""
    length_hist: Counter = Counter()
    word_hist: Counter = Counter()
    service_cov: Counter = Counter()
    head_dist: Counter = Counter()
    kinds: Counter = Counter()
    phenomena: Counter = Counter()
    style_shares: Counter = Counter()
    verbosity_words = {"low": [], "mid": [], "high": []}
    total_turns = 0

    for dp in dps:
        length_hist[len(dp.plot.turns)] += 1
        total_turns += len(dp.plot.turns)
        kinds[dp.plot.kind] += 1
        for p in dp.plot.phenomena:
            phenomena[p] += 1
        if len(dp.plot.phenomena) > 1:
            phenomena["overlap"] += 1
        for service in dp.plot.services:
            service_cov[service] += 1
        for turn in dp.plot.turns:
            for action in turn.actions:
                head_dist[action.head] += 1
        for realized in dp.dialog.turns:
            if isinstance(realized, str):
                word_hist[word_count(realized)] += 1
            elif isinstance(realized, StyledResponse):
                style_shares[realized.default_key] += 1
                word_hist[word_count(realized.default_utterance)] += 1
                for level in ("low", "mid", "high"):
                    key = f"verbosity_{level} no_mirroring"
                    verbosity_words[level].append(
                        word_count(realized.variants[key])
                    )

    n = len(dps) or 1
    n_system = sum(style_shares.values()) or 1
    heads_over_3pct = {
        head: count
        for head, count in head_dist.items()
        if count / (sum(head_dist.values()) or 1) > 0.03
    }
    return {
        "dialog_count": len(dps),
        "turn_count": total_turns,
        "dialog_length_hist": dict(sorted(length_hist.items())),
        "utterance_word_hist": dict(sorted(word_hist.items())),
        "service_coverage": dict(sorted(service_cov.items())),
        "action_head_dist": dict(sorted(head_dist.items())),
        "action_heads_over_3pct": dict(sorted(heads_over_3pct.items())),
        "kind_shares": {k: kinds[k] / n for k in sorted(kinds)},
        "phenomena_shares": {p: phenomena[p] / n for p in sorted(phenomena)},
        "default_style_shares": {
            k: style_shares[k] / n_system for k in SIX_KEYS if style_shares[k]
        },
        "default_verbosity_shares": {
            level: sum(
                style_shares[k] for k in SIX_KEYS if f"verbosity_{level} " in k
            )
            / n_system
            for level in ("low", "mid", "high")
        },
        "mean_words_per_verbosity": {
            level: (sum(v) / len(v) if v else 0.0)
            for level, v in verbosity_words.items()
        },
    }


def stats_to_text(stats: dict) -> str:
    lines = []
    for key, value in stats.items():
        if isinstance(value, dict):
            lines.append(f"{key}:")
            for k, v in value.items():
                shown = f"{v:.4f}" if isinstance(v, float) else v
                lines.append(f"  {k}: {shown}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"
