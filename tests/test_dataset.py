"""Dataset serialization, splitting, statistics, and label checking."""

import copy
import dataclasses
import json

import pytest

from todgen.cli import make_backend
from todgen.config import PipelineConfig
from todgen.context import generate_contexts, sample_current_time
from todgen.dataset import (
    Datapoint,
    DatasetError,
    compute_stats,
    read_dataset,
    split,
    stats_to_text,
    word_count,
    write_dataset,
)
from todgen.persona import generate_pool
from todgen.plot import build_plot
from todgen.realizer import realize_dialog
from todgen.rng import derive_rng
from todgen.sampler import sample_specimen
from todgen.schema import load_schema_set

CFG = PipelineConfig(seed=31, persona_pool_size=2)
SCHEMAS = load_schema_set(CFG.schema_manifest_path)
LLM = make_backend(CFG.user_backend, CFG.seed)


@pytest.fixture(scope="module")
def corpus():
    persona = generate_pool(CFG, LLM)[0]
    dps = []
    for i in range(25):
        rng = derive_rng("ds", i)
        now = sample_current_time(derive_rng("ds-clock", i), CFG.time_window)
        contexts = generate_contexts(
            persona, SCHEMAS, now, LLM, CFG, derive_rng("ds-ctx", i)
        )
        spec = sample_specimen(rng, SCHEMAS, persona.id, contexts, LLM, CFG,
                               dialog_id=f"ds-{i:03d}")
        plot = build_plot(spec, SCHEMAS, contexts, rng, LLM, CFG)
        dialog = realize_dialog(plot, persona, contexts, LLM, LLM, CFG)
        dps.append(Datapoint(id=f"ds-{i:03d}", plot=plot, dialog=dialog,
                             persona_id=persona.id, contexts=contexts))
    return dps


class TestDatapoint:
    def test_misaligned_dialog_rejected(self, corpus):
        dp = corpus[0]
        broken = copy.deepcopy(dp.dialog)
        broken.turns.append("extra turn")
        with pytest.raises(ValueError, match="turns"):
            Datapoint(id="x", plot=dp.plot, dialog=broken,
                      persona_id=dp.persona_id, contexts=dp.contexts)

    def test_labels_property(self, corpus):
        dp = corpus[0]
        labels = dp.plot.labels
        assert labels["kind"] == dp.plot.kind
        assert labels["services"] == list(dp.plot.services)

    def test_check_labels_passes_on_pipeline_output(self, corpus):
        for dp in corpus:
            dp.check_labels(SCHEMAS)

    def test_check_labels_catches_tampering(self, corpus):
        dp = dataclasses.replace(corpus[0], plot=dataclasses.replace(
            corpus[0].plot, services=corpus[0].plot.services + ("tampered",)))
        with pytest.raises(DatasetError, match="services"):
            dp.check_labels(SCHEMAS)


class TestSerialization:
    def test_round_trip_is_byte_identical(self, corpus, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_dataset(corpus, first)
        write_dataset(read_dataset(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_preserves_content(self, corpus, tmp_path):
        path = tmp_path / "d.jsonl"
        write_dataset(corpus, path)
        back = read_dataset(path)
        assert [dp.id for dp in back] == [dp.id for dp in corpus]
        assert back[0].plot.to_text() == corpus[0].plot.to_text()
        assert back[0].contexts.keys() == corpus[0].contexts.keys()

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "x"}\n')
        with pytest.raises(DatasetError, match="bad.jsonl:1"):
            read_dataset(path)

    @pytest.mark.parametrize("path", [
        ("contexts",), ("contexts", 0, "records"), ("plot", "labels"),
    ], ids=lambda path: "/".join(map(str, path)))
    def test_row_missing_a_written_key_reports_location(self, corpus,
                                                        tmp_path, path):
        """Every key ``to_dict`` writes is read back; none has a default."""
        dp = next(dp for dp in corpus if dp.contexts)
        row = dp.to_dict()
        *parents, key = path
        owner = row
        for parent in parents:
            owner = owner[parent]
        del owner[key]
        source = tmp_path / "missing.jsonl"
        write_dataset(corpus[:1], source)
        source.write_text(source.read_text() + json.dumps(row) + "\n")
        with pytest.raises(DatasetError, match=f"missing.jsonl:2: .*'{key}'"):
            read_dataset(source)

    def test_blank_lines_skipped(self, corpus, tmp_path):
        path = tmp_path / "gap.jsonl"
        write_dataset(corpus[:2], path)
        path.write_text(path.read_text() + "\n\n")
        assert len(read_dataset(path)) == 2


class TestSplit:
    def test_partition_is_exact_and_disjoint(self, corpus):
        manifest = split(corpus, CFG.held_out_service, CFG.test_fraction,
                         CFG.seed)
        all_ids = (set(manifest.train_ids) | set(manifest.test_ids)
                   | set(manifest.zero_shot_ids))
        assert all_ids == {dp.id for dp in corpus}
        assert not set(manifest.train_ids) & set(manifest.test_ids)
        assert not set(manifest.train_ids) & set(manifest.zero_shot_ids)
        assert not set(manifest.test_ids) & set(manifest.zero_shot_ids)

    def test_zero_shot_captures_every_held_out_dialog(self, corpus):
        manifest = split(corpus, CFG.held_out_service, CFG.test_fraction,
                         CFG.seed)
        touching = {dp.id for dp in corpus
                    if CFG.held_out_service in dp.plot.services}
        assert set(manifest.zero_shot_ids) == touching
        by_id = {dp.id: dp for dp in corpus}
        for split_ids in (manifest.train_ids, manifest.test_ids):
            for i in split_ids:
                assert CFG.held_out_service not in by_id[i].plot.services

    def test_test_size_rounds_from_whole_corpus(self, corpus):
        manifest = split(corpus, CFG.held_out_service, 0.10, CFG.seed)
        assert len(manifest.test_ids) == round(len(corpus) * 0.10)

    def test_deterministic_under_seed(self, corpus):
        a = split(corpus, CFG.held_out_service, 0.10, 99)
        b = split(corpus, CFG.held_out_service, 0.10, 99)
        c = split(corpus, CFG.held_out_service, 0.10, 100)
        assert a.to_dict() == b.to_dict()
        assert a.test_ids != c.test_ids

    def test_missing_held_out_service_raises(self, corpus):
        with pytest.raises(DatasetError, match="absent"):
            split(corpus, "submarines", 0.10, CFG.seed)

    def test_excessive_fraction_raises(self, corpus):
        with pytest.raises(DatasetError, match="exceeds"):
            split(corpus, CFG.held_out_service, 0.99, CFG.seed)

    def test_manifest_round_trip(self, corpus):
        manifest = split(corpus, CFG.held_out_service, 0.10, CFG.seed)
        d = manifest.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert (d["train"], d["test"], d["zero_shot"]) == (
            list(manifest.train_ids), list(manifest.test_ids),
            list(manifest.zero_shot_ids))


class TestWordCount:
    def test_punctuation_stripped_before_split(self):
        assert word_count("Done.") == 1
        assert word_count("Hello, how are you?") == 4
        assert word_count("") == 0
        assert word_count("it's one word") == 3


class TestComputeStats:
    def test_core_counts(self, corpus):
        stats = compute_stats(corpus)
        assert stats["dialog_count"] == len(corpus)
        assert stats["turn_count"] == sum(len(dp.plot.turns) for dp in corpus)
        assert sum(stats["dialog_length_hist"].values()) == len(corpus)
        assert sum(stats["kind_shares"].values()) == pytest.approx(1.0)

    def test_order_invariance(self, corpus):
        shuffled = list(reversed(corpus))
        assert compute_stats(corpus) == compute_stats(shuffled)

    def test_verbosity_word_means_increase(self, corpus):
        means = compute_stats(corpus)["mean_words_per_verbosity"]
        assert means["low"] < means["mid"] < means["high"]

    def test_head_threshold_subset(self, corpus):
        stats = compute_stats(corpus)
        total = sum(stats["action_head_dist"].values())
        for head, count in stats["action_heads_over_3pct"].items():
            assert count / total > 0.03
            assert stats["action_head_dist"][head] == count

    def test_empty_corpus(self):
        stats = compute_stats([])
        assert stats["dialog_count"] == 0
        assert stats["kind_shares"] == {}

    def test_text_rendering(self, corpus):
        text = stats_to_text(compute_stats(corpus))
        assert "dialog_count: 25" in text
        assert "kind_shares:" in text
