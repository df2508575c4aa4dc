"""CLI: stage commands, checkpoint chaining, configuration handling, and
failure reporting."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from todgen.cli import main
from todgen.config import ConfigError, PipelineConfig, load_config
from todgen.dataset import read_dataset
from todgen.llm import MockBackend


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workdir(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(
        "persona_pool_size: 4\n"
        "dialog_count: 20\n"
        "seed: 77\n"
        f"output_dir: {tmp_path / 'out'}\n"
    )
    return tmp_path


def run(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.dialog_count == 100
        assert cfg.kind_ratios == (0.405, 0.209, 0.386)
        assert cfg.user_backend.kind == "mock"

    def test_yaml_and_overrides(self, workdir):
        cfg = load_config(workdir / "config.yaml", dialog_count=3)
        assert cfg.persona_pool_size == 4
        assert cfg.dialog_count == 3
        assert cfg.seed == 77

    @pytest.mark.parametrize("value", [0, -1])
    def test_max_concurrency_below_one_rejected(self, value):
        with pytest.raises(ConfigError, match="max_concurrency"):
            PipelineConfig(max_concurrency=value)

    @pytest.mark.parametrize("overrides", [
        {"record_count_range": (5, 1)},
        {"record_count_range": (-1, 2)},
        {"record_count_range": (0, 2)},
        {"record_count_range": (1, 2, 3)},
    ])
    def test_bad_record_count_range_rejected(self, overrides):
        with pytest.raises(ConfigError, match="1 <= lo <= hi"):
            PipelineConfig(**overrides)

    def test_services_without_held_out_rejected(self):
        with pytest.raises(ConfigError, match="held_out_service 'banking'"):
            PipelineConfig(services=("alarms", "contacts", "messages"))
        PipelineConfig(services=("alarms", "banking"))

    def test_invalid_kind_ratios_rejected(self):
        with pytest.raises(ConfigError, match="kind_ratios must be"):
            PipelineConfig(kind_ratios=(0.5, 0.5, 0.5))
        with pytest.raises(ConfigError, match="kind_ratios must be"):
            PipelineConfig(kind_ratios=(-0.1, 0.6, 0.5))

    @pytest.mark.parametrize("overrides", [
        {"kind_ratios": (1.1, -0.1, 0.0)},
        {"work_status_weights": (1.5, -0.5, 0.0)},
    ])
    def test_negative_weights_rejected(self, overrides):
        with pytest.raises(ConfigError, match="must be non-negative"):
            PipelineConfig(**overrides)

    @pytest.mark.parametrize("window", [
        ("2026-12-31", "2025-01-01"),  # reversed
        ("2025-01-01",),               # one date
        ("New Year", "2025-12-31"),    # not ISO
    ])
    def test_bad_time_window_rejected(self, window):
        with pytest.raises(ConfigError, match="time_window must be"):
            PipelineConfig(time_window=window)

    def test_unquoted_yaml_dates_rejected(self, tmp_path):
        path = tmp_path / "dates.yaml"
        path.write_text("time_window: [2025-01-01, 2026-12-31]\n")
        with pytest.raises(ConfigError, match="quoted ISO dates"):
            load_config(path)

    @pytest.mark.parametrize("name", ["persona_pool_size", "dialog_count"])
    def test_empty_pool_or_corpus_rejected(self, name):
        with pytest.raises(ConfigError, match=f"{name} must be at least 1"):
            PipelineConfig(**{name: 0})

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("dialogue_count: 5\n")
        with pytest.raises(ConfigError, match="dialogue_count"):
            load_config(path)

    def test_alias_transitive_is_unknown_key(self, tmp_path):
        path = tmp_path / "old.yaml"
        path.write_text("alias_transitive: false\n")
        with pytest.raises(ConfigError, match="alias_transitive"):
            load_config(path)

    @pytest.mark.parametrize("line", [
        'dialog_count: "10"',
        "dialog_count: true",
        'temperature: "hot"',
        "seed: 1.5",
        "services: alarms",
        'kind_ratios: [0.5, "0.25", 0.25]',
        "record_count_range: [1.5, 2]",
        "user_backend: 3",
    ])
    def test_wrong_typed_value_fails_before_any_stage(self, runner, tmp_path,
                                                      line):
        config = tmp_path / "c.yaml"
        config.write_text(line + "\n")
        out = tmp_path / "out"
        result = runner.invoke(main, ["run-all", "--config", str(config),
                                      "--out", str(out)])
        assert result.exit_code == 1
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith(line.split(":")[0] + ": expected")
        assert not out.exists()

    def test_int_accepted_for_float(self):
        assert PipelineConfig(temperature=1).temperature == 1

    @pytest.mark.parametrize("line", [
        "irreversible_intents: {alarms: [delete]}",
        "preference_orders: {alarms: [time]}",
        "record_count_overrides: {alarms: [1, 4]}",
    ])
    def test_per_service_table_is_unknown_key(self, tmp_path, line):
        path = tmp_path / "old.yaml"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(path)


def load_backend_yaml(tmp_path, backend: str):
    """``load_config`` on a file whose ``user_backend`` is ``backend``."""
    path = tmp_path / "backend.yaml"
    path.write_text(f"user_backend: {backend}\n")
    return load_config(path)


class TestBackendConfig:
    """A bad backend config fails when it is loaded, before any backend
    call."""

    def test_valid_http_backend_loads(self, tmp_path):
        cfg = load_backend_yaml(
            tmp_path, "{kind: http, endpoint: 'https://api.example.com/v1', "
            "timeout: 5, retry: {max_attempts: 1, backoff: 0}}")
        assert cfg.user_backend.endpoint == "https://api.example.com/v1"
        assert cfg.user_backend.retry.max_attempts == 1

    def test_unknown_backend_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="timout"):
            load_backend_yaml(tmp_path, "{kind: mock, timout: 5}")

    def test_unknown_retry_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="retry.attempts"):
            load_backend_yaml(tmp_path, "{kind: mock, retry: {attempts: 2}}")

    @pytest.mark.parametrize("endpoint", [
        "api.example.com/v1/chat/completions",  # no scheme
        "/v1/chat/completions",                  # relative
        "ftp://api.example.com/v1",              # not http(s)
        "http:///v1/chat/completions",           # no host
        "http://[::1/v1",                        # unparseable
    ])
    def test_bad_http_endpoint_rejected(self, tmp_path, endpoint):
        with pytest.raises(ConfigError, match="absolute http"):
            load_backend_yaml(tmp_path, f"{{kind: http, endpoint: '{endpoint}'}}")

    @pytest.mark.parametrize("attempts", [0, -1])
    def test_max_attempts_below_one_rejected(self, tmp_path, attempts):
        with pytest.raises(ConfigError, match="max_attempts must be at least 1"):
            load_backend_yaml(
                tmp_path, f"{{kind: mock, retry: {{max_attempts: {attempts}}}}}")

    def test_negative_backoff_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="backoff must be >= 0"):
            load_backend_yaml(tmp_path, "{kind: mock, retry: {backoff: -0.5}}")

    @pytest.mark.parametrize("timeout", [0, -3])
    def test_timeout_not_positive_rejected(self, tmp_path, timeout):
        with pytest.raises(ConfigError, match="timeout must be > 0"):
            load_backend_yaml(tmp_path, f"{{kind: mock, timeout: {timeout}}}")

    @pytest.mark.parametrize("backend, message", [
        ("{kind: quantum}", "kind must be 'mock' or 'http'"),
        ("{kind: http}", "requires an endpoint"),
        ("{kind: mock, timeout: soon}", "could not convert"),
        ("{kind: mock, retry: 3}", "retry must be a mapping"),
        ("{kind: mock, seed: 3}", "unknown keys in user_backend: .'seed'."),
    ])
    def test_malformed_backend_values_rejected(self, tmp_path, backend, message):
        with pytest.raises(ConfigError, match=message):
            load_backend_yaml(tmp_path, backend)

    def test_bad_backend_config_fails_before_any_stage(self, runner, tmp_path):
        config = tmp_path / "c.yaml"
        config.write_text("user_backend: {kind: http, endpoint: 'localhost:8000'}\n")
        out = tmp_path / "out"
        result = runner.invoke(main, ["run-all", "--config", str(config),
                                      "--out", str(out), "--count", "3"])
        assert result.exit_code == 1
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["error"] == "ConfigError"
        assert not out.exists()

    def test_cli_seed_and_spelled_out_backends_agree(self, runner, tmp_path):
        """The mocks answer under the pipeline seed, whether the backends are
        defaults or spelled-out mappings."""
        configs = {
            "default": "",
            "spelled": "".join(f"{name}: {{kind: mock}}\n" for name in (
                "user_backend", "system_backend", "evaluator_backend")),
        }
        for name, text in configs.items():
            config = tmp_path / f"{name}.yaml"
            config.write_text(f"persona_pool_size: 4\n{text}")
            run(runner, ["run-all", "--config", str(config), "--seed", "7",
                         "--count", "20", "--out", str(tmp_path / name)])
        names = sorted(p.name for p in (tmp_path / "default").iterdir())
        for name in names:
            assert (tmp_path / "default" / name).read_bytes() == \
                (tmp_path / "spelled" / name).read_bytes(), name


class TestRunAll:
    def test_produces_all_artifacts(self, runner, workdir):
        result = run(runner, ["run-all", "--config",
                              str(workdir / "config.yaml")])
        assert "pipeline complete" in result.output
        out = workdir / "out"
        for name in ("personas.jsonl", "contexts.jsonl", "plots.jsonl",
                     "dialogs.jsonl", "qc_report.jsonl", "dataset.jsonl",
                     "stats.txt", "split.json"):
            assert (out / name).exists(), name
        assert len(read_dataset(out / "dialogs.jsonl")) == 20

    def test_byte_identical_reruns(self, runner, workdir, tmp_path):
        args = ["run-all", "--config", str(workdir / "config.yaml")]
        run(runner, args + ["--out", str(tmp_path / "a")])
        run(runner, args + ["--out", str(tmp_path / "b")])
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files_a == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_byte_identical_across_max_concurrency(self, runner, workdir,
                                                    tmp_path):
        base = (workdir / "config.yaml").read_text()
        for n in (1, 4):
            config = tmp_path / f"c{n}.yaml"
            config.write_text(base + f"max_concurrency: {n}\n")
            run(runner, ["run-all", "--config", str(config),
                         "--out", str(tmp_path / f"c{n}")])
        names = sorted(p.name for p in (tmp_path / "c1").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "c4").iterdir())
        for name in names:
            assert (tmp_path / "c1" / name).read_bytes() == \
                (tmp_path / "c4" / name).read_bytes(), name

    def test_temperature_and_max_tokens_reach_every_request(
            self, runner, workdir, monkeypatch):
        sent = set()  # (tag, temperature, max_tokens)
        complete = MockBackend._complete

        def recorded(backend, req):
            sent.add((req.tag, req.temperature, req.max_tokens))
            return complete(backend, req)

        monkeypatch.setattr(MockBackend, "_complete", recorded)
        config = workdir / "config.yaml"
        config.write_text(config.read_text()
                          + "temperature: 0.2\nmax_tokens: 64\n")
        run(runner, ["run-all", "--config", str(config)])
        assert {tag for tag, _, _ in sent} == {
            "persona_details", "persona_intro", "context", "slot_values",
            "db_query", "user_turn", "system_turn", "qc_eval"}
        for tag, temperature, max_tokens in sent:
            assert temperature == 0.2, tag
            if tag == "context":  # the budget once per service in the batch
                assert max_tokens > 0 and max_tokens % 64 == 0
            else:
                assert max_tokens == 64, tag

    def test_seed_changes_output(self, runner, workdir, tmp_path):
        args = ["run-all", "--config", str(workdir / "config.yaml")]
        run(runner, args + ["--out", str(tmp_path / "a")])
        run(runner, args + ["--out", str(tmp_path / "b"), "--seed", "78"])
        assert (tmp_path / "a" / "dialogs.jsonl").read_bytes() != \
            (tmp_path / "b" / "dialogs.jsonl").read_bytes()


class TestStageChaining:
    def test_stages_in_sequence_match_run_all(self, runner, workdir, tmp_path):
        base = ["--config", str(workdir / "config.yaml")]
        staged = str(tmp_path / "staged")
        for stage in ("personas", "contexts", "plots", "realize", "qc",
                      "stats", "split"):
            run(runner, [stage] + base + ["--out", staged])
        allinone = str(tmp_path / "allinone")
        run(runner, ["run-all"] + base + ["--out", allinone])
        for name in ("dialogs.jsonl", "dataset.jsonl", "split.json",
                     "stats.txt"):
            assert (Path(staged) / name).read_bytes() == \
                (Path(allinone) / name).read_bytes(), name

    def test_each_stage_prints_one_message(self, runner, workdir):
        """A stage names itself and the output directory; it prints no count
        (``stats`` used to report the keys of its stats dict as records)."""
        out = workdir / "out"
        for stage in ("personas", "contexts", "plots", "realize", "qc",
                      "stats", "split"):
            result = run(runner, [stage, "--config",
                                  str(workdir / "config.yaml")])
            assert result.output == f"{stage}: done; artifacts in {out}\n"

    def test_missing_input_reports_producer_stage(self, runner, workdir):
        result = runner.invoke(
            main,
            ["plots", "--config", str(workdir / "config.yaml")],
        )
        assert result.exit_code == 1
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["stage"] == "plots"
        assert "run the 'contexts' stage first" in payload["message"]

    def test_plots_needs_no_persona_pool(self, runner, workdir):
        base = ["--config", str(workdir / "config.yaml")]
        for name in ("personas", "contexts", "plots"):
            run(runner, [name] + base)
        out = workdir / "out"
        plots = (out / "plots.jsonl").read_bytes()
        (out / "personas.jsonl").unlink()
        run(runner, ["plots"] + base)
        assert (out / "plots.jsonl").read_bytes() == plots

    def test_qc_copies_kept_dialog_lines(self, runner, workdir):
        """A dialog with a bare ISO date is dropped; ``dataset.jsonl`` is then
        the other lines of ``dialogs.jsonl``, byte for byte."""
        base = ["--config", str(workdir / "config.yaml")]
        for stage in ("personas", "contexts", "plots", "realize"):
            run(runner, [stage] + base)
        dialogs = workdir / "out" / "dialogs.jsonl"
        lines = dialogs.read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[3])
        row["dialog"]["turns"][0] += " on 2024-05-03"
        lines[3] = json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n"
        dialogs.write_text("".join(lines[:5] + ["\n"] + lines[5:]),
                           encoding="utf-8")
        run(runner, ["qc"] + base)
        reports = [json.loads(line) for line in
                   (workdir / "out" / "qc_report.jsonl").read_text().splitlines()]
        assert [r["datapoint_id"] for r in reports
                if r["disposition"] == "drop"] == [row["id"]]
        assert (workdir / "out" / "dataset.jsonl").read_bytes() == \
            "".join(lines[:3] + lines[4:]).encode("utf-8")

    def test_malformed_checkpoint_row_fails_cleanly(self, runner, workdir):
        base = ["--config", str(workdir / "config.yaml")]
        for stage in ("personas", "contexts", "plots", "realize"):
            run(runner, [stage] + base)
        dialogs = workdir / "out" / "dialogs.jsonl"
        lines = dialogs.read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[1])
        row["plot"] = 5
        lines[1] = json.dumps(row) + "\n"
        dialogs.write_text("".join(lines), encoding="utf-8")
        result = runner.invoke(main, ["qc"] + base)
        assert result.exit_code == 1
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["stage"] == "qc"
        assert payload["error"] == "DatasetError"
        assert "dialogs.jsonl:2: malformed datapoint" in payload["message"]

    @pytest.mark.parametrize("checkpoint, field, stage", [
        ("plots.jsonl", "plot", "realize"),
        ("contexts.jsonl", "contexts", "plots"),
        ("personas.jsonl", None, "contexts"),  # the whole row is 5
    ])
    def test_malformed_upstream_row_fails_cleanly(self, runner, workdir,
                                                  checkpoint, field, stage):
        base = ["--config", str(workdir / "config.yaml")]
        for name in ("personas", "contexts", "plots"):
            run(runner, [name] + base)
        path = workdir / "out" / checkpoint
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        row = 5 if field is None else {**json.loads(lines[1]), field: 5}
        lines[1] = json.dumps(row) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        result = runner.invoke(main, [stage] + base, catch_exceptions=False)
        assert result.exit_code == 1
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["stage"] == stage
        assert payload["error"] == "DatasetError"
        assert f"{checkpoint}:2: malformed row" in payload["message"]

    def test_stats_uses_filtered_dataset_when_present(self, runner, workdir):
        base = ["--config", str(workdir / "config.yaml")]
        run(runner, ["run-all"] + base)
        out = workdir / "out"
        (out / "stats.txt").unlink()
        run(runner, ["stats"] + base)
        text = (out / "stats.txt").read_text()
        kept = len(read_dataset(out / "dataset.jsonl"))
        assert f"dialog_count: {kept}" in text
        for csv_name in ("stats_dialog_length_hist.csv",
                         "stats_service_coverage.csv"):
            assert (out / csv_name).read_text().startswith("key,count")


class TestOptions:
    def test_service_subset_restricts_corpus(self, runner, workdir):
        for stage in ("personas", "contexts", "plots", "realize"):
            run(runner, [
                stage, "--config", str(workdir / "config.yaml"),
                "--services", "alarms,reminders,contacts,banking",
                "--count", "5",
            ])
        dps = read_dataset(workdir / "out" / "dialogs.jsonl")
        allowed = {"alarms", "reminders", "contacts", "banking"}
        assert len(dps) == 5
        for dp in dps:
            assert set(dp.plot.services) <= allowed

    def test_bad_backend_choice_rejected(self, runner):
        result = runner.invoke(main, ["run-all", "--backend", "telepathy"])
        assert result.exit_code == 2
        assert "telepathy" in result.output

    @pytest.mark.parametrize("args", [
        ["--services", "alarms,contacts,messages"],
        ["--config", "reversed.yaml"],
    ])
    def test_bad_config_fails_before_any_stage(self, runner, workdir, args):
        (workdir / "reversed.yaml").write_text("record_count_range: [5, 1]\n")
        args = [str(workdir / a) if a.endswith(".yaml") else a for a in args]
        result = runner.invoke(main, ["run-all", "--out", str(workdir / "out"),
                                      "--count", "3", *args])
        assert result.exit_code == 1
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["error"] == "ConfigError"
        assert not (workdir / "out").exists()

    def test_content_retries_below_one_fails_before_any_stage(self, runner,
                                                             workdir):
        (workdir / "config.yaml").write_text("content_retries: 0\n")
        out = workdir / "out"
        result = runner.invoke(main, ["run-all", "--config",
                                      str(workdir / "config.yaml"),
                                      "--out", str(out), "--count", "3"])
        assert result.exit_code == 1
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["error"] == "ConfigError"
        assert payload["message"] == "content_retries must be at least 1, got 0"
        assert not out.exists()

    def test_negative_kind_ratio_fails_before_any_stage(self, runner, workdir):
        (workdir / "config.yaml").write_text("kind_ratios: [1.1, -0.1, 0.0]\n")
        out = workdir / "out"
        result = runner.invoke(main, ["run-all", "--config",
                                      str(workdir / "config.yaml"),
                                      "--out", str(out), "--count", "3"])
        assert result.exit_code == 1
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload == {
            "stage": "run-all", "error": "ConfigError",
            "message": "kind_ratios must be non-negative and sum to 1, "
                       "got (1.1, -0.1, 0.0)"}
        assert not (out / "personas.jsonl").exists()

    def test_bad_config_fails_cleanly(self, runner, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("not_a_real_key: 1\n")
        result = runner.invoke(main, ["personas", "--config", str(bad)])
        assert result.exit_code == 1
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["error"] == "ConfigError"
