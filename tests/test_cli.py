"""CLI: stage commands, checkpoint chaining, configuration handling, and
failure reporting."""

import dataclasses
import json
import socket
import sys
import typing
from pathlib import Path

import pytest
from click.testing import CliRunner

from todgen import schema
from todgen.cli import main, stage_contexts, stage_personas, stage_plots
from todgen.config import ConfigError, PipelineConfig, load_config
from todgen.dataset import read_dataset
from todgen.llm import BackendConfig, MockBackend, RetryPolicy


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


# a value of the wrong type for a field of each type a config field has
_WRONG = {int: 2.7, float: "0.5", str: 7}


def _wrong_values(cls):
    """``(path, value)`` for each field of ``cls``, and of each config nested
    in it, with a value of the wrong type."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        if dataclasses.is_dataclass(tp):
            yield (f.name,), 3
            for path, value in _wrong_values(tp):
                yield (f.name, *path), value
        elif typing.get_origin(tp) is tuple:
            yield (f.name,), [_WRONG[t] for t in typing.get_args(tp)
                              if t is not Ellipsis]
        else:
            yield (f.name,), _WRONG[tp]


def _wrong_typed_fields():
    """``(dotted path, YAML text)``: one config field at any level with a
    wrong-typed value, for every field in turn."""
    for path, value in _wrong_values(PipelineConfig):
        for name in reversed(path):
            value = {name: value}
        yield ".".join(path), json.dumps(value)


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

    @pytest.mark.parametrize("path, text", [
        *_wrong_typed_fields(),
        ("user_backend.retry.max_attempts",
         "user_backend: {retry: {max_attempts: 2.7}}"),
        ("user_backend.retry.max_attempts",
         "user_backend: {retry: {max_attempts: true}}"),
        ("user_backend.timeout", "user_backend: {timeout: '30'}"),
        ("user_backend.retry.backoff", "user_backend: {retry: {backoff: '0.5'}}"),
        ("user_backend.model", "user_backend: {model: 7}"),
        ("user_backend.auth_env", "user_backend: {auth_env: [1]}"),
        ("user_backend.endpoint", "user_backend: {endpoint: 5}"),
        ("services", "services: [1]"),
    ])
    def test_wrong_typed_field_fails_before_any_stage(
            self, runner, tmp_path, monkeypatch, path, text):
        """Every field of every config level, and each line that an earlier
        loader accepted or mis-reported, fails by its dotted path. No
        ``--out``, so a wrong ``output_dir`` is not overridden."""
        monkeypatch.chdir(tmp_path)
        Path("c.yaml").write_text(text + "\n")
        result = runner.invoke(main, ["run-all", "--config", "c.yaml"])
        assert result.exit_code == 1
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith(path + ": expected")
        assert [p.name for p in tmp_path.iterdir()] == ["c.yaml"]

    def test_int_accepted_for_float(self):
        assert PipelineConfig(temperature=1).temperature == 1

    def test_path_accepted_for_string(self, tmp_path):
        assert load_config(output_dir=tmp_path).output_dir == tmp_path

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
        with pytest.raises(ValueError, match="absolute http"):
            BackendConfig(kind="http", endpoint=endpoint)

    @pytest.mark.parametrize("attempts", [0, -1])
    def test_max_attempts_below_one_rejected(self, tmp_path, attempts):
        with pytest.raises(ConfigError, match="max_attempts must be at least 1"):
            load_backend_yaml(
                tmp_path, f"{{kind: mock, retry: {{max_attempts: {attempts}}}}}")
        with pytest.raises(ValueError, match="max_attempts must be at least 1"):
            RetryPolicy(max_attempts=attempts)

    def test_negative_backoff_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="backoff must be >= 0"):
            load_backend_yaml(tmp_path, "{kind: mock, retry: {backoff: -0.5}}")
        with pytest.raises(ValueError, match="backoff must be >= 0"):
            RetryPolicy(backoff=-0.5)

    @pytest.mark.parametrize("timeout", [0, -3])
    def test_timeout_not_positive_rejected(self, tmp_path, timeout):
        with pytest.raises(ConfigError, match="timeout must be > 0"):
            load_backend_yaml(tmp_path, f"{{kind: mock, timeout: {timeout}}}")
        with pytest.raises(ValueError, match="timeout must be > 0"):
            BackendConfig(timeout=timeout)

    @pytest.mark.parametrize("backend, message", [
        ("{kind: quantum}", "kind must be 'mock' or 'http'"),
        ("{kind: http}", "requires an endpoint"),
        ("{kind: mock, timeout: soon}", "timeout: expected number"),
        ("{kind: mock, retry: 3}", "retry: expected mapping"),
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

    @pytest.mark.parametrize("command, endpoint, roles", [
        ("contexts", "http://127.0.0.1:9/v1", []),
        ("contexts", "http://todgen.invalid/v1", ["user"]),
        ("qc", "http://todgen.invalid/v1", ["evaluator"]),
        ("run-all", "http://todgen.invalid/v1", ["user", "system",
                                                 "evaluator"]),
    ])
    def test_missing_api_key_warns_before_any_stage(
            self, runner, tmp_path, monkeypatch, command, endpoint, roles):
        """One warning per backend role the command builds whose endpoint is
        not a loopback address, and the command goes on. The stages fail
        without a completion: ``contexts`` and ``qc`` lack their input, and
        ``run-all`` reaches no server through a proxy on a closed port."""
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{port}")
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        monkeypatch.setenv("TODGEN_API_KEY", "")
        config = tmp_path / "c.yaml"
        backend = (f"{{kind: http, endpoint: '{endpoint}', "
                   "retry: {max_attempts: 1}}")
        config.write_text("".join(f"{role}_backend: {backend}\n" for role in
                                  ("user", "system", "evaluator")))
        result = runner.invoke(main, [command, "--config", str(config),
                                      "--out", str(tmp_path / "out"),
                                      "--count", "2"])
        assert result.exit_code == 1
        *warnings, failure = result.stderr.splitlines()
        assert warnings == [
            f"warning: {role}_backend sends no API key, as $TODGEN_API_KEY "
            "is unset or empty" for role in roles]
        assert json.loads(failure)["stage"] == (
            "personas" if command == "run-all" else command)

    def test_backend_option_goes_through_the_loader(self, runner, tmp_path):
        """``--backend http`` with no endpoint fails as a bad config does,
        naming the first backend, before any stage."""
        out = tmp_path / "out"
        result = runner.invoke(main, ["run-all", "--count", "3", "--backend",
                                      "http", "--out", str(out)])
        assert result.exit_code == 1
        assert json.loads(result.output.strip().splitlines()[-1]) == {
            "stage": "run-all", "error": "ConfigError",
            "message": "user_backend: http backend requires an endpoint"}
        assert not out.exists()

    def test_backend_override_merges_into_the_yaml_mapping(self, tmp_path):
        path = tmp_path / "backend.yaml"
        path.write_text("user_backend: {kind: mock, endpoint: "
                        "'https://api.example.com/v1', timeout: 5}\n")
        cfg = load_config(path, user_backend={"kind": "http"})
        assert (cfg.user_backend.kind, cfg.user_backend.endpoint,
                cfg.user_backend.timeout) == (
                    "http", "https://api.example.com/v1", 5)
        assert cfg.system_backend.kind == "mock"
        path.write_text("user_backend: 3\n")
        with pytest.raises(ConfigError,
                           match="^user_backend: expected mapping, got 3$"):
            load_config(path, user_backend={"kind": "mock"})

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


def _count_schema_loads(monkeypatch) -> list:
    """Wraps ``load_schema_set`` in every todgen module that bound it; the
    returned list gets one entry per call."""
    calls = []
    load = schema.load_schema_set

    def counted(*args, **kwargs):
        calls.append(args)
        return load(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "todgen"
                and getattr(module, "load_schema_set", None) is load):
            monkeypatch.setattr(module, "load_schema_set", counted)
    return calls


class TestSchemaLoads:
    """A config loads its schema set once, however many stages read it."""

    def test_run_all_loads_the_schema_set_once(self, runner, workdir,
                                               monkeypatch):
        calls = _count_schema_loads(monkeypatch)
        run(runner, ["run-all", "--config", str(workdir / "config.yaml")])
        assert len(calls) == 1

    def test_stages_on_one_config_load_it_once(self, workdir, monkeypatch):
        """The benchmark worker's sequence: one config, stage by stage."""
        cfg = load_config(workdir / "config.yaml")
        calls = _count_schema_loads(monkeypatch)
        stage_personas(cfg)
        stage_contexts(cfg)
        stage_plots(cfg)
        assert len(calls) == 1


def test_config_and_schema_field_counts():
    """Each field is a knob or a schema key that tests and the benchmark
    must cover; adding one means editing this count on purpose."""
    counts = {cls.__name__: len(dataclasses.fields(cls)) for cls in (
        PipelineConfig, BackendConfig, RetryPolicy, schema.ServiceSchema,
        schema.IntentSpec, schema.SlotSpec)}
    assert counts == {"PipelineConfig": 25, "BackendConfig": 6,
                      "RetryPolicy": 2, "ServiceSchema": 3, "IntentSpec": 12,
                      "SlotSpec": 4}


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

    def test_plot_row_without_labels_fails_cleanly(self, runner, workdir):
        """A plots.jsonl row whose plot lacks its labels is malformed, not
        read as an unlabeled Single plot."""
        base = ["--config", str(workdir / "config.yaml")]
        for name in ("personas", "contexts", "plots"):
            run(runner, [name] + base)
        path = workdir / "out" / "plots.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[1])
        del row["plot"]["labels"]
        lines[1] = json.dumps(row) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        result = runner.invoke(main, ["realize"] + base,
                               catch_exceptions=False)
        assert result.exit_code == 1
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["stage"] == "realize"
        assert payload["error"] == "DatasetError"
        assert "plots.jsonl:2: malformed row" in payload["message"]
        assert "'labels'" in payload["message"]

    @pytest.mark.parametrize("edit, problem", [
        (lambda p: p["labels"].update(
            kind="Compound" if p["labels"]["kind"] != "Compound" else "Single"),
         "stored kind"),
        (lambda p: p["labels"].update(
            phenomena=[] if p["labels"]["phenomena"] else ["self_correction"]),
         "stored phenomena"),
        (lambda p: p["default_styles"].pop(),
         "default styles for"),
    ], ids=["kind", "phenomena", "default-styles"])
    def test_plot_row_that_its_turns_contradict_fails_cleanly(
            self, runner, workdir, edit, problem):
        """Stored labels and default styles are checked against the turns
        on read, so a tampered row stops ``realize`` at its line."""
        base = ["--config", str(workdir / "config.yaml")]
        for name in ("personas", "contexts", "plots"):
            run(runner, [name] + base)
        path = workdir / "out" / "plots.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        # a row whose plot has two system turns, so one style is left
        index = next(i for i, line in enumerate(lines)
                     if len(json.loads(line)["plot"]["default_styles"]) > 1)
        row = json.loads(lines[index])
        edit(row["plot"])
        lines[index] = json.dumps(row) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        result = runner.invoke(main, ["realize"] + base,
                               catch_exceptions=False)
        assert result.exit_code == 1
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["error"] == "DatasetError"
        assert f"plots.jsonl:{index + 1}: malformed row" in payload["message"]
        assert problem in payload["message"]

    @pytest.mark.parametrize("variant", [5, "   "], ids=["number", "blank"])
    def test_dialog_row_with_a_bad_variant_fails_cleanly(self, runner,
                                                         workdir, variant):
        """Each style variant is a non-blank string; a row that breaks
        that is malformed, not a ``TypeError`` in a QC check or a kept
        blank response."""
        base = ["--config", str(workdir / "config.yaml")]
        for stage in ("personas", "contexts", "plots", "realize"):
            run(runner, [stage] + base)
        dialogs = workdir / "out" / "dialogs.jsonl"
        lines = dialogs.read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[1])
        response = row["dialog"]["turns"][1]
        response["variants"][response["default_key"]] = variant
        lines[1] = json.dumps(row) + "\n"
        dialogs.write_text("".join(lines), encoding="utf-8")
        result = runner.invoke(main, ["qc"] + base, catch_exceptions=False)
        assert result.exit_code == 1
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["error"] == "DatasetError"
        assert "dialogs.jsonl:2: malformed datapoint" in payload["message"]
        assert "non-blank string" in payload["message"]

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

    def test_unknown_service_fails_before_any_stage(self, runner, workdir):
        out = workdir / "out"
        result = runner.invoke(main, ["run-all", "--out", str(out), "--count",
                                      "3", "--services", "alarms,banking,nosuch"])
        assert result.exit_code == 1
        payload = json.loads(result.output.strip())
        assert payload["error"] == "SchemaError"
        assert payload["message"].startswith("services: unknown services "
                                             "['nosuch']")
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda s: s.update(slots=5),
         "slots: expected list of mappings, got 5"),
        (lambda s: s.update(slots=["a"]),
         "slots: expected list of mappings, got ['a']"),
        (lambda s: s.update(intent_operations={"name": "x"}),
         "intent_operations: expected list of mappings, got {'name': 'x'}"),
        (lambda s: s["intent_operations"][0].update(description=[1]),
         "intent_operations[0].description: expected string, got [1]"),
        (lambda s: s["slots"][0].update(description=5),
         "slots[0].description: expected string, got 5"),
    ])
    def test_bad_schema_fails_before_any_stage(self, runner, tmp_path, edit,
                                               message):
        """Inputs that crashed a later stage or passed unseen exit 1 with
        one JSON line naming the schema file and the dotted path."""
        schemas = Path(load_config().schema_manifest_path).parent
        schema = json.loads((schemas / "alarms.json").read_text())
        edit(schema)
        (tmp_path / "alarms.json").write_text(json.dumps(schema))
        (tmp_path / "manifest.txt").write_text("alarms.json\n")
        config = tmp_path / "c.yaml"
        config.write_text(f"schema_manifest: {tmp_path / 'manifest.txt'}\n")
        out = tmp_path / "out"
        result = runner.invoke(main, ["run-all", "--config", str(config),
                                      "--out", str(out), "--count", "3"])
        assert result.exit_code == 1
        assert json.loads(result.output) == {
            "stage": "run-all", "error": "SchemaError",
            "message": f"{tmp_path / 'alarms.json'}: {message}"}
        assert not out.exists()

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
