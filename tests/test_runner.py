"""Dialog runner: in-order results, one dialog at a time outside backend
waits, first-failure semantics, and concurrent stages over HTTP that write
the same artifacts as a serial run."""

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from click.testing import CliRunner

import todgen.cli as cli
from todgen.config import PipelineConfig
from todgen.llm import Backend, BackendConfig, RetryPolicy
from todgen.plot import PlotError
from todgen.runner import run_dialogs, waiting


class TestRunDialogs:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_results_keep_item_order(self, workers):
        def slow_square(i):
            with waiting():
                time.sleep(0.001 * (i % 3))
            return i * i

        assert run_dialogs(slow_square, range(12), workers) == \
            [i * i for i in range(12)]

    def test_code_outside_waiting_runs_one_dialog_at_a_time(self):
        """A read-modify-write outside ``waiting`` loses no update, even with
        more workers than cores and a tiny switch interval."""
        count = 0

        def bump(i):
            nonlocal count
            for _ in range(50):
                seen = count
                time.sleep(0)  # lets any other runnable thread in
                count = seen + 1
            with waiting():
                time.sleep(0.0005)
            return i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert run_dialogs(bump, range(64), 8) == list(range(64))
        finally:
            sys.setswitchinterval(interval)
        assert count == 64 * 50

    def test_backend_that_never_waits_runs_every_item_on_one_thread(self):
        """The turn changes hands only inside ``waiting``, so a worker keeps
        taking the next item until none is left."""
        threads = run_dialogs(lambda i: threading.get_ident(), range(20), 4)
        assert len(set(threads)) == 1

    def test_no_items(self):
        assert run_dialogs(lambda i: i, [], 4) == []

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_dialogs(lambda i: i, range(3), 0)

    def test_cli_import_does_not_load_a_thread_pool(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        code = "import sys, todgen.cli; print('concurrent.futures' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert out.stdout.strip() == "False"

    def test_failure_cancels_unstarted_items(self):
        started = []

        def fail_at_three(i):
            started.append(i)
            if i == 3:
                raise ValueError("dialog 3")
            with waiting():
                time.sleep(0.005)

        with pytest.raises(ValueError, match="dialog 3"):
            run_dialogs(fail_at_three, range(200), 2)
        assert len(started) < 200

    def test_lowest_failed_index_is_raised(self):
        """Dialog 2 fails first in time, but dialog 1 is earlier in order."""

        def fail(i):
            if i == 1:
                with waiting():
                    time.sleep(0.05)
                raise ValueError("dialog 1")
            if i == 2:
                raise ValueError("dialog 2")
            return i

        with pytest.raises(ValueError, match="dialog 1"):
            run_dialogs(fail, range(4), 2)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

STAGES = ("contexts", "plots", "realize", "qc", "stats", "split")


def _config(out, max_concurrency=1) -> PipelineConfig:
    return PipelineConfig(seed=5, dialog_count=8, persona_pool_size=4,
                          output_dir=str(out), max_concurrency=max_concurrency)


def _run(cfg, stages=STAGES) -> None:
    for stage in stages:
        getattr(cli, f"stage_{stage}")(cfg)


def _files(out) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class _ReplayHandler(BaseHTTPRequestHandler):
    """Answers each prompt with its recorded completion after a fixed
    latency, over keep-alive connections, and tracks the most requests in
    flight at once."""

    protocol_version = "HTTP/1.1"
    answers: dict = {}
    latency = 0.01
    lock = threading.Lock()
    in_flight = 0
    peak = 0

    def do_POST(self):
        cls = type(self)
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        key = json.dumps([[m["role"], m["content"]] for m in body["messages"]])
        with cls.lock:
            cls.in_flight += 1
            cls.peak = max(cls.peak, cls.in_flight)
        time.sleep(cls.latency)
        with cls.lock:
            cls.in_flight -= 1
        payload = json.dumps(
            {"choices": [{"message": {"content": cls.answers[key]}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def mock_reference(tmp_path, monkeypatch):
    """A mock run plus every completion of its backend stages, keyed by
    prompt; equal prompts must get equal completions, or a replay would
    depend on call order."""
    ref = tmp_path / "ref"
    cfg = _config(ref)
    cli.stage_personas(cfg)
    answers = {}
    complete = Backend.complete

    def recording(self, req):
        text = complete(self, req)
        key = json.dumps([list(m) for m in req.messages])
        assert answers.setdefault(key, text) == text, req.tag
        return text

    monkeypatch.setattr(Backend, "complete", recording)
    _run(cfg)
    monkeypatch.setattr(Backend, "complete", complete)
    return ref, answers


def test_http_stages_overlap_and_match_serial_run(tmp_path, mock_reference):
    ref, answers = mock_reference
    _ReplayHandler.answers = answers
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ReplayHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        http = BackendConfig(
            kind="http",
            endpoint=f"http://127.0.0.1:{server.server_address[1]}/v1",
            model="stub",
            retry=RetryPolicy(max_attempts=1, backoff=0.0),
        )
        peaks = {}
        for n in (1, 2):
            out = tmp_path / f"http{n}"
            out.mkdir()
            shutil.copy(ref / "personas.jsonl", out)
            cfg = replace(_config(out, n), user_backend=http,
                          system_backend=http, evaluator_backend=http)
            _ReplayHandler.peak = 0
            _run(cfg)
            peaks[n] = _ReplayHandler.peak
            assert _files(out) == _files(ref), n
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
    assert not thread.is_alive()
    assert peaks == {1: 1, 2: 2}


def test_stages_close_every_backend_they_build(tmp_path, monkeypatch):
    """Each backend stage closes the backends it built, also when one of its
    dialogs fails."""
    built, closed = [], []
    make = cli.make_backend

    def tracked(config, seed):
        backend = make(config, seed)
        backend.close = lambda: closed.append(backend)
        built.append(backend)
        return backend

    def ids(backends):
        return sorted(map(id, backends))

    monkeypatch.setattr(cli, "make_backend", tracked)
    cfg = _config(tmp_path / "out", max_concurrency=2)
    _run(cfg, ("personas",) + STAGES)
    assert len(built) == 6  # realize builds a user and a system backend
    assert ids(closed) == ids(built)

    built.clear()
    closed.clear()

    def fail(*args, **kwargs):
        raise PlotError("dialog failed")

    monkeypatch.setattr(cli, "realize_dialog", fail)
    with pytest.raises(PlotError):
        cli.stage_realize(cfg)
    assert len(built) == 2
    assert ids(closed) == ids(built)


def test_one_failing_dialog_fails_the_stage(tmp_path, monkeypatch):
    out = tmp_path / "out"
    _run(_config(out, max_concurrency=2), ["personas", "contexts", "plots"])
    before = _files(out)
    sample = cli.sample_specimen

    def fail_one(*args, dialog_id, **kwargs):
        if dialog_id == "dlg-00003":
            raise PlotError("no plot for dlg-00003")
        return sample(*args, dialog_id=dialog_id, **kwargs)

    monkeypatch.setattr(cli, "sample_specimen", fail_one)
    config = tmp_path / "config.yaml"
    config.write_text(f"seed: 5\ndialog_count: 8\npersona_pool_size: 4\n"
                      f"max_concurrency: 2\noutput_dir: {out}\n")
    result = CliRunner().invoke(cli.main, ["plots", "--config", str(config)])
    assert result.exit_code == 1
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert payload == {"stage": "plots", "error": "PlotError",
                       "message": "no plot for dlg-00003"}
    # the earlier checkpoint is intact and no temp file is left behind
    assert _files(out) == before
