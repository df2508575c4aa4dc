"""Golden digests: a mock ``run-all`` (seed 7, 200 dialogs) writes the same
12 artifacts, byte for byte, and sends the same prompts, at any
``max_concurrency``.

The mock answers ``user_turn``, ``system_turn`` and ``qc_eval`` from request
metadata alone, so a change to those prompts leaves every artifact as it was.
``golden_prompts.json`` therefore pins the prompts themselves: per request
tag, the sha256 of the sorted ``(messages, temperature, max_tokens)`` of every
request the run sends. Sorting makes the digest independent of call order.

A change that alters the artifacts or prompts on purpose regenerates both
files in the same commit (``PYTHONPATH=src python tests/test_golden.py``) and
says why.
"""

import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner

from todgen.cli import main
from todgen.mock import MockBackend

GOLDEN = Path(__file__).with_name("golden.json")
GOLDEN_PROMPTS = Path(__file__).with_name("golden_prompts.json")


def _prompt_digests(requests: list) -> dict:
    """sha256 of the sorted (messages, temperature, max_tokens), per tag."""
    by_tag: dict = {}
    for req in requests:
        by_tag.setdefault(req.tag, []).append(
            (req.messages, req.temperature, req.max_tokens))
    return {
        tag: hashlib.sha256(
            json.dumps(sorted(sent), ensure_ascii=False).encode("utf-8")
        ).hexdigest()
        for tag, sent in sorted(by_tag.items())
    }


def run_all_digests(workdir: Path, concurrency: int) -> tuple:
    """(sha256 of every file a mock run-all writes, keyed by file name;
    prompt digests of the requests it sends, keyed by tag)."""
    config = workdir / "config.yaml"
    config.write_text(f"max_concurrency: {concurrency}\n")
    out = workdir / "out"
    requests = []
    complete = MockBackend.complete

    def recording_complete(self, req):
        requests.append(req)
        return complete(self, req)

    with mock.patch.object(MockBackend, "complete", recording_complete):
        result = CliRunner().invoke(
            main,
            ["run-all", "--config", str(config), "--backend", "mock",
             "--seed", "7", "--count", "200", "--out", str(out)],
            catch_exceptions=False,
        )
    assert result.exit_code == 0, result.output
    artifacts = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }
    return artifacts, _prompt_digests(requests)


@pytest.mark.parametrize("concurrency", [1, 4])
def test_run_all_matches_golden_digests(tmp_path, concurrency):
    golden = json.loads(GOLDEN.read_text())
    golden_prompts = json.loads(GOLDEN_PROMPTS.read_text())
    assert len(golden) == 12
    artifacts, prompts = run_all_digests(tmp_path, concurrency)
    assert artifacts == golden
    assert prompts == golden_prompts


def _write(path: Path, digests: dict) -> None:
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(digests)} digests to {path}\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        artifacts, prompts = run_all_digests(Path(tmp), 1)
    _write(GOLDEN, artifacts)
    _write(GOLDEN_PROMPTS, prompts)
