"""Golden digests: a mock ``run-all`` (seed 7, 200 dialogs) writes the same
12 artifacts, byte for byte, at any ``max_concurrency``.

A change that alters the artifacts on purpose regenerates ``golden.json`` in
the same commit (``PYTHONPATH=src python tests/test_golden.py``) and says why.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from todgen.cli import main

GOLDEN = Path(__file__).with_name("golden.json")


def run_all_digests(workdir: Path, concurrency: int) -> dict:
    """sha256 of every file a mock run-all writes, keyed by file name."""
    config = workdir / "config.yaml"
    config.write_text(f"max_concurrency: {concurrency}\n")
    out = workdir / "out"
    result = CliRunner().invoke(
        main,
        ["run-all", "--config", str(config), "--backend", "mock",
         "--seed", "7", "--count", "200", "--out", str(out)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


@pytest.mark.parametrize("concurrency", [1, 4])
def test_run_all_matches_golden_digests(tmp_path, concurrency):
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 12
    assert run_all_digests(tmp_path, concurrency) == golden


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = run_all_digests(Path(tmp), 1)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(digests)} digests to {GOLDEN}\n")
