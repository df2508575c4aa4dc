"""Work budget: the call events a 50-dialog mock pipeline makes into todgen's
own functions, pinned per Python version.

CPU time on a shared machine cannot resolve a few percent, but this count is
exactly repeatable: a fresh interpreter (``PYTHONHASHSEED=0``) runs the seven
stages one by one, as the benchmark worker does, at ``max_concurrency`` 1
under ``sys.setprofile`` and ``threading.setprofile``, and counts each call
into a function whose code lives in ``src/todgen`` and whose name does not
start with ``<`` (comprehensions, lambdas and module bodies are left out).

The count does not see work done inside C or the stdlib (JSON encoding,
hashing, RNG seeding, regex scans): skipping the mock's request digest for the
tags whose answers do not draw cut about a fifth of a mock run's CPU, while
the count fell 0.5%.

The test fails above the pin, and more than 2% below it, so a change that
saves work lowers the pin in the same commit and says so. To print the count:

    PYTHONPATH=src python tests/test_work.py <scratch output dir>
"""

import json
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

DIALOGS = 50
PINS = {(3, 11): 1134.46}  # call events per dialog
SLACK = 0.02


def count_calls(out: Path) -> dict:
    """Call events per todgen module over one seed-7 mock stage sequence."""
    from todgen import cli
    from todgen.config import PipelineConfig

    cfg = PipelineConfig(seed=7, dialog_count=DIALOGS, max_concurrency=1,
                         output_dir=str(out))
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        for stage in cli._STAGES.values():
            stage(cfg)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    package = Path(cli.__file__).parent
    by_module: Counter = Counter()
    for code, n in calls.items():
        path = Path(code.co_filename)
        if path.parent == package and not code.co_name.startswith("<"):
            by_module[path.stem] += n
    return dict(sorted(by_module.items()))


def test_work_per_dialog_stays_at_its_pin(tmp_path):
    from todgen import cli

    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, __file__, str(tmp_path / "out")], env=env,
        capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    by_module = json.loads(child.stdout)
    per_dialog = sum(by_module.values()) / DIALOGS
    pin = PINS.get(sys.version_info[:2])
    if pin is None:
        pytest.skip(f"no pin for Python {sys.version.split()[0]}; it counts "
                    f"{per_dialog:.1f} call events per dialog")
    shown = f"{per_dialog:.1f} per dialog against a pin of {pin}; " \
            f"per module: {by_module}"
    assert per_dialog <= pin, f"more work: {shown}"
    assert per_dialog >= pin * (1 - SLACK), \
        f"less work than pinned (lower the pin): {shown}"


if __name__ == "__main__":
    print(json.dumps(count_calls(Path(sys.argv[1]))))
