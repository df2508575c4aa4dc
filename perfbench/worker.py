"""One pipeline pass in a fresh interpreter, driven through the public stage
functions ``todgen.cli.stage_*``.

    PYTHONPATH=src python3 perfbench/worker.py --config cfg.yaml \
        --stages contexts,plots --result result.json \
        [--record completions.jsonl] [--trace spans.jsonl --latency-ms 5]

Writes one JSON object to ``--result``: wall and CPU seconds of the stages,
peak RSS, backend completions per tag and prompt bytes. ``--record`` also
writes every completion keyed by its prompt messages; ``--trace`` wraps the
layers in spans and adds the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback
from collections import Counter
from pathlib import Path

import todgen.cli as cli
from todgen.config import load_config
from todgen.llm import Backend

from tracer import Tracer, layer_metrics


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--stages", required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--record", type=Path)
    ap.add_argument("--trace", type=Path)
    ap.add_argument("--latency-ms", type=float, default=0.0)
    args = ap.parse_args()

    cfg = load_config(args.config)
    tag_calls: Counter = Counter()
    prompt_bytes = 0
    records: list = []
    complete = Backend.complete

    def counted_complete(self, req):
        nonlocal prompt_bytes
        text = complete(self, req)
        tag_calls[req.tag] += 1
        prompt_bytes += sum(len(c.encode("utf-8")) for _, c in req.messages)
        if args.record:
            records.append({"messages": [list(m) for m in req.messages],
                            "completion": text})
        return text

    Backend.complete = counted_complete
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    error = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        for stage in args.stages.split(","):
            getattr(cli, f"stage_{stage}")(cfg)
    except Exception:  # reported to the harness, which counts the failure
        error = traceback.format_exc(limit=3)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    result = {
        "error": error,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calls": dict(tag_calls),
        "prompt_bytes": prompt_bytes,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, cfg.dialog_count, tag_calls,
                                         args.latency_ms / 1000.0)
        tracer.write(args.trace)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as f:
            for row in records:
                f.write(json.dumps(row, ensure_ascii=False) + "\n")
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
