"""Replay stub for the chat-completions wire shape.

Serves completions recorded from a mock-backend run, keyed by the prompt
messages, first in first out per key. Every request waits a fixed latency
before it is answered. A deterministic share of prompts, picked by prompt
hash, is answered 503 on the first attempt (never on the retry that
follows). A prompt with no recorded completion left is a replay miss and is
answered 404, which the client does not retry.

    python3 perfbench/stub.py --recording rec.jsonl --port-file port.txt \
        [--latency-ms 5] [--fault-share 0.05]

Control endpoints: ``GET /__stats`` returns the counters as JSON and
``POST /__reset`` restores every queue and zeroes the counters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path


def prompt_key(messages) -> str:
    """Canonical key of a prompt: the (role, content) pairs in order."""
    return json.dumps([[r, c] for r, c in messages], ensure_ascii=False)


def prompt_bytes(messages) -> int:
    return sum(len(c.encode("utf-8")) for _, c in messages)


def fails_first_attempt(key: str, share: float) -> bool:
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64 < share


class ReplayState:
    def __init__(self, recording: Path, latency_s: float, fault_share: float):
        self.latency_s = latency_s
        self.fault_share = fault_share
        self._recorded: dict[str, list[str]] = {}
        with open(recording, encoding="utf-8") as f:
            for line in f:
                row = json.loads(line)
                key = prompt_key(row["messages"])
                self._recorded.setdefault(key, []).append(row["completion"])
        self._faulty = {k for k in self._recorded
                        if fails_first_attempt(k, fault_share)}
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self._queues = {k: deque(v) for k, v in self._recorded.items()}
            self._failed_last = set()
            self.counters = {"requests": 0, "completions": 0,
                             "prompt_bytes": 0, "faults": 0, "misses": 0}

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.counters)

    def answer(self, messages) -> tuple[int, str]:
        """(status, completion) for one request; updates the counters."""
        key = prompt_key(messages)
        with self._lock:
            c = self.counters
            c["requests"] += 1
            if key in self._faulty and key not in self._failed_last:
                self._failed_last.add(key)
                c["faults"] += 1
                return 503, ""
            self._failed_last.discard(key)
            queue = self._queues.get(key)
            if not queue:
                c["misses"] += 1
                return 404, ""
            c["completions"] += 1
            c["prompt_bytes"] += prompt_bytes(messages)
            return 200, queue.popleft()


def make_handler(state: ReplayState):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive for clients that use it

        def log_message(self, format, *args):
            pass

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/__stats":
                self._send(200, state.snapshot())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            if self.path == "/__reset":
                state.reset()
                self._send(200, {"reset": True})
                return
            messages = [(m["role"], m["content"])
                        for m in json.loads(raw)["messages"]]
            time.sleep(state.latency_s)
            status, completion = state.answer(messages)
            if status == 200:
                self._send(200, {"choices": [{"message": {
                    "role": "assistant", "content": completion}}]})
            elif status == 404:
                self._send(404, {"error": "replay miss"})
            else:
                self._send(status, {"error": "injected fault"})

    return Handler


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--recording", type=Path, required=True)
    ap.add_argument("--port-file", type=Path, required=True)
    ap.add_argument("--latency-ms", type=float, default=5.0)
    ap.add_argument("--fault-share", type=float, default=0.0)
    args = ap.parse_args()
    state = ReplayState(args.recording, args.latency_ms / 1000.0,
                        args.fault_share)
    server = ThreadingHTTPServer(("127.0.0.1", 0),
                                 make_handler(state))
    server.daemon_threads = True
    tmp = args.port_file.with_suffix(".tmp")
    tmp.write_text(str(server.server_address[1]), encoding="utf-8")
    os.replace(tmp, args.port_file)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
