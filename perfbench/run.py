"""todgen benchmark: drives the pipeline from outside through its public stage
functions and prints one JSON result as the last line of stdout.

    python3 perfbench/run.py --workload mock-corpus --seed 1 --seconds 40 --trace 0

Run from a todgen checkout (the sources are taken from ``src/``). Each
workload's stages, config and stub settings, and the layer -> end-to-end ->
workload map, are in ``perfbench/workloads.json``; the reason for each
workload and the metric names and units are in ``BENCHMARK.json``.

Each pass runs the workload's stages in a fresh interpreter
(``perfbench/worker.py``). Passes repeat until ``--seconds`` is spent and the
end-to-end metrics are medians over passes. ``--trace 1`` adds one traced
pass and reports the per-layer metrics instead. Every pass is checked:
stub workloads must reproduce the mock reference byte for byte; mock-corpus
passes must agree on their artifact digest and the first one must satisfy
the corpus invariants. Exit code 1 when any check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
DEADLINE_S = 170.0  # every run ends well inside 180 s
SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import todgen.cli\n"
    "from todgen.config import load_config\n"
    "from todgen.schema import load_schema_set\n"
    "cfg = load_config(sys.argv[1])\n"
    "load_schema_set(cfg.schema_manifest_path)\n"
    "print(time.perf_counter() - t0)\n"
)
# urllib must not route the loopback control calls through a proxy
_LOCAL = urllib.request.build_opener(urllib.request.ProxyHandler({}))


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k.lower() not in ("http_proxy", "https_proxy", "all_proxy")}
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _dialog_ids(out: Path) -> list:
    path = out / "dialogs.jsonl"
    return [row["id"] for row in _jsonl(path)] if path.exists() else []


def check_corpus(out: Path) -> list:
    """Structural invariants of a mock run; returns the violations."""
    sys.path.insert(0, str(ROOT / "src"))
    from todgen.plot import Plot
    from todgen.realizer import DialogRecord

    problems = []
    plots = {r["dialog_id"]: r["plot"] for r in _jsonl(out / "plots.jsonl")}
    dialog_lines = (out / "dialogs.jsonl").read_text(encoding="utf-8").splitlines()
    ids = []
    for line in dialog_lines:
        row = json.loads(line)
        ids.append(row["id"])
        try:
            DialogRecord.from_dict(row["dialog"]).validate_against(
                Plot.from_dict(plots[row["id"]]))
        except (KeyError, TypeError, ValueError) as e:
            problems.append(f"{row['id']}: dialog does not fit its plot: {e!r}")
    reports = _jsonl(out / "qc_report.jsonl")
    if [r["datapoint_id"] for r in reports] != ids:
        problems.append("qc_report ids differ from dialogs ids")
    dropped = {r["datapoint_id"] for r in reports if r["disposition"] == "drop"}
    kept = [line for line, i in zip(dialog_lines, ids) if i not in dropped]
    dataset = (out / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
    if dataset != kept:
        problems.append("dataset.jsonl is not the non-dropped dialogs")
    split = json.loads((out / "split.json").read_text(encoding="utf-8"))
    parts = split["train"] + split["test"] + split["zero_shot"]
    if sorted(parts) != sorted(json.loads(line)["id"] for line in dataset):
        problems.append("split does not partition the dataset ids")
    return problems


class Run:
    def __init__(self, args, spec: dict):
        self.args = args
        self.spec = spec
        self.count = spec["config"]["dialog_count"]
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = _child_env()
        self.work = WORK / args.workload
        self.stub = None
        self.stub_url = ""
        self.reference = self.work / "reference"

    # -- processes -------------------------------------------------------

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left

    def _python(self, *argv: str) -> str:
        try:
            done = subprocess.run(
                [sys.executable, *argv], env=self.env, cwd=ROOT,
                capture_output=True, text=True, timeout=self._remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {argv[:2]}") from None
        if done.returncode != 0:
            raise BenchError(f"{argv[:2]} exited {done.returncode}:\n"
                             f"{done.stderr[-2000:]}")
        return done.stdout

    def _stub_call(self, path: str, post: bool = False) -> dict:
        req = urllib.request.Request(self.stub_url + path,
                                     data=b"{}" if post else None)
        with _LOCAL.open(req, timeout=10) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        if self.stub is not None:
            self.stub.terminate()
            try:
                self.stub.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub = None

    # -- configs ---------------------------------------------------------

    def _config(self, out: Path, mock: bool) -> Path:
        cfg = json.loads(json.dumps(self.spec["config"]))
        cfg["seed"] = self.args.seed
        cfg["output_dir"] = str(out)
        for key in ("user_backend", "system_backend", "evaluator_backend"):
            if mock:
                cfg[key]["kind"] = "mock"
            elif cfg[key]["kind"] == "http":
                cfg[key]["endpoint"] = self.stub_url + "/v1/chat/completions"
        path = out.with_suffix(".yaml")
        path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")  # JSON is YAML
        return path

    # -- set-up ----------------------------------------------------------

    def setup(self) -> list:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.reference.mkdir()
        cfg = self._config(self.reference, mock=True)
        times = [float(self._python("-c", SETUP_CODE, str(cfg)))
                 for _ in range(SETUP_REPEATS)]
        stub = self.spec["stub"]
        if stub is not None:
            recording = self.work / "completions.jsonl"
            result = self.work / "reference.json"
            self._python(str(BENCH / "worker.py"), "--config", str(cfg),
                         "--stages", "personas," + ",".join(self.spec["stages"]),
                         "--result", str(result), "--record", str(recording))
            error = json.loads(result.read_text())["error"]
            if error:
                raise BenchError(f"mock reference run failed:\n{error}")
            self._start_stub(recording, stub)
        return times

    def _start_stub(self, recording: Path, stub: dict) -> None:
        port_file = self.work / "stub.port"
        log = open(self.work / "stub.log", "w")
        try:
            self.stub = subprocess.Popen(
                [sys.executable, str(BENCH / "stub.py"),
                 "--recording", str(recording), "--port-file", str(port_file),
                 "--latency-ms", str(stub["latency_ms"]),
                 "--fault-share", str(stub["fault_share"])],
                env=self.env, cwd=ROOT, stdout=log, stderr=log)
        finally:
            log.close()
        limit = time.monotonic() + 20
        while not port_file.exists():
            if self.stub.poll() is not None or time.monotonic() > limit:
                raise BenchError("replay stub did not start")
            time.sleep(0.02)
        self.stub_url = f"http://127.0.0.1:{port_file.read_text().strip()}"

    # -- passes ----------------------------------------------------------

    def run_pass(self, name: str, trace: bool) -> dict:
        """One pass plus its checks; returns the worker result with
        ``problems``, ``missing`` and ``digest`` added."""
        out = self.work / name
        out.mkdir()
        if self.spec["stub"] is not None:
            shutil.copy(self.reference / "personas.jsonl", out)
            self._stub_call("/__reset", post=True)
        cfg = self._config(out, mock=False)
        result_path = self.work / f"{name}.json"
        argv = [str(BENCH / "worker.py"), "--config", str(cfg),
                "--stages", ",".join(self.spec["stages"]),
                "--result", str(result_path)]
        if trace:
            argv += ["--trace", str(self.work / "spans.jsonl"), "--latency-ms",
                     str((self.spec["stub"] or {}).get("latency_ms", 0))]
        started = time.perf_counter()
        self._python(*argv)
        res = json.loads(result_path.read_text())
        res["elapsed_s"] = time.perf_counter() - started
        res["client_calls"] = sum(res["calls"].values())
        res["missing"] = self.count - len(set(_dialog_ids(out)))
        problems = [f"pipeline failed:\n{res['error']}"] if res["error"] else []
        if self.spec["stub"] is not None:
            stats = self._stub_call("/__stats")
            res["stub"] = stats
            problems += self._check_replay(out, res, stats)
        elif name == "pass0" and not res["error"]:
            problems += check_corpus(out)
        res["digest"] = _digest(out)
        if trace and not res["error"]:
            reports = _jsonl(out / "qc_report.jsonl")
            kept = sum(r["disposition"] == "keep" for r in reports)
            res["keep_ratio"] = kept / len(reports) if reports else 0.0
        res["problems"] = problems
        shutil.rmtree(out)
        return res

    def _check_replay(self, out: Path, res: dict, stats: dict) -> list:
        problems = []
        if stats["misses"]:
            problems.append(f"{stats['misses']} replay misses")
        if (stats["completions"], stats["prompt_bytes"]) != (
                res["client_calls"], res["prompt_bytes"]):
            problems.append(f"stub served {stats['completions']} completions "
                            f"and {stats['prompt_bytes']} prompt bytes, client "
                            f"made {res['client_calls']} calls with "
                            f"{res['prompt_bytes']} bytes")
        names = sorted(p.name for p in self.reference.iterdir())
        if sorted(p.name for p in out.iterdir()) != names:
            problems.append("artifact files differ from the mock reference")
        for n in names:
            if (out / n).exists() and \
                    (out / n).read_bytes() != (self.reference / n).read_bytes():
                problems.append(f"{n} differs from the mock reference")
        return problems

    def measure(self) -> tuple[list, dict]:
        """Untraced passes until --seconds is spent, then the traced pass."""
        passes = []
        start = time.monotonic()
        while True:
            passes.append(self.run_pass(f"pass{len(passes)}", trace=False))
            typical = statistics.median(p["elapsed_s"] for p in passes)
            if time.monotonic() - start + typical > self.args.seconds:
                break
        traced = self.run_pass("traced", trace=True) if self.args.trace else None
        digests = {p["digest"] for p in passes + ([traced] if traced else [])}
        if self.spec["stub"] is None and len(digests) > 1:
            passes[-1]["problems"].append("artifact digest differs between passes")
        return passes, traced


def end_to_end(passes: list, setup_times: list, count: int,
               ok_share: float) -> dict:
    first = passes[0]
    calls = first["stub"]["completions"] if "stub" in first else first["client_calls"]
    return {
        "dialogs_per_s": statistics.median(count / p["wall_s"] for p in passes),
        "cpu_ms_per_dialog": statistics.median(p["cpu_s"] for p in passes)
        / count * 1000,
        "calls_per_dialog": calls / count,
        "prompt_kb_per_dialog": first["prompt_bytes"] / count / 1000,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setup_times),
        "ok_share": ok_share,
    }


def per_layer(passes: list, traced: dict) -> dict:
    m = dict(traced["layers"])
    stats = traced.get("stub", {"requests": 0, "faults": 0, "completions": 0})
    m["llm.http_attempts"] = stats["requests"]
    m["llm.http_5xx"] = stats["faults"]
    m["llm.retry_ratio"] = ((stats["requests"] - stats["completions"])
                            / stats["completions"] if stats["completions"] else 0.0)
    m["qc.keep_ratio"] = traced.get("keep_ratio", 0.0)
    m["trace.overhead_s"] = traced["wall_s"] - statistics.median(
        p["wall_s"] for p in passes)
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description="todgen benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "todgen" / "cli.py").is_file():
        print(f"perfbench: no todgen sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((BENCH / "workloads.json").read_text())["workloads"].get(
        args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    run = Run(args, spec)
    try:
        setup_times = run.setup()
        passes, traced = run.measure()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        run.close()

    everything = passes + ([traced] if traced else [])
    problems = [p for r in everything for p in r["problems"]]
    attempted = run.count * len(everything)
    failed = sum(min(run.count, r["missing"] + bool(r["problems"]))
                 for r in everything)
    if args.trace:
        values = per_layer(passes, traced)
        kind = "per_layer"
    else:
        values = end_to_end(passes, setup_times, run.count,
                            1 - failed / attempted)
        kind = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared[kind]}

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"digest={passes[0]['digest'][:16]}")
    for i, p in enumerate(everything):
        print(f"  pass {i}: wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s, "
              f"rss {p['peak_rss_mb']:.1f} MB")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
