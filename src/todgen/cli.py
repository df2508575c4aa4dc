"""Command-line pipeline orchestration.

Each stage reads its predecessor's checkpoint files from the output directory
and writes its own, so expensive backend stages can be re-run independently:

    personas -> personas.jsonl
    contexts -> contexts.jsonl
    plots    -> plots.jsonl
    realize  -> dialogs.jsonl
    qc       -> qc_report.jsonl + dataset.jsonl
    stats    -> stats.txt (+ CSV tables)
    split    -> split.json
    run-all  -> all of the above in order

The backend stages (personas, contexts, plots, realize, qc) map one function
of a persona or dialog over all of them with ``runner.run_dialogs``,
``max_concurrency`` at a time, and write their checkpoint in order once the
map is done.

Every stage writes its checkpoint. Within one process, the next stage takes
the values that were written in memory instead of parsing the file again, but
only when the file still holds the bytes that were written; otherwise (a
standalone command, an edited or copied-in file) it reads the file.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import sys
from contextlib import closing
from pathlib import Path

import click

from . import dataset as dataset_mod
from . import qc as qc_mod
from .config import ConfigError, PipelineConfig, load_config
from .context import generate_contexts, sample_current_time, AppContext
from .dataset import Datapoint, compute_stats, jsonl_lines, read_jsonl, \
    split as split_corpus, stats_to_text
from .llm import Backend, BackendConfig, HttpBackend, missing_key
from .mock import MockBackend
from .persona import Persona, generate_pool
from .plot import Plot, build_plot
from .realizer import realize_dialog
from .rng import derive_rng
from .runner import run_dialogs
from .sampler import sample_specimen

_STAGE_ERRORS = (ValueError, RuntimeError, OSError, KeyError)


def _fail(stage: str, error: Exception) -> None:
    summary = {"stage": stage, "error": type(error).__name__,
               "message": str(error)}
    click.echo(json.dumps(summary), err=True)
    sys.exit(1)


def _build_config(config, seed, count, services, backend, out) -> PipelineConfig:
    overrides: dict = {"seed": seed, "dialog_count": count, "output_dir": out}
    if services:
        overrides["services"] = tuple(s.strip() for s in services.split(","))
    if backend is not None:  # merged into each backend mapping of the YAML
        overrides.update((f"{role}_backend", {"kind": backend})
                         for role in ("user", "system", "evaluator"))
    cfg = load_config(config, **overrides)
    cfg.schemas  # a bad schema set or services subset fails before any stage
    return cfg


# the backend roles each stage builds
_ROLES = {"personas": ("user",), "contexts": ("user",), "plots": ("user",),
          "realize": ("user", "system"), "qc": ("evaluator",)}


def _warn_missing_keys(cfg: PipelineConfig, stages) -> None:
    """Warn once per backend role of ``stages`` that would send a server
    other than this machine no API key; local servers often need none."""
    roles = (role for stage in stages for role in _ROLES.get(stage, ()))
    for role in dict.fromkeys(roles):
        backend = getattr(cfg, f"{role}_backend")
        if missing_key(backend):
            click.echo(f"warning: {role}_backend sends no API key, as "
                       f"${backend.auth_env} is unset or empty", err=True)


def make_backend(config: BackendConfig, seed: int) -> Backend:
    """The backend ``config`` describes; a mock answers under ``seed``, the
    pipeline seed."""
    if config.kind == "mock":
        return MockBackend(seed=seed)
    return HttpBackend(config)


def _outdir(cfg: PipelineConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise ConfigError(f"missing input {path}; run the {producer!r} stage first")
    return path


# checkpoint path -> (sha256 of the bytes written, what they decode to), for
# the files of one output directory
_held: dict = {}


def _write(path: Path, text, values=None) -> None:
    """Replace ``path`` with the strings of ``text`` in UTF-8 through a temp
    file beside it, so a crash never leaves a truncated checkpoint that the
    next stage would accept. ``values``, when given, are what the file
    decodes to; :func:`_load` hands them out while it holds these bytes."""
    digest = hashlib.sha256()
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as f:
            for piece in text:
                data = piece.encode("utf-8")
                digest.update(data)
                f.write(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    if values is not None:
        if any(held.parent != path.parent for held in _held):
            _held.clear()
        _held[path] = (digest.digest(), list(values))


def _save(path: Path, rows, values=None) -> None:
    """Write ``rows`` as a JSON-lines checkpoint; ``values`` as in
    :func:`_write`."""
    _write(path, jsonl_lines(rows), values)


def _sha256(path: Path) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(1 << 16):
            digest.update(block)
    return digest.digest()


def _load(path: Path, decode, what: str) -> list:
    """``decode`` of each row of a checkpoint: the values this process wrote
    there if the file still holds the same bytes, else read from the file."""
    held = _held.get(path)
    if held is not None and held[0] == _sha256(path):
        return list(held[1])
    return read_jsonl(path, decode, what)


def _common_options(fn):
    fn = click.option("--config", type=click.Path(), default=None,
                      help="YAML config file.")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="Override the pipeline seed.")(fn)
    fn = click.option("--count", type=int, default=None,
                      help="Override the dialog count.")(fn)
    fn = click.option("--services", type=str, default=None,
                      help="Comma-separated service subset.")(fn)
    fn = click.option("--backend", type=click.Choice(["mock", "http"]),
                      default=None, help="Override all backend kinds.")(fn)
    fn = click.option("--out", type=click.Path(), default=None,
                      help="Override the output directory.")(fn)
    return fn


@click.group()
def main() -> None:
    """Schema-driven synthetic task-oriented dialog generation."""


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def stage_personas(cfg: PipelineConfig) -> list:
    out = _outdir(cfg)
    with closing(make_backend(cfg.user_backend, cfg.seed)) as llm:
        pool = generate_pool(cfg, llm)
    _save(out / "personas.jsonl", (p.to_dict() for p in pool), pool)
    return pool


def _personas(out: Path) -> list:
    return _load(
        _require(out / "personas.jsonl", "personas"), Persona.from_dict, "row")


def _contexts(out: Path) -> list:
    return _load(
        _require(out / "contexts.jsonl", "contexts"), _context_row, "row")


def stage_contexts(cfg: PipelineConfig) -> list:
    """Per dialog: assign a persona, sample a clock, generate app contexts."""
    out = _outdir(cfg)
    pool = _personas(out)
    schemas = cfg.schemas

    def context_row(i: int) -> tuple:
        assign_rng = derive_rng(cfg.seed, "assign", i)
        persona = pool[assign_rng.randrange(len(pool))]
        now = sample_current_time(
            derive_rng(cfg.seed, "clock", i), cfg.time_window
        )
        contexts = generate_contexts(
            persona, schemas, now, llm, cfg, derive_rng(cfg.seed, "ctx", i)
        )
        return f"dlg-{i:05d}", persona.id, contexts

    with closing(make_backend(cfg.user_backend, cfg.seed)) as llm:
        ctx_rows = run_dialogs(context_row, range(cfg.dialog_count),
                               cfg.max_concurrency)
    rows = [{"dialog_id": dialog_id, "persona_id": persona_id,
             "contexts": [c.to_dict() for c in contexts.values()]}
            for dialog_id, persona_id, contexts in ctx_rows]
    _save(out / "contexts.jsonl", rows, ctx_rows)
    return rows


def _context_row(row: dict) -> tuple:
    """(dialog id, persona id, contexts by service) of a contexts.jsonl row."""
    return row["dialog_id"], row["persona_id"], {
        c["service_name"]: AppContext.from_dict(c) for c in row["contexts"]}


def _plot_row(row: dict) -> tuple:
    """(dialog id, persona id, plot) of a plots.jsonl row."""
    return row["dialog_id"], row["persona_id"], Plot.from_dict(row["plot"])


def stage_plots(cfg: PipelineConfig) -> list:
    out = _outdir(cfg)
    ctx_rows = _contexts(out)
    schemas = cfg.schemas

    def plot_row(i: int) -> tuple:
        """(the plots.jsonl row, its _plot_row value)"""
        dialog_id, persona_id, contexts = ctx_rows[i]
        rng = derive_rng(cfg.seed, "dialog", i)
        spec = sample_specimen(
            rng, schemas, persona_id, contexts, llm, cfg, dialog_id=dialog_id,
        )
        plot = build_plot(spec, schemas, contexts, rng, llm, cfg)
        return {
            "dialog_id": dialog_id,
            "persona_id": persona_id,
            "specimen": spec.to_dict(),
            "plot": plot.to_dict(),
        }, (dialog_id, persona_id, plot)

    with closing(make_backend(cfg.user_backend, cfg.seed)) as llm:
        pairs = run_dialogs(plot_row, range(len(ctx_rows)),
                            cfg.max_concurrency)
    rows = [row for row, _ in pairs]
    _save(out / "plots.jsonl", rows, [value for _, value in pairs])
    return rows


def stage_realize(cfg: PipelineConfig) -> list:
    out = _outdir(cfg)
    pool = {p.id: p for p in _personas(out)}
    contexts_of = {
        dialog_id: contexts for dialog_id, _, contexts in _contexts(out)}
    plot_rows = _load(_require(out / "plots.jsonl", "plots"), _plot_row, "row")

    def datapoint(row: tuple) -> Datapoint:
        dialog_id, persona_id, plot = row
        persona = pool[persona_id]
        contexts = contexts_of[dialog_id]
        record = realize_dialog(
            plot, persona, contexts, user_llm, system_llm, cfg
        )
        return Datapoint(
            id=dialog_id,
            plot=plot,
            dialog=record,
            persona_id=persona.id,
            contexts=contexts,
        )

    with closing(make_backend(cfg.user_backend, cfg.seed)) as user_llm, \
            closing(make_backend(cfg.system_backend, cfg.seed)) as system_llm:
        dps = run_dialogs(datapoint, plot_rows, cfg.max_concurrency)
    _save(out / "dialogs.jsonl", (dp.to_dict() for dp in dps), dps)
    return dps


def _datapoints(path: Path) -> list:
    return _load(path, Datapoint.from_dict, "datapoint")


def stage_qc(cfg: PipelineConfig) -> list:
    out = _outdir(cfg)
    dialogs = _require(out / "dialogs.jsonl", "realize")
    dps = _datapoints(dialogs)
    with closing(make_backend(cfg.evaluator_backend, cfg.seed)) as llm:
        reports = qc_mod.run_qc(dps, llm, cfg)
    _save(out / "qc_report.jsonl", (r.to_dict() for r in reports))
    dropped = {r.datapoint_id for r in reports if r.disposition == "drop"}
    keep = (dp.id not in dropped for dp in dps)
    # _datapoints gave one datapoint per non-blank line, in order
    with open(dialogs, encoding="utf-8") as src:
        _write(out / "dataset.jsonl",
               (line for line in src if line.strip() and next(keep)),
               [dp for dp in dps if dp.id not in dropped])
    return reports


def _dataset_for_reporting(cfg: PipelineConfig) -> list:
    out = _outdir(cfg)
    path = out / "dataset.jsonl"
    if not path.exists():
        path = _require(out / "dialogs.jsonl", "realize")
    return _datapoints(path)


def stage_stats(cfg: PipelineConfig) -> dict:
    out = _outdir(cfg)
    stats = compute_stats(_dataset_for_reporting(cfg))
    _write(out / "stats.txt", [stats_to_text(stats)])
    for name in ("dialog_length_hist", "utterance_word_hist",
                 "service_coverage", "action_head_dist"):
        table = io.StringIO(newline="")
        writer = csv.writer(table)
        writer.writerow(["key", "count"])
        writer.writerows(stats[name].items())
        _write(out / f"stats_{name}.csv", [table.getvalue()])
    return stats


def stage_split(cfg: PipelineConfig) -> dataset_mod.SplitManifest:
    out = _outdir(cfg)
    dps = _dataset_for_reporting(cfg)
    manifest = split_corpus(
        dps, cfg.held_out_service, cfg.test_fraction, cfg.seed
    )
    _write(out / "split.json",
           [json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"])
    return manifest


_STAGES = {  # in run-all order
    "personas": stage_personas,
    "contexts": stage_contexts,
    "plots": stage_plots,
    "realize": stage_realize,
    "qc": stage_qc,
    "stats": stage_stats,
    "split": stage_split,
}


def _run_stage(name: str, cfg: PipelineConfig) -> None:
    try:
        _STAGES[name](cfg)
    except _STAGE_ERRORS as e:
        _fail(name, e)


def _make_command(stage_name: str, help_text: str):
    @main.command(name=stage_name, help=help_text)
    @_common_options
    def command(config, seed, count, services, backend, out):
        try:
            cfg = _build_config(config, seed, count, services, backend, out)
            _warn_missing_keys(cfg, [stage_name])
        except _STAGE_ERRORS as e:
            _fail(stage_name, e)
        _run_stage(stage_name, cfg)
        click.echo(f"{stage_name}: done; artifacts in {cfg.output_dir}")

    return command


_make_command("personas", "Generate the persona pool.")
_make_command("contexts", "Generate per-dialog app contexts.")
_make_command("plots", "Sample specimens and build action plots.")
_make_command("realize", "Realize plots into utterances.")
_make_command("qc", "Run quality control and write the filtered dataset.")
_make_command("stats", "Compute corpus statistics.")
_make_command("split", "Produce the train/test/zero-shot split manifest.")


@main.command(name="run-all", help="Run every stage in order.")
@_common_options
def run_all(config, seed, count, services, backend, out):
    try:
        cfg = _build_config(config, seed, count, services, backend, out)
        _warn_missing_keys(cfg, _STAGES)
    except _STAGE_ERRORS as e:
        _fail("run-all", e)
    for stage_name in _STAGES:
        _run_stage(stage_name, cfg)
        click.echo(f"{stage_name}: done")
    click.echo(f"pipeline complete; artifacts in {cfg.output_dir}")


if __name__ == "__main__":
    main()
