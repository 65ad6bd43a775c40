"""Traced pass: time each module's public stage functions from outside.

The pass walks the same scenarios as the workload's job and calls every stage
itself, one span per call, so spans never nest and a stage's self time is its
span's duration.  ``links`` is a separate pass over every link's observables;
in the job those evaluations happen inside ``channel_fim`` and ``transform``,
so it is reported but not added to the per-EFIM total.  The CLI layer is
timed by calling ``load_config`` on the workload's configuration and
``write_records`` on one record per traced EFIM, in the configuration's format.

The per-EFIM total sums the stages on the job's path: scenario, channel_fim,
transform (upsilon + project), location_fim (schur) and analysis (verdict,
plus crlb where the job reports bounds).  ``location_fim.lemma_ms`` times the
other route on the same scenario; it is the gate's oracle, not part of the
total.  Stage times are per EFIM; ``cli.*_ms`` are per pass (one load, one
write of all the pass's records).
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np

from leofim import (
    Case,
    CrlbReport,
    NotIdentifiableError,
    assemble_channel_fim,
    build_transformation_matrix,
    cli,
    crlb,
    efim_lemma_route,
    efim_schur_route,
    is_identifiable,
    random_scenario,
    transform_fim,
)
from leofim.links import bs_rx_observables, leo_bs_observables, leo_rx_observables

LAYER_OF_STAGE = {
    "scenario": "scenario",
    "links": "links",
    "channel_fim": "channel_fim",
    "upsilon": "transform",
    "project": "transform",
    "schur": "location_fim",
    "lemma": "location_fim",
    "verdict": "analysis",
    "crlb": "analysis",
    "config": "cli",
    "write": "cli",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF_STAGE.values()))


class Tracer:
    """In-memory spans ``(stage, start, end)`` and per-layer error counts."""

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        self.errors: Counter = Counter()

    @contextlib.contextmanager
    def span(self, stage: str):
        start = time.perf_counter()
        try:
            yield
        except Exception:
            self.errors[LAYER_OF_STAGE[stage]] += 1
            raise
        finally:
            self.spans.append((stage, start, time.perf_counter()))

    def total_ms(self, stage: str) -> float:
        return 1e3 * sum(end - start for s, start, end in self.spans if s == stage)


def _record(config, seed: int, verdict, report) -> dict:
    """One output row in the CLI's columns, as the ``bound`` command writes per trial."""
    row = {"command": "bound", "seed": seed, "case": config.case.value}
    for column in cli.COLUMNS:
        if column not in row:
            source = next((o for o in (verdict, report, config) if hasattr(o, column)), None)
            row[column] = getattr(source, column, None)
    return row


def _link_pass(scenario) -> int:
    """Evaluate every link's observables once; return the physical link count."""
    for b in range(scenario.n_leo):
        leo_rx_observables(scenario, b)
    for q in range(scenario.n_bs):
        bs_rx_observables(scenario, q)
    count = scenario.n_leo + scenario.n_bs
    if scenario.case is Case.WITH_BS:
        for b in range(scenario.n_leo):
            leo_bs_observables(scenario, b)
        count += scenario.n_leo * scenario.n_bs
    return count


def traced_pass(trials, config_path: Path, out_path: Path) -> dict:
    """One traced walk over ``trials`` (config, seed), then the CLI's config
    load and record write."""
    tracer = Tracer()
    problems: list[str] = []
    links, dims, flops, gaps, records = [], [], [], [], []
    for i, (config, seed) in enumerate(trials):
        try:
            with tracer.span("scenario"):
                scenario = random_scenario(config, seed)
            with tracer.span("links"):
                n_links = _link_pass(scenario)
            with tracer.span("channel_fim"):
                j_eta, glob = assemble_channel_fim(scenario)
            with tracer.span("upsilon"):
                upsilon = build_transformation_matrix(scenario, glob=glob)
            with tracer.span("project"):
                j_kappa = transform_fim(j_eta, upsilon)
            n, d = glob.dim, upsilon.matrix.shape[0]
            del j_eta
            with tracer.span("schur"):
                efim = efim_schur_route(j_kappa, upsilon.location_layout, scenario.case)
            del j_kappa, upsilon
            with tracer.span("lemma"):
                lemma = efim_lemma_route(scenario)
            with tracer.span("verdict"):
                verdict = is_identifiable(efim)
            report = CrlbReport.infinite(config.n_leo)
            with tracer.span("crlb"), contextlib.suppress(NotIdentifiableError):
                report = crlb(efim)
        except Exception as exc:  # counted per layer by the span; keep tracing
            problems.append(f"efim {i}: {exc!r}")
            continue
        links.append(n_links)
        dims.append(n)
        flops.append(2.0 * d * n * n + 2.0 * d * d * n)
        gaps.append(
            float(np.linalg.norm(efim.matrix - lemma.matrix) / np.linalg.norm(efim.matrix))
        )
        records.append(_record(config, seed, verdict, report))

    try:
        with tracer.span("config"):
            run_config = cli.load_config(str(config_path))
        with tracer.span("write"):
            cli.write_records(records, str(out_path), run_config.format)
    except Exception as exc:  # counted as a CLI-layer error by the span
        problems.append(f"cli: {exc!r}")

    done = max(len(gaps), 1)
    return {
        "stage_ms": {s: tracer.total_ms(s) / done for s in LAYER_OF_STAGE if s not in ("config", "write")},
        "config_ms": tracer.total_ms("config"),
        "write_ms": tracer.total_ms("write"),
        "links": float(np.mean(links)) if links else 0.0,
        "dim": float(np.mean(dims)) if dims else 0.0,
        "mb": float(np.mean([8.0 * n * n / 1e6 for n in dims])) if dims else 0.0,
        "gflop": float(np.mean(flops)) / 1e9 if flops else 0.0,
        "route_gap": max(gaps) if gaps else float("inf"),
        "errors": {layer: tracer.errors[layer] for layer in LAYERS},
        "problems": problems,
    }


def pass_metrics(result: dict, job_ms_per_efim: float, n_efims: int, bounds_on_path: bool) -> dict:
    """Per-layer metrics of one traced pass (see module docstring)."""
    ms = result["stage_ms"]
    analysis_ms = ms["verdict"] + (ms["crlb"] if bounds_on_path else 0.0)
    transform_ms = ms["upsilon"] + ms["project"]
    total = ms["scenario"] + ms["channel_fim"] + transform_ms + ms["schur"] + analysis_ms
    cli_ms = (result["config_ms"] + result["write_ms"]) / n_efims
    metrics = {
        "scenario.ms": ms["scenario"],
        "scenario.share": ms["scenario"] / total,
        "links.ms": ms["links"],
        "links.count": result["links"],
        "links.share": ms["links"] / total,
        "channel_fim.ms": ms["channel_fim"],
        "channel_fim.dim": result["dim"],
        "channel_fim.mb": result["mb"],
        "channel_fim.share": ms["channel_fim"] / total,
        "transform.upsilon_ms": ms["upsilon"],
        "transform.project_ms": ms["project"],
        "transform.project_gflop": result["gflop"],
        "transform.self_ms": transform_ms,
        "transform.share": transform_ms / total,
        "location_fim.schur_ms": ms["schur"],
        "location_fim.lemma_ms": ms["lemma"],
        "location_fim.route_gap": result["route_gap"],
        "location_fim.share": ms["schur"] / total,
        "analysis.verdict_ms": ms["verdict"],
        "analysis.crlb_ms": ms["crlb"],
        "analysis.self_ms": analysis_ms,
        "analysis.share": analysis_ms / total,
        "cli.config_ms": result["config_ms"],
        "cli.write_ms": result["write_ms"],
        "cli.share": cli_ms / total,
        "trace.efim_ms": total,
        "trace.overhead": total / job_ms_per_efim,
    }
    metrics.update({f"{layer}.errors": float(n) for layer, n in result["errors"].items()})
    return metrics


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def unit_of(metric: str) -> str:
    if metric.endswith("_ms") or metric.endswith(".ms"):
        return "ms"
    if metric.endswith((".errors", ".count", ".dim")):
        return "count"
    if metric.endswith(".mb"):
        return "MB"
    if metric.endswith("_gflop"):
        return "GFLOP"
    return "ratio"
