"""Command-line interface.

The paper's tool is driven from an UML editor; this CLI is the headless
equivalent — it consumes XMI files (the interchange artifact any EMF/UML
tool exports) and drives every stage of the flow:

::

    repro demo crane crane.xmi          # export a case-study model as XMI
    repro validate crane.xmi            # UML well-formedness report
    repro analyze crane.xmi --format sarif -o crane.sarif
    repro allocate crane.xmi            # task graph + linear clustering
    repro synthesize crane.xmi -o crane.mdl --summary
    repro codegen crane.xmi --backend java -o gen/
    repro explore crane.xmi --max-cpus 4 --objective throughput
    repro simulate crane.mdl --steps 10 --input In1=1,2,3
    repro serve --port 8321 --workers 2 --queue-depth 16

``repro serve`` runs the batch synthesis service of :mod:`repro.server`
(JSON over HTTP: ``POST /jobs``, ``GET /jobs/<id>``, ``GET
/jobs/<id>/artifact``, ``GET /healthz``, ``GET /metrics``) until SIGTERM
or Ctrl-C, then drains running jobs and journals queued specs — see
``docs/server.md``.

Caching (see ``docs/parallel.md``):

::

    repro --cache-dir .repro-cache synthesize crane.xmi -o crane.mdl
    repro --no-cache synthesize crane.xmi -o crane.mdl

``--cache-dir`` enables the content-addressed synthesis cache with an
on-disk store, so re-synthesizing an unchanged model is a cache hit;
``--no-cache`` forces caching off even when ``REPRO_CACHE`` /
``REPRO_CACHE_DIR`` is set.

Observability flags (global, before the subcommand):

::

    repro --trace-out t.json --metrics-out m.json synthesize crane.xmi -o c.mdl
    repro -v simulate crane.mdl --steps 100

``--trace-out`` writes a Chrome-trace / Perfetto ``trace_event`` JSON of
every recorded span; ``--metrics-out`` writes the metrics-registry
snapshot; ``-v``/``-vv`` turn on stdlib-logging INFO/DEBUG output, and
``--log-json`` switches those lines to structured JSON records carrying
``trace_id``/``span_id`` (and, on the server, ``job_id``) correlation
fields.  Every command runs with a live recorder, so rates the CLI
prints (simulate, explore) come from the same registry the files are
written from.

SLOs (see ``docs/observability.md``):

::

    repro serve --slo-config slo.json            # custom targets for /slo
    repro slo-report --url http://127.0.0.1:8321 # scrape + summarize /slo
    repro slo-report --metrics m.json            # offline, from a snapshot

``--slo-config`` (global or after ``serve``) declares availability and
latency targets; ``repro slo-report`` prints attainment, remaining error
budget, and burn rate per objective, exiting 1 when any target is in
breach.

Every command returns a non-zero exit status on failure, making the CLI
usable from build scripts.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import obs


class CliError(Exception):
    """Raised for user-facing CLI failures (bad input, bad arguments)."""


def _load_model(path: str):
    from .uml.xmi import read_xmi

    if not os.path.exists(path):
        raise CliError(f"no such file: {path}")
    return read_xmi(path)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_demo(args: argparse.Namespace) -> int:
    from .apps import crane, didactic, mjpeg, synthetic
    from .uml.xmi import write_xmi

    factories = {
        "didactic": didactic.build_model,
        "crane": crane.build_model,
        "synthetic": synthetic.build_model,
        "mjpeg": mjpeg.build_model,
    }
    try:
        model = factories[args.name]()
    except KeyError:
        raise CliError(
            f"unknown demo {args.name!r}; pick one of {sorted(factories)}"
        ) from None
    write_xmi(model, args.output)
    print(f"wrote {args.output} ({os.path.getsize(args.output)} bytes)")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .analysis import severity_rank
    from .uml.validate import validate_model

    model = _load_model(args.model)
    issues = validate_model(model, require_deployment=args.require_deployment)
    for issue in issues:
        print(issue)
    if not issues:
        print(f"model {model.name!r}: OK")
    floor = severity_rank(args.min_severity)
    failing = [i for i in issues if severity_rank(i.severity) >= floor]
    return 1 if failing else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from .analysis import analyze_synthesized, pass_names, to_sarif

    selected = None
    if args.passes:
        selected = [part.strip() for part in args.passes.split(",") if part.strip()]
        unknown = [name for name in selected if name not in pass_names()]
        if unknown:
            raise CliError(
                f"unknown analysis pass(es) {', '.join(map(repr, unknown))}; "
                f"registered: {', '.join(pass_names())}"
            )
    reports = []
    for path in args.models:
        model = _load_model(path)
        report = analyze_synthesized(
            model,
            subject=getattr(model, "name", path),
            passes=selected,
            suppress=args.suppress,
            require_deployment=args.require_deployment,
        )
        # SARIF physical locations point back at the analyzed artifact.
        report.info.setdefault("uri", path)
        reports.append(report)

    if args.format == "sarif":
        payload = json.dumps(to_sarif(reports), indent=2, sort_keys=True)
    elif args.format == "json":
        payload = json.dumps(
            {"reports": [report.to_json() for report in reports]},
            indent=2,
            sort_keys=True,
        )
    else:
        payload = "\n".join(report.render_text() for report in reports)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {args.output}")
        if args.format == "text":
            for report in reports:
                totals = report.counts()
                print(
                    f"{report.subject}: {totals['error']} error(s), "
                    f"{totals['warning']} warning(s), {totals['note']} note(s)"
                )
    else:
        print(payload)
    failing = sum(
        len(report.at_or_above(args.min_severity)) for report in reports
    )
    return 1 if failing else 0


def _cmd_allocate(args: argparse.Namespace) -> int:
    from .core.allocation import allocate_from_model
    from .core.taskgraph import task_graph_from_model

    model = _load_model(args.model)
    graph = task_graph_from_model(model)
    print(f"task graph: {len(graph.nodes)} threads, {len(graph.edges)} edges")
    for (src, dst), weight in sorted(graph.edges.items()):
        print(f"  {src} -> {dst}: {weight:g} bits/iteration")
    allocation = allocate_from_model(model)
    print(allocation.summary())
    print(
        "critical path: "
        + " -> ".join(allocation.clustering.critical_path)
    )
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from .core.flow import synthesize

    model = _load_model(args.model)
    result = synthesize(
        model,
        auto_allocate=args.auto_allocate,
        infer_channels=not args.no_channels,
        insert_barriers=not args.no_barriers,
        strict=args.strict,
        validate=not args.no_validate,
    )
    result.write_mdl(args.output)
    print(f"wrote {args.output} ({len(result.mdl_text)} bytes)")
    if args.intermediate:
        with open(args.intermediate, "w", encoding="utf-8") as handle:
            handle.write(result.intermediate_xml)
        print(f"wrote {args.intermediate}")
    if args.summary:
        print(result.summary)
        if result.barriers_inserted:
            print(f"temporal barriers inserted: {result.barriers_inserted}")
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_codegen(args: argparse.Namespace) -> int:
    from .backends import FsmBackend, JavaBackend, SimulinkBackend
    from .codegen import CodegenError
    from .core.flow import FlowError

    if args.backend == "sdf":
        return _cmd_codegen_sdf(args)
    languages = args.lang or ["c"]
    factories = {
        "simulink": lambda: [SimulinkBackend(auto_allocate=args.auto_allocate)],
        "java": lambda: [JavaBackend()],
        "fsm": lambda: [FsmBackend(language) for language in languages],
    }
    try:
        backends = factories[args.backend]()
    except KeyError:
        raise CliError(
            f"unknown backend {args.backend!r}; pick one of "
            f"{sorted(factories) + ['sdf']}"
        ) from None
    model = _load_model(args.model)
    artifacts: Dict[str, str] = {}
    try:
        for backend in backends:
            artifacts.update(backend.generate(model))
    except (FlowError, CodegenError) as exc:
        raise CliError(f"codegen failed: {exc}") from exc
    os.makedirs(args.output, exist_ok=True)
    for filename, content in artifacts.items():
        path = os.path.join(args.output, filename)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
        print(f"wrote {path} ({len(content)} bytes)")
    return 0


def _cmd_codegen_sdf(args: argparse.Namespace) -> int:
    """The static-schedule backend: scheduled sources plus manifest."""
    from .codegen import CodegenError, generate
    from .core.flow import FlowError, synthesize

    languages = tuple(args.lang) if args.lang else ("c",)
    model = _load_model(args.model)
    try:
        result = synthesize(model, auto_allocate=args.auto_allocate)
        generated = generate(
            result.caam,
            languages=languages,
            uml_trace=result.mapping.context.trace,
        )
    except (FlowError, CodegenError) as exc:
        raise CliError(f"codegen failed: {exc}") from exc
    os.makedirs(args.output, exist_ok=True)
    for language in languages:
        for filename, content in generated.artifacts[language].items():
            path = os.path.join(args.output, filename)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content)
            print(f"wrote {path} ({len(content)} bytes)")
    manifest_path = args.trace_manifest or os.path.join(
        args.output, "trace_manifest.json"
    )
    with open(manifest_path, "w", encoding="utf-8") as handle:
        handle.write(generated.manifest_text)
    print(f"wrote {manifest_path} ({len(generated.manifest_text)} bytes)")
    stats = generated.schedule.stats()
    print(
        f"schedule: {stats['pes']} PE(s), {stats['blocks']} block(s), "
        f"{stats['buffers']} buffer(s), firing order "
        + " -> ".join(generated.schedule.firing_order)
    )
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    from .dse.partition import partition_thread
    from .uml.xmi import write_xmi

    model = _load_model(args.model)
    partitioned = partition_thread(
        model, args.thread, args.count, interaction_name=args.interaction
    )
    write_xmi(partitioned, args.output)
    threads = [
        i.name
        for i in partitioned.all_instances()
        if i.has_stereotype("SASchedRes") and i.name.startswith(args.thread + "_p")
    ]
    print(f"wrote {args.output}: {args.thread} split into {threads}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from .uml.plantuml import model_to_plantuml

    model = _load_model(args.model)
    artifacts = model_to_plantuml(model)
    if not artifacts:
        print("model has no diagrams to render", file=sys.stderr)
        return 1
    os.makedirs(args.output, exist_ok=True)
    for filename, content in artifacts.items():
        path = os.path.join(args.output, filename)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
        print(f"wrote {path}")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from .core.taskgraph import task_graph_from_model
    from .dse.explore import ExplorationError, explore, pareto_front

    model = _load_model(args.model)
    graph = task_graph_from_model(model)
    try:
        candidates = explore(
            graph,
            max_cpus=args.max_cpus,
            objective=args.objective,
        )
    except ExplorationError as exc:
        raise CliError(f"explore failed: {exc}") from exc
    # Report cost through the metrics layer so this line and a
    # --metrics-out file can never disagree.
    metrics = obs.get().metrics
    evaluate = metrics.timer_stat("dse.evaluate")
    cost = ""
    if evaluate is not None and evaluate.count:
        cost = (
            f" in {evaluate.total * 1e3:.1f} ms"
            f" ({evaluate.mean * 1e6:.0f} us/candidate)"
        )
    print(f"evaluated {len(candidates)} candidate allocation(s){cost}")
    print(f"Pareto front ({args.objective} vs CPU count):")
    for candidate in pareto_front(candidates, objective=args.objective):
        print(f"  {candidate}")
    return 0


def _stimulus_pair(text: str) -> Tuple[str, List[float]]:
    """argparse type for ``--input NAME=v1,v2,...``.

    Raising ``ArgumentTypeError`` here makes malformed stimulus a
    one-line argparse error (``repro simulate: error: argument --input:
    ...``) instead of a traceback.
    """
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"bad stimulus {text!r}; expected NAME=v1,v2,..."
        )
    name, _, values = text.partition("=")
    try:
        samples = [float(v) for v in values.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad sample values in {text!r}; expected NAME=v1,v2,..."
        ) from None
    return name, samples


def _parse_stimulus(
    pairs: Sequence[Tuple[str, List[float]]]
) -> Dict[str, List[float]]:
    stimulus: Dict[str, List[float]] = {}
    for name, samples in pairs:
        stimulus[name] = samples
    return stimulus


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simulink.mdl import read_mdl
    from .simulink.simulator import AlgebraicLoopError, Simulator

    if not os.path.exists(args.model):
        raise CliError(f"no such file: {args.model}")
    model = read_mdl(args.model)
    try:
        simulator = Simulator(
            model, monitor=args.monitor or [], engine=args.engine
        )
    except AlgebraicLoopError as exc:
        print(f"deadlock: {exc}", file=sys.stderr)
        return 1
    trace = simulator.run(args.steps, inputs=_parse_stimulus(args.input))
    # Elapsed time and rate come from the metrics layer (the same values
    # --metrics-out writes), not from an ad-hoc clock around the call.
    metrics = obs.get().metrics
    run_stat = metrics.timer_stat("simulink.run")
    rate = metrics.gauge_value("simulink.sim.steps_per_sec")
    if run_stat is not None and rate is not None:
        print(
            f"simulated {args.steps} step(s) in {run_stat.total * 1e3:.1f} ms"
            f" ({rate:.0f} steps/s)"
        )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(trace.to_csv())
        print(f"wrote {args.csv}")
        return 0
    for name, samples in trace.outputs.items():
        print(f"{name}: {', '.join(f'{s:g}' for s in samples)}")
    for path, samples in trace.signals.items():
        print(f"{path}: {', '.join(f'{s:g}' for s in samples)}")
    if not trace.outputs and not trace.signals:
        print("(model has no root-level output ports; use --monitor)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the batch synthesis service until SIGTERM/Ctrl-C, then drain."""
    import signal
    import threading

    from .server import JobManager, RetryPolicy, make_server, serve_until

    manager = JobManager(
        workers=args.workers,
        queue_depth=args.queue_depth,
        job_timeout_s=args.job_timeout,
        retry=RetryPolicy(max_retries=args.max_retries),
        journal_path=args.journal,
        # --slo-config (global or post-subcommand) was resolved into an
        # engine on the ambient recorder by main(); default targets
        # otherwise (JobManager falls back internally on None).
        slo=getattr(obs.get(), "slo_engine", None),
    ).start()
    try:
        server = make_server(manager, host=args.host, port=args.port)
    except OSError as exc:
        manager.shutdown(drain=False)
        raise CliError(f"cannot bind {args.host}:{args.port}: {exc}") from exc
    host, port = server.server_address[:2]
    print(f"repro server listening on http://{host}:{port}", flush=True)
    print(
        f"  workers={args.workers} queue_depth={args.queue_depth} "
        f"job_timeout={args.job_timeout:g}s max_retries={args.max_retries}",
        flush=True,
    )

    stop = threading.Event()

    def _on_sigterm(signum: int, frame: object) -> None:
        stop.set()

    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        pass  # not the main thread (embedded use); rely on Ctrl-C/stop
    interrupted = False
    try:
        serve_until(manager, server, stop)
    except KeyboardInterrupt:
        interrupted = True  # serve_until already closed the listener
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        stats = manager.shutdown(drain=True, timeout=args.drain_timeout)
        print(
            f"drained: {stats['drained']} running job(s) finished, "
            f"{stats['journaled']} queued spec(s) journaled",
            flush=True,
        )
    if interrupted:
        raise KeyboardInterrupt  # main() maps this to exit status 130
    return 0


def _scrape_slo(base_url: str) -> dict:
    """Fetch ``<base>/slo`` from a running server (stdlib urllib only)."""
    import json
    from urllib.error import HTTPError, URLError
    from urllib.request import urlopen

    url = base_url.rstrip("/") + "/slo"
    try:
        with urlopen(url, timeout=10.0) as response:
            return json.load(response)
    except HTTPError as exc:
        # A breached SLO answers 503 *with* the report document — that
        # is still a successful scrape, not a transport failure.
        try:
            return json.load(exc)
        except ValueError:
            raise CliError(f"cannot scrape {url}: HTTP {exc.code}") from exc
    except (URLError, OSError, ValueError) as exc:
        raise CliError(f"cannot scrape {url}: {exc}") from exc


def _cmd_slo_report(args: argparse.Namespace) -> int:
    """Summarize SLO attainment from a live server or a metrics file."""
    import json

    from .obs.slo import SloEngine, default_server_targets

    if bool(args.metrics) == bool(args.url):
        raise CliError(
            "pick exactly one source: --metrics FILE.json or --url BASE"
        )
    if args.url:
        document = _scrape_slo(args.url)
    else:
        if not os.path.exists(args.metrics):
            raise CliError(f"no such file: {args.metrics}")
        with open(args.metrics, "r", encoding="utf-8") as handle:
            try:
                raw = json.load(handle)
            except ValueError as exc:
                raise CliError(f"invalid JSON in {args.metrics}: {exc}") from exc
        # Accept both shapes --metrics-out produces: a bare registry
        # snapshot, or the {"census", "metrics"} report document.
        snapshot = raw.get("metrics") if isinstance(raw.get("metrics"), dict) else raw
        if not isinstance(snapshot, dict):
            raise CliError(f"{args.metrics} is not a metrics snapshot")
        slo_config = getattr(args, "slo_config", None)
        try:
            engine = (
                SloEngine.from_config(slo_config)
                if slo_config
                else SloEngine(default_server_targets())
            )
        except (OSError, ValueError) as exc:
            raise CliError(f"bad SLO config: {exc}") from exc
        document = engine.evaluate_snapshot(snapshot)
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        print(
            f"SLO report (window {document.get('window_s', 0):g}s): "
            f"overall risk {document.get('risk', '?')}"
        )
        for record in document.get("records", []):
            objective = f"{record['target']}.{record['objective']}"
            print(
                f"  {objective:<28} observed {record['observed']:>9.4g} "
                f"target {record['target_value']:>7.4g}  "
                f"attain {record['attainment_pct']:6.2f}%  "
                f"budget {record['budget_remaining_pct']:6.2f}%  "
                f"burn {record['burn_rate']:6.3f}  "
                f"{record['risk']}"
            )
    return 1 if document.get("risk") == "breach" else 0


def _zoo_families(spec: Optional[str]) -> Tuple[str, ...]:
    """Parse a ``--families a,b,c`` list against the known family names."""
    from .zoo import FAMILIES

    if not spec:
        return tuple(FAMILIES)
    families = tuple(part.strip() for part in spec.split(",") if part.strip())
    unknown = [family for family in families if family not in FAMILIES]
    if unknown:
        raise CliError(
            f"unknown scenario families {unknown}; "
            f"known: {', '.join(FAMILIES)}"
        )
    return families


def _cmd_zoo_generate(args: argparse.Namespace) -> int:
    """Generate a corpus manifest (and optionally the XMI model files)."""
    from .uml.xmi import write_xmi
    from .zoo import build_manifest, generate_corpus, render_manifest, write_manifest

    families = _zoo_families(args.families)
    document = build_manifest(args.seed, args.count, families)
    if args.manifest:
        write_manifest(args.manifest, document)
        print(
            f"wrote {args.manifest} ({args.count} scenarios, "
            f"digest {document['corpus_digest'][:16]})"
        )
    else:
        print(render_manifest(document), end="")
    if args.xmi_dir:
        os.makedirs(args.xmi_dir, exist_ok=True)
        for scenario in generate_corpus(args.seed, args.count, families):
            write_xmi(
                scenario.model,
                os.path.join(args.xmi_dir, f"{scenario.name}.xmi"),
            )
        print(f"wrote {args.count} XMI models to {args.xmi_dir}")
    return 0


def _cmd_zoo_run(args: argparse.Namespace) -> int:
    """Run the full-flow differential harness over a fixed-seed corpus."""
    from .zoo import read_manifest, run_corpus, verify_manifest

    families = _zoo_families(args.families)
    if args.verify:
        problems = verify_manifest(read_manifest(args.verify))
        if problems:
            for problem in problems:
                print(f"manifest: {problem}", file=sys.stderr)
            return 1
        print(f"manifest {args.verify}: corpus reproduces byte-identically")

    def progress(done: int, total: int, report) -> None:
        if args.progress and (done % 50 == 0 or done == total):
            print(f"  {done}/{total} checked", file=sys.stderr)

    report = run_corpus(
        args.seed,
        args.count,
        families,
        deep=args.deep,
        progress=progress,
    )
    print(report.summary())
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Assemble the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "UML front-end for heterogeneous embedded-software code "
            "generation (DATE 2008 reproduction)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE.json",
        help="write a Chrome-trace/Perfetto span trace of this run",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE.json",
        help="write the metrics-registry snapshot (counters/gauges/timers)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log INFO (-v) or DEBUG (-vv) detail to stderr",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help=(
            "emit log records as JSON lines with trace_id/span_id "
            "correlation fields (see docs/observability.md)"
        ),
    )
    parser.add_argument(
        "--slo-config",
        metavar="FILE.json",
        help=(
            "declare SLO targets (availability, latency percentiles) "
            "for repro serve; evaluated by /slo and into slo.* gauges"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=(
            "enable the content-addressed synthesis cache with an on-disk "
            "store in DIR (see docs/parallel.md)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the synthesis cache (overrides REPRO_CACHE[_DIR])",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="export a case-study model as XMI")
    p.add_argument("name", help="didactic | crane | synthetic | mjpeg")
    p.add_argument("output", help="XMI file to write")
    p.set_defaults(handler=_cmd_demo)

    p = sub.add_parser("validate", help="check UML well-formedness")
    p.add_argument("model", help="XMI input file")
    p.add_argument(
        "--require-deployment",
        action="store_true",
        help="also require every thread to be deployed",
    )
    p.add_argument(
        "--min-severity",
        choices=("note", "warning", "error"),
        default="error",
        help="exit 1 when any issue at/above this severity is found",
    )
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser(
        "analyze",
        help="multi-pass static analysis (see docs/analysis.md)",
    )
    p.add_argument("models", nargs="+", help="XMI input file(s)")
    p.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    p.add_argument(
        "-o",
        "--output",
        help="write the report here instead of stdout",
    )
    p.add_argument(
        "--min-severity",
        choices=("note", "warning", "error"),
        default="error",
        help="exit 1 when any finding at/above this severity remains",
    )
    p.add_argument(
        "--suppress",
        action="append",
        default=[],
        metavar="CODE",
        help="suppress a code (RA203), family (RA2xx) or prefix (RA2*); repeatable",
    )
    p.add_argument(
        "--passes",
        metavar="A,B,...",
        help="run only these passes (default: all registered, in order)",
    )
    p.add_argument(
        "--require-deployment",
        action="store_true",
        help="also require every thread to be deployed (RA106)",
    )
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("allocate", help="task graph + linear clustering")
    p.add_argument("model", help="XMI input file")
    p.set_defaults(handler=_cmd_allocate)

    p = sub.add_parser("synthesize", help="UML -> Simulink CAAM (.mdl)")
    p.add_argument("model", help="XMI input file")
    p.add_argument("-o", "--output", required=True, help=".mdl output file")
    p.add_argument(
        "--intermediate", help="also write the step-2 E-core XML here"
    )
    p.add_argument(
        "--auto-allocate",
        action="store_true",
        help="ignore the deployment diagram; cluster automatically (§4.2.3)",
    )
    p.add_argument(
        "--no-channels", action="store_true", help="skip §4.2.1 inference"
    )
    p.add_argument(
        "--no-barriers", action="store_true", help="skip §4.2.2 barriers"
    )
    p.add_argument(
        "--no-validate", action="store_true", help="skip UML validation"
    )
    p.add_argument(
        "--strict", action="store_true", help="treat inference warnings as errors"
    )
    p.add_argument(
        "--summary", action="store_true", help="print the CAAM census"
    )
    p.set_defaults(handler=_cmd_synthesize)

    p = sub.add_parser("codegen", help="run a code-generation back-end")
    p.add_argument("model", help="XMI input file")
    p.add_argument(
        "--backend",
        required=True,
        help="simulink | java (multithreaded) | fsm | sdf (static schedule)",
    )
    p.add_argument(
        "--lang",
        action="append",
        choices=("c", "java"),
        help="fsm and sdf back-ends: target language; repeat for both "
        "(default: c)",
    )
    p.add_argument(
        "--auto-allocate",
        action="store_true",
        help="simulink and sdf back-ends: ignore the deployment diagram "
        "and cluster threads onto CPUs automatically (§4.2.3)",
    )
    p.add_argument(
        "-o",
        "--output",
        "--out-dir",
        dest="output",
        required=True,
        help="output directory",
    )
    p.add_argument(
        "--trace-manifest",
        help="sdf back-end: write the digital-thread manifest here "
        "(default: <out-dir>/trace_manifest.json)",
    )
    p.set_defaults(handler=_cmd_codegen)

    p = sub.add_parser(
        "render", help="export the model's diagrams as PlantUML"
    )
    p.add_argument("model", help="XMI input file")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(handler=_cmd_render)

    p = sub.add_parser("explore", help="design-space exploration")
    p.add_argument("model", help="XMI input file")
    p.add_argument("--max-cpus", type=int, help="CPU budget")
    p.add_argument(
        "--objective",
        default="latency",
        choices=("latency", "throughput"),
        help="optimize one-iteration latency or pipeline throughput",
    )
    p.set_defaults(handler=_cmd_explore)

    p = sub.add_parser("simulate", help="execute a .mdl model")
    p.add_argument("model", help=".mdl input file")
    p.add_argument("--steps", type=int, default=10, help="steps to run")
    p.add_argument(
        "--input",
        action="append",
        default=[],
        type=_stimulus_pair,
        metavar="NAME=v1,v2,...",
        help="stimulus for a root Inport (repeatable)",
    )
    p.add_argument(
        "--monitor",
        action="append",
        default=[],
        metavar="BLOCK/PATH",
        help="trace a block's first output (repeatable)",
    )
    p.add_argument("--csv", help="write the traces to a CSV file")
    p.add_argument(
        "--engine",
        choices=("slots", "batch", "reference"),
        default=None,
        help=(
            "execution engine: compiled slot kernels (default), the "
            "NumPy-vectorized batch engine (requires numpy), or the "
            "reference interpreter (default: $REPRO_SIM_ENGINE, else slots)"
        ),
    )
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "serve",
        help="run the batch synthesis HTTP service (see docs/server.md)",
    )
    p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    p.add_argument(
        "--port", type=int, default=8321, help="TCP port (0 = ephemeral)"
    )
    p.add_argument(
        "--workers", type=int, default=2, help="job worker threads"
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="admission queue bound; a full queue rejects with HTTP 429",
    )
    p.add_argument(
        "--job-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-job wall-clock budget before the job is timed out",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries for transiently failed jobs (exponential backoff)",
    )
    p.add_argument(
        "--journal",
        metavar="FILE.json",
        help=(
            "journal file: queued-but-unstarted specs are persisted here "
            "on shutdown and replayed on the next start"
        ),
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long shutdown waits for running jobs to finish",
    )
    p.add_argument(
        "--cache-dir",
        default=argparse.SUPPRESS,
        metavar="DIR",
        help="same as the global --cache-dir, accepted after the subcommand",
    )
    p.add_argument(
        "--slo-config",
        default=argparse.SUPPRESS,
        metavar="FILE.json",
        help="same as the global --slo-config, accepted after the subcommand",
    )
    p.set_defaults(handler=_cmd_serve)

    p = sub.add_parser(
        "slo-report",
        help="SLO attainment/burn summary from /slo or a metrics file",
    )
    p.add_argument(
        "--url",
        metavar="BASE",
        help="scrape BASE/slo from a running server (e.g. http://127.0.0.1:8321)",
    )
    p.add_argument(
        "--metrics",
        metavar="FILE.json",
        help="evaluate offline against a --metrics-out snapshot",
    )
    p.add_argument(
        "--slo-config",
        default=argparse.SUPPRESS,
        metavar="FILE.json",
        help="targets for offline evaluation (default: the server targets)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the full report document instead of the summary table",
    )
    p.set_defaults(handler=_cmd_slo_report)

    p = sub.add_parser(
        "zoo",
        help="generated model zoo: corpora and differential harness",
    )
    zoo_sub = p.add_subparsers(dest="zoo_command", required=True)

    def _zoo_common(zp: argparse.ArgumentParser) -> None:
        zp.add_argument(
            "--seed", type=int, default=42, help="corpus seed (default 42)"
        )
        zp.add_argument(
            "--count",
            type=int,
            default=60,
            help="number of scenarios (default 60)",
        )
        zp.add_argument(
            "--families",
            metavar="A,B,...",
            help="restrict to these scenario families (default: all)",
        )

    zp = zoo_sub.add_parser(
        "generate", help="write a reproducible corpus manifest (and XMI)"
    )
    _zoo_common(zp)
    zp.add_argument(
        "--manifest",
        metavar="FILE.json",
        help="manifest output path (default: print to stdout)",
    )
    zp.add_argument(
        "--xmi-dir",
        metavar="DIR",
        help="also export every scenario model as DIR/<name>.xmi",
    )
    zp.set_defaults(handler=_cmd_zoo_generate)

    zp = zoo_sub.add_parser(
        "run", help="full-flow differential harness over the corpus"
    )
    _zoo_common(zp)
    zp.add_argument(
        "--deep",
        action="store_true",
        help="add rebuild-determinism, barrier-necessity and codegen checks",
    )
    zp.add_argument(
        "--verify",
        metavar="FILE.json",
        help="first check a saved manifest reproduces byte-identically",
    )
    zp.add_argument(
        "--progress",
        action="store_true",
        help="print a progress line every 50 scenarios (stderr)",
    )
    zp.set_defaults(handler=_cmd_zoo_run)

    p = sub.add_parser(
        "partition", help="split a thread into pipeline threads (future work)"
    )
    p.add_argument("model", help="XMI input file")
    p.add_argument("thread", help="thread to split")
    p.add_argument("count", type=int, help="number of pipeline threads")
    p.add_argument("-o", "--output", required=True, help="XMI output file")
    p.add_argument(
        "--interaction", help="diagram to partition (when ambiguous)"
    )
    p.set_defaults(handler=_cmd_partition)

    return parser


def _write_observability(recorder: "obs.Recorder", args: argparse.Namespace) -> int:
    """Persist the run's trace/metrics files when requested; 0 on success."""
    status = 0
    try:
        if args.trace_out:
            obs.write_chrome_trace(recorder.spans, args.trace_out)
            print(
                f"wrote {args.trace_out} "
                f"({len(recorder.finished_spans())} spans)"
            )
        if args.metrics_out:
            recorder.metrics.write(args.metrics_out)
            print(
                f"wrote {args.metrics_out} ({len(recorder.metrics)} metrics)"
            )
    except OSError as exc:
        print(f"error: cannot write observability output: {exc}", file=sys.stderr)
        status = 1
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status.

    Every invocation runs with a live observability recorder (the
    per-process overhead is negligible at CLI granularity); ``--trace-out``
    and ``--metrics-out`` persist what it captured.
    """
    from .parallel import cache as parallel_cache

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its one-line error (or help text);
        # return instead of exiting so embedding callers keep control.
        return int(exc.code or 0)
    obs.configure_logging(
        args.verbose, fmt="json" if args.log_json else "text"
    )
    # Cache configuration is scoped to this invocation (snapshot/restore),
    # so embedding callers — and the test suite — never inherit it.
    cache_state = parallel_cache.snapshot()
    if args.no_cache:
        parallel_cache.configure(enabled=False)
    elif args.cache_dir:
        parallel_cache.configure(enabled=True, directory=args.cache_dir)
    # Spans are kept only when --trace-out will export them, so a long
    # `repro serve` without it holds constant memory.
    recorder = obs.Recorder(keep_spans=bool(args.trace_out))
    if getattr(args, "slo_config", None) and args.command != "slo-report":
        from .obs.slo import SloEngine

        try:
            engine = SloEngine.from_config(args.slo_config)
        except (OSError, ValueError) as exc:
            print(f"error: bad SLO config: {exc}", file=sys.stderr)
            return 2
        engine.attach(recorder.metrics)
        recorder.slo_engine = engine
    try:
        with obs.use(recorder):
            try:
                with recorder.span("cli." + args.command, category="cli"):
                    status = args.handler(args)
            except CliError as exc:
                print(f"error: {exc}", file=sys.stderr)
                status = 2
            except KeyboardInterrupt:
                # Ctrl-C is a clean stop, not a crash: no traceback, and
                # the conventional 128+SIGINT exit status.
                print("interrupted", file=sys.stderr)
                status = 130
            except Exception as exc:  # surface library errors cleanly
                print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
                status = 1
    finally:
        parallel_cache.restore(cache_state)
    write_status = _write_observability(recorder, args)
    return status or write_status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
