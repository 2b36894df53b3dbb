"""Command-line interface.

Usage::

    python -m repro map SOURCE.loop --machine dunnington [--schedule]
    python -m repro simulate SOURCE.loop --machine dunnington --scheme ta
    python -m repro machines
    python -m repro workloads [list|show NAME|table] [--suite irregular]
    python -m repro experiments --quick --jobs 4
    python -m repro cache info
    python -m repro serve --port 8321 --workers 4
    python -m repro submit SOURCE.loop --machine dunnington
    python -m repro remap SOURCE.loop --event '{"kind": "core_loss", "cores": [2]}'
    python -m repro service-stats

``map`` compiles an affine loop program, runs the topology-aware mapper
against the chosen machine and prints the assignment/schedule report;
``simulate`` additionally runs the simulator and compares against Base.
Machines are simulation-scaled with ``--scale`` (default 32; use 1 for
the unscaled Table 1 capacities).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from repro import obs
from repro.errors import ReproError, UnknownMachineError, UnknownWorkloadError
from repro.blocks.tags import render
from repro.lang import compile_source
from repro.mapping import TopologyAwareMapper, base_plan, base_plus_plan, local_plan
from repro.runtime import execute_plan
from repro.topology.machines import _REGISTRY, machine_by_name
from repro.topology.resolve import resolve_machine
from repro.util.tables import format_table


@contextmanager
def _tracing_to(out_path: str | None, tree: bool):
    """Install trace sinks for one CLI run (no-op without any sink)."""
    from repro.obs.sinks import JsonlSink, TreeSink

    sinks = []
    if out_path:
        sinks.append(JsonlSink(out_path))
    if tree:
        sinks.append(TreeSink(sys.stderr))
    if not sinks:
        yield
        return
    with obs.tracing(*sinks):
        yield


def _load_program(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    name = path.rsplit("/", 1)[-1].split(".")[0]
    return compile_source(source, name=name)


def _machine(args):
    if getattr(args, "topology", None):
        from repro.topology.parser import parse_topology

        with open(args.topology, "r", encoding="utf-8") as handle:
            machine = parse_topology(handle.read())
    else:
        machine = resolve_machine(args.machine, getattr(args, "smt", None))
    if args.scale != 1:
        machine = machine.with_scaled_caches(1.0 / args.scale)
    return machine


def cmd_machines(_args) -> int:
    from repro.topology.ingest.zoo import zoo_entries

    for name in _REGISTRY:
        print(machine_by_name(name).describe())
        print()
    entries = zoo_entries()
    if entries:
        print("machine zoo (use --machine zoo:<name>):")
        rows = [
            (f"zoo:{name}", entry.cores_hint(), entry.description)
            for name, entry in sorted(entries.items())
        ]
        print(format_table(["name", "cores", "description"], rows))
    return 0


def cmd_workloads_table(args) -> int:
    from repro.workloads import application_table

    print(application_table(getattr(args, "suite", None)))
    return 0


def cmd_workloads_list(args) -> int:
    from repro.workloads import all_workloads, suites

    suite = getattr(args, "suite", None)
    selected = all_workloads(suite)
    if not selected:
        print(f"error: no workloads in suite {suite!r}; suites: "
              f"{', '.join(suites())}", file=sys.stderr)
        return 2
    rows = [(w.name, w.suite, w.kind, w.description) for w in selected]
    print(format_table(["name", "suite", "origin", "description"], rows))
    return 0


def cmd_workloads_show(args) -> int:
    from repro.workloads import workload

    from repro.ir.accesses import IndirectAccess

    w = workload(args.name)  # UnknownWorkloadError -> usage error in main()
    nest = w.nest()
    indirect = sum(isinstance(a, IndirectAccess) for a in nest.accesses)
    print(f"{w.name}: {w.description}")
    print(f"  suite        {w.suite}")
    print(f"  origin       {w.kind}")
    print(f"  data         {w.data_bytes() / 1024:.0f}KB "
          f"({w.num_blocks} blocks of {w.block_size()}B)")
    print(f"  iterations   {nest.iteration_count()}")
    print(f"  references   {len(nest.accesses)}")
    print(f"  indirect     {indirect}")
    if w.index_data:
        arrays = ", ".join(
            f"{name}[{len(values)}]" for name, values in w.index_data
        )
        print(f"  index data   {arrays}")
    if args.source:
        print()
        print(w.source.strip())
    return 0


def cmd_map(args) -> int:
    program = _load_program(args.source)
    machine = _machine(args)
    nest = program.nests[args.nest]
    mapper = TopologyAwareMapper(
        machine,
        block_size=args.block_size,
        balance_threshold=args.balance,
        local_scheduling=args.schedule and not args.no_local_scheduling,
        alpha=args.alpha,
        beta=args.beta,
    )
    with obs.span("cli.map", source=args.source, machine=machine.name):
        result = mapper.map_nest(program, nest)
    n = result.partition.num_blocks
    print(f"nest {nest.name!r}: {nest.iteration_count()} iterations, "
          f"{len(result.group_set)} iteration groups over {n} data blocks "
          f"(block size {result.partition.block_size}B)")
    rows = []
    for core, rounds in enumerate(result.group_rounds):
        order = " -> ".join(
            render(g.tag, n) if n <= 32 else f"#{g.ident}"
            for rnd in rounds for g in rnd
        )
        size = sum(g.size for rnd in rounds for g in rnd)
        rows.append((core, size, order or "(idle)"))
    print(format_table(["core", "iterations", "schedule"], rows))
    timings = ", ".join(f"{k}={v * 1000:.0f}ms" for k, v in result.timings.items())
    print(f"mapper timings: {timings}")
    return 0


def cmd_simulate(args) -> int:
    program = _load_program(args.source)
    machine = _machine(args)
    nest = program.nests[args.nest]

    from repro.sim.engine import SimConfig

    config = SimConfig(backend=args.backend)

    def plan_for(scheme: str):
        if scheme == "base":
            return base_plan(nest, machine)
        if scheme == "base+":
            return base_plus_plan(nest, machine)
        mapper = TopologyAwareMapper(
            machine,
            block_size=args.block_size,
            balance_threshold=args.balance,
            local_scheduling=(scheme == "ta+s"),
        )
        result = mapper.map_nest(program, nest)
        if scheme == "local":
            return local_plan(nest, machine, result.partition)
        return result.plan()

    with obs.span("cli.simulate", source=args.source, scheme=args.scheme):
        base_result = execute_plan(plan_for("base"), verify=True, config=config)
        result = (
            execute_plan(plan_for(args.scheme), verify=True, config=config)
            if args.scheme != "base"
            else None
        )
    print(base_result.summary())
    if result is not None:
        print(result.summary())
        print(f"\n{args.scheme} vs base: {result.cycles / base_result.cycles:.3f} "
              f"({base_result.cycles / result.cycles:.2f}x speedup)")
    return 0


def cmd_trace(args) -> int:
    """Run a full mapping (+ simulation) with tracing on and report it."""
    from repro.obs.report import render_report
    from repro.obs.sinks import read_jsonl

    program = _load_program(args.source)
    machine = _machine(args)
    nest = program.nests[args.nest]
    with _tracing_to(out_path=args.out, tree=False):
        with obs.span(
            "cli.trace", source=args.source, scheme=args.scheme, machine=machine.name
        ):
            mapper = TopologyAwareMapper(
                machine,
                block_size=args.block_size,
                balance_threshold=args.balance,
                local_scheduling=(args.scheme == "ta+s"),
            )
            if args.profile:
                with obs.profiled("cli.trace.mapping"):
                    result = mapper.map_nest(program, nest)
            else:
                result = mapper.map_nest(program, nest)
            if not args.no_sim:
                execute_plan(result.plan())
    print(f"trace written to {args.out}")
    records = read_jsonl(args.out)
    print()
    print(render_report(records, tree=args.tree, profiles=args.profile))
    return 0


def cmd_experiments(args) -> int:
    """Forward to the experiment suite driver (repro.experiments.run_all)."""
    from repro.experiments import run_all

    argv = []
    if args.quick:
        argv.append("--quick")
    if args.charts:
        argv.append("--charts")
    if args.jobs is not None:
        argv += ["--jobs", str(args.jobs)]
    if args.only:
        argv += ["--only", args.only]
    for name in args.workloads or ():
        argv += ["--workload", name]
    for spec in args.machines or ():
        argv += ["--machine", spec]
    if args.no_cache:
        argv.append("--no-cache")
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    return run_all.main(argv)


def cmd_cache(args) -> int:
    from repro.experiments import cache as result_cache

    directory = args.dir or result_cache.default_cache_dir()
    if args.action == "path":
        print(directory)
        return 0
    if args.action == "clear":
        removed = result_cache.clear(directory)
        print(f"removed {removed} cache file(s) from {directory}")
        return 0
    files = result_cache.info(directory)
    if not files:
        print(f"no cache files in {directory}")
        return 0
    rows = [
        (
            entry["tier"],
            entry["file"],
            entry["entries"],
            f"{entry['bytes'] / 1024:.1f}KB",
            "current" if entry["current"] else "stale",
        )
        for entry in files
    ]
    print(format_table(["tier", "file", "entries", "size", "fingerprint"], rows))
    return 0


def cmd_tune(args) -> int:
    from repro.mapping.autotune import autotune_block_size

    program = _load_program(args.source)
    machine = _machine(args)
    nest = program.nests[args.nest]
    candidates = tuple(int(c) for c in args.candidates.split(",") if c)
    result = autotune_block_size(
        program, nest, machine, candidates,
        local_scheduling=args.schedule, balance_threshold=args.balance,
    )
    print(result.table())
    print(f"\nbest block size: {result.best.block_size} bytes "
          f"({result.best.cycles} cycles)")
    return 0


def cmd_serve(args) -> int:
    from repro.service.server import MappingService, ServiceConfig, _default_workers

    threads = args.threads if args.threads is not None else _default_workers()
    if args.workers >= 2:
        # Sharded mode: a front router consistent-hashing requests over
        # N forked worker processes sharing the plan disk tier.
        from repro.service.shard import ShardConfig, ShardService

        shard_config = ShardConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            threads=threads,
            queue_size=args.queue_size,
            lru_capacity=args.lru_capacity,
            cache_dir=args.cache_dir,
            persistent=args.persistent,
            default_deadline_ms=args.deadline_ms,
            debug=args.debug,
            quiet=not args.verbose,
            health_interval_s=args.health_interval,
        )
        return ShardService(shard_config).serve()
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        queue_size=args.queue_size,
        workers=threads,
        lru_capacity=args.lru_capacity,
        cache_dir=args.cache_dir,
        persistent=args.persistent,
        default_deadline_ms=args.deadline_ms,
        debug=args.debug,
        quiet=not args.verbose,
    )
    return MappingService(config).serve()


def _machine_field(args) -> dict:
    """The wire field naming the flags' machine: ``topology`` holding the
    ``--topology`` file's spec, else ``machine``."""
    if args.topology:
        with open(args.topology, "r", encoding="utf-8") as handle:
            return {"topology": handle.read()}
    return {"machine": args.machine}


def cmd_submit(args) -> int:
    from repro.service.client import ServiceClient

    with open(args.source, "r", encoding="utf-8") as handle:
        source = handle.read()
    knobs = {
        "local_scheduling": args.schedule and not args.no_local_scheduling,
        "balance_threshold": args.balance,
        "alpha": args.alpha,
        "beta": args.beta,
    }
    if args.block_size is not None:
        knobs["block_size"] = args.block_size
    client = ServiceClient(host=args.host, port=args.port, timeout=args.timeout)
    response = client.submit(
        source=source,
        **_machine_field(args),
        nest=args.nest,
        scale=float(args.scale),
        knobs=knobs,
        deadline_ms=args.deadline_ms,
        no_cache=args.no_cache,
        name=args.source.rsplit("/", 1)[-1].split(".")[0],
    )
    if args.json:
        print(json.dumps(response, indent=2))
        return 0
    stats = response["stats"]
    flags = []
    if response["degraded"]:
        flags.append(f"DEGRADED ({response.get('degraded_reason', 'deadline')})")
    if response["cache"] in ("front", "router", "memory", "disk"):
        flags.append(f"cache hit ({response['cache']})")
    suffix = f" [{'; '.join(flags)}]" if flags else ""
    print(
        f"{response['scheme']} mapping of nest {response['nest']!r} on "
        f"{response['machine']}: {stats['iterations']} iterations over "
        f"{stats['cores']} cores in {stats['rounds']} round(s){suffix}"
    )
    rows = [
        (core, count)
        for core, count in enumerate(stats["per_core_iterations"])
    ]
    print(format_table(["core", "iterations"], rows))
    print(
        f"request {response['request_id']}: {response['elapsed_ms']:.1f}ms "
        f"({response['queue_wait_ms']:.1f}ms queued)"
    )
    return 0


def cmd_remap(args) -> int:
    """Apply remap events locally (incremental Remapper) or via /remap."""
    events = []
    for raw in args.event:
        try:
            decoded = json.loads(raw)
        except json.JSONDecodeError as error:
            print(f"error: bad --event JSON: {error}", file=sys.stderr)
            return 1
        if not isinstance(decoded, dict):
            print("error: --event must be a JSON object", file=sys.stderr)
            return 1
        events.append(decoded)

    knobs = {
        "local_scheduling": args.schedule,
        "balance_threshold": args.balance,
        "alpha": args.alpha,
        "beta": args.beta,
    }
    if args.block_size is not None:
        knobs["block_size"] = args.block_size

    if args.via_service:
        return _remap_via_service(args, events, knobs)

    from repro.pipeline.knobs import Knobs
    from repro.remap import Remapper
    from repro.remap.events import parse_event

    program = _load_program(args.source)
    machine = _machine(args)
    remapper = Remapper(program, machine, knobs=Knobs(**knobs))
    rows = []
    outcomes = []
    for raw in events:
        outcome = remapper.apply(parse_event(raw))
        outcomes.append(outcome)
        rows.append((
            outcome.kind,
            ",".join(str(n) for n in outcome.affected),
            outcome.machine.num_cores,
            outcome.stages_replayed,
            outcome.stages_recomputed,
            f"{outcome.elapsed_ms:.1f}",
        ))
    if args.json:
        print(json.dumps([
            {
                "event": o.kind,
                "affected": list(o.affected),
                "machine": o.machine.name,
                "cores": o.machine.num_cores,
                "stages_replayed": o.stages_replayed,
                "stages_recomputed": o.stages_recomputed,
                "elapsed_ms": round(o.elapsed_ms, 3),
            }
            for o in outcomes
        ], indent=2))
        return 0
    print(f"remapper on {machine.name}: "
          f"{len(program.nests)} nest(s) primed, {len(events)} event(s)")
    print(format_table(
        ["event", "nests", "cores", "replayed", "recomputed", "ms"], rows
    ))
    return 0


def _remap_via_service(args, events: list[dict], knobs: dict) -> int:
    from repro.service.client import ServiceClient

    with open(args.source, "r", encoding="utf-8") as handle:
        source = handle.read()
    name = args.source.rsplit("/", 1)[-1].split(".")[0]
    client = ServiceClient(host=args.host, port=args.port, timeout=args.timeout)
    # /remap is stateless: each body states its pre state in full, and
    # each answer states its post state in the same fields
    # (``remap.post``), which the next body sends back as it came.
    state = {
        **_machine_field(args),
        "scale": float(args.scale),
        "dead_cores": args.dead_cores or [],
        "knobs": knobs,
    }
    rows = []
    responses = []
    for raw in events:
        response = client.remap(
            event=raw, source=source, nest=args.nest, name=name, **state
        )
        responses.append(response)
        stanza = response["remap"]
        state = stanza["post"]
        rows.append((
            raw.get("kind"),
            response["nest"],
            stanza["cores"],
            stanza["stages_replayed"],
            stanza["stages_recomputed"],
            f"{response['elapsed_ms']:.1f}",
        ))
    if args.json:
        print(json.dumps(responses, indent=2))
        return 0
    print(format_table(
        ["event", "nest", "cores", "replayed", "recomputed", "ms"], rows
    ))
    return 0


def _topo_machine(args, spec: str):
    """Resolve a ``topo`` operand: a machine spec or a bare dump path."""
    import os

    if os.path.exists(spec) and ":" not in spec:
        from repro.topology.ingest import NormalizeOptions, ingest_sysfs

        options = NormalizeOptions(
            smt_policy=args.smt or "merge",
            name=getattr(args, "name", None),
            clock_ghz=getattr(args, "clock", None),
            memory_latency=getattr(args, "memory_latency", None),
        )
        return ingest_sysfs(spec, options)
    return resolve_machine(spec, getattr(args, "smt", None))


def cmd_topo_ingest(args) -> int:
    from repro.runtime.serialize import machine_to_dict
    from repro.topology.ingest import (
        NormalizeOptions,
        cross_validate,
        load_lscpu,
        load_sysfs,
        normalize,
    )
    from repro.topology.render import render_tree
    from repro.topology.tree import machine_digest

    options = NormalizeOptions(
        smt_policy=args.smt or "merge",
        name=args.name,
        clock_ghz=args.clock,
        memory_latency=args.memory_latency,
    )
    raw = load_sysfs(args.path)
    issues = []
    if args.lscpu:
        issues = cross_validate(raw, load_lscpu(args.lscpu))
    machine = normalize(raw, options)
    digest = machine_digest(machine)
    if args.json:
        payload = machine_to_dict(machine)
        payload["digest"] = digest
        if issues:
            payload["crosscheck"] = issues
        print(json.dumps(payload, indent=2))
    else:
        print(render_tree(machine))
        print(f"digest {digest}")
        if raw.offline:
            print(f"offline cpus: {','.join(str(c) for c in raw.offline)}")
        for issue in issues:
            print(f"crosscheck: {issue}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            payload = machine_to_dict(machine)
            payload["digest"] = digest
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    return 0


def cmd_topo_show(args) -> int:
    from repro.runtime.serialize import machine_to_dict
    from repro.topology.render import render_tree
    from repro.topology.tree import machine_digest

    machine = _topo_machine(args, args.machine)
    if args.json:
        payload = machine_to_dict(machine)
        payload["digest"] = machine_digest(machine)
        print(json.dumps(payload, indent=2))
    else:
        print(render_tree(machine))
        print(f"digest {machine_digest(machine)}")
    return 0


def cmd_topo_validate(args) -> int:
    from repro.topology.tree import machine_digest

    try:
        machine = _topo_machine(args, args.machine)
    except ReproError as error:
        print(f"INVALID: {error}", file=sys.stderr)
        return 1
    print(
        f"OK: {machine.name} ({machine.num_cores} cores, "
        f"{len(machine.cache_nodes())} caches, digest {machine_digest(machine)})"
    )
    return 0


def cmd_topo_list(args) -> int:
    from repro.topology.ingest.zoo import zoo_entries

    rows = []
    for name in _REGISTRY:
        machine = machine_by_name(name)
        rows.append((name, "builtin", machine.num_cores, ""))
    for name, entry in sorted(zoo_entries().items()):
        rows.append((f"zoo:{name}", "zoo", entry.cores_hint(), entry.description))
    print(format_table(["name", "kind", "cores", "description"], rows))
    return 0


def cmd_topo_diff(args) -> int:
    from repro.topology.render import render_tree
    from repro.topology.tree import machine_digest

    left = _topo_machine(args, args.left)
    right = _topo_machine(args, args.right)
    digest_left, digest_right = machine_digest(left), machine_digest(right)
    if digest_left == digest_right:
        print(f"identical trees (digest {digest_left})")
        return 0
    lines_left = render_tree(left).splitlines()
    lines_right = render_tree(right).splitlines()
    import difflib

    for line in difflib.unified_diff(
        lines_left, lines_right, fromfile=args.left, tofile=args.right, lineterm=""
    ):
        print(line)
    return 1


def cmd_service_stats(args) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(host=args.host, port=args.port, timeout=args.timeout)
    payload = client.metrics() if args.metrics else json.dumps(client.stats(), indent=2)
    print(payload)
    return 0


def _service_endpoint(p):
    p.add_argument("--host", default="127.0.0.1", help="service host")
    p.add_argument("--port", type=int, default=8321, help="service port")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="client timeout in seconds")


def build_parser() -> argparse.ArgumentParser:
    import repro

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cache topology aware computation mapping (PLDI 2010 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {repro.__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="list the built-in machines").set_defaults(func=cmd_machines)
    workloads_parser = sub.add_parser(
        "workloads", help="list, show and tabulate the evaluation workloads"
    )
    # Bare `repro workloads` keeps printing the Table 2 rendering.
    workloads_parser.set_defaults(func=cmd_workloads_table, suite=None)
    workloads_sub = workloads_parser.add_subparsers(dest="workloads_command")

    def suite_option(p):
        p.add_argument("--suite", default=None,
                       help="restrict to one suite (e.g. irregular; "
                            "see 'repro workloads list')")

    wl_list = workloads_sub.add_parser(
        "list", help="one line per workload (name, suite, description)"
    )
    suite_option(wl_list)
    wl_list.set_defaults(func=cmd_workloads_list)

    wl_show = workloads_sub.add_parser(
        "show", help="full detail for one workload"
    )
    wl_show.add_argument("name", help="workload name (see 'list')")
    wl_show.add_argument("--source", action="store_true",
                         help="also print the kernel source")
    wl_show.set_defaults(func=cmd_workloads_show)

    wl_table = workloads_sub.add_parser(
        "table", help="the Table 2 rendering (data sizes, iterations)"
    )
    suite_option(wl_table)
    wl_table.set_defaults(func=cmd_workloads_table)

    def common(p, tracing=True):
        p.add_argument("source", help="affine loop program file")
        p.add_argument("--machine", default="dunnington", help="target machine name")
        p.add_argument("--topology", default=None,
                       help="file with a topology spec string (overrides --machine)")
        p.add_argument("--scale", type=int, default=32,
                       help="divide cache capacities by this factor (default 32)")
        p.add_argument("--nest", type=int, default=0, help="nest index (default 0)")
        p.add_argument("--block-size", type=int, default=None,
                       help="data block size in bytes (default: Section 4.1 heuristic)")
        p.add_argument("--balance", "--balance-threshold", type=float,
                       default=0.10, dest="balance",
                       help="load-balance threshold (Sections 3.4/4.1; "
                            "default 0.10, the paper's)")
        if tracing:
            p.add_argument("--trace", action="store_true",
                           help="print a span tree of the run to stderr")
            p.add_argument("--trace-out", default=None, metavar="FILE",
                           help="write a machine-readable JSONL trace to FILE")

    map_parser = sub.add_parser("map", help="run the topology-aware mapper")
    common(map_parser)
    map_parser.add_argument("--schedule", action="store_true",
                            help="apply Figure 7 local scheduling")
    map_parser.add_argument("--no-local-scheduling", action="store_true",
                            help="force the Section 3.5.3 local scheduler "
                                 "off (overrides --schedule)")
    map_parser.add_argument("--alpha", type=float, default=0.5,
                            help="reuse weight in the Figure 7 scheduler "
                                 "(Section 3.5.3; default 0.5)")
    map_parser.add_argument("--beta", type=float, default=0.5,
                            help="footprint weight in the Figure 7 scheduler "
                                 "(Section 3.5.3; default 0.5)")
    map_parser.set_defaults(func=cmd_map)

    sim_parser = sub.add_parser("simulate", help="simulate a scheme vs Base")
    common(sim_parser)
    sim_parser.add_argument("--scheme", default="ta",
                            choices=("base", "base+", "local", "ta", "ta+s"))
    sim_parser.add_argument("--backend", default="auto",
                            choices=("auto", "python", "numpy"),
                            help="simulation engine: per-access oracle "
                                 "('python') or batched ('numpy'); "
                                 "'auto' batches when numpy is available")
    sim_parser.set_defaults(func=cmd_simulate)

    exp_parser = sub.add_parser(
        "experiments", help="run the paper's experiment suite"
    )
    exp_parser.add_argument("--quick", action="store_true",
                            help="6-app subset instead of all workloads")
    exp_parser.add_argument("--charts", action="store_true",
                            help="append ASCII bar charts")
    exp_parser.add_argument("--jobs", type=int, default=None, metavar="N",
                            help="worker processes (default: CPU count)")
    exp_parser.add_argument("--only", default=None, metavar="SUBSTR",
                            help="run only matching steps (e.g. fig13)")
    exp_parser.add_argument("--workload", action="append", default=None,
                            metavar="NAME", dest="workloads",
                            help="restrict the figures to workload NAME "
                                 "(repeatable; see 'repro workloads list')")
    exp_parser.add_argument("--machine", action="append", default=None,
                            metavar="SPEC", dest="machines",
                            help="restrict the machine-zoo sweeps to SPEC "
                                 "(repeatable; builtin name, zoo:<name>, "
                                 "sysfs:<path>, or lscpu:<path>)")
    exp_parser.add_argument("--no-cache", action="store_true",
                            help="skip the persistent result cache")
    exp_parser.add_argument("--cache-dir", default=None, metavar="DIR",
                            help="persistent cache directory")
    exp_parser.set_defaults(func=cmd_experiments)

    cache_parser = sub.add_parser(
        "cache", help="inspect or clear the persistent caches "
                      "(plans, mappings, results)"
    )
    cache_parser.add_argument("action", choices=("info", "clear", "path"))
    cache_parser.add_argument("--dir", default=None, metavar="DIR",
                              help="cache directory (default: "
                                   "$REPRO_CACHE_DIR or ~/.cache/repro)")
    cache_parser.set_defaults(func=cmd_cache)

    trace_parser = sub.add_parser(
        "trace", help="trace a full mapping run and report per-phase timings"
    )
    common(trace_parser, tracing=False)
    trace_parser.add_argument("--scheme", default="ta+s", choices=("ta", "ta+s"),
                              help="mapping scheme to trace (default ta+s)")
    trace_parser.add_argument("--out", default="trace.jsonl", metavar="FILE",
                              help="JSONL trace output path (default trace.jsonl)")
    trace_parser.add_argument("--tree", action="store_true",
                              help="include the span tree in the printed report")
    trace_parser.add_argument("--profile", action="store_true",
                              help="additionally cProfile the mapping phase")
    trace_parser.add_argument("--no-sim", action="store_true",
                              help="trace the mapper only, skip the simulation")
    trace_parser.set_defaults(func=cmd_trace)

    serve_parser = sub.add_parser(
        "serve", help="run the mapping service daemon (HTTP/JSON)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument("--port", type=int, default=8321,
                              help="bind port (0 picks an ephemeral port)")
    serve_parser.add_argument("--queue-size", type=int, default=64, metavar="Q",
                              help="admission queue capacity (default 64)")
    serve_parser.add_argument("--workers", type=int, default=1, metavar="N",
                              help="worker processes; >= 2 enables sharded "
                                   "mode with a consistent-hash front router "
                                   "(default 1: single process)")
    serve_parser.add_argument("--threads", type=int, default=None, metavar="T",
                              help="admission worker threads per process "
                                   "(default: up to 4)")
    serve_parser.add_argument("--health-interval", type=float, default=0.25,
                              metavar="S",
                              help="sharded mode: dead-worker sweep period "
                                   "(default 0.25s)")
    serve_parser.add_argument("--lru-capacity", type=int, default=512,
                              metavar="N",
                              help="entries of each in-process cache (the "
                                   "reply cache and the content LRU)")
    serve_parser.add_argument("--persistent", action="store_true",
                              help="enable the on-disk plan tier")
    serve_parser.add_argument("--cache-dir", default=None, metavar="DIR",
                              help="persistent cache directory (default: "
                                   "$REPRO_CACHE_DIR or ~/.cache/repro)")
    serve_parser.add_argument("--deadline-ms", type=float, default=None,
                              metavar="MS",
                              help="default per-request deadline (none: never "
                                   "degrade unless the request asks)")
    serve_parser.add_argument("--debug", action="store_true",
                              help="honor test-only request fields "
                                   "(debug_sleep_ms)")
    serve_parser.add_argument("--verbose", action="store_true",
                              help="log each HTTP request to stderr")
    serve_parser.set_defaults(func=cmd_serve)

    submit_parser = sub.add_parser(
        "submit", help="submit one mapping request to a running service"
    )
    submit_parser.add_argument("source", help="affine loop program file")
    _service_endpoint(submit_parser)
    submit_parser.add_argument("--machine", default="dunnington",
                               help="target machine name")
    submit_parser.add_argument("--topology", default=None,
                               help="file with a topology spec string "
                                    "(overrides --machine)")
    submit_parser.add_argument("--scale", type=int, default=1,
                               help="divide cache capacities by this factor")
    submit_parser.add_argument("--nest", type=int, default=0,
                               help="nest index (default 0)")
    submit_parser.add_argument("--block-size", type=int, default=None,
                               help="data block size in bytes")
    submit_parser.add_argument("--balance", "--balance-threshold", type=float,
                               default=0.10, dest="balance",
                               help="load-balance threshold (Sections "
                                    "3.4/4.1; default 0.10)")
    submit_parser.add_argument("--alpha", type=float, default=0.5,
                               help="reuse weight in the Figure 7 scheduler "
                                    "(Section 3.5.3; default 0.5)")
    submit_parser.add_argument("--beta", type=float, default=0.5,
                               help="footprint weight in the Figure 7 "
                                    "scheduler (Section 3.5.3; default 0.5)")
    submit_parser.add_argument("--schedule", action="store_true",
                               help="apply Figure 7 local scheduling")
    submit_parser.add_argument("--no-local-scheduling", action="store_true",
                               help="force the Section 3.5.3 local scheduler "
                                    "off (overrides --schedule)")
    submit_parser.add_argument("--deadline-ms", type=float, default=None,
                               metavar="MS", help="per-request deadline")
    submit_parser.add_argument("--no-cache", action="store_true",
                               help="bypass the service's mapping cache")
    submit_parser.add_argument("--json", action="store_true",
                               help="print the raw JSON response")
    submit_parser.set_defaults(func=cmd_submit)

    remap_parser = sub.add_parser(
        "remap", help="apply dynamic events through the incremental remapper"
    )
    remap_parser.add_argument("source", help="affine loop program file")
    remap_parser.add_argument("--event", action="append", required=True,
                              metavar="JSON",
                              help="one event as JSON (repeatable), e.g. "
                                   '\'{"kind": "core_loss", "cores": [2]}\' or '
                                   '\'{"kind": "phase_change", '
                                   '"knobs": {"alpha": 0.8}}\'')
    remap_parser.add_argument("--machine", default="dunnington",
                              help="base machine name")
    remap_parser.add_argument("--topology", default=None,
                              help="file with a topology spec string "
                                   "(overrides --machine)")
    remap_parser.add_argument("--scale", type=int, default=32,
                              help="divide cache capacities by this factor "
                                   "(default 32)")
    remap_parser.add_argument("--nest", type=int, default=0,
                              help="nest index for --via-service (local mode "
                                   "remaps every nest)")
    remap_parser.add_argument("--block-size", type=int, default=None,
                              help="data block size in bytes")
    remap_parser.add_argument("--balance", "--balance-threshold", type=float,
                              default=0.10, dest="balance",
                              help="load-balance threshold (default 0.10)")
    remap_parser.add_argument("--alpha", type=float, default=0.5,
                              help="reuse weight in the Figure 7 scheduler")
    remap_parser.add_argument("--beta", type=float, default=0.5,
                              help="footprint weight in the Figure 7 scheduler")
    remap_parser.add_argument("--schedule", action="store_true",
                              help="apply Figure 7 local scheduling")
    remap_parser.add_argument("--via-service", action="store_true",
                              help="send the events to a running service's "
                                   "/remap instead of remapping in-process")
    remap_parser.add_argument("--dead-cores", type=lambda s: [
                                  int(c) for c in s.split(",") if c
                              ], default=None, metavar="IDS",
                              help="--via-service: comma-separated cores "
                                   "already offline before the first event")
    remap_parser.add_argument("--json", action="store_true",
                              help="print raw JSON instead of the table")
    _service_endpoint(remap_parser)
    remap_parser.set_defaults(func=cmd_remap)

    stats_parser = sub.add_parser(
        "service-stats", help="print a running service's /stats (or /metrics)"
    )
    _service_endpoint(stats_parser)
    stats_parser.add_argument("--metrics", action="store_true",
                              help="print Prometheus-style /metrics instead")
    stats_parser.set_defaults(func=cmd_service_stats)

    tune_parser = sub.add_parser("tune", help="search block sizes by simulation")
    common(tune_parser)
    tune_parser.add_argument("--candidates", default="512,1024,2048,4096",
                             help="comma-separated block sizes in bytes")
    tune_parser.add_argument("--schedule", action="store_true",
                             help="tune the combined (scheduled) scheme")
    tune_parser.set_defaults(func=cmd_tune)

    topo_parser = sub.add_parser(
        "topo", help="ingest, inspect and validate machine topologies"
    )
    topo_sub = topo_parser.add_subparsers(dest="topo_command", required=True)

    def smt_option(p):
        p.add_argument("--smt", default=None, choices=("merge", "threads"),
                       help="SMT sibling policy for ingested dumps: fold "
                            "siblings into one core ('merge', default) or "
                            "model threads as cores sharing an L1")

    ingest_parser = topo_sub.add_parser(
        "ingest", help="read a sysfs tree (live /sys, dump dir, or tar)"
    )
    ingest_parser.add_argument("path", help="/sys, a dump directory, or a "
                                            ".tar/.tar.gz archive of one")
    ingest_parser.add_argument("--lscpu", default=None, metavar="FILE",
                               help="saved 'lscpu -J' output to cross-validate")
    smt_option(ingest_parser)
    ingest_parser.add_argument("--name", default=None, help="machine name")
    ingest_parser.add_argument("--clock", type=float, default=None,
                               metavar="GHZ", help="override the clock")
    ingest_parser.add_argument("--memory-latency", type=int, default=None,
                               metavar="CYCLES",
                               help="off-chip latency (default: 100ns at the "
                                    "machine clock)")
    ingest_parser.add_argument("--json", action="store_true",
                               help="print the full machine as JSON")
    ingest_parser.add_argument("--out", default=None, metavar="FILE",
                               help="also write the machine JSON to FILE")
    ingest_parser.set_defaults(func=cmd_topo_ingest)

    show_parser = topo_sub.add_parser(
        "show", help="render a machine spec as a tree"
    )
    show_parser.add_argument("machine", help="builtin name, zoo:<name>, "
                                             "sysfs:<path>, lscpu:<path>, or "
                                             "a dump path")
    smt_option(show_parser)
    show_parser.add_argument("--json", action="store_true",
                             help="print the full machine as JSON")
    show_parser.set_defaults(func=cmd_topo_show)

    validate_parser = topo_sub.add_parser(
        "validate", help="check that a machine spec or dump ingests cleanly"
    )
    validate_parser.add_argument("machine", help="machine spec or dump path")
    smt_option(validate_parser)
    validate_parser.set_defaults(func=cmd_topo_validate)

    list_parser = topo_sub.add_parser(
        "list", help="list builtin and zoo machines"
    )
    list_parser.set_defaults(func=cmd_topo_list)

    diff_parser = topo_sub.add_parser(
        "diff", help="structurally compare two machine specs"
    )
    diff_parser.add_argument("left", help="machine spec or dump path")
    diff_parser.add_argument("right", help="machine spec or dump path")
    smt_option(diff_parser)
    diff_parser.set_defaults(func=cmd_topo_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _tracing_to(
            getattr(args, "trace_out", None), getattr(args, "trace", False)
        ):
            return args.func(args)
    except UnknownMachineError as error:
        # A usage error, like argparse's own: print the menu, exit 2.
        print(f"error: unknown machine {error.spec!r}", file=sys.stderr)
        print("known machines:", file=sys.stderr)
        for name in error.known:
            print(f"  {name}", file=sys.stderr)
        return 2
    except UnknownWorkloadError as error:
        print(f"error: unknown workload {error.name!r}", file=sys.stderr)
        print("known workloads:", file=sys.stderr)
        for name in error.known:
            print(f"  {name}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
