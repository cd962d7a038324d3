"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``placement WIDTH HEIGHT`` — print the static-bubble placement map and
  the Equation-1 count for a mesh.
* ``simulate`` — run one simulation (topology, faults, scheme, traffic)
  and print the measured statistics.
* ``experiment NAME`` — run one of the paper's experiments (``fig2`` ...
  ``fig13``, ``table1``) in quick or full mode and print its report;
  ``--obs`` aggregates the observability metrics registry across sweep
  workers and prints it after the report.
* ``trace`` — run a scenario or synthetic simulation with the tracing
  observer attached; export JSONL / Chrome ``trace_event`` files and
  print the stitched recovery transcripts.
* ``chaos`` — sweep random live-fault schedules (mid-run link/router
  failures and restores applied in place) across the schemes and check
  packet conservation; ``--check`` exits nonzero on any undrained run or
  unaccounted packet (the CI smoke gate).
* ``verify`` — machine-check a scheme's deadlock-freedom claim on a
  (possibly faulted) mesh: CDG certificate (acyclicity or static-bubble
  cycle cover) with a concrete counterexample cycle on failure, and
  optionally the exhaustive recovery-protocol model check
  (``--model-check ring2x2``).  Exits 1 on any failed claim.
* ``serve`` — run the HTTP campaign server (``repro.service``): submit
  simulation specs over ``POST /jobs``, get memoized results from the
  content-addressed store, scrape ``GET /metrics``.
  ``--store`` repeated, or ``--shard-map``, places results over several
  roots by consistent hashing (:class:`repro.service.store.ShardMap`).
* ``worker`` — remote worker pool member: long-poll a campaign server
  for leased jobs, execute them locally, and report results with
  at-least-once delivery (heartbeats, idempotent completion).
* ``shards`` — inspect (``status``) or rebalance a sharded result store
  described by a shard-map JSON file.
* ``submit`` — client for ``serve``: post one simulation spec (the same
  knobs as ``simulate``) and optionally wait for the result;
  ``--mode surrogate|auto`` rides the calibrated analytical fast lane.
* ``predict`` — answer one spec from the local surrogate
  (:mod:`repro.surrogate`) without a server: calibrated prediction,
  explicit error bound, and provenance in milliseconds.
* ``schemes`` — list the available deadlock-freedom schemes.

``simulate``, ``submit`` and ``predict`` declare one spec-flag set
(``_add_spec_args``) and turn it into one :class:`repro.service.spec.SimSpec`;
every network the CLI simulates (``simulate``, synthetic ``trace``) or
certifies (``verify``) is derived by that class — the derivation the
service fingerprints and runs.  ``simulate``, ``experiment``, ``verify``,
and ``submit`` all take ``--json`` for structured output through the
shared serializer (:mod:`repro.utils.serialize`) — the same encoding the
service store persists.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import List, Optional

from repro.core.fsm import FsmState
from repro.core.placement import bubble_count, placement_map
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import CACHE_ENV_VAR
from repro.obs import (
    OBS_ENV_VAR,
    Observer,
    proc_registry,
    write_chrome_trace,
    write_jsonl,
)
from repro.protocols import SCHEMES, make_scheme
from repro.service.spec import SimSpec, sim_result_payload
from repro.sim.config import SimConfig
from repro.sim.deadlock import DeadlockMonitor
from repro.sim.engine import run_with_window
from repro.sim.scenarios import SCENARIOS, build_scenario
from repro.traffic.synthetic import PATTERNS
from repro.utils.reporting import format_table


def _cmd_placement(args: argparse.Namespace) -> int:
    print(placement_map(args.width, args.height))
    print(
        f"\n{bubble_count(args.width, args.height)} static bubbles in a "
        f"{args.width}x{args.height} mesh "
        f"({args.width * args.height} routers)."
    )
    return 0


def _cmd_schemes(args: argparse.Namespace) -> int:
    rows = [
        ["minimal-unprotected", "random-minimal routes, no protection (Fig. 2/3)"],
        ["xy", "dimension-ordered XY (healthy meshes only)"],
        ["spanning-tree", "up*/down* avoidance over a spanning tree (baseline 1)"],
        ["escape-vc", "minimal + reserved escape VCs on a tree (baseline 2)"],
        ["static-bubble", "the paper's contribution: minimal + bubble recovery"],
        ["adaptive", "congestion-aware minimal selection + bubble recovery"],
        ["adaptive-escape", "congestion-aware minimal selection + escape VCs"],
    ]
    print(format_table(["scheme", "description"], rows))
    return 0


def _simulate_spec_from_args(args: argparse.Namespace, **extras) -> SimSpec:
    """The :class:`SimSpec` named by ``_add_spec_args``'s flags, plus the
    calling command's own fields (``monitor``, ``mode``)."""
    return SimSpec(
        width=args.width,
        height=args.height,
        topology=args.topology,
        link_faults=args.link_faults,
        router_faults=args.router_faults,
        scheme=args.scheme,
        pattern=args.pattern,
        rate=args.rate,
        warmup=args.warmup,
        measure=args.cycles,
        vcs_per_vnet=args.vcs,
        sb_t_dd=args.t_dd,
        seed=args.seed,
        **extras,
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = _simulate_spec_from_args(args, monitor=args.monitor)
    try:
        spec.validate()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    network = spec.build_network()
    if args.verify_first:
        cert = network.scheme.verify(network.topo, network.config)
        if not args.json:
            print(cert.describe())
        if not cert.ok:
            print("certification failed; aborting simulation", file=sys.stderr)
            return 1
        if not args.json:
            print()
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    result = run_with_window(
        network,
        warmup=spec.warmup,
        measure=spec.measure,
        monitor=DeadlockMonitor() if spec.monitor else None,
    )
    if profiler is not None:
        import pstats

        profiler.disable()
        profile_stats = pstats.Stats(profiler, stream=sys.stderr)
        profile_stats.sort_stats("cumulative").print_stats(25)
        if args.profile_out:
            profile_stats.dump_stats(args.profile_out)
            print(f"profile written to {args.profile_out}", file=sys.stderr)
    stats = network.stats
    if args.json:
        import json

        payload = sim_result_payload(spec, result, network)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [
        ["topology", repr(network.topo)],
        ["scheme", args.scheme],
        ["offered load (flits/node/cyc)", args.rate],
        ["avg latency (cycles)", f"{result.avg_latency:.2f}"],
        ["accepted thr (flits/node/cyc)", f"{result.throughput_flits_node_cycle:.4f}"],
        ["packets injected / ejected", f"{stats.packets_injected} / {stats.packets_ejected}"],
        ["probes sent", stats.probes_sent],
        ["bubble activations", stats.bubble_activations],
        ["recoveries completed", stats.recoveries_completed],
        ["escape diversions", stats.escape_diversions],
        ["deadlocks observed (oracle)", stats.deadlocks_observed],
    ]
    print(format_table(["metric", "value"], rows))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    module = ALL_EXPERIMENTS.get(args.name)
    if module is None:
        print(
            f"unknown experiment {args.name!r}; have {sorted(ALL_EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    params_cls = next(
        getattr(module, name) for name in dir(module) if name.endswith("Params")
    )
    params = params_cls.full() if args.full else params_cls.quick()
    if args.workers is not None:
        params.workers = args.workers
    # For this command only: pool workers fork inside module.run and
    # inherit the setting (--obs: they ship their registries home for
    # merging; --cached: every fan_out cell goes through the store).
    switched = {
        name: os.environ.get(name)
        for name, on in ((OBS_ENV_VAR, args.obs), (CACHE_ENV_VAR, args.cached))
        if on
    }
    for name in switched:
        os.environ[name] = "1"
    try:
        result = module.run(params)
    finally:
        for name, prior in switched.items():
            if prior is None:
                del os.environ[name]
            else:
                os.environ[name] = prior
    if args.json:
        import json

        from repro.utils.serialize import to_jsonable

        print(
            json.dumps(
                {
                    "experiment": args.name,
                    "params": to_jsonable(params),
                    "result": to_jsonable(result),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(module.report(result))
    if args.obs:
        registry = proc_registry()
        if not registry.is_empty:
            print("\nobservability metrics (merged across workers):")
            for line in registry.summary_lines():
                print("  " + line)
    return 0


def _resolve_store_arg(args: argparse.Namespace):
    """The store a server owns: a --shard-map file, else one shard per
    --store root (the default root when none is given)."""
    from repro.service.store import ResultStore, ShardMap, default_store_root

    if args.shard_map:
        shard_map = ShardMap.load(args.shard_map)
    else:
        shard_map = ShardMap.local(args.store or [default_store_root()], args.replicas)
    return ResultStore(shard_map)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import ServiceServer

    store = _resolve_store_arg(args)
    server = ServiceServer(
        host=args.host,
        port=args.port,
        store=store,
        workers=args.workers,
        max_depth=args.max_depth,
        timeout=args.timeout,
        retries=args.retries,
        record_ttl=args.record_ttl if args.record_ttl > 0 else None,
        surrogate=not args.no_surrogate,
        lease_ttl=args.lease_ttl,
        local_exec=not args.no_local_exec,
    )
    # SIGTERM drains like SIGINT: a shell starts background jobs with
    # SIGINT ignored, so `kill` is how a script stops a server.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    server.start()
    try:
        print(f"repro service listening on {server.url}")
        print(f"result store: replicas {store.map.replicas}, cap {store.max_bytes} bytes per shard")
        for shard in store.map.shards:
            print(f"  shard {shard.name}: {shard.root} (weight {shard.weight})")
        if args.no_local_exec:
            print("local execution off: jobs wait for `repro worker` claims")
        # start() already runs the front end; block until interrupted.
        import time

        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\nshutting down (draining)")
    finally:
        server.stop()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.service.fabric import run_worker

    try:
        stats = run_worker(
            args.url,
            worker_id=args.id,
            max_jobs=args.max_jobs,
            poll_wait=args.wait,
            exec_workers=args.workers,
            max_idle_polls=args.max_idle if args.max_idle > 0 else None,
            quiet=args.quiet,
        )
    except OSError as exc:
        print(f"cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"worker done: {stats.summary()}")
    return 0


def _cmd_shards(args: argparse.Namespace) -> int:
    import json

    from repro.service.store import ResultStore, ShardMap, rebalance

    try:
        shard_map = ShardMap.load(args.map)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot load shard map {args.map!r}: {exc}", file=sys.stderr)
        return 2
    store = ResultStore(shard_map)
    if args.action == "status":
        health = store.health()
        rows = []
        for shard in shard_map.shards:
            sub = store.shard_store(shard.name)
            ok = health["shards"].get(shard.name, False)
            blobs = sum(1 for _ in sub.fingerprints()) if ok else "-"
            size = sub.size_bytes() if ok else "-"
            rows.append([shard.name, shard.root, shard.weight, ok, blobs, size])
        print(format_table(
            ["shard", "root", "weight", "reachable", "blobs", "bytes"], rows
        ))
        print(f"\nreplicas: {shard_map.replicas}  distinct results: {len(store)}")
        return 0 if health["ok"] else 1
    # rebalance
    report = rebalance(store, prune=args.prune)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            "rebalance: scanned {scanned}  copied {copied}  "
            "pruned {pruned}  skipped {skipped}".format(**report)
        )
    return 0 if report["skipped"] == 0 else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import ServiceClient, ServiceError

    spec = _simulate_spec_from_args(args, mode=args.mode)
    client = ServiceClient(args.url)
    try:
        if args.wait:
            payload = client.run(spec, priority=args.priority, timeout=args.timeout)
        else:
            payload = client.submit(spec, priority=args.priority)
    except ServiceError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [
        ["job id", payload.get("job_id", "")],
        ["status", payload.get("status", "")],
        ["cached", payload.get("cached", False)],
    ]
    result = payload.get("result")
    if result:
        rows += [
            ["avg latency (cycles)", f"{result['result']['avg_latency']:.2f}"],
            [
                "accepted thr (flits/node/cyc)",
                f"{result['result']['throughput_flits_node_cycle']:.4f}",
            ],
            [
                "packets injected / ejected",
                f"{result['stats']['packets_injected']} / "
                f"{result['stats']['packets_ejected']}",
            ],
        ]
    print(format_table(["field", "value"], rows))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    import json
    import time
    from pathlib import Path

    from repro.service.store import ResultStore
    from repro.surrogate import SurrogateOracle

    store = ResultStore(root=Path(args.store) if args.store else None)
    oracle = SurrogateOracle(store=store)
    if args.refresh:
        oracle.refresh()
    spec = _simulate_spec_from_args(args)
    started = time.perf_counter()
    try:
        prediction = oracle.predict(spec)
    except (ValueError, KeyError) as exc:
        print(f"surrogate cannot model this spec: {exc}", file=sys.stderr)
        return 1
    elapsed_ms = (time.perf_counter() - started) * 1e3
    if args.json:
        payload = prediction.payload(spec)
        payload["surrogate"]["predict_ms"] = elapsed_ms
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    bound = prediction.error_bound
    rows = [
        ["scheme / pattern", f"{spec.scheme} / {spec.pattern}"],
        ["offered load (flits/node/cyc)", spec.rate],
        ["predicted latency (cycles)", f"{prediction.latency:.2f}"],
        ["predicted thr (flits/node/cyc)", f"{prediction.throughput:.4f}"],
        ["saturation rate (flits/node/cyc)", f"{prediction.raw.saturation_rate:.4f}"],
        ["error bound (relative)", f"{bound:.3f}" if bound is not None else "uncalibrated"],
        ["calibration cell", prediction.provenance["cell"]],
        ["calibration samples", prediction.provenance["samples"]],
        ["calibration fingerprint", prediction.provenance["calibration_fingerprint"][:16]],
        ["prediction time", f"{elapsed_ms:.2f} ms"],
    ]
    print(format_table(["field", "value"], rows))
    if bound is None:
        print(
            "\nno calibration support for this cell yet — run exact cells "
            "into the store (e.g. `repro submit` or `experiment --cached`) "
            "and retry, or trust nothing."
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    if args.topology:
        shape = {"topology": args.topology}
    else:
        try:
            width, height = (int(v) for v in args.mesh.lower().split("x"))
        except ValueError:
            print(f"bad --mesh {args.mesh!r}; expected WxH (e.g. 8x8)", file=sys.stderr)
            return 2
        shape = {"width": width, "height": height}
    spec = SimSpec(
        link_faults=args.link_faults,
        router_faults=args.router_faults,
        seed=args.seed,
        **shape,
    )
    try:
        topo = spec.build_topology()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.topology:
        width = getattr(topo, "width", 8)
        height = getattr(topo, "height", 8)
    config = SimConfig(width=width, height=height)

    kwargs = {}
    if args.drop_bubble:
        if args.topology:
            # The X,Y addressing (and the closed-form placement it edits)
            # only exists on the 2D mesh.
            print("--drop-bubble requires a 2D mesh (--mesh)", file=sys.stderr)
            return 2
        if args.scheme not in ("static-bubble", "adaptive"):
            # Both run the Static Bubble placement; every other scheme
            # has no bubbles to drop.
            print(
                "--drop-bubble only applies to static-bubble/adaptive",
                file=sys.stderr,
            )
            return 2
        from repro.core.placement import placement_node_ids

        placed = set(placement_node_ids(width, height))
        for spec in args.drop_bubble:
            try:
                x, y = (int(v) for v in spec.split(","))
            except ValueError:
                print(f"bad --drop-bubble {spec!r}; expected X,Y", file=sys.stderr)
                return 2
            node = y * width + x
            if node not in placed:
                print(
                    f"({x},{y}) is not a static-bubble router of the "
                    f"{width}x{height} placement",
                    file=sys.stderr,
                )
                return 2
            placed.discard(node)
        kwargs["placement_override"] = placed

    scheme = make_scheme(args.scheme, **kwargs)
    try:
        cert = scheme.verify(topo, config)
    except ValueError as exc:  # a scheme that cannot run on this topology
        print(str(exc), file=sys.stderr)
        return 2

    mc_result = None
    if args.model_check:
        from repro.verify.model import check_scenario

        mc_result = check_scenario(args.model_check)

    if args.json:
        payload = {"certificate": cert.to_dict()}
        if mc_result is not None:
            payload["model_check"] = mc_result.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        print(cert.describe())
        if mc_result is not None:
            print()
            print(mc_result.describe())
    ok = cert.ok and (mc_result is None or mc_result.ok)
    return 0 if ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments import chaos

    params = chaos.ChaosParams.full() if args.full else chaos.ChaosParams.quick()
    if args.campaigns is not None:
        params.campaigns = args.campaigns
    if args.events is not None:
        params.events = args.events
    if args.width is not None:
        params.width = args.width
    if args.height is not None:
        params.height = args.height
    params.seed = args.seed
    params.workers = args.workers
    params.verify_reconfig = args.verify_reconfig
    if args.verify_first:
        spec = SimSpec(
            width=params.width, height=params.height, vcs_per_vnet=params.vcs_per_vnet
        )
        topo, config = spec.build_topology(), spec.build_config()
        for name in params.schemes:
            cert = make_scheme(name).verify(topo, config)
            if not cert.ok:
                print(cert.describe())
                print(
                    f"certification failed for {name}; aborting chaos campaign",
                    file=sys.stderr,
                )
                return 1
    result = chaos.run(params)
    print(chaos.report(result))
    if args.check and not result.ok:
        return 1
    return 0


def _scheme_in_recovery(scheme) -> bool:
    states = getattr(scheme, "states", None)
    if not states:
        return False
    return any(state.fsm.state is not FsmState.S_OFF for state in states.values())


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.scenario:
        net, scheme = build_scenario(args.scenario, t_dd=args.t_dd)
    else:
        net = SimSpec(
            width=args.width,
            height=args.height,
            link_faults=args.link_faults,
            scheme=args.scheme,
            pattern=args.pattern,
            rate=args.rate,
            sb_t_dd=args.t_dd or 34,
            seed=args.seed,
        ).build_network()
        scheme = net.scheme
    obs = Observer(ring_capacity=args.ring, sample_every=args.sample_every)
    net.attach_obs(obs)
    for _ in range(args.cycles):
        net.step()
        if (
            args.scenario
            and net.is_drained()
            and not _scheme_in_recovery(scheme)
        ):
            break  # scenario fully drained and every recovery closed out
    obs.finalize(net)
    events = obs.events
    print(f"{len(events)} events buffered over {net.cycle} cycles")
    if args.jsonl:
        write_jsonl(events, args.jsonl)
        print(f"wrote JSONL trace: {args.jsonl}")
    if args.chrome:
        write_chrome_trace(events, args.chrome)
        print(f"wrote Chrome trace (chrome://tracing / Perfetto): {args.chrome}")
    transcripts = obs.transcripts()
    if transcripts:
        print(f"\n{len(transcripts)} recovery transcript(s):")
        for transcript in transcripts:
            print(transcript.describe(with_events=args.events))
    else:
        print("\nno recoveries observed")
    if obs.metrics is not None and not obs.metrics.is_empty:
        print("\nmetrics:")
        for line in obs.metrics.summary_lines():
            print("  " + line)
    return 0


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    """The flags that name one :class:`SimSpec` (``simulate``, ``submit``,
    ``predict``); ``_simulate_spec_from_args`` reads them back."""
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--height", type=int, default=8)
    p.add_argument(
        "--topology",
        default=None,
        metavar="SPEC",
        help="non-mesh topology (mesh3d:XxYxZ, torus3d:XxYxZ, "
        "circulant:N,S1,S2, fullmesh:N); overrides --width/--height",
    )
    p.add_argument("--link-faults", type=int, default=0)
    p.add_argument("--router-faults", type=int, default=0)
    p.add_argument("--scheme", choices=sorted(SCHEMES), default="static-bubble")
    p.add_argument("--pattern", choices=sorted(PATTERNS), default="uniform_random")
    p.add_argument("--rate", type=float, default=0.05)
    p.add_argument("--warmup", type=int, default=500)
    p.add_argument("--cycles", type=int, default=2000)
    p.add_argument("--vcs", type=int, default=4, help="VCs per vnet per port")
    p.add_argument("--t-dd", type=int, default=34, help="SB detection threshold")
    p.add_argument("--seed", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Static Bubble (HPCA 2017) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("placement", help="print a static-bubble placement map")
    p.add_argument("width", type=int)
    p.add_argument("height", type=int)
    p.set_defaults(func=_cmd_placement)

    p = sub.add_parser("schemes", help="list deadlock-freedom schemes")
    p.set_defaults(func=_cmd_schemes)

    p = sub.add_parser("simulate", help="run one simulation")
    _add_spec_args(p)
    p.add_argument(
        "--monitor", action="store_true", help="run the deadlock oracle alongside"
    )
    p.add_argument(
        "--verify-first",
        action="store_true",
        help="certify the scheme's deadlock-freedom claim before simulating; "
        "abort with exit code 1 (and the counterexample) on failure",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the result/stats payload as JSON (the same shape the "
        "service store persists)",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="profile the measured run with cProfile and print the top 25 "
        "functions by cumulative time to stderr",
    )
    p.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="with --profile: also dump the raw pstats data to PATH "
        "(inspect with `python -m pstats PATH`)",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "verify",
        help="machine-check a scheme's deadlock-freedom claim (CDG "
        "certificate; optionally the protocol model check)",
    )
    p.add_argument("--mesh", default="8x8", help="mesh dimensions, WxH")
    p.add_argument(
        "--topology",
        default=None,
        metavar="SPEC",
        help="non-mesh topology (mesh3d:XxYxZ, torus3d:XxYxZ, "
        "circulant:N,S1,S2, fullmesh:N); overrides --mesh",
    )
    p.add_argument("--scheme", choices=sorted(SCHEMES), default="static-bubble")
    p.add_argument("--link-faults", type=int, default=0)
    p.add_argument("--router-faults", type=int, default=0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--drop-bubble",
        action="append",
        default=None,
        metavar="X,Y",
        help="remove the static bubble at (X,Y) from the placement "
        "(repeatable; static-bubble only) — mutation testing the cover",
    )
    p.add_argument(
        "--model-check",
        choices=sorted(SCENARIOS),
        default=None,
        help="additionally run the exhaustive recovery-protocol model "
        "check on this scenario",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the certificate(s) as JSON"
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("experiment", help="run a paper experiment")
    p.add_argument("name", help="fig2|fig3|fig8|fig9|fig10|fig11|fig12|fig13|table1")
    p.add_argument(
        "--full",
        action="store_true",
        help="paper-scale parameters (hours) instead of quick mode",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the sweep "
        "(default: $REPRO_WORKERS, else cpu_count()-1; 1 = serial)",
    )
    p.add_argument(
        "--obs",
        action="store_true",
        help="collect observability metrics (merged across workers) "
        "and print them after the report",
    )
    p.add_argument(
        "--cached",
        action="store_true",
        help="memoize every sweep cell through the content-addressed "
        "result store ($REPRO_STORE); warm reruns become cache hits",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the params + result dataclasses as JSON via the "
        "shared serializer instead of the report table",
    )
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "serve",
        help="run the HTTP campaign server (content-addressed result "
        "store + deduplicating job queue)",
        # No prefix matching: the deleted ``--shard`` must not silently
        # become ``--shard-map``.
        allow_abbrev=False,
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument(
        "--store",
        action="append",
        metavar="DIR",
        help="result store root (default: $REPRO_STORE or ~/.cache/repro); "
        "repeat for a consistent-hash sharded store over several roots",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="simulation worker processes (default: $REPRO_WORKERS, else cpu_count()-1)",
    )
    p.add_argument(
        "--max-depth",
        type=int,
        default=256,
        help="bound on pending+running jobs; past it POST /jobs returns 429",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job wall-clock timeout in seconds (enforced in pool workers)",
    )
    p.add_argument(
        "--retries", type=int, default=1, help="retries per failed job (with backoff)"
    )
    p.add_argument(
        "--record-ttl",
        type=float,
        default=3600.0,
        help="seconds a finished job record stays queryable via GET /jobs "
        "before pruning (results persist in the store regardless); "
        "<= 0 keeps records forever",
    )
    p.add_argument(
        "--no-surrogate",
        action="store_true",
        help="disable the surrogate fast lane (mode surrogate/auto "
        "submissions then always simulate)",
    )
    p.add_argument(
        "--shard-map",
        default=None,
        metavar="FILE",
        help="declarative shard map JSON (see `repro shards`); overrides --store",
    )
    p.add_argument(
        "--replicas",
        type=int,
        default=2,
        help="copies of each result when --store is repeated (ignored "
        "with --shard-map, which carries its own)",
    )
    p.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="seconds a claimed job's lease lasts without a heartbeat "
        "before it is requeued",
    )
    p.add_argument(
        "--no-local-exec",
        action="store_true",
        help="do not execute jobs in this process; jobs wait for "
        "`repro worker` claims",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "worker",
        help="pull-execute-report worker against a campaign server "
        "(at-least-once leases, idempotent completion)",
    )
    p.add_argument("--url", default="http://127.0.0.1:8765")
    p.add_argument(
        "--id", default=None, help="worker identity (default: host-pid-nonce)"
    )
    p.add_argument(
        "--max-jobs",
        type=int,
        default=4,
        help="jobs to claim per long-poll cycle",
    )
    p.add_argument(
        "--wait",
        type=float,
        default=15.0,
        help="long-poll window per claim request in seconds",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="local processes fanned over each claimed batch "
        "(1 = execute in-process)",
    )
    p.add_argument(
        "--max-idle",
        type=int,
        default=0,
        help="exit after this many consecutive empty claims "
        "(<= 0 pulls forever)",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress per-batch stats lines"
    )
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser("shards", help="inspect or rebalance a sharded result store")
    p.add_argument(
        "action",
        choices=("status", "rebalance"),
        help="status = per-shard reachability/blob counts; rebalance = "
        "move blobs to their consistent-hash owners after a map change",
    )
    p.add_argument("--map", required=True, metavar="FILE", help="shard map JSON file")
    p.add_argument(
        "--prune",
        action="store_true",
        help="rebalance only: delete blobs from shards that no longer "
        "own them (after copying)",
    )
    p.add_argument("--json", action="store_true", help="print the raw report")
    p.set_defaults(func=_cmd_shards)

    p = sub.add_parser(
        "submit",
        help="submit one simulation spec to a running campaign server",
    )
    p.add_argument("--url", default="http://127.0.0.1:8765")
    _add_spec_args(p)
    p.add_argument(
        "--mode",
        choices=("exact", "surrogate", "auto"),
        default="exact",
        help="answer lane: exact = always simulate; surrogate = always "
        "answer from the calibrated analytical model; auto = surrogate "
        "when its error bound clears the gate, else simulate",
    )
    p.add_argument("--priority", type=int, default=0)
    p.add_argument(
        "--wait",
        action="store_true",
        help="poll the job to completion and print the result",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="--wait polling deadline in seconds",
    )
    p.add_argument("--json", action="store_true", help="print the raw JSON payload")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "predict",
        help="answer one spec from the local calibrated surrogate "
        "(microsecond analytical model; no server, no simulation)",
    )
    _add_spec_args(p)
    p.add_argument(
        "--store",
        default=None,
        help="result store to calibrate from (default: $REPRO_STORE or "
        "~/.cache/repro)",
    )
    p.add_argument(
        "--refresh",
        action="store_true",
        help="re-harvest the store and refit the calibration table first",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the full surrogate payload (result + error bound + "
        "provenance) as JSON",
    )
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser(
        "chaos",
        help="random live-fault campaigns with packet-conservation checks",
    )
    p.add_argument(
        "--full",
        action="store_true",
        help="8x8 mesh, more/longer campaigns instead of the quick smoke",
    )
    p.add_argument("--campaigns", type=int, default=None, help="schedules per scheme")
    p.add_argument("--events", type=int, default=None, help="fault events per schedule")
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: $REPRO_WORKERS, else cpu_count()-1)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless every campaign drained with zero unaccounted packets",
    )
    p.add_argument(
        "--verify-first",
        action="store_true",
        help="certify every scheme's deadlock-freedom claim on the healthy "
        "mesh before the campaigns; abort with exit code 1 on failure",
    )
    p.add_argument(
        "--verify-reconfig",
        action="store_true",
        help="re-certify after every mid-run reconfiguration; failed "
        "certificates fail the campaign verdict",
    )
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("trace", help="run with the tracing observer and export traces")
    p.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        default=None,
        help="hand-constructed deadlock scenario (default: synthetic traffic)",
    )
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--height", type=int, default=8)
    p.add_argument("--link-faults", type=int, default=0)
    p.add_argument("--scheme", choices=sorted(SCHEMES), default="static-bubble")
    p.add_argument("--pattern", default="uniform_random")
    p.add_argument("--rate", type=float, default=0.05)
    p.add_argument("--cycles", type=int, default=2000)
    p.add_argument(
        "--t-dd", type=int, default=None, help="SB detection threshold override"
    )
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--ring", type=int, default=65536, help="event ring-buffer capacity"
    )
    p.add_argument(
        "--sample-every", type=int, default=64, help="metrics sampling cadence"
    )
    p.add_argument("--jsonl", default=None, help="write the event log as JSONL")
    p.add_argument(
        "--chrome",
        default=None,
        help="write a Chrome trace_event file (chrome://tracing, Perfetto)",
    )
    p.add_argument(
        "--events",
        action="store_true",
        help="print every event of each recovery transcript",
    )
    p.set_defaults(func=_cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
