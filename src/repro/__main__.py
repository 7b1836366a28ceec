"""Command-line interface: compile OpenQASM files with qubit reuse.

Usage examples (kept in sync with the argparse tree below; the README's
CLI section mirrors these and ``tests/test_docs.py`` parses both)::

    python -m repro compile circuit.qasm --mode max_reuse
    python -m repro compile circuit.qasm --mode min_swap --backend mumbai \
        --output compiled.qasm --draw
    python -m repro compile bv_20 --cache          # content-addressed cache
    python -m repro compile bv_20 --cache --calib-bands 2   # drift-banded key
    python -m repro compile bv_20 --server http://127.0.0.1:8787
    python -m repro compile bv_5 --strategy portfolio --objective qubits
    python -m repro compile bv_10 --strategy chain
    python -m repro compile bv_10 --strategy chain --backend iontrap32 \
        --mode min_swap
    python -m repro compile bv_20 --backend eagle127 --mode min_swap
    python -m repro backends                       # list the device registry
    python -m repro drift-replay bv_5 --device ibm_mumbai --steps 12 --bands 2
    python -m repro serve --port 8787 --cache-dir /tmp/caqr-cache
    python -m repro serve --port 8787 --disk-entries 10000 \
        --request-log /tmp/caqr-requests.jsonl
    python -m repro serve --port 8787 --auth-token secret \
        --tls-cert cert.pem --tls-key key.pem
    python -m repro gateway --backend http://127.0.0.1:8787 \
        --backend http://127.0.0.1:8788 --port 8786
    python -m repro sweep circuit.qasm --backend mumbai
    python -m repro benchmarks            # list bundled benchmark names
    python -m repro cache stats           # inspect the on-disk cache
    python -m repro cache stats --server http://127.0.0.1:8787
    python -m repro cache clear
    python -m repro cache clear --key <fingerprint>
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from repro.analysis import format_table
from repro.circuit import parse_qasm, to_qasm
from repro.compile_api import caqr_compile
from repro.core import assess_reuse_benefit, sweep_regular
from repro.exceptions import ReproError
from repro.hardware import (
    Backend,
    backend_from_json,
    device_names,
    device_profile,
    get_device,
    ibm_mumbai,
)
from repro.workloads import benchmark_names, get_benchmark, qasm_benchmark_names

__all__ = ["main"]


def _load_backend(spec: Optional[str]) -> Optional[Backend]:
    if spec is None:
        return None
    if spec == "mumbai":
        return ibm_mumbai()
    if spec in device_names():
        return get_device(spec)
    with open(spec) as handle:
        return backend_from_json(handle.read())


def _load_circuit(path: str):
    if path.endswith(".qasm"):
        with open(path) as handle:
            return parse_qasm(handle.read())
    # convenience: bundled benchmark names work in place of files
    return get_benchmark(path)


def _cache_spec(args: argparse.Namespace):
    """Map --server/--cache/--cache-dir onto ``caqr_compile``'s ``cache=``.

    A ``--server URL`` routes the compile through a running ``repro
    serve`` instance (``resolve_cache`` turns the URL into a
    :class:`~repro.service.net.client.RemoteCompileService`)."""
    if getattr(args, "server", None):
        return args.server
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    return bool(getattr(args, "cache", False))


def _cmd_compile(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    backend = _load_backend(args.backend)
    report = caqr_compile(
        circuit,
        backend=backend,
        mode=args.mode,
        qubit_limit=args.qubit_limit,
        reset_style=args.reset_style,
        cache=_cache_spec(args),
        strategy=args.strategy,
        objective=args.objective,
        calib_bands=args.calib_bands,
    )
    metrics = report.metrics
    rows = [
        ["qubits used", metrics.qubits_used],
        ["depth", metrics.depth],
        ["duration (dt)", metrics.duration_dt],
        ["SWAPs", metrics.swap_count],
        ["2Q gates", metrics.two_qubit_count],
        ["reuse resets", metrics.reuse_resets],
        ["qubit saving", f"{report.qubit_saving:.0%}"],
        ["reuse beneficial", report.reuse_beneficial],
    ]
    if report.strategy is not None:
        rows.append(["winning strategy", report.strategy])
        if report.optimality_gap is not None:
            rows.append(["optimality gap", report.optimality_gap])
        if report.exact_optimal is not None:
            rows.append(["oracle optimal", report.exact_optimal])
    if _cache_spec(args):
        rows.append(["served from cache", report.from_cache])
    print(format_table(["metric", "value"], rows, title=f"mode={report.mode}"))
    if args.draw:
        print()
        print(report.circuit.draw())
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(to_qasm(report.circuit))
        print(f"\nwrote {args.output}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    backend = _load_backend(args.backend)
    from repro.core import sweep_commuting
    from repro.core.structure import extract_commuting_structure

    structure = extract_commuting_structure(circuit)
    if (
        structure is not None
        and structure.uniform_gamma() is not None
        and structure.uniform_beta() is not None
    ):
        print("(recognised a commuting QAOA circuit — using the "
              "commuting-gate pipeline)\n")
        points = sweep_commuting(
            structure.graph,
            backend=backend,
            gamma=structure.uniform_gamma(),
            beta=structure.uniform_beta(),
        )
    else:
        points = sweep_regular(circuit, backend=backend)
    rows = []
    for point in points:
        rows.append(
            [
                point.qubits,
                point.logical_depth,
                point.compiled_depth if point.compiled_depth is not None else "-",
                point.swap_count if point.swap_count is not None else "-",
            ]
        )
    print(
        format_table(
            ["qubits", "logical depth", "compiled depth", "swaps"],
            rows,
            title=f"qubit-reuse tradeoff sweep: {args.circuit}",
        )
    )
    report = assess_reuse_benefit(points)
    print(
        f"\nreuse beneficial: {report.beneficial} "
        f"(floor {report.minimum_qubits} qubits, "
        f"max saving {report.saving_fraction:.0%})"
    )
    return 0


def _cmd_benchmarks(_args: argparse.Namespace) -> int:
    print("regular benchmarks:", ", ".join(benchmark_names()))
    print("QASM assets:", ", ".join(qasm_benchmark_names()))
    print("QAOA instances: qaoa<N>-<density>, e.g. qaoa10-0.3")
    return 0


def _cmd_backends(_args: argparse.Namespace) -> int:
    rows = []
    for name in device_names():
        profile = device_profile(name)
        coupling = profile.coupling()
        rows.append(
            [
                name,
                profile.family,
                coupling.num_qubits,
                len(coupling.edges),
                profile.description,
            ]
        )
    print(
        format_table(
            ["name", "family", "qubits", "links", "description"],
            rows,
            title="device registry (see docs/BACKENDS.md)",
        )
    )
    return 0


def _cmd_drift_replay(args: argparse.Namespace) -> int:
    from repro.service.driftreplay import replay_drift

    circuit = _load_circuit(args.circuit)
    backend = _load_backend(args.device)
    if backend is None:
        raise ReproError("drift-replay needs --device")
    result = replay_drift(
        circuit,
        backend,
        steps=args.steps,
        volatility=args.volatility,
        calib_bands=args.bands,
        seed=args.seed,
        mode=args.mode,
        qubit_limit=args.qubit_limit,
    )
    rows = [
        ["steps", result.steps],
        ["calib bands", result.calib_bands],
        ["volatility", result.volatility],
        ["banded hit rate", f"{result.banded_hit_rate:.0%} "
         f"({result.banded_hits}/{result.banded_hits + result.banded_misses})"],
        ["exact hit rate", f"{result.exact_hit_rate:.0%} "
         f"({result.exact_hits}/{result.exact_hits + result.exact_misses})"],
        ["hit uplift", f"{result.hit_uplift:.1f}x"],
        ["decision changes", result.decision_changes],
        ["shards touched (banded)", result.banded_shards],
        ["shards touched (exact)", result.exact_shards],
        ["ESP decay mean", f"{result.mean_esp_gap:.3g}"],
        ["ESP decay max", f"{result.max_esp_gap:.3g}"],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"drift replay: {args.circuit} on {args.device}",
        )
    )
    return 0


def _cache_directory(args: argparse.Namespace) -> str:
    directory = args.dir or os.environ.get("CAQR_CACHE_DIR")
    if not directory:
        raise ReproError(
            "no cache directory: pass --dir or set CAQR_CACHE_DIR"
        )
    return directory


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    from repro.service import SCHEMA_VERSION, DiskCache

    if getattr(args, "server", None):
        from repro.service import RemoteCompileService

        payload = RemoteCompileService(args.server).stats()
        counters = payload.get("stats", {}).get("counters", {})
        rows = [["server", args.server]]
        rows.extend([name, counters[name]] for name in sorted(counters))
        for shard, usage in sorted(payload.get("shards", {}).items()):
            rows.append(
                [f"shard {shard}", f"{usage['entries']} entries, {usage['bytes']} B"]
            )
        print(format_table(["field", "value"], rows, title="compile service"))
        return 0
    store = DiskCache(_cache_directory(args))
    rows = [
        ["directory", store.directory],
        ["entries", len(store)],
        ["bytes", store.total_bytes],
        ["schema version", SCHEMA_VERSION],
    ]
    for shard, usage in sorted(store.shard_stats().items()):
        rows.append(
            [f"shard {shard}", f"{usage['entries']} entries, {usage['bytes']} B"]
        )
    print(format_table(["field", "value"], rows, title="compile cache"))
    return 0


def _cmd_cache_clear(args: argparse.Namespace) -> int:
    from repro.service import DiskCache

    key = getattr(args, "key", None)
    if getattr(args, "server", None):
        from repro.service import RemoteCompileService

        client = RemoteCompileService(args.server)
        if key:
            removed = client.invalidate(key)
            print(
                f"invalidated {key} on {args.server}"
                if removed
                else f"no entry {key} on {args.server}"
            )
        else:
            client.clear()
            print(f"cleared the cache on {args.server}")
        return 0
    store = DiskCache(_cache_directory(args))
    if key:
        removed = store.invalidate(key)
        print(f"removed {removed} entries for {key} from {store.directory}")
        return 0
    removed = store.clear()
    print(f"removed {removed} cache entries from {store.directory}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import run_server

    return run_server(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir or os.environ.get("CAQR_CACHE_DIR") or None,
        ttl=args.ttl,
        max_workers=args.workers,
        max_concurrency=args.max_concurrency,
        request_timeout=args.timeout,
        drain_timeout=args.drain_timeout,
        disk_entries=args.disk_entries,
        disk_bytes=args.disk_bytes,
        request_log=args.request_log,
        auth_token=args.auth_token,
        tls_cert=args.tls_cert,
        tls_key=args.tls_key,
    )


def _cmd_gateway(args: argparse.Namespace) -> int:
    from repro.service import run_gateway

    return run_gateway(
        backends=args.backend,
        host=args.host,
        port=args.port,
        vnodes=args.vnodes,
        mark_down_after=args.mark_down_after,
        probe_interval=args.probe_interval,
        pool_size=args.pool_size,
        request_timeout=args.timeout,
        auth_token=args.auth_token,
        backend_token=args.backend_token,
        tls_cert=args.tls_cert,
        tls_key=args.tls_key,
        backend_ca=args.backend_ca,
        backend_tls_insecure=args.backend_tls_insecure,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CaQR: compile quantum circuits with qubit reuse "
        "through dynamic circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_parser = sub.add_parser("compile", help="compile one circuit")
    compile_parser.add_argument(
        "circuit", help="OpenQASM 2 file (*.qasm) or bundled benchmark name"
    )
    compile_parser.add_argument(
        "--mode",
        default="min_depth",
        choices=["qubit_budget", "max_reuse", "min_depth", "min_swap"],
    )
    compile_parser.add_argument("--qubit-limit", type=int, default=None)
    compile_parser.add_argument(
        "--backend",
        default=None,
        help='"mumbai" or a backend-JSON file (required for min_swap)',
    )
    compile_parser.add_argument(
        "--reset-style", default="cif", choices=["cif", "builtin"]
    )
    compile_parser.add_argument(
        "--strategy",
        default="auto",
        choices=["auto", "portfolio", "chain"],
        help="'portfolio' races every engine (plus the exact oracle on "
        "small circuits) and keeps the objective-best result; 'chain' "
        "runs the beam-searched chain engine (dual-register trapped-ion "
        "cost model on all-to-all backends)",
    )
    compile_parser.add_argument(
        "--objective",
        default=None,
        choices=["qubits", "depth", "est_error"],
        help="winner criterion (est_error needs --backend); only valid "
        "with --strategy portfolio or chain",
    )
    compile_parser.add_argument("--output", default=None, help="write QASM here")
    compile_parser.add_argument(
        "--draw", action="store_true", help="print the ASCII circuit"
    )
    compile_parser.add_argument(
        "--cache",
        action="store_true",
        help="serve repeat compilations from the content-addressed cache "
        "(persistent when CAQR_CACHE_DIR is set)",
    )
    compile_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist the compile cache under DIR (implies --cache)",
    )
    compile_parser.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help="compile through a running `repro serve` instance "
        "(shared cross-process cache; overrides --cache/--cache-dir)",
    )
    compile_parser.add_argument(
        "--calib-bands",
        type=int,
        default=None,
        metavar="N",
        help="drift tolerance of the cache key: quantise calibration "
        "values into N bands per decade (default: $CAQR_CALIB_BANDS; "
        "0 = exact digests)",
    )
    compile_parser.set_defaults(func=_cmd_compile)

    sweep_parser = sub.add_parser(
        "sweep", help="print the qubit/depth/SWAP tradeoff sweep"
    )
    sweep_parser.add_argument(
        "circuit", help="OpenQASM 2 file (*.qasm) or bundled benchmark name"
    )
    sweep_parser.add_argument(
        "--backend",
        default=None,
        help='"mumbai" or a backend-JSON file (adds compiled depth/SWAP '
        "columns)",
    )
    sweep_parser.set_defaults(func=_cmd_sweep)

    benchmarks_parser = sub.add_parser("benchmarks", help="list bundled circuits")
    benchmarks_parser.set_defaults(func=_cmd_benchmarks)

    backends_parser = sub.add_parser(
        "backends", help="list the synthetic device registry"
    )
    backends_parser.set_defaults(func=_cmd_backends)

    drift_parser = sub.add_parser(
        "drift-replay",
        help="replay a calibration-drift series through the compile cache "
        "and report hit-rate uplift, decision stability, and ESP decay",
    )
    drift_parser.add_argument(
        "circuit", help="OpenQASM 2 file (*.qasm) or bundled benchmark name"
    )
    drift_parser.add_argument(
        "--device",
        default="ibm_mumbai",
        help="registry device name, \"mumbai\", or a backend-JSON file",
    )
    drift_parser.add_argument(
        "--steps", type=int, default=12, help="snapshots in the drift series"
    )
    drift_parser.add_argument(
        "--volatility", type=float, default=0.01,
        help="per-step stddev of log(value) for the random walk",
    )
    drift_parser.add_argument(
        "--bands", type=int, default=2,
        help="calibration bands per decade for the banded lane",
    )
    drift_parser.add_argument(
        "--seed", type=int, default=7, help="drift random-walk seed"
    )
    drift_parser.add_argument(
        "--mode",
        default="min_depth",
        choices=["qubit_budget", "max_reuse", "min_depth", "min_swap"],
    )
    drift_parser.add_argument("--qubit-limit", type=int, default=None)
    drift_parser.set_defaults(func=_cmd_drift_replay)

    cache_parser = sub.add_parser(
        "cache", help="inspect or clear the on-disk compile cache"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry count and byte totals of the store"
    )
    cache_stats.add_argument(
        "--dir", default=None, metavar="DIR",
        help="cache directory (default: $CAQR_CACHE_DIR)",
    )
    cache_stats.add_argument(
        "--server", default=None, metavar="URL",
        help="read /v1/stats from a running `repro serve` instance instead",
    )
    cache_stats.set_defaults(func=_cmd_cache_stats)
    cache_clear = cache_sub.add_parser(
        "clear", help="remove every entry (or one fingerprint with --key)"
    )
    cache_clear.add_argument(
        "--dir", default=None, metavar="DIR",
        help="cache directory (default: $CAQR_CACHE_DIR)",
    )
    cache_clear.add_argument(
        "--key", default=None, metavar="FINGERPRINT",
        help="invalidate one fingerprint instead of the whole store",
    )
    cache_clear.add_argument(
        "--server", default=None, metavar="URL",
        help="invalidate on a running `repro serve` instance instead",
    )
    cache_clear.set_defaults(func=_cmd_cache_clear)

    serve_parser = sub.add_parser(
        "serve", help="run the HTTP compile service (shared cache + dedup)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8787, help="0 picks a free port"
    )
    serve_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent cache directory (default: $CAQR_CACHE_DIR, "
        "else memory-only)",
    )
    serve_parser.add_argument(
        "--ttl", type=float, default=None, metavar="SECONDS",
        help="expire cache entries older than this",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=None,
        help="compile worker threads (default: cpu count, capped at 8)",
    )
    serve_parser.add_argument(
        "--max-concurrency", type=int, default=32,
        help="admitted compile requests before answering 429",
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="per-request compile timeout in seconds (answers 504)",
    )
    serve_parser.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds to wait for in-flight requests on shutdown",
    )
    serve_parser.add_argument(
        "--disk-entries", type=int, default=None, metavar="N",
        help="per-shard disk-cache entry cap (LRU eviction past it)",
    )
    serve_parser.add_argument(
        "--disk-bytes", type=int, default=None, metavar="BYTES",
        help="per-shard disk-cache byte cap (LRU eviction past it)",
    )
    serve_parser.add_argument(
        "--request-log", default=None, metavar="PATH",
        help="append one JSON record per request to PATH ('-' for stderr; "
        "default: $CAQR_REQUEST_LOG)",
    )
    serve_parser.add_argument(
        "--auth-token", default=None, metavar="TOKEN",
        help="require `Authorization: Bearer TOKEN` on every route except "
        "/v1/health (default: $CAQR_AUTH_TOKEN)",
    )
    serve_parser.add_argument(
        "--tls-cert", default=None, metavar="PEM",
        help="serve HTTPS with this certificate chain (needs --tls-key)",
    )
    serve_parser.add_argument(
        "--tls-key", default=None, metavar="PEM",
        help="private key for --tls-cert",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    gateway_parser = sub.add_parser(
        "gateway",
        help="front a fleet of `repro serve` backends with consistent-hash "
        "routing, health-driven failover, and peer cache fill",
    )
    gateway_parser.add_argument(
        "--backend", action="append", required=True, metavar="URL",
        help="backend base URL (repeat once per server)",
    )
    gateway_parser.add_argument("--host", default="127.0.0.1")
    gateway_parser.add_argument(
        "--port", type=int, default=8786, help="0 picks a free port"
    )
    gateway_parser.add_argument(
        "--vnodes", type=int, default=64,
        help="virtual nodes per backend on the hash ring",
    )
    gateway_parser.add_argument(
        "--mark-down-after", type=int, default=3,
        help="consecutive failures before a backend leaves the ring",
    )
    gateway_parser.add_argument(
        "--probe-interval", type=float, default=2.0, metavar="SECONDS",
        help="health re-probe cadence (jittered deterministically)",
    )
    gateway_parser.add_argument(
        "--pool-size", type=int, default=16,
        help="keep-alive connections per backend",
    )
    gateway_parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="per-proxied-request budget in seconds",
    )
    gateway_parser.add_argument(
        "--auth-token", default=None, metavar="TOKEN",
        help="require `Authorization: Bearer TOKEN` from clients "
        "(default: $CAQR_AUTH_TOKEN)",
    )
    gateway_parser.add_argument(
        "--backend-token", default=None, metavar="TOKEN",
        help="bearer token the gateway presents to backends "
        "(default: pass the client's Authorization header through)",
    )
    gateway_parser.add_argument(
        "--tls-cert", default=None, metavar="PEM",
        help="serve HTTPS with this certificate chain (needs --tls-key)",
    )
    gateway_parser.add_argument(
        "--tls-key", default=None, metavar="PEM",
        help="private key for --tls-cert",
    )
    gateway_parser.add_argument(
        "--backend-ca", default=None, metavar="PEM",
        help="CA bundle for verifying https:// backends",
    )
    gateway_parser.add_argument(
        "--backend-tls-insecure", action="store_true",
        help="skip certificate verification toward https:// backends",
    )
    gateway_parser.set_defaults(func=_cmd_gateway)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
