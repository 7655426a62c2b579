"""casa-mini command line.

    casa-mini facility up --config facility.json
    casa-mini login --assertion assertion.json --authd HOST:PORT
    casa-mini cluster up [--workers N | --adaptive]
    casa-mini submit --pipeline pipeline.json --dataset NAME-or-manifest
    casa-mini bench --out sweep.csv [--config bench.json] [--streams-dir DIR]
    casa-mini stalls --stream stream.csv [--out stalls.csv]

Login writes the credential bundle under $CASA_HOME (default ~/.casa-mini);
cluster/submit commands read it back from there.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

from . import client
from .bench import BenchConfig, oracle_throughput, run_adaptive, run_sweep, stall_report
from .data_proxy import ProxyClient
from .launcher import run_facility

DEFAULT_HOME = os.path.join(os.path.expanduser("~"), ".casa-mini")


def casa_home(args) -> str:
    return args.home or os.environ.get("CASA_HOME", DEFAULT_HOME)


def _addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host, int(port)


def _load_session(home: str) -> dict:
    path = os.path.join(home, "session.json")
    if not os.path.exists(path):
        raise SystemExit(f"no session at {path}; run `casa-mini login` first")
    with open(path) as fh:
        return json.load(fh)


def _scheduler_client(home: str, session: dict) -> client.SchedulerClient:
    cred = os.path.join(home, "credentials")
    return client.SchedulerClient(
        tuple(session["ingress"]),
        session["sni_hostname"],
        os.path.join(cred, "ca.pem"),
        os.path.join(cred, "user-cert.pem"),
        os.path.join(cred, "user-key.pem"),
    )


def cmd_facility(args) -> int:
    asyncio.run(run_facility(args.config))
    return 0


def cmd_login(args) -> int:
    with open(args.assertion) as fh:
        assertion = json.load(fh)
    reply = asyncio.run(client.login(_addr(args.authd), assertion))
    home = casa_home(args)
    cred = os.path.join(home, "credentials")
    os.makedirs(cred, exist_ok=True)
    for name, key in (
        ("ca.pem", "ca_cert"),
        ("host-cert.pem", "host_cert"),
        ("user-cert.pem", "user_cert"),
        ("user-key.pem", "user_key"),
        ("batch.token", "batch_token"),
        ("data.token", "data_token"),
    ):
        with open(os.path.join(cred, name), "w") as fh:
            fh.write(reply[key])
    session = {
        "subject": reply["subject"],
        "cluster_id": reply["cluster_id"],
        "sni_hostname": reply["sni_hostname"],
        "ingress": reply["ingress"],
        "data_proxy": reply["data_proxy"],
    }
    with open(os.path.join(home, "session.json"), "w") as fh:
        json.dump(session, fh, indent=1)
    print(f"logged in as {reply['subject']}; cluster {reply['cluster_id']} at {reply['sni_hostname']}")
    print(f"credentials written under {cred}")
    return 0


def cmd_cluster(args) -> int:
    home = casa_home(args)
    session = _load_session(home)
    sc = _scheduler_client(home, session)

    async def go():
        # Close inside the coroutine: a TLS stream's shutdown runs on the
        # loop, and asyncio.run has closed the loop once it returns.
        try:
            if args.adaptive:
                return await sc.scale_request(mode="adaptive")
            return await sc.scale_request(mode="fixed", fixed_n=args.workers)
        finally:
            await sc.aclose()

    reply = asyncio.run(go())
    print(f"scale policy: {reply}")
    return 0


def _resolve_dataset(args, home: str, session: dict) -> dict:
    if os.path.exists(args.dataset):
        with open(args.dataset) as fh:
            return json.load(fh)
    with open(os.path.join(home, "credentials", "data.token")) as fh:
        token = fh.read().strip()
    proxy = ProxyClient(tuple(session["data_proxy"]))
    try:
        manifest_path = f"/store/datasets/{args.dataset}.json"
        raw = b""
        while True:
            (piece,) = proxy.fetch(manifest_path, [(len(raw), 65536)], token)
            raw += piece
            if len(piece) < 65536:
                break
        return json.loads(raw.decode())
    finally:
        proxy.close()


def cmd_submit(args) -> int:
    home = casa_home(args)
    session = _load_session(home)
    with open(args.pipeline) as fh:
        pipeline = json.load(fh)
    manifest = _resolve_dataset(args, home, session)
    sc = _scheduler_client(home, session)

    async def go():
        try:
            job_id = await sc.submit_job(
                pipeline,
                manifest["name"],
                manifest["files"],
                manifest["events_per_file"],
                chunk_size=args.chunk_size,
            )
            print(f"submitted {job_id} ({sum(manifest['events_per_file'])} events)")
            return await sc.wait_job(job_id, timeout=args.timeout)
        finally:
            await sc.aclose()

    status = asyncio.run(go())
    print(
        f"job {status['job_id']}: {status['state']} "
        f"(events in {status['n_events_in']}, pass {status['n_events_pass']})"
    )
    if status["state"] == "failed":
        print(f"error: {status['error']}")
    if status["state"] == "done" and args.out:
        with open(args.out, "w") as fh:
            json.dump(status["histograms"], fh, indent=1)
        print(f"histograms written to {args.out}")
    return 0 if status["state"] == "done" else 1


def cmd_bench(args) -> int:
    if args.config:
        with open(args.config) as fh:
            cfg = BenchConfig.from_json(json.load(fh))
    else:
        cfg = BenchConfig()
    if args.data_root:
        cfg.data_root = args.data_root
    root = cfg.data_root
    result = run_sweep(cfg, root)
    with open(args.out, "w") as fh:
        fh.write(result.csv_text)
    print(f"{'n':>4} {'mean_hz':>12} {'std_hz':>9} {'oracle_hz':>12} {'ratio':>7}")
    for point in result.points:
        oracle = oracle_throughput(point.n, cfg)
        print(
            f"{point.n:>4} {point.mean_hz:>12.1f} {point.std_hz:>9.3f} "
            f"{oracle:>12.1f} {point.mean_hz / oracle:>7.4f}"
        )
    print(f"sweep written to {args.out}")
    if args.streams_dir:
        os.makedirs(args.streams_dir, exist_ok=True)
        for (n, run), text in result.streams.items():
            with open(os.path.join(args.streams_dir, f"stream-n{n}-r{run}.csv"), "w") as fh:
                fh.write(text)
        print(f"task streams written to {args.streams_dir}")
    if not args.skip_adaptive:
        job, facility = run_adaptive(cfg, root)
        first = next(e for e in facility.state.events if e.kind == "ScaleDecision")
        print(f"adaptive run: {first.detail}; job {job.state}")
    return 0


def cmd_stalls(args) -> int:
    with open(args.stream) as fh:
        report = stall_report(fh.read())
    print(f"{'worker_id':>20} {'up_t':>10} {'first_task_t':>13} {'stall_s':>8}")
    for worker_id, up_t, first_t, stall in report.rows:
        print(f"{worker_id:>20} {up_t:>10.3f} {first_t:>13.3f} {stall:>8.3f}")
    if report.taskless:
        print(f"workers without tasks: {', '.join(w for w, _ in report.taskless)}")
    print(f"max stall {report.max_stall:.3f} s; linear trend {report.trend_slope:.3f} s/worker")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_csv())
        print(f"stall profile written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="casa-mini", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("facility", help="run the shared facility services")
    fsub = p.add_subparsers(dest="action", required=True)
    up = fsub.add_parser("up", help="start every service and run until interrupted")
    up.add_argument("--config", required=True, help="facility config JSON")
    up.set_defaults(fn=cmd_facility)

    p = sub.add_parser("login", help="verify an identity assertion and mint credentials")
    p.add_argument("--assertion", required=True, help="signed assertion JSON file")
    p.add_argument("--authd", required=True, help="authd address host:port")
    p.add_argument("--home", default=None, help="credential directory (default $CASA_HOME)")
    p.set_defaults(fn=cmd_login)

    p = sub.add_parser("cluster", help="control the logged-in user's cluster")
    csub = p.add_subparsers(dest="action", required=True)
    cup = csub.add_parser("up", help="set the worker scaling policy")
    group = cup.add_mutually_exclusive_group(required=True)
    group.add_argument("--workers", type=int, help="fixed worker count")
    group.add_argument("--adaptive", action="store_true", help="scale from queue length")
    cup.add_argument("--home", default=None)
    cup.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("submit", help="submit a pipeline over a dataset and wait")
    p.add_argument("--pipeline", required=True, help="pipeline JSON file")
    p.add_argument("--dataset", required=True, help="dataset name or manifest path")
    p.add_argument("--chunk-size", type=int, default=5000)
    p.add_argument("--timeout", type=float, default=300.0)
    p.add_argument("--out", default=None, help="write merged histograms JSON here")
    p.add_argument("--home", default=None)
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("bench", help="run the virtual-clock worker-scaling study")
    p.add_argument("--config", default=None, help="bench config JSON")
    p.add_argument("--out", required=True, help="sweep CSV output path")
    p.add_argument("--streams-dir", default=None, help="also dump per-run task streams")
    p.add_argument("--data-root", default=None, help="where to generate benchmark data")
    p.add_argument("--skip-adaptive", action="store_true")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("stalls", help="per-worker stall profile from a task stream CSV")
    p.add_argument("--stream", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_stalls)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
