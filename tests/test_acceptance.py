"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is asserted exactly as stated.
"""

import asyncio
import os
import random
import time

import numpy as np
import pytest

from casa_mini import cacf, certs, client, tokens, wire
from casa_mini.batchsim import JobSpec
from casa_mini.bench import (
    BENCH_PIPELINE,
    BenchConfig,
    fixed_policy,
    make_context,
    oracle_throughput,
    run_once,
    run_sweep,
    stall_report,
)
from casa_mini.engine.pipeline import KernelPipeline, run_pipeline
from casa_mini.scheduler.state import ScalePolicy, autoscale_target, events_to_csv
from casa_mini.types import ColumnBatch

from .conftest import make_assertion, run_async
from .oracles import blocks_for_ranges
from .test_facility import small_facility, write_client_creds, scheduler_client

PASS = "ACCEPTANCE {num} {name}: PASS ({detail})"


def _ok(num, name, detail=""):
    print(PASS.format(num=num, name=name, detail=detail))


def _single_batch_oracle(ctx, root):
    local = [
        f.replace("root://origin.sim//store/", os.path.join(root, "store") + "/")
        for f in ctx.dataset.files
    ]
    pipeline = KernelPipeline.from_json(BENCH_PIPELINE)
    wanted = sorted(pipeline.input_columns())
    cols = {n: np.concatenate([cacf.read_columns_path(p)[n] for p in local]) for n in wanted}
    (result,) = run_pipeline(ColumnBatch(cols), pipeline).results
    return result


def _hists_equal(merged: dict, oracle) -> bool:
    want = {h.name: h for h in oracle.histograms}
    if set(merged) != set(want):
        return False
    for name, h in merged.items():
        w = want[name]
        if not np.array_equal(h.counts, w.counts):
            return False
        if (h.underflow, h.overflow, h.n_filled) != (w.underflow, w.overflow, w.n_filled):
            return False
    return True


# ---- 1. scaling curve (Fig. 4 analogue) ------------------------------------------


def test_criterion_1_scaling_curve(bench_cfg, bench_root):
    t0 = time.perf_counter()
    result = run_sweep(bench_cfg, bench_root)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s, budget is 60s"

    assert [p.n for p in result.points] == [2, 5, 10, 15, 20, 26]
    for point in result.points:
        oracle = oracle_throughput(point.n, bench_cfg)
        assert point.mean_hz == pytest.approx(oracle, rel=0.10), (
            f"n={point.n}: measured {point.mean_hz:.1f} vs oracle {oracle:.1f}"
        )
        assert point.std_hz == 0.0, f"n={point.n}: nonzero std with zero jitter"
        assert len(point.runs) == 5
    means = [p.mean_hz for p in result.points]
    measured_argmax = result.points[int(np.argmax(means))].n
    assert 12 <= measured_argmax <= 18
    oracle_argmax = max(range(1, 51), key=lambda n: oracle_throughput(n, bench_cfg))
    assert oracle_argmax == 15
    _ok(
        1,
        "scaling curve",
        f"all means within 10% of oracle, argmax={measured_argmax}, std=0, {elapsed:.1f}s wall",
    )


# ---- 2. result correctness ---------------------------------------------------------


def test_criterion_2_result_correctness(bench_cfg, bench_ctx, bench_root):
    t0 = time.perf_counter()
    oracle = _single_batch_oracle(bench_ctx, bench_root)
    checked = []
    for n, kill_plan in ((1, None), (5, None), (5, [(9.0, "w0003")])):
        job, _ = run_once(bench_ctx, fixed_policy(n, bench_cfg), kill_plan=kill_plan)
        assert job.state == "done"
        assert _hists_equal(job.merged, oracle), f"n={n} kill={kill_plan}: merged != oracle"
        assert job.n_events_pass == oracle.n_events_pass
        checked.append((n, bool(kill_plan)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"correctness runs took {elapsed:.1f}s, budget is 30s"
    _ok(2, "result correctness", f"bit-exact merges for {checked}, {elapsed:.1f}s wall")


# ---- 3. autoscaler --------------------------------------------------------------------


def test_criterion_3_autoscaler():
    policy = ScalePolicy(tasks_per_worker=4, n_min=0, n_max=50)
    assert autoscale_target(104, 0, policy) == 26

    rng = random.Random(20260810)
    for _ in range(1000):
        rho = rng.randint(1, 32)
        n_min = rng.randint(0, 8)
        n_max = n_min + rng.randint(0, 64)
        p = ScalePolicy(tasks_per_worker=rho, n_min=n_min, n_max=n_max)
        q1, r1 = rng.randint(0, 5000), rng.randint(0, 500)
        dq, dr = rng.randint(0, 500), rng.randint(0, 50)
        lo = autoscale_target(q1, r1, p)
        hi = autoscale_target(q1 + dq, r1 + dr, p)
        assert n_min <= lo <= n_max and n_min <= hi <= n_max, "target escaped [n_min, n_max]"
        assert lo <= hi, "target not monotone in pending work"
    _ok(3, "autoscaler", "104 tasks @ rho=4 -> 26; 1000 random states monotone and clamped")


# ---- 4. stall profile (Fig. 5 analogue) --------------------------------------------------


def test_criterion_4_stall_profile(bench_cfg, bench_ctx):
    reports = {}
    for n in (5, 26):
        _, facility = run_once(bench_ctx, fixed_policy(n, bench_cfg))
        reports[n] = stall_report(events_to_csv(facility.state.events))
    r5, r26 = reports[5], reports[26]
    # stall grows linearly across the scale-up wave: slope c, zero residuals
    stalls = [row[3] for row in r26.rows]
    xs = np.arange(len(stalls))
    fit = np.polyfit(xs, stalls, 1)
    residuals = np.asarray(stalls) - np.polyval(fit, xs)
    assert fit[0] == pytest.approx(bench_cfg.c, rel=1e-6)
    assert np.max(np.abs(residuals)) < 1e-9
    assert r26.max_stall > r5.max_stall
    _ok(
        4,
        "stall profile",
        f"slope {fit[0]:.3f} = c, max stall n=26 {r26.max_stall:.1f}s > n=5 {r5.max_stall:.1f}s",
    )


# ---- 5. SNI ingress ------------------------------------------------------------------------


def test_criterion_5_sni_ingress(idp_keys, tmp_path):
    from .test_ingress import EchoBackend, _echo_roundtrip, reference_client_hello

    async def scenario():
        facility, dataset, epf = small_facility(idp_keys, tmp_path)
        addrs = await facility.start()
        try:
            # three provisioned clusters behind the one listen address
            replies = {}
            for sub in ("alice", "bob", "carol"):
                replies[sub] = await client.login(addrs["authd"], make_assertion(idp_keys, sub=sub))
            assert len(facility.sni.routes) == 3
            ingress = addrs["ingress"]
            assert all(tuple(r["ingress"]) == ingress for r in replies.values())

            # full mTLS handshakes through the proxy to every scheduler;
            # per-cluster CAs mean a misroute could not even complete a handshake
            async def probe(sub):
                creds = write_client_creds(replies[sub], str(tmp_path / f"{sub}-creds"))
                sc = scheduler_client(replies[sub], creds)
                with pytest.raises(wire.RequestError, match="unknown job"):
                    await sc.job_status("job-9999")
                sc.close()

            await asyncio.gather(*(probe(s) for s in ("alice", "bob", "carol")))

            # 100 concurrent tagged-echo connections across 3 extra routes
            ca = certs.make_ca("echo-ca")
            ca_path = str(tmp_path / "echo-ca.pem")
            with open(ca_path, "w") as fh:
                fh.write(ca.cert_pem)
            hostnames = [f"echo{i}.dask.local" for i in range(3)]
            backends = []
            for i, hostname in enumerate(hostnames):
                backend = EchoBackend(f"b{i}", str(tmp_path), ca, hostname)
                facility.sni.routes.register(hostname, await backend.start())
                backends.append(backend)
            rng = random.Random(99)
            payloads = [(i, rng.randbytes(rng.randint(16, 2048))) for i in range(100)]

            async def echo_one(i, payload):
                tag, echoed = await _echo_roundtrip(ingress, hostnames[i % 3], ca_path, payload)
                assert tag == f"tag:b{i % 3}" and echoed == payload

            await asyncio.gather(*(echo_one(i, p) for i, p in payloads))
            assert sum(b.connections for b in backends) == 100

            # unknown SNI and non-TLS bytes: closed without backend contact
            before = sum(b.connections for b in backends)
            reader, writer = await asyncio.open_connection(*ingress)
            writer.write(reference_client_hello("nobody.dask.local"))
            assert await reader.read() == b""
            writer.close()
            reader, writer = await asyncio.open_connection(*ingress)
            writer.write(b"GET / HTTP/1.0\r\n\r\n")
            assert await reader.read() == b""
            writer.close()
            assert sum(b.connections for b in backends) == before
            for b in backends:
                await b.close()
        finally:
            await facility.stop()

    run_async(scenario())
    _ok(5, "SNI ingress", "3 clusters + 3 echo routes on one address, 100/100 tagged echoes, mTLS through proxy")


# ---- 6. auth -----------------------------------------------------------------------------------


def test_criterion_6_auth(idp_keys, tmp_path):
    async def scenario():
        facility, dataset, epf = small_facility(idp_keys, tmp_path)
        addrs = await facility.start()
        try:
            # non-member rejected
            with pytest.raises(wire.RequestError, match="not_member"):
                await client.login(addrs["authd"], make_assertion(idp_keys, sub="mallory", groups=("atlas",)))

            # member receives all three credentials
            reply = await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            assert reply["ca_cert"] and reply["user_cert"] and reply["user_key"]
            assert reply["batch_token"] and reply["data_token"]

            # credential 1: X.509 -> scheduler mTLS (submit a real job)
            creds = write_client_creds(reply, str(tmp_path / "alice-creds"))
            sc = scheduler_client(reply, creds)
            job_id = await sc.submit_job(
                BENCH_PIPELINE, "mini", list(dataset.files), epf, chunk_size=50
            )
            status = await sc.wait_job(job_id, timeout=30)
            assert status["state"] == "done"
            sc.close()

            # credential 2: batch token -> batch-sim submit
            handle = facility.batch_sim.submit(JobSpec(batch_token=reply["batch_token"]), time.time())
            assert handle > 0
            facility.batch_sim.cancel(handle, time.time())
            with pytest.raises(tokens.TokenError):  # signed with the data key, for the data audience
                facility.batch_sim.submit(JobSpec(batch_token=reply["data_token"]), time.time())

            # credential 3: data token -> proxy fetch
            path = "/store/mini/part00.cacf"
            (data,) = await facility.proxy.fetch(path, [(0, 64)], reply["data_token"])
            assert data[:4] == b"CACF"

            # single-byte tampering: every mutation of either token is rejected
            cases = 0
            for aud, token in (("batch", reply["batch_token"]), ("data", reply["data_token"])):
                key = facility.keys.for_aud(aud)
                assert tokens.verify_token(token, key, aud, time.time())
                raw = token.encode()
                for i in range(len(raw)):
                    for flip in (0x01, 0x02, 0x10, 0x20):
                        mutated = raw[:i] + bytes([raw[i] ^ flip]) + raw[i + 1 :]
                        if mutated == raw:
                            continue
                        with pytest.raises(tokens.TokenError):
                            tokens.verify_token(mutated.decode("latin-1"), key, aud, time.time())
                        cases += 1
            assert cases >= 1000
            return cases
        finally:
            await facility.stop()

    cases = run_async(scenario())
    _ok(6, "auth", f"member end-to-end on all 3 credentials, non-member rejected, {cases} tamper cases rejected")


# ---- 7. data proxy ---------------------------------------------------------------------------------


def test_criterion_7_data_proxy(bench_cfg, tmp_path):
    root = str(tmp_path)
    ctx = make_context(bench_cfg, root)

    # expected distinct 64 KiB blocks: header span plus each wanted column span, per file
    pipeline = KernelPipeline.from_json(BENCH_PIPELINE)
    wanted = sorted(pipeline.input_columns())
    block_size = ctx.proxy.store.block_size
    expected_blocks = 0
    for url in ctx.dataset.files:
        local = url.replace("root://origin.sim//store/", os.path.join(root, "store") + "/")
        hdr = cacf.read_header_path(local)
        ranges = [(0, hdr.payload_offset)]
        ranges += [(hdr.column_offset(n), hdr.n_events * 8) for n in wanted]
        expected_blocks += len(blocks_for_ranges(ranges, block_size))

    job, _ = run_once(ctx, fixed_policy(5, bench_cfg))
    assert job.state == "done"
    cold = ctx.proxy.stats()
    assert cold["origin_fetches"] == expected_blocks, (
        f"cold run fetched {cold['origin_fetches']} blocks, oracle says {expected_blocks}"
    )

    job2, _ = run_once(ctx, fixed_policy(5, bench_cfg))
    assert job2.state == "done"
    warm = ctx.proxy.stats()
    assert warm["origin_fetches"] == cold["origin_fetches"], "warm run touched the origin"

    # 20 concurrent cold reads of one block -> exactly 1 origin fetch; auth gate
    from casa_mini.data_proxy import DataProxyServer, LocalOrigin
    from casa_mini.tokens import TokenError, mint_token

    async def concurrent_checks():
        origin = LocalOrigin(root, "fed")
        proxy = DataProxyServer(origin, "fed", ctx.keys.data, clock=lambda: 0.0)
        token = mint_token(ctx.keys.data, "x", "data", exp=1e9)
        path = "/store/bench/part00.cacf"
        await asyncio.gather(*(proxy.fetch(path, [(0, 100)], token) for _ in range(20)))
        assert origin.fetches == 1
        with pytest.raises(TokenError):
            await proxy.fetch(path, [(0, 100)], "tampered.token")
        assert origin.fetches == 1  # invalid token never reached the origin

    run_async(concurrent_checks())
    _ok(
        7,
        "data proxy",
        f"cold run = {expected_blocks} block fetches exactly, warm run 0, single-flight 20->1, auth gate holds",
    )


# ---- 8. fault tolerance ------------------------------------------------------------------------------


def test_criterion_8_fault_tolerance(bench_cfg, bench_ctx, bench_root):
    oracle = _single_batch_oracle(bench_ctx, bench_root)
    job, facility = run_once(bench_ctx, fixed_policy(5, bench_cfg), kill_plan=[(9.0, "w0002")])
    assert job.state == "done"
    events = facility.state.events
    down = [e for e in events if e.kind == "WorkerDown" and e.worker_id == "w0002"]
    assert down, "killed worker was never reaped"
    # its running chunks were restarted elsewhere
    killed_chunks = {
        e.chunk_id
        for e in events
        if e.kind == "TaskStart" and e.worker_id == "w0002" and e.t <= 9.0
    }
    finished_by_w2 = {
        e.chunk_id for e in events if e.kind == "TaskEnd" and e.worker_id == "w0002"
    }
    requeued = killed_chunks - finished_by_w2
    assert requeued, "the killed worker should have died holding chunks"
    for chunk_id in requeued:
        later = [
            e
            for e in events
            if e.kind == "TaskStart" and e.chunk_id == chunk_id and e.worker_id != "w0002"
        ]
        assert later, f"chunk {chunk_id} was never re-queued"
    assert _hists_equal(job.merged, oracle)
    _ok(8, "fault tolerance", f"{len(requeued)} chunks re-queued after kill, output bit-equal to oracle")


# ---- 9. determinism -------------------------------------------------------------------------------------


def test_criterion_9_determinism(bench_cfg, tmp_path_factory):
    root_a = str(tmp_path_factory.mktemp("det-a"))
    root_b = str(tmp_path_factory.mktemp("det-b"))
    a = run_sweep(bench_cfg, root_a)
    b = run_sweep(bench_cfg, root_b)
    assert a.csv_text == b.csv_text, "sweep CSVs differ between identical runs"
    assert set(a.streams) == set(b.streams)
    for key in a.streams:
        assert a.streams[key] == b.streams[key], f"task stream {key} differs"
    _ok(9, "determinism", f"sweep CSV and {len(a.streams)} task-stream CSVs byte-identical across two runs")
