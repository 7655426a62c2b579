import asyncio
import json
import logging
import os
import random
import socket
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casa_mini import cacf, data_proxy, tokens, wire
from casa_mini.data_proxy import (
    BadFederationCred,
    BlockStore,
    DataProxyServer,
    LocalOrigin,
    OriginNotFound,
    OriginServer,
    ProxyClient,
    ProxyError,
    SyncDataProxy,
    parse_remote_url,
)
from casa_mini.engine.pipeline import KernelPipeline
from casa_mini.tokens import mint_token
from casa_mini.types import FileChunk
from casa_mini.worker import DataPath

from .conftest import run_async
from .oracles import blocks_for_ranges

CRED = "fed-secret"
KEY = b"d" * 32


def _token(exp=1e12):
    return mint_token(KEY, "alice", "data", exp=exp)


@pytest.fixture()
def store(tmp_path):
    root = str(tmp_path)
    os.makedirs(os.path.join(root, "store", "ds1"), exist_ok=True)
    rng = np.random.default_rng(3)
    cacf.write_dataset_file(
        {"pt": rng.normal(50, 10, 40_000), "eta": rng.normal(0, 1, 40_000)},
        os.path.join(root, "store", "ds1", "f0.cacf"),
    )
    return root


# ---- remote URLs ------------------------------------------------------------------


def _opener(opened):
    """A proxy fetch that records each request and serves nothing."""

    def fetch(path, ranges, token):
        opened.append((path, ranges, token))
        return [b"" for _ in ranges]

    return fetch


def test_data_path_sends_a_remote_url_to_its_opener():
    opened = []
    DataPath(_opener(opened), "tok").reader("root://aaa.example//store/ds1/f0.cacf")([(0, 4)])
    assert opened == [("/store/ds1/f0.cacf", [(0, 4)], "tok")]


def test_data_path_reads_a_local_path_from_local_disk(store):
    opened = []
    path = os.path.join(store, "store", "ds1", "f0.cacf")
    read = DataPath(_opener(opened), "tok").reader(path)
    assert opened == []
    assert read([(0, 4)]) == [b"CACF"]


def test_data_path_rejects_a_missing_double_slash():
    opened = []
    with pytest.raises(ProxyError, match="root://host//store"):
        DataPath(_opener(opened), "tok").reader("root://aaa.example/missing-double-slash")
    assert opened == []


def test_rewrite_rejects_other_schemes_and_paths():
    with pytest.raises(ProxyError, match="unsupported scheme"):
        parse_remote_url("http://x//store/a")
    with pytest.raises(ProxyError, match="/store/"):
        parse_remote_url("root://x//other/a")


# ---- sync proxy ------------------------------------------------------------------


def _sync_proxy(root, block_size=64 * 1024, max_bytes=None):
    origin = LocalOrigin(root, CRED)
    return SyncDataProxy(origin, KEY, block_size=block_size, max_bytes=max_bytes, clock=lambda: 0.0), origin


def test_cold_then_warm_counters(store):
    proxy, origin = _sync_proxy(store)
    assert proxy.stats() == {"origin_fetches": 0, "cache_hits": 0, "bytes_served": 0}
    proxy.fetch("/store/ds1/f0.cacf", [(0, 1000)], _token())
    assert proxy.stats() == {"origin_fetches": 1, "cache_hits": 0, "bytes_served": 1000}
    proxy.fetch("/store/ds1/f0.cacf", [(0, 1000)], _token())
    assert proxy.stats() == {"origin_fetches": 1, "cache_hits": 1, "bytes_served": 2000}
    assert origin.fetches == 1


def test_read_through_equals_direct(store):
    proxy, _ = _sync_proxy(store, block_size=4096)
    path = os.path.join(store, "store", "ds1", "f0.cacf")
    raw = Path(path).read_bytes()
    rng = random.Random(7)
    for _ in range(50):
        offset = rng.randint(0, len(raw) + 100)
        length = rng.randint(0, 9000)
        (got,) = proxy.fetch("/store/ds1/f0.cacf", [(offset, length)], _token())
        assert got == raw[offset : offset + length]
    # monotone counters
    s = proxy.stats()
    assert s["origin_fetches"] >= 1 and s["cache_hits"] >= 0 and s["bytes_served"] >= 0


def test_range_past_eof_truncated(store):
    proxy, _ = _sync_proxy(store)
    path = os.path.join(store, "store", "ds1", "f0.cacf")
    size = os.path.getsize(path)
    (got,) = proxy.fetch("/store/ds1/f0.cacf", [(size - 10, 100)], _token())
    assert len(got) == 10
    assert proxy.fetch("/store/ds1/f0.cacf", [(size + 50, 100)], _token()) == [b""]


def test_auth_gate_no_origin_traffic(store):
    proxy, origin = _sync_proxy(store)
    with pytest.raises(tokens.TokenError):
        proxy.fetch("/store/ds1/f0.cacf", [(0, 100)], "garbage.token")
    with pytest.raises(tokens.TokenExpired):
        proxy.fetch("/store/ds1/f0.cacf", [(0, 100)], _token(exp=-1.0))
    wrong_aud = mint_token(KEY, "alice", "batch", exp=1e12)
    with pytest.raises(tokens.TokenError):
        proxy.fetch("/store/ds1/f0.cacf", [(0, 100)], wrong_aud)
    assert origin.fetches == 0
    assert proxy.stats()["origin_fetches"] == 0


def test_missing_path(store):
    proxy, _ = _sync_proxy(store)
    with pytest.raises(OriginNotFound):
        proxy.fetch("/store/nope.cacf", [(0, 10)], _token())
    with pytest.raises(OriginNotFound):
        proxy.fetch("/store/../etc/passwd", [(0, 10)], _token())


def test_fetch_size_cap(store):
    proxy, _ = _sync_proxy(store)
    with pytest.raises(ProxyError, match="exceeds"):
        proxy.fetch("/store/ds1/f0.cacf", [(0, data_proxy.MAX_FETCH + 1)], _token())


def test_data_path_reads_a_column_longer_than_one_fetch(tmp_path):
    # 2,200,000 float64 events are 17,600,000 bytes, past MAX_FETCH in one column
    os.makedirs(tmp_path / "store" / "big")
    pt = np.arange(2_200_000, dtype=np.float64)
    cacf.write_dataset_file({"pt": pt}, str(tmp_path / "store" / "big" / "f.cacf"))
    proxy, _ = _sync_proxy(str(tmp_path))
    lengths = []
    fetch = proxy.fetch

    def counted(path, ranges, token):
        lengths.append(sum(length for _, length in ranges))
        return fetch(path, ranges, token)

    data = DataPath(counted, _token())
    chunk = FileChunk(file="root://origin//store/big/f.cacf", start=0, len=len(pt), chunk_id=0)
    batch = data.read([chunk], KernelPipeline.from_json([{"hist": ["h", "pt", 10, 0, 1e7]}]))
    assert np.array_equal(batch.columns["pt"], pt)
    assert max(lengths) == data_proxy.MAX_FETCH and sum(lengths) > pt.nbytes  # the header, then the column in pieces


def test_block_count_matches_oracle(store):
    block = 4096
    proxy, _ = _sync_proxy(store, block_size=block)
    path = os.path.join(store, "store", "ds1", "f0.cacf")
    hdr = cacf.read_header_path(path)
    # read the whole pt column in odd-sized pieces
    start = hdr.column_offset("pt")
    span = hdr.n_events * 8
    pos = 0
    while pos < span:
        step = min(777, span - pos)
        proxy.fetch("/store/ds1/f0.cacf", [(start + pos, step)], _token())
        pos += step
    expected = blocks_for_ranges([(start, span)], block)
    assert proxy.stats()["origin_fetches"] == len(expected)


def test_lru_byte_cap_evicts(store):
    block = 4096
    proxy, origin = _sync_proxy(store, block_size=block, max_bytes=4 * block)
    for i in range(8):
        proxy.fetch("/store/ds1/f0.cacf", [(i * block, block)], _token())
    assert origin.fetches == 8
    # earliest blocks were evicted; re-reading them hits the origin again
    proxy.fetch("/store/ds1/f0.cacf", [(0, block)], _token())
    assert origin.fetches == 9


# ---- networked proxy + origin -------------------------------------------------------


def test_single_flight_and_networked_path(store):
    async def scenario():
        origin = OriginServer(store, CRED)
        origin_addr = await origin.start("127.0.0.1", 0)
        proxy = DataProxyServer(origin_addr, CRED, KEY, clock=lambda: 0.0)
        proxy_addr = await proxy.start("127.0.0.1", 0)

        # 20 concurrent cold reads of one block -> exactly 1 origin fetch
        results = await asyncio.gather(
            *(proxy.fetch("/store/ds1/f0.cacf", [(0, 500)], _token()) for _ in range(20))
        )
        assert len({got for (got,) in results}) == 1
        assert origin.local.fetches == 1
        assert proxy.stats()["origin_fetches"] == 1
        assert proxy.stats()["cache_hits"] == 19

        # invalid token: no origin traffic
        before = origin.local.fetches
        with pytest.raises(tokens.TokenError):
            await proxy.fetch("/store/ds1/f0.cacf", [(10**6, 500)], "bad.token")
        assert origin.local.fetches == before

        # blocking client used by workers sees identical bytes
        raw = Path(store, "store", "ds1", "f0.cacf").read_bytes()
        client = ProxyClient(proxy_addr)
        got = await asyncio.to_thread(client.fetch, "/store/ds1/f0.cacf", [(123, 4567)], _token())
        assert got == [raw[123 : 123 + 4567]]
        with pytest.raises(OriginNotFound):
            await asyncio.to_thread(client.fetch, "/store/missing", [(0, 10)], _token())
        with pytest.raises(tokens.TokenError):
            await asyncio.to_thread(client.fetch, "/store/ds1/f0.cacf", [(0, 10)], "bad.token")
        client.close()

        await proxy.close()
        await origin.close()

    run_async(scenario())


def test_origin_rejects_bad_federation_cred(store):
    async def scenario():
        origin = OriginServer(store, CRED)
        origin_addr = await origin.start("127.0.0.1", 0)
        imposter = DataProxyServer(origin_addr, "wrong-cred", KEY, clock=lambda: 0.0)
        with pytest.raises(BadFederationCred):
            await imposter.fetch("/store/ds1/f0.cacf", [(0, 100)], _token())
        assert origin.local.fetches == 0
        await imposter.close()
        await origin.close()

    run_async(scenario())


def test_origin_answers_a_negative_offset_with_an_error(store, caplog):
    # an unreadable range gets an error reply on a connection that stays
    # open, not an unhandled exception in the handler
    raw = Path(store, "store", "ds1", "f0.cacf").read_bytes()

    async def scenario():
        origin = OriginServer(store, CRED)
        reader, writer = await asyncio.open_connection(*await origin.start("127.0.0.1", 0))

        async def fetch(offset):
            body = {"path": "/store/ds1/f0.cacf", "ranges": [[offset, 10]], "cred": CRED}
            writer.write(wire.encode(wire.WireMessage("Fetch", body)))
            header = await asyncio.wait_for(reader.readexactly(4), 5)
            return header + await reader.readexactly(int.from_bytes(header, "big"))

        try:
            assert await fetch(-5) == data_proxy._tagged(data_proxy.TAG_ERROR, b"negative offset or length")
            assert await fetch(0) == data_proxy._served([raw[:10]])
        finally:
            writer.close()
            await origin.close()

    run_async(scenario())
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []


def test_warm_second_pass_zero_origin_fetches(store):
    proxy, origin = _sync_proxy(store, block_size=8192)
    path = os.path.join(store, "store", "ds1", "f0.cacf")
    size = os.path.getsize(path)

    def full_scan():
        pos = 0
        while pos < size:
            proxy.fetch("/store/ds1/f0.cacf", [(pos, 8192)], _token())
            pos += 8192

    full_scan()
    cold = proxy.stats()["origin_fetches"]
    full_scan()
    assert proxy.stats()["origin_fetches"] == cold


def test_cache_dir_survives_restart(store, tmp_path):
    async def scenario():
        cache_dir = str(tmp_path / "cache")
        origin = OriginServer(store, CRED)
        origin_addr = await origin.start("127.0.0.1", 0)
        first = DataProxyServer(origin_addr, CRED, KEY, cache_dir=cache_dir, clock=lambda: 0.0)
        await first.fetch("/store/ds1/f0.cacf", [(0, 100_000)], _token())
        cold = origin.local.fetches
        assert (cold, first.stats()["origin_fetches"]) == (1, 2)  # two blocks in one origin request
        await first.close()
        # a fresh proxy over the same cache dir serves warm
        second = DataProxyServer(origin_addr, CRED, KEY, cache_dir=cache_dir, clock=lambda: 0.0)
        (data,) = await second.fetch("/store/ds1/f0.cacf", [(0, 100_000)], _token())
        assert origin.local.fetches == cold
        raw = Path(store, "store", "ds1", "f0.cacf").read_bytes()
        assert data == raw[:100_000]
        await second.close()
        await origin.close()

    run_async(scenario())


def test_crash_mid_write_never_serves_a_partial_block(tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "cache")
    block = bytes(range(256)) * 16

    class DiskFull(OSError):
        pass

    def failing_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if "w" not in mode:
            return fh

        class HalfWriter:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                fh.close()

            def write(self, data):
                fh.write(data[: len(data) // 2])
                raise DiskFull("no space left on device")

        return HalfWriter()

    monkeypatch.setattr(data_proxy, "open", failing_open, raising=False)
    with pytest.raises(DiskFull):
        BlockStore(block_size=len(block), cache_dir=cache_dir).put("/store/ds1/f0.cacf", 0, block)
    monkeypatch.undo()
    assert os.listdir(cache_dir), "the interrupted write left nothing on disk"

    # a restarted store never serves the leftover, and a later put completes it
    restarted = BlockStore(block_size=len(block), cache_dir=cache_dir)
    assert restarted.get("/store/ds1/f0.cacf", 0) is None
    restarted.put("/store/ds1/f0.cacf", 0, block)
    assert BlockStore(block_size=len(block), cache_dir=cache_dir).get("/store/ds1/f0.cacf", 0) == block


def test_standalone_origin_and_proxy_processes(store, tmp_path):
    import subprocess
    import sys
    import time as _time

    def spawn(args):
        return subprocess.Popen(
            [sys.executable, "-m", "casa_mini.cli", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def ready_line(proc):
        deadline = _time.monotonic() + 15
        line = proc.stdout.readline()
        assert line and _time.monotonic() < deadline, f"no ready line: {line!r}"
        return line

    origin = spawn(["origin", "--listen", "127.0.0.1:0", "--root", store, "--cred", CRED])
    try:
        origin_line = ready_line(origin)
        origin_addr = origin_line.rsplit(" on ", 1)[1].strip()
        proxy = spawn(
            [
                "proxy",
                "--listen",
                "127.0.0.1:0",
                "--origin",
                origin_addr,
                "--cred",
                CRED,
                "--data-key",
                KEY.hex(),
                "--block-size",
                "8192",
            ]
        )
        try:
            proxy_line = ready_line(proxy)
            host_port = proxy_line.split(" on ", 1)[1].split(" -> ")[0].strip()
            host, port = host_port.rsplit(":", 1)
            client = ProxyClient((host, int(port)))
            raw = Path(store, "store", "ds1", "f0.cacf").read_bytes()
            got = client.fetch("/store/ds1/f0.cacf", [(100, 5000)], _token())
            assert got == [raw[100:5100]]
            client.close()
        finally:
            proxy.terminate()
            proxy.wait(timeout=10)
            proxy.stdout.close()
    finally:
        origin.terminate()
        origin.wait(timeout=10)
        origin.stdout.close()


def test_lru_cap_smaller_than_one_fetch_still_correct(store):
    # a fetch spanning more blocks than the cache retains must still splice right
    block = 4096
    proxy, _ = _sync_proxy(store, block_size=block, max_bytes=2 * block)
    raw = Path(store, "store", "ds1", "f0.cacf").read_bytes()
    got = proxy.fetch("/store/ds1/f0.cacf", [(100, 10 * block)], _token())
    assert got == [raw[100 : 100 + 10 * block]]


def test_cancelled_leader_settles_followers(store):
    # An origin that holds its first reply until released: the single-flight
    # leader for block 0 is cancelled while that reply is pending.
    async def scenario():
        local = LocalOrigin(store, CRED)
        release = asyncio.Event()
        served = 0

        async def held_origin(reader, writer):
            nonlocal served
            try:
                while True:
                    req = (await wire.read_message(reader)).body
                    served += 1
                    if served == 1:
                        await release.wait()
                    writer.write(data_proxy._served(local.fetch(req["path"], req["ranges"], req["cred"])))
                    await writer.drain()
            except (asyncio.IncompleteReadError, ConnectionError):
                pass
            finally:
                writer.close()

        server = await asyncio.start_server(held_origin, "127.0.0.1", 0)
        proxy = DataProxyServer(server.sockets[0].getsockname()[:2], CRED, KEY, clock=lambda: 0.0)
        path = "/store/ds1/f0.cacf"
        with open(os.path.join(store, "store", "ds1", "f0.cacf"), "rb") as fh:
            raw = fh.read()
        try:
            leader = asyncio.create_task(proxy.fetch(path, [(0, 100)], _token()))
            while served == 0:
                await asyncio.sleep(0.005)
            follower = asyncio.create_task(proxy.fetch(path, [(200, 100)], _token()))
            await asyncio.sleep(0.02)  # the follower now waits on the leader's block
            leader.cancel()
            with pytest.raises(asyncio.CancelledError):
                await leader
            with pytest.raises(ProxyError):
                await asyncio.wait_for(follower, 2.0)
            release.set()  # the held reply goes to a connection the proxy dropped
            # the next requests refetch over a fresh connection and get their own bytes
            block = data_proxy.BLOCK_SIZE
            assert await asyncio.wait_for(proxy.fetch(path, [(block, 100)], _token()), 2.0) == [raw[block : block + 100]]
            assert await asyncio.wait_for(proxy.fetch(path, [(0, 100)], _token()), 2.0) == [raw[:100]]
            assert proxy.stats()["origin_fetches"] == 2
        finally:
            await proxy.close()
            server.close()
            await server.wait_closed()

    run_async(scenario())


class ScriptedProxy:
    """A peer that answers each Fetch with `reply(request)`, the bytes of
    each of its ranges, written `piece`
    bytes at a time, and closes each connection after `per_conn` replies."""

    def __init__(self, reply, piece: int = 1 << 20, per_conn: int = 1 << 30):
        self.reply, self.piece, self.per_conn = reply, piece, per_conn
        self.connections = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.addr = self.listener.getsockname()[:2]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.connections += 1
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for _ in range(self.per_conn):
                    header = conn.recv(4, socket.MSG_WAITALL)
                    if len(header) < 4:
                        break
                    request = json.loads(conn.recv(int.from_bytes(header, "big"), socket.MSG_WAITALL))
                    frame = data_proxy._served(self.reply(request["body"]))
                    for start in range(0, len(frame), self.piece):
                        conn.sendall(frame[start : start + self.piece])

    def close(self):
        self.listener.shutdown(socket.SHUT_RDWR)  # wakes the accept()
        self.listener.close()
        self.thread.join(timeout=5)


def _pattern(body: dict) -> list[bytes]:
    return [bytes((offset + i) % 251 for i in range(length)) for offset, length in body["ranges"]]


def test_proxy_client_reads_a_reply_sent_in_small_pieces():
    peer = ScriptedProxy(_pattern, piece=7)
    client = ProxyClient(peer.addr)
    try:
        (got,) = client.fetch("/store/x", [(3, 20_000)], "t")
        assert isinstance(got, bytes) and [got] == _pattern({"ranges": [(3, 20_000)]})
        assert client.fetch("/store/x", [(0, 0)], "t") == [b""]
    finally:
        client.close()
        peer.close()


def test_reused_proxy_client_reconnects_once_when_dropped():
    peer = ScriptedProxy(_pattern, per_conn=1)  # drops each connection after one reply
    client = ProxyClient(peer.addr)
    try:
        assert client.fetch("/store/x", [(0, 100)], "t") == _pattern({"ranges": [(0, 100)]})
        # the connection kept from the first fetch is closed by now
        assert client.fetch("/store/x", [(100, 50)], "t") == _pattern({"ranges": [(100, 50)]})
        assert peer.connections == 2
    finally:
        client.close()
        peer.close()


def test_fresh_proxy_client_does_not_retry():
    peer = ScriptedProxy(_pattern, per_conn=0)  # closes every connection unanswered
    client = ProxyClient(peer.addr)
    try:
        with pytest.raises(ConnectionError):
            client.fetch("/store/x", [(0, 100)], "t")
        assert peer.connections == 1
    finally:
        client.close()
        peer.close()


def test_oversized_origin_reply_drops_the_origin_connection(store):
    # The origin's first reply announces more bytes than a block reply may
    # hold and is followed by a well-formed frame; a kept connection would
    # read that frame as the reply to the next request.
    async def scenario():
        local = LocalOrigin(store, CRED)
        connections = 0
        served = 0

        async def origin(reader, writer):
            nonlocal connections, served
            connections += 1
            try:
                while True:
                    req = (await wire.read_message(reader)).body
                    served += 1
                    if served == 1:
                        writer.write((data_proxy.MAX_REPLY + 1).to_bytes(4, "big"))
                        writer.write(data_proxy._served([b"stale"]))
                    else:
                        writer.write(data_proxy._served(local.fetch(req["path"], req["ranges"], req["cred"])))
                    await writer.drain()
            except (asyncio.IncompleteReadError, ConnectionError):
                pass
            finally:
                writer.close()

        conns = wire.ConnectionTasks()
        server = await asyncio.start_server(conns.wrap(origin), "127.0.0.1", 0)
        proxy = DataProxyServer(server.sockets[0].getsockname()[:2], CRED, KEY, clock=lambda: 0.0)
        path = "/store/ds1/f0.cacf"
        raw = Path(store, "store", "ds1", "f0.cacf").read_bytes()
        try:
            with pytest.raises(ProxyError, match="oversized block reply"):
                await asyncio.wait_for(proxy.fetch(path, [(0, 100)], _token()), 2.0)
            assert await asyncio.wait_for(proxy.fetch(path, [(0, 100)], _token()), 2.0) == [raw[:100]]
            assert connections == 2
        finally:
            await proxy.close()
            await conns.close(server)

    run_async(scenario())


FETCH = {"path": "/store/ds1/f0.cacf", "ranges": [[0, 10]]}

# the listener sent a malformed Fetch, and the field it gets wrong ("offset"
# and "length" are those of its one range)
MALFORMED = [
    ("origin", "path", 5),
    ("origin", "cred", 5),
    ("origin", "length", "10"),
    ("origin", "cred", "\ud800"),  # a string that has no UTF-8 encoding
    ("proxy", "token", 5),
    ("proxy", "path", 5),
    ("proxy", "offset", True),
]


def _with_field(body: dict, field: str, value) -> dict:
    if field in ("offset", "length"):
        offset, length = body["ranges"][0]
        return {**body, "ranges": [[value, length] if field == "offset" else [offset, value]]}
    return {**body, field: value}


@pytest.mark.parametrize("listener, field, value", MALFORMED)
def test_malformed_fetch_gets_an_error_reply(store, caplog, listener, field, value):
    raw = Path(store, "store", "ds1", "f0.cacf").read_bytes()

    async def scenario():
        origin = OriginServer(store, CRED)
        origin_addr = await origin.start("127.0.0.1", 0)
        proxy = DataProxyServer(origin_addr, CRED, KEY, clock=lambda: 0.0)
        proxy_addr = await proxy.start("127.0.0.1", 0)
        if listener == "origin":
            addr, valid = origin_addr, {**FETCH, "cred": CRED}
        else:
            addr, valid = proxy_addr, {**FETCH, "token": _token()}
        reader, writer = await asyncio.open_connection(*addr)

        async def fetch(body):
            writer.write(wire.encode(wire.WireMessage("Fetch", body)))
            header = await asyncio.wait_for(reader.readexactly(4), 5)
            return header + await asyncio.wait_for(reader.readexactly(int.from_bytes(header, "big")), 5)

        try:
            assert (await fetch(_with_field(valid, field, value)))[4] == data_proxy.TAG_ERROR
            assert origin.local.fetches == 0
            # the same connection then serves a valid request
            assert await fetch(valid) == data_proxy._served([raw[:10]])
        finally:
            writer.close()
            await proxy.close()
            await origin.close()

    run_async(scenario())
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []


def test_unreachable_origin_gets_an_error_reply(caplog):
    async def scenario():
        closed = socket.create_server(("127.0.0.1", 0))
        origin_addr = closed.getsockname()[:2]
        closed.close()  # nothing listens there now
        proxy = DataProxyServer(origin_addr, CRED, KEY, clock=lambda: 0.0)
        client = ProxyClient(await proxy.start("127.0.0.1", 0))
        try:
            with pytest.raises(ProxyError, match="origin connection lost"):
                await asyncio.to_thread(client.fetch, "/store/ds1/f0.cacf", [(0, 10)], _token())
        finally:
            client.close()
            await proxy.close()

    run_async(scenario())
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []


# ---- vectored Fetch ----------------------------------------------------------------

VBLOCK = 4096
VSIZE = 50_000  # a little over 12 blocks
VPATH = "/store/v/blob"


@pytest.fixture(scope="module")
def vroot(tmp_path_factory):
    root = tmp_path_factory.mktemp("vectored")
    os.makedirs(root / "store" / "v")
    raw = np.random.default_rng(11).integers(0, 256, VSIZE, dtype=np.uint8).tobytes()
    (root / "store" / "v" / "blob").write_bytes(raw)
    return str(root), raw


class LoopThread:
    """An event loop in a thread of its own, for blocking clients in the test's thread."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()

    def call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(10)

    def close(self):
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


@pytest.fixture(scope="module")
def served(vroot):
    """An origin over vroot in a loop thread, and a way to start a cold proxy in front of it."""
    lt = LoopThread()
    origin = OriginServer(vroot[0], CRED)
    origin_addr = lt.call(origin.start("127.0.0.1", 0))

    async def cold_proxy():
        proxy = DataProxyServer(origin_addr, CRED, KEY, block_size=VBLOCK, clock=lambda: 0.0)
        return proxy, await proxy.start("127.0.0.1", 0)

    try:
        yield lt, origin, cold_proxy
    finally:
        lt.call(origin.close())
        lt.close()


RANGES = st.lists(st.tuples(st.integers(0, VSIZE + 2 * VBLOCK), st.integers(0, 3 * VBLOCK)), max_size=10)
# empty, zero-length, straddling, past EOF, overlapping and repeated ranges
EDGES = [
    [],
    [(0, 0), (VSIZE, 0)],
    [(VBLOCK - 3, 7), (0, 3 * VBLOCK + 1)],
    [(VSIZE - 5, 100), (VSIZE + 10, 10)],
    [(100, 5000), (2000, 5000), (100, 5000)],
]


def _slices(raw: bytes, ranges) -> list[bytes]:
    return [raw[offset : offset + length] for offset, length in ranges]


@settings(max_examples=60, deadline=None)
@given(ranges=RANGES)
def test_sync_proxy_serves_each_range_of_a_vectored_fetch(vroot, ranges):
    root, raw = vroot
    for cold in (True, False):
        proxy = SyncDataProxy(LocalOrigin(root, CRED), KEY, block_size=VBLOCK, clock=lambda: 0.0)
        if not cold:
            proxy.fetch(VPATH, [(0, VSIZE)], _token())
        for ranges_ in (ranges, *EDGES):
            assert proxy.fetch(VPATH, ranges_, _token()) == _slices(raw, ranges_)


@settings(max_examples=30, deadline=None)
@given(ranges=RANGES)
def test_networked_proxy_serves_each_range_of_a_vectored_fetch(vroot, served, ranges):
    _, raw = vroot
    lt, _, cold_proxy = served
    proxy, addr = lt.call(cold_proxy())
    client = ProxyClient(addr)
    try:
        for ranges_ in (ranges, *EDGES):
            assert client.fetch(VPATH, ranges_, _token()) == _slices(raw, ranges_)
    finally:
        client.close()
        lt.call(proxy.close())


def test_a_cold_four_block_read_is_one_origin_request(vroot, served):
    _, raw = vroot
    lt, origin, cold_proxy = served
    proxy, _ = lt.call(cold_proxy())
    try:
        before = origin.local.fetches
        assert lt.call(proxy.fetch(VPATH, [(10, 4 * VBLOCK - 20)], _token())) == [raw[10 : 4 * VBLOCK - 10]]
        assert origin.local.fetches - before == 1
        assert proxy.stats()["origin_fetches"] == 4  # still counted in blocks

        # single-flight stays per block: blocks 4-5 are in flight for the
        # first request when the second, for blocks 5-6, asks for them
        async def overlapping():
            return await asyncio.gather(
                proxy.fetch(VPATH, [(4 * VBLOCK, 2 * VBLOCK)], _token()),
                proxy.fetch(VPATH, [(5 * VBLOCK, 2 * VBLOCK)], _token()),
            )

        assert lt.call(overlapping()) == [[raw[4 * VBLOCK : 6 * VBLOCK]], [raw[5 * VBLOCK : 7 * VBLOCK]]]
        assert origin.local.fetches - before == 3
        assert proxy.stats()["origin_fetches"] == 7 and proxy.stats()["cache_hits"] == 1
    finally:
        lt.call(proxy.close())


def test_a_refused_token_reaches_the_origin_for_no_block(vroot, served):
    ranges = [(0, 10), (3 * VBLOCK, 10), (8 * VBLOCK, 2 * VBLOCK)]
    proxy = SyncDataProxy(LocalOrigin(vroot[0], CRED), KEY, block_size=VBLOCK, clock=lambda: 0.0)
    with pytest.raises(tokens.TokenError):
        proxy.fetch(VPATH, ranges, "bad.token")
    assert (proxy.origin.fetches, proxy.stats()["origin_fetches"]) == (0, 0)

    lt, origin, cold_proxy = served
    networked, addr = lt.call(cold_proxy())
    client = ProxyClient(addr)
    try:
        before = origin.local.fetches
        with pytest.raises(tokens.TokenError):
            client.fetch(VPATH, ranges, _token(exp=-1.0))
        assert (origin.local.fetches, networked.stats()["origin_fetches"]) == (before, 0)
    finally:
        client.close()
        lt.call(networked.close())


BAD_RANGES = {
    "not a list": "0:10",
    "absent": None,
    "not a pair": [[0, 10, 5]],
    "bools": [[0, True]],
    "floats": [[0.0, 10]],
    "negative": [[0, 10], [-1, 10]],
    "over MAX_FETCH": [[0, data_proxy.MAX_FETCH], [0, 1]],
    "too many": [[0, 1]] * (data_proxy.MAX_RANGES + 1),
}


@pytest.mark.parametrize("listener", ["origin", "proxy"])
@pytest.mark.parametrize("name", BAD_RANGES)
def test_malformed_ranges_get_an_error_reply(vroot, caplog, listener, name):
    root, raw = vroot

    async def scenario():
        origin = OriginServer(root, CRED)
        origin_addr = await origin.start("127.0.0.1", 0)
        proxy = DataProxyServer(origin_addr, CRED, KEY, clock=lambda: 0.0)
        proxy_addr = await proxy.start("127.0.0.1", 0)
        addr, secret = (origin_addr, {"cred": CRED}) if listener == "origin" else (proxy_addr, {"token": _token()})
        reader, writer = await asyncio.open_connection(*addr)

        async def fetch(ranges):
            writer.write(wire.encode(wire.WireMessage("Fetch", {"path": VPATH, "ranges": ranges, **secret})))
            header = await asyncio.wait_for(reader.readexactly(4), 5)
            return header + await asyncio.wait_for(reader.readexactly(int.from_bytes(header, "big")), 5)

        try:
            assert (await fetch(BAD_RANGES[name]))[4] == data_proxy.TAG_ERROR
            assert origin.local.fetches == 0
            # the same connection then serves a valid request
            assert await fetch([[5, 10], [0, 3]]) == data_proxy._served([raw[5:15], raw[:3]])
        finally:
            writer.close()
            await proxy.close()
            await origin.close()

    run_async(scenario())
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []


def test_range_reader_splits_requests_at_the_fetch_bounds():
    requests = []

    def fetch(path, ranges, token):
        requests.append(list(ranges))
        return [bytes(min(length, 3)) for _, length in ranges]  # at most 3 bytes each, as if at EOF

    read = data_proxy.range_reader(fetch, "/store/x", "t")
    big = data_proxy.MAX_FETCH
    got = read([(0, 1), (10, big + 5), (0, 0)] + [(7, 1)] * data_proxy.MAX_RANGES)
    assert got == [bytes(1), bytes(6), b""] + [bytes(1)] * data_proxy.MAX_RANGES  # the long range rejoined
    assert [len(r) for r in requests] == [1, 1, data_proxy.MAX_RANGES, 1]
    assert [sum(length for _, length in r) for r in requests] == [1, big, 5 + data_proxy.MAX_RANGES - 1, 1]
    assert [piece for r in requests for piece in r][:3] == [(0, 1), (10, big), (10 + big, 5)]
    assert read([]) == [] and len(requests) == 4
