import asyncio
import contextlib
import logging
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casa_mini import authd, data_proxy, tokens, wire

from .conftest import make_assertion, run_async

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(wire.KINDS)), body=st.dictionaries(st.text(max_size=10), json_values, max_size=5))
def test_encode_decode_identity(kind, body):
    msg = wire.WireMessage(kind, body)
    assert wire.decode(wire.encode(msg)[4:]) == msg


def test_unknown_kind_rejected():
    with pytest.raises(wire.WireError, match="unknown message kind"):
        wire.WireMessage("Bogus", {})
    # the ingress route-admin kinds are not part of the vocabulary
    for kind in ("Nope", "RegisterRoute", "RemoveRoute", "ListRoutes"):
        with pytest.raises(wire.WireError, match="unknown message kind"):
            wire.decode(b'{"kind": "%s", "body": {}}' % kind.encode())


def test_non_object_frames_rejected():
    with pytest.raises(wire.WireError):
        wire.decode(b"[1,2,3]")
    with pytest.raises(wire.WireError):
        wire.decode(b'{"kind": 5, "body": {}}')
    with pytest.raises(wire.WireError):
        wire.decode(b'{"kind": "Ok", "body": []}')
    with pytest.raises(wire.WireError):
        wire.decode(b"\xff\xfe")


def test_oversize_frame_errors():
    with pytest.raises(wire.FrameTooLarge):
        wire.encode(wire.WireMessage("Ok", {"x": "a" * wire.MAX_FRAME}))


def test_oversize_incoming_length_prefix():
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data((wire.MAX_FRAME + 1).to_bytes(4, "big") + b"x")
        with pytest.raises(wire.FrameTooLarge):
            await wire.read_message(reader)

    asyncio.run(scenario())


def test_round_trip_over_stream():
    async def scenario():
        msgs = [
            wire.WireMessage("Heartbeat", {"worker_id": "w0001"}),
            wire.ok({"n": 1}),
            wire.err("x", "y"),
        ]
        reader = asyncio.StreamReader()
        for m in msgs:
            reader.feed_data(wire.encode(m))
        reader.feed_eof()
        out = [await wire.read_message(reader) for _ in msgs]
        assert out == msgs

    asyncio.run(scenario())


def test_raise_on_err():
    with pytest.raises(wire.RequestError, match="boom: went wrong"):
        wire.raise_on_err(wire.err("boom", "went wrong"))
    assert wire.raise_on_err(wire.ok({"a": 1})).body == {"a": 1}


# ---- the answer loop of every request/reply service ------------------------------

CRED = "fed-secret"
DATA_KEY = b"d" * 32
BLOB = bytes(range(256)) * 4


@contextlib.asynccontextmanager
async def _authd(tmp_path, idp_keys):
    conns = wire.ConnectionTasks()
    server = await authd.serve(authd.AuthService(idp_keys[1]), "127.0.0.1", 0, conns=conns)
    try:
        login = wire.WireMessage("Login", {"assertion": make_assertion(idp_keys)})
        yield server.sockets[0].getsockname()[:2], login
    finally:
        await conns.close(server)


@contextlib.asynccontextmanager
async def _data_proxy(tmp_path, idp_keys):
    (tmp_path / "store").mkdir()
    (tmp_path / "store" / "blob").write_bytes(BLOB)
    proxy = data_proxy.DataProxyServer(data_proxy.LocalOrigin(str(tmp_path), CRED), CRED, DATA_KEY)
    try:
        token = tokens.mint_token(DATA_KEY, "alice", "data", exp=time.time() + 600)
        fetch = {"path": "/store/blob", "ranges": [[3, 100]], "token": token}
        yield await proxy.start("127.0.0.1", 0), wire.WireMessage("Fetch", fetch)
    finally:
        await proxy.close()


def _refused(kind: str) -> bytes:
    return wire.encode(wire.err("bad_request", f"unsupported kind {kind}"))


def _refused_block(kind: str) -> bytes:
    return data_proxy._tagged(data_proxy.TAG_ERROR, f"unsupported kind {kind}".encode())


def _answered(frame: bytes) -> bool:
    return wire.decode(frame[4:]).kind == "Ok"


def _served_block(frame: bytes) -> bool:
    return frame == data_proxy._served([BLOB[3:103]])


# log label -> how to start the service, its reply to an unsupported kind, and
# whether a reply to its valid request succeeded
SERVICES = {
    "authd": (_authd, _refused, _answered),
    "data proxy": (_data_proxy, _refused_block, _served_block),
}


async def _read_frame(reader: asyncio.StreamReader) -> bytes:
    header = await asyncio.wait_for(reader.readexactly(4), 5)
    return header + await asyncio.wait_for(reader.readexactly(int.from_bytes(header, "big")), 5)


@pytest.mark.parametrize("name", SERVICES)
def test_service_answers_errors_and_closes_on_a_bad_frame(name, tmp_path, idp_keys, caplog):
    started, refused, succeeded = SERVICES[name]

    async def scenario():
        async with started(tmp_path, idp_keys) as (addr, valid):
            reader, writer = await asyncio.open_connection(*addr)
            try:
                # an unsupported kind gets the service's error reply; the
                # same connection then answers a valid request
                writer.write(wire.encode(wire.WireMessage("Heartbeat", {})))
                assert await _read_frame(reader) == refused("Heartbeat")
                writer.write(wire.encode(valid))
                assert succeeded(await _read_frame(reader))
                # a frame that is not a message ends the connection
                writer.write(len(b"not json").to_bytes(4, "big") + b"not json")
                assert await asyncio.wait_for(reader.read(), 5) == b""
            finally:
                writer.close()

    with caplog.at_level(logging.WARNING):
        run_async(scenario())
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []
    assert any(r.getMessage().startswith(f"{name}: closing connection") for r in caplog.records)


# ---- Channel: the kept client connection ---------------------------------------


@contextlib.asynccontextmanager
async def _scripted(handler):
    conns = wire.ConnectionTasks()
    server = await asyncio.start_server(conns.wrap(handler), "127.0.0.1", 0)
    try:
        yield server.sockets[0].getsockname()[:2]
    finally:
        await conns.close(server)


def _channel(addr) -> wire.Channel:
    return wire.Channel(lambda: asyncio.open_connection(*addr))


def test_cancelled_request_leaves_no_reply_for_the_next():
    # The server holds its first reply; the request waiting on it is
    # cancelled, and the next request must get its own reply.
    async def scenario():
        received = 0

        async def held_first(reader, writer):
            nonlocal received
            try:
                while True:
                    msg = await wire.read_message(reader)
                    received += 1
                    if received == 1:
                        await asyncio.sleep(0.2)
                    await wire.send_message(writer, wire.ok({"job_id": msg.body["job_id"]}))
            except (asyncio.IncompleteReadError, ConnectionError):
                pass
            finally:
                writer.close()

        async with _scripted(held_first) as addr:
            channel = _channel(addr)
            try:
                first = asyncio.create_task(channel.call("WaitJob", {"job_id": "j1"}))
                while received == 0:
                    await asyncio.sleep(0.005)
                first.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await first
                assert await asyncio.wait_for(channel.call("WaitJob", {"job_id": "j2"}), 2.0) == {"job_id": "j2"}
            finally:
                channel.close()

    run_async(scenario())


@pytest.mark.parametrize(
    "bad_reply", [b"", (wire.MAX_FRAME + 1).to_bytes(4, "big")], ids=["closed", "oversized frame"]
)
def test_failed_exchange_closes_the_connection(bad_reply):
    async def scenario():
        async def answers_once(reader, writer):
            try:
                await wire.read_message(reader)
                await wire.send_message(writer, wire.ok({"job_id": "j1"}))
                await wire.read_message(reader)
                writer.write(bad_reply)
                await writer.drain()
            finally:
                writer.close()

        async with _scripted(answers_once) as addr:
            channel = _channel(addr)
            try:
                assert await channel.call("WaitJob", {"job_id": "j1"}) == {"job_id": "j1"}
                writer = channel._conn[1]
                with pytest.raises((asyncio.IncompleteReadError, wire.WireError)):
                    await asyncio.wait_for(channel.call("WaitJob", {"job_id": "j1"}), 2.0)
                assert channel._conn is None and writer.is_closing()
                # the next request opens a new connection
                assert await asyncio.wait_for(channel.call("WaitJob", {"job_id": "j1"}), 2.0) == {"job_id": "j1"}
            finally:
                channel.close()

    run_async(scenario())
