import asyncio
import logging
import os
import ssl

import pytest

from casa_mini import certs
from casa_mini.ingress import (
    MalformedHello,
    NeedMoreData,
    NotTls,
    RouteError,
    RouteTable,
    SniProxy,
    parse_sni,
)

from .conftest import run_async


def reference_client_hello(server_hostname: str | None) -> bytes:
    """Capture the exact ClientHello bytes OpenSSL would put on the wire."""
    ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    ctx.check_hostname = False
    ctx.verify_mode = ssl.CERT_NONE
    incoming, outgoing = ssl.MemoryBIO(), ssl.MemoryBIO()
    obj = ctx.wrap_bio(incoming, outgoing, server_hostname=server_hostname)
    with pytest.raises(ssl.SSLWantReadError):
        obj.do_handshake()
    return outgoing.read()


def test_parse_sni_reference_hello():
    hello = reference_client_hello("u1.dask.local")
    assert parse_sni(hello) == "u1.dask.local"


def test_parse_sni_case_folds():
    hello = reference_client_hello("U1.DASK.Local")
    assert parse_sni(hello) == "u1.dask.local"


def test_parse_sni_absent():
    hello = reference_client_hello(None)
    assert parse_sni(hello) is None


def test_parse_sni_not_tls():
    with pytest.raises(NotTls):
        parse_sni(b"GET / HTTP/1.1\r\n\r\n")


def test_parse_sni_needs_more_data():
    hello = reference_client_hello("u1.dask.local")
    for cut in (0, 1, 4, 20, len(hello) - 1):
        with pytest.raises(NeedMoreData):
            parse_sni(hello[:cut])


def test_parse_sni_malformed_lengths():
    hello = bytearray(reference_client_hello("u1.dask.local"))
    # shrink the record so the handshake length overruns it
    record_len = int.from_bytes(hello[3:5], "big")
    bad = bytes(hello[:3]) + (60).to_bytes(2, "big") + bytes(hello[5 : 5 + 60])
    with pytest.raises(MalformedHello):
        parse_sni(bad)
    # corrupt the handshake type
    hello2 = bytearray(reference_client_hello("u1.dask.local"))
    hello2[5] = 0x02
    with pytest.raises(MalformedHello, match="not ClientHello"):
        parse_sni(bytes(hello2))
    assert record_len > 60


def test_route_table():
    table = RouteTable()
    table.register("u1.dask.local", ("127.0.0.1", 8801))
    assert table.resolve("U1.DASK.LOCAL") == ("127.0.0.1", 8801)
    assert table.resolve("u9.dask.local") is None
    with pytest.raises(RouteError, match="duplicate"):
        table.register("U1.dask.local", ("127.0.0.1", 9999))
    table.register("u2.dask.local", ("127.0.0.1", 8802))
    assert table.resolve("u2.dask.local") == ("127.0.0.1", 8802)
    table.remove("u1.dask.local")
    assert table.resolve("u1.dask.local") is None
    with pytest.raises(RouteError, match="unknown"):
        table.remove("u1.dask.local")
    with pytest.raises(RouteError, match="invalid"):
        table.register("", ("h", 1))
    with pytest.raises(RouteError, match="invalid"):
        table.register("a" * 300, ("h", 1))


# ---- proxy integration ------------------------------------------------------------


class EchoBackend:
    """TLS echo server that first announces its tag; counts raw connections."""

    def __init__(self, tag: str, cert_dir: str, ca: certs.PemPair, hostname: str):
        self.tag = tag
        self.connections = 0
        pair = certs.make_host_cert(ca, hostname)
        self.cert_path = os.path.join(cert_dir, f"{tag}-cert.pem")
        self.key_path = os.path.join(cert_dir, f"{tag}-key.pem")
        with open(self.cert_path, "w") as fh:
            fh.write(pair.cert_pem)
        with open(self.key_path, "w") as fh:
            fh.write(pair.key_pem)
        self.server = None

    async def start(self) -> tuple[str, int]:
        ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        ctx.load_cert_chain(self.cert_path, self.key_path)

        async def handle(reader, writer):
            self.connections += 1
            writer.write(f"tag:{self.tag}\n".encode())
            await writer.drain()
            while True:
                data = await reader.read(4096)
                if not data:
                    break
                writer.write(data)
                await writer.drain()
            writer.close()

        self.server = await asyncio.start_server(handle, "127.0.0.1", 0, ssl=ctx)
        addr = self.server.sockets[0].getsockname()
        return addr[0], addr[1]

    async def close(self):
        self.server.close()
        await self.server.wait_closed()


async def _echo_roundtrip(ingress, hostname, ca_path, payload: bytes) -> tuple[str, bytes]:
    ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    ctx.load_verify_locations(ca_path)
    reader, writer = await asyncio.open_connection(*ingress, ssl=ctx, server_hostname=hostname)
    tag_line = await reader.readline()
    writer.write(payload)
    await writer.drain()
    echoed = await reader.readexactly(len(payload))
    writer.close()
    return tag_line.decode().strip(), echoed


def test_routing_and_byte_transparency(tmp_path):
    async def scenario():
        ca = certs.make_ca("ingress-test-ca")
        ca_path = str(tmp_path / "ca.pem")
        with open(ca_path, "w") as fh:
            fh.write(ca.cert_pem)
        hostnames = [f"u{i}.dask.local" for i in range(3)]
        backends = [EchoBackend(f"b{i}", str(tmp_path), ca, hostnames[i]) for i in range(3)]
        proxy = SniProxy()
        ingress = await proxy.start("127.0.0.1", 0)
        for hostname, backend in zip(hostnames, backends):
            proxy.routes.register(hostname, await backend.start())

        import random

        rng = random.Random(1234)
        payloads = [(i, rng.randbytes(rng.randint(1, 5000))) for i in range(30)]

        async def one_fixed(i: int, payload: bytes):
            which = i % 3
            tag, echoed = await _echo_roundtrip(ingress, hostnames[which], ca_path, payload)
            assert tag == f"tag:b{which}"
            assert echoed == payload

        await asyncio.gather(*(one_fixed(i, p) for i, p in payloads))
        assert sum(b.connections for b in backends) == 30
        await proxy.close()
        for b in backends:
            await b.close()

    run_async(scenario())


def test_unknown_sni_and_non_tls_closed_without_backend_contact(tmp_path):
    async def scenario():
        ca = certs.make_ca("ingress-test-ca")
        backend = EchoBackend("b0", str(tmp_path), ca, "known.dask.local")
        proxy = SniProxy(peek_timeout=1.0)
        ingress = await proxy.start("127.0.0.1", 0)
        proxy.routes.register("known.dask.local", await backend.start())

        # unknown SNI: connection closes, no backend contact
        hello = reference_client_hello("other.dask.local")
        reader, writer = await asyncio.open_connection(*ingress)
        writer.write(hello)
        assert await reader.read() == b""
        writer.close()

        # non-TLS first byte: closed without backend contact
        reader, writer = await asyncio.open_connection(*ingress)
        writer.write(b"GET / HTTP/1.1\r\n\r\n")
        assert await reader.read() == b""
        writer.close()

        # missing SNI: closed
        reader, writer = await asyncio.open_connection(*ingress)
        writer.write(reference_client_hello(None))
        assert await reader.read() == b""
        writer.close()

        assert backend.connections == 0
        await proxy.close()
        await backend.close()

    run_async(scenario())


def test_peek_timeout_closes_silent_connections():
    async def scenario():
        proxy = SniProxy(peek_timeout=0.2)
        ingress = await proxy.start("127.0.0.1", 0)
        reader, writer = await asyncio.open_connection(*ingress)
        # send nothing; the proxy must hang up after the peek timeout
        data = await asyncio.wait_for(reader.read(), 5.0)
        assert data == b""
        writer.close()
        await proxy.close()

    run_async(scenario())


def test_close_with_live_relay_logs_no_error(tmp_path, caplog):
    async def scenario():
        ca = certs.make_ca("ingress-test-ca")
        ca_path = str(tmp_path / "ca.pem")
        with open(ca_path, "w") as fh:
            fh.write(ca.cert_pem)
        backend = EchoBackend("b0", str(tmp_path), ca, "live.dask.local")
        proxy = SniProxy()
        ingress = await proxy.start("127.0.0.1", 0)
        proxy.routes.register("live.dask.local", await backend.start())
        ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
        ctx.load_verify_locations(ca_path)
        reader, writer = await asyncio.open_connection(*ingress, ssl=ctx, server_hostname="live.dask.local")
        assert await reader.readline() == b"tag:b0\n"  # the relay is up and idle
        await proxy.close()  # cancels the relay mid-connection
        writer.close()
        await backend.close()

    run_async(scenario())
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert errors == [], [r.getMessage() for r in errors]
