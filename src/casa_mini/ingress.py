"""SNI-multiplexed TLS ingress.

One listening address fronts every per-user scheduler: the proxy peeks the
TLS ClientHello, extracts server_name, and splices the raw byte stream to
the matching backend.  TLS is never terminated here; the buffered hello
bytes are replayed to the backend ahead of everything else, so end-to-end
mTLS handshakes pass through untouched.
"""

from __future__ import annotations

import asyncio
import logging
import struct
from dataclasses import dataclass, field

from . import wire

log = logging.getLogger(__name__)

MAX_PEEK = 16 * 1024
TLS_HANDSHAKE = 0x16
CLIENT_HELLO = 0x01
SNI_EXTENSION = 0x0000
DEFAULT_PEEK_TIMEOUT = 5.0


class SniError(ValueError):
    pass


class NotTls(SniError):
    pass


class MalformedHello(SniError):
    pass


class NeedMoreData(Exception):
    """The buffered prefix does not yet hold a complete ClientHello record."""


def parse_sni(data: bytes) -> str | None:
    """Extract server_name from a buffered ClientHello; None when absent.

    Raises NotTls on a non-TLS first byte, NeedMoreData while the first
    handshake record is incomplete, MalformedHello on inconsistent lengths.
    """
    if len(data) == 0:
        raise NeedMoreData
    if data[0] != TLS_HANDSHAKE:
        raise NotTls(f"not TLS: first byte {data[0]:#04x}")
    if len(data) < 5:
        raise NeedMoreData
    (record_len,) = struct.unpack(">H", data[3:5])
    if record_len + 5 > MAX_PEEK:
        raise MalformedHello(f"ClientHello record of {record_len} bytes exceeds {MAX_PEEK}")
    if len(data) < 5 + record_len:
        raise NeedMoreData
    body = data[5 : 5 + record_len]

    def need(offset: int, count: int) -> bytes:
        if offset + count > len(body):
            raise MalformedHello("truncated ClientHello")
        return body[offset : offset + count]

    if need(0, 1)[0] != CLIENT_HELLO:
        raise MalformedHello(f"handshake type {body[0]:#04x} is not ClientHello")
    (hs_len,) = struct.unpack(">I", b"\x00" + need(1, 3))
    if hs_len + 4 > len(body):
        raise MalformedHello("handshake length overruns the record")
    pos = 4 + 2 + 32  # version + random
    session_len = need(pos, 1)[0]
    pos += 1 + session_len
    (cipher_len,) = struct.unpack(">H", need(pos, 2))
    pos += 2 + cipher_len
    comp_len = need(pos, 1)[0]
    pos += 1 + comp_len
    if pos == 4 + hs_len:
        return None  # legacy hello without extensions
    (ext_total,) = struct.unpack(">H", need(pos, 2))
    pos += 2
    end = pos + ext_total
    if end > len(body):
        raise MalformedHello("extensions overrun the record")
    while pos + 4 <= end:
        ext_type, ext_len = struct.unpack(">HH", need(pos, 4))
        pos += 4
        if pos + ext_len > end:
            raise MalformedHello("extension overruns the extension block")
        if ext_type == SNI_EXTENSION:
            ext = body[pos : pos + ext_len]
            if len(ext) < 2:
                raise MalformedHello("empty server_name extension")
            (list_len,) = struct.unpack(">H", ext[:2])
            epos = 2
            if 2 + list_len > len(ext):
                raise MalformedHello("server_name list overruns the extension")
            while epos + 3 <= 2 + list_len:
                name_type = ext[epos]
                (name_len,) = struct.unpack(">H", ext[epos + 1 : epos + 3])
                epos += 3
                if epos + name_len > len(ext):
                    raise MalformedHello("server_name overruns the list")
                if name_type == 0:
                    try:
                        return ext[epos : epos + name_len].decode("ascii").lower()
                    except UnicodeDecodeError:
                        raise MalformedHello("server_name is not ASCII") from None
                epos += name_len
            return None
        pos += ext_len
    return None


class RouteError(ValueError):
    pass


class RouteTable:
    """Case-insensitive SNI hostname -> backend address, with atomic updates."""

    def __init__(self):
        self._routes: dict[str, tuple[str, int]] = {}
        self.version = 0

    def register(self, hostname: str, backend: tuple[str, int]) -> int:
        key = self._check(hostname)
        if key in self._routes:
            raise RouteError(f"duplicate route {key!r}")
        routes = dict(self._routes)
        routes[key] = (backend[0], int(backend[1]))
        self._routes = routes
        self.version += 1
        return self.version

    def remove(self, hostname: str) -> int:
        key = hostname.lower()
        if key not in self._routes:
            raise RouteError(f"unknown route {key!r}")
        routes = dict(self._routes)
        del routes[key]
        self._routes = routes
        self.version += 1
        return self.version

    def resolve(self, hostname: str) -> tuple[str, int] | None:
        return self._routes.get(hostname.lower())

    def entries(self) -> dict[str, tuple[str, int]]:
        return dict(self._routes)

    def __len__(self) -> int:
        return len(self._routes)

    @staticmethod
    def _check(hostname: str) -> str:
        key = hostname.lower()
        if not key or len(key) > 253 or not key.isascii():
            raise RouteError(f"invalid hostname {hostname!r}")
        for label in key.split("."):
            if not label or len(label) > 63:
                raise RouteError(f"invalid hostname {hostname!r}")
        return key


async def _relay(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            data = await reader.read(64 * 1024)
            if not data:
                break
            writer.write(data)
            await writer.drain()
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        try:
            if writer.can_write_eof():
                writer.write_eof()
        except (OSError, RuntimeError):
            pass


@dataclass
class SniProxy:
    routes: RouteTable = field(default_factory=RouteTable)
    peek_timeout: float = DEFAULT_PEEK_TIMEOUT
    _server: asyncio.AbstractServer | None = None
    _admin: asyncio.AbstractServer | None = None
    _conns: wire.ConnectionTasks = field(default_factory=wire.ConnectionTasks)

    async def start(self, host: str, port: int) -> tuple[str, int]:
        self._server = await asyncio.start_server(self._conns.wrap(self._handle), host, port)
        addr = self._server.sockets[0].getsockname()
        return addr[0], addr[1]

    async def start_admin(self, host: str, port: int) -> tuple[str, int]:
        self._admin = await asyncio.start_server(
            self._conns.wrap(wire.answering(self._respond_admin, "ingress admin")), host, port
        )
        addr = self._admin.sockets[0].getsockname()
        return addr[0], addr[1]

    async def close(self) -> None:
        await self._conns.close(self._server, self._admin)

    async def _peek_hello(self, reader: asyncio.StreamReader) -> tuple[bytes, str | None]:
        buf = b""
        while True:
            chunk = await reader.read(MAX_PEEK - len(buf))
            if not chunk:
                raise MalformedHello("connection closed before a full ClientHello")
            buf += chunk
            try:
                return buf, parse_sni(buf)
            except NeedMoreData:
                if len(buf) >= MAX_PEEK:
                    raise MalformedHello("no complete ClientHello within 16 KiB") from None

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        backend_writer = None
        try:
            try:
                buf, hostname = await asyncio.wait_for(self._peek_hello(reader), self.peek_timeout)
            except (SniError, asyncio.TimeoutError) as exc:
                log.info("ingress: dropping connection: %s", exc)
                return
            if hostname is None:
                log.info("ingress: dropping connection without SNI")
                return
            backend = self.routes.resolve(hostname)
            if backend is None:
                log.info("ingress: no route for %r", hostname)
                return
            try:
                backend_reader, backend_writer = await asyncio.open_connection(*backend)
            except OSError as exc:
                log.warning("ingress: backend %s unreachable: %s", backend, exc)
                return
            backend_writer.write(buf)
            await backend_writer.drain()
            await asyncio.gather(
                _relay(reader, backend_writer),
                _relay(backend_reader, writer),
            )
        finally:
            for w in (writer, backend_writer):
                if w is not None:
                    try:
                        w.close()
                    except OSError:
                        pass

    async def _respond_admin(self, msg: wire.WireMessage) -> wire.WireMessage:
        try:
            if msg.kind == "RegisterRoute":
                host, port = msg.body["backend"]
                return wire.ok({"version": self.routes.register(msg.body["hostname"], (host, port))})
            if msg.kind == "RemoveRoute":
                return wire.ok({"version": self.routes.remove(msg.body["hostname"])})
            if msg.kind == "ListRoutes":
                routes = {k: list(v) for k, v in self.routes.entries().items()}
                return wire.ok({"version": self.routes.version, "routes": routes})
            return wire.err("bad_request", f"unsupported kind {msg.kind}")
        except (RouteError, KeyError, TypeError, ValueError) as exc:
            return wire.err("route_error", str(exc))
