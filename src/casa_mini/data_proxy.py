"""Token-authenticated caching data proxy and simulated federation origin.

The proxy fetches 64 KiB blocks on demand from an origin server using its own
federation credential (users never hold one), caches them, and serves byte
ranges to anyone presenting a valid data token.  Per-block single-flight
coordination means concurrent cold reads cause exactly one origin fetch.

Wire format
  Both listeners take one request, a framed WireMessage
  {kind:"Fetch", body:{path, offset, length, token | cred}}: the proxy checks
  a user's data token, the origin the proxy's federation credential.  Each
  reply is a length-prefixed block whose first byte is a status tag (TAG_*).
  A request that is not a Fetch, or whose path or secret is not a string or
  whose offset or length is not an integer, gets TAG_ERROR.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import os
import socket
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from . import tokens, wire

BLOCK_SIZE = 64 * 1024
MAX_FETCH = 16 * 1024 * 1024

TAG_OK = 0
TAG_NOT_FOUND = 1
TAG_BAD_CRED = 2
TAG_ERROR = 3
TAG_BAD_TOKEN = 4

_LEN = struct.Struct(">I")


class ProxyError(ValueError):
    pass


class OriginNotFound(ProxyError):
    pass


class BadFederationCred(ProxyError):
    pass


# The status tag of each error a Fetch can end in; any other error is
# TAG_ERROR, and a client raises ProxyError for it.
_ERROR_TAGS = {
    OriginNotFound: TAG_NOT_FOUND,
    BadFederationCred: TAG_BAD_CRED,
    tokens.TokenError: TAG_BAD_TOKEN,
}
_TAG_ERRORS = {tag: cls for cls, tag in _ERROR_TAGS.items()}


@dataclass(frozen=True)
class RemoteUrl:
    host: str
    path: str  # begins with /store/


def parse_remote_url(url: str) -> RemoteUrl | None:
    """Parse root://host//store/... ; None for local paths (no scheme)."""
    if "://" not in url:
        return None
    scheme, rest = url.split("://", 1)
    if scheme != "root":
        raise ProxyError(f"unsupported scheme {scheme!r}")
    host, sep, path = rest.partition("//")
    if not sep or not host:
        raise ProxyError(f"malformed remote url {url!r} (need root://host//store/...)")
    path = "/" + path
    if not path.startswith("/store/"):
        raise ProxyError(f"remote path must begin with /store/, got {path!r}")
    return RemoteUrl(host=host, path=path)


@dataclass
class CacheStats:
    origin_fetches: int = 0
    cache_hits: int = 0
    bytes_served: int = 0

    def as_dict(self) -> dict:
        return {
            "origin_fetches": self.origin_fetches,
            "cache_hits": self.cache_hits,
            "bytes_served": self.bytes_served,
        }


class BlockStore:
    """(path, block index) -> bytes, with optional LRU byte cap and disk spill."""

    def __init__(
        self,
        block_size: int = BLOCK_SIZE,
        max_bytes: int | None = None,
        cache_dir: str | None = None,
    ):
        self.block_size = block_size
        self.max_bytes = max_bytes
        self.cache_dir = cache_dir
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
        self._blocks: OrderedDict[tuple[str, int], bytes] = OrderedDict()
        self._total = 0
        self.stats = CacheStats()

    def block_range(self, offset: int, length: int) -> range:
        if length <= 0:
            return range(0)
        return range(offset // self.block_size, (offset + length - 1) // self.block_size + 1)

    def _disk_path(self, path: str, idx: int) -> str:
        digest = hashlib.sha256(path.encode()).hexdigest()[:24]
        return os.path.join(self.cache_dir, f"{digest}.{idx}.blk")

    def get(self, path: str, idx: int) -> bytes | None:
        data = self._blocks.get((path, idx))
        if data is not None:
            self._blocks.move_to_end((path, idx))
            return data
        if self.cache_dir:
            disk = self._disk_path(path, idx)
            if os.path.exists(disk):
                with open(disk, "rb") as fh:
                    data = fh.read()
                self.put(path, idx, data)
                return data
        return None

    def put(self, path: str, idx: int, data: bytes) -> None:
        key = (path, idx)
        if key in self._blocks:
            return
        self._blocks[key] = data
        self._total += len(data)
        if self.cache_dir:
            disk = self._disk_path(path, idx)
            if not os.path.exists(disk):
                # a crash mid-write leaves only the temporary file, which get never reads
                with open(disk + ".tmp", "wb") as fh:
                    fh.write(data)
                os.replace(disk + ".tmp", disk)
        if self.max_bytes is not None:
            while self._total > self.max_bytes and len(self._blocks) > 1:
                _, evicted = self._blocks.popitem(last=False)
                self._total -= len(evicted)

    def slice_blocks(self, blocks: list[bytes], first_idx: int, offset: int, length: int) -> bytes:
        """Cut [offset, offset+length) out of contiguous blocks starting at first_idx.

        Operates on the caller's block list, not the store: under an LRU cap a
        long fetch may span more blocks than the cache retains at once.
        """
        joined = b"".join(blocks)
        rel = offset - first_idx * self.block_size if blocks else 0
        return joined[rel : rel + length]


def range_reader(fetch, path: str, token: str):
    """A CACF range reader of `path` over a proxy's fetch(path, offset,
    length, token); a read longer than MAX_FETCH goes as consecutive fetches
    of at most MAX_FETCH bytes each."""

    def read(offset: int, length: int) -> bytes:
        if length <= MAX_FETCH:
            return fetch(path, offset, length, token)
        end = offset + length
        return b"".join(fetch(path, at, min(MAX_FETCH, end - at), token) for at in range(offset, end, MAX_FETCH))

    return read


def _check_fetch_args(offset: int, length: int) -> None:
    if offset < 0 or length < 0:
        raise ProxyError("negative offset or length")
    if length > MAX_FETCH:
        raise ProxyError(f"fetch of {length} bytes exceeds {MAX_FETCH}")


class LocalOrigin:
    """Direct file-range access under a root directory; the federation side."""

    def __init__(self, root: str, cred: str):
        self.root = os.path.abspath(root)
        self.cred = cred
        self.fetches = 0  # instrumentation for single-flight checks

    def resolve(self, path: str) -> str:
        if not path.startswith("/store/"):
            raise OriginNotFound(f"no such object {path!r}")
        full = os.path.abspath(os.path.join(self.root, path.lstrip("/")))
        if not full.startswith(self.root + os.sep):
            raise OriginNotFound(f"no such object {path!r}")
        if not os.path.isfile(full):
            raise OriginNotFound(f"no such object {path!r}")
        return full

    def fetch(self, path: str, offset: int, length: int, cred: str) -> bytes:
        if not hmac.compare_digest(cred.encode(), self.cred.encode()):
            raise BadFederationCred("bad federation credential")
        _check_fetch_args(offset, length)
        full = self.resolve(path)
        self.fetches += 1
        with open(full, "rb") as fh:
            fh.seek(offset)
            return fh.read(length)


class SyncDataProxy:
    """In-process read-through proxy; the virtual-clock facility's data path."""

    def __init__(
        self,
        origin: LocalOrigin,
        data_key: bytes,
        block_size: int = BLOCK_SIZE,
        max_bytes: int | None = None,
        clock=time.time,
    ):
        self.store = BlockStore(block_size=block_size, max_bytes=max_bytes)
        self.origin = origin
        self.token_gate = tokens.TokenGate(data_key, "data")
        self._clock = clock

    def fetch(self, path: str, offset: int, length: int, token: str, now: float | None = None) -> bytes:
        now = self._clock() if now is None else now
        self.token_gate.check(token, now)  # before any origin contact
        _check_fetch_args(offset, length)
        wanted = self.store.block_range(offset, length)
        blocks: list[bytes] = []
        for idx in wanted:
            data = self.store.get(path, idx)
            if data is not None:
                self.store.stats.cache_hits += 1
            else:
                data = self.origin.fetch(
                    path, idx * self.store.block_size, self.store.block_size, self.origin.cred
                )
                self.store.stats.origin_fetches += 1
                self.store.put(path, idx, data)
            blocks.append(data)
        out = self.store.slice_blocks(blocks, wanted.start, offset, length)
        self.store.stats.bytes_served += len(out)
        return out

    def stats(self) -> dict:
        return self.store.stats.as_dict()


def _tagged(tag: int, payload: bytes) -> bytes:
    return _LEN.pack(1 + len(payload)) + bytes([tag]) + payload


def _error_reply(exc: ValueError) -> bytes:
    tag = next((tag for cls, tag in _ERROR_TAGS.items() if isinstance(exc, cls)), TAG_ERROR)
    return _tagged(tag, str(exc).encode())


async def _read_block_reply(reader: asyncio.StreamReader) -> bytes:
    """The tagged body of one block reply."""
    header = await reader.readexactly(_LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_FETCH + 1:
        raise ProxyError(f"oversized block reply of {length} bytes")
    return await reader.readexactly(length)


def _untag(body: bytes) -> bytes:
    if not body:
        raise ProxyError("empty block reply")
    tag, payload = body[0], bytes(memoryview(body)[1:])
    if tag == TAG_OK:
        return payload
    raise _TAG_ERRORS.get(tag, ProxyError)(payload.decode("utf-8", "replace"))


def _parse_fetch(msg: wire.WireMessage, secret: str) -> tuple[str, int, int, str]:
    """The path, offset, length and `secret` ("token" or "cred") of a Fetch."""
    if msg.kind != "Fetch":
        raise ProxyError(f"unsupported kind {msg.kind}")
    body = msg.body
    path, offset, length, key = body.get("path"), body.get("offset"), body.get("length"), body.get(secret, "")
    if not (isinstance(path, str) and isinstance(key, str)):
        raise ProxyError(f"Fetch path and {secret} must be strings")
    if not all(isinstance(n, int) and not isinstance(n, bool) for n in (offset, length)):
        raise ProxyError("Fetch offset and length must be integers")
    return path, offset, length, key


class OriginServer:
    """Federation origin: serves file ranges to holders of the federation cred."""

    def __init__(self, root: str, cred: str):
        self.local = LocalOrigin(root, cred)
        self._server: asyncio.AbstractServer | None = None
        self._conns = wire.ConnectionTasks()

    async def start(self, host: str, port: int) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._conns.wrap(wire.answering(self._respond, "origin")), host, port
        )
        addr = self._server.sockets[0].getsockname()
        return addr[0], addr[1]

    async def close(self) -> None:
        await self._conns.close(self._server)

    async def _respond(self, msg: wire.WireMessage) -> bytes:
        try:
            data = self.local.fetch(*_parse_fetch(msg, "cred"))
        except ValueError as exc:
            return _error_reply(exc)
        return _tagged(TAG_OK, data)


class DataProxyServer:
    """Networked read-through proxy in front of an origin server."""

    def __init__(
        self,
        origin_addr: tuple[str, int],
        federation_cred: str,
        data_key: bytes,
        block_size: int = BLOCK_SIZE,
        max_bytes: int | None = None,
        cache_dir: str | None = None,
        clock=time.time,
    ):
        self.store = BlockStore(block_size=block_size, max_bytes=max_bytes, cache_dir=cache_dir)
        self.origin_addr = origin_addr
        self.federation_cred = federation_cred
        self.token_gate = tokens.TokenGate(data_key, "data")
        self._clock = clock
        self._inflight: dict[tuple[str, int], asyncio.Future] = {}
        self._origin = wire.Channel(lambda: asyncio.open_connection(*origin_addr))
        self._server: asyncio.AbstractServer | None = None
        self._conns = wire.ConnectionTasks()

    async def start(self, host: str, port: int) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._conns.wrap(wire.answering(self._respond, "data proxy")), host, port
        )
        addr = self._server.sockets[0].getsockname()
        return addr[0], addr[1]

    async def close(self) -> None:
        await self._conns.close(self._server)
        self._origin.close()

    async def _origin_fetch(self, path: str, offset: int, length: int) -> bytes:
        request = wire.WireMessage(
            "Fetch", {"path": path, "offset": offset, "length": length, "cred": self.federation_cred}
        )
        try:
            body = await self._origin.request(request, _read_block_reply)
        except (ConnectionError, asyncio.IncompleteReadError):
            raise ProxyError("origin connection lost") from None
        return _untag(body)

    async def _get_block(self, path: str, idx: int) -> bytes:
        key = (path, idx)
        cached = self.store.get(path, idx)
        if cached is not None:
            self.store.stats.cache_hits += 1
            return cached
        pending = self._inflight.get(key)
        if pending is not None:
            data = await asyncio.shield(pending)
            self.store.stats.cache_hits += 1
            return data
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = fut
        try:
            data = await self._origin_fetch(path, idx * self.store.block_size, self.store.block_size)
        except BaseException as exc:
            # Settle the followers on any exit, cancellation included; the
            # next request for the block fetches it again.
            if not isinstance(exc, Exception):
                exc = ProxyError(f"origin fetch of {path} block {idx} did not finish")
            fut.set_exception(exc)
            fut.exception()  # mark retrieved for the no-follower case
            raise
        else:
            self.store.stats.origin_fetches += 1
            self.store.put(path, idx, data)
            fut.set_result(data)
            return data
        finally:
            del self._inflight[key]

    async def fetch(self, path: str, offset: int, length: int, token: str) -> bytes:
        self.token_gate.check(token, self._clock())
        _check_fetch_args(offset, length)
        wanted = self.store.block_range(offset, length)
        blocks = [await self._get_block(path, idx) for idx in wanted]
        out = self.store.slice_blocks(blocks, wanted.start, offset, length)
        self.store.stats.bytes_served += len(out)
        return out

    def stats(self) -> dict:
        return self.store.stats.as_dict()

    async def _respond(self, msg: wire.WireMessage) -> bytes:
        try:
            data = await self.fetch(*_parse_fetch(msg, "token"))
        except ValueError as exc:
            return _error_reply(exc)
        return _tagged(TAG_OK, data)


class _NoReply(ConnectionError):
    """The connection ended before the first byte of a reply."""


def _recv_exact(sock: socket.socket, count: int, first: bool = False) -> bytearray:
    """Read exactly `count` bytes.  With `first`, a connection that ends
    before any of them arrive raises _NoReply."""
    buf = bytearray(count)
    with memoryview(buf) as view:
        got = 0
        while got < count:
            try:
                n = sock.recv_into(view[got:])
            except ConnectionResetError:
                n = 0
            if not n:
                raise (_NoReply if first and not got else ConnectionError)("proxy connection closed")
            got += n
    return buf


class ProxyClient:
    """Blocking proxy client.  Each thread that fetches through it has its
    own connection, opened on first use and kept across requests.

    The proxy may close a connection that was idle between tasks, so a
    request on a reused connection that gets no reply byte is sent once more
    on a new one; Fetch is idempotent.
    """

    def __init__(self, proxy: tuple[str, int], timeout: float = 30.0):
        self.addr = proxy
        self.timeout = timeout
        self._local = threading.local()
        self._lock = threading.Lock()
        self._socks: set[socket.socket] = set()  # every thread's open connection

    def _sock(self) -> socket.socket | None:
        """This thread's connection, unless it has been closed."""
        sock = getattr(self._local, "sock", None)
        return sock if sock is not None and sock.fileno() >= 0 else None

    def _connect(self) -> socket.socket:
        sock = self._sock()
        if sock is None:
            sock = self._local.sock = socket.create_connection(self.addr, timeout=self.timeout)
            with self._lock:
                self._socks.add(sock)
        return sock

    def close(self) -> None:
        """Close every thread's connection; a later fetch opens a new one."""
        with self._lock:
            socks, self._socks = self._socks, set()
        for sock in socks:
            sock.close()

    def fetch(self, path: str, offset: int, length: int, token: str) -> bytes:
        request = wire.encode(
            wire.WireMessage("Fetch", {"path": path, "offset": offset, "length": length, "token": token})
        )
        reused = self._sock() is not None
        try:
            reply = self._exchange(request)
        except _NoReply:
            if not reused:
                raise
            reply = self._exchange(request)
        return _untag(reply)

    def _exchange(self, request: bytes) -> bytearray:
        sock = self._connect()
        try:
            try:
                sock.sendall(request)
            except ConnectionError as exc:
                raise _NoReply(str(exc)) from exc
            (size,) = _LEN.unpack(_recv_exact(sock, _LEN.size, first=True))
            if size > MAX_FETCH + 1:
                raise ProxyError(f"oversized block reply of {size} bytes")
            return _recv_exact(sock, size)
        except BaseException:
            with self._lock:  # the stream is out of step with the requests
                self._socks.discard(sock)
            sock.close()
            raise
