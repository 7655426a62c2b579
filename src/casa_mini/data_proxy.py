"""Token-authenticated caching data proxy and simulated federation origin.

The proxy fetches 64 KiB blocks on demand from an origin server using its own
federation credential (users never hold one), caches them, and serves byte
ranges to anyone presenting a valid data token.  Per-block single-flight
coordination means concurrent cold reads cause exactly one origin fetch.

Wire format
  Both listeners take one request, a framed WireMessage
  {kind:"Fetch", body:{path, ranges, token | cred}}, where ranges lists
  [offset, length] pairs, in the spirit of XRootD's kXR_readv: at most
  MAX_RANGES of them, of at most MAX_FETCH bytes together.  The proxy checks
  a user's data token, the origin the proxy's federation credential.  Each
  reply is a length-prefixed block whose first byte is a status tag (TAG_*).
  After TAG_OK come one big-endian u32 per range, the length of its bytes
  (short at EOF), then those bytes, range after range; after any other tag, a
  message.  A request that is not a Fetch, whose path or secret is not a
  string, or whose ranges break those bounds gets TAG_ERROR.  Both proxies
  ask the origin for the blocks a request misses in as few such Fetches as
  those bounds allow (`fetch_requests`), as a worker asks a proxy.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import itertools
import os
import socket
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from . import tokens, wire

BLOCK_SIZE = 64 * 1024
MAX_FETCH = 16 * 1024 * 1024  # bytes one Fetch may ask for, over all its ranges
MAX_RANGES = 1024  # ranges one Fetch may list, as many as a kXR_readv
# The longest block reply: its tag, a length per range and MAX_FETCH bytes.
MAX_REPLY = 1 + 4 * MAX_RANGES + MAX_FETCH

TAG_OK = 0
TAG_NOT_FOUND = 1
TAG_BAD_CRED = 2
TAG_ERROR = 3
TAG_BAD_TOKEN = 4
TAG_UNAVAILABLE = 5

_LEN = struct.Struct(">I")


class ProxyError(ValueError):
    pass


class OriginNotFound(ProxyError):
    pass


class BadFederationCred(ProxyError):
    pass


class OriginUnavailable(ProxyError):
    """The origin could not be reached or did not answer; a later request may succeed."""


# The status tag of each error a Fetch can end in; any other error is
# TAG_ERROR, and a client raises ProxyError for it.
_ERROR_TAGS = {
    OriginNotFound: TAG_NOT_FOUND,
    BadFederationCred: TAG_BAD_CRED,
    tokens.TokenError: TAG_BAD_TOKEN,
    OriginUnavailable: TAG_UNAVAILABLE,
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

    def blocks_of(self, ranges: list[tuple[int, int]]) -> list[int]:
        """The blocks the ranges touch, each once, in order."""
        return sorted({idx for offset, length in ranges for idx in self.block_range(offset, length)})

    def cut(self, blocks: dict[int, bytes], ranges: list[tuple[int, int]]) -> list[bytes]:
        """Each range's bytes, joined from memoryview slices of the blocks
        that hold it, so each byte is copied once; a short block ends the file.

        Operates on the caller's blocks, not the store: under an LRU cap a
        long fetch may span more blocks than the cache retains at once.
        """
        size = self.block_size
        out = []
        for offset, length in ranges:
            parts = []
            for idx in self.block_range(offset, length):
                base = idx * size
                parts.append(memoryview(blocks[idx])[max(offset - base, 0) : offset + length - base])
            out.append(b"".join(parts))
        return out


def check_ranges(ranges) -> list[tuple[int, int]]:
    """A Fetch's ranges, checked: a list of at most MAX_RANGES [offset,
    length] pairs of non-negative integers, of at most MAX_FETCH bytes together."""
    if not isinstance(ranges, (list, tuple)):
        raise ProxyError("Fetch ranges must be a list of [offset, length] pairs")
    if len(ranges) > MAX_RANGES:
        raise ProxyError(f"fetch of {len(ranges)} ranges exceeds {MAX_RANGES}")
    checked = []
    for pair in ranges:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(type(n) is int for n in pair)):
            raise ProxyError("Fetch ranges must be a list of [offset, length] pairs of integers")
        if pair[0] < 0 or pair[1] < 0:
            raise ProxyError("negative offset or length")
        checked.append((pair[0], pair[1]))
    total = sum(length for _, length in checked)
    if total > MAX_FETCH:
        raise ProxyError(f"fetch of {total} bytes exceeds {MAX_FETCH}")
    return checked


def fetch_requests(ranges: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Ranges of at most MAX_FETCH bytes each, in order, packed into as few
    Fetch requests as MAX_FETCH and MAX_RANGES allow."""
    requests, request, total = [], [], 0
    for piece in ranges:
        if request and (total + piece[1] > MAX_FETCH or len(request) == MAX_RANGES):
            requests.append(request)
            request, total = [], 0
        request.append(piece)
        total += piece[1]
    if request:
        requests.append(request)
    return requests


def range_reader(fetch, path: str, token: str):
    """A CACF ranges reader of `path` over a proxy's fetch(path, ranges,
    token), in as few fetches as fetch_requests makes; a range longer than
    MAX_FETCH goes as pieces of at most MAX_FETCH bytes each."""

    def read(ranges: list[tuple[int, int]]) -> list[bytes]:
        pieces, counts = [], []  # the ranges cut to at most MAX_FETCH; pieces per range
        for offset, length in ranges:
            cut = [(at, min(MAX_FETCH, offset + length - at)) for at in range(offset, offset + length, MAX_FETCH)]
            pieces += cut
            counts.append(len(cut))
        parts = (data for request in fetch_requests(pieces) for data in fetch(path, request, token))
        return [b"".join(itertools.islice(parts, n)) for n in counts]

    return read


class LocalOrigin:
    """Direct file-range access under a root directory; the federation side."""

    def __init__(self, root: str, cred: str):
        self.root = os.path.abspath(root)
        self.cred = cred
        self.fetches = 0  # requests served, for single-flight checks

    def resolve(self, path: str) -> str:
        if not path.startswith("/store/"):
            raise OriginNotFound(f"no such object {path!r}")
        full = os.path.abspath(os.path.join(self.root, path.lstrip("/")))
        if not full.startswith(self.root + os.sep):
            raise OriginNotFound(f"no such object {path!r}")
        if not os.path.isfile(full):
            raise OriginNotFound(f"no such object {path!r}")
        return full

    def fetch(self, path: str, ranges: list[tuple[int, int]], cred: str) -> list[bytes]:
        if not hmac.compare_digest(cred.encode(), self.cred.encode()):
            raise BadFederationCred("bad federation credential")
        ranges = check_ranges(ranges)
        full = self.resolve(path)
        self.fetches += 1
        fd = os.open(full, os.O_RDONLY)
        try:
            return [os.pread(fd, length, offset) for offset, length in ranges]
        finally:
            os.close(fd)


class _ReadThrough:
    """What both proxies share: the token gate, the block walk, the cache
    fill and the counters.  A fetch looks up the blocks its ranges touch,
    has the proxy fill the missing ones from the origin, then cuts its ranges
    out of them."""

    def __init__(self, data_key: bytes, block_size: int, max_bytes: int | None, cache_dir: str | None, clock):
        self.store = BlockStore(block_size=block_size, max_bytes=max_bytes, cache_dir=cache_dir)
        self.token_gate = tokens.TokenGate(data_key, "data")
        self._clock = clock

    def _lookup(self, path: str, ranges, token: str, now: float):
        """The checked ranges, the cached blocks they touch by index, and
        the indices of those missing; the token is checked before anything."""
        self.token_gate.check(token, now)
        ranges = check_ranges(ranges)
        found: dict[int, bytes] = {}
        missing = []
        for idx in self.store.blocks_of(ranges):
            data = self.store.get(path, idx)
            if data is None:
                missing.append(idx)
            else:
                found[idx] = data
        self.store.stats.cache_hits += len(found)
        return ranges, found, missing

    def _block_ranges(self, blocks: list[int]) -> list[tuple[int, int]]:
        size = self.store.block_size
        return [(idx * size, size) for idx in blocks]

    def _keep(self, path: str, idx: int, data: bytes, found: dict[int, bytes]) -> None:
        self.store.stats.origin_fetches += 1
        self.store.put(path, idx, data)
        found[idx] = data

    def _serve(self, ranges: list[tuple[int, int]], found: dict[int, bytes]) -> list[bytes]:
        out = self.store.cut(found, ranges)
        self.store.stats.bytes_served += sum(map(len, out))
        return out

    def stats(self) -> dict:
        return self.store.stats.as_dict()


class SyncDataProxy(_ReadThrough):
    """In-process read-through proxy; the virtual-clock facility's data path."""

    def __init__(
        self,
        origin: LocalOrigin,
        data_key: bytes,
        block_size: int = BLOCK_SIZE,
        max_bytes: int | None = None,
        clock=time.time,
    ):
        super().__init__(data_key, block_size, max_bytes, None, clock)
        self.origin = origin

    def fetch(self, path: str, ranges, token: str, now: float | None = None) -> list[bytes]:
        ranges, found, missing = self._lookup(path, ranges, token, self._clock() if now is None else now)
        if missing:
            read = range_reader(self.origin.fetch, path, self.origin.cred)
            for idx, data in zip(missing, read(self._block_ranges(missing))):
                self._keep(path, idx, data, found)
        return self._serve(ranges, found)


def _tagged(tag: int, payload: bytes) -> bytes:
    return _LEN.pack(1 + len(payload)) + bytes([tag]) + payload


def _served(parts: list[bytes]) -> bytes:
    """The TAG_OK block reply carrying each range's bytes."""
    lengths = [len(part) for part in parts]
    table = struct.pack(f">{len(parts)}I", *lengths)
    return b"".join([_LEN.pack(1 + len(table) + sum(lengths)), bytes([TAG_OK]), table, *parts])


def _error_reply(exc: ValueError) -> bytes:
    tag = next((tag for cls, tag in _ERROR_TAGS.items() if isinstance(exc, cls)), TAG_ERROR)
    return _tagged(tag, str(exc).encode())


async def _read_block_reply(reader: asyncio.StreamReader) -> bytes:
    """The tagged body of one block reply."""
    header = await reader.readexactly(_LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_REPLY:
        raise ProxyError(f"oversized block reply of {length} bytes")
    return await reader.readexactly(length)


def _untag(body: bytes | bytearray, n_ranges: int) -> list[bytes]:
    """The bytes of each of a request's n_ranges ranges from its reply's
    tagged body; an error reply raises its error."""
    if not body:
        raise ProxyError("empty block reply")
    if body[0] != TAG_OK:
        raise _TAG_ERRORS.get(body[0], ProxyError)(bytes(body[1:]).decode("utf-8", "replace"))
    at = 1 + 4 * n_ranges
    if len(body) < at:
        raise ProxyError("block reply is shorter than its length table")
    lengths = struct.unpack_from(f">{n_ranges}I", body, 1)
    if at + sum(lengths) != len(body):
        raise ProxyError("block reply does not match its length table")
    out = []
    with memoryview(body) as view:
        for length in lengths:
            out.append(bytes(view[at : at + length]))
            at += length
    return out


def _parse_fetch(msg: wire.WireMessage, secret: str) -> tuple[str, object, str]:
    """The path, ranges (checked by the fetch) and `secret` ("token" or "cred") of a Fetch."""
    if msg.kind != "Fetch":
        raise ProxyError(f"unsupported kind {msg.kind}")
    body = msg.body
    path, key = body.get("path"), body.get(secret, "")
    if not (isinstance(path, str) and isinstance(key, str)):
        raise ProxyError(f"Fetch path and {secret} must be strings")
    return path, body.get("ranges"), key


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
            return _served(self.local.fetch(*_parse_fetch(msg, "cred")))
        except ValueError as exc:
            return _error_reply(exc)


class DataProxyServer(_ReadThrough):
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
        super().__init__(data_key, block_size, max_bytes, cache_dir, clock)
        self.origin_addr = origin_addr
        self.federation_cred = federation_cred
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

    async def _origin_fetch(self, path: str, ranges: list[tuple[int, int]]) -> list[bytes]:
        """The ranges' bytes, in one origin Fetch."""
        request = wire.WireMessage("Fetch", {"path": path, "ranges": ranges, "cred": self.federation_cred})
        try:
            body = await self._origin.request(request, _read_block_reply)
        except (ConnectionError, asyncio.IncompleteReadError):
            raise OriginUnavailable("origin connection lost") from None
        return _untag(body, len(ranges))

    async def _fill(self, path: str, missing: list[int], found: dict[int, bytes]) -> None:
        """Put each missing block in `found`: a block another request is
        already fetching is awaited, the others are asked of the origin in
        as few Fetches as fetch_requests makes, each under a single-flight
        future."""
        loop = asyncio.get_running_loop()
        led: dict[int, asyncio.Future] = {}
        joined = []
        for idx in missing:
            pending = self._inflight.get((path, idx))
            if pending is None:
                led[idx] = self._inflight[(path, idx)] = loop.create_future()
            else:
                joined.append((idx, pending))
        error: Exception = OriginUnavailable(f"origin fetch of {path} did not finish")
        try:
            for request in fetch_requests(self._block_ranges(list(led))):
                for (offset, _), data in zip(request, await self._origin_fetch(path, request)):
                    idx = offset // self.store.block_size
                    self._keep(path, idx, data, found)
                    led[idx].set_result(data)
        except BaseException as exc:
            if isinstance(exc, Exception):
                error = exc
            raise
        finally:
            # Settle the followers on any exit, cancellation included; the
            # next request for a block fetches it again.
            for idx, fut in led.items():
                del self._inflight[(path, idx)]
                if not fut.done():
                    fut.set_exception(error)
                    fut.exception()  # mark retrieved for the no-follower case
        for idx, pending in joined:
            found[idx] = await asyncio.shield(pending)
            self.store.stats.cache_hits += 1

    async def fetch(self, path: str, ranges, token: str) -> list[bytes]:
        ranges, found, missing = self._lookup(path, ranges, token, self._clock())
        if missing:
            await self._fill(path, missing, found)
        return self._serve(ranges, found)

    async def _respond(self, msg: wire.WireMessage) -> bytes:
        try:
            return _served(await self.fetch(*_parse_fetch(msg, "token")))
        except ValueError as exc:
            return _error_reply(exc)


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

    def fetch(self, path: str, ranges: list[tuple[int, int]], token: str) -> list[bytes]:
        request = wire.encode(wire.WireMessage("Fetch", {"path": path, "ranges": ranges, "token": token}))
        reused = self._sock() is not None
        try:
            reply = self._exchange(request)
        except _NoReply:
            if not reused:
                raise
            reply = self._exchange(request)
        return _untag(reply, len(ranges))

    def _exchange(self, request: bytes) -> bytearray:
        sock = self._connect()
        try:
            try:
                sock.sendall(request)
            except ConnectionError as exc:
                raise _NoReply(str(exc)) from exc
            (size,) = _LEN.unpack(_recv_exact(sock, _LEN.size, first=True))
            if size > MAX_REPLY:
                raise ProxyError(f"oversized block reply of {size} bytes")
            return _recv_exact(sock, size)
        except BaseException:
            with self._lock:  # the stream is out of step with the requests
                self._socks.discard(sock)
            sock.close()
            raise
