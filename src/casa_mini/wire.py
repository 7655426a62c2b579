"""Message framing shared by every TCP/TLS control link.

A frame is a 4-byte big-endian length prefix followed by a UTF-8 JSON object
{"kind": str, "body": object}.  Frames above 16 MiB are a protocol violation
and close the connection.  Binary payloads (data-plane blocks) use the same
length prefix around raw bytes instead of JSON; see data_proxy.

`answering` is the one read, answer and close loop of every request/reply
service; `ConnectionTasks` ends a server's open connections at shutdown.
`Channel` is the client side: one kept connection that requests take turns
on.  `write_tls_files` writes a cluster's certificates and keys, and the
two `*_ssl_context` functions build its mutual-TLS contexts from them.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import ssl
import struct
from dataclasses import dataclass, field

log = logging.getLogger(__name__)

MAX_FRAME = 16 * 1024 * 1024
_LEN = struct.Struct(">I")
# A cluster's TLS files, by name in its directory: the CA's certificate, then a host and a user certificate and key
TLS_FILES = ("ca.pem", "host.pem", "host.key", "user.pem", "user.key")

# Control-plane vocabulary.  Decoding any kind outside this set is rejected.
KINDS = frozenset(
    {
        # cluster control; a worker's reports get no reply unless refused (Err)
        "WorkerHello",
        "Heartbeat",
        "AssignTask",
        "TaskDone",
        "TaskFailed",
        "SubmitJob",
        "WaitJob",
        "ScaleRequest",
        "TaskStream",
        # facility services
        "SubmitBatchJob",
        "Login",
        "Fetch",
        "RegisterRoute",
        "RemoveRoute",
        "ListRoutes",
        "Cancel",
        # generic replies
        "Ok",
        "Err",
    }
)


class WireError(ValueError):
    pass


class FrameTooLarge(WireError):
    pass


@dataclass(frozen=True)
class WireMessage:
    kind: str
    body: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise WireError(f"unknown message kind {self.kind!r}")


def encode(msg: WireMessage) -> bytes:
    payload = json.dumps({"kind": msg.kind, "body": msg.body}, separators=(",", ":")).encode()
    if len(payload) > MAX_FRAME:
        raise FrameTooLarge(f"frame of {len(payload)} bytes exceeds {MAX_FRAME}")
    return _LEN.pack(len(payload)) + payload


def decode(payload: bytes) -> WireMessage:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"bad frame payload: {exc}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("kind"), str):
        raise WireError("frame is not a {kind, body} object")
    body = obj.get("body", {})
    if not isinstance(body, dict):
        raise WireError("frame body is not an object")
    return WireMessage(kind=obj["kind"], body=body)


async def read_message(reader: asyncio.StreamReader) -> WireMessage:
    header = await reader.readexactly(_LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise FrameTooLarge(f"incoming frame of {length} bytes exceeds {MAX_FRAME}")
    return decode(await reader.readexactly(length))


async def send_message(writer: asyncio.StreamWriter, msg: WireMessage) -> None:
    writer.write(encode(msg))
    await writer.drain()


def ok(body: dict) -> WireMessage:
    return WireMessage("Ok", body)


def err(code: str, message: str) -> WireMessage:
    return WireMessage("Err", {"code": code, "message": message})


class RequestError(Exception):
    """An Err reply surfaced on the client side."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


def raise_on_err(msg: WireMessage) -> WireMessage:
    if msg.kind == "Err":
        raise RequestError(msg.body.get("code", "error"), msg.body.get("message", ""))
    return msg


def write_tls_files(directory: str, ca, host, user) -> tuple[str, ...]:
    """Write the CA's certificate and the host's and user's certificates and keys
    (`certs.PemPair`s) as TLS_FILES in `directory`, made private if new; their paths."""
    os.makedirs(directory, mode=0o700, exist_ok=True)
    paths = tuple(os.path.join(directory, name) for name in TLS_FILES)
    for path, pem in zip(paths, (ca.cert_pem, host.cert_pem, host.key_pem, user.cert_pem, user.key_pem)):
        with open(path, "w") as fh:
            fh.write(pem)
    return paths


def server_ssl_context(host_cert_path: str, host_key_path: str, ca_path: str) -> ssl.SSLContext:
    """Mutual TLS as a cluster's scheduler: present the host certificate, require one the cluster CA minted."""
    ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    ctx.load_cert_chain(host_cert_path, host_key_path)
    ctx.load_verify_locations(ca_path)
    ctx.verify_mode = ssl.CERT_REQUIRED
    return ctx


def client_ssl_context(ca_path: str, cert_path: str, key_path: str) -> ssl.SSLContext:
    """Mutual TLS as a facility client: trust the cluster CA, present a
    certificate it minted."""
    ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    ctx.load_verify_locations(ca_path)
    ctx.load_cert_chain(cert_path, key_path)
    return ctx


class Channel:
    """A request/reply connection, opened on first use and then kept.

    `open_connection()` returns a new (reader, writer) pair.  Requests take
    turns on the connection.  Any exception or cancellation during an
    exchange closes it, since the peer may still owe a reply that the next
    request would read as its own; the next request opens a new one.
    """

    def __init__(self, open_connection):
        self._open_connection = open_connection
        self._conn: tuple[asyncio.StreamReader, asyncio.StreamWriter] | None = None
        self._lock = asyncio.Lock()

    async def request(self, msg: WireMessage, read_reply=read_message):
        """Send `msg` and return `await read_reply(reader)`, by default the
        reply message."""
        async with self._lock:
            if self._conn is None:
                self._conn = await self._open_connection()
            reader, writer = self._conn
            try:
                await send_message(writer, msg)
                return await read_reply(reader)
            except BaseException:
                self.close()
                raise

    async def call(self, kind: str, body: dict) -> dict:
        """The body of the Ok reply to a `kind` request; an Err reply raises
        RequestError."""
        return raise_on_err(await self.request(WireMessage(kind, body))).body

    def close(self) -> None:
        if self._conn is not None:
            self._conn[1].close()
            self._conn = None

    async def aclose(self) -> None:
        """Close and wait, at most 5 s, for the transport (a TLS shutdown
        included) to finish on the running loop."""
        if self._conn is None:
            return
        writer = self._conn[1]
        self.close()
        try:
            await asyncio.wait_for(writer.wait_closed(), 5.0)
        except (OSError, asyncio.TimeoutError):
            pass


def answering(respond, name: str):
    """The connection handler of a request/reply service.

    It reads each request and writes back `await respond(msg)`: a
    WireMessage, or bytes that are already framed (a data-plane block).  It
    ends quietly when the peer closes, logs a warning and closes on a frame
    that is not a message, and always closes the writer.  `name` labels the
    log line.
    """

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    msg = await read_message(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                reply = await respond(msg)
                writer.write(reply if isinstance(reply, bytes) else encode(reply))
                await writer.drain()
        except WireError as exc:
            log.warning("%s: closing connection: %s", name, exc)
        finally:
            writer.close()

    return handle


class ConnectionTasks:
    """The connection handler tasks of one asyncio server.

    `wrap(handler)` gives the callback for asyncio.start_server;
    `close(*servers)` stops the servers accepting, cancels every handler
    still running and waits for them.  A handler that close() cancelled ends
    quietly: on Python 3.11, start_server's done-callback calls
    task.exception() on a cancelled handler and logs it as an error.  Any
    other cancellation still propagates.
    """

    def __init__(self):
        self._tasks: set[asyncio.Task] = set()
        self._closing = False

    def wrap(self, handler):
        async def tracked(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            task = asyncio.current_task()
            self._tasks.add(task)
            try:
                await handler(reader, writer)
            except asyncio.CancelledError:
                if not self._closing:
                    raise
            finally:
                self._tasks.discard(task)

        return tracked

    async def close(self, *servers: asyncio.AbstractServer | None) -> None:
        running = [server for server in servers if server is not None]
        for server in running:
            server.close()
        self._closing = True
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for server in running:
            await server.wait_closed()


class BackgroundTasks:
    """Tasks started for their effect, not their result.

    The set keeps each task referenced until it ends, so it cannot be
    garbage-collected mid-run, and an exception one raises is logged rather
    than lost.  `close()` cancels those still running and waits for them.
    """

    def __init__(self):
        self._tasks: set[asyncio.Task] = set()

    def spawn(self, coro) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._done)
        return task

    def _done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            log.error("background task %s failed", task.get_coro().__qualname__, exc_info=task.exception())

    async def close(self) -> None:
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
