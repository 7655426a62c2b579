"""Async clients for the facility services: login, batch, scheduler."""

from __future__ import annotations

import asyncio
import ssl

from . import wire
from .batchsim import JobSpec


async def login(authd_addr: tuple[str, int], assertion: dict) -> dict:
    """Present an identity assertion; returns the credential bundle reply."""
    reader, writer = await asyncio.open_connection(*authd_addr)
    try:
        await wire.send_message(writer, wire.WireMessage("Login", {"assertion": assertion}))
        reply = await wire.read_message(reader)
        return wire.raise_on_err(reply).body
    finally:
        writer.close()


class BatchClient:
    def __init__(self, addr: tuple[str, int]):
        self.addr = addr
        self._conn: tuple[asyncio.StreamReader, asyncio.StreamWriter] | None = None
        self._lock = asyncio.Lock()

    async def _request(self, msg: wire.WireMessage) -> wire.WireMessage:
        async with self._lock:
            if self._conn is None:
                self._conn = await asyncio.open_connection(*self.addr)
            reader, writer = self._conn
            try:
                await wire.send_message(writer, msg)
                return await wire.read_message(reader)
            except (ConnectionError, asyncio.IncompleteReadError):
                self._conn = None
                raise

    async def submit(self, spec: JobSpec) -> int:
        reply = wire.raise_on_err(await self._request(wire.WireMessage("SubmitJob", spec.to_dict())))
        return int(reply.body["handle"])

    async def cancel(self, handle: int) -> str:
        reply = wire.raise_on_err(
            await self._request(wire.WireMessage("Cancel", {"handle": handle}))
        )
        return reply.body["state"]

    async def status(self, handle: int) -> dict:
        reply = wire.raise_on_err(
            await self._request(wire.WireMessage("JobStatus", {"handle": handle}))
        )
        return reply.body

    def close(self) -> None:
        if self._conn is not None:
            self._conn[1].close()
            self._conn = None


class SchedulerClient:
    """Client-side session to a scheduler, normally through the SNI ingress."""

    def __init__(
        self,
        ingress: tuple[str, int],
        sni: str,
        ca_path: str,
        cert_path: str,
        key_path: str,
    ):
        self.ingress = ingress
        self.sni = sni
        self.ca_path = ca_path
        self.cert_path = cert_path
        self.key_path = key_path
        self._conn: tuple[asyncio.StreamReader, asyncio.StreamWriter] | None = None
        self._lock = asyncio.Lock()

    def _ssl_context(self) -> ssl.SSLContext:
        ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
        ctx.load_verify_locations(self.ca_path)
        ctx.load_cert_chain(self.cert_path, self.key_path)
        return ctx

    async def connect(self) -> None:
        if self._conn is None:
            self._conn = await asyncio.open_connection(
                *self.ingress, ssl=self._ssl_context(), server_hostname=self.sni
            )

    async def _request(self, msg: wire.WireMessage) -> wire.WireMessage:
        async with self._lock:
            await self.connect()
            reader, writer = self._conn
            try:
                await wire.send_message(writer, msg)
                return await wire.read_message(reader)
            except BaseException:
                # A reply still owed, as after a cancelled WaitJob, would
                # otherwise be read as the answer to the next request.
                self.close()
                raise

    async def submit_job(
        self,
        pipeline: list,
        dataset_name: str,
        files: list[str],
        events_per_file: list[int],
        chunk_size: int = 5000,
    ) -> str:
        reply = wire.raise_on_err(
            await self._request(
                wire.WireMessage(
                    "SubmitJob",
                    {
                        "pipeline": pipeline,
                        "dataset": {
                            "name": dataset_name,
                            "files": files,
                            "events_per_file": events_per_file,
                        },
                        "chunk_size": chunk_size,
                    },
                )
            )
        )
        return reply.body["job_id"]

    async def job_status(self, job_id: str) -> dict:
        reply = wire.raise_on_err(
            await self._request(wire.WireMessage("JobStatus", {"job_id": job_id}))
        )
        return reply.body

    async def wait_job(self, job_id: str, timeout: float = 60.0) -> dict:
        """The job's status once it has finished or failed.  The scheduler
        answers each WaitJob when the job ends, or after at most the time
        left (it may cap that), so this asks again until its deadline."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            left = max(0.0, deadline - loop.time())
            reply = await self._request(wire.WireMessage("WaitJob", {"job_id": job_id, "timeout": left}))
            status = wire.raise_on_err(reply).body
            if status["state"] != "running":
                return status
            if loop.time() >= deadline:
                raise TimeoutError(f"job {job_id} still running after {timeout}s")

    async def scale_request(self, **body) -> dict:
        reply = wire.raise_on_err(await self._request(wire.WireMessage("ScaleRequest", body)))
        return reply.body

    async def task_stream_csv(self) -> str:
        reply = wire.raise_on_err(
            await self._request(wire.WireMessage("ScaleRequest", {"export": "task_stream"}))
        )
        return reply.body["task_stream_csv"]

    def close(self) -> None:
        if self._conn is not None:
            self._conn[1].close()
            self._conn = None

    async def aclose(self) -> None:
        """Close and wait, at most 5 s, for the TLS shutdown to finish on the
        running loop."""
        if self._conn is None:
            return
        writer = self._conn[1]
        self.close()
        try:
            await asyncio.wait_for(writer.wait_closed(), 5.0)
        except (OSError, ssl.SSLError, asyncio.TimeoutError):
            pass
