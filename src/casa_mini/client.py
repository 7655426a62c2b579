"""Async clients for the facility services: login, batch, scheduler."""

from __future__ import annotations

import asyncio

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


class BatchClient(wire.Channel):
    def __init__(self, addr: tuple[str, int]):
        super().__init__(lambda: asyncio.open_connection(*addr))

    async def submit(self, spec: JobSpec) -> int:
        return int((await self.call("SubmitBatchJob", spec.to_dict()))["handle"])

    async def cancel(self, handle: int, batch_token: str) -> str:
        return (await self.call("Cancel", {"handle": handle, "batch_token": batch_token}))["state"]


class SchedulerClient(wire.Channel):
    """Client-side session to a scheduler, normally through the SNI ingress."""

    def __init__(
        self,
        ingress: tuple[str, int],
        sni: str,
        ca_path: str,
        cert_path: str,
        key_path: str,
    ):
        def open_connection():
            ctx = wire.client_ssl_context(ca_path, cert_path, key_path)
            return asyncio.open_connection(*ingress, ssl=ctx, server_hostname=sni)

        super().__init__(open_connection)

    async def submit_job(
        self,
        pipeline: list,
        dataset_name: str,
        files: list[str],
        events_per_file: list[int],
        chunk_size: int = 5000,
    ) -> str:
        dataset = {"name": dataset_name, "files": files, "events_per_file": events_per_file}
        body = {"pipeline": pipeline, "dataset": dataset, "chunk_size": chunk_size}
        return (await self.call("SubmitJob", body))["job_id"]

    async def job_status(self, job_id: str) -> dict:
        """The job's current status: a WaitJob that does not wait."""
        return await self.call("WaitJob", {"job_id": job_id, "timeout": 0})

    async def wait_job(self, job_id: str, timeout: float = 60.0) -> dict:
        """The job's status once it has finished or failed.  The scheduler
        answers each WaitJob when the job ends, or after at most the time
        left (it may cap that), so this asks again until its deadline."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            left = max(0.0, deadline - loop.time())
            status = await self.call("WaitJob", {"job_id": job_id, "timeout": left})
            if status["state"] != "running":
                return status
            if loop.time() >= deadline:
                raise TimeoutError(f"job {job_id} still running after {timeout}s")

    async def scale_request(self, **body) -> dict:
        return await self.call("ScaleRequest", body)

    async def task_stream_csv(self) -> str:
        return (await self.call("TaskStream", {}))["task_stream_csv"]
