"""Facility composition root.

One process starts every shared service: the identity broker, the SNI
ingress, the data proxy, which reads the federation's store in process, and
the batch system, which listens on no port.
A successful login provisions that user's cluster: a dedicated scheduler
behind mutual TLS, an ingress route so the cluster is reachable at
<cluster-id>.<facility-domain> on the shared address, and a dedicated worker
(first results without touching the batch system) with one task thread per
CPU of the host, at most DEDICATED_CORES.  Each worker's WorkerHello tells
the scheduler its cores.  The login returns once the scheduler listens and
its route is registered, as Dask Gateway's new_cluster() returns once the
scheduler runs: the dedicated worker is forked and registers while the
analyst connects, and a job submitted first waits in the queue until it
does.  A dedicated worker that cannot be forked, exits while its cluster
is up, or does not register in time fails the cluster's unfinished jobs
with the reason and takes the cluster down.

A cluster's scheduler submits and cancels its batch workers on the
facility's BatchSim in this process, with its latest login's batch token,
and holds its data token, which each AssignTask carries, so a re-login
renews every running worker.  A worker config exists only in this process,
built from the cluster's record at the fork.  Only a batch job whose handle
a cluster's WorkerState records gets a process; any other (one whose
cluster was taken down before it started) starts none and gives its slot
back as it starts.

Every worker process, dedicated or batch, is forked by the facility's one
zygote (`casa_mini.zygote`), which has already imported the worker and run
one mutual-TLS handshake on throwaway material of its own (never a
cluster's), so a worker waits neither for Python to start and numpy to
import nor for OpenSSL to set itself up before its WorkerHello.  The fork
request carries the worker's config, so a login writes no file but its
cluster's TLS files (`wire.write_tls_files`: `ssl` loads certificates only
from files), which go when the cluster leaves the facility.  A worker's
exit is reported as it happens: a batch worker that exits on its own gives
its slot back at once.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import os
import secrets
import shutil
import tempfile
import time
from dataclasses import dataclass, field, fields

from . import authd, wire
from .batchsim import BatchJob, BatchService, BatchSim, DelayModel, JobSpec
from .data_proxy import DataProxyServer, LocalOrigin
from .ingress import SniProxy
from .scheduler.service import SchedulerService
from .zygote import WorkerProcess, Zygote, ZygoteError

log = logging.getLogger(__name__)

DEDICATED_CORES = 8
BATCH_CORES = 4
REAP_TIMEOUT = 5.0
# Longest a dedicated worker may take from its fork to its WorkerHello
# before its cluster is taken down; the login does not wait for it.
REGISTER_TIMEOUT = 15.0


async def reap(proc: WorkerProcess, timeout: float = REAP_TIMEOUT) -> int:
    """Terminate a worker process and wait for its exit; kill it if it is
    still running after `timeout` seconds."""
    proc.terminate()
    try:
        return await asyncio.wait_for(proc.wait(), timeout)
    except TimeoutError:
        log.warning("worker pid %d ignored SIGTERM for %.1f s; killing it", proc.pid, timeout)
        proc.kill()
        return await proc.wait()


@dataclass
class FacilityConfig:
    bind: str = "127.0.0.1"
    facility_domain: str = "dask.local"
    ports: dict = field(
        default_factory=lambda: {
            "ingress": 0,
            "authd": 0,
            "data_proxy": 0,
        }
    )
    scheduler_base_port: int = 8801  # 0 -> ephemeral ports
    idp_public_key_pem: str = ""
    required_group: str = "cms"
    token_ttl: float = 3600.0
    slot_pool: int = 200
    delay_model: dict = field(default_factory=lambda: {"s0": 2.0, "c": 1.0, "jitter": 0.0, "seed": 1})
    data_root: str = "data"
    run_dir: str = ""
    # one task thread per CPU this process may run on, at most DEDICATED_CORES
    dedicated_cores: int = field(default_factory=lambda: min(DEDICATED_CORES, len(os.sched_getaffinity(0))))
    worker_cores: int = BATCH_CORES
    heartbeat_timeout: float = 10.0

    @classmethod
    def load(cls, path: str) -> "FacilityConfig":
        with open(path) as fh:
            raw = json.load(fh)
        if "idp_public_key_path" in raw:
            with open(raw.pop("idp_public_key_path")) as fh:
                raw["idp_public_key_pem"] = fh.read()
        cfg = cls()
        known = {f.name for f in fields(cls)}
        for key, value in raw.items():
            if key not in known:
                raise ValueError(f"unknown facility config key {key!r}")
            _check_type(key, value, type(getattr(cfg, key)))
            if key == "ports":
                if not set(value) <= set(cfg.ports):
                    raise ValueError(f"unknown facility config key 'ports.{min(set(value) - set(cfg.ports))}'")
                for name, port in value.items():
                    _check_type(f"ports.{name}", port, int)
            setattr(cfg, key, value)
        return cfg


def _check_type(key: str, value, kind: type) -> None:
    """Refuse a config value that is not of its default's type; an int is a
    float too, and a bool is not an int."""
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise ValueError(f"facility config key {key!r} must be {kind.__name__}, not {type(value).__name__}")


@dataclass
class ClusterRecord:
    bundle: authd.CredentialBundle  # the latest login's; new batch workers present its batch token
    service: SchedulerService
    dedicated_worker: WorkerProcess | None = None  # once its watch has forked it
    watch: asyncio.Task | None = None  # forks, watches and reaps the dedicated worker, once provisioned

    @property
    def cluster_id(self) -> str:
        return self.bundle.cluster_id


class Facility:
    def __init__(self, cfg: FacilityConfig):
        if not cfg.idp_public_key_pem:
            raise ValueError("facility config needs the identity provider public key")
        self.cfg = cfg
        self.run_dir = cfg.run_dir or tempfile.mkdtemp(prefix="casa-mini-")
        self.keys = authd.FacilityKeys.generate()
        federation_cred = secrets.token_hex(16)
        self.auth = authd.AuthService(
            cfg.idp_public_key_pem,
            keys=self.keys,
            required_group=cfg.required_group,
            token_ttl=cfg.token_ttl,
            facility_domain=cfg.facility_domain,
        )
        self.proxy = DataProxyServer(LocalOrigin(cfg.data_root, federation_cred), federation_cred, self.keys.data)
        self.batch_sim = BatchSim(
            delay=DelayModel(**cfg.delay_model),
            slots=cfg.slot_pool,
            batch_key=self.keys.batch,
            on_start=self._start_batch_worker,
            on_stop=self._stop_batch_worker,
        )
        self.batch_service = BatchService(self.batch_sim, clock=time.time)
        self.sni = SniProxy()
        self.clusters: dict[str, ClusterRecord] = {}
        self.addresses: dict[str, tuple[str, int]] = {}
        self._authd_server: asyncio.AbstractServer | None = None
        self._authd_conns = wire.ConnectionTasks()
        self.zygote = Zygote()
        self._batch_tasks: dict[int, asyncio.Task] = {}  # each batch job's worker, from fork to exit
        self._batch_procs: dict[int, WorkerProcess] = {}  # batch workers forked and running
        self._tasks = wire.BackgroundTasks()
        self._provision_lock = asyncio.Lock()
        self._next_sched_port = cfg.scheduler_base_port

    # ---- lifecycle -----------------------------------------------------------

    async def start(self) -> dict:
        bind = self.cfg.bind
        os.makedirs(os.path.join(self.run_dir, "logs"), exist_ok=True)  # each worker process's output
        self.zygote.start()  # imports the worker while the services start
        self.addresses["data_proxy"] = await self.proxy.start(bind, self.cfg.ports.get("data_proxy", 0))
        self.addresses["ingress"] = await self.sni.start(bind, self.cfg.ports.get("ingress", 0))
        self._authd_server = await authd.serve(
            self.auth, bind, self.cfg.ports.get("authd", 0), on_login=self._on_login, conns=self._authd_conns
        )
        self.addresses["authd"] = self._authd_server.sockets[0].getsockname()[:2]
        log.info("facility up: %s", {k: list(v) for k, v in self.addresses.items()})
        return dict(self.addresses)

    async def stop(self) -> None:
        for cluster_id in list(self.clusters):
            try:
                await self.teardown_cluster(cluster_id)
            except Exception as exc:
                log.warning("teardown of %s during stop failed: %s", cluster_id, exc)
        self.batch_service.close()  # no batch job starts from here on
        await self._tasks.close()  # each batch job's task reaps its worker; a cluster being taken down finishes
        await self.sni.close()
        await self.proxy.close()
        await self._authd_conns.close(self._authd_server)
        await self.zygote.close()  # kills any worker left, then ends and reaps the zygote

    # ---- batch worker processes -------------------------------------------------

    def _start_batch_worker(self, job: BatchJob, now: float) -> None:
        # BatchSim calls this synchronously: the fork and the wait for the exit run as a task
        task = self._tasks.spawn(self._run_batch_worker(job))
        self._batch_tasks[job.handle] = task
        task.add_done_callback(lambda _: self._batch_tasks.pop(job.handle, None))

    def _submitter(self, job: BatchJob) -> ClusterRecord | None:
        """The cluster whose autoscaler submitted the job, by its handle: worker ids repeat across clusters."""
        for record in self.clusters.values():
            w = record.service.state.workers.get(job.spec.worker_id)
            if w is not None and w.batch_handle == job.handle:
                return record
        return None

    async def _run_batch_worker(self, job: BatchJob) -> int | None:
        """A batch job's worker process from fork to exit; returns its exit code.
        Its config is built from its cluster's record as it is now.  An exit
        of its own (shutdown or crash), or no process at all, gives the slot
        back.  Cancelling the task reaps the process instead, or kills it as
        soon as it is forked."""
        handle, record = job.handle, self._submitter(job)
        try:
            if record is None:
                raise LookupError("no cluster submitted it")
            config = self._worker_config(record.bundle, job.spec.worker_id, job.spec.n_cores)
            proc = await self._spawn_worker(config, f"batch-job-{handle}")  # by handle, as worker ids repeat
        except (LookupError, OSError, ZygoteError) as exc:
            log.warning("batch job %d: no worker process: %s", handle, exc)
            self.batch_sim.finish(handle, self.batch_service.clock())
            return None
        self._batch_procs[handle] = proc
        log.info("batch job %d started worker pid %d", handle, proc.pid)
        try:
            code = await proc.wait()
        except asyncio.CancelledError:
            await reap(proc)
            raise
        finally:
            del self._batch_procs[handle]
        log.warning("batch job %d: worker pid %d exited with %d", handle, proc.pid, code)
        self.batch_sim.finish(handle, self.batch_service.clock())
        return code

    async def _spawn_worker(self, config: dict, log_name: str) -> WorkerProcess:
        """Fork a worker process whose stdout and stderr go to run_dir/logs/<log_name>.log."""
        return await self.zygote.spawn(config, os.path.join(self.run_dir, "logs", f"{log_name}.log"))

    def _stop_batch_worker(self, job, now: float) -> None:
        task = self._batch_tasks.get(job.handle)
        if task is not None:
            # Called synchronously from BatchSim.cancel; the task reaps the
            # worker, and stop() still awaits it.
            task.cancel()

    # ---- provisioning --------------------------------------------------------------

    async def _on_login(self, bundle: authd.CredentialBundle) -> dict:
        await self.provision_cluster(bundle)
        return {
            "ingress": list(self.addresses["ingress"]),
            "data_proxy": list(self.addresses["data_proxy"]),
            "sni_hostname": bundle.sni_hostname,
        }

    def _cred_dir(self, cluster_id: str) -> str:
        return os.path.join(self.run_dir, "clusters", cluster_id)

    def _worker_config(self, bundle: authd.CredentialBundle, worker_id: str, n_cores: int) -> dict:
        ca, _, _, cert, key = (os.path.join(self._cred_dir(bundle.cluster_id), name) for name in wire.TLS_FILES)
        return {
            "worker_id": worker_id,
            "ingress": list(self.addresses["ingress"]),
            "sni": bundle.sni_hostname,
            "ca": ca,
            "cert": cert,
            "key": key,
            "proxy": list(self.addresses["data_proxy"]),
            "n_cores": n_cores,
        }

    async def provision_cluster(self, bundle: authd.CredentialBundle) -> ClusterRecord:
        """The user's cluster, provisioned once its scheduler listens and its
        route is registered; its watch task forks the dedicated worker.  A
        cluster already up keeps running and takes the bundle's fresh tokens."""
        async with self._provision_lock, contextlib.AsyncExitStack() as undo:
            existing = self.clusters.get(bundle.cluster_id)
            if existing is not None:
                existing.bundle, existing.service.data_token = bundle, bundle.data_token
                existing.service.autoscaler.reset_backoff()
                return existing
            # until the cluster is provisioned, a failure undoes every step taken
            cred_dir = self._cred_dir(bundle.cluster_id)
            undo.callback(shutil.rmtree, cred_dir, ignore_errors=True)
            ca, host_cert, host_key, _, _ = wire.write_tls_files(cred_dir, bundle.ca, bundle.host, bundle.user)
            service = SchedulerService(
                bundle.cluster_id,
                self.batch_sim,
                # a scale-out worker's batch job presents the latest login's batch token
                lambda worker_id: JobSpec(self.cfg.worker_cores, worker_id, record.bundle.batch_token),
                heartbeat_timeout=self.cfg.heartbeat_timeout,
                data_token=bundle.data_token,
            )
            record = ClusterRecord(bundle, service)  # before anything can ask for a batch worker
            ssl_ctx = wire.server_ssl_context(host_cert, host_key, ca)
            port = 0
            if self._next_sched_port:
                port = self._next_sched_port
                self._next_sched_port += 1
            undo.push_async_callback(service.close)
            sched_addr = await service.start(self.cfg.bind, port, ssl_ctx)
            self.sni.routes.register(bundle.sni_hostname, sched_addr)
            undo.callback(self.sni.routes.remove, bundle.sni_hostname)

            # the scheduler counts the dedicated worker as requested until its WorkerHello
            worker_id = f"{bundle.cluster_id}-dedicated"
            service.state.expect_worker(service.clock(), worker_id=worker_id)
            undo.pop_all()  # provisioned: teardown_cluster releases it all from here on
            self.clusters[bundle.cluster_id] = record
            record.watch = self._tasks.spawn(self._watch_dedicated_worker(record))
            log.info(
                "provisioned cluster %s for %s at %s (route %s)",
                bundle.cluster_id,
                bundle.subject,
                sched_addr,
                bundle.sni_hostname,
            )
            return record

    async def _watch_dedicated_worker(self, record: ClusterRecord) -> None:
        """The cluster's dedicated worker from fork to exit.  One that cannot
        be forked, exits, or has not registered REGISTER_TIMEOUT after its
        fork fails the cluster's unfinished jobs with the reason and takes the
        cluster down.  Cancelling the task (a teardown) reaps the worker, or
        kills it as soon as it is forked."""
        worker_id = f"{record.cluster_id}-dedicated"
        config = self._worker_config(record.bundle, worker_id, self.cfg.dedicated_cores)
        try:
            proc = record.dedicated_worker = await self._spawn_worker(config, worker_id)
        except (OSError, ZygoteError) as exc:
            why = f"not forked: {exc}"
        else:
            registered = asyncio.ensure_future(record.service.wait_worker(worker_id, REGISTER_TIMEOUT))
            exited = asyncio.ensure_future(proc.wait())
            try:
                await asyncio.wait([registered, exited], return_when=asyncio.FIRST_COMPLETED)
                if not exited.done() and registered.exception() is None:
                    await exited  # registered: watch on until it exits
                why = "did not register" if proc.returncode is None else f"exited with code {proc.returncode}"
            finally:
                registered.cancel()
                exited.cancel()
                await reap(proc)  # on a cancel too; returns at once for a worker that exited
        reason = f"dedicated worker for {record.cluster_id} {why}"
        log.warning("cluster %s: %s; taking it down", record.cluster_id, reason)
        self._drop_cluster(record.cluster_id)  # a teardown from here on finds no cluster
        release = asyncio.ensure_future(self._release_cluster(record, reason))
        try:
            await asyncio.shield(release)
        except asyncio.CancelledError:
            await release  # stop() waits for a release begun here
            raise

    async def teardown_cluster(self, cluster_id: str) -> dict:
        record = self._drop_cluster(cluster_id)
        if record is None:
            raise KeyError(f"unknown cluster {cluster_id!r}")
        record.watch.cancel()  # the watch ends quietly and reaps the dedicated worker
        await self._release_cluster(record, "cluster closed")
        await asyncio.wait([record.watch])
        log.info("cluster %s torn down", cluster_id)
        return {"cluster_id": cluster_id, "state": "removed"}

    def _drop_cluster(self, cluster_id: str) -> ClusterRecord | None:
        """Take a cluster out of self.clusters and remove its TLS files with no await
        between: from then on a re-login may provision the same cluster id, and files."""
        record = self.clusters.pop(cluster_id, None)
        if record is not None:
            shutil.rmtree(self._cred_dir(cluster_id), ignore_errors=True)
        return record

    async def _release_cluster(self, record: ClusterRecord, reason: str) -> None:
        """End what a cluster taken out of self.clusters holds; its
        unfinished jobs fail with `reason`."""
        self.sni.routes.remove(record.bundle.sni_hostname)  # nothing else removes a cluster's route
        await record.service.close(reason)  # cancels every batch job the cluster holds


async def run_facility(config_path: str) -> None:
    """`casa-mini facility up`: run until interrupted."""
    cfg = FacilityConfig.load(config_path)
    facility = Facility(cfg)
    addresses = await facility.start()
    print(json.dumps({k: list(v) for k, v in addresses.items()}, indent=1), flush=True)
    try:
        while True:
            await asyncio.sleep(3600)
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        await facility.stop()
