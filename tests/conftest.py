from __future__ import annotations

import asyncio
import os
import socket
import time

import pytest

from casa_mini import authd, certs
from casa_mini.bench import BenchConfig, make_context


@pytest.fixture(scope="session")
def idp_keys() -> tuple[str, str]:
    return authd.generate_idp_keypair()


@pytest.fixture(scope="session")
def bench_root(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("bench-data"))


@pytest.fixture(scope="session")
def bench_cfg() -> BenchConfig:
    return BenchConfig()


@pytest.fixture(scope="session")
def bench_ctx(bench_cfg, bench_root):
    return make_context(bench_cfg, bench_root)


def make_assertion(idp_keys, sub="alice", groups=("cms",), ttl=600.0) -> dict:
    private_pem, _ = idp_keys
    now = time.time()
    return authd.sign_assertion(private_pem, sub, list(groups), now, now + ttl)


def run_async(coro, timeout: float = 120.0):
    async def wrapped():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(wrapped())


@pytest.fixture()
def anyio_run():
    return run_async


def local_files_for(ctx, root: str) -> list[str]:
    return [f.replace("root://origin.sim//store/", os.path.join(root, "store") + "/") for f in ctx.dataset.files]


@pytest.fixture()
def opened_paths(monkeypatch) -> list[str]:
    """Every path os.open is asked to open while the test runs."""
    opened: list[str] = []
    real_open = os.open
    monkeypatch.setattr(os, "open", lambda path, *args, **kw: opened.append(str(path)) or real_open(path, *args, **kw))
    return opened


@pytest.fixture()
def silent_port():
    """A local TCP port that takes connections into its backlog and never answers."""
    with socket.create_server(("127.0.0.1", 0)) as sock:
        yield sock.getsockname()[1]


def idle_worker_config(directory, port: int) -> dict:
    """A worker config whose ingress at `port` never answers: the worker
    waits in its TLS handshake until it is killed."""
    ca = certs.make_ca("idle-ca")
    user = certs.make_user_cert(ca, "alice")
    paths = {}
    for name, text in (("ca", ca.cert_pem), ("cert", user.cert_pem), ("key", user.key_pem)):
        paths[name] = os.path.join(directory, f"idle-{name}.pem")
        with open(paths[name], "w") as fh:
            fh.write(text)
    return {"worker_id": "idle", "ingress": ["127.0.0.1", port], "sni": "idle.dask.local", "n_cores": 1, **paths}


def stat_fields(pid: int) -> list[str]:
    """/proc/<pid>/stat after the command name: state, ppid, ..."""
    with open(f"/proc/{pid}/stat") as fh:
        return fh.read().rsplit(")", 1)[1].split()

