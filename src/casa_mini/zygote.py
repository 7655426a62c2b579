"""Worker fork server (the zygote): a worker starts as a fork of a process
that has already imported casa_mini.worker and set OpenSSL up, not by
starting Python.

    python -m casa_mini.zygote <fd> <warm-up dir>

<fd> is the zygote's end of a SOCK_SEQPACKET socketpair with its facility.
The zygote imports the worker once, with one BLAS thread.  It then warms
OpenSSL up: it loads the throwaway CA, host and user certificates in
<warm-up dir> (minted for it alone, trusted by nothing else and never a
cluster's) into the scheduler's and a worker's contexts (`wire`), removes
the directory, and runs one mutual-TLS handshake between the two in
memory, so OpenSSL's per-process set-up is done once here and every child
inherits it.  A warm-up that fails is logged on stderr and forking goes
on.  The contexts are dropped, and the zygote collects and freezes what it
then holds (gc.freeze) and answers one request at a time.  It starts no
thread or event loop, and opens no file of a cluster.  A request carries a
worker config, which the facility built, and names a log file.  The zygote
forks; the child points stdout and stderr at the log and runs
`worker.run(config)`.  The reply carries the child's pid and its pidfd
(SCM_RIGHTS), opened while the child cannot yet have been reaped, so a
signal sent through it never reaches a process that reused the pid.  The
zygote reaps each child with waitpid when its pidfd turns readable, so the
children count in RUSAGE_CHILDREN, and reports the exit code.  End of file
on the socket ends the zygote, after it has killed and reaped any child
left.  Each child asks the kernel (PR_SET_PDEATHSIG) for SIGKILL when the
zygote dies, so none outlives it, not even one forked just before the
zygote died, whose pidfd never reached the facility.

`Zygote` is the facility's side.  It mints each zygote's warm-up material
(`mint_warmup`), starts the zygote process, sends requests (refusing one
longer than MAX_MESSAGE, which the zygote could not read) and reads
replies from the event loop without blocking it, and hands out one
`WorkerProcess` per fork.  A fork whose caller was cancelled before the
reply is killed as soon as the reply arrives.  When the zygote dies, its
children are killed through their pidfds, the warm-up directory is removed
if the zygote had not, and the next spawn starts a new zygote.
"""

from __future__ import annotations

import asyncio
import ctypes
import gc
import json
import logging
import os
import select
import shutil
import signal
import socket
import ssl
import sys
import tempfile
import traceback
from collections import deque

from . import wire

log = logging.getLogger(__name__)

MAX_MESSAGE = 65536
PR_SET_PDEATHSIG = 1  # linux/prctl.h
_libc = ctypes.CDLL(None)
# set in the zygote's environment, so numpy starts no BLAS thread pool in it
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WARMUP_HOST = "zygote-warm-up.invalid"  # the host name of the warm-up host certificate


class ZygoteError(RuntimeError):
    """A worker could not be forked: the zygote refused, died or was closed."""


# ---- the zygote process -------------------------------------------------------


def _run_worker(config: dict, log_path: str) -> int:
    """In a forked child: stdout and stderr to the log, then the worker."""
    signal.signal(signal.SIGINT, signal.default_int_handler)  # the zygote ignores it
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.dup2(fd, 1)
    os.dup2(fd, 2)
    os.close(fd)
    from . import worker  # imported by main() before the first fork

    try:
        return worker.run(config)
    except BaseException:
        traceback.print_exc()  # as `python -m` does; the child then exits with 1
        raise
    finally:
        logging.shutdown()
        sys.stdout.flush()
        sys.stderr.flush()


def _fork(sock: socket.socket, children: dict[int, int], request: dict) -> tuple[int, int]:
    """Fork one worker; return its pid and pidfd.  The child is killed when
    the zygote dies, and exits at once if the zygote died before it asked."""
    zygote_pid = os.getpid()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            _libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
            if os.getppid() != zygote_pid:  # orphaned before the request took effect
                os._exit(1)
            sock.close()
            for pidfd in children:
                os.close(pidfd)
            code = _run_worker(request["config"], request["log"])
        finally:
            os._exit(code)
    try:
        return pid, os.pidfd_open(pid)  # only this process reaps the child, and not before this
    except OSError:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise


def _handshake_step(tls: ssl.SSLObject) -> bool:
    """Advance a handshake over memory BIOs; True once it is done."""
    try:
        tls.do_handshake()
    except ssl.SSLWantReadError:
        return False
    return True


def warm_tls(directory: str) -> None:
    """Do OpenSSL's per-process set-up (algorithm fetches, PEM decoders, chain
    verification) in this process, so every child forked from it inherits
    it: load the material in `directory` into the scheduler's and a
    worker's contexts, remove the directory, and run one mutual-TLS
    handshake between them over memory BIOs, with one small record each
    way.  Both contexts are dropped on return."""
    ca, host, host_key, user, user_key = (os.path.join(directory, name) for name in wire.TLS_FILES)
    try:
        server = wire.server_ssl_context(host, host_key, ca)
        client = wire.client_ssl_context(ca, user, user_key)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    c_in, c_out, s_in, s_out = (ssl.MemoryBIO() for _ in range(4))
    c_tls = client.wrap_bio(c_in, c_out, server_hostname=WARMUP_HOST)
    s_tls = server.wrap_bio(s_in, s_out, server_side=True)
    for _ in range(4):  # TLS 1.3 takes two rounds
        done = _handshake_step(c_tls)
        s_in.write(c_out.read())
        done = _handshake_step(s_tls) and done
        c_in.write(s_out.read())
        if done:
            break
    else:
        raise ssl.SSLError("warm-up handshake did not finish")
    c_tls.write(b"ping")
    s_in.write(c_out.read())
    s_tls.read()
    s_tls.write(b"pong")
    c_in.write(s_out.read())
    c_tls.read()


def serve(sock: socket.socket) -> None:
    """Answer fork requests until the facility closes its end of `sock`."""
    children: dict[int, int] = {}  # pidfd -> pid of each child not yet reaped
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    try:
        while True:
            for fd, _ in poller.poll():
                if fd in children:
                    pid = children.pop(fd)
                    poller.unregister(fd)
                    os.close(fd)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    sock.send(json.dumps({"pid": pid, "exit": code}).encode())
                    continue
                data = sock.recv(MAX_MESSAGE)
                if not data:
                    return
                try:
                    pid, pidfd = _fork(sock, children, json.loads(data))
                except OSError as exc:
                    sock.send(json.dumps({"error": str(exc)}).encode())
                    continue
                children[pidfd] = pid
                poller.register(pidfd, select.POLLIN)
                socket.send_fds(sock, [json.dumps({"pid": pid}).encode()], [pidfd])
    finally:
        for pidfd, pid in children.items():
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.waitpid(pid, 0)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python -m casa_mini.zygote <fd> <warm-up dir>", file=sys.stderr)
        return 2
    # a terminal's interrupt reaches the facility too, which ends the zygote by closing the socket
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Import the worker and warm OpenSSL up, then collect and freeze what is
    # left, so no collection in a child writes to (and copies) the pages it
    # shares with the zygote.
    from . import worker  # every child runs it: see _run_worker

    try:
        warm_tls(argv[1])
    except Exception:  # a cold OpenSSL only slows each child's first handshake
        print("casa_mini.zygote: TLS warm-up failed; forking without it", file=sys.stderr)
        traceback.print_exc()
    gc.collect()
    gc.freeze()
    with socket.socket(fileno=int(argv[0])) as sock:
        serve(sock)
    return 0


# ---- the facility's side ------------------------------------------------------------


def mint_warmup() -> str:
    """A fresh private directory holding one zygote's warm-up material: a
    throwaway CA, a host and a user certificate it signed, and their keys."""
    from . import certs  # imports cryptography, which neither the zygote nor a worker needs

    ca = certs.make_ca("casa-mini zygote warm-up")
    host, user = certs.make_host_cert(ca, WARMUP_HOST), certs.make_user_cert(ca, "zygote-warm-up")
    directory = tempfile.mkdtemp(prefix="casa-mini-warm-up-")
    wire.write_tls_files(directory, ca, host, user)
    return directory


class WorkerProcess:
    """A worker forked by the zygote.  Signals go through its pidfd;
    `returncode` is set, and wait() returns, once its exit is known."""

    def __init__(self, pid: int, pidfd: int):
        self.pid = pid
        self.pidfd = pidfd
        self.returncode: int | None = None
        self._exited = asyncio.get_running_loop().create_future()

    def send_signal(self, sig: int) -> None:
        if self.returncode is None:
            try:
                signal.pidfd_send_signal(self.pidfd, sig)
            except ProcessLookupError:  # exited; the exit is not reported yet
                pass

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)

    async def wait(self) -> int:
        return await asyncio.shield(self._exited)

    def _exit(self, code: int) -> None:
        self.returncode = code
        os.close(self.pidfd)
        self._exited.set_result(code)


def _kill_unclaimed(reply: asyncio.Future) -> None:
    if reply.exception() is None:
        reply.result().kill()


class Zygote:
    """The facility's link to its zygote process."""

    def __init__(self):
        self.pid: int | None = None  # of the zygote process, while it runs
        self.workers: dict[int, WorkerProcess] = {}  # by pid, until the zygote reports the exit
        self._orphans: set[WorkerProcess] = set()  # workers of a zygote that died, being killed
        self._sock: socket.socket | None = None
        self._pidfd: int | None = None
        self._replies: deque[asyncio.Future] = deque()  # one per request sent, in order
        self._outbox: deque[bytes] = deque()  # requests the socket had no room for yet
        self._gone: asyncio.Future | None = None  # done once the zygote process is reaped
        self._warmup: str | None = None  # the running zygote's warm-up directory, removed by then
        self._closed = False

    def start(self) -> None:
        """Start a zygote process; it imports the worker and warms OpenSSL up
        while the caller goes on."""
        loop = asyncio.get_running_loop()
        warmup = mint_warmup()
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        try:
            theirs.set_inheritable(True)
            pid = os.posix_spawn(
                sys.executable,
                [sys.executable, "-m", "casa_mini.zygote", str(theirs.fileno()), warmup],
                {**os.environ, **BLAS_THREADS},
                file_actions=[(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0)],
            )
        except OSError:
            ours.close()
            shutil.rmtree(warmup, ignore_errors=True)
            raise
        finally:
            theirs.close()
        ours.setblocking(False)
        self.pid, self._sock, self._pidfd, self._warmup = pid, ours, os.pidfd_open(pid), warmup
        self._gone = loop.create_future()
        loop.add_reader(ours.fileno(), self._read)
        loop.add_reader(self._pidfd, self._zygote_exited)

    async def spawn(self, config: dict, log_path: str) -> WorkerProcess:
        """Fork a worker that runs `config`, its output appended to `log_path`."""
        if self._closed:
            raise ZygoteError("zygote closed")
        request = json.dumps({"config": config, "log": log_path}).encode()
        if len(request) > MAX_MESSAGE:  # the zygote would read it cut short
            raise ZygoteError(f"fork request of {len(request)} bytes exceeds {MAX_MESSAGE}")
        if self.pid is None:
            self.start()
        reply = asyncio.get_running_loop().create_future()
        self._replies.append(reply)
        self._outbox.append(request)
        self._flush()
        try:
            return await asyncio.shield(reply)
        except asyncio.CancelledError:
            # the zygote forks all the same: kill that worker once its pidfd is here
            reply.add_done_callback(_kill_unclaimed)
            raise

    def _flush(self) -> None:
        loop = asyncio.get_running_loop()
        while self._outbox:
            try:
                self._sock.send(self._outbox[0])
            except BlockingIOError:
                loop.add_writer(self._sock.fileno(), self._flush)
                return
            except OSError:
                return  # the zygote is gone: _zygote_exited fails the replies
            self._outbox.popleft()
        loop.remove_writer(self._sock.fileno())

    def _read(self) -> None:
        while True:
            try:
                data, fds, _, _ = socket.recv_fds(self._sock, MAX_MESSAGE, 1, socket.MSG_CMSG_CLOEXEC)
            except BlockingIOError:
                return
            except ConnectionResetError:  # it exited with a request unread
                data = b""
            if not data:  # end of file: the zygote's exit is seen through its pidfd
                asyncio.get_running_loop().remove_reader(self._sock.fileno())
                return
            msg = json.loads(data)
            if "exit" in msg:
                proc = self.workers.pop(msg["pid"], None)
                if proc is not None:
                    proc._exit(msg["exit"])
            elif "error" in msg:
                self._replies.popleft().set_exception(ZygoteError(msg["error"]))
            else:
                proc = self.workers[msg["pid"]] = WorkerProcess(msg["pid"], fds[0])
                self._replies.popleft().set_result(proc)

    def _zygote_exited(self) -> None:
        loop = asyncio.get_running_loop()
        self._read()  # what it sent before it exited
        loop.remove_reader(self._pidfd)
        loop.remove_reader(self._sock.fileno())
        loop.remove_writer(self._sock.fileno())
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        if not self._closed:
            log.warning("zygote pid %d exited with %d; killing its %d workers", self.pid, code, len(self.workers))
        os.close(self._pidfd)
        self._sock.close()
        shutil.rmtree(self._warmup, ignore_errors=True)  # if the zygote died before it loaded it
        self.pid = self._sock = self._pidfd = self._warmup = None
        while self._replies:
            self._replies.popleft().set_exception(ZygoteError(f"zygote exited with {code}"))
        self._outbox.clear()
        for proc in self.workers.values():  # no exit report will come for these
            proc.kill()
            self._orphans.add(proc)
            loop.add_reader(proc.pidfd, self._orphan_exited, proc)
        self.workers.clear()
        self._gone.set_result(code)

    def _orphan_exited(self, proc: WorkerProcess) -> None:
        asyncio.get_running_loop().remove_reader(proc.pidfd)
        self._orphans.discard(proc)
        proc._exit(-signal.SIGKILL)

    async def close(self) -> None:
        """Kill every worker still running and wait for each exit, then end
        the zygote (it reads end of file) and reap it."""
        self._closed = True
        if self._replies:  # forks already asked for
            await asyncio.wait(list(self._replies))
        procs = list(self.workers.values())
        for proc in procs:
            proc.kill()
        await asyncio.gather(*(proc.wait() for proc in procs))
        if self.pid is not None:
            self._sock.shutdown(socket.SHUT_WR)
            await asyncio.shield(self._gone)
        await asyncio.gather(*(proc.wait() for proc in list(self._orphans)))  # killed when their zygote died

if __name__ == "__main__":
    sys.exit(main())
