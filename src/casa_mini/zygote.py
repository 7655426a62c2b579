"""Worker fork server (the zygote): a worker starts as a fork of a process
that has already imported casa_mini.worker, not by starting Python.

    python -m casa_mini.zygote <fd>

<fd> is the zygote's end of a SOCK_SEQPACKET socketpair with its facility.
The zygote imports the worker once, with one BLAS thread, collects and
freezes what it then holds (gc.freeze), and answers one request at a
time.  It starts no thread or event loop and opens no config or
credential.  A request names a worker config and a log file.  The
zygote forks; the child points stdout and stderr at the log and runs the
same `worker.main([config])` as `python -m casa_mini.worker config`.  The
reply carries the child's pid and its pidfd (SCM_RIGHTS), opened while the
child cannot yet have been reaped, so a signal sent through it never
reaches a process that reused the pid.  The zygote reaps each child with
waitpid when its pidfd turns readable, so the children count in
RUSAGE_CHILDREN, and reports the exit code.  End of file on the socket
ends the zygote, after it has killed and reaped any child left.  Each
child asks the kernel (PR_SET_PDEATHSIG) for SIGKILL when the zygote dies,
so none outlives it, not even one forked just before the zygote died,
whose pidfd never reached the facility.

`Zygote` is the facility's side.  It starts the zygote process, sends
requests and reads replies from the event loop without blocking it, and
hands out one `WorkerProcess` per fork.  A fork whose caller was cancelled
before the reply is killed as soon as the reply arrives.  When the zygote
dies, its children are killed through their pidfds, and the next spawn
starts a new zygote.
"""

from __future__ import annotations

import asyncio
import ctypes
import gc
import json
import logging
import os
import select
import signal
import socket
import sys
import traceback
from collections import deque

log = logging.getLogger(__name__)

MAX_MESSAGE = 65536
PR_SET_PDEATHSIG = 1  # linux/prctl.h
_libc = ctypes.CDLL(None)
# set in the zygote's environment, so numpy starts no BLAS thread pool in it
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ZygoteError(RuntimeError):
    """A worker could not be forked: the zygote refused, died or was closed."""


# ---- the zygote process -------------------------------------------------------


def _run_worker(config_path: str, log_path: str) -> int:
    """In a forked child: stdout and stderr to the log, then the worker."""
    signal.signal(signal.SIGINT, signal.default_int_handler)  # the zygote ignores it
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.dup2(fd, 1)
    os.dup2(fd, 2)
    os.close(fd)
    from . import worker  # imported by main() before the first fork

    try:
        return worker.main([config_path])
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
    if len(argv) != 1:
        print("usage: python -m casa_mini.zygote <fd>", file=sys.stderr)
        return 2
    # a terminal's interrupt reaches the facility too, which ends the zygote by closing the socket
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Import the worker, then collect and freeze what is left, so no
    # collection in a child writes to (and copies) the pages it shares with
    # the zygote.
    from . import worker  # every child runs it: see _run_worker

    gc.collect()
    gc.freeze()
    with socket.socket(fileno=int(argv[0])) as sock:
        serve(sock)
    return 0


# ---- the facility's side ------------------------------------------------------------


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
        self._closed = False

    def start(self) -> None:
        """Start a zygote process; it imports the worker while the caller goes on."""
        loop = asyncio.get_running_loop()
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        try:
            theirs.set_inheritable(True)
            pid = os.posix_spawn(
                sys.executable,
                [sys.executable, "-m", "casa_mini.zygote", str(theirs.fileno())],
                {**os.environ, **BLAS_THREADS},
                file_actions=[(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0)],
            )
        except OSError:
            ours.close()
            raise
        finally:
            theirs.close()
        ours.setblocking(False)
        self.pid, self._sock, self._pidfd = pid, ours, os.pidfd_open(pid)
        self._gone = loop.create_future()
        loop.add_reader(ours.fileno(), self._read)
        loop.add_reader(self._pidfd, self._zygote_exited)

    async def spawn(self, config_path: str, log_path: str) -> WorkerProcess:
        """Fork a worker that runs `config_path`, its output appended to `log_path`."""
        if self._closed:
            raise ZygoteError("zygote closed")
        if self.pid is None:
            self.start()
        reply = asyncio.get_running_loop().create_future()
        self._replies.append(reply)
        self._outbox.append(json.dumps({"config": config_path, "log": log_path}).encode())
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
        self.pid = self._sock = self._pidfd = None
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
