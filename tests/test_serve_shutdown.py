"""Lifecycle tests: graceful SIGTERM drain and idempotent teardown.

The guarantee under test: a daemon killed with SIGTERM drains its work,
runs :func:`repro.core.workerpool.shutdown_all` from the drain path, and
when the interpreter's atexit hooks run the *same* teardown again the
double invocation is harmless.
"""

import os
import signal
import subprocess
import sys
import time

from repro.core.workerpool import pools_snapshot, shared_thread_pool, shutdown_all


def _repo_env():
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(repo_root, "src"), repo_root]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return repo_root, env


# --------------------------------------------------------------------------- #
class TestShutdownAllIdempotent:
    def test_double_invocation_in_process(self):
        """SIGTERM-then-atexit both call shutdown_all(); twice must be safe."""
        pool = shared_thread_pool(2)
        assert pool.submit(abs, -3).result() == 3
        shutdown_all()
        shutdown_all()  # the atexit re-run
        assert not pool.alive
        assert pools_snapshot()["thread_pool"] is None

    def test_pools_respawn_after_shutdown_all(self):
        """Teardown is terminal for state, not for the API: pools come back."""
        shared_thread_pool(2).submit(abs, -1).result()
        shutdown_all()
        assert shared_thread_pool(2).submit(abs, -9).result() == 9
        shutdown_all()


# --------------------------------------------------------------------------- #
_SIGTERM_DAEMON = """\
import os, signal, sys, tempfile, threading

from repro.core.workerpool import pools_snapshot, shared_thread_pool
from repro.io.image_stack import save_wire_scan
from repro.serve import ServeSettings, ServeClient, start_in_thread
from repro.core.config import ReconstructionConfig
from repro.core.depth_grid import DepthGrid
from tests.helpers import make_tiny_stack

tmp = tempfile.mkdtemp(prefix="serve-sigterm-")
scan = os.path.join(tmp, "scan.h5lite")
save_wire_scan(scan, make_tiny_stack(n_rows=4, n_cols=3, n_positions=15))

# live shared state the drain must tear down: a used shared pool
shared_thread_pool(2).submit(abs, -5).result()

settings = ServeSettings(port=0, workers=1, cache=os.path.join(tmp, "cache"),
                         drain_timeout_s=20.0)
handle = start_in_thread(settings)
client = ServeClient(base_url=handle.base_url)
config = ReconstructionConfig(grid=DepthGrid.from_range(0.0, 100.0, 10))
accepted = client.submit(scan, config=config.to_dict())
result = client.wait(accepted["job"]["id"], timeout_s=60)
assert result["provenance"], "job must finish before the signal arrives"
print("SERVED", flush=True)

# a real SIGTERM delivered to ourselves; the handler drains the daemon
# thread, then exits normally so atexit runs the same teardown again
def _on_term(signum, frame):
    handle.stop(timeout=30)
    print("DRAINED", flush=True)
    print("POOL", pools_snapshot()["thread_pool"], flush=True)
    sys.exit(0)

signal.signal(signal.SIGTERM, _on_term)
os.kill(os.getpid(), signal.SIGTERM)
threading.Event().wait(60)
raise SystemExit("SIGTERM handler never fired")
"""


class TestSigtermDrain:
    def _run(self, body, timeout=120):
        repo_root, env = _repo_env()
        return subprocess.run(
            [sys.executable, "-c", body], capture_output=True, text=True,
            timeout=timeout, cwd=repo_root, env=env,
        )

    def test_sigterm_drains_and_leaks_nothing(self):
        """SIGTERM => graceful drain, shared pool torn down, exit code 0.

        The daemon runs on a background thread (as in tests/benchmarks), so
        the subprocess installs a SIGTERM handler that requests the drain and
        then exits the interpreter — exercising exactly the
        signal-then-atexit double-teardown path.
        """
        proc = self._run(_SIGTERM_DAEMON)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "SERVED" in lines and "DRAINED" in lines
        assert "POOL None" in lines  # the drain ran shutdown_all()

    def test_run_server_process_drains_on_sigterm(self, tmp_path):
        """A real ``repro-serve`` process (loop signal handler) drains on TERM."""
        repo_root, env = _repo_env()
        port_file = tmp_path / "port"
        body = (
            "import sys\n"
            "from repro.serve import ServeSettings, ReproServer\n"
            "import asyncio\n"
            "async def main():\n"
            "    server = ReproServer(ServeSettings(port=0, workers=1, cache=False,\n"
            "                                       drain_timeout_s=10.0))\n"
            "    loop = asyncio.get_running_loop()\n"
            "    import signal\n"
            "    for signum in (signal.SIGTERM, signal.SIGINT):\n"
            "        loop.add_signal_handler(signum, server.request_shutdown)\n"
            "    await server.start()\n"
            f"    open({str(port_file)!r}, 'w').write(str(server.port))\n"
            "    await server._shutdown_event.wait()\n"
            "    await server.drain()\n"
            "    print('DRAINED', flush=True)\n"
            "asyncio.run(main())\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", body], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, cwd=repo_root, env=env,
        )
        try:
            deadline = time.monotonic() + 30
            while not port_file.exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert port_file.exists(), "server never wrote its port"
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, stderr
        assert "DRAINED" in stdout
