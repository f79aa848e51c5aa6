"""Child processes: a clean environment, timing from spawn, and ru_maxrss."""

import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def child_env(hashseed):
    """The caller's environment without CANTORFULL_CAPS (read at import and
    again by cli.main), with this checkout's sources first on the path and a
    fixed string-hash seed, so set and dict order repeats for a seed."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("CANTORFULL_CAPS", "PYTHONPATH", "PYTHONHASHSEED")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = str(hashseed)
    return env


class Child:
    """A running child; `finish` reaps it and returns its maxrss in MB."""

    def __init__(self, argv, env):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=env,
                                     stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE)
        self._err = []
        self._err_reader = threading.Thread(
            target=lambda: self._err.append(self.proc.stderr.read()), daemon=True)
        self._err_reader.start()

    def readline(self):
        return self.proc.stdout.readline()

    def finish(self):
        """Read stdout to EOF and reap; returns (stdout, stderr, code, rss_mb, seconds)."""
        out = self.proc.stdout.read()
        _, status, usage = os.wait4(self.proc.pid, 0)
        elapsed = time.perf_counter() - self.started
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._err_reader.join()
        self.proc.stdout.close()
        self.proc.stderr.close()
        return out, b"".join(self._err), self.proc.returncode, usage.ru_maxrss / 1024.0, elapsed

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.finish()


def run(argv, env):
    child = Child(argv, env)
    try:
        return child.finish()
    except BaseException:
        child.kill()
        raise
