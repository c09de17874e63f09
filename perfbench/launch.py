"""Run one command and report its times and peak memory.

    python3 -S -I launch.py FD ARGV...

Forks and execs ARGV, waits for it, and writes one line to file descriptor
FD: fork time and exit time (CLOCK_MONOTONIC seconds), exit code, and the
command's peak resident set in KiB.  Linux folds the memory of the process a
command was forked from into the peak that wait4 reports, so commands are
forked from this small interpreter rather than from the benchmark, whose
memory grows as it checks outputs.  SIGTERM kills the command.
"""

import os
import signal
import sys
import time


def main() -> None:
    report = int(sys.argv[1])
    argv = sys.argv[2:]
    os.set_inheritable(report, False)
    child = []
    signal.signal(signal.SIGTERM, lambda *_: child and os.kill(child[0], signal.SIGKILL))
    start = time.monotonic()
    pid = os.fork()
    if pid == 0:
        try:
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    child.append(pid)
    _, status, usage = os.wait4(pid, 0)  # retried after the handler runs
    end = time.monotonic()
    code = os.waitstatus_to_exitcode(status)
    os.write(report, f"{start!r} {end!r} {code} {usage.ru_maxrss}\n".encode())


if __name__ == "__main__":
    main()
