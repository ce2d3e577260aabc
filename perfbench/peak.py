"""Record a program child's own peak RSS when it exits.

A child forked from the benchmark starts life sharing the benchmark's
pages, and Linux carries that high-water mark across ``exec`` into the
child's ``ru_maxrss``: a ``repro`` child spawned after set-up built
100K rows would report the benchmark's size, not its own.  The
``VmHWM`` line of ``/proc/self/status`` belongs to the executed image
alone, so each program child registers :func:`install` and writes it
(in KiB) at exit to the file named by :data:`ENV`.
"""

from __future__ import annotations

import atexit
import os

ENV = "PERFBENCH_PEAK_RSS"


def _record(path: str) -> None:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                with open(path, "w", encoding="ascii") as out:
                    out.write(line.split()[1])
                return


def install() -> None:
    path = os.environ.get(ENV)
    if path:
        atexit.register(_record, path)
