"""Progress beats, and the heartbeat files service leases use.

:func:`beat` reports a task's progress to the sink its process installed
with :func:`beat_sink` (a supervised worker's pipe, a service lease), and
does nothing without one.  :class:`Heartbeat` files, rewritten atomically
(temp + rename), serve only leases that other hosts read: liveness is the
file's **mtime** (:func:`heartbeat_age`), so a worker that wedges between
writes is still detected; the payload is diagnostic garnish.
"""

from __future__ import annotations

import json
import os
import socket
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional

#: Cached once: the host tag lets a reader decide whether the writer's
#: pid is probeable (same host) or opaque (over a shared filesystem).
_HOSTNAME = socket.gethostname()

_sink: Optional[Callable[..., None]] = None


@contextmanager
def beat_sink(sink: Callable[..., None]) -> Iterator[None]:
    """Route this process's beats to ``sink(cycle=, stage=)``."""
    global _sink
    previous, _sink = _sink, sink
    try:
        yield
    finally:
        _sink = previous


def beating() -> bool:
    """Whether a sink is installed, i.e. whether beats go anywhere."""
    return _sink is not None


def beat(*, cycle: Optional[int] = None,
         stage: Optional[str] = None) -> None:
    """Report progress to the installed sink, if any."""
    if _sink is not None:
        _sink(cycle=cycle, stage=stage)


class Heartbeat:
    """Writer side of a heartbeat file: owned by the leasing worker."""

    def __init__(self, path: Path):
        self.path = Path(path)

    def beat(self, *, cycle: Optional[int] = None,
             stage: Optional[str] = None) -> None:
        payload = {"pid": os.getpid(), "host": _HOSTNAME,
                   "time": time.time()}
        if cycle is not None:
            payload["cycle"] = int(cycle)
        if stage is not None:
            payload["stage"] = stage
        tmp = self.path.with_name(self.path.name + f".tmp.{os.getpid()}")
        try:
            tmp.write_text(json.dumps(payload))
            os.replace(tmp, self.path)
        except OSError:
            # A failed beat must never kill the run it is reporting on.
            pass


def heartbeat_age(path: Path, now: Optional[float] = None
                  ) -> Optional[float]:
    """Seconds since the heartbeat file was last written (None if absent)."""
    try:
        mtime = Path(path).stat().st_mtime
    except OSError:
        return None
    return (now if now is not None else time.time()) - mtime
