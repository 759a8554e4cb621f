"""In-memory spans around the benchmark's calls into the library.

A span has a name (``layer.function``), start and end times, the id of the
span that caused it, a replay flag, and the host-speed factor of its root
span (hostspeed.py), by which its times are scaled to a quiet host.

A replay is an inner call of a library function re-run by the benchmark
after the outer call returned, so that the inner call gets a time of its
own without a span inside the program; it runs outside its parent's
interval and is never part of the parent's time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from hostspeed import HostClock


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    replay: bool = False
    factor: float = 1.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; ``write`` dumps them once, at the end."""

    def __init__(self, clock: HostClock | None = None) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.clock = clock

    @contextmanager
    def span(self, name: str, *, parent: int | None = None, replay: bool = False, **attrs):
        """Time the body; the parent defaults to the innermost open span."""
        if parent is None and self._open:
            parent = self._open[-1]
        factor = 1.0
        if self.clock is not None:
            if parent is None:
                self.clock.tick()  # probe only between call trees
            factor = self.clock.factor
        sp = Span(len(self.spans), name, 0.0, parent=parent, replay=replay, factor=factor, attrs=attrs)
        self.spans.append(sp)
        self._open.append(sp.id)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[int, float]:
        """Each span's scaled duration minus the part its children cover.

        Children run nested inside the parent's interval and one at a time
        (the benchmark is single-threaded), so their durations add up;
        replays run outside the interval and do not count.
        """
        own = {sp.id: sp.duration * sp.factor for sp in self.spans}
        for sp in self.spans:
            if sp.parent is not None and not sp.replay:
                own[sp.parent] -= sp.duration * sp.factor
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(sp) for sp in self.spans], fh)
