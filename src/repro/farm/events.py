"""The pending-event queue of the discrete-event simulator.

The farm engine pushes ``(time, kind, seq, core)`` tuples and pops
them in total lexicographic order: equal times fall back to the
``(kind, seq, core)`` tie-break, so two runs over the same inputs pop
the same events in the same order.  :class:`HeapEventQueue` is a
binary heap (``heapq``) with exactly that surface.
"""

import heapq
from typing import Dict, List, Tuple, Type

__all__ = ["EVENT_QUEUES", "HeapEventQueue"]

Event = Tuple  # (time, kind, seq, core) -- compared lexicographically


class HeapEventQueue:
    """Total-order priority queue of event tuples (``heapq``)."""

    def __init__(self):
        self._heap: List[Event] = []

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, event)

    def pop(self) -> Event:
        """Remove and return the least event (tuple order); raises
        :class:`IndexError` when empty."""
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


#: Every event-queue class, by name (instrumentation wraps each one's
#: ``push``/``pop``).
EVENT_QUEUES: Dict[str, Type[HeapEventQueue]] = {"heap": HeapEventQueue}
