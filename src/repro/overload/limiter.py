"""Queue-based load leveling: the sidecar's priority-ordered inbound buffer.

The load-leveling pattern (queue between producer and a fixed pool of
consumers) smooths bursts, but an *unbounded* leveling queue under
sustained overload is exactly how latency collapses: the buffer absorbs
the excess as standing delay.  :class:`LevelingQueue` bounds the buffer
and makes the overflow policy deterministic and priority-aware:

* below ``depth``, every offer queues (``depth=None``: the buffer is
  unbounded and nothing is ever rejected);
* at ``depth``, a newcomer that outranks (smaller key than) the *worst*
  queued entry displaces it — the displaced request is handed back to
  the caller to shed — otherwise the newcomer itself is rejected;
* with ``displace=False`` (reject-only: the sidecar's legacy
  backpressure) a full buffer rejects every newcomer, whatever its rank.

Eviction picks the max ``(key, arrival)`` entry: the youngest item of
the worst class, so within a class the buffer degrades LIFO-from-the-
tail while FIFO order is preserved for everything that stays.  No RNG,
no ties decided by heap internals — byte-deterministic.
"""

from __future__ import annotations

import typing

from ..sim import PriorityStore

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator

#: Offer outcomes.
QUEUED = "queued"
REJECTED = "rejected"


class LevelingQueue:
    """A :class:`PriorityStore` with a bound and an overflow policy:
    displace-or-reject (the default) or reject-only.

    ``key`` orders the buffer (smallest first, ties FIFO), exactly like
    the store it wraps.  Consumers block on :meth:`get` as with any
    store; producers call :meth:`offer`, which never blocks.
    """

    def __init__(self, sim: "Simulator", depth: int | None, key=None,
                 displace: bool = True):
        if depth is not None and depth < 1:
            raise ValueError("depth must be >= 1 (or None: unbounded)")
        self.depth = depth
        self.displace = displace
        self.store = PriorityStore(sim, key=key)
        # Conservation counters: offered == queued + rejected, and the
        # displaced (evicted) entries were once queued.
        self.offered = 0
        self.queued = 0
        self.rejected = 0
        self.evicted = 0
        #: Optional observer called with ``(outcome, displaced)`` after
        #: every offer and ``(None, None)`` after every dequeue (None by
        #: default: zero overhead detached).
        self.monitor = None

    def __len__(self) -> int:
        return len(self.store)

    @property
    def items(self) -> list:
        return self.store.items

    def offer(self, item) -> tuple[str, object | None]:
        """Try to buffer ``item``; returns ``(outcome, displaced)``.

        ``outcome`` is :data:`QUEUED` or :data:`REJECTED`; ``displaced``
        is the entry evicted to make room (only ever non-None with a
        QUEUED outcome), which the caller must shed.
        """
        self.offered += 1
        displaced = None
        if self.depth is not None and len(self.store) >= self.depth:
            worst = self.store.peek_max() if self.displace else None
            if worst is None or not self.store._key(item) < self.store._key(worst):
                self.rejected += 1
                if self.monitor is not None:
                    self.monitor(REJECTED, None)
                return REJECTED, None
            displaced = self.store.pop_max()
            self.evicted += 1
        self.queued += 1
        self.store.put(item)
        if self.monitor is not None:
            self.monitor(QUEUED, displaced)
        return QUEUED, displaced

    def get(self):
        """Blocking get (an event carrying the best queued item)."""
        event = self.store.get()
        if self.monitor is not None:
            event.callbacks.append(lambda _event: self.monitor(None, None))
        return event
