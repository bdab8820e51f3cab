"""The bounded newest-wins log every observability ring is built on."""

from collections import deque

__all__ = ["Ring"]


class Ring:
    """Keeps the last ``capacity`` recorded entries (none at capacity 0).

    A ``deque(maxlen=capacity)`` does the forgetting, so a full ring
    drops its oldest entry in O(1) instead of shifting the whole list.
    """

    def __init__(self, capacity):
        self._entries = deque(maxlen=max(capacity, 0))

    @property
    def capacity(self):
        return self._entries.maxlen

    @capacity.setter
    def capacity(self, capacity):
        self._entries = deque(self._entries, maxlen=max(capacity, 0))

    def record(self, entry):
        self._entries.append(entry)

    def recent(self, n=20):
        return self._last(list(self._entries), n)

    @staticmethod
    def _last(entries, n):
        """The last ``n`` of ``entries``: none for ``n <= 0`` (``[-0:]``
        would be all of them)."""
        return entries[-n:] if n > 0 else []

    def latest(self):
        return self._entries[-1] if self._entries else None

    def clear(self):
        self._entries.clear()

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)
