"""Node handler interface for protocols running on the simulator.

A protocol is implemented as one :class:`NodeHandler` per node.  The network
calls :meth:`NodeHandler.on_round` with the messages delivered in a round;
the handler returns the parts to broadcast (delivered to all live neighbours
next round).

A handler is called in a round when something was delivered to it, or when
the round is one its :meth:`NodeHandler.next_wake` declared.  The default
declares every round, so a handler that does not override it runs in every
round it is alive.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, List, Optional, Sequence

from .message import Envelope, Part


class NodeHandler(ABC):
    """Per-node protocol logic driven by the synchronous round loop."""

    @abstractmethod
    def on_round(self, rnd: int, inbox: Sequence[Envelope]) -> Iterable[Part]:
        """Process one round.

        Args:
            rnd: The absolute 1-based round number.  ``inbox`` contains
                everything the node's neighbours broadcast in round
                ``rnd - 1``.
            inbox: Envelopes delivered this round.

        Returns:
            Parts to broadcast this round (empty iterable to stay silent).
        """

    def next_wake(self, rnd: int) -> Optional[int]:
        """The next round after ``rnd`` in which this handler must run even
        with an empty inbox; ``None`` if only a delivery can wake it.

        The network asks after every call (and with ``rnd = 0`` before the
        first round).  A handler that acts on *silence* — a timeout, a
        phase slot, a "heard nothing from my parent" check — must declare
        that round here, or it is never called in it.  Calling a handler
        in a round it did not declare, with an empty inbox, must be a
        no-op.  The default declares every round.
        """
        return rnd + 1

    def wants_to_stop(self) -> bool:
        """Whether this node (typically the root) has produced final output.

        The network stops the run as soon as a handler it called in a round
        reports ``True`` after that round — this models the paper's "the
        root ... outputs its result and terminates".
        """
        return False


class SilentNode(NodeHandler):
    """A node that never sends anything (useful in tests and as filler)."""

    def on_round(self, rnd: int, inbox: Sequence[Envelope]) -> List[Part]:
        return []


class RelayNode(NodeHandler):
    """A node that re-broadcasts every distinct part it receives once.

    Used in tests of the delivery semantics and as the simplest possible
    flooding participant.
    """

    def __init__(self) -> None:
        self._seen = set()
        self.received: List[Envelope] = []

    def on_round(self, rnd: int, inbox: Sequence[Envelope]) -> List[Part]:
        out: List[Part] = []
        for env in inbox:
            self.received.append(env)
            key = env.part.content_key
            if key not in self._seen:
                self._seen.add(key)
                out.append(env.part)
        return out
