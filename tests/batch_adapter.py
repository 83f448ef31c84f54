"""The batch query seen through a per-EUI one.

Test fakes answer one EUI at a time, as ``query(dev_eui, from_ts, to_ts)``.
The controller and the clients ask in batches, as
``query(dev_euis, from_ts, to_ts)`` with one entry per EUI.
:func:`batch_query` turns the first into the second: each per-EUI call
becomes one entry, in order, and a raised ``ProtocolError`` or
``OSError`` becomes that EUI's entry, so a fake fails one device as a
real client does.
"""

from __future__ import annotations

from lorascale.netserver import ProtocolError


def batch_query(query_one):
    """A batch ``query`` from a per-EUI one.  Arguments before the last
    three (a ``self``, when patched onto a class) pass through."""
    def query(*args):
        *owner, dev_euis, from_ts, to_ts = args
        entries = []
        for eui in dev_euis:
            try:
                entries.append(query_one(*owner, eui, from_ts, to_ts))
            except (ProtocolError, OSError) as exc:
                entries.append(exc)
        return entries
    return query


class Batched:
    """A per-EUI fake client with the batch ``query``; every other
    attribute is the fake's own."""

    def __init__(self, fake):
        self.fake = fake
        self.query = batch_query(fake.query)

    def __getattr__(self, name):
        return getattr(self.fake, name)
