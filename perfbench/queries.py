"""Queries, and the order a session sends them in."""

from collections import namedtuple

# kind: what the query is, for percentile placement; layer: the module whose
# public function the query calls; run() -> answer; check(answer) -> None if
# the oracle accepts it, else a description of the failure
Query = namedtuple("Query", "kind layer run check")


def by_kind(queries):
    """Split a query list into one stream per kind, keeping the order."""
    streams = {}
    for q in queries:
        streams.setdefault(q.kind, []).append(q)
    return list(streams.values())


def interleave(streams):
    """Spread each stream evenly over the session, keeping its own order.

    Queries of one kind then sample the whole session rather than one short
    stretch of it, so a percentile that falls inside a block of one kind does
    not depend on how fast the machine was during that stretch.
    """
    keyed = sorted(
        ((j + 0.5) / len(s), i, j) for i, s in enumerate(streams) for j in range(len(s))
    )
    return [streams[i][j] for _, i, j in keyed]
