"""Barrier traces of a recorded run, for the tests."""

from swarmseq.barriers import Connectivity


def connectivity_trace(record, edge):
    """Barrier value of one connectivity edge across the whole run."""
    i, j = edge
    pos = record.positions
    return Connectivity(i, j, record.plan.delta).value(pos[:, i - 1] - pos[:, j - 1])
