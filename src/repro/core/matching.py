"""Maximum bipartite matching over bitmask adjacency rows.

The reuse-potential lookahead bounds "how many reuse pairs remain after
this merge" with a maximum bipartite matching between source and target
wires (paper Fig. 9's feasibility relation).  The matching *size* is what
CaQR compares — and the size of a maximum matching is unique (König), so
any maximum-matching algorithm returns the exact value
``networkx.algorithms.bipartite.hopcroft_karp_matching`` would.

:func:`max_bipartite_matching_size` runs Kuhn's augmenting-path algorithm
directly on integer bitmasks (one Python int of target bits per source
row), avoiding the graph-object construction that dominated the
networkx-based lookahead.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["max_bipartite_matching_size"]


def _augment(
    rows: List[int], match_of_target: List[int], source: int, banned: int
) -> Tuple[bool, int]:
    """Try to match *source*, threading the per-phase visited mask.

    A module-level function rather than a closure: a recursive closure
    is a reference cycle per call, left for the cyclic collector.
    """
    available = rows[source] & ~banned
    while available:
        target_bit = available & -available
        available ^= target_bit
        banned |= target_bit
        target = target_bit.bit_length() - 1
        holder = match_of_target[target]
        if holder == -1:
            match_of_target[target] = source
            return True, banned
        grew, banned = _augment(rows, match_of_target, holder, banned)
        if grew:
            match_of_target[target] = source
            return True, banned
    return False, banned


def max_bipartite_matching_size(rows: List[int], num_targets: int) -> int:
    """Size of a maximum matching in the bipartite graph ``source x has an
    edge to target y iff bit y of rows[x] is set``.

    Args:
        rows: one target-bitmask per source vertex.
        num_targets: number of target vertices (bit positions).

    Returns:
        The (unique) maximum-matching size.
    """
    match_of_target = [-1] * num_targets
    size = 0
    for source, mask in enumerate(rows):
        if mask and _augment(rows, match_of_target, source, 0)[0]:
            size += 1
    return size
