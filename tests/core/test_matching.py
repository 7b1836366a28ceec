"""The bitmask Kuhn matching behind the reuse-potential lookahead and the
chain floor."""

import gc

from repro.core.matching import max_bipartite_matching_size


def test_a_call_leaves_no_cycles():
    """Augmenting paths recurse through a module-level function, not a
    per-call closure, so a call leaves nothing for the cyclic collector."""
    # each row's lowest target is already held, so augmenting recurses
    rows = [0b1, 0b11, 0b110, 0b1100, 0b11000]
    gc.collect()
    assert max_bipartite_matching_size(rows, 5) == 5
    assert gc.collect() == 0
