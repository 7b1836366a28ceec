"""The two matchers: the bitmask Kuhn matching behind the reuse-potential
lookahead and the chain floor, and the max-weight matcher of the
commuting scheduler (refereed against networkx in
tests/property/test_commuting_kernel.py)."""

import gc

from repro.core.matching import max_bipartite_matching_size, max_weight_matching


def test_a_call_leaves_no_cycles():
    """Augmenting paths recurse through a module-level function, not a
    per-call closure, so a call leaves nothing for the cyclic collector."""
    # each row's lowest target is already held, so augmenting recurses
    rows = [0b1, 0b11, 0b110, 0b1100, 0b11000]
    gc.collect()
    assert max_bipartite_matching_size(rows, 5) == 5
    assert gc.collect() == 0


def test_weighted_matcher_leaves_no_cycles():
    # the odd cycle 0-4 shrinks to a blossom that the pendant edge
    # augments through
    edges = [(0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 4, 2), (4, 0, 2), (4, 5, 1)]
    gc.collect()
    assert {tuple(sorted(pair)) for pair in max_weight_matching(edges)} == {
        (0, 1),
        (2, 3),
        (4, 5),
    }
    assert gc.collect() == 0


def test_weighted_matcher_prefers_cardinality_then_weight():
    # one heavy edge loses to two light ones: cardinality comes first
    assert max_weight_matching([("a", "b", 1), ("b", "c", 10), ("c", "d", 1)]) == {
        ("a", "b"),
        ("c", "d"),
    }
    # among the two perfect matchings of a 4-cycle, the heavier wins
    square = [(0, 1, 4), (1, 2, 1), (2, 3, 4), (3, 0, 1)]
    assert {tuple(sorted(pair)) for pair in max_weight_matching(square)} == {(0, 1), (2, 3)}


def test_weighted_matcher_edge_list_semantics():
    assert max_weight_matching([]) == set()
    # self-loops are ignored; a repeated edge keeps its last weight
    assert max_weight_matching([(0, 0, 9), (1, 1, 9)]) == set()
    repeated = [(0, 1, 9), (1, 2, 1), (2, 3, 1), (0, 1, 1), (3, 0, 9)]
    assert {tuple(sorted(pair)) for pair in max_weight_matching(repeated)} == {
        (0, 3),
        (1, 2),
    }
