from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lahja import DecisionPolicy, decide_labels, weighted_hard_vote, weighted_votes

WEIGHT_GRID = tuple(round(0.1 * i, 1) for i in range(1, 7))


def oracle_vote(votes, weights) -> int:
    """Naive reference: explicit score table, max scan, spelled-out tie rules."""
    table: dict[int, float] = {}
    for position in range(len(votes)):
        label = votes[position]
        table[label] = table.get(label, 0.0) + weights[position]
    winner_score = None
    for score in table.values():
        if winner_score is None or score > winner_score:
            winner_score = score
    tied = sorted(label for label, score in table.items() if score == winner_score)
    if len(tied) == 1:
        return tied[0]
    candidates = [i for i in range(len(votes)) if votes[i] in tied]
    best = candidates[0]
    for i in candidates[1:]:
        if weights[i] > weights[best]:
            best = i
    return votes[best]


class TestWeightedHardVote:
    def test_heavier_single_vote_wins(self):
        assert weighted_hard_vote((0, 1, 1), (0.6, 0.3, 0.1)) == 0

    def test_agreeing_pair_outweighs(self):
        assert weighted_hard_vote((0, 1, 1), (0.2, 0.3, 0.3)) == 1

    def test_three_way_tie_goes_to_first_classifier(self):
        assert weighted_hard_vote((0, 1, 2), (0.3, 0.3, 0.3)) == 0

    def test_tie_goes_to_highest_weight_classifier(self):
        # labels 0 and 1 tie at 0.5; the 0.5-weight classifier voted 1.
        assert weighted_hard_vote((1, 0, 0), (0.5, 0.25, 0.25)) == 1

    def test_unanimous_always_wins(self):
        for weights in itertools.product(WEIGHT_GRID, repeat=3):
            assert weighted_hard_vote((2, 2, 2), weights) == 2

    def test_exhaustive_brute_force_agreement(self):
        patterns = list(itertools.product(range(4), repeat=3))
        grids = list(itertools.product(WEIGHT_GRID, repeat=3))
        checked = 0
        for votes in patterns:
            for weights in grids:
                assert weighted_hard_vote(votes, weights) == oracle_vote(votes, weights)
                checked += 1
        assert checked == 4**3 * 6**3

    @given(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        st.tuples(*[st.sampled_from(WEIGHT_GRID)] * 3),
        st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]),
    )
    def test_positive_scaling_never_changes_winner(self, votes, weights, scale):
        # power-of-two scales multiply floats exactly; an inexact scale can
        # collapse an ulp-level score gap into an exact tie and legitimately
        # flip the tie-break path
        scaled = tuple(w * scale for w in weights)
        assert weighted_hard_vote(votes, weights) == weighted_hard_vote(votes, scaled)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            weighted_hard_vote((0, 1), (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            weighted_hard_vote((0, 1, -1), (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            weighted_hard_vote((0, 1, 1), (0.5, 0.0, 0.5))


class TestWeightedVotes:
    """The batch vote against the naive oracle, row by row."""

    def test_criterion_5_cases_one_call_per_weight_triple(self):
        patterns = np.array(list(itertools.product(range(4), repeat=3)))
        checked = 0
        for triple in itertools.product(WEIGHT_GRID, repeat=3):
            for weights in (triple, tuple(w * 2.0 for w in triple)):
                winners = weighted_votes(patterns, weights)
                assert winners.tolist() == [oracle_vote(row, weights) for row in patterns.tolist()]
                checked += len(patterns)
        assert checked == 27_648

    @given(
        st.integers(1, 8).flatmap(
            lambda voters: st.tuples(
                st.lists(st.lists(st.integers(0, 4), min_size=voters, max_size=voters), max_size=12),
                st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.5, 1.0]), min_size=voters, max_size=voters),
            )
        )
    )
    def test_random_rows_with_repeated_weights(self, case):
        rows, weights = case
        votes = np.array(rows, dtype=np.int64).reshape(len(rows), len(weights))
        assert weighted_votes(votes, weights).tolist() == [oracle_vote(row, weights) for row in rows]
        assert [weighted_hard_vote(row, weights) for row in rows] == [oracle_vote(row, weights) for row in rows]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            weighted_votes(np.zeros((2, 2), dtype=np.int64), (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            weighted_votes(np.zeros((2, 0), dtype=np.int64), ())
        with pytest.raises(ValueError):
            weighted_votes(np.array([[0, -1]]), (0.5, 0.5))


class TestDecisionPolicy:
    def test_argmax_singleton(self):
        assert decide_labels([0.2, 0.9, -0.1], DecisionPolicy("argmax")) == {1}

    def test_argmax_tie_lowest_index(self):
        assert decide_labels([0.9, 0.9, 0.1], DecisionPolicy("argmax")) == {0}

    def test_threshold_sign_test(self):
        assert decide_labels([0.2, 0.9, -0.1], DecisionPolicy("threshold", tau=0.0)) == {0, 1}

    def test_threshold_falls_back_to_argmax(self):
        assert decide_labels([-3.0, -1.0, -2.0], DecisionPolicy("threshold", tau=0.0)) == {1}

    def test_threshold_is_strict(self):
        assert decide_labels([0.5, 0.2], DecisionPolicy("threshold", tau=0.5)) == {0}

    def test_topk(self):
        assert decide_labels([0.1, 0.9, 0.5], DecisionPolicy("topk", k=2)) == {1, 2}

    def test_topk_tie_lower_index(self):
        assert decide_labels([0.5, 0.5, 0.5], DecisionPolicy("topk", k=2)) == {0, 1}

    def test_topk_exceeding_label_count_rejected(self):
        with pytest.raises(ValueError):
            decide_labels([0.1, 0.2], DecisionPolicy("topk", k=3))

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=8), st.floats(-5, 5))
    def test_threshold_output_contains_argmax_when_it_clears_tau(self, scores, tau):
        result = decide_labels(scores, DecisionPolicy("threshold", tau=tau))
        top = max(range(len(scores)), key=lambda i: (scores[i], -i))
        if scores[top] > tau:
            assert top in result
        assert result  # never empty thanks to the fallback

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DecisionPolicy("softmax")

    def test_dict_round_trip(self):
        for policy in (
            DecisionPolicy("argmax"),
            DecisionPolicy("threshold", tau=1.5),
            DecisionPolicy("topk", k=2),
        ):
            assert DecisionPolicy.from_dict(policy.to_dict()) == policy
