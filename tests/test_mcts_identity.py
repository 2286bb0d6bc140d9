"""Array-backed MCTS vs the scalar one-node-per-child oracle.

:class:`repro.minigo.mcts.MCTS` keeps each node's children's statistics in
numpy arrays and selects with a vectorized UCB plus ``argmax``; the oracle
(``tests/oracles/scalar_mcts.py``) is the search as it was before, with one
node object per child, ``max()`` over a dict and per-node backup.  The two
must make the same decision at every step: identical root visit arrays,
visit-policy bytes, chosen moves (so identical RNG draws) and transposition
hits, across wave sizes, transposition tables, root noise and board sizes,
and identical game records and virtual clocks for a whole self-play pool.
"""

from unittest.mock import patch

import numpy as np
import pytest

from repro.minigo import selfplay as selfplay_mod
from repro.minigo.mcts import MCTS
from repro.minigo.workers import SelfPlayPool
from repro.sim.go import GoPosition
from tests.oracles.scalar_mcts import ScalarMCTS

#: Simulations per search and moves per game: enough for waves to collide,
#: transpositions to recur and the trees to grow a few plies deep.
SIMULATIONS = 24
MOVES = 16


def _projection_evaluator(size: int):
    """A fixed random linear policy/value head: skewed priors, signed values.

    Pass is made unlikely so that games run long enough to crowd the board.
    """
    rng = np.random.default_rng(size)
    policy_weights = rng.normal(size=(3 * size * size, size * size + 1)).astype(np.float32)
    value_weights = (rng.normal(size=3 * size * size) / size).astype(np.float32)

    def evaluate(features):
        logits = features @ policy_weights
        logits[:, -1] -= 4.0
        priors = np.exp(logits - logits.max(axis=1, keepdims=True))
        priors /= priors.sum(axis=1, keepdims=True)
        return priors, np.tanh(features @ value_weights)
    return evaluate


def _play(mcts_class, *, size, leaf_batch, transposition, add_noise):
    """Search-and-move for up to ``MOVES`` moves; every decision recorded."""
    mcts = mcts_class(_projection_evaluator(size), num_simulations=SIMULATIONS,
                      leaf_batch=leaf_batch, rng=np.random.default_rng(7),
                      transposition=transposition)
    position = GoPosition.initial(size)
    decisions = []
    for _ in range(MOVES):
        root = mcts.search(position, add_noise=add_noise)
        move = mcts.choose_move(root)
        decisions.append((mcts.visit_counts(root).tobytes(),
                          mcts.policy_from_visits(root).tobytes(),
                          mcts.policy_from_visits(root, temperature=1e-6).tobytes(),
                          move))
        position = position.play(move)
        if position.is_over:
            break
    return decisions, mcts.transposition_hits


@pytest.mark.parametrize("size", [5, 9])
@pytest.mark.parametrize("transposition", [False, True])
@pytest.mark.parametrize("add_noise", [False, True])
@pytest.mark.parametrize("leaf_batch", [1, 4, 8])
def test_array_search_matches_scalar_oracle(size, leaf_batch, transposition, add_noise):
    array = _play(MCTS, size=size, leaf_batch=leaf_batch,
                  transposition=transposition, add_noise=add_noise)
    scalar = _play(ScalarMCTS, size=size, leaf_batch=leaf_batch,
                   transposition=transposition, add_noise=add_noise)
    assert array == scalar


def test_identity_grid_exercises_transpositions():
    """The grid above covers table hits, not just an empty table."""
    hits = [_play(MCTS, size=size, leaf_batch=leaf_batch, transposition=True,
                  add_noise=False)[1] for size in (5, 9) for leaf_batch in (1, 4)]
    assert sum(hits) > 0


def test_selfplay_pool_matches_scalar_oracle():
    """A whole event-scheduled pool: records and per-worker clocks identical."""
    config = dict(board_size=5, num_simulations=12, games_per_worker=1, max_moves=12,
                  hidden=(16,), seed=3, profile=False, batched_inference=True,
                  leaf_batch=4, scheduler="event", transposition=True)

    def run_pool():
        pool = SelfPlayPool(4, **config)
        pool.run()
        records = [[(ex.features.tobytes(), ex.policy_target.tobytes(), ex.value_target)
                    for ex in run.result.examples] for run in pool.runs]
        return records, [run.total_time_us for run in pool.runs]

    built = []

    class RecordingScalarMCTS(ScalarMCTS):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    array = run_pool()
    with patch.object(selfplay_mod, "MCTS", RecordingScalarMCTS):
        scalar = run_pool()
    assert built  # the oracle really drove the games
    assert array == scalar
