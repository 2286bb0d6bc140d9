"""MCTS expansion as it was before lazy child positions.

:func:`expand_with_priors_eager` is ``MCTS._expand_with_priors`` from before
the lazy-position rewrite: it builds every child's board at expansion time,
one ``position.play(move)`` per legal move.  Tests swap it in for
``MCTS._expand_with_priors`` to reproduce the old allocation pattern;
searches are decision-identical either way (boards carry no RNG).
"""

from __future__ import annotations

import numpy as np

from repro.minigo.mcts import MCTS, MCTSNode


def expand_with_priors_eager(self: MCTS, node: MCTSNode, priors: np.ndarray, *,
                             add_noise: bool) -> None:
    """Create the node's children, each with its position, from a prior row."""
    position = node.position
    legal = position.legal_moves()
    move_to_index = position.move_to_index
    legal_indices = [move_to_index(move) for move in legal]
    masked = np.zeros_like(priors)
    masked[legal_indices] = np.maximum(priors[legal_indices], 1e-8)
    masked /= masked.sum()

    if add_noise and len(legal_indices) > 1:
        noise = self.rng.dirichlet([self.dirichlet_alpha] * len(legal_indices))
        masked[legal_indices] = (
            (1 - self.exploration_fraction) * masked[legal_indices]
            + self.exploration_fraction * noise
        )

    children = node.children
    for move, index in zip(legal, legal_indices):
        child = MCTSNode(
            position=position.play(move),
            parent=node,
            move=move,
            prior=float(masked[index]),
        )
        children[index] = child
    node.is_expanded = True
