"""MCTS with one node object per child: the scalar search before array nodes.

:class:`ScalarMCTS` is :class:`repro.minigo.mcts.MCTS` with the node layout
it had before children's statistics moved into per-node numpy arrays, kept
verbatim: an :class:`MCTSNode` per legal move created at expansion, child
selection by ``max()`` over the children dict with the scalar
:meth:`MCTSNode.ucb_score`, per-node backup and virtual-loss walks, and
root visits read off the children dict.  ``ScalarMCTS(..., eager=True)``
additionally builds every child's board at expansion time
(:func:`expand_with_priors_eager`, the expansion from before lazy child
positions).  Searches are decision-identical to the array search
(``tests/test_mcts_identity.py``); tests and the wall-clock baseline swap it
in with ``unittest.mock.patch``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.minigo.mcts import MCTS
from repro.sim.go import GoPosition, Move


class MCTSNode:
    """One node of the search tree.

    Child positions are **materialized lazily**: expansion records only the
    (parent, move, prior) triple, and :attr:`position` replays the move on
    the parent's board the first time it is read.
    """

    __slots__ = ("_position", "parent", "move", "prior", "visit_count",
                 "total_value", "children", "is_expanded", "virtual_loss")

    def __init__(
        self,
        position: Optional[GoPosition] = None,
        parent: Optional["MCTSNode"] = None,
        move: Move = None,                #: move that led here from the parent
        prior: float = 0.0,
        visit_count: int = 0,
        total_value: float = 0.0,
        children: Optional[Dict[int, "MCTSNode"]] = None,
        is_expanded: bool = False,
        virtual_loss: int = 0,            #: in-flight selections counted as losses
    ) -> None:
        if position is None and parent is None:
            raise ValueError("a node needs a position or a parent to derive one from")
        self._position = position
        self.parent = parent
        self.move = move
        self.prior = prior
        self.visit_count = visit_count
        self.total_value = total_value
        self.children = {} if children is None else children
        self.is_expanded = is_expanded
        self.virtual_loss = virtual_loss

    @property
    def position(self) -> GoPosition:
        position = self._position
        if position is None:
            position = self.parent.position.play(self.move)
            self._position = position
        return position

    @property
    def has_position(self) -> bool:
        """True once the position has been materialized (testing hook)."""
        return self._position is not None

    @property
    def mean_value(self) -> float:
        return self.total_value / self.visit_count if self.visit_count > 0 else 0.0

    def ucb_score(self, c_puct: float) -> float:
        if self.parent is None:
            return self.mean_value
        # total_value is from this node's own to-play perspective (backup
        # flips sign per ply), so the parent choosing among children must
        # negate it; in-flight virtual losses count as parent-perspective
        # losses, steering concurrent wave selections apart.
        visits = self.visit_count + self.virtual_loss
        mean = (-self.total_value - self.virtual_loss) / visits if visits > 0 else 0.0
        parent_visits = self.parent.visit_count + self.parent.virtual_loss
        exploration = c_puct * self.prior * math.sqrt(parent_visits) / (1 + visits)
        return mean + exploration


def expand_with_priors_eager(self: "ScalarMCTS", node: MCTSNode, priors: np.ndarray, *,
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


class ScalarMCTS(MCTS):
    """PUCT tree search over per-child node objects (the pre-array layout)."""

    def __init__(self, evaluator, *, eager: bool = False, **kwargs) -> None:
        super().__init__(evaluator, **kwargs)
        #: build every child's board at expansion (pre-lazy-position oracle)
        self.eager = eager

    @staticmethod
    def new_root(position: GoPosition) -> MCTSNode:
        return MCTSNode(position=position)

    def _select_wave(self, root: MCTSNode, target: int
                     ) -> Tuple[List[Tuple[MCTSNode, Optional[float]]], List[MCTSNode]]:
        wave: List[Tuple[MCTSNode, Optional[float]]] = []
        pending: List[MCTSNode] = []
        pending_ids: set = set()
        c_puct = self.c_puct

        def ucb_key(child: MCTSNode) -> float:
            return child.ucb_score(c_puct)

        for _ in range(target):
            node = root
            # Selection: descend to a leaf.
            while node.is_expanded and node.children:
                node = max(node.children.values(), key=ucb_key)
            if node.position.is_over:
                value = node.position.result()
                # result() is from Black's perspective; convert to the player to move.
                value = value if node.position.to_play == 1 else -value
                wave.append((node, value))
                self._add_virtual_loss(node)
                continue
            if id(node) in pending_ids:
                # Virtual loss could not steer the search away from an
                # already-selected leaf (tiny tree); flush what we have.
                break
            pending_ids.add(id(node))
            pending.append(node)
            wave.append((node, None))
            self._add_virtual_loss(node)
        return wave, pending

    @staticmethod
    def _add_virtual_loss(node: MCTSNode) -> None:
        current: Optional[MCTSNode] = node
        while current is not None:
            current.virtual_loss += 1
            current = current.parent

    @staticmethod
    def _remove_virtual_loss(node: MCTSNode) -> None:
        current: Optional[MCTSNode] = node
        while current is not None:
            current.virtual_loss -= 1
            current = current.parent

    def _expand_with_priors(self, node: MCTSNode, priors: np.ndarray, *, add_noise: bool) -> None:
        """Create the node's children (without positions) from a prior row."""
        if self.eager:
            expand_with_priors_eager(self, node, priors, add_noise=add_noise)
            return
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
            children[index] = MCTSNode(parent=node, move=move, prior=float(masked[index]))
        node.is_expanded = True

    @staticmethod
    def _backup(node: MCTSNode, value: float) -> None:
        """Propagate the leaf value up the tree, flipping sign per ply."""
        current: Optional[MCTSNode] = node
        sign = 1.0
        while current is not None:
            current.visit_count += 1
            current.total_value += sign * value
            sign = -sign
            current = current.parent

    @staticmethod
    def visit_counts(root: MCTSNode) -> np.ndarray:
        """Visits per move index (including pass) of the root's children."""
        size = root.position.size
        policy = np.zeros(size * size + 1, dtype=np.float64)
        for index, child in root.children.items():
            policy[index] = child.visit_count
        return policy
