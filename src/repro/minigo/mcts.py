"""Monte-Carlo tree search guided by a policy/value network (AlphaGoZero-style).

Minigo's self-play workers expand a move tree in Python
(``mcts_tree_search`` in the paper's Figure 2) and evaluate leaf positions in
minibatches with neural-network inference (``expand_leaf``).  The search here
follows the PUCT formulation of AlphaGoZero: child selection by
``Q + U`` where ``U`` is proportional to the network prior and the parent
visit count.

With ``leaf_batch > 1`` the search runs in *waves*: up to ``leaf_batch``
leaves are selected per wave under a virtual loss (each in-flight leaf is
temporarily scored as a loss along its path, steering later selections away
from it), then evaluated in one batched network call and backed up together.
A wave of one leaf applies and removes its virtual loss before any other
selection happens, so ``leaf_batch=1`` reproduces the classic per-leaf search
decision-for-decision.

The search is resumable: :meth:`MCTS.search_steps` is a generator that
*yields* a :class:`LeafEvalRequest` at every inference boundary instead of
calling the evaluator synchronously, so an external scheduler can suspend a
worker mid-search, batch its pending leaves with other workers' requests, and
resume it once results land.  :meth:`MCTS.search` is the synchronous driver
of that generator and behaves exactly as before.

Nodes use Minigo's own array layout (:class:`MCTSNode`): an expanded node
keeps its children's visits, values, priors and virtual losses in numpy
arrays, one slot per legal move of the Go engine's legality index mask
(:meth:`GoPosition.legal_indices`); selection scores all children in one
vectorized PUCT expression and takes ``argmax``, and a child node is created
only when selection descends into it.  Every decision is identical to the
scalar one-node-per-child search this replaced.  On the ``selfplay``
workload of ``perfbench/run.py`` (8 workers, 9x9, 16 simulations,
``leaf_batch=8``; 10 alternating 24 s parent/change pairs at seed 11 on a
2-core Xeon container) the median went from 134 to 454 moves/s (3.4x), and
the traced run at seed 0 puts the saving in this module's self time
(1.07 s -> 0.26 s per operation) and the Go engine's (0.34 s -> 0.11 s).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..sim.go import GoPosition, Move

#: Evaluates a batch of positions -> (policy priors [N, num_moves], values [N]).
NetworkEvaluator = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


class LeafEvalRequest:
    """One pending leaf-evaluation ticket yielded by :meth:`MCTS.search_steps`.

    The generator suspends after yielding a request; the driver evaluates
    ``features`` however it likes (synchronously, or queued on a shared
    inference service) and calls :meth:`fulfill` before resuming the search.
    """

    __slots__ = ("features", "state_keys", "priors", "values")

    def __init__(self, features: np.ndarray,
                 state_keys: Optional[List[int]] = None) -> None:
        self.features = features
        #: per-row position keys (Zobrist transposition keys), attached when
        #: the search emits them for the service-side evaluation cache
        self.state_keys = state_keys
        self.priors: Optional[np.ndarray] = None
        self.values: Optional[np.ndarray] = None

    @property
    def num_rows(self) -> int:
        return int(self.features.shape[0])

    @property
    def done(self) -> bool:
        return self.priors is not None

    def fulfill(self, priors: np.ndarray, values: np.ndarray) -> None:
        self.priors = priors
        self.values = values

    def results(self) -> Tuple[np.ndarray, np.ndarray]:
        if not self.done:
            raise RuntimeError("leaf evaluation request resumed before being fulfilled")
        assert self.priors is not None and self.values is not None
        return self.priors, self.values


class MCTSNode:
    """One node of the search tree, its children's statistics held in arrays.

    This is the node layout of Minigo's own ``mcts.py``.  Expansion stores
    one *slot* per legal move, in the ascending move-index order of
    :meth:`GoPosition.legal_indices`: :attr:`legal` holds the move indices,
    and the float64 arrays ``child_N`` (visits), ``child_W`` (total value,
    from each child's own to-play perspective), ``child_prior`` and
    ``child_vl`` (in-flight virtual losses) hold the statistics.  A node's
    own visit count and virtual loss are read from its parent's arrays at
    :attr:`slot`; the root, which has no parent, keeps them as the scalars
    ``N``, ``W`` and ``vl``.  Selection scores every child in one vectorized
    expression (:meth:`child_scores`), and backup touches one array element
    per ply.

    Child *nodes* are created only when selection descends into a slot
    (:meth:`child`), and a child's board is built only when its
    :attr:`position` is first read.  Most legal moves of an expanded node
    are never visited, so they cost one array element each instead of a
    node object and a board copy.  Game records are unchanged: the scalar
    one-node-per-child search is kept as a test oracle under
    ``tests/oracles/`` and pinned decision-identical by
    ``tests/test_mcts_identity.py``.
    """

    __slots__ = ("_position", "parent", "move", "slot", "N", "W", "vl", "legal",
                 "child_N", "child_W", "child_prior", "child_vl", "children")

    def __init__(
        self,
        position: Optional[GoPosition] = None,
        parent: Optional["MCTSNode"] = None,
        move: Move = None,                #: move that led here from the parent
        slot: int = 0,                    #: index into the parent's child arrays
    ) -> None:
        if position is None and parent is None:
            raise ValueError("a node needs a position or a parent to derive one from")
        self._position = position
        self.parent = parent
        self.move = move
        self.slot = slot
        #: the root's own visits, total value and virtual loss
        self.N = 0
        self.W = 0.0
        self.vl = 0
        #: legal move indices (one per slot); None until expanded
        self.legal: Optional[np.ndarray] = None
        self.child_N: Optional[np.ndarray] = None
        self.child_W: Optional[np.ndarray] = None
        self.child_prior: Optional[np.ndarray] = None
        self.child_vl: Optional[np.ndarray] = None
        #: move index -> child node, for the slots selection has descended into
        self.children: Dict[int, "MCTSNode"] = {}

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
    def visit_count(self) -> int:
        parent = self.parent
        return self.N if parent is None else int(parent.child_N[self.slot])

    @property
    def virtual_loss(self) -> int:
        parent = self.parent
        return self.vl if parent is None else int(parent.child_vl[self.slot])

    @property
    def mean_value(self) -> float:
        parent = self.parent
        if parent is None:
            return self.W / self.N if self.N > 0 else 0.0
        visits = parent.child_N[self.slot]
        return float(parent.child_W[self.slot] / visits) if visits > 0 else 0.0

    def expand(self, legal: np.ndarray, priors: np.ndarray) -> None:
        """Give the node one slot per legal move index, with its prior."""
        self.legal = legal
        self.child_prior = priors
        self.child_N = np.zeros(len(legal))
        self.child_W = np.zeros(len(legal))
        self.child_vl = np.zeros(len(legal))

    def child(self, slot: int) -> "MCTSNode":
        """The child node at ``slot``, created on first descent."""
        index = int(self.legal[slot])
        child = self.children.get(index)
        if child is None:
            child = MCTSNode(parent=self, move=self.position.index_to_move(index), slot=slot)
            self.children[index] = child
        return child

    def child_scores(self, c_puct: float) -> np.ndarray:
        """PUCT score of every child slot: ``Q + U`` from this node's view.

        ``child_W`` is from each child's own to-play perspective (backup
        flips sign per ply), so the parent negates it; in-flight virtual
        losses count as parent-perspective losses, steering concurrent wave
        selections apart.  Elementwise this is the same sequence of
        correctly rounded float64 operations as the scalar per-child score,
        so ties break identically.  An unvisited slot has ``W = vl = 0``,
        so its mean is (-)0 and its score is the exploration term alone.
        """
        visits = self.child_N + self.child_vl
        mean = (-self.child_W - self.child_vl) / np.maximum(visits, 1.0)
        parent_visits = self.visit_count + self.virtual_loss
        exploration = c_puct * self.child_prior * math.sqrt(parent_visits) / (1 + visits)
        return mean + exploration


class MCTS:
    """PUCT tree search over Go positions."""

    def __init__(
        self,
        evaluator: NetworkEvaluator,
        *,
        num_simulations: int = 32,
        c_puct: float = 1.5,
        dirichlet_alpha: float = 0.3,
        exploration_fraction: float = 0.25,
        leaf_batch: int = 1,
        rng: Optional[np.random.Generator] = None,
        transposition: bool = False,
        emit_state_keys: bool = False,
    ) -> None:
        """``transposition=True`` keeps a per-search table of raw network
        outputs keyed by :meth:`GoPosition.transposition_key`, so a position
        reached again through a different move order is finished in-wave
        from the stored (priors, value) instead of joining the
        :class:`LeafEvalRequest` — selection, virtual-loss accounting and
        backup are otherwise unchanged, and ``transposition=False``
        reproduces today's searches bit for bit.  ``emit_state_keys=True``
        attaches per-row transposition keys to every request, feeding the
        service-side evaluation cache across searches and games."""
        if num_simulations <= 0:
            raise ValueError("num_simulations must be positive")
        if leaf_batch <= 0:
            raise ValueError("leaf_batch must be positive")
        self.evaluator = evaluator
        self.num_simulations = num_simulations
        self.c_puct = c_puct
        self.dirichlet_alpha = dirichlet_alpha
        self.exploration_fraction = exploration_fraction
        self.leaf_batch = leaf_batch
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.transposition = transposition
        self.emit_state_keys = emit_state_keys
        #: cumulative leaves answered from transposition tables (all searches)
        self.transposition_hits = 0

    # ----------------------------------------------------------------- search
    def search(self, position: GoPosition, *, add_noise: bool = True) -> MCTSNode:
        """Run ``num_simulations`` simulations from ``position`` and return the root."""
        steps = self.search_steps(position, add_noise=add_noise)
        while True:
            try:
                request = steps.send(None)
            except StopIteration as stop:
                return stop.value
            priors, values = self.evaluator(request.features)
            request.fulfill(priors, values)

    def search_steps(self, position: GoPosition, *, add_noise: bool = True):
        """Resumable wave search: a generator yielding :class:`LeafEvalRequest`.

        Each yield is an inference boundary — the caller evaluates the
        request's features (synchronously or through a shared batched
        service), calls :meth:`LeafEvalRequest.fulfill`, and resumes the
        generator.  All RNG draws happen in the same order as :meth:`search`,
        so driving the generator with a synchronous evaluator reproduces the
        classic search decision-for-decision.  Returns the root node via
        ``StopIteration.value``.

        Thin wrapper over :class:`SearchCursor`, the explicit-state (and
        therefore picklable) form of the same state machine.
        """
        cursor = SearchCursor(self, position, add_noise=add_noise)
        while cursor.request is not None:
            yield cursor.request
            cursor.advance()
        return cursor.root

    @staticmethod
    def new_root(position: GoPosition) -> MCTSNode:
        """The root node a search over ``position`` starts from."""
        return MCTSNode(position=position)

    # -------------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        # The evaluator is a bound method into a live worker stack (engine,
        # system, clocks); a restored search must re-attach its own.
        state = self.__dict__.copy()
        state["evaluator"] = None
        return state

    def _select_wave(self, root: MCTSNode, target: int
                     ) -> Tuple[List[Tuple[MCTSNode, Optional[float]]], List[MCTSNode]]:
        """Select up to ``target`` leaves under virtual loss.

        Returns ``(wave, pending)`` where ``wave`` is (leaf, terminal value or
        None) in selection order and ``pending`` the subset needing network
        evaluation."""
        wave: List[Tuple[MCTSNode, Optional[float]]] = []
        pending: List[MCTSNode] = []
        pending_ids: set = set()
        c_puct = self.c_puct

        for _ in range(target):
            node = root
            # Selection: descend to a leaf.  Slots are in ascending move
            # order and argmax takes the first maximum, so ties break toward
            # the lowest move index.
            while node.legal is not None:
                node = node.child(int(np.argmax(node.child_scores(c_puct))))
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

    def _finish_wave(self, wave: List[Tuple[MCTSNode, Optional[float]]],
                     evaluated: Dict[int, Tuple[np.ndarray, float]]) -> int:
        """Revert virtual losses, expand evaluated leaves, back values up."""
        for node, value in wave:
            self._remove_virtual_loss(node)
            if value is None:
                node_priors, value = evaluated[id(node)]
                self._expand_with_priors(node, node_priors, add_noise=False)
            self._backup(node, value)
        return len(wave)

    @staticmethod
    def _add_virtual_loss(node: MCTSNode) -> None:
        parent = node.parent
        while parent is not None:
            parent.child_vl[node.slot] += 1
            node, parent = parent, parent.parent
        node.vl += 1

    @staticmethod
    def _remove_virtual_loss(node: MCTSNode) -> None:
        parent = node.parent
        while parent is not None:
            parent.child_vl[node.slot] -= 1
            node, parent = parent, parent.parent
        node.vl -= 1

    def _expand_with_priors(self, node: MCTSNode, priors: np.ndarray, *, add_noise: bool) -> None:
        """Give the node its child slots from an already-computed prior row.

        The priors are renormalized over the legal moves (the Go engine's
        legality index mask) and, at the root, mixed with Dirichlet noise.
        No child node or board is built here (see :class:`MCTSNode`).
        """
        legal = node.position.legal_indices()
        masked = np.zeros_like(priors)
        masked[legal] = np.maximum(priors[legal], 1e-8)
        masked /= masked.sum()
        child_prior = masked[legal]
        if add_noise and len(legal) > 1:
            noise = self.rng.dirichlet([self.dirichlet_alpha] * len(legal))
            child_prior = ((1 - self.exploration_fraction) * child_prior
                           + self.exploration_fraction * noise)
        node.expand(legal, child_prior)

    @staticmethod
    def _backup(node: MCTSNode, value: float) -> None:
        """Propagate the leaf value up the tree, flipping sign per ply."""
        sign = 1.0
        parent = node.parent
        while parent is not None:
            parent.child_N[node.slot] += 1
            parent.child_W[node.slot] += sign * value
            sign = -sign
            node, parent = parent, parent.parent
        node.N += 1
        node.W += sign * value

    # ------------------------------------------------------------- move choice
    @staticmethod
    def visit_counts(root: MCTSNode) -> np.ndarray:
        """Visits per move index (including pass) of the root's children."""
        size = root.position.size
        visits = np.zeros(size * size + 1, dtype=np.float64)
        if root.legal is not None:
            visits[root.legal] = root.child_N
        return visits

    def policy_from_visits(self, root: MCTSNode, *, temperature: float = 1.0) -> np.ndarray:
        """Normalised visit-count distribution over all moves (including pass)."""
        policy = self.visit_counts(root)
        if policy.sum() == 0:
            policy[-1] = 1.0
            return policy
        if temperature <= 1e-6:
            best = int(np.argmax(policy))
            one_hot = np.zeros_like(policy)
            one_hot[best] = 1.0
            return one_hot
        sharpened = policy ** (1.0 / temperature)
        total = sharpened.sum()
        if total == 0 or not np.isfinite(total):
            # Sharpening under/overflowed (very low temperature on a lopsided
            # visit distribution); fall back to the argmax one-hot.
            one_hot = np.zeros_like(policy)
            one_hot[int(np.argmax(policy))] = 1.0
            return one_hot
        return sharpened / total

    def choose_move(self, root: MCTSNode, *, temperature: float = 1.0) -> Move:
        policy = self.policy_from_visits(root, temperature=temperature)
        index = int(self.rng.choice(len(policy), p=policy))
        return root.position.index_to_move(index)


class SearchCursor:
    """Explicit-state resumable search: the picklable form of ``search_steps``.

    Holds the suspended search between inference boundaries as plain data
    (root tree, outstanding wave, pending request) instead of a live
    generator frame, so a mid-search driver can be snapshotted with
    ``pickle`` and resumed on a fresh worker stack.  :meth:`advance` consumes
    the fulfilled :attr:`request` and runs until the next boundary;
    RNG draws and tree decisions happen in exactly the order the generator
    produced them (``search_steps`` is now a thin wrapper over this class).
    """

    __slots__ = ("mcts", "root", "add_noise", "remaining", "wave", "pending",
                 "request", "_at_root", "table", "table_hits", "_pending_hits")

    def __init__(self, mcts: MCTS, position: GoPosition, *, add_noise: bool = True) -> None:
        self.mcts = mcts
        self.root = mcts.new_root(position)
        self.add_noise = add_noise
        self.remaining = mcts.num_simulations
        self.wave: Optional[List[Tuple[MCTSNode, Optional[float]]]] = None
        self.pending: Optional[List[MCTSNode]] = None
        #: per-search transposition table: Zobrist key -> raw (priors64, value)
        self.table: Optional[Dict[int, Tuple[np.ndarray, float]]] = (
            {} if mcts.transposition else None)
        self.table_hits = 0
        #: table entries for the current wave's hit leaves, merged into the
        #: evaluated results when the outstanding request is fulfilled
        self._pending_hits: Optional[Dict[int, Tuple[np.ndarray, float]]] = None
        #: The outstanding inference boundary; None once the search completed.
        self.request: Optional[LeafEvalRequest] = LeafEvalRequest(
            position.features()[None, :],
            [position.transposition_key()] if mcts.emit_state_keys else None)
        self._at_root = True

    @property
    def done(self) -> bool:
        return self.request is None

    def advance(self) -> Optional[LeafEvalRequest]:
        """Consume the fulfilled request; run to the next boundary (or done)."""
        mcts = self.mcts
        priors, values = self.request.results()
        if self._at_root:
            self._at_root = False
            root_priors = np.asarray(priors[0], dtype=np.float64)
            if self.table is not None:
                self.table[self.root.position.transposition_key()] = (
                    root_priors, float(values[0]))
            mcts._expand_with_priors(self.root, root_priors,
                                     add_noise=self.add_noise)
        else:
            # One dtype conversion per wave; per-leaf rows are views into
            # it, bit-identical to converting each row on its own.
            priors64 = np.asarray(priors, dtype=np.float64)
            evaluated = {id(node): (priors64[i], float(values[i]))
                         for i, node in enumerate(self.pending)}
            if self.table is not None:
                for i, node in enumerate(self.pending):
                    self.table[node.position.transposition_key()] = evaluated[id(node)]
                if self._pending_hits:
                    evaluated.update(self._pending_hits)
            self.remaining -= mcts._finish_wave(self.wave, evaluated)
        self.request = None
        self.wave = None
        self.pending = None
        self._pending_hits = None
        while self.remaining > 0:
            wave, pending = mcts._select_wave(self.root, min(mcts.leaf_batch, self.remaining))
            hits: Optional[Dict[int, Tuple[np.ndarray, float]]] = None
            if self.table is not None and pending:
                # Transposition pass: leaves whose position was already
                # evaluated this search (through any move order) are finished
                # in-wave from the stored raw outputs; only the misses join
                # the network request.
                hits = {}
                misses: List[MCTSNode] = []
                for node in pending:
                    entry = self.table.get(node.position.transposition_key())
                    if entry is not None:
                        hits[id(node)] = entry
                    else:
                        misses.append(node)
                if hits:
                    self.table_hits += len(hits)
                    mcts.transposition_hits += len(hits)
                pending = misses
            if pending:
                self.wave = wave
                self.pending = pending
                self._pending_hits = hits or None
                self.request = LeafEvalRequest(
                    np.stack([node.position.features() for node in pending]),
                    [node.position.transposition_key() for node in pending]
                    if mcts.emit_state_keys else None)
                return self.request
            self.remaining -= mcts._finish_wave(wave, hits or {})
        return None

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
