"""Oracle tests: the incremental Go engine vs the preserved reference engine.

The optimized :class:`repro.sim.go.GoBoard` replaces flood-fill-per-query
with incrementally-maintained group/liberty maps and an incremental Zobrist
hash.  These tests pin it against the verbatim pre-optimization
implementation (``tests/oracles/go_reference.py``):

* hundreds of seeded random 9x9 games with *identical* legal-move sets,
  captures, ko verdicts, board arrays and final scores at every step;
* a hypothesis property test that replays dense random games and checks the
  incremental liberty bookkeeping against a from-scratch flood fill after
  every move — capture cascades included;
* the legality index mask (``legal_indices``) and ``legal_moves()`` equal
  the reference legal set at every ply, and on hand-built ko, suicide,
  capture and own-eye positions;
* Zobrist consistency (incremental == recomputed, repeats collide);
* determinism of the lazily-materialized MCTS child positions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.go import BLACK, EMPTY, WHITE, GoBoard, GoPosition
from tests.oracles.go_reference import ReferenceGoBoard, ReferenceGoPosition

#: The acceptance bar: at least this many full 9x9 oracle games.
ORACLE_GAMES = 200
ORACLE_BOARD_SIZE = 9
#: Chance of passing per move: high enough that games end by double-pass in
#: a few dozen moves (keeping 200 games fast), low enough that boards get
#: crowded and captures/ko fights actually happen.
ORACLE_PASS_PROBABILITY = 0.15


def _move_index(size: int, move) -> int:
    return size * size if move is None else move[0] * size + move[1]


def _assert_index_forms_match(board_new: GoBoard, color: int, legal_ref) -> None:
    """The legality mask and ``legal_moves()`` as indices equal the reference set."""
    size = board_new.size
    reference = [_move_index(size, move) for move in legal_ref]
    assert board_new.legal_indices(color).tolist() == reference
    assert [_move_index(size, move) for move in board_new.legal_moves(color)] == reference


def _random_playout(board_new: GoBoard, board_ref: ReferenceGoBoard,
                    rng: np.random.Generator):
    """Play one full random game on both boards, asserting parity per move."""
    to_play = BLACK
    passes = 0
    moves = 0
    max_moves = 2 * board_new.size * board_new.size
    while passes < 2 and moves < max_moves:
        legal_new = board_new.legal_moves(to_play)
        legal_ref = board_ref.legal_moves(to_play)
        assert legal_new == legal_ref, \
            f"legal-move sets diverged at move {moves}: {set(legal_new) ^ set(legal_ref)}"
        _assert_index_forms_match(board_new, to_play, legal_ref)
        assert board_new.ko_point == board_ref.ko_point, \
            f"ko verdicts diverged at move {moves}"

        board_moves = legal_new[:-1]  # strip the trailing pass
        if not board_moves or rng.random() < ORACLE_PASS_PROBABILITY:
            move = None
        else:
            move = board_moves[rng.integers(0, len(board_moves))]
        captured_new = board_new.play(move, to_play)
        captured_ref = board_ref.play(move, to_play)
        assert sorted(captured_new) == sorted(captured_ref), \
            f"captures diverged at move {moves}"
        assert np.array_equal(board_new.board, board_ref.board)
        passes = passes + 1 if move is None else 0
        moves += 1
        to_play = -to_play
    assert board_new.area_score() == board_ref.area_score()
    assert board_new.zobrist == board_new.zobrist_from_scratch()
    # Group/liberty parity over the final position, stone by stone.
    for row in range(board_new.size):
        for col in range(board_new.size):
            if board_new.board[row, col] != EMPTY:
                assert board_new.group_and_liberties(row, col) == \
                    board_ref.group_and_liberties(row, col)
    return moves


def test_random_game_oracle_200_full_9x9_games():
    """>=200 seeded random 9x9 games: the two engines never disagree."""
    rng = np.random.default_rng(20260728)
    total_moves = 0
    for _ in range(ORACLE_GAMES):
        total_moves += _random_playout(
            GoBoard(ORACLE_BOARD_SIZE), ReferenceGoBoard(ORACLE_BOARD_SIZE), rng)
    assert total_moves > ORACLE_GAMES * 5  # games actually got played


def test_multi_group_capture_cascade_matches_reference():
    """One move capturing several separate groups at once."""
    def setup(board_cls):
        board = board_cls(5)
        for point in [(0, 2), (1, 1), (2, 0)]:
            board.play(point, BLACK)
        for point in [(0, 1), (1, 0)]:
            board.play(point, WHITE)
        return board

    new, ref = setup(GoBoard), setup(ReferenceGoBoard)
    captured_new = new.play((0, 0), BLACK)   # captures both white stones
    captured_ref = ref.play((0, 0), BLACK)
    assert sorted(captured_new) == sorted(captured_ref) == [(0, 1), (1, 0)]
    assert new.ko_point is None  # two captures -> no simple ko
    assert np.array_equal(new.board, ref.board)
    # The capturing group gained the captured points back as liberties.
    _, liberties = new.group_and_liberties(0, 0)
    assert {(0, 1), (1, 0)} <= liberties
    assert new.zobrist == new.zobrist_from_scratch()


def _flood_group(board: np.ndarray, row: int, col: int):
    """From-scratch flood fill: the oracle for the incremental maps."""
    size = board.shape[0]
    color = board[row, col]
    group, liberties = set(), set()
    frontier = [(row, col)]
    while frontier:
        r, c = frontier.pop()
        if (r, c) in group:
            continue
        group.add((r, c))
        for nr, nc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if not (0 <= nr < size and 0 <= nc < size):
                continue
            if board[nr, nc] == EMPTY:
                liberties.add((nr, nc))
            elif board[nr, nc] == color and (nr, nc) not in group:
                frontier.append((nr, nc))
    return group, liberties


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_incremental_liberty_bookkeeping_survives_capture_cascades(seed):
    """Property: after every move of a dense random game, every group's
    incremental (stones, liberties) record equals a from-scratch flood fill.

    The game is played nearly pass-free on a small board, so stones crowd,
    groups merge, and capture cascades (multi-stone and multi-group
    removals) happen constantly — exactly the paths that mutate the
    incremental maps.
    """
    rng = np.random.default_rng(seed)
    board = GoBoard(5)
    to_play = BLACK
    captures_seen = 0
    for _ in range(40):
        moves = board.legal_moves(to_play, include_pass=False)
        if not moves:
            break
        captures_seen += len(board.play(moves[rng.integers(0, len(moves))], to_play))
        # Every stone's group record must match the flood-fill oracle.
        seen = set()
        for row in range(5):
            for col in range(5):
                if board.board[row, col] == EMPTY or (row, col) in seen:
                    continue
                group, liberties = board.group_and_liberties(row, col)
                assert (group, liberties) == _flood_group(board.board, row, col)
                assert all(board.board[p] == board.board[row, col] for p in group)
                assert liberties, "no group on the board may have zero liberties"
                seen |= group
        assert board.zobrist == board.zobrist_from_scratch()
        to_play = -to_play


# ---------------------------------------------------------------- Zobrist
def test_zobrist_incremental_matches_scratch_and_detects_repeats():
    board = GoBoard(5)
    empty_hash = board.zobrist
    board.play((1, 1), BLACK)
    after_stone = board.zobrist
    assert after_stone != empty_hash
    assert after_stone == board.zobrist_from_scratch()

    # Capture removes the stone's key again: surround and take.
    for point in [(0, 1), (2, 1), (1, 0)]:
        board.play(point, WHITE)
    board.play((1, 2), WHITE)  # captures (1, 1)
    assert board.zobrist == board.zobrist_from_scratch()
    assert board.board[1, 1] == EMPTY

    # Re-playing the identical stone layout reproduces the identical hash.
    replay = GoBoard(5)
    for point in [(0, 1), (2, 1), (1, 0), (1, 2)]:
        replay.play(point, WHITE)
    assert replay.zobrist == board.zobrist

    # position_key distinguishes side-to-move and ko state on equal stones.
    assert board.position_key(BLACK) != board.position_key(WHITE)
    assert board.position_key(BLACK, ko_point=(1, 1)) != board.position_key(BLACK)


def test_copy_isolates_incremental_state():
    board = GoBoard(5)
    board.play((2, 2), BLACK)
    fork = board.copy()
    fork.play((2, 3), WHITE)
    fork.play((1, 2), WHITE)
    assert board.board[2, 3] == EMPTY and board.board[1, 2] == EMPTY
    assert board.group_and_liberties(2, 2)[1] == _flood_group(board.board, 2, 2)[1]
    assert fork.group_and_liberties(2, 2)[1] == _flood_group(fork.board, 2, 2)[1]
    assert board.zobrist == board.zobrist_from_scratch()
    assert fork.zobrist == fork.zobrist_from_scratch()


# ------------------------------------------------ hand-built legality positions
def _built(size, stones):
    """Both engines after playing ``stones`` ((move, color) pairs) in order."""
    board_new, board_ref = GoBoard(size), ReferenceGoBoard(size)
    for move, color in stones:
        assert sorted(board_new.play(move, color)) == sorted(board_ref.play(move, color))
    for color in (BLACK, WHITE):
        _assert_index_forms_match(board_new, color, board_ref.legal_moves(color))
    return board_new, board_ref


def test_legality_mask_on_hand_built_positions():
    """Shapes random games rarely reach: ko, suicide, capture-to-live, own eye."""
    B, W = BLACK, WHITE
    # Ko: Black at (1, 2) takes the white stone at (1, 1); White may not
    # retake at once.
    board, _ = _built(5, [((0, 1), B), ((1, 0), B), ((2, 1), B), ((0, 2), W),
                          ((1, 3), W), ((2, 2), W), ((1, 1), W), ((1, 2), B)])
    assert board.ko_point == (1, 1)
    assert 1 * 5 + 1 not in board.legal_indices(W).tolist()

    # Suicide and a filled-in eye: (2, 2) is surrounded by Black stones that
    # keep other liberties.  White playing there is suicide; Black filling
    # its own eye is legal.
    board, _ = _built(5, [((1, 2), B), ((3, 2), B), ((2, 1), B), ((2, 3), B)])
    assert 2 * 5 + 2 not in board.legal_indices(W).tolist()
    assert 2 * 5 + 2 in board.legal_indices(B).tolist()

    # A capture saves a stone with no liberties: every neighbor of (0, 1) is
    # White, but playing there takes the white stone at (0, 0), whose only
    # liberty it was.
    board, reference = _built(5, [((0, 0), W), ((1, 0), B), ((1, 1), W), ((0, 2), W)])
    assert 0 * 5 + 1 in board.legal_indices(B).tolist()
    assert board.play((0, 1), B) == reference.play((0, 1), B) == [(0, 0)]


# ----------------------------------------------------- position-level caching
def test_position_caches_are_stable_and_correct():
    position = GoPosition.initial(5)
    reference = ReferenceGoPosition.initial(5)
    assert position.legal_moves() == reference.legal_moves()
    assert position.legal_moves() is position.legal_moves()  # cached
    assert position.legal_indices() is position.legal_indices()
    assert not position.legal_indices().flags.writeable
    assert np.array_equal(position.features(), reference.features())
    assert position.features() is position.features()        # cached
    nxt = position.play((2, 2))
    ref_next = reference.play((2, 2))
    assert nxt.legal_moves() == ref_next.legal_moves()
    assert np.array_equal(nxt.features(), ref_next.features())
    assert nxt.transposition_key() != position.transposition_key()
    # index arithmetic parity
    for index in range(26):
        assert position.index_to_move(index) == reference.index_to_move(index)
    for move in position.legal_moves():
        assert position.move_to_index(move) == reference.move_to_index(move)


# ------------------------------------------------------- lazy MCTS positions
def _uniform_evaluator(num_moves):
    def evaluate(features):
        batch = features.shape[0]
        priors = np.full((batch, num_moves), 1.0 / num_moves, dtype=np.float32)
        return priors, np.zeros(batch, dtype=np.float32)
    return evaluate


def test_lazy_child_positions_match_eager_search():
    """Lazy child nodes and boards change no search decision and skip most boards."""
    from repro.minigo.mcts import MCTS
    from tests.oracles.scalar_mcts import ScalarMCTS

    def run_search(mcts_class, **options):
        mcts = mcts_class(_uniform_evaluator(26), num_simulations=24, leaf_batch=4,
                          rng=np.random.default_rng(11), **options)
        return mcts, mcts.search(GoPosition.initial(5))

    lazy_mcts, lazy_root = run_search(MCTS)
    eager_mcts, eager_root = run_search(ScalarMCTS, eager=True)
    assert np.array_equal(lazy_mcts.visit_counts(lazy_root),
                          eager_mcts.visit_counts(eager_root))

    # Most children were never visited, so they never built a node or a board...
    assert len(lazy_root.children) < len(lazy_root.legal)
    assert all(child.has_position for child in eager_root.children.values())
    # ...and building one on demand reproduces the eager board exactly.
    slot, index = next((slot, index) for slot, index in enumerate(lazy_root.legal.tolist())
                       if index not in lazy_root.children)
    lazy_child = lazy_root.child(slot)
    assert not lazy_child.has_position
    assert np.array_equal(lazy_child.position.board.board,
                          eager_root.children[index].position.board.board)
    assert lazy_child.position.to_play == eager_root.children[index].position.to_play
