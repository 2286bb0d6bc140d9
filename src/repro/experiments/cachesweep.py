"""Cache sweep: engine work saved by the evaluation cache, on/off across a grid.

ISSUE 9's evaluation cache spans three layers — the per-search MCTS
transposition table, the service-side weight-versioned LRU with in-batch
dedupe, and admission-time hits in the serving tier.  This sweep measures
the middle layer where the engine calls actually disappear: for every
(workers x replicas x evaluation games) cell it runs one full Minigo
training round twice from identical weights — cache off (the bit-for-bit
baseline) and cache on — and reports the engine work each phase avoided:

* **self-play** — the pinned wall-clock pool shape: hot openings repeat
  across workers, so the save shows up as fewer *engine calls* (rows shaved
  off a wave rarely delete the wave, but whole cached waves delete calls);
* **evaluation** — all games now run concurrently under one scheduler
  (games alternate colors with period 2, and noise-free argmax play makes
  game N replay game N-2 exactly), so the save shows up as *engine rows*:
  with 4 games, roughly half the round's rows are answered from cache.

The candidate's win count must be identical on/off in every cell — the
cache returns bitwise-equal rows, so it cannot change a game — and the
sweep marks each cell accordingly (``benchmarks/test_bench_cache.py``
asserts it, plus the reduction floors).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Sequence

from ..minigo.training import MinigoConfig, MinigoTraining
from .sweep import Sweep, SweepResult

DEFAULT_CACHE_WORKERS = (4, 8)
DEFAULT_CACHE_REPLICAS = (1, 2)
DEFAULT_CACHE_EVAL_GAMES = (2, 4)

#: Round shape shared by every cell (and by the quick CI smoke).
DEFAULT_CACHE_KWARGS = dict(
    board_size=5,
    num_simulations=8,
    games_per_worker=1,
    max_moves=8,
    hidden=(16,),
    leaf_batch=4,
    sgd_steps=2,
    cache_capacity=4096,
)


def _row(result, p):
    wins = (f"{p.wins_off}={p.wins_on}" +
            (" ok" if p.wins_match else " !!"))
    yield (f"{p.num_workers:>4d} {p.num_replicas:>4d} {p.evaluation_games:>5d} "
           f"{p.selfplay_calls_off:>7d} ->{p.selfplay_calls_on:>6d} "
           f"{p.selfplay_call_reduction:>5.2f}x "
           f"{p.eval_rows_off:>6d} ->{p.eval_rows_on:>5d} "
           f"{p.eval_row_reduction:>5.2f}x "
           f"{p.eval_cache_hits:>5d} {p.eval_dedupe_rows:>6d} {wins:>7}")


CACHE_SWEEP = Sweep(
    "cache sweep", key=("num_workers", "num_replicas", "evaluation_games"),
    defaults=dict(DEFAULT_CACHE_KWARGS, replica_counts=DEFAULT_CACHE_REPLICAS,
                  evaluation_games=DEFAULT_CACHE_EVAL_GAMES, transposition=True, seed=0),
    title=lambda result: [
        "Cache sweep: evaluation cache off vs on, identical seeds and weights",
        f"board={result.board_size}, sims={result.num_simulations}, "
        f"leaf_batch={result.leaf_batch}, max_moves={result.max_moves}, "
        f"capacity={result.cache_capacity}, "
        f"transposition={'on' if result.transposition else 'off'}"],
    header=(f"{'work':>4} {'repl':>4} {'games':>5} "
            f"{'selfplay calls':>16} {'red':>6} "
            f"{'eval rows':>14} {'red':>6} "
            f"{'hits':>5} {'dedupe':>6} {'wins':>7}"),
    row=_row,
    notes=lambda result: [
        "note: self-play saves whole engine calls (cached waves never "
        "depart); the concurrent evaluation round saves engine rows — "
        "with games alternating colors at period 2, game N's argmax play "
        "replays game N-2 and its rows are answered from cache"])


def run_cache_sweep(worker_counts: Sequence[int] = DEFAULT_CACHE_WORKERS,
                    **overrides) -> SweepResult:
    """Run every cell of the grid with the cache off and on.

    ``overrides`` replace entries of ``CACHE_SWEEP.defaults``.  Both runs of
    a cell start from bit-identical initial weights (a fresh
    :class:`~repro.minigo.training.MinigoTraining` each, same seed), so any
    divergence in win counts would be a real correctness bug, not drift.
    """
    options = CACHE_SWEEP.options(overrides)
    if not worker_counts or any(w <= 0 for w in worker_counts):
        raise ValueError("worker_counts must be positive")
    if not options.replica_counts or any(r <= 0 for r in options.replica_counts):
        raise ValueError("replica_counts must be positive")
    if not options.evaluation_games or any(g <= 0 for g in options.evaluation_games):
        raise ValueError("evaluation_games must be positive")
    if options.cache_capacity <= 0:
        raise ValueError("cache_capacity must be positive")
    shape = {name: getattr(options, name) for name in DEFAULT_CACHE_KWARGS
             if name != "cache_capacity"}

    def run_round(num_workers: int, num_replicas: int, games: int, *, cache: bool):
        config = MinigoConfig(
            num_workers=num_workers, evaluation_games=games, num_replicas=num_replicas,
            profile=False, seed=options.seed, batched_inference=True, scheduler="event",
            transposition=options.transposition if cache else False,
            cache_capacity=options.cache_capacity if cache else None, **shape)
        return MinigoTraining(config).run_round()

    def cell(num_workers: int, num_replicas: int, games: int) -> SimpleNamespace:
        off = run_round(num_workers, num_replicas, games, cache=False)
        on = run_round(num_workers, num_replicas, games, cache=True)
        sp_off, sp_on = off.selfplay_inference_stats, on.selfplay_inference_stats
        ev_off, ev_on = off.evaluation_inference_stats, on.evaluation_inference_stats
        return SimpleNamespace(
            num_workers=num_workers, num_replicas=num_replicas, evaluation_games=games,
            selfplay_calls_off=sp_off.engine_calls, selfplay_calls_on=sp_on.engine_calls,
            selfplay_rows_off=sp_off.rows, selfplay_rows_on=sp_on.rows,
            selfplay_cache_hits=sp_on.cache_hits, selfplay_dedupe_rows=sp_on.dedupe_rows,
            selfplay_call_reduction=sp_off.engine_calls / max(sp_on.engine_calls, 1),
            eval_calls_off=ev_off.engine_calls, eval_calls_on=ev_on.engine_calls,
            eval_rows_off=ev_off.rows, eval_rows_on=ev_on.rows,
            eval_cache_hits=ev_on.cache_hits, eval_dedupe_rows=ev_on.dedupe_rows,
            eval_row_reduction=ev_off.rows / max(ev_on.rows, 1),
            # Cached rows are bitwise-equal, so wins must match.
            wins_off=off.candidate_wins, wins_on=on.candidate_wins,
            wins_match=off.candidate_wins == on.candidate_wins)

    return CACHE_SWEEP.result(
        (cell(num_workers, num_replicas, games) for num_workers in worker_counts
         for num_replicas in options.replica_counts for games in options.evaluation_games),
        **vars(options))
