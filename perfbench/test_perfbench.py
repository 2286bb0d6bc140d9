"""Tests for the benchmark's own code: seeding, wrappers, clean-up."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from perfbench.layers import ENTRY_POINTS, LAYERS, boundary_counts, per_layer_metric_names
from perfbench.tracer import OTHER, EntryPoint, Tracer, _repro_modules
from perfbench.workloads import Workload

ROOT = Path(__file__).resolve().parent.parent
TINY = {
    "profile-td3": dict(steps=8),
    "selfplay": dict(num_workers=2, board_size=5, num_simulations=4, leaf_batch=2,
                     max_moves=4, hidden=(8,)),
    "serve-shed": dict(horizon_us=1_500.0, num_clients=16),
    "serve-cached": dict(horizon_us=1_500.0, num_clients=16),
}


def _run(workload: Workload):
    operation = workload.new_operation()
    try:
        operation.main()
        operation.report()
        return operation.digest(), operation.units
    finally:
        operation.close()


@pytest.mark.parametrize("name", sorted(TINY))
def test_seed_changes_the_inputs_and_nothing_else(name, tmp_path):
    first = Workload(name, 0, tmp_path, **TINY[name])
    again = Workload(name, 0, tmp_path, **TINY[name])
    other = Workload(name, 1, tmp_path, **TINY[name])
    digest, units = _run(first)
    assert _run(again) == (digest, units)
    other_digest, other_units = _run(other)
    assert other_digest != digest
    if name == "profile-td3" or name == "selfplay":
        assert other_units == units  # same training steps / moves played
    if name.startswith("serve-"):
        assert other._serve.config == first._serve.config


class Toy:
    def outer(self, depth):
        return self.inner(depth) + sum(self.count(3))

    def inner(self, depth):
        return depth if depth == 0 else self.inner(depth - 1)

    def count(self, n):
        yield from range(n)

    @contextmanager
    def scope(self):
        yield "inside"


TOY_ENTRIES = (
    EntryPoint("toy.outer", f"{__name__}:Toy.outer"),
    EntryPoint("toy.inner", f"{__name__}:Toy.inner"),
    EntryPoint("toy.gen", f"{__name__}:Toy.count", kind="gen"),
    EntryPoint("toy.cm", f"{__name__}:Toy.scope", kind="cm"),
)


def test_layer_self_times_add_up_to_the_root_span():
    tracer = Tracer()
    tracer.install(TOY_ENTRIES)
    try:
        toy = Toy()
        toy.outer(2)  # outside any operation: not recorded
        assert tracer.spans == []
        tracer.begin_run(1)

        def phase():
            with toy.scope() as value:
                assert value == "inside"
            return toy.outer(3)

        assert tracer.root(phase) == 3
    finally:
        tracer.uninstall()
    profile = tracer.profile(1)
    assert sum(profile.self_s.values()) == pytest.approx(profile.wall_s, rel=1e-9)
    assert set(profile.self_s) == {"toy.outer", "toy.inner", "toy.gen", "toy.cm", OTHER}
    # inner recurses 4 deep; the generator is advanced 3 times plus its end;
    # the context manager counts its entry, not its exit.
    assert profile.layer_calls == {"toy.outer": 1, "toy.inner": 4, "toy.gen": 4, "toy.cm": 1}


def _bindings():
    """Every module attribute and class attribute of the loaded program."""
    found = {}
    for module in _repro_modules():
        for name, value in vars(module).items():
            found[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, raw in vars(value).items():
                    found[(module.__name__, f"{name}.{attr}")] = raw
    return found


def test_wrappers_restore_the_originals(tmp_path):
    import repro.serving.protocol as protocol
    import repro.serving.simulation as simulation

    Workload("serve-shed", 0, tmp_path, **TINY["serve-shed"])  # loads every layer
    before = _bindings()
    tracer = Tracer()
    tracer.install(ENTRY_POINTS)
    try:
        # names bound with `from x import f` are patched too
        assert simulation.decode_message is not before[("repro.serving.simulation", "decode_message")]
        assert simulation.decode_message is protocol.decode_message
    finally:
        tracer.uninstall()
    assert tracer.leftovers() == []
    after = _bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []


def test_traced_operation_matches_program_counters(tmp_path):
    workload = Workload("serve-cached", 0, tmp_path, **TINY["serve-cached"])
    operation = workload.new_operation()
    tracer = Tracer()
    tracer.install(ENTRY_POINTS)
    try:
        tracer.begin_run(1)
        tracer.root(lambda: (operation.main(), operation.report()))
    finally:
        tracer.uninstall()
        operation.close()
    profile = tracer.profile(1)
    assert all(profile.layer_calls.get(layer) for layer in operation.layers)
    assert operation.problems() == []
    counts = boundary_counts(profile.name_calls, tracer.counters)
    assert operation.cross_check(profile.name_calls, counts) == []


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared == per_layer_metric_names()
    assert OTHER in LAYERS
    from perfbench.run import END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)


def test_temp_stores_removed(tmp_path):
    tmp_root = tmp_path / "tmp"
    _run(Workload("profile-td3", 0, tmp_root, **TINY["profile-td3"]))
    assert list(tmp_root.iterdir()) == []


def _tree(root: Path):
    skip = {".git", ".perfbench", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}
    return {path: path.stat().st_mtime_ns for path in root.rglob("*")
            if path.is_file() and not skip.intersection(path.relative_to(root).parts)}


def test_run_writes_only_its_own_state_directory():
    before = _tree(ROOT)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "serve-shed",
                          "--seed", "0", "--seconds", "0.1", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert _tree(ROOT) == before
    tmp = ROOT / ".perfbench" / "tmp"
    assert not tmp.exists() or list(tmp.iterdir()) == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "selfplay",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
