"""Tests of the benchmark's own logic. Run: python3 -m pytest -q perfbench"""

import json
import re
import signal
import statistics
import time
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from harness import (  # noqa: E402
    Span,
    SpeedProbe,
    Target,
    Tracer,
    UnitLog,
    expect,
    median,
    paired_overhead,
    quartiles,
    relative_spread,
    self_time,
)
from metrics import END_TO_END, OUTCOMES, PER_LAYER, Ctx, per_layer_values  # noqa: E402


def test_self_time_subtracts_union_of_children():
    parent = Span("p", 0.0, 10.0, -1)
    children = [
        Span("a", 2.0, 5.0, 0),
        Span("b", 1.0, 3.0, 0),  # overlaps a: the union counts once
        Span("c", 7.0, 8.0, 0),
        Span("d", 9.5, 12.0, 0),  # runs past the parent: clipped
    ]
    assert self_time(parent, children) == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert self_time(parent, []) == 10.0


def test_summary_nests_spans_and_excludes_checks():
    tracer = Tracer("none")
    tracer.spans = [
        Span("pass", 0.0, 10.0, -1),
        Span("outer", 1.0, 6.0, 0),
        Span("inner", 2.0, 4.0, 1, work=3.0),
        Span("inner", 4.5, 5.0, 1, work=1.0),
        Span("bench.check", 7.0, 9.0, 0),
        Span("inner", 7.5, 8.0, 4),
    ]
    stats = tracer.summary(exclude="bench.check")
    assert stats["outer"].calls == 1
    assert stats["outer"].total_s == pytest.approx(5.0)
    assert stats["outer"].self_s == pytest.approx(2.5)
    assert stats["inner"].calls == 2  # the one under bench.check is left out
    assert stats["inner"].work == 4.0
    assert stats["pass"].self_s == pytest.approx(3.0)
    assert "bench.check" not in stats


def test_median_and_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert median(values) == 5.5 == q2
    assert relative_spread(values) == pytest.approx((q3 - q1) / 5.5)
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert relative_spread([3.0, 3.0, 3.0]) == 0.0


def test_paired_overhead_is_the_median_of_adjacent_differences():
    # the machine slows down halfway: the paired differences stay 0.1
    untraced = [1.0, 1.0, 2.0, 2.0]
    traced = [1.1, 1.1, 2.1, 2.1]
    assert paired_overhead(traced, untraced) == pytest.approx(0.1)
    assert paired_overhead([1.0, 3.0], [1.5, 1.0, 9.0]) == pytest.approx(0.75)
    assert paired_overhead([], [1.0]) == 0.0


def test_speed_probe_samples_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe(interval=0.005, loops=2)
    with probe.sampling():
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            sum(range(100))
    assert len(probe.samples) >= 3
    assert 0.0 < probe.spent < 0.1
    assert probe.reference_s() == pytest.approx(sum(probe.samples) / len(probe.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    with pytest.raises(RuntimeError):
        with probe.sampling():
            raise RuntimeError("pass failed")
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # a block too short to be sampled still gets a reference time
    assert probe.samples == [] and probe.reference_s() > 0.0


def test_unit_log_counts_raises_and_broken_checks():
    log = UnitLog()

    def passes():
        broken = []
        expect(broken, True, "never recorded")
        return broken

    def breaks():
        broken = []
        expect(broken, False, "invariant")
        return broken

    def raises():
        raise FloatingPointError("boom")

    for unit in (passes, breaks, raises, passes):
        log.run(unit.__name__, unit)
    assert (log.attempted, log.failed) == (4, 2)
    assert log.error_rate == 0.5
    assert [label for label, _ in log.failures] == ["breaks", "raises"]
    assert log.failures[0][1] == ["invariant"]
    assert "FloatingPointError" in log.failures[1][1][0]
    assert UnitLog().error_rate == 0.0


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.core defines work() and Config.load(); fakepkg.user imports work by name."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")

    def work(n):
        return list(range(n))

    class Config:
        @classmethod
        def load(cls, x):
            return (cls, x)

    core.work, core.Config = work, Config
    user = types.ModuleType("fakepkg.user")
    user.work = work
    user.call = lambda n: user.work(n)
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return core, user


def test_wrappers_trace_every_lookup_and_are_restored(fake_package):
    core, user = fake_package
    work, load = core.work, core.Config.__dict__["load"]
    tracer = Tracer("fakepkg")
    targets = [
        Target("core.work", "fakepkg.core", "work", lambda a, k, r: len(r)),
        Target("core.load", "fakepkg.core", "Config.load"),
    ]
    with tracer.installed(targets):
        assert user.work is not work and core.work is not work
        assert user.call(3) == [0, 1, 2]
        assert core.work(2) == [0, 1]
        assert core.Config.load(5) == (core.Config, 5)
    assert core.work is work and user.work is work
    assert core.Config.__dict__["load"] is load
    stats = tracer.summary()
    assert stats["core.work"].calls == 2 and stats["core.work"].work == 5.0
    assert stats["core.load"].calls == 1

    with pytest.raises(RuntimeError):
        with tracer.installed(targets):
            raise RuntimeError("pass failed")
    assert core.work is work and user.work is work
    assert core.Config.__dict__["load"] is load


def test_missing_wrapped_name_is_recorded_not_fatal(fake_package):
    tracer = Tracer("fakepkg")
    with tracer.installed([Target("propagator.tdse_residual", "fakepkg.core", "gone")]):
        pass
    assert "propagator.tdse_residual" in tracer.missing
    ctx = Ctx(stats={}, passes=1, obs={}, build_s=[0.1], error_rate=0.0, overhead_s=0.0,
              wall_s=1.0, ref_s=0.05)
    values, absent = per_layer_values(ctx, tracer.missing)
    assert set(absent) == {"propagator.tdse_residual_s"}
    assert values["propagator.tdse_residual_s"] == 0.0
    assert set(values) == {m.name for m in PER_LAYER}


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_metric_definitions():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ]
    assert manifest["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
    from workloads import WORKLOADS

    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    entries = manifest["workloads"] + manifest["end_to_end"] + manifest["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in manifest["end_to_end"] + manifest["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])


def test_outcomes_read_existing_per_layer_metrics():
    from workloads import WORKLOADS

    per_layer = {m.name for m in PER_LAYER}
    for source, names in OUTCOMES.values():
        assert source in per_layer
        assert set(names) <= set(WORKLOADS)


@pytest.mark.parametrize("name", ["pulse2", "verify8", "gradcheck", "pulse8"])
def test_workload_inputs_follow_the_seed(name, tmp_path):
    from workloads import WORKLOADS

    def build(seed):
        return WORKLOADS[name](seed, tmp_path).param_hash

    assert build(7) == build(7)
    assert build(7) != build(8)
