"""Statistics, unit accounting, span tracing and provenance for the benchmark.

Nothing here knows about a particular workload. The tracer measures
layers from outside the program: it swaps a timing wrapper in for a
public function at every place a module looks that function up, keeps
the spans in memory, and puts the originals back afterwards.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import math
import os
import platform
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as statistics.quantiles gives them."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2)


class SpeedProbe:
    """Samples the machine's speed while a pass runs, to express the pass in reference units.

    Every ``interval`` seconds a SIGALRM handler, in this same thread, runs a
    fixed reference kernel: pure-Python arithmetic and numpy calls on a 4x4
    matrix, the kind of small-matrix work qoct's passes are made of. Its
    inputs never change. Because the samples are spread evenly over the
    pass, the pass time (minus the time spent in the kernel) divided by the
    kernel's mean time does not depend on how fast the shared machine was
    during the pass; on a 2-vCPU virtual machine that speed swings by up to
    1.7x within seconds.
    """

    def __init__(self, interval: float = 0.025, loops: int = 30):
        import numpy as np

        a = np.random.default_rng(0).standard_normal((4, 4))
        self._m, self._v = a + a.T, np.arange(4.0)
        self._eigh = np.linalg.eigh
        self.interval = interval
        self.loops = loops
        self.samples: list[float] = []
        self.spent = 0.0

    def kernel(self) -> float:
        """Run the reference kernel once; return how long it took."""
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(self.loops):
            e, u = self._eigh(self._m)
            acc += float((u @ (e * (u.T @ self._v)))[0])
            for j in range(20):
                acc += j * 0.5
        elapsed = time.perf_counter() - t0
        if not math.isfinite(acc):
            raise FloatingPointError("reference kernel gave a non-finite result")
        return elapsed

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self.kernel())
        self.spent += time.perf_counter() - t0

    @contextmanager
    def sampling(self):
        """Sample the kernel while the block runs; ``samples`` and ``spent`` cover this block only."""
        self.samples, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def reference_s(self) -> float:
        """Mean kernel time over the last block; one extra run if the block was too short to sample."""
        if not self.samples:
            self.samples.append(self.kernel())
        return sum(self.samples) / len(self.samples)


def paired_overhead(traced: list[float], untraced: list[float]) -> float:
    """Median of traced[i] - untraced[i]: each traced pass against the untraced pass before it.

    Pairing adjacent passes keeps a slow or fast phase of the machine on
    both sides of a difference. A negative result means the overhead is
    below the noise. 0 when nothing was traced.
    """
    diffs = [t - u for t, u in zip(traced, untraced)]
    return median(diffs) if diffs else 0.0


# ---------------------------------------------------------------------------
# Unit accounting


@dataclass
class UnitLog:
    """Attempted and failed units; a unit fails if it raises or breaks a check."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def run(self, label: str, unit: Callable[[], list[str]]) -> None:
        """Run one unit; it returns the checks it broke (empty when it passed)."""
        self.attempted += 1
        try:
            broken = unit()
        except Exception:  # noqa: BLE001 - a raising unit is counted, not fatal
            broken = [traceback.format_exc(limit=4)]
        if broken:
            self.failed += 1
            self.failures.append((label, broken))
            print(f"unit failed: {label}: {'; '.join(broken)}", file=sys.stderr)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def expect(broken: list[str], ok: bool, what: str) -> None:
    """Record ``what`` as a broken check unless ``ok``."""
    if not ok:
        broken.append(what)


# ---------------------------------------------------------------------------
# Tracing


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    work: float = 0.0


@dataclass(frozen=True)
class Target:
    """A public callable to wrap: ``owner`` is a module path, ``attr`` may be Class.method.

    ``work`` maps (args, kwargs, result) to the amount of work one call did,
    for example the number of matrices an ``eigh`` call decomposed.
    """

    span: str
    owner: str
    attr: str
    work: Optional[Callable] = None


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0


class Tracer:
    """In-memory spans (name, start, end, parent) recorded by swapped-in wrappers."""

    def __init__(self, modules_prefix: str):
        self.modules_prefix = modules_prefix
        self.spans: list[Span] = []
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, such as one pass."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if target.work is not None:
                self.spans[idx].work = float(target.work(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self, targets: list[Target]):
        """Wrap every target while the block runs; always restore the originals."""
        try:
            for target in targets:
                self._install(target)
            yield self
        finally:
            self.restore()

    def _install(self, target: Target) -> None:
        owner_path, _, name = target.attr.rpartition(".")
        try:
            owner = importlib.import_module(target.owner)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, name)
        except (ImportError, AttributeError) as exc:
            self.missing[target.span] = f"{target.owner}.{target.attr} not found ({exc})"
            return
        if isinstance(original, classmethod):
            self._patch(owner, name, original, classmethod(self._wrap(original.__func__, target)))
            return
        wrapper = self._wrap(original, target)
        self._patch(owner, name, original, wrapper)
        # modules that imported the function by name look it up in their own globals
        for mod_name, module in list(sys.modules.items()):
            if module is owner or not (
                mod_name == self.modules_prefix or mod_name.startswith(self.modules_prefix + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, original, wrapper)

    def _patch(self, owner: object, name: str, original: object, replacement: object) -> None:
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original))

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def summary(self, exclude: str = "") -> dict[str, LayerStats]:
        """Calls, total time, self time and work per span name.

        Spans named ``exclude``, and every span inside one, are left out.
        """
        children: dict[int, list[Span]] = {}
        skipped: list[bool] = []
        for span in self.spans:
            children.setdefault(span.parent, []).append(span)
            # a parent is always recorded before its children
            skipped.append(span.name == exclude or (span.parent >= 0 and skipped[span.parent]))
        stats: dict[str, LayerStats] = {}
        for idx, span in enumerate(self.spans):
            if skipped[idx]:
                continue
            s = stats.setdefault(span.name, LayerStats())
            s.calls += 1
            s.total_s += span.end - span.start
            s.self_s += self_time(span, children.get(idx, []))
            s.work += span.work
        return stats

    def write(self, path: Path) -> None:
        """Write the spans out, one JSON array [name, start, end, parent, work] per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0].start if self.spans else 0.0
        with path.open("w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(
                    json.dumps([s.name, s.start - t0, s.end - t0, s.parent, s.work]) + "\n"
                )


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that the union of its children covers."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, cursor)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (span.end - span.start) - covered


# ---------------------------------------------------------------------------
# Provenance


def provenance(root: Path, param_hashes: dict[str, str]) -> dict:
    import numpy as np

    import qoct

    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: build.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "qoct": qoct.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(root),
        "params_sha256": param_hashes,
    }


def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from .git without starting git; None outside a repo."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def digest(*parts) -> str:
    """sha256 over the bytes of arrays or strings that make up a workload's inputs."""
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode() if isinstance(p, str) else p.tobytes())
    return h.hexdigest()
