"""A fixed reference workload that measures how fast the host runs Python now.

On a shared host the speed of one core changes by a third within minutes,
and CPU time moves with wall time (the VM reports almost no stolen time),
so a run's absolute timings follow the host, not the program.  The benchmark therefore times short chunks of this reference
workload between the program's sentences, in the same interpreter, and
reports each timing scaled to the host speed at which one chunk takes
``NOMINAL_MS``: ``raw * NOMINAL_MS / median(chunk times)``.  A program
change moves only the numerator; a host slowdown moves both.

Half of a chunk copies a shared object graph with a memo, the way the
parser copies feature structures (attribute and dict access, small-object
allocation); the other half is a tight arithmetic loop.  On its own, the
copy slows by more than the parser in a slow spell of the host and the
loop by less; timed together they slowed in proportion to corpus parsing
(a log-log slope of 1.01 against 0.80 and 1.29, over 63 blocks of about
2 s on a 2-core x86 VM).

Nothing here imports ``vorfeld``: the reference must not change when the
program does.  Changing this file changes every reported timing's scale,
so compare figures only across runs of one version of it.
"""
from __future__ import annotations

import signal
import time

NOMINAL_MS = 5.5  # one chunk's time at the reference speed (about its median on a 2-core x86 VM)
CHUNKS_PER_SAMPLE = 5  # chunks timed each time the host speed is sampled
SAMPLE_INTERVAL_S = 0.2  # one chunk this often inside a timed region; see During
GRAPH_NODES = 1200
ARITHMETIC_STEPS = 38000
ARITHMETIC_RESULT = 23096


class _Node:
    __slots__ = ("kind", "arcs")

    def __init__(self, kind: int):
        self.kind = kind
        self.arcs: dict[str, _Node] = {}


def _graph() -> _Node:
    nodes = [_Node(i % 11) for i in range(GRAPH_NODES)]
    for i, node in enumerate(nodes):
        node.arcs["HEAD"] = nodes[(i * 31 + 7) % GRAPH_NODES]
        node.arcs["COMPS"] = nodes[(i * 17 + 3) % GRAPH_NODES]
        if i % 3 == 0:
            node.arcs["SLASH"] = nodes[(i * 7 + 1) % GRAPH_NODES]
    return nodes[0]


_ROOT = _graph()


def _copy(root: _Node) -> int:
    memo: dict[int, _Node] = {}
    counts: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in memo:
            continue
        memo[id(node)] = _Node(node.kind)
        counts[node.kind] = counts.get(node.kind, 0) + len(node.arcs)
        stack.extend(node.arcs.values())
    for old_id, new in memo.items():
        new.kind = counts[new.kind] + old_id % 2
    return len(memo)


def _arithmetic(n: int) -> int:
    x = 0
    for i in range(n):
        x = (x * 31 + i) & 0xFFFF
    return x


def chunk() -> None:
    """One unit of reference work; its results are checked so it cannot be skipped."""
    for _ in range(2):
        if _copy(_ROOT) != GRAPH_NODES:
            raise AssertionError("reference graph copy lost nodes")
    if _arithmetic(ARITHMETIC_STEPS) != ARITHMETIC_RESULT:
        raise AssertionError("reference arithmetic changed")


def sample(into: dict) -> None:
    """Time ``CHUNKS_PER_SAMPLE`` chunks; append their wall and CPU ms to ``into`` as one list each."""
    walls, cpus = [], []
    into.setdefault("wall_ms", []).append(walls)
    into.setdefault("cpu_ms", []).append(cpus)
    for _ in range(CHUNKS_PER_SAMPLE):
        cpu = time.process_time()
        start = time.perf_counter()
        chunk()
        walls.append((time.perf_counter() - start) * 1000.0)
        cpus.append((time.process_time() - cpu) * 1000.0)


class During:
    """Time one chunk every ``SAMPLE_INTERVAL_S`` while a timed region runs.

    The host's speed flips between levels within seconds, so samples taken
    only around a sentence of several seconds miss what it ran at.  A
    ``SIGALRM`` handler runs the chunk between two bytecodes of the region
    (about 3% of its time) and appends one list of chunk times to ``into``;
    the region subtracts ``spent_wall_ms`` and ``spent_cpu_ms`` from its own
    timings.  With ``into`` None nothing is sampled and nothing is spent.
    """

    def __init__(self, into: dict | None):
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.armed = into is not None
        if self.armed:
            into.setdefault("wall_ms", []).append(self.walls)
            into.setdefault("cpu_ms", []).append(self.cpus)

    def __enter__(self) -> "During":
        if self.armed:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, _signum, _frame) -> None:
        cpu = time.process_time()
        start = time.perf_counter()
        chunk()
        self.walls.append((time.perf_counter() - start) * 1000.0)
        self.cpus.append((time.process_time() - cpu) * 1000.0)

    @property
    def spent_wall_ms(self) -> float:
        return sum(self.walls)

    @property
    def spent_cpu_ms(self) -> float:
        return sum(self.cpus)
