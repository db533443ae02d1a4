"""Scheduler policies: which enabled processes fire at each step.

The policies are adversary models, not fairness providers.  Synchronous
fires every enabled process at once; the distributed policy draws a
uniformly random nonempty subset of the enabled processes; the two locally
central policies never fire two neighbors in the same step (a single
uniform pick, or a greedy maximal independent subset over a seeded
permutation).  Scripted policies replay a fixed activation sequence and
validate it against the evolving configuration at replay time, since
enabledness cannot be known at script-construction time.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, compress

from .core import DirectedGraph, _randbelow, _shuffle


class SchedulerKind(Enum):
    SYNCHRONOUS = "sync"
    DISTRIBUTED_RANDOM_SUBSET = "dist"
    LOCALLY_CENTRAL_SINGLE = "lc1"
    LOCALLY_CENTRAL_MAXIMAL = "lcmax"
    SCRIPTED = "script"


class ScriptViolationError(RuntimeError):
    """A scripted activation was disabled or clashed with a neighbor.  The
    step is ``step_index``; the engine's ``EngineStepError`` names it."""

    def __init__(self, step_index: int, message: str):
        super().__init__(f"script: {message}")
        self.step_index = step_index


@dataclass(frozen=True)
class Script:
    """Fixed sequence of activation sets, one per step.

    ``locally_central`` scripts are rejected at replay if a step activates
    two neighboring processes; it is turned off only to replay divergence
    witnesses, which deliberately fire neighbors together.
    """

    steps: tuple[tuple[int, ...], ...]
    locally_central: bool = True

    def __post_init__(self) -> None:
        steps = tuple(map(tuple, self.steps))
        # A step of zero or one process is already sorted and free of repeats.
        if any(map((1).__lt__, map(len, steps))):
            steps = tuple(map(tuple, map(sorted, map(set, steps))))
        object.__setattr__(self, "steps", steps)

    def __len__(self) -> int:
        return len(self.steps)

    @classmethod
    def from_text(cls, text: str) -> Script:
        steps = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            steps.append(tuple(int(tok) for tok in line.split()))
        return cls(steps=tuple(steps))

    @classmethod
    def from_file(cls, path: str) -> Script:
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


@dataclass(frozen=True)
class SchedulerPolicy:
    kind: SchedulerKind
    script: Script | None = None

    def __post_init__(self) -> None:
        if self.kind is SchedulerKind.SCRIPTED and self.script is None:
            raise ValueError("scripted policy needs a script")

    @property
    def name(self) -> str:
        return self.kind.value


# Byte ``b"0"`` to 0 and ``b"1"`` to 1, so a mask's binary digits index
# ``compress``.
_BITS = bytes.maketrans(b"01", b"\0\1")


def selector(policy: SchedulerPolicy, graph: DirectedGraph, rng: random.Random):
    """The pick of one run under ``policy``: ``pick(enabled_now, step_index)``
    returns that step's activation set from ``enabled_now``.

    ``enabled_now`` is the nonempty ascending sequence of enabled
    processes; it is only read.  A pick returns a sorted tuple, or None
    when a scripted policy has run out of steps.  The policy's kind, the
    script and ``rng.getrandbits`` are read here, once per run.  The
    random policies draw from ``rng.getrandbits`` exactly what
    ``rng.choice(enabled_now)``, ``rng.randrange(1, 1 << len(enabled_now))``
    and ``rng.shuffle`` would (see ``core._randbelow`` and
    ``core._shuffle``).  A scripted pick raises
    :class:`ScriptViolationError` for a step that activates a disabled
    process or, in a locally central script, two neighbors; it draws
    nothing, and ``rng`` may be None.
    """
    kind = policy.kind
    getrandbits = getattr(rng, "getrandbits", None)
    neighbors = graph.neighbors
    if kind is SchedulerKind.SYNCHRONOUS:
        def pick(enabled_now, step_index):
            return tuple(enabled_now)
    elif kind is SchedulerKind.DISTRIBUTED_RANDOM_SUBSET:
        def pick(enabled_now, step_index):
            mask = 1 + _randbelow(getrandbits, (1 << len(enabled_now)) - 1)
            # The mask's binary digits, lowest first, as 0/1 bytes.
            return tuple(compress(enabled_now, bin(mask)[:1:-1].encode().translate(_BITS)))
    elif kind is SchedulerKind.LOCALLY_CENTRAL_SINGLE:
        def pick(enabled_now, step_index):
            return (enabled_now[_randbelow(getrandbits, len(enabled_now))],)
    elif kind is SchedulerKind.LOCALLY_CENTRAL_MAXIMAL:
        def pick(enabled_now, step_index):
            order = list(enabled_now)
            _shuffle(order, getrandbits)
            picked: list[int] = []
            blocked: set[int] = set()
            for i in order:
                if i not in blocked:
                    picked.append(i)
                    blocked.add(i)
                    blocked.update(neighbors[i])
            return tuple(sorted(picked))
    else:
        steps = policy.script.steps
        locally_central = policy.script.locally_central

        def pick(enabled_now, step_index):
            if step_index >= len(steps):
                return None
            chosen = steps[step_index]
            for i in chosen:
                at = bisect_left(enabled_now, i)
                if at == len(enabled_now) or enabled_now[at] != i:
                    raise ScriptViolationError(step_index, f"process {i} is not enabled")
            if locally_central and len(chosen) > 1:
                for a, b in combinations(chosen, 2):
                    if b in neighbors[a]:
                        raise ScriptViolationError(step_index, f"processes {a} and {b} are neighbors")
            return chosen
    return pick
