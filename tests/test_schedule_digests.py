"""Pin every registered collective schedule op for op.

Each :data:`~repro.mpi.collectives.plan.GENERATORS` entry's per-rank
schedules are hashed over a fixed grid (p = 1..20, roots {0, p//2, p-1},
n in {0, 1, p-1, 64, 1000}) and compared with the checked-in
``tests/data/schedule_digests.json``.  A refactor of the round builders
that moves, reorders or resizes a single op fails here, naming the
generator and ``p``.

Regenerating the fixture (only after an *intentional* schedule change,
with the diff reviewed)::

    PYTHONPATH=src python tests/test_schedule_digests.py --regen
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.mpi.collectives import plan as _plan

FIXTURE = pathlib.Path(__file__).parent / "data" / "schedule_digests.json"

#: Generators pinned at power-of-two ``p`` only (part of the pinned grid:
#: they refuse every other ``p``).
POW2_ONLY = ("allreduce_long", "reduce_rabenseifner")


def _grid(algorithm: str) -> list[int]:
    return [p for p in range(1, 21)
            if algorithm not in POW2_ONLY or p & (p - 1) == 0]


def schedule_digest(algorithm: str, p: int) -> str:
    """SHA-256 prefix over every (root, n, rank) schedule of one ``p``."""
    gen = _plan.GENERATORS[algorithm]
    h = hashlib.sha256()
    for root in sorted({0, p // 2, p - 1}):
        for n in sorted({0, 1, p - 1, 64, 1000}):
            for me in range(p):
                sched = gen(p, root, me, n)
                h.update(repr([[tuple(op) for op in rnd] for rnd in sched])
                         .encode())
                h.update(b";")
    return h.hexdigest()[:16]


def all_digests() -> dict[str, dict[str, str]]:
    return {alg: {str(p): schedule_digest(alg, p) for p in _grid(alg)}
            for alg in sorted(_plan.GENERATORS)}


def test_schedules_match_pinned_digests():
    expected = json.loads(FIXTURE.read_text())
    actual = all_digests()
    assert sorted(actual) == sorted(expected), "generator registry changed"
    moved = [f"{alg} p={p}" for alg in sorted(expected)
             for p, digest in expected[alg].items()
             if actual[alg].get(p) != digest]
    assert not moved, f"schedules changed: {', '.join(moved)}"


@pytest.mark.parametrize("algorithm", POW2_ONLY)
@pytest.mark.parametrize("p", [3, 6, 12])
def test_pow2_only_generators_refuse_other_p(algorithm, p):
    with pytest.raises(ValueError, match="power-of-two"):
        _plan.GENERATORS[algorithm](p, 0, 0, 64)


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        FIXTURE.write_text(json.dumps(all_digests(), indent=1) + "\n")
        print(f"wrote {FIXTURE}")
