"""Tests of the benchmark's program generator.

Run from the root of the repository:

    python3 -m pytest perfbench/test_gen.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import inproc  # noqa: E402

#: A reference run longer than this many ticks means a template went
#: wrong (the largest generated program needs a few tens of thousands).
TICK_LIMIT = 1_000_000


@pytest.mark.parametrize("workload", sorted(gen.MIX))
def test_same_seed_same_bytes(workload):
    first = gen.generate(workload, 7)
    again = gen.generate(workload, 7)
    assert [p.program + p.call for p in first] == \
        [p.program + p.call for p in again]
    other = gen.generate(workload, 8)
    assert [p.program for p in first] != [p.program for p in other]


@pytest.mark.parametrize("workload", sorted(gen.MIX))
def test_mix_and_names(workload):
    programs = gen.generate(workload, 3)
    assert len(programs) == sum(gen.MIX[workload].values())
    assert len({p.name for p in programs}) == len(programs)
    assert set(gen.family_shares(programs)) == set(gen.MIX[workload])
    assert set(gen.MIX[workload]) <= set(gen.FAMILIES)


@pytest.mark.parametrize("workload", sorted(gen.MIX))
def test_every_reference_run_terminates(workload):
    programs = gen.generate(workload, 5) + gen.generate(workload, 5, -1)
    for program in programs:
        ref = inproc.reference(program)
        assert 0 < ref.ticks < TICK_LIMIT, program.name
        assert ref.value and ref.value != "nil", program.name


def test_transform_outcomes_match_the_families():
    from repro import api

    for program in gen.generate("transform", 11):
        result = api.transform(program.program, program.name)
        assert result.transformed == program.expect_transformed, \
            (program.family, result.reason)
        if not result.transformed:
            assert "neither tail-recursive nor an associative-op" in \
                result.reason
