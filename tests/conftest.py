"""Fixtures shared by several test files."""

import pytest

from swarmseq.mission import builtin_scenario
from swarmseq.sim import run
from test_team import per_tick_rows


@pytest.fixture(scope="session")
def securing_ticks():
    """The flagship, securing_a_building, run once for the whole session with
    ``test_team.per_tick_rows``'s recorder installed: (plan, config, the run's
    record, the recorder's ticks)."""
    plan, config = builtin_scenario("securing_a_building")
    with pytest.MonkeyPatch.context() as patch:
        ticks = per_tick_rows(patch)
        record = run(plan, config)
    return plan, config, record, ticks
