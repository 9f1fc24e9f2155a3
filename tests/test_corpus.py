"""Whole-system properties over a fixed slice of the random-mission corpus
(``missions.mission_text``, seeds 0-11 at a 1500-tick cap), and over seeds
past it that are pinned for what they show.

Every run ends in one of the contract's outcomes without an exception (but
one documented exception, ``LOST_NEIGHBOR``), its hard-barrier minima stay
at or above the acceptance gate, and its outcome, tick count and QP and
missing-position event counts equal the recorded table. The runs without the oracle or under message delay, which read
cached and sensed positions rather than the oracle's, run twice and must
repeat byte for byte.
"""

import hashlib
import json

import numpy as np
import pytest

import missions
from swarmseq import mission, sim
from swarmseq.agent import AgentError

CAP = 1500
GATE = -1e-3  # the acceptance suite's gate on collision and obstacle minima
OUTCOMES = {"done", "timeout", "infeasible_hard"}

# seed: (outcome, ticks, qp_relaxed, qp_infeasible_hard, missing_position),
# recorded at the cap above
TABLE = {
    0: ("done", 209, 0, 0, 0),
    1: ("timeout", 1500, 0, 0, 0),
    2: ("timeout", 1500, 0, 0, 3000),
    3: ("timeout", 1500, 0, 0, 0),
    4: ("timeout", 1500, 0, 0, 3000),
    5: ("done", 449, 84, 0, 0),
    6: ("timeout", 1500, 750, 0, 0),
    7: ("timeout", 1500, 44, 0, 0),
    8: ("done", 281, 30, 0, 0),
    9: ("timeout", 1500, 32, 17, 0),
    10: ("done", 409, 238, 0, 0),
    11: ("done", 144, 4, 0, 0),
}

# the generator's first seeds (searched from 0 at the cap above) of two
# kinds, with the same columns: 32, a period-2 chatter, whose two robots'
# positions repeat bit for bit every second tick from tick 45 on, their
# distance alternating across min_sep (oracle off); 61, the first run that
# ends infeasible_hard, with a robot frozen at the cap
CHATTER, FROZEN = 32, 61
PINNED = {
    CHATTER: ("timeout", 1500, 0, 0, 0),
    FROZEN: ("infeasible_hard", 1500, 124, 2583, 0),
}

# the documented exception: seed 57 (2 robots, oracle off, go_to_goal then
# scatter, every behavior requiring the pair) validates, but scatter drives
# the pair out of range and robot 2's cached position expires while it is
# still required, so the run stops with an AgentError at tick 302 instead of
# ending in an outcome.
# ROADMAP items 3 and 10 are to turn this into a named outcome; the change
# that does so moves the seed into PINNED with that outcome and says so in
# CHANGES.md.
LOST_NEIGHBOR = 57


def digest(record):
    """sha256 of a run's positions, controls, sigma and eta bytes and its events."""
    h = hashlib.sha256()
    for a in (record.positions, record.controls, record.sigma, record.eta):
        h.update(a.tobytes())
    for ev in record.events:
        h.update(json.dumps(ev, sort_keys=True).encode())
    return h.hexdigest()


def run_as_recorded(seed, row):
    """The corpus run ``seed``, checked against its ``row`` of a table."""
    plan, config = mission.parse_mission(missions.mission_text(seed, CAP))
    record = sim.run(plan, config)
    events = [ev["event"] for ev in record.events]
    assert record.outcome in OUTCOMES
    assert min(missions.hard_minima(record)) >= GATE
    counts = tuple(events.count(e) for e in ("qp_relaxed", "qp_infeasible_hard", "missing_position"))
    assert (record.outcome, record.ticks, *counts) == row
    if config.delay.max_ticks or not config.oracle_sensing:
        assert digest(sim.run(plan, config)) == digest(record)
    return record


@pytest.mark.parametrize("seed", sorted(TABLE))
def test_a_corpus_mission_ends_as_recorded_within_the_gates(seed):
    run_as_recorded(seed, TABLE[seed])


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_a_pinned_mission_ends_as_recorded_within_the_gates(seed):
    record = run_as_recorded(seed, PINNED[seed])
    x = record.positions
    if seed == CHATTER:
        # period 2, not 1, over the last 1000 ticks, with every robot at
        # |u| = 0.025 on each of them
        assert np.array_equal(x[-1000:], x[-1002:-2]) and not (x[-1000:] == x[-1001:-1]).all(axis=(1, 2)).any()
        speed = np.hypot(record.controls[-1000:, :, 0], record.controls[-1000:, :, 1])
        assert 0.0249 < speed.min() and speed.max() < 0.0251
    else:
        assert record.events[-1]["event"] == "qp_infeasible_hard"


def test_a_lost_required_neighbor_still_stops_the_run_with_an_error():
    plan, config = mission.parse_mission(missions.mission_text(LOST_NEIGHBOR, CAP))
    with pytest.raises(AgentError, match=r"^robot 1: no position available for required neighbors \[2\]$"):
        sim.run(plan, config)


def test_the_corpus_slice_covers_the_message_paths():
    configs = [mission.parse_mission(missions.mission_text(seed, CAP))[1] for seed in TABLE]
    assert sum(not c.oracle_sensing for c in configs) >= 2
    assert sum(c.delay.max_ticks > 0 for c in configs) >= 3
