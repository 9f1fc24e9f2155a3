"""A machine-speed reference for the host-time metrics.

On a shared virtual machine the same code runs at speeds up to a factor of
2 apart, and a speed lasts from seconds to minutes, so raw CPU times of one
run and the next spread by 10-30%. ``Probe`` times a fixed reference
workload (``reference``) all through each measured span: once before and
once after it, and, while ``sim.run`` is running, between two ticks every
``PERIOD_S`` of wall clock (``Probe`` wraps ``sim.tick``, the function
``sim.run`` looks up once per tick). The time spent in the reference is
taken out of the span, and the span's CPU time is scaled by
``REFERENCE_S`` over the reference's mean time in the span. So a scaled
time reads as seconds on a machine where one reference call takes
``REFERENCE_S``, and it moves with the program, not with the machine.

The reference mixes what the program does per tick: pure-Python calls and
small dicts (``difflib``, ``fractions``), a JSON round trip and small numpy
arithmetic. It never calls the program, so a change to the program leaves
it as it is.
"""

from __future__ import annotations

import difflib
import fractions
import json
import random
import time
from statistics import mean

import numpy as np

from swarmseq import sim

REFERENCE_S = 1.5e-3  # nominal CPU seconds of one reference call
PERIOD_S = 0.1  # wall seconds between reference calls inside sim.run

_rng = random.Random(0)
_TEXT_A = "".join(_rng.choice("abcdefgh ") for _ in range(600))
_TEXT_B = "".join(_rng.choice("abcdefgh ") for _ in range(600))
_DOC = {f"k{i}": {"x": [float(j) for j in range(8)], "s": "v" * i} for i in range(60)}


def reference():
    """A fixed amount of interpreter, JSON and small-array work (~1.5 ms)."""
    difflib.SequenceMatcher(None, _TEXT_A, _TEXT_B).ratio()
    json.loads(json.dumps(_DOC))
    total = fractions.Fraction(0)
    for i in range(1, 60):
        total += fractions.Fraction(1, i)
    acc = 0.0
    for i in range(100):
        a = np.array([float(i), 1.0])
        acc += float((a * 2.0 + 1.0) @ a)
    return total, acc


class Probe:
    """Reference samples taken through measured spans; see the module doc."""

    def __init__(self):
        self.samples = []  # CPU seconds of each reference call
        self.spent = [0.0, 0.0]  # (wall, cpu) seconds spent in reference calls
        self._due = 0.0
        self._saved = None

    def sample(self):
        wall, cpu = time.perf_counter(), time.process_time()
        reference()
        cpu = time.process_time() - cpu
        now = time.perf_counter()
        self.samples.append(cpu)
        self.spent[0] += now - wall
        self.spent[1] += cpu
        self._due = now + PERIOD_S

    def __enter__(self):
        original = self._saved = sim.tick

        def tick(*args, **kwargs):
            if time.perf_counter() >= self._due:
                self.sample()
            return original(*args, **kwargs)

        sim.tick = tick
        return self

    def __exit__(self, *exc):
        sim.tick = self._saved
        return False

    def span(self, fn, *args):
        """Call ``fn(*args)``; returns its result and its (wall, cpu, scaled)
        seconds without the reference calls made during it."""
        self.sample()
        first = len(self.samples) - 1
        spent = list(self.spent)
        wall, cpu = time.perf_counter(), time.process_time()
        result = fn(*args)
        cpu = time.process_time() - cpu - (self.spent[1] - spent[1])
        wall = time.perf_counter() - wall - (self.spent[0] - spent[0])
        self.sample()
        return result, (wall, cpu, self.scale(cpu, first))

    def scale(self, cpu, first):
        """``cpu`` seconds at reference speed, from the samples since ``first``."""
        return cpu * REFERENCE_S / mean(self.samples[first:])
