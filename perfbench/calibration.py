"""Reference work that tracks how fast the host runs Python right now.

On a shared host the speed of one vCPU drifts by 10 to 50% within
seconds, with the same inputs, so raw times of a sub-second repetition
spread more than any regression bound. The timed work is therefore cut
into pieces (chunks of the operation list; the check stages of the
suite), and a short slice of reference work runs before the first piece
and after each one, outside the timed region. Each piece's times are
scaled by REF_NS over the mean of the two slices around it: a time reads
as it would on a host that runs one slice in REF_NS.

The reference work is the benchmark's own oracles on fixed inputs (a
breadth-depth visit order, circuit evaluation, the escape codec and a
word count), the same kinds of interpreter work the package does. It
imports nothing from polytract, so a change to the package cannot change
it.
"""
from __future__ import annotations

import gc
import random
import time

import inputs
import oracles

# Median slice time on the baseline machine (see BASELINE.md). Only the
# scale of the reported times depends on it.
REF_NS = 2_800_000
PASSES = 3


class Calibrator:
    def __init__(self):
        rng = random.Random("calibration")
        self._graphs, self._circuits, self._encoded = [], [], []
        for _ in range(6):
            inputs.bds_case(rng, 16, lambda numbering, edges, u, v:
                            self._graphs.append((numbering, edges)))
        for _ in range(6):
            inputs.cvp_case(rng, 12, self._circuits.append)
        for _ in range(6):
            a, b = inputs.escape_dense_payload(rng), inputs.escape_dense_payload(rng)
            self._encoded.append(oracles.escape(a) + b"#" + oracles.escape(b))
        self._text = inputs.corpus_text(rng, 200)
        self.slice_ns()  # warm-up

    def slice_ns(self, clock=time.perf_counter_ns) -> int:
        """Run one slice of reference work; return its duration. The
        garbage collector is paused meanwhile: a collection of the
        package's heap that the slice's allocations set off would
        otherwise land in the slice."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = clock()
            for _ in range(PASSES):
                for numbering, edges in self._graphs:
                    oracles.bds_visit_order(numbering, edges)
                for table in self._circuits:
                    oracles.cvp_value(table)
                for x in self._encoded:
                    oracles.decode(x, b"#")
                oracles.word_count(self._text, "of")
            return clock() - start
        finally:
            if enabled:
                gc.enable()


class Timeline:
    """Time along one run, cut into segments at each boundary() and
    scaled segment by segment to the reference speed."""

    def __init__(self, calibrator: Calibrator, clock=time.perf_counter_ns):
        self.calibrator, self.clock = calibrator, clock
        self.raw = 0
        self.scaled = 0.0
        self._slice = calibrator.slice_ns(clock)
        self._mark = clock()

    def boundary(self) -> float:
        """Close the segment since the last boundary, run a slice, and
        return the scale applied to the segment."""
        end = self.clock()
        after = self.calibrator.slice_ns(self.clock)
        scale = REF_NS / ((self._slice + after) / 2)
        self.raw += end - self._mark
        self.scaled += (end - self._mark) * scale
        self._slice = after
        self._mark = self.clock()
        return scale
