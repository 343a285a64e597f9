import dataclasses

import numpy as np
import pytest

from stepbias import instances


@pytest.fixture
def failing_attempts(monkeypatch):
    """fail(numbers): make the attempts numbered in numbers (from 1, in draw order) underflow.

    An attempt's record, a row of regime_records for a stream's first
    attempt or regime_record's for a redraw, gets alpha_1 = 0; the
    attempt is known by its train eigenvalues. fail returns the list of
    the attempts drawn, which the test may clear to number afresh.
    """

    def fail(numbers):
        drawn, failed = [], set()
        real_draw, real_records, real_record = (
            instances._draw, instances.regime_records, instances.regime_record
        )

        def draw(rng, n):
            attempt = real_draw(rng, n)
            drawn.append(attempt)
            if len(drawn) in numbers:
                failed.add(attempt[0].tobytes())
            return attempt

        def records(train_eigenvalues, *args):
            rec = real_records(train_eigenvalues, *args)
            zero = np.array([w.tobytes() in failed for w in train_eigenvalues])
            return dataclasses.replace(
                rec, alpha_1=np.where(zero, 0.0, rec.alpha_1),
                alpha_1_split=np.where(zero, 0.0, rec.alpha_1_split),
            )

        def record(spectrum, *args):
            rec = real_record(spectrum, *args)
            if spectrum.eigenvalues.tobytes() in failed:
                rec = dataclasses.replace(rec, alpha_1=0.0, alpha_1_split=0.0)
            return rec

        monkeypatch.setattr(instances, "_draw", draw)
        monkeypatch.setattr(instances, "regime_records", records)
        monkeypatch.setattr(instances, "regime_record", record)
        return drawn

    return fail
