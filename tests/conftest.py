import dataclasses

import numpy as np
import pytest

from stepbias import instances


@pytest.fixture
def failing_attempts(monkeypatch):
    """fail(numbers): make the attempts numbered in numbers (from 1, in draw order) underflow.

    An attempt's record, its row of regime_records, gets alpha_1 = 0;
    the attempt is known by its drawn sigma_2, entry 1 of its padded
    train eigenvalues. Attempts are numbered
    across the streams of a block: every stream's first, then each
    refused stream's next in stream order, round by round. fail returns
    the list of the attempts drawn, which the test may clear to number
    afresh.
    """

    def fail(numbers):
        drawn, failed = [], set()
        real_draw, real_records = instances._draw, instances.regime_records

        def draw(rng, n):
            attempt = real_draw(rng, n)
            drawn.append(attempt)
            if len(drawn) in numbers:
                failed.add(attempt[0][1])
            return attempt

        def records(n, train_eigenvalues, *args):
            rec = real_records(n, train_eigenvalues, *args)
            zero = np.isin(train_eigenvalues[:, 1], list(failed))
            return dataclasses.replace(
                rec, alpha_1=np.where(zero, 0.0, rec.alpha_1),
                alpha_1_split=np.where(zero, 0.0, rec.alpha_1_split),
            )

        monkeypatch.setattr(instances, "_draw", draw)
        monkeypatch.setattr(instances, "regime_records", records)
        return drawn

    return fail
