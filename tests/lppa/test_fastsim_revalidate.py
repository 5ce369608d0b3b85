"""The revalidation extension in the fast simulator."""

import pytest

from repro.lppa.fastsim import run_fast_lppa
from repro.lppa.policies import UniformReplacePolicy


def test_revalidated_round_has_no_invalid_wins(small_users):
    result = run_fast_lppa(
        small_users,
        two_lambda=6,
        bmax=127,
        policy=UniformReplacePolicy(1.0),
        entropy=1,
        revalidate=True,
    )
    assert all(win.valid for win in result.outcome.wins)


def test_revalidation_counts_rejections(small_users):
    result = run_fast_lppa(
        small_users,
        two_lambda=6,
        bmax=127,
        policy=UniformReplacePolicy(1.0),
        entropy=2,
        revalidate=True,
    )
    assert result.ttp_rejections > 0


def test_batched_mode_reports_zero_rejections(small_users):
    result = run_fast_lppa(
        small_users,
        two_lambda=6,
        bmax=127,
        policy=UniformReplacePolicy(1.0),
        entropy=3,
    )
    assert result.ttp_rejections == 0


def test_revalidation_never_hurts_satisfaction(small_users):
    def satisfaction(revalidate):
        return run_fast_lppa(
            small_users,
            two_lambda=6,
            bmax=127,
            policy=UniformReplacePolicy(0.8),
            entropy=4,
            revalidate=revalidate,
        ).outcome.user_satisfaction()

    assert satisfaction(True) >= satisfaction(False)
