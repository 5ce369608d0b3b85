"""Differential suite: the scheme seam left PPBS bit-identical.

``goldens/ppbs_goldens.json`` was captured from the pre-refactor tree (see
:mod:`schemes.golden_utils`).  Every test here recomputes the same document
through today's code and compares field by field — results, trace
summaries, the Theorem-4 communication audit, and the TCP wire-byte total.
A mismatch means the refactor changed PPBS behaviour, which it must not.
"""

import pytest

from repro.crypto.cache import cache_disabled, get_mask_cache
from tests.schemes.golden_utils import (
    SCENARIO,
    capture_fastsim,
    capture_in_process,
    capture_tcp,
    load_goldens,
)

GOLDEN = load_goldens()


@pytest.fixture(autouse=True)
def _fresh_mask_cache():
    """Byte accounting must not depend on what earlier tests warmed up."""
    get_mask_cache().clear()
    yield
    get_mask_cache().clear()


def test_scenario_unchanged():
    """The pinned scenario itself is part of the contract."""
    assert GOLDEN["scenario"] == dict(SCENARIO)


def test_in_process_results_bit_identical():
    current = capture_in_process()
    golden = GOLDEN["in_process"]
    for index, (cur, ref) in enumerate(zip(current["rounds"], golden["rounds"])):
        for field in ref:
            assert cur[field] == ref[field], f"round {index} field {field!r}"
    assert current["result_digest"] == golden["result_digest"]


def test_warm_cache_round_identical_to_cold():
    """Cache hits are invisible: cold, warm and bypassed rounds all match."""
    cache = get_mask_cache()
    cold = capture_in_process()
    assert cache.stats()["entries"] > 0
    hits = cache.hits
    warm = capture_in_process()
    assert cache.hits > hits
    with cache_disabled():
        stats = cache.stats()
        bypassed = capture_in_process()
        assert cache.stats() == stats
    golden = GOLDEN["in_process"]
    assert cold == golden
    assert warm == golden
    assert bypassed == golden


def test_in_process_trace_summary_bit_identical():
    current = capture_in_process()
    assert current["trace_summary"] == GOLDEN["in_process"]["trace_summary"]


def test_in_process_theorem4_audit_bit_identical():
    current = capture_in_process()
    assert current["comm_audit"] == GOLDEN["in_process"]["comm_audit"]


def test_fastsim_bit_identical():
    current = capture_fastsim()
    golden = GOLDEN["fastsim"]
    assert current["rounds"] == golden["rounds"]
    assert current["result_digest"] == golden["result_digest"]


def test_tcp_wire_bytes_and_equivalence_bit_identical():
    current = capture_tcp()
    golden = GOLDEN["tcp"]
    assert current["rounds_completed"] == golden["rounds_completed"]
    assert current["equivalence_checked"] == golden["equivalence_checked"]
    assert current["wire_bytes"] == golden["wire_bytes"]
    assert current["round_summaries"] == golden["round_summaries"]

