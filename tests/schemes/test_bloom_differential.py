"""Differential suite: the Bloom scheme stays bit-identical to its goldens.

``goldens/bloom_goldens.json`` was captured while the Bloom scheme still
ran on a value backend of its own (see :mod:`schemes.golden_utils`).  Every
test here recomputes the same document through today's code and compares
field by field — results, trace summary, the OPE size-model audit, the full
trace event sequence and the TCP wire-byte total.
"""

import pytest

from repro.crypto.cache import get_mask_cache
from tests.schemes.golden_utils import (
    SCENARIO,
    capture_in_process,
    capture_tcp,
    capture_trace_digest,
    load_goldens,
)

GOLDEN = load_goldens("bloom")


@pytest.fixture(autouse=True)
def _fresh_mask_cache():
    """Byte accounting must not depend on what earlier tests warmed up."""
    get_mask_cache().clear()
    yield
    get_mask_cache().clear()


def test_scenario_unchanged():
    assert GOLDEN["scheme"] == "bloom"
    assert GOLDEN["scenario"] == dict(SCENARIO)


def test_in_process_results_bit_identical():
    current = capture_in_process("bloom")
    golden = GOLDEN["in_process"]
    for index, (cur, ref) in enumerate(zip(current["rounds"], golden["rounds"])):
        for field in ref:
            assert cur[field] == ref[field], f"round {index} field {field!r}"
    assert current["result_digest"] == golden["result_digest"]


def test_in_process_trace_summary_bit_identical():
    current = capture_in_process("bloom")
    assert current["trace_summary"] == GOLDEN["in_process"]["trace_summary"]


def test_in_process_comm_audit_bit_identical():
    current = capture_in_process("bloom")
    assert current["comm_audit"] == GOLDEN["in_process"]["comm_audit"]


def test_trace_event_sequence_bit_identical():
    """Event order and fields, clocks aside: ranking/ope_column pairs per
    channel and the protocol_setup arguments included."""
    assert capture_trace_digest("bloom") == GOLDEN["trace_digest"]


def test_tcp_wire_bytes_and_equivalence_bit_identical():
    current = capture_tcp("bloom")
    golden = GOLDEN["tcp"]
    assert current["rounds_completed"] == golden["rounds_completed"]
    assert current["equivalence_checked"] == golden["equivalence_checked"]
    assert current["wire_bytes"] == golden["wire_bytes"]
    assert current["round_summaries"] == golden["round_summaries"]
