"""The protocol's HMAC entry points against the from-scratch reference.

Every digest the protocol computes goes through :func:`hmac_digest`,
:func:`hmac_digest_batch` or :func:`hmac_digest_pairs`, so these properties
together with the PPBS goldens (``tests/schemes``) pin whole rounds to
:func:`repro.crypto.hmac_impl.hmac_sha256` bit for bit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.crypto.backend import hmac_digest, hmac_digest_batch, hmac_digest_pairs
from repro.crypto.hmac_impl import hmac_sha256

# Keys up to 80 bytes cover both sides of the 64-byte block, where longer
# keys are hashed first.
keys = st.binary(max_size=80)
messages = st.binary(max_size=200)


@settings(max_examples=40, deadline=None)
@given(key=keys, msg=messages)
def test_digest_matches_reference(key, msg):
    assert hmac_digest(key, msg) == hmac_sha256(key, msg)


@settings(max_examples=25, deadline=None)
@given(key=keys, msgs=st.lists(messages, max_size=12))
def test_batch_matches_reference(key, msgs):
    assert hmac_digest_batch(key, msgs) == [hmac_sha256(key, m) for m in msgs]


@settings(max_examples=25, deadline=None)
@given(data=st.data(), pool=st.lists(keys, min_size=1, max_size=3))
def test_pairs_match_reference(data, pool):
    """Mixed keys, drawn from a small pool so same-key runs form and break."""
    items = data.draw(
        st.lists(st.tuples(st.sampled_from(pool), messages), max_size=16)
    )
    assert hmac_digest_pairs(items) == [hmac_sha256(k, m) for k, m in items]


def test_batch_empty_input():
    assert hmac_digest_batch(b"k", []) == []
    assert hmac_digest_pairs([]) == []


def test_counters_count_digests_and_batch_calls():
    with obs.collecting() as registry:
        hmac_digest(b"k", b"m")
        hmac_digest_batch(b"k", [b"a", b"b"])
        hmac_digest_pairs([(b"k", b"a"), (b"j", b"b"), (b"k", b"c")])
    totals = registry.totals()
    assert totals["crypto.hmac"] == 6
    assert totals["crypto.hmac_batches"] == 2
