"""Property-based tests for the value codec and the size model."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.ids import MessageId
from repro.core.messages import AppMessage
from repro.sizing import estimate_size
from repro.storage import codec

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    # nan != nan defeats == on the round trip; it has its own unit test.
    st.floats(allow_nan=False),
    st.text(max_size=30),
    st.binary(max_size=12),
)

codec_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
        # non-str keys: any hashable scalar
        st.dictionaries(scalars, children, max_size=5),
        # tuples/sets only over hashable scalars
        st.lists(scalars, max_size=5).map(tuple),
        st.frozensets(scalars, max_size=5),
        st.sets(scalars, max_size=5),
    ),
    max_leaves=20,
)

app_messages = st.builds(
    lambda s, i, q, p: AppMessage(MessageId(s, i, q), p),
    s=st.integers(min_value=0, max_value=9),
    i=st.integers(min_value=1, max_value=9),
    q=st.integers(min_value=1, max_value=999),
    p=st.one_of(st.none(), st.text(max_size=20),
                st.tuples(st.text(max_size=5), st.integers())),
)


@given(codec_values)
def test_codec_round_trip(value):
    assert codec.decode(codec.encode(value)) == value


@given(codec_values)
def test_codec_is_deterministic(value):
    assert codec.encode(value) == codec.encode(value)


@given(st.frozensets(app_messages, max_size=6))
def test_app_message_sets_round_trip(batch):
    decoded = codec.decode(codec.encode(batch))
    assert decoded == batch
    assert {m.id: m.payload for m in decoded} == \
        {m.id: m.payload for m in batch}


@given(codec_values)
def test_estimate_size_total_and_positive(value):
    size = estimate_size(value)
    assert isinstance(size, int)
    assert size >= 1


@given(st.lists(scalars, max_size=10))
def test_size_monotone_in_content(items):
    """Adding an element never shrinks the estimated size."""
    for cut in range(len(items)):
        assert estimate_size(items[:cut + 1]) >= estimate_size(items[:cut])
