"""Property-based tests: encoder invariants over arbitrary op sequences."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gui import (
    Bitmap,
    CopyArea,
    DrawBitmap,
    DrawText,
    DrawWidget,
    FillRect,
    KeyPress,
    KeyRelease,
    MouseButton,
    MouseMove,
)
from repro.gui.drawing import RestoreRegion
from repro.protocols import (
    LBXProtocol,
    RDPProtocol,
    XProtocol,
    make_protocol,
)

ALL_PROTOCOLS = ("rdp", "x", "lbx", "slim", "vnc")

display_ops = st.one_of(
    st.builds(DrawText, chars=st.integers(min_value=1, max_value=200)),
    st.builds(
        FillRect,
        width=st.integers(min_value=1, max_value=800),
        height=st.integers(min_value=1, max_value=600),
    ),
    st.builds(
        CopyArea,
        width=st.integers(min_value=1, max_value=800),
        height=st.integers(min_value=1, max_value=600),
    ),
    st.builds(DrawWidget, elements=st.integers(min_value=1, max_value=64)),
    st.builds(
        DrawBitmap,
        bitmap=st.builds(
            Bitmap,
            bitmap_id=st.text(min_size=1, max_size=8),
            width=st.integers(min_value=1, max_value=200),
            height=st.integers(min_value=1, max_value=200),
            bpp=st.sampled_from([4, 8, 16]),
            compressed_ratio=st.floats(min_value=0.05, max_value=1.0),
        ),
    ),
    st.builds(
        RestoreRegion,
        width=st.integers(min_value=1, max_value=400),
        height=st.integers(min_value=1, max_value=400),
        key=st.just("k"),
        complexity=st.integers(min_value=1, max_value=100),
    ),
)

input_events = st.one_of(
    st.builds(KeyPress, key=st.integers(min_value=0, max_value=255)),
    st.builds(KeyRelease, key=st.integers(min_value=0, max_value=255)),
    st.builds(MouseMove),
    st.builds(MouseButton),
)

op_steps = st.lists(st.lists(display_ops, max_size=5), max_size=10)
event_steps = st.lists(st.lists(input_events, max_size=5), max_size=10)


@settings(max_examples=30)
@given(op_steps, event_steps)
@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_encoded_messages_are_well_formed(name, ops_per_step, events_per_step):
    protocol = make_protocol(name)
    for ops in ops_per_step:
        for message in protocol.encode_display_step(ops):
            assert message.payload_bytes > 0
            assert message.channel == "display"
    for events in events_per_step:
        for message in protocol.encode_input_step(events):
            assert message.payload_bytes > 0
            assert message.channel == "input"
    for message in protocol.flush_input() + protocol.flush_display():
        assert message.payload_bytes > 0


@settings(max_examples=30)
@given(op_steps)
def test_lbx_display_payload_never_exceeds_x(ops_per_step):
    """Compression plus small per-chunk headers still beats raw X."""
    x = XProtocol()
    lbx = LBXProtocol()
    x_total = 0
    lbx_total = 0
    for ops in ops_per_step:
        x_total += sum(m.payload_bytes for m in x.encode_display_step(ops))
        lbx_total += sum(
            m.payload_bytes for m in lbx.encode_display_step(ops)
        )
    assert lbx_total <= x_total


@settings(max_examples=30)
@given(op_steps, st.integers(min_value=1, max_value=8))
def test_rdp_order_bytes_conserved_across_batching(ops_per_step, flush_steps):
    """Order bytes in == (message payloads - PDU headers) out, exactly,
    regardless of the flush period; the buffer always drains."""
    reference = RDPProtocol(display_flush_steps=1)
    batched = RDPProtocol(display_flush_steps=flush_steps)

    def total_payload(protocol):
        total = 0
        messages = 0
        for ops in ops_per_step:
            for m in protocol.encode_display_step(ops):
                total += m.payload_bytes
                messages += 1
        for m in protocol.flush_display():
            total += m.payload_bytes
            messages += 1
        assert protocol.flush_display() == []  # fully drained
        return total - 18 * messages  # strip PDU headers

    assert total_payload(reference) == total_payload(batched)


@settings(max_examples=30)
@given(st.lists(input_events, min_size=1, max_size=200))
def test_rdp_input_batch_conserves_events(events):
    """Every input event appears in exactly one flushed input PDU."""
    rdp = RDPProtocol()
    messages = []
    for event in events:
        messages.extend(rdp.encode_input_step([event]))
    messages.extend(rdp.flush_input())
    carried = sum((m.payload_bytes - 16) // 12 for m in messages)
    assert carried == len(events)


@settings(max_examples=30)
@given(st.lists(display_ops, min_size=1, max_size=30))
def test_x_requests_padded_and_bounded(ops):
    x = XProtocol()
    for op in ops:
        for size in x.request_sizes_for(op):
            assert size % 4 == 0
            assert size >= 16
