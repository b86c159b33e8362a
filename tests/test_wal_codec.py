"""Property tests for the WAL record codec (repro.wal.records).

The codec is the part of recovery that must never be wrong: every
durability guarantee reduces to "the valid prefix of the log is exactly
the records that were fully written".  Three properties pin that down:

* round-trip — decode(encode(r)) == r for arbitrary records;
* integrity — any single flipped bit in a frame is rejected (the CRC
  covers the body; the length/CRC header protects itself by making the
  CRC check read the wrong range);
* torn tail — truncating a log at *every* byte offset inside its final
  frame yields exactly the preceding records, never garbage, never an
  exception.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.wal.records import (
    FRAME_HEADER_SIZE,
    WalCodecError,
    WalRecord,
    WalRecordType,
    decode_record,
    encode_record,
    iter_records,
    valid_prefix,
)

records = st.builds(
    WalRecord,
    lsn=st.integers(min_value=0, max_value=2**63),
    type=st.sampled_from(list(WalRecordType)),
    txn_id=st.integers(min_value=0, max_value=2**63),
    table=st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40
    ),
    page_no=st.integers(min_value=-1, max_value=2**31 - 1),
    slot_no=st.integers(min_value=-1, max_value=2**31 - 1),
    payload=st.binary(max_size=200),
)


@settings(max_examples=200, deadline=None)
@given(records)
def test_round_trip(rec):
    encoded = encode_record(rec)
    decoded, end = decode_record(encoded)
    assert decoded == rec
    assert end == len(encoded)


@settings(max_examples=100, deadline=None)
@given(st.lists(records, min_size=0, max_size=5))
def test_round_trip_concatenated(recs):
    buf = b"".join(encode_record(r) for r in recs)
    out, end = valid_prefix(buf)
    assert out == recs
    assert end == len(buf)


@settings(max_examples=200, deadline=None)
@given(records, st.data())
def test_single_bit_flip_rejected(rec, data):
    encoded = bytearray(encode_record(rec))
    bit = data.draw(
        st.integers(min_value=0, max_value=len(encoded) * 8 - 1), label="bit"
    )
    encoded[bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(WalCodecError):
        decode_record(bytes(encoded))


@settings(max_examples=50, deadline=None)
@given(st.lists(records, min_size=1, max_size=3))
def test_torn_tail_every_offset(recs):
    frames = [encode_record(r) for r in recs]
    buf = b"".join(frames)
    prefix_len = len(buf) - len(frames[-1])
    expected = recs[:-1]
    for cut in range(prefix_len, len(buf)):
        got, end = valid_prefix(buf[:cut])
        assert got == expected
        assert end == prefix_len
    # and one byte past the tear (the full final frame) restores it
    got, end = valid_prefix(buf)
    assert got == recs


def test_implausible_length_rejected():
    rec = WalRecord(1, WalRecordType.COMMIT, 7)
    encoded = bytearray(encode_record(rec))
    encoded[0:4] = (2**31).to_bytes(4, "big")  # absurd body_len
    with pytest.raises(WalCodecError):
        decode_record(bytes(encoded))


def test_unknown_type_rejected():
    bad = WalRecord(1, WalRecordType.COMMIT, 7)
    encoded = bytearray(encode_record(bad))
    # type byte sits right after lsn inside the body; patch it and re-CRC
    import struct
    import zlib

    body = bytearray(encoded[FRAME_HEADER_SIZE:])
    body[8] = 200  # no such WalRecordType
    header = struct.pack(">II", len(body), zlib.crc32(bytes(body)))
    with pytest.raises(WalCodecError):
        decode_record(header + bytes(body))


def test_iter_records_stops_at_tear():
    recs = [
        WalRecord(i, WalRecordType.INSERT, 1, "t", 0, i, b"x" * i)
        for i in range(1, 4)
    ]
    buf = b"".join(encode_record(r) for r in recs)
    torn = buf[: len(buf) - 3]
    out = [r for r, _ in iter_records(torn)]
    assert out == recs[:-1]
