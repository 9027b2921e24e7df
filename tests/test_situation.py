"""XML situation codec, per-node situation database, and table export."""

import csv
import dataclasses
import hashlib
import io
import itertools
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crahnsim.situation import (SituationDb, SituationParseError,
                                SituationRecord, SituationValidationError,
                                decode_situation, encode_situation,
                                export_situation_table, parse_timestamp,
                                situation_table_csv, situation_table_text)

# printed sample message, including the bare prologue and loose whitespace
SAMPLE_XML = b"""<?xml>
<XML>
  <Location>
    <Latitude>24.8614220</Latitude>
    <Longitude>67.0094390 </Longitude>
  </Location>
  <Situation>Red</Situation>
  <TimeStamp>20052015201820</TimeStamp>
  <ShortMessage>
    Injured Persons in critical condition
  </ShortMessage>
  <LongMessage>
    Injured Persons in critical condition stucked.
    Immediate help required. Bring cranes, cutters
    along with you
  </LongMessage>
  <Ontology>
    Safety
  </Ontology>
</XML>
"""

TABLE_ROWS = [
    SituationRecord(24.8614620, 67.0099390, "Red", "20052015201820",
                    "Injured Persons in critical condition"),
    SituationRecord(24.8615620, 67.0039390, "Green", "20052015200820",
                    "Rescue Work successfully done"),
    SituationRecord(24.8614220, 67.0094390, "Yellow", "20052015200720",
                    "Rescue operation going on"),
]


def test_sample_message_decodes_field_for_field():
    rec = decode_situation(SAMPLE_XML)
    assert rec.latitude == 24.8614220
    assert rec.longitude == 67.0094390
    assert rec.situation == "Red"
    assert rec.timestamp == "20052015201820"
    assert rec.short_message == "Injured Persons in critical condition"
    assert rec.long_message.startswith("Injured Persons in critical condition stucked.")
    assert rec.ontology == "Safety"


def test_sample_round_trips_through_canonical_form():
    rec = decode_situation(SAMPLE_XML)
    again = decode_situation(encode_situation(rec))
    assert again == rec


def test_encode_is_deterministic_and_canonical():
    rec = decode_situation(SAMPLE_XML)
    first = encode_situation(rec)
    assert first == encode_situation(rec)
    # encode o decode o encode == encode
    assert encode_situation(decode_situation(first)) == first


def test_encoded_element_order_matches_wire_format():
    rec = TABLE_ROWS[0]
    text = encode_situation(rec).decode("utf-8")
    order = [text.index(tag) for tag in
             ("<XML>", "<Location>", "<Latitude>", "<Longitude>", "<Situation>",
              "<TimeStamp>", "<ShortMessage>", "<Ontology>", "</XML>")]
    assert order == sorted(order)
    assert "<Latitude>24.8614620</Latitude>" in text
    assert "<LongMessage>" not in text  # empty long message is omitted


def test_validation_errors_name_the_field():
    with pytest.raises(SituationValidationError, match="situation"):
        SituationRecord(24.0, 67.0, "Blue", "20052015201820", "x")
    with pytest.raises(SituationValidationError, match="timestamp"):
        SituationRecord(24.0, 67.0, "Red", "20052015209920", "x")  # minute 99
    with pytest.raises(SituationValidationError, match="timestamp"):
        SituationRecord(24.0, 67.0, "Red", "2005201518", "x")  # not 14 digits
    with pytest.raises(SituationValidationError, match="latitude"):
        SituationRecord(95.0, 67.0, "Red", "20052015201820", "x")
    with pytest.raises(SituationValidationError, match="longitude"):
        SituationRecord(24.0, 190.0, "Red", "20052015201820", "x")
    with pytest.raises(SituationValidationError, match="short_message"):
        SituationRecord(24.0, 67.0, "Red", "20052015201820", "y" * 257)


def test_timestamp_reading_is_day_month_year():
    dt = parse_timestamp("20052015201820")
    assert (dt.day, dt.month, dt.year) == (20, 5, 2015)
    assert (dt.hour, dt.minute, dt.second) == (20, 18, 20)


def test_decode_rejects_malformed_and_incomplete_documents():
    with pytest.raises(SituationParseError):
        decode_situation(b"<XML><Location></XML>")
    with pytest.raises(SituationParseError):
        decode_situation(b"<Other></Other>")
    missing = SAMPLE_XML.replace(b"  <Situation>Red</Situation>\n", b"")
    with pytest.raises(SituationValidationError, match="Situation"):
        decode_situation(missing)


def test_db_upsert_freshness_rule():
    db = SituationDb()
    assert db.upsert(TABLE_ROWS[0]) is True
    assert len(db) == 1
    older = SituationRecord(24.8614620, 67.0099390, "Green", "20052015200000", "older")
    assert db.upsert(older) is False
    key = TABLE_ROWS[0].location_key()
    assert db.records[key].situation == "Red"
    newer = SituationRecord(24.8614620, 67.0099390, "Green", "21052015000000", "newer")
    assert db.upsert(newer) is True
    assert db.records[key].short_message == "newer"


def test_equal_timestamp_does_not_replace():
    db = SituationDb()
    db.upsert(TABLE_ROWS[0])
    twin = SituationRecord(24.8614620, 67.0099390, "Yellow", "20052015201820", "twin")
    assert db.upsert(twin) is False


def test_table_rows_in_all_insertion_orders():
    expected = [
        ("24.8614620, 67.0099390", "Red", "20052015201820",
         "Injured Persons in critical condition"),
        ("24.8615620, 67.0039390", "Green", "20052015200820",
         "Rescue Work successfully done"),
        ("24.8614220, 67.0094390", "Yellow", "20052015200720",
         "Rescue operation going on"),
    ]
    for order in itertools.permutations(TABLE_ROWS):
        db = SituationDb()
        for rec in order:
            db.upsert(rec)
        assert export_situation_table(db) == expected


def test_exports_on_empty_db():
    db = SituationDb()
    assert situation_table_csv(db) == "location,situation,timestamp,short_message\n"
    assert situation_table_text(db).splitlines()[0].split() == [
        "Location", "Situation", "TimeStamp", "ShortMessage"]


def test_csv_export_quotes_commas():
    db = SituationDb()
    db.upsert(SituationRecord(1.0, 2.0, "Red", "01012020000000", 'need "cranes", fast'))
    line = situation_table_csv(db).splitlines()[1]
    assert '"need ""cranes"", fast"' in line


def test_csv_export_reads_back_with_csv_reader():
    messages = ["line one\nline two", "crlf\r\nend", 'need "cranes", fast', "plain",
                "cr\ronly"]
    db = SituationDb()
    for i, msg in enumerate(messages):
        db.upsert(SituationRecord(1.0 + i, 2.0, "Red", f"0{i + 1}012020000000", msg))
    rows = list(csv.reader(io.StringIO(situation_table_csv(db), newline="")))
    assert rows == [["location", "situation", "timestamp", "short_message"]] + [
        list(row) for row in export_situation_table(db)]
    assert sorted(row[3] for row in rows[1:]) == sorted(messages)


def _record_strategy():
    text = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF,
                                          exclude_characters="\r"),
                   max_size=60).map(lambda s: " ".join(s.split()))
    return st.builds(
        SituationRecord,
        latitude=st.floats(min_value=-90, max_value=90, allow_nan=False),
        longitude=st.floats(min_value=-180, max_value=180, allow_nan=False),
        situation=st.sampled_from(("Red", "Yellow", "Green")),
        timestamp=st.datetimes(
            min_value=datetime(1000, 1, 1),
            max_value=datetime(9999, 12, 31)).map(lambda d: d.strftime("%d%m%Y%H%M%S")),
        short_message=text,
        long_message=text,
        ontology=text,
    )


@settings(max_examples=200, deadline=None)
@given(_record_strategy())
def test_random_records_round_trip(rec):
    assert decode_situation(encode_situation(rec)) == rec


@settings(max_examples=100, deadline=None)
@given(st.lists(_record_strategy(), max_size=8))
def test_stored_timestamp_is_monotone_over_upserts(records):
    db = SituationDb()
    last = {}
    for rec in records:
        db.upsert(rec)
        key = rec.location_key()
        stored = db.records[key].sort_time()
        assert key not in last or stored >= last[key]
        last[key] = stored


# `&`, `<` and `>`, non-ASCII text, coordinates that round, and empty long
# messages and ontologies; the digest of their encodings is that of the
# hand-written encoder that the element table replaced
PINNED_RECORDS = [
    SituationRecord(24.8614220, 67.0094390, "Red", "20052015201820",
                    "Injured Persons in critical condition",
                    "Injured Persons in critical condition stucked. Immediate help required.",
                    "Safety"),
    SituationRecord(-33.86785, 151.20732, "Yellow", "01012020000000", "", "", ""),
    SituationRecord(0.123456789, -0.987654321, "Green", "31122099235959",
                    "fish & chips <hot> > cold", "", "R&D <ops>"),
    SituationRecord(-90.0, 180.0, "Red", "29022024120000", "Überschwemmung, Straße gesperrt",
                    "洪水 — évacuation & «aide» <urgent>", ""),
    SituationRecord(90.0, -180.0, "Green", "15061999063000", "a&b", "<LongMessage>", "&amp;"),
]


def test_encoding_bytes_are_pinned():
    data = b"".join(encode_situation(rec) for rec in PINNED_RECORDS)
    assert hashlib.sha256(data).hexdigest() == (
        "c61fc758bd202291af8b636446b28ba7490cb5a95459139b14c896503e0e2da3")


def test_record_is_frozen():
    rec = TABLE_ROWS[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.situation = "Blue"
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.latitude = 95.0
    assert (rec.situation, rec.latitude) == ("Red", 24.8614620)
