"""Situation-message XML codec, per-node situation database, and table export.

The wire format is a fixed-order XML document:

    <?xml version="1.0" encoding="UTF-8"?>
    <XML>
      <Location>
        <Latitude>24.8614220</Latitude>
        <Longitude>67.0094390</Longitude>
      </Location>
      <Situation>Red</Situation>
      <TimeStamp>20052015201820</TimeStamp>
      <ShortMessage>...</ShortMessage>
      <LongMessage>...</LongMessage>
      <Ontology>Safety</Ontology>
    </XML>

Timestamps are DDMMYYYYhhmmss. Encoding is canonical (byte-stable); decoding
is whitespace-insensitive and also accepts a bare `<?xml>` prologue.
"""

import csv
import io
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import datetime

SITUATION_VALUES = ("Red", "Yellow", "Green")
SHORT_MESSAGE_MAX = 256
LONG_MESSAGE_MAX = 4096


def _escape(text: str) -> str:
    """`&`, `<` and `>` as entities, with the replacements and order of
    `xml.sax.saxutils.escape`, which would import `urllib.request` and with it
    the network stack."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


class SituationValidationError(ValueError):
    def __init__(self, fieldname: str, message: str):
        super().__init__(f"{fieldname}: {message}")
        self.fieldname = fieldname


class SituationParseError(ValueError):
    pass


def _norm7(value: float) -> float:
    return float(f"{float(value):.7f}")


def parse_timestamp(ts: str) -> datetime:
    if not re.fullmatch(r"\d{14}", ts):
        raise SituationValidationError("timestamp", f"not a 14-digit string: {ts!r}")
    try:
        return datetime.strptime(ts, "%d%m%Y%H%M%S")
    except ValueError as exc:
        raise SituationValidationError("timestamp", f"invalid calendar date-time {ts!r}") from exc


@dataclass
class SituationRecord:
    latitude: float
    longitude: float
    situation: str
    timestamp: str  # DDMMYYYYhhmmss
    short_message: str
    long_message: str = ""
    ontology: str = ""

    def __post_init__(self):
        self.latitude = _norm7(self.latitude)
        self.longitude = _norm7(self.longitude)
        self.validate()

    def validate(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise SituationValidationError("latitude", f"out of range: {self.latitude}")
        if not -180.0 <= self.longitude <= 180.0:
            raise SituationValidationError("longitude", f"out of range: {self.longitude}")
        if self.situation not in SITUATION_VALUES:
            raise SituationValidationError("situation", f"not one of {SITUATION_VALUES}: {self.situation!r}")
        parse_timestamp(self.timestamp)
        if len(self.short_message) > SHORT_MESSAGE_MAX:
            raise SituationValidationError("short_message", "longer than 256 characters")
        if len(self.long_message) > LONG_MESSAGE_MAX:
            raise SituationValidationError("long_message", "longer than 4096 characters")

    def location_key(self) -> tuple[str, str]:
        return (f"{self.latitude:.7f}", f"{self.longitude:.7f}")

    def sort_time(self) -> datetime:
        return parse_timestamp(self.timestamp)


def encode_situation(record: SituationRecord) -> bytes:
    """Canonical byte encoding; LongMessage omitted when empty."""
    record.validate()
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<XML>",
        "  <Location>",
        f"    <Latitude>{record.latitude:.7f}</Latitude>",
        f"    <Longitude>{record.longitude:.7f}</Longitude>",
        "  </Location>",
        f"  <Situation>{record.situation}</Situation>",
        f"  <TimeStamp>{record.timestamp}</TimeStamp>",
        f"  <ShortMessage>{_escape(record.short_message)}</ShortMessage>",
    ]
    if record.long_message:
        lines.append(f"  <LongMessage>{_escape(record.long_message)}</LongMessage>")
    lines.append(f"  <Ontology>{_escape(record.ontology)}</Ontology>")
    lines.append("</XML>")
    return ("\n".join(lines) + "\n").encode("utf-8")


_MANDATORY = ("Location", "Situation", "TimeStamp", "ShortMessage", "Ontology")


def decode_situation(data: bytes) -> SituationRecord:
    text = data.decode("utf-8")
    # Fig-7-style bare prologue is not well-formed XML; accept it anyway.
    text = re.sub(r"^\s*<\?xml\s*\?*>", "", text, count=1)
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise SituationParseError(f"malformed markup: {exc}") from exc
    if root.tag != "XML":
        raise SituationParseError(f"expected root <XML>, got <{root.tag}>")

    def grab(parent, tag):
        el = parent.find(tag)
        if el is None:
            raise SituationValidationError(tag, "missing mandatory element")
        return (el.text or "").strip()

    for tag in _MANDATORY:
        if root.find(tag) is None:
            raise SituationValidationError(tag, "missing mandatory element")
    loc = root.find("Location")
    lat_text = grab(loc, "Latitude")
    lon_text = grab(loc, "Longitude")
    try:
        lat = float(lat_text)
        lon = float(lon_text)
    except ValueError as exc:
        raise SituationValidationError("Location", f"non-numeric coordinate: {exc}") from exc
    long_el = root.find("LongMessage")
    long_message = (long_el.text or "").strip() if long_el is not None else ""
    return SituationRecord(
        latitude=lat,
        longitude=lon,
        situation=grab(root, "Situation"),
        timestamp=grab(root, "TimeStamp"),
        short_message=grab(root, "ShortMessage"),
        long_message=long_message,
        ontology=grab(root, "Ontology"),
    )


@dataclass
class SituationDb:
    records: dict = field(default_factory=dict)  # (lat7, lon7) -> SituationRecord

    def upsert(self, record: SituationRecord) -> bool:
        """Insert, or replace only when the incoming timestamp is strictly newer."""
        record.validate()
        key = record.location_key()
        existing = self.records.get(key)
        if existing is None or record.sort_time() > existing.sort_time():
            self.records[key] = record
            return True
        return False

    def __len__(self):
        return len(self.records)


def export_situation_table(db: SituationDb) -> list[tuple[str, str, str, str]]:
    """Rows (Location, Situation, TimeStamp, ShortMessage), newest first."""
    ordered = sorted(db.records.values(),
                     key=lambda r: (r.sort_time(), r.location_key()), reverse=True)
    return [(f"{r.latitude:.7f}, {r.longitude:.7f}", r.situation, r.timestamp, r.short_message)
            for r in ordered]


TABLE_HEADER = ("Location", "Situation", "TimeStamp", "ShortMessage")


def situation_table_csv(db: SituationDb) -> str:
    r"""The table as CSV with "\n" line ends. `csv.writer` quotes a field that
    holds a character of its line terminator, so each row is written with
    "\r\n", which also quotes a bare CR (`csv.reader` ends a row there), and
    that line end is then replaced by "\n"."""
    out, row_out = io.StringIO(), io.StringIO()
    writer = csv.writer(row_out, lineterminator="\r\n")
    for row in [("location", "situation", "timestamp", "short_message"),
                *export_situation_table(db)]:
        writer.writerow(row)
        out.write(row_out.getvalue()[:-2] + "\n")
        row_out.seek(0)
        row_out.truncate()
    return out.getvalue()


def situation_table_text(db: SituationDb) -> str:
    rows = [TABLE_HEADER] + export_situation_table(db)
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    lines = ["  ".join(row[i].ljust(widths[i]) for i in range(4)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"
