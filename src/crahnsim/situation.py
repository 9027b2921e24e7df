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
is whitespace-insensitive and also accepts a bare `<?xml>` prologue. One
table of (record field, element) pairs lists, for both, the elements after
<Location>. Records are checked once, when made, and frozen
(`SituationRecord`); `load_situation_db` reads a database's CSV form.
"""

import csv
import io
import re
import xml.etree.ElementTree as ET
from dataclasses import MISSING, dataclass, field, fields
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


@dataclass(frozen=True)
class SituationRecord:
    """A checked situation message. The coordinates are rounded to the wire's
    seven decimals and every field is checked once, on creation; a record
    cannot change afterwards, so one that exists is valid."""
    latitude: float
    longitude: float
    situation: str
    timestamp: str  # DDMMYYYYhhmmss
    short_message: str
    long_message: str = ""
    ontology: str = ""

    def __post_init__(self):
        object.__setattr__(self, "latitude", _norm7(self.latitude))
        object.__setattr__(self, "longitude", _norm7(self.longitude))
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


# (record field, XML element) of each element after <Location>, in wire order.
# Every element is mandatory but one, which is left out when empty.
_ELEMENTS = (("situation", "Situation"), ("timestamp", "TimeStamp"),
             ("short_message", "ShortMessage"), ("long_message", "LongMessage"),
             ("ontology", "Ontology"))
_OMITTED_WHEN_EMPTY = "long_message"


def encode_situation(record: SituationRecord) -> bytes:
    """Canonical byte encoding."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<XML>",
        "  <Location>",
        f"    <Latitude>{record.latitude:.7f}</Latitude>",
        f"    <Longitude>{record.longitude:.7f}</Longitude>",
        "  </Location>",
    ]
    for name, tag in _ELEMENTS:
        value = getattr(record, name)
        if value or name != _OMITTED_WHEN_EMPTY:
            lines.append(f"  <{tag}>{_escape(value)}</{tag}>")
    lines.append("</XML>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _element_text(parent: ET.Element, tag: str) -> str:
    el = parent.find(tag)
    if el is None:
        raise SituationValidationError(tag, "missing mandatory element")
    return (el.text or "").strip()


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
    loc = root.find("Location")
    if loc is None:
        raise SituationValidationError("Location", "missing mandatory element")
    texts = {name: _element_text(root, tag) for name, tag in _ELEMENTS
             if name != _OMITTED_WHEN_EMPTY or root.find(tag) is not None}
    lat_text = _element_text(loc, "Latitude")
    lon_text = _element_text(loc, "Longitude")
    try:
        lat = float(lat_text)
        lon = float(lon_text)
    except ValueError as exc:
        raise SituationValidationError("Location", f"non-numeric coordinate: {exc}") from exc
    return SituationRecord(latitude=lat, longitude=lon, **texts)


@dataclass
class SituationDb:
    records: dict = field(default_factory=dict)  # (lat7, lon7) -> SituationRecord

    def upsert(self, record: SituationRecord) -> bool:
        """Insert, or replace only when the incoming timestamp is strictly newer."""
        key = record.location_key()
        existing = self.records.get(key)
        if existing is None or record.sort_time() > existing.sort_time():
            self.records[key] = record
            return True
        return False

    def __len__(self):
        return len(self.records)


def load_situation_db(path: str) -> SituationDb:
    """The database of a CSV file with a header row and one record a row.
    Its columns are the record's fields, read by name: those without a
    default are required, and the coordinates are read with `float`. A bad
    header, row or field raises ValueError; a row's message names its line."""
    columns = fields(SituationRecord)
    required = [col.name for col in columns if col.default is MISSING]
    db = SituationDb()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [name for name in required
                                         if name not in reader.fieldnames]:
            raise SituationValidationError(
                "header", f"situation db CSV needs columns {required}")
        for row in reader:
            line = f"line {reader.line_num}"
            # a short row reads its missing fields as None, a long one keeps
            # the extra fields under the key None
            if None in row or None in row.values():
                raise SituationValidationError(
                    line, f"row does not have the header's {len(reader.fieldnames)} fields")
            try:
                record = SituationRecord(**{
                    col.name: float(row[col.name]) if col.type is float else row[col.name]
                    for col in columns if col.name in row})
            except ValueError as exc:  # a bad number or a SituationValidationError
                raise SituationValidationError(line, str(exc)) from exc
            db.upsert(record)
    return db


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
