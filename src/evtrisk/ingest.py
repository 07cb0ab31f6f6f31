"""CSV loading, validation, and price-to-return transformation.

Returns follow the loss convention: a price drop is a positive value.

A date is tried with `datetime.fromisoformat` first, then with each of
`_DATE_FORMATS`; `strptime` costs about a hundred times as much per call.
Trying the formats first would accept the same strings and give the same
dates.  The one form that both `fromisoformat` and `"%Y-%m-%d"` accept is a
zero-padded `YYYY-MM-DD`, which both read as the same midnight.  The other
two formats need a `/` in the first five characters, where `fromisoformat`
never accepts one.

A file is read once, column by column.  `csv.reader` takes `_SLICE_ROWS`
records at a time, so the row table of the whole file is never held.  Each
requested column of a slice is converted in bulk: `map(float, ...)`, and one
`map` of `datetime.fromisoformat` where every date of the slice is ISO (else
`_parse_date` per date).  Prices are checked finite and positive with numpy,
and dates pairwise, the last of the slice before included, for one
UTC-offset kind and a strict increase.  Only when a slice fails a check are
its rows checked one by one to name the fault, inside the slice: its row is
the count of rows before the slice plus its place in it.  When the text
cannot be read, the records of the slice read before that point are checked
first; a CSV-syntax fault's line is the slice's first line plus the lines
those records span.

The first fault in file order is reported.  Within one row the checks run
in this order: blank, unparseable, non-finite or non-positive, date, offset
mix, not increasing.  A CSV-syntax fault counts at the record where it
starts.  Text that is not UTF-8 is reported when the 8 KiB block of the file
that holds it is decoded, so before the faults of every row that does not
end in an earlier block.
"""

from __future__ import annotations

import csv
import math
import operator
from contextlib import closing
from dataclasses import dataclass
from datetime import datetime
from itertools import count, islice

import numpy as np

from .errors import InputError

_DATE_FORMATS = ("%Y-%m-%d", "%Y/%m/%d", "%m/%d/%Y")
# Records read, converted and checked at a time.  A slice's record lists stay
# below gc's young-generation threshold (700), so reading a file sets off few
# collections; 1024-record slices set off a full one every ten or so loads.
_SLICE_ROWS = 512


def _parse_date(text: str, row: int) -> datetime:
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        pass
    for fmt in _DATE_FORMATS:
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    raise InputError(f"row {row}: cannot parse date {text!r}")


@dataclass(frozen=True)
class PriceSeries:
    """Ordered positive prices with their date labels."""

    timestamps: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "prices", prices)
        if prices.size < 2:
            raise InputError("price series needs at least 2 observations")
        if len(self.timestamps) != prices.size:
            raise InputError("timestamps and prices differ in length")
        if not np.all(np.isfinite(prices)) or np.any(prices <= 0):
            raise InputError("prices must be finite and strictly positive")


@dataclass(frozen=True)
class ReturnSeries:
    """Real-valued observations, either loss-convention log returns or raw."""

    values: np.ndarray
    kind: str = "losses"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.size < 1:
            raise InputError("return series is empty")
        if not np.all(np.isfinite(values)):
            raise InputError("return series contains non-finite values")
        if self.kind not in ("losses", "raw"):
            raise InputError(f"unknown return kind {self.kind!r}")

    def __len__(self) -> int:
        return int(self.values.size)


def _unreadable(path, exc, line: int) -> InputError:
    """The error for text that cannot be read; `line` is where its record starts."""
    if isinstance(exc, UnicodeDecodeError):
        return InputError(f"{path}: not UTF-8 text ({exc.reason})")
    return InputError(f"{path}: malformed CSV record from line {line} ({exc}); check its quotes")


def _lines(records) -> int:
    """Lines the records span: one each, plus the line breaks inside their fields."""
    return sum(1 + sum(f.count("\r") + f.count("\n") - f.count("\r\n") for f in fields)
               for fields in records)


def _column_slices(path, columns):
    """Yield, for each slice of up to `_SLICE_ROWS` records, the number of
    non-blank records before it and a list of the stripped text of each
    requested column of its non-blank records.

    Reads as `csv.DictReader` would: blank lines are skipped and not
    counted, a short record reads as blank, and a repeated header name means
    its last column.  A UTF-8 byte-order mark is dropped.  Text that is not
    UTF-8, and a quote left open or followed by more text in its field,
    raise `InputError` after the slice of the records read before them; a
    lenient reader would run an open quote on to the end of the file.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"{path}: cannot open ({exc.strerror})") from None
    with fh:
        reader = csv.reader(fh, strict=True)
        try:
            header = next(reader, None)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise _unreadable(path, exc, 1) from None
        if header is None:
            raise InputError(f"{path}: empty file (header row required)")
        index = {name: i for i, name in enumerate(header)}
        for col in columns:
            if col not in index:
                raise InputError(f"{path}: missing column {col!r} (header: {header})")
        picks = [index[col] for col in columns]
        getters = list(map(operator.itemgetter, picks))
        before, fault = 0, None
        while fault is None:
            start, records = reader.line_num, []
            try:
                records.extend(islice(reader, _SLICE_ROWS))
            except (UnicodeDecodeError, csv.Error) as exc:
                fault = _unreadable(path, exc, start + _lines(records) + 1)
            if not (records or fault):
                return
            records = list(filter(None, records))
            try:
                texts = [list(map(str.strip, map(get, records))) for get in getters]
            except IndexError:
                texts = [[r[i].strip() if i < len(r) else "" for r in records] for i in picks]
            yield before, texts
            before += len(records)
        raise fault


def _datetimes(texts) -> list[datetime]:
    """The dates of a slice; `_parse_date`'s `InputError` if one is no date."""
    try:
        return list(map(datetime.fromisoformat, texts))
    except ValueError:
        return [_parse_date(text, 0) for text in texts]


def _increasing(stamps) -> bool:
    """Whether the dates all have or all lack a UTC offset and strictly increase."""
    naive = list(map(operator.attrgetter("tzinfo"), stamps)).count(None)
    return naive in (0, len(stamps)) and all(map(operator.lt, stamps, islice(stamps, 1, None)))


def _price_fault(before: int, dates, texts, previous) -> None:
    """Raise the first fault of a price slice that failed its checks.

    Its rows are numbered on from `before`; `previous` holds the last date
    of the slice before, if there is one.
    """
    previous = previous[0] if previous else None
    for row, date_text, raw_price in zip(count(before + 1), dates, texts):
        if not raw_price:
            raise InputError(f"row {row}: blank price")
        try:
            price = float(raw_price)
        except ValueError:
            raise InputError(f"row {row}: unparseable price {raw_price!r}") from None
        if not math.isfinite(price):
            raise InputError(f"row {row}: non-finite price {price!r}")
        if price <= 0:
            raise InputError(f"row {row}: non-positive price {price!r}")
        stamp = _parse_date(date_text, row)
        if previous is not None:
            if (stamp.tzinfo is None) != (previous.tzinfo is None):
                raise InputError(f"row {row}: dates with and without a UTC offset are mixed")
            if stamp <= previous:
                raise InputError(f"row {row}: timestamps not increasing")
        previous = stamp


def load_prices(path, date_col: str = "date", price_col: str = "price") -> PriceSeries:
    """Load a validated price series from a headered CSV file.

    Rows with blank, non-finite or non-positive prices are rejected, not
    skipped: silently dropping rows would corrupt the lagged conditioning
    downstream.
    """
    timestamps: list[str] = []
    prices: list[np.ndarray] = []
    previous: list[datetime] = []
    with closing(_column_slices(path, (date_col, price_col))) as slices:
        for before, (dates, texts) in slices:
            try:
                values = np.fromiter(map(float, texts), float, len(texts))
                stamps = previous + _datetimes(dates)
                valid = np.all((values > 0) & (values < math.inf)) and _increasing(stamps)
            except (ValueError, InputError):
                valid = False
            if not valid:
                _price_fault(before, dates, texts, previous)
            timestamps += dates
            prices.append(values)
            previous = stamps[-1:]
    if len(timestamps) < 2:
        raise InputError(f"{path}: need at least 2 price rows, got {len(timestamps)}")
    return PriceSeries(tuple(timestamps), np.concatenate(prices))


def _value_fault(before: int, texts) -> None:
    """Raise the first fault of a return slice that failed its checks."""
    for row, raw in zip(count(before + 1), texts):
        if not raw:
            raise InputError(f"row {row}: blank value")
        try:
            value = float(raw)
        except ValueError:
            raise InputError(f"row {row}: unparseable value {raw!r}") from None
        if not math.isfinite(value):
            raise InputError(f"row {row}: non-finite value")


def load_returns(path, value_col: str = "return") -> ReturnSeries:
    """Load an already-computed return series; sign convention is the caller's."""
    chunks: list[np.ndarray] = []
    with closing(_column_slices(path, (value_col,))) as slices:
        for before, (texts,) in slices:
            try:
                values = np.fromiter(map(float, texts), float, len(texts))
                valid = np.all(np.isfinite(values))
            except ValueError:
                valid = False
            if not valid:
                _value_fault(before, texts)
            chunks.append(values)
    if not sum(map(len, chunks)):
        raise InputError(f"{path}: no data rows")
    return ReturnSeries(np.concatenate(chunks), kind="raw")


def to_returns(p: PriceSeries) -> ReturnSeries:
    """Loss-convention log returns: values[t] = -log(prices[t+1] / prices[t])."""
    prices = p.prices
    values = -np.log(prices[1:] / prices[:-1])
    return ReturnSeries(values, kind="losses")
