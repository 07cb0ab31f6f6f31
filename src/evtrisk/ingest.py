"""CSV loading, validation, and price-to-return transformation.

Returns follow the loss convention: a price drop is a positive value.

A date is tried with `datetime.fromisoformat` first, then with each of
`_DATE_FORMATS`; `strptime` costs about a hundred times as much per call.
Trying the formats first would accept the same strings and give the same
dates.  The one form that both `fromisoformat` and `"%Y-%m-%d"` accept is a
zero-padded `YYYY-MM-DD`, which both read as the same midnight.  The other
two formats need a `/` in the first five characters, where `fromisoformat`
never accepts one.

A file is read column by column.  `csv.reader` takes `_SLICE_ROWS` records
at a time, so the row table of the whole file is never held.  Each requested
column of a slice is converted in bulk: `map(float, ...)`, and one `map` of
`datetime.fromisoformat` where every date of the slice is ISO (else
`_parse_date` per date).  Prices are checked finite and positive with numpy,
and dates pairwise, the last of the slice before included, for one
UTC-offset kind and a strict increase.  Only when a slice fails a check, or
the text cannot be read, is the file read again row by row from its start to
name the fault.

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
from itertools import islice

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


def _read_rows(path, columns):
    """Yield (data_row_number, [text of each requested column]).

    Reads as `csv.DictReader` would: blank lines are skipped and not
    counted, a short row reads as blank, and a repeated header name means
    its last column.  Text that is not UTF-8, and a quote left open or
    followed by more text in its field, raise `InputError`; a lenient
    reader would run an open quote on to the end of the file.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: cannot open ({exc.strerror})") from None
    with fh:
        reader = csv.reader(fh, strict=True)
        done = 0
        try:
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: empty file (header row required)")
            index = {name: i for i, name in enumerate(header)}
            for col in columns:
                if col not in index:
                    raise InputError(f"{path}: missing column {col!r} (header: {header})")
            picks = [index[col] for col in columns]
            row = 0
            done = reader.line_num
            for fields in reader:
                done = reader.line_num
                if not fields:
                    continue
                row += 1
                yield row, [fields[i].strip() if i < len(fields) else "" for i in picks]
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise InputError(
                f"{path}: malformed CSV record from line {done + 1} ({exc}); check its quotes"
            ) from None


class _Fault(Exception):
    """The column-wise reading met a fault; the row scan names it."""


def _column_slices(path, columns):
    """Yield, for each slice of up to `_SLICE_ROWS` non-blank records, one
    list of the stripped text of each requested column.

    Raises `_Fault` wherever `_read_rows` raises, and at a record too short
    to hold every requested column, whose blank field no loader accepts.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, strict=True)
            index = {name: i for i, name in enumerate(next(reader, ()))}
            if not all(col in index for col in columns):
                raise _Fault
            picks = [operator.itemgetter(index[col]) for col in columns]
            while records := list(islice(reader, _SLICE_ROWS)):
                records = list(filter(None, records))
                yield [list(map(str.strip, map(pick, records))) for pick in picks]
    except (OSError, UnicodeDecodeError, csv.Error, IndexError):
        raise _Fault from None


def _floats(texts) -> np.ndarray:
    try:
        return np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        raise _Fault from None


def _datetimes(texts) -> list[datetime]:
    try:
        return list(map(datetime.fromisoformat, texts))
    except ValueError:
        pass
    try:
        return [_parse_date(text, 0) for text in texts]
    except InputError:          # the row scan names the row
        raise _Fault from None


def _increasing(stamps) -> bool:
    """Whether the dates all have or all lack a UTC offset and strictly increase."""
    naive = list(map(operator.attrgetter("tzinfo"), stamps)).count(None)
    return naive in (0, len(stamps)) and all(map(operator.lt, stamps, islice(stamps, 1, None)))


def _bulk_prices(path, date_col: str, price_col: str) -> PriceSeries:
    timestamps: list[str] = []
    prices: list[np.ndarray] = []
    previous: list[datetime] = []
    with closing(_column_slices(path, (date_col, price_col))) as slices:
        for dates, texts in slices:
            values = _floats(texts)
            stamps = previous + _datetimes(dates)
            if not (np.all((values > 0) & (values < math.inf)) and _increasing(stamps)):
                raise _Fault
            timestamps += dates
            prices.append(values)
            previous = stamps[-1:]
    if len(timestamps) < 2:
        raise _Fault
    return PriceSeries(tuple(timestamps), np.concatenate(prices))


def _scan_prices(path, date_col: str, price_col: str) -> PriceSeries:
    """`load_prices` row by row: raises at the first fault in file order."""
    timestamps: list[str] = []
    prices: list[float] = []
    previous: datetime | None = None
    for row, (date_text, raw_price) in _read_rows(path, (date_col, price_col)):
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
        timestamps.append(date_text)
        prices.append(price)
    if len(prices) < 2:
        raise InputError(f"{path}: need at least 2 price rows, got {len(prices)}")
    return PriceSeries(tuple(timestamps), np.array(prices))


def load_prices(path, date_col: str = "date", price_col: str = "price") -> PriceSeries:
    """Load a validated price series from a headered CSV file.

    Rows with blank, non-finite or non-positive prices are rejected, not
    skipped: silently dropping rows would corrupt the lagged conditioning
    downstream.
    """
    try:
        return _bulk_prices(path, date_col, price_col)
    except _Fault:
        pass
    return _scan_prices(path, date_col, price_col)


def _bulk_returns(path, value_col: str) -> ReturnSeries:
    chunks: list[np.ndarray] = []
    with closing(_column_slices(path, (value_col,))) as slices:
        for (texts,) in slices:
            values = _floats(texts)
            if not np.all(np.isfinite(values)):
                raise _Fault
            chunks.append(values)
    if not sum(map(len, chunks)):
        raise _Fault
    return ReturnSeries(np.concatenate(chunks), kind="raw")


def _scan_returns(path, value_col: str) -> ReturnSeries:
    """`load_returns` row by row: raises at the first fault in file order."""
    values: list[float] = []
    for row, (raw,) in _read_rows(path, (value_col,)):
        if not raw:
            raise InputError(f"row {row}: blank value")
        try:
            value = float(raw)
        except ValueError:
            raise InputError(f"row {row}: unparseable value {raw!r}") from None
        if not math.isfinite(value):
            raise InputError(f"row {row}: non-finite value")
        values.append(value)
    if not values:
        raise InputError(f"{path}: no data rows")
    return ReturnSeries(np.array(values), kind="raw")


def load_returns(path, value_col: str = "return") -> ReturnSeries:
    """Load an already-computed return series; sign convention is the caller's."""
    try:
        return _bulk_returns(path, value_col)
    except _Fault:
        pass
    return _scan_returns(path, value_col)


def to_returns(p: PriceSeries) -> ReturnSeries:
    """Loss-convention log returns: values[t] = -log(prices[t+1] / prices[t])."""
    prices = p.prices
    values = -np.log(prices[1:] / prices[:-1])
    return ReturnSeries(values, kind="losses")
