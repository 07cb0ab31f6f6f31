"""CSV loading, validation, and price-to-return transformation.

Returns follow the loss convention: a price drop is a positive value.

A date is tried with `datetime.fromisoformat` first, then with each of
`_DATE_FORMATS`; `strptime` costs about a hundred times as much per call.
Trying the formats first would accept the same strings and give the same
dates.  The one form that both `fromisoformat` and `"%Y-%m-%d"` accept is a
zero-padded `YYYY-MM-DD`, which both read as the same midnight.  The other
two formats need a `/` in the first five characters, where `fromisoformat`
never accepts one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import InputError

_DATE_FORMATS = ("%Y-%m-%d", "%Y/%m/%d", "%m/%d/%Y")


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


def load_prices(path, date_col: str = "date", price_col: str = "price") -> PriceSeries:
    """Load a validated price series from a headered CSV file.

    Rows with blank or non-positive prices are rejected, not skipped:
    silently dropping rows would corrupt the lagged conditioning downstream.
    """
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
        if not math.isfinite(price) or price <= 0:
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


def load_returns(path, value_col: str = "return") -> ReturnSeries:
    """Load an already-computed return series; sign convention is the caller's."""
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


def to_returns(p: PriceSeries) -> ReturnSeries:
    """Loss-convention log returns: values[t] = -log(prices[t+1] / prices[t])."""
    prices = p.prices
    values = -np.log(prices[1:] / prices[:-1])
    return ReturnSeries(values, kind="losses")
