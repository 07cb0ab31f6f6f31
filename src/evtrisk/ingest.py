"""CSV loading, validation, and price-to-return transformation.

Returns follow the loss convention: a price drop is a positive value.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import InputError

_DATE_FORMATS = ("%Y-%m-%d", "%Y/%m/%d", "%m/%d/%Y")


def _parse_date(text: str, row: int) -> datetime:
    for fmt in _DATE_FORMATS:
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise InputError(f"row {row}: cannot parse date {text!r}") from None


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
    """Yield (data_row_number, {col: text}) for the requested columns."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: cannot open ({exc.strerror})") from None
    with fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None:
            raise InputError(f"{path}: empty file (header row required)")
        for col in columns:
            if col not in header:
                raise InputError(f"{path}: missing column {col!r} (header: {header})")
        for i, record in enumerate(reader, start=1):
            yield i, {col: (record.get(col) or "").strip() for col in columns}


def load_prices(path, date_col: str = "date", price_col: str = "price") -> PriceSeries:
    """Load a validated price series from a headered CSV file.

    Rows with blank or non-positive prices are rejected, not skipped:
    silently dropping rows would corrupt the lagged conditioning downstream.
    """
    timestamps: list[str] = []
    prices: list[float] = []
    previous: datetime | None = None
    for row, rec in _read_rows(path, (date_col, price_col)):
        raw_price = rec[price_col]
        if not raw_price:
            raise InputError(f"row {row}: blank price")
        try:
            price = float(raw_price)
        except ValueError:
            raise InputError(f"row {row}: unparseable price {raw_price!r}") from None
        if not np.isfinite(price) or price <= 0:
            raise InputError(f"row {row}: non-positive price {price!r}")
        stamp = _parse_date(rec[date_col], row)
        if previous is not None and stamp <= previous:
            raise InputError(f"row {row}: timestamps not increasing")
        previous = stamp
        timestamps.append(rec[date_col])
        prices.append(price)
    if len(prices) < 2:
        raise InputError(f"{path}: need at least 2 price rows, got {len(prices)}")
    return PriceSeries(tuple(timestamps), np.array(prices))


def load_returns(path, value_col: str = "return") -> ReturnSeries:
    """Load an already-computed return series; sign convention is the caller's."""
    values: list[float] = []
    for row, rec in _read_rows(path, (value_col,)):
        raw = rec[value_col]
        if not raw:
            raise InputError(f"row {row}: blank value")
        try:
            value = float(raw)
        except ValueError:
            raise InputError(f"row {row}: unparseable value {raw!r}") from None
        if not np.isfinite(value):
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
