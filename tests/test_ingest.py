import datetime
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtrisk.errors import InputError
from evtrisk.ingest import (
    _SLICE_ROWS,
    PriceSeries,
    ReturnSeries,
    _parse_date,
    _read_rows,
    load_prices,
    load_returns,
    to_returns,
)
from oracles import load_prices_oracle, load_returns_oracle, parse_date_oracle, read_rows_oracle


def write_csv(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_prices_basic(tmp_path):
    path = write_csv(tmp_path, "date,price\n2020-01-01,100\n2020-01-02,101\n2020-01-03,99\n")
    series = load_prices(path)
    assert len(series.prices) == 3
    assert series.timestamps[0] == "2020-01-01"
    np.testing.assert_allclose(series.prices, [100.0, 101.0, 99.0])


def test_load_prices_zero_price_names_row(tmp_path):
    path = write_csv(tmp_path, "date,price\n2020-01-01,100\n2020-01-02,0\n2020-01-03,99\n")
    with pytest.raises(InputError, match="row 2"):
        load_prices(path)


def test_load_prices_shuffled_dates(tmp_path):
    path = write_csv(tmp_path, "date,price\n2020-01-03,100\n2020-01-01,101\n")
    with pytest.raises(InputError, match="timestamps not increasing"):
        load_prices(path)


def test_load_prices_blank_price_rejected(tmp_path):
    path = write_csv(tmp_path, "date,price\n2020-01-01,100\n2020-01-02,\n2020-01-03,99\n")
    with pytest.raises(InputError, match="row 2: blank price"):
        load_prices(path)


def test_load_prices_missing_column(tmp_path):
    path = write_csv(tmp_path, "date,close\n2020-01-01,100\n")
    with pytest.raises(InputError, match="missing column 'price'"):
        load_prices(path)


@pytest.mark.parametrize("text", ["inf", "nan", "-inf", "Infinity"])
def test_load_prices_non_finite_price_is_named(tmp_path, text):
    path = write_csv(tmp_path, f"date,price\n2020-01-01,100\n2020-01-02,{text}\n")
    with pytest.raises(InputError, match=rf"^row 2: non-finite price {float(text)!r}$"):
        load_prices(path)


def test_load_prices_unparseable(tmp_path):
    path = write_csv(tmp_path, "date,price\n2020-01-01,abc\n2020-01-02,1\n")
    with pytest.raises(InputError, match="row 1"):
        load_prices(path)


def test_load_prices_custom_columns(tmp_path):
    path = write_csv(tmp_path, "day,close\n2020-01-01,10\n2020-01-02,11\n")
    series = load_prices(path, date_col="day", price_col="close")
    assert series.prices[1] == 11.0


def test_load_returns(tmp_path):
    path = write_csv(tmp_path, "return\n0.01\n-0.02\n0.005\n", name="rets.csv")
    series = load_returns(path)
    assert series.kind == "raw"
    np.testing.assert_allclose(series.values, [0.01, -0.02, 0.005])


def test_to_returns_flat_prices():
    series = to_returns(PriceSeries(("a", "b"), np.array([100.0, 100.0])))
    assert series.kind == "losses"
    np.testing.assert_allclose(series.values, [0.0])


def test_to_returns_price_drop_is_positive_loss():
    series = to_returns(PriceSeries(("a", "b"), np.array([100.0, 90.0])))
    np.testing.assert_allclose(series.values, [0.105360516], atol=1e-9)


def test_to_returns_hand_values():
    series = to_returns(PriceSeries(("a", "b", "c"), np.array([100.0, 110.0, 99.0])))
    np.testing.assert_allclose(series.values, [-0.0953102, 0.1053605], atol=1e-7)


def test_price_series_rejects_nonpositive():
    with pytest.raises(InputError):
        PriceSeries(("a", "b"), np.array([1.0, -2.0]))


def test_return_series_rejects_nan():
    with pytest.raises(InputError):
        ReturnSeries(np.array([0.1, np.nan]))


@given(
    st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=2, max_size=40),
)
@settings(max_examples=50, deadline=None)
def test_round_trip_reconstruction(prices):
    arr = np.asarray(prices)
    stamps = tuple(f"2020-01-{i + 1:02d}" for i in range(arr.size))
    returns = to_returns(PriceSeries(stamps, arr))
    rebuilt = arr[0] * np.exp(-np.cumsum(returns.values))
    np.testing.assert_allclose(rebuilt, arr[1:], rtol=1e-12)
    assert returns.values.size == arr.size - 1


@pytest.mark.parametrize("content, match", [
    (b"date,price\n2000-01-03,100\n2000-01-04,10\xe9\n", r"prices\.csv: not UTF-8 text"),
    (b'date,price\n2000-01-03,100\n"2000-01-04,101\n2000-01-05,102\n',
     r"prices\.csv: malformed CSV record from line 3 \(unexpected end of data\)"),
    (b'date,price\n2000-01-03,100\n"2000-01-04"x,101\n',
     r"prices\.csv: malformed CSV record from line 3"),
], ids=["not-utf8", "open-quote", "text-after-quote"])
def test_load_prices_names_file_for_unreadable_text(tmp_path, content, match):
    path = tmp_path / "prices.csv"
    path.write_bytes(content)
    with pytest.raises(InputError, match=match):
        load_prices(path)


def test_load_prices_rejects_mixed_utc_offsets(tmp_path):
    for first, second in (("2000-01-03", "2000-01-04T00:00+01:00"),
                          ("2000-01-03T00:00+01:00", "2000-01-04")):
        path = write_csv(tmp_path, f"date,price\n{first},1\n{second},2\n")
        with pytest.raises(InputError, match="row 2: dates with and without a UTC offset"):
            load_prices(path)
    path = write_csv(tmp_path, "date,price\n2000-01-03T00:00+01:00,1\n2000-01-04T00:00Z,2\n")
    assert load_prices(path).timestamps[1] == "2000-01-04T00:00Z"


def _outcome(call):
    """What a call gives: ("ok", exact repr) or (exception type, message)."""
    try:
        return "ok", repr(call())
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _num(lo, hi, widths):
    return st.builds(lambda v, w: f"{v:0{w}d}", st.integers(lo, hi), st.sampled_from(widths))


_year, _month, _day = _num(0, 9999, (4, 4, 1)), _num(0, 13, (1, 2)), _num(0, 32, (1, 2))


_iso_date = st.builds("{:04d}-{:02d}-{:02d}".format,
                      st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32))
_time = st.one_of(
    st.sampled_from(["", "00", "00:00", "23:59:59", "12:30:00.5", "12:30:00.123456", "1230", "24:00"]),
    st.builds("{:02d}:{:02d}".format, st.integers(0, 25), st.integers(0, 61)),
)
_offset = st.sampled_from(["", "Z", "+01:00", "-05:30", "+0100", "+14:00", "-00:00", "+01:00:30"])
_date_text = st.one_of(
    _iso_date,                                                               # fromisoformat and %Y-%m-%d
    st.builds("{}-{}-{}".format, _year, _month, _day),                       # unpadded Y-M-D
    st.builds("{}/{}/{}".format, _year, _month, _day),                       # %Y/%m/%d
    st.builds("{}/{}/{}".format, _month, _day, _year),                       # %m/%d/%Y
    st.builds("{}{}{}{}".format, _iso_date, st.sampled_from(["T", " ", "/", "x", "-", ""]),
              _time, _offset),                                               # ISO date-times
    st.builds("{}{}".format, st.sampled_from(["2020", "2020-", "20200101", "2020-W01", "2020W01"]),
              st.sampled_from(["", "-1", "1", "-13", "T10", "-01-01"])),     # basic and week forms
    st.text(alphabet="0123456789-/:+ TWZ.", max_size=22),
    st.text(max_size=12),
)


@given(_date_text)
@settings(max_examples=500, deadline=None)
def test_parse_date_matches_strptime_first_oracle(text):
    assert _outcome(lambda: _parse_date(text, 7)) == _outcome(lambda: parse_date_oracle(text, 7))


_CSV_CASES = {
    "plain": "date,price\n2020-01-01,1\n2020-01-02,2\n",
    "blank-lines": "date,price\n\n2020-01-01,1\n\n\n2020-01-02,2\n\n",
    "blank-first-line": "\ndate,price\n2020-01-01,1\n",
    "whitespace-lines": "date,price\n \n,\n2020-01-01,1\n",
    "short-rows": "date,price\n2020-01-01\n2020-01-02,\n2020-01-03,3\n",
    "extra-fields": "date,price\n2020-01-01,1,x,y\n2020-01-02,2,\n",
    "repeated-header": "price,date,price\n1,2020-01-01,2\n3,2020-01-02\n",
    "quoted-fields": 'date,price\n"2020-01-01"," 1.5 "\n"2020-01-02","2,5"\n"2020-\n01-03",""\n',
    "crlf": "date,price\r\n2020-01-01,1\r\n\r\n2020-01-02,2\r\n",
    "missing-column": "date,close\n2020-01-01,1\n",
    "header-only": "date,price\n",
    "empty-file": "",
}


@pytest.mark.parametrize("columns", [("date", "price"), ("price",), ("price", "date")])
@pytest.mark.parametrize("case", sorted(_CSV_CASES))
def test_read_rows_matches_dictreader_oracle(tmp_path, case, columns):
    path = write_csv(tmp_path, _CSV_CASES[case])
    fast = _outcome(lambda: [(row, tuple(texts)) for row, texts in _read_rows(path, columns)])
    slow = _outcome(lambda: [(row, tuple(rec[col] for col in columns))
                             for row, rec in read_rows_oracle(path, columns)])
    assert fast == slow


# Whole files against the row-by-row loaders in tests/oracles.py: the same
# series bit for bit, or the same error text.

_HEADERS = (                        # requested columns are "date" and "price"
    ("date", "price"),
    ("price", "date"),
    ("date", "price", "volume"),    # rows may stop before "volume"
    ("id", "date", "note", "price"),
    ("price", "date", "price"),     # a repeated name reads its last column
)
_DATE_FORMS = {
    "iso": lambda d: d.strftime("%Y-%m-%d"),
    "slash": lambda d: d.strftime("%Y/%m/%d"),
    "us": lambda d: d.strftime("%m/%d/%Y"),
    "unpadded": lambda d: f"{d.year}-{d.month}-{d.day}",
    "offset": lambda d: d.strftime("%Y-%m-%dT%H:%M+01:00"),
    "zulu": lambda d: d.strftime("%Y-%m-%dT%H:%MZ"),
}
_ROW_FAULTS = {                     # price or value text, date text
    "blank": (["", " "], None),
    "unparseable": (["abc", "1.2.3", "--1", "1,5"], None),
    "non-finite": (["inf", "nan", "-inf", "Infinity", "1e999"], None),
    "non-positive": (["0", "-1.5", "-0", "0.0"], None),
    "date": (None, ["2020-02-30", "someday", "", "2020-13-01T00:00Z"]),
    "offset-mix": (None, None),
    "not-increasing": (None, None),
}
_SYNTAX_FAULTS = ("short-row", "open-quote", "text-after-quote")
_FILE_FAULTS = ("not-utf8", "missing-column", "empty-file", "too-few-rows")


def _quote(text):
    return '"' + text.replace('"', '""') + '"'


@st.composite
def _csv_files(draw, prices, faults, min_rows=0, max_rows=25, fault_from=0):
    """Bytes of a headered CSV file for `load_prices` (prices=True) or
    `load_returns`, with `faults` faults: 0, 1 or 2 in data rows from
    `fault_from` (0-based) on, or "file" for one of `_FILE_FAULTS`."""
    file_fault = draw(st.sampled_from(_FILE_FAULTS)) if faults == "file" else None
    if file_fault == "too-few-rows":
        n = draw(st.integers(0, 1))
    else:
        n = draw(st.integers(max(min_rows, 2 if prices else 1), max(max_rows, min_rows)))
    if prices:
        header = list(draw(st.sampled_from(_HEADERS)))
        form = draw(st.sampled_from(sorted(_DATE_FORMS)))
    else:
        header = draw(st.sampled_from([["return"], ["x", "return"], ["return", "x", "return"]]))
    value_col = "price" if prices else "return"
    last = {name: i for i, name in enumerate(header)}
    needed = max(last[name] for name in (("date", value_col) if prices else (value_col,)))

    # Per-row choices come from one drawn seed, so a long file is a small example.
    rnd = random.Random(draw(st.integers(0, 2**32)))
    stamps = [datetime.datetime(1995, 1, 1) + datetime.timedelta(days=rnd.randrange(9000))]
    for _ in range(n - 1):
        stamps.append(stamps[-1] + datetime.timedelta(days=rnd.randint(1, 3)))
    lo, hi = (-3.0, 6.0) if prices else (-1.0, 1.0)
    values = [str(rnd.randint(1, 999)) if rnd.random() < 0.2
              else repr(10**rnd.uniform(lo, hi) if prices else rnd.uniform(lo, hi))
              for _ in range(n)]
    rows = []
    for i in range(n):
        fields = {name: "x" for name in header}
        if prices:
            fields["date"] = _DATE_FORMS[form](stamps[i])
        fields[value_col] = values[i]
        rows.append([fields[name] if last[name] == j else "junk" for j, name in enumerate(header)])

    kinds = list(_ROW_FAULTS) if prices else ["blank", "unparseable", "non-finite"]
    kinds += _SYNTAX_FAULTS
    placed = []
    for _ in range(faults if isinstance(faults, int) else 0):
        if n <= fault_from:
            break
        i, kind = draw(st.integers(fault_from, n - 1)), draw(st.sampled_from(kinds))
        placed.append((i, kind))
        texts, dates = _ROW_FAULTS.get(kind, (None, None))
        if texts:
            rows[i][last[value_col]] = draw(st.sampled_from(texts))
        elif dates:
            rows[i][last["date"]] = draw(st.sampled_from(dates))
        elif kind == "offset-mix":
            other = "iso" if form in ("offset", "zulu") else "offset"
            rows[i][last["date"]] = _DATE_FORMS[other](stamps[i])
        elif kind == "not-increasing":
            j = draw(st.sampled_from([j for j in (i - 1, i + 1, i - 2) if 0 <= j < n]))
            rows[i][last["date"]] = rows[j][last["date"]]

    lines = []
    for i, fields in enumerate(rows):
        fields = [f" {f} " if rnd.random() < 0.1 else f for f in fields]
        fields = [_quote(f) if rnd.random() < 0.15 or "," in f else f for f in fields]
        if header[-1] == "volume" and rnd.random() < 0.5:
            fields = fields[:-1]                                    # short, but complete
        for at, kind in placed:
            if at != i or not fields:       # a row cut to no fields has none to quote
                continue
            if kind == "short-row":
                fields = fields[:needed]
            elif kind == "open-quote":
                fields[0] = '"' + fields[0]
            elif kind == "text-after-quote":
                fields[0] = _quote(fields[0]) + "x"
        lines.append(",".join(fields))
    if file_fault == "missing-column":
        header[last[value_col]] = "close"
    lines.insert(0, ",".join(header))
    for _ in range(draw(st.integers(0, 3))):                      # blank lines
        lines.insert(draw(st.integers(1, len(lines))), "")
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))
    data = text.encode("utf-8")
    if file_fault == "not-utf8" and n:
        at = draw(st.integers(len(lines[0]) + 1, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return b"" if file_fault == "empty-file" else data


def _loaded(load, data):
    """The series a loader gives, as bytes, or the text of its InputError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(data)
        try:
            series = load(path)
        except InputError as exc:
            return "error", str(exc).replace(str(path), "<path>")
    if isinstance(series, PriceSeries):
        return "ok", series.timestamps, series.prices.dtype, series.prices.tobytes()
    return "ok", series.kind, series.values.dtype, series.values.tobytes()


_FAULTS = st.sampled_from([0, 1, 2, "file"])


@given(_FAULTS.flatmap(lambda f: _csv_files(True, f)))
@settings(max_examples=400, deadline=None)
def test_load_prices_matches_row_oracle(data):
    assert _loaded(load_prices, data) == _loaded(load_prices_oracle, data)


@given(_FAULTS.flatmap(lambda f: _csv_files(False, f)))
@settings(max_examples=250, deadline=None)
def test_load_returns_matches_row_oracle(data):
    assert _loaded(load_returns, data) == _loaded(load_returns_oracle, data)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_loaders_match_row_oracle_past_one_slice(data):
    """Files longer than one read slice, valid or with one fault, which
    lies in the last slice."""
    prices = data.draw(st.booleans())
    n = data.draw(st.integers(_SLICE_ROWS + 1, _SLICE_ROWS + 200))
    faults = data.draw(st.sampled_from([0, 1]))
    blob = data.draw(_csv_files(prices, faults, min_rows=n, max_rows=n, fault_from=_SLICE_ROWS))
    load, oracle = ((load_prices, load_prices_oracle) if prices
                    else (load_returns, load_returns_oracle))
    assert _loaded(load, blob) == _loaded(oracle, blob)


@pytest.mark.parametrize("last, message", [
    ("2000-01-03", "timestamps not increasing"),
    ("1999-12-31T00:00+01:00", "dates with and without a UTC offset are mixed"),
])
def test_load_prices_checks_dates_across_slices(tmp_path, last, message):
    day = datetime.date(1990, 1, 1)
    lines = [f"{day + datetime.timedelta(days=i)},1" for i in range(_SLICE_ROWS - 1)]
    lines += ["2000-01-03,2", f"{last},3"]
    path = write_csv(tmp_path, "date,price\n" + "\n".join(lines) + "\n")
    with pytest.raises(InputError, match=f"^row {_SLICE_ROWS + 1}: {message}$"):
        load_prices(path)
