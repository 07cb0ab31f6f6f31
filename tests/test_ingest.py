import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtrisk.errors import InputError
from evtrisk.ingest import (
    PriceSeries,
    ReturnSeries,
    _parse_date,
    _read_rows,
    load_prices,
    load_returns,
    to_returns,
)
from oracles import parse_date_oracle, read_rows_oracle


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
