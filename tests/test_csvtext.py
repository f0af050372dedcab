"""The CSV text kernel against ``repr``, bit for bit.

Each family of doubles is written as one CSV column and compared with
``repr`` of every entry, over more than 4 million doubles in all: the
kernel's fixed-notation range, the entries it hands to ``repr()`` and the
edges between the two.
"""

import math

import numpy as np
import pytest

from borrowoc._csvtext import csv_rows

CHUNK = 1 << 16


def assert_repr_text(values):
    """``csv_rows`` of ``values`` as one column, a chunk at a time, equals
    the ``repr`` of each value on its own line."""
    for lo in range(0, len(values), CHUNK):
        col = values[lo:lo + CHUNK]
        got = csv_rows([col])
        want = ("\n".join(map(repr, col.tolist())) + "\n").encode()
        if got != want:
            pairs = zip(got.decode().split("\n"), want.decode().split("\n"))
            bad = next((g, w) for g, w in pairs if g != w)
            pytest.fail(f"kernel wrote {bad[0]!r} where repr gives {bad[1]!r}")


def neighbours(points):
    """Each point and its four nearest doubles on either side."""
    x = np.array(sorted(set(points)), dtype=np.float64)
    out = [x]
    for direction in (np.inf, -np.inf):
        y = x
        for _ in range(4):
            y = np.nextafter(y, direction)
            out.append(y)
    return np.concatenate(out)


def families():
    rng = np.random.default_rng(20240601)
    n = 400_000
    scale = 10.0 ** rng.integers(-20, 21, n)
    powers = ([10.0 ** k for k in range(-5, 18)]
              + [2.0 ** k for k in range(-17, 57)])
    decimals = rng.integers(1, 10 ** 6, n) / 10.0 ** rng.integers(0, 10, n)
    # about 100 per biased exponent: 97 % of them lie outside the kernel's
    # exponent range, where both sides run repr().  All 1,200,000 are drawn,
    # so that the families after this one keep their draws.
    bits = rng.integers(0, 2 ** 64, 1_200_000, dtype=np.uint64)[:200_000]
    return {
        "bit-patterns": bits.view(np.float64),
        "normal": rng.normal(size=n),
        "normal-scaled": rng.normal(size=n) * scale,
        "uniform": rng.uniform(size=n),
        "uniform-signed": rng.uniform(-1.0, 1.0, n),
        "uniform-scaled": rng.uniform(size=n) * scale,
        "small": rng.uniform(1e-4, 1e-3, n),
        "short-decimals": np.concatenate([decimals, -decimals]),
        "fixed-range-bits": (rng.integers(1009 << 52, 1076 << 52, n,
                                          dtype=np.uint64)
                             | (rng.integers(0, 2, n, dtype=np.uint64)
                                << 63)).view(np.float64),
        "specials": np.array([0.0, -0.0, math.nan, -math.nan, math.inf,
                              -math.inf, 5e-324, -5e-324, 1e-310, 1e-300,
                              2.2250738585072014e-308,
                              1.7976931348623157e308]),
        "subnormals": rng.integers(1, 1 << 52, n // 4,
                                   dtype=np.uint64).view(np.float64),
        "neighbours": neighbours(powers + [-p for p in powers]),
        "integral": np.concatenate([
            rng.integers(-10 ** 6, 10 ** 6, n // 4).astype(np.float64),
            np.trunc(rng.uniform(0, 1e17, n // 4)),
            rng.integers(0, 1 << 53, n // 4).astype(np.float64) + 0.5]),
    }


FAMILIES = families()


def test_families_cover_four_million_doubles():
    assert sum(map(len, FAMILIES.values())) >= 4_000_000


@pytest.mark.parametrize("family", FAMILIES)
def test_float_text_equals_repr(family):
    assert_repr_text(FAMILIES[family])


def test_integer_text_equals_repr():
    rng = np.random.default_rng(7)
    assert_repr_text(np.concatenate([
        np.arange(100_000, dtype=np.int64),
        rng.integers(0, 10 ** 18, 100_000),
        10 ** np.arange(19, dtype=np.int64) - 1,
        10 ** np.arange(19, dtype=np.int64),
        [np.iinfo(np.int64).max]]))
    assert_repr_text(np.array([-1, 0, 5, np.iinfo(np.int64).min]))


def test_columns_join_with_commas_and_constant_columns():
    x = np.array([0.1, 1e-5, -0.0, 2.5])
    rows = csv_rows([np.arange(4), x, np.full(4, 0.25), np.full(4, -0.0)])
    assert rows == b"".join(
        f"{i},{v!r},0.25,-0.0\n".encode() for i, v in enumerate(x.tolist()))
