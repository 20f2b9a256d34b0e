"""floatfmt.g17_matrix against Python's "%.17g", value by value."""

import numpy as np
import pytest

from svilab import floatfmt
from svilab.floatfmt import K_MAX, K_MIN, WIDTH, g17_matrix, text_matrix


def assert_g17(values):
    """Each row of g17_matrix(values), NULs removed, is "%.17g" % v."""
    values = np.asarray(values, dtype=np.float64)
    rows = g17_matrix(values)
    assert rows.shape == (values.size, WIDTH)
    lines = np.concatenate([rows, np.full((values.size, 1), ord("\n"), np.uint8)], axis=1)
    got = lines[lines != 0].tobytes().split(b"\n")[:-1]
    want = [("%.17g" % v).encode() for v in values.tolist()]
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert len(got) == len(want) and not bad, \
        [(values[i].hex(), got[i], want[i]) for i in bad[:10]]


def powers_of_ten():
    """The double nearest each 10^k of the exact range and its neighbours, with both signs."""
    p = np.array([float(f"1e{k}") for k in range(K_MIN - 1, K_MAX + 2)])
    near = [p]
    for direction in (0.0, np.inf):
        q = p
        for _ in range(3):
            q = np.nextafter(q, direction)
            near.append(q)
    near = np.concatenate(near)
    return np.concatenate([near, -near])


# the traps of taking the exponent and the digits apart: with the exponent
# of log10, 9.9999999999999995e-07 scales to 9999999999999999.5, a tie that
# rounds up into the wrong decade; ties go to even; 2^53 and above lift M
TRAPS = [-9.9999999999999995e-07, 9.9999999999999995e-07, 1234567890123456.25,
         1234567890123456.75, 99999999999999984.0, 9999999999999998.0, 0.5, 1.0, 123.0,
         1e-05, 0.0001, 1e16, 2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 53 - 1, 1e17 - 16]
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
           -2.2250738585072014e-308, 1.7976931348623157e308, np.inf, -np.inf, np.nan,
           -np.nan, 1e-12, -1e-12, 1e17, -1e17, 1e-11, 9.9999999999999994e-12, 1e300]


def test_g17_matches_percent_g_on_a_million_values():
    rng = np.random.default_rng(20251)
    n = 800_000
    uniform = 10.0 ** rng.uniform(K_MIN, K_MAX + 1, n) * rng.choice([-1.0, 1.0], n)
    # ties: quarters above 2^50 have 16 digits before the point and a 25 or 75 after
    quarters = rng.integers(2 ** 52, 2 ** 53, 100_000) * 0.25
    bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64, endpoint=False).view(np.float64)
    values = np.concatenate([uniform, quarters, -quarters[:20_000], bits, powers_of_ten(),
                             TRAPS, SPECIAL])
    assert values.size >= 1_000_000
    assert_g17(values)


@pytest.mark.parametrize("values", [TRAPS, SPECIAL, powers_of_ten(), [], [0.0], [np.nan] * 3],
                         ids=["traps", "special", "powers", "empty", "zero", "nans"])
def test_g17_on_edge_values(values):
    assert_g17(values)


def test_g17_on_every_digit_count_and_exponent():
    # d.dddd x 10^k with 1 to 17 significant digits for every k of the exact
    # range and one beyond it on either side: each notation, point position
    # and count of stripped zeros
    digits = np.array([int("123456789" * 2, 10) // 10 ** (18 - j) for j in range(1, 18)])
    values = np.array([float(f"{d}e{k - len(str(d)) + 1}")
                       for d in digits.tolist() for k in range(K_MIN - 1, K_MAX + 2)])
    assert_g17(np.concatenate([values, -values]))


def test_g17_recovers_from_a_decade_estimate_one_off(monkeypatch):
    # log10 may miss the decade by one near a power of ten; here every
    # estimate is the exponent %e prints, or one off it either way
    rng = np.random.default_rng(7)
    monkeypatch.setattr(floatfmt, "_decades", lambda a: np.clip(
        [int(("%.16e" % x).split("e")[1]) for x in a.tolist()] + rng.integers(-1, 2, a.size),
        K_MIN, K_MAX))
    n = 100_000
    values = 10.0 ** rng.uniform(K_MIN, K_MAX + 1, n) * rng.choice([-1.0, 1.0], n)
    assert_g17(np.concatenate([values, powers_of_ten(), TRAPS]))


def test_text_matrix_pads_with_nul():
    m = text_matrix(["ab", "", "cde"], 4)
    assert m.shape == (3, 4)
    assert m.tobytes() == b"ab\0\0\0\0\0\0cde\0"
