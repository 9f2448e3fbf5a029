"""Tests for deterministic matrix recipes and their closed-form spectra."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logdet_equiv import (
    MATRIX_KINDS,
    MatrixSpec,
    ParameterError,
    known_singvals,
    norm_cap,
    operator_norm,
    parse_matrix_arg,
    read_matrix_csv,
    realize,
    spectrum_of,
    svd_floor,
    svd_paired,
    write_matrix_csv,
)
from logdet_equiv import ensembles

from helpers import gaussian_matrix


# ---------------------------------------------------------------------------
# realization


def test_realize_jordan():
    expected = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    np.testing.assert_array_equal(realize(MatrixSpec(kind="jordan", n=3)), expected)


def test_realize_bidiagonal():
    spec = MatrixSpec(kind="bidiagonal_toeplitz", n=3, a=2.0, b=-1j)
    expected = np.array([[2, -1j, 0], [0, 2, -1j], [0, 0, 2]], dtype=complex)
    np.testing.assert_array_equal(realize(spec), expected)


def test_realize_diagonal_keeps_block_order():
    spec = MatrixSpec(kind="diagonal", n=4, diag=((2.0, 3), (0.0, 1)))
    np.testing.assert_array_equal(np.diag(realize(spec)), [2.0, 2.0, 2.0, 0.0])


def test_realize_shift_is_z_minus_a():
    spec = MatrixSpec(kind="jordan", n=4)
    shifted = realize(MatrixSpec(kind="jordan", n=4, shift=1 + 2j))
    np.testing.assert_array_equal(shifted, (1 + 2j) * np.eye(4) - realize(spec))


def test_realize_zero():
    np.testing.assert_array_equal(realize(MatrixSpec(kind="zero", n=2)), np.zeros((2, 2)))


def test_spec_validation():
    with pytest.raises(ValueError):
        MatrixSpec(kind="hankel", n=3)
    with pytest.raises(ValueError):
        MatrixSpec(kind="jordan", n=0)
    with pytest.raises(ValueError):
        MatrixSpec(kind="diagonal", n=3, diag=((1.0, 2),))  # counts sum to 2
    with pytest.raises(ValueError):
        MatrixSpec(kind="diagonal", n=3, diag=())
    with pytest.raises(ValueError):
        MatrixSpec(kind="custom", n=3)
    assert "jordan" in MATRIX_KINDS


def test_diagonal_spec_rejects_a_negative_multiplicity():
    # The counts sum to n, so only the multiplicity check can reject this spec.
    with pytest.raises(ParameterError, match="^diagonal multiplicities must be >= 1$"):
        MatrixSpec(kind="diagonal", n=5, diag=((2.0, 6), (0.0, -1)))


def test_with_size():
    assert MatrixSpec(kind="jordan", n=5).with_size(9).n == 9
    uniform = MatrixSpec(kind="diagonal", n=4, diag=((2.0, 4),)).with_size(7)
    assert uniform.diag == ((2.0, 7),)
    with pytest.raises(ValueError):
        MatrixSpec(kind="diagonal", n=2, diag=((2.0, 1), (0.0, 1))).with_size(4)
    with pytest.raises(ValueError):
        MatrixSpec(kind="custom", n=2, path="x.csv").with_size(4)


# ---------------------------------------------------------------------------
# closed-form spectra


def test_known_singvals_jordan_has_exact_zero():
    s = known_singvals(MatrixSpec(kind="jordan", n=6))
    np.testing.assert_array_equal(s, [1.0] * 5 + [0.0])
    # A zero shift is the same matrix up to sign; still closed-form.
    assert known_singvals(MatrixSpec(kind="jordan", n=6, shift=0.0)) is not None
    # A genuine shift is not.
    assert known_singvals(MatrixSpec(kind="jordan", n=6, shift=2.0)) is None


def test_known_singvals_shifted_diagonal():
    spec = MatrixSpec(kind="diagonal", n=3, diag=((1.0, 1), (3.0, 2)), shift=2.0)
    np.testing.assert_array_equal(known_singvals(spec), [1.0, 1.0, 1.0])


def test_known_singvals_zero_matrix():
    np.testing.assert_array_equal(known_singvals(MatrixSpec(kind="zero", n=3, shift=3 + 4j)), [5.0] * 3)
    assert known_singvals(MatrixSpec(kind="bidiagonal_toeplitz", n=3)) is None


@pytest.mark.parametrize(
    "spec",
    [
        MatrixSpec(kind="jordan", n=8),
        MatrixSpec(kind="diagonal", n=5, diag=((2.0, 3), (0.5, 2)), shift=1.0),
        MatrixSpec(kind="zero", n=4, shift=-2.0),
    ],
)
def test_known_singvals_match_numerical_svd(spec):
    numerical = svd_paired(realize(spec)).descending
    np.testing.assert_allclose(known_singvals(spec), numerical, atol=1e-10)


def test_spectrum_of_prefers_exact_values():
    # The numerical SVD of a Jordan block returns ~1e-16 for the kernel
    # direction; the closed form keeps it exactly zero.
    s = spectrum_of(MatrixSpec(kind="jordan", n=40))
    assert s[-1] == 0.0


def test_spectrum_of_falls_back_to_svd():
    spec = MatrixSpec(kind="bidiagonal_toeplitz", n=6, a=1.0, b=0.5)
    np.testing.assert_allclose(spectrum_of(spec), svd_paired(realize(spec)).descending, atol=0)


def test_norm_cap_bounds_realized_norm():
    specs = [
        MatrixSpec(kind="jordan", n=7),
        MatrixSpec(kind="zero", n=7),
        MatrixSpec(kind="bidiagonal_toeplitz", n=7, a=1.5, b=-2.0),
        MatrixSpec(kind="diagonal", n=7, diag=((3.0, 4), (-1.0, 3))),
        MatrixSpec(kind="jordan", n=7, shift=2 - 1j),
    ]
    for spec in specs:
        assert operator_norm(realize(spec)) <= norm_cap(spec) + 1e-12


def test_norm_cap_custom_is_unbounded():
    assert norm_cap(MatrixSpec(kind="custom", n=2, path="whatever.csv")) == float("inf")


# ---------------------------------------------------------------------------
# CLI-style matrix arguments


def test_parse_matrix_arg_forms():
    assert parse_matrix_arg("jordan", 10).kind == "jordan"
    assert parse_matrix_arg("zero", 10, shift=2.0).shift == 2.0
    spec = parse_matrix_arg("diag:2x190,0x10", 200)
    assert spec.diag == ((2 + 0j, 190), (0j, 10))
    assert parse_matrix_arg("diag:1+2jx3,5", 4).diag == ((1 + 2j, 3), (5 + 0j, 1))
    bid = parse_matrix_arg("bidiag:2,-1j", 5)
    assert (bid.a, bid.b) == (2 + 0j, -1j)
    assert parse_matrix_arg("file:/tmp/m.csv", 3).path == "/tmp/m.csv"


def test_parse_matrix_arg_errors():
    with pytest.raises(ValueError):
        parse_matrix_arg("toeplitz", 4)
    with pytest.raises(ValueError):
        parse_matrix_arg("bidiag:1", 4)
    with pytest.raises(ValueError):
        parse_matrix_arg("diag:wat x2", 2)
    with pytest.raises(ValueError):
        parse_matrix_arg("diag:2x3", 4)  # counts must sum to n


# ---------------------------------------------------------------------------
# matrix CSV round trip


def test_matrix_csv_round_trip_is_exact(tmp_path):
    a = gaussian_matrix(9, seed=14)
    path = tmp_path / "m.csv"
    write_matrix_csv(a, path)
    np.testing.assert_array_equal(read_matrix_csv(path), a)  # repr round-trip, bitwise


def test_custom_spec_reads_file(tmp_path):
    a = gaussian_matrix(4, seed=15)
    path = tmp_path / "m.csv"
    write_matrix_csv(a, path)
    spec = MatrixSpec(kind="custom", n=4, path=str(path))
    np.testing.assert_array_equal(realize(spec), a)
    shifted = MatrixSpec(kind="custom", n=4, path=str(path), shift=1.0)
    np.testing.assert_array_equal(realize(shifted), np.eye(4) - a)
    with pytest.raises(ValueError):
        realize(MatrixSpec(kind="custom", n=5, path=str(path)))  # shape mismatch


def test_matrix_csv_error_reporting(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_matrix_csv(path)

    path.write_text("not-a-size\n")
    with pytest.raises(ValueError, match="line 1"):
        read_matrix_csv(path)

    path.write_text("2\n1.0:0.0,2.0:0.0\n")
    with pytest.raises(ValueError, match="expected 2 rows"):
        read_matrix_csv(path)

    path.write_text("2\n1.0:0.0,2.0:0.0\n3.0:0.0\n")
    with pytest.raises(ValueError, match="line 3"):
        read_matrix_csv(path)

    path.write_text("2\n1.0:0.0,2.0:0.0\n3.0:0.0,oops\n")
    with pytest.raises(ValueError, match="cell 2"):
        read_matrix_csv(path)


def test_matrix_csv_rows_are_checked_before_the_array_is_allocated(tmp_path):
    # 4 MB of text whose header claims a 10^6 x 10^6 matrix, 14.6 TiB as complex128.
    path = tmp_path / "big.csv"
    path.write_text("1000000\n" + "0:0\n" * 1_000_000)
    with pytest.raises(ValueError, match="line 2: expected 1000000 cells, found 1"):
        read_matrix_csv(path)


CSV_CELLS = st.sampled_from(["0:0", "1.5:-2", "nan:1", "1e999:0", " 2 : 3 ", "x", "1:2:3", "", "4"])


def render_csv(header, rows) -> str:
    return "\n".join([str(header), *(",".join(row) for row in rows)])


# Arbitrary text, ragged tables under a small header, and square ones that often parse.
CSV_TEXT = st.one_of(
    st.text(max_size=40),
    st.builds(render_csv, st.integers(-1, 3), st.lists(st.lists(CSV_CELLS, max_size=4), max_size=4)),
    st.integers(0, 3).flatmap(
        lambda n: st.lists(st.lists(CSV_CELLS, min_size=n, max_size=n), min_size=n, max_size=n).map(
            lambda rows: render_csv(n, rows)
        )
    ),
)


@given(text=CSV_TEXT)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_matrix_csv_gives_a_square_complex_array_or_value_error(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_text(text, encoding="utf-8")
    try:
        a = read_matrix_csv(path)
    except ValueError:
        return
    assert a.dtype == np.complex128
    assert a.ndim == 2 and a.shape[0] == a.shape[1]


# ---------------------------------------------------------------------------
# structured spectra: upper bidiagonal with constant diagonal d and superdiagonal e


# (kind, a, b, shift) with |d| < 1, = 1 and > 1 for shifted Jordan and bidiagonal Toeplitz blocks.
BIDIAGONAL_CASES = {
    "jordan-0.6": ("jordan", 0j, 1 + 0j, 0.36 + 0.48j),
    "jordan-1": ("jordan", 0j, 1 + 0j, -1j),
    "jordan-1.3": ("jordan", 0j, 1 + 0j, 1.2 - 0.5j),
    "bidiag-0.5": ("bidiagonal_toeplitz", 0.5j, 2 + 0j, None),
    "bidiag-1": ("bidiagonal_toeplitz", 0.5 + 0j, 1 - 1j, 0.5 + 1j),
    "bidiag-1.8": ("bidiagonal_toeplitz", 1 + 0j, 0.7 + 0j, -0.5 + 1j),
}


def bidiagonal_case(name, n):
    """The spec and its constant diagonal ``d`` (``a``, or ``z - a`` when shifted)."""
    kind, a, b, shift = BIDIAGONAL_CASES[name]
    spec = MatrixSpec(kind=kind, n=n, a=a, b=b, shift=shift)
    return spec, a if shift is None else shift - a


@pytest.mark.parametrize("n", [100, 200])
@pytest.mark.parametrize("name", sorted(BIDIAGONAL_CASES))
def test_structured_spectrum_product_is_exact(name, n):
    # det of an upper bidiagonal matrix is d^N, so sum log s_j = N log|d|,
    # which a dense SVD misses by far once s_min ~ |d|^N sinks below N*eps*||A||.
    spec, d = bidiagonal_case(name, n)
    s = spectrum_of(spec)
    want = n * np.log(abs(d))
    assert abs(float(np.sum(np.log(s))) - want) <= 1e-12 * max(1.0, abs(want))
    assert np.all(np.diff(s) <= 0)


@pytest.mark.parametrize("name", sorted(BIDIAGONAL_CASES))
def test_structured_spectrum_agrees_with_dense_svd_above_its_floor(name):
    spec, _ = bidiagonal_case(name, 60)
    s = spectrum_of(spec)
    dense = np.linalg.svd(realize(spec), compute_uv=False)
    np.testing.assert_allclose(s, dense, rtol=0, atol=60 * np.finfo(float).eps * dense[0] * 10)


def test_structured_spectrum_is_memoized_on_magnitudes():
    ensembles._bidiagonal_singvals.cache_clear()
    z = 0.3 + 0.2j
    first = spectrum_of(MatrixSpec(kind="jordan", n=50, shift=z))
    for w in (z.conjugate(), -z, 1j * z):
        np.testing.assert_array_equal(spectrum_of(MatrixSpec(kind="jordan", n=50, shift=w)), first)
    info = ensembles._bidiagonal_singvals.cache_info()
    assert (info.misses, info.hits) == (1, 3)


@pytest.mark.parametrize(
    "spec",
    [
        MatrixSpec(kind="jordan", n=30, shift=0.5 + 0.1j),
        MatrixSpec(kind="bidiagonal_toeplitz", n=30, a=2.0, b=-1j),
        MatrixSpec(kind="jordan", n=30),
    ],
)
def test_mutating_a_spectrum_does_not_change_the_next(spec):
    before = spectrum_of(spec).copy()
    returned = spectrum_of(spec)
    returned[:] = -1.0
    np.testing.assert_array_equal(spectrum_of(spec), before)


def test_dense_spectrum_uses_the_given_matrix(tmp_path):
    # The file does not exist: the values come from the array in hand.
    a = gaussian_matrix(5, seed=16)
    spec = MatrixSpec(kind="custom", n=5, path=str(tmp_path / "absent.csv"))
    np.testing.assert_array_equal(spectrum_of(spec, a), np.linalg.svd(a, compute_uv=False))
    with pytest.raises(FileNotFoundError):
        spectrum_of(spec)


def test_svd_floor_is_zero_unless_the_spectrum_is_dense(tmp_path):
    a = gaussian_matrix(5, seed=17)
    custom = MatrixSpec(kind="custom", n=5, path=str(tmp_path / "m.csv"))
    s = spectrum_of(custom, a)
    assert svd_floor(custom, s) == 5 * np.finfo(float).eps * s[0]
    for spec in (MatrixSpec(kind="jordan", n=5, shift=0.5), MatrixSpec(kind="bidiagonal_toeplitz", n=5),
                 MatrixSpec(kind="zero", n=5), MatrixSpec(kind="diagonal", n=5, diag=((2.0, 5),))):
        assert svd_floor(spec, spectrum_of(spec)) == 0.0


def test_a_bad_spec_is_a_parameter_error_where_it_is_found():
    with pytest.raises(ParameterError, match="^cannot resize a custom spec with fixed entries$"):
        MatrixSpec(kind="custom", n=2, path="x.csv").with_size(4)
    with pytest.raises(ParameterError, match="^matrix size must be >= 1, got 0$"):
        MatrixSpec(kind="jordan", n=0)
