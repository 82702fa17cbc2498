import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from implicitrk.tableaux import (
    ButcherTableau,
    SingularFactorizationError,
    UnsupportedStageCountError,
    additive_split,
    alexander_dirk,
    format_butcher,
    from_spec,
    is_invertible,
    is_lower_triangular,
    is_stiffly_accurate,
    ldu_factor,
    lobatto_iiic,
    order_condition_residuals,
    radau_iia,
    row_sum_residuals,
    to_csv,
    wsodirk433,
)

SQRT6 = np.sqrt(6.0)

RADAU3_A = np.array(
    [
        [11 / 45 - 7 * SQRT6 / 360, 37 / 225 - 169 * SQRT6 / 1800, -2 / 225 + SQRT6 / 75],
        [37 / 225 + 169 * SQRT6 / 1800, 11 / 45 + 7 * SQRT6 / 360, -2 / 225 - SQRT6 / 75],
        [4 / 9 - SQRT6 / 36, 4 / 9 + SQRT6 / 36, 1 / 9],
    ]
)
RADAU3_B = np.array([4 / 9 - SQRT6 / 36, 4 / 9 + SQRT6 / 36, 1 / 9])
RADAU3_C = np.array([2 / 5 - SQRT6 / 10, 2 / 5 + SQRT6 / 10, 1.0])

ALL_TABLEAUX = [
    radau_iia(1), radau_iia(2), radau_iia(3), radau_iia(4), radau_iia(5),
    lobatto_iiic(2), lobatto_iiic(3), alexander_dirk(), wsodirk433(),
]


def explicit_euler():
    return ButcherTableau([[0.0]], [1.0], [0.0], 1, 0, "explicit-euler")


class TestRadau:
    def test_one_stage_is_backward_euler(self):
        tab = radau_iia(1)
        assert tab.A.tolist() == [[1.0]]
        assert tab.b.tolist() == [1.0]
        assert tab.c.tolist() == [1.0]
        assert tab.formal_order == 1

    def test_two_stage_closed_form(self):
        tab = radau_iia(2)
        np.testing.assert_allclose(tab.A, [[5 / 12, -1 / 12], [3 / 4, 1 / 4]], atol=1e-12)
        np.testing.assert_allclose(tab.b, [3 / 4, 1 / 4], atol=1e-12)
        np.testing.assert_allclose(tab.c, [1 / 3, 1.0], atol=1e-12)

    def test_three_stage_closed_form(self):
        tab = radau_iia(3)
        np.testing.assert_allclose(tab.A, RADAU3_A, atol=1e-12)
        np.testing.assert_allclose(tab.b, RADAU3_B, atol=1e-12)
        np.testing.assert_allclose(tab.c, RADAU3_C, atol=1e-12)

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_structure(self, s):
        tab = radau_iia(s)
        assert tab.formal_order == 2 * s - 1
        assert tab.stage_order == s
        assert tab.stiffly_accurate
        assert tab.invertible
        assert tab.c[-1] == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.diff(tab.c) > 0)
        assert np.all(tab.c > 0)

    @pytest.mark.parametrize("s", [0, 6, -1])
    def test_unsupported_stage_count(self, s):
        with pytest.raises(UnsupportedStageCountError):
            radau_iia(s)


class TestLobatto:
    def test_two_stage_matches_published_array(self):
        tab = lobatto_iiic(2)
        assert tab.A.tolist() == [[0.5, -0.5], [0.5, 0.5]]
        assert tab.b.tolist() == [0.5, 0.5]
        assert tab.c.tolist() == [0.0, 1.0]
        assert tab.stiffly_accurate

    def test_two_stage_row_sums_equal_c(self):
        tab = lobatto_iiic(2)
        np.testing.assert_allclose(tab.A.sum(axis=1), tab.c, atol=1e-14)

    def test_three_stage_order_conditions(self):
        # quadrature-order oracle: sum_i b_i c_i^(k-1) = 1/k for k = 1..4
        tab = lobatto_iiic(3)
        for k in range(1, 5):
            assert abs(tab.b @ tab.c ** (k - 1) - 1.0 / k) < 1e-12
        assert tab.stiffly_accurate
        assert tab.formal_order == 4

    def test_unsupported(self):
        with pytest.raises(UnsupportedStageCountError):
            lobatto_iiic(4)


class TestAlexander:
    def test_diagonal_root(self):
        tab = alexander_dirk()
        x = tab.A[0, 0]
        assert x == pytest.approx(0.435866521508459, abs=1e-12)
        assert abs(x**3 - 3 * x**2 + 1.5 * x - 1 / 6) < 1e-14

    def test_consistency(self):
        tab = alexander_dirk()
        assert abs(tab.b.sum() - 1.0) < 1e-12

    def test_b_equals_last_row(self):
        tab = alexander_dirk()
        assert np.array_equal(tab.b, tab.A[-1])

    def test_lower_triangular_stiffly_accurate(self):
        tab = alexander_dirk()
        assert tab.lower_triangular
        assert tab.stiffly_accurate
        assert tab.formal_order == 3
        assert tab.stage_order == 1


class TestWsodirk:
    def test_published_digits(self):
        tab = wsodirk433()
        assert tab.A[0, 0] == 0.13756544
        assert tab.c[1] == 0.80179012
        assert tab.A[3, 3] == 0.88965521

    def test_weights_sum_at_printed_precision(self):
        tab = wsodirk433()
        assert abs(tab.b.sum() - 1.0) < 1e-7

    def test_second_row_sum(self):
        tab = wsodirk433()
        assert abs(tab.A[1].sum() - tab.c[1]) < 1e-8

    def test_row_sums_consistent(self):
        # with the corrected sign of a31 every row sums to its abscissa
        assert row_sum_residuals(wsodirk433()).max() < 1e-7

    def test_third_order_conditions_at_printed_precision(self):
        b_res, _ = order_condition_residuals(wsodirk433(), 3)
        assert b_res.max() < 1e-7

    def test_weak_stage_order_flagged(self):
        tab = wsodirk433()
        assert tab.stage_order == 1
        assert tab.weak_stage_order == 3
        assert tab.lower_triangular
        assert tab.stiffly_accurate


class TestLdu:
    def test_radau2_hand_factors(self):
        fac = ldu_factor(radau_iia(2))
        np.testing.assert_allclose(fac.L, [[1, 0], [9 / 5, 1]], atol=1e-12)
        np.testing.assert_allclose(fac.D, [5 / 12, 2 / 5], atol=1e-12)
        np.testing.assert_allclose(fac.U, [[1, -1 / 5], [0, 1]], atol=1e-12)

    def test_radau1_identity(self):
        fac = ldu_factor(radau_iia(1))
        assert fac.L.tolist() == [[1.0]]
        assert fac.D.tolist() == [1.0]
        assert fac.U.tolist() == [[1.0]]

    @pytest.mark.parametrize("tab", [alexander_dirk(), wsodirk433()])
    def test_lower_triangular_gives_identity_U(self, tab):
        fac = ldu_factor(tab)
        np.testing.assert_allclose(fac.U, np.eye(tab.s), atol=1e-14)

    @pytest.mark.parametrize("tab", ALL_TABLEAUX, ids=lambda t: t.name)
    def test_reconstruction(self, tab):
        fac = ldu_factor(tab)
        np.testing.assert_allclose(fac.reconstruct(), tab.A, atol=1e-12)
        assert np.all(np.diag(fac.L) == 1.0)
        assert np.all(np.diag(fac.U) == 1.0)
        assert np.all(fac.D != 0.0)

    def test_zero_pivot_raises_with_stage_index(self):
        tab = ButcherTableau([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [1.0, 1.0], 1, 1, "swap")
        with pytest.raises(SingularFactorizationError) as err:
            ldu_factor(tab)
        assert err.value.stage == 1


class TestAdditiveSplit:
    def test_radau2_parts(self):
        sp = additive_split(radau_iia(2))
        np.testing.assert_allclose(sp.D_diag, [5 / 12, 1 / 4], atol=1e-12)
        assert sp.L_strict[1, 0] == pytest.approx(3 / 4, abs=1e-12)
        assert sp.U_strict[0, 1] == pytest.approx(-1 / 12, abs=1e-12)

    def test_diagonal_tableau(self):
        tab = ButcherTableau([[0.5, 0], [0, 0.5]], [0.5, 0.5], [0.5, 0.5], 1, 1, "diag")
        sp = additive_split(tab)
        assert not sp.L_strict.any()
        assert not sp.U_strict.any()

    @pytest.mark.parametrize("tab", ALL_TABLEAUX, ids=lambda t: t.name)
    def test_reassembly_bit_exact(self, tab):
        sp = additive_split(tab)
        assert np.array_equal(sp.reconstruct(), tab.A)


class TestFlags:
    def test_radau2(self):
        tab = radau_iia(2)
        assert is_stiffly_accurate(tab)
        assert not is_lower_triangular(tab)
        assert is_invertible(tab)

    def test_lobatto2_invertible_despite_zero_abscissa(self):
        tab = lobatto_iiic(2)
        assert np.linalg.det(tab.A) == pytest.approx(0.5)
        assert is_invertible(tab)

    def test_explicit_euler_not_invertible(self):
        assert not is_invertible(explicit_euler())

    def test_exactly_singular_a_is_refused_quietly(self):
        # 2-stage Lobatto IIIA: the LU of A has an exactly zero pivot
        tab = ButcherTableau([[0.0, 0.0], [0.5, 0.5]], [0.5, 0.5], [0.0, 1.0], 2, 2, "lobatto-iiia:2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_invertible(tab)
            assert not tab.invertible

    @pytest.mark.parametrize(
        "tab",
        [t for t in ALL_TABLEAUX],
        ids=lambda t: t.name,
    )
    def test_stiffly_accurate_inverse_row(self, tab):
        # b^T A^-1 = e_s transported through the inverse
        if not tab.stiffly_accurate:
            pytest.skip("not stiffly accurate")
        v = np.linalg.solve(tab.A.T, tab.b)
        e = np.zeros(tab.s)
        e[-1] = 1.0
        np.testing.assert_allclose(v, e, atol=1e-10)


class TestOrderConditions:
    def test_radau3_through_order_five(self):
        b_res, stage_res = order_condition_residuals(radau_iia(3), 5)
        assert b_res.max() < 1e-12
        assert stage_res.max() < 1e-12

    def test_backward_euler_fails_b2(self):
        b_res, _ = order_condition_residuals(radau_iia(1), 2)
        assert b_res[0] < 1e-14
        assert b_res[1] == pytest.approx(0.5)

    def test_alexander_stage_order_one(self):
        b_res, stage_res = order_condition_residuals(alexander_dirk(), 3, stage_p=2)
        assert b_res.max() < 1e-12
        assert stage_res[0].max() < 1e-12
        assert stage_res[1].max() > 0.01

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_radau_b_and_c_conditions(self, s):
        b_res, stage_res = order_condition_residuals(radau_iia(s), 2 * s - 1, stage_p=s)
        assert b_res.max() < 1e-12
        assert stage_res.max() < 1e-12


class TestConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            ButcherTableau([[1.0]], [0.9], [1.0], 1, 1, "bad")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ButcherTableau([[1.0, 0.0]], [1.0], [1.0], 1, 1, "bad")

    def test_arrays_read_only(self):
        tab = radau_iia(2)
        with pytest.raises(ValueError):
            tab.A[0, 0] = 7.0

    def test_from_spec(self):
        assert from_spec("radau-iia:3").name == "radau-iia:3"
        assert from_spec("alexander").s == 3
        assert from_spec("wsodirk433").s == 4
        with pytest.raises(UnsupportedStageCountError):
            from_spec("radau-iia:9")
        with pytest.raises(UnsupportedStageCountError):
            from_spec("gauss:2")
        with pytest.raises(UnsupportedStageCountError):
            from_spec("alexander:5")


class TestTextFormats:
    def test_butcher_array_layout(self):
        txt = format_butcher(radau_iia(2), digits=6)
        lines = txt.strip().split("\n")
        assert len(lines) == 4
        assert "|" in lines[0] and "+" in lines[2]
        assert "0.75" in lines[3]

    def test_csv_block(self):
        txt = to_csv(radau_iia(2))
        lines = txt.strip().split("\n")
        assert lines[0] == "stage,c,a_1,a_2"
        assert lines[1].startswith("1,")
        assert lines[3].startswith("b,,")
        assert len(lines) == 4
        # round-trippable numbers
        row = lines[2].split(",")
        assert float(row[1]) == 1.0
        assert float(row[2]) == pytest.approx(0.75, abs=1e-12)

    def test_csv_is_deterministic(self):
        assert to_csv(radau_iia(3)) == to_csv(radau_iia(3))

    def test_csv_golden_lobatto2(self):
        # exact binary-float entries make this file reproducible verbatim
        assert to_csv(lobatto_iiic(2)) == (
            "stage,c,a_1,a_2\n"
            "1,0.0,0.5,-0.5\n"
            "2,1.0,0.5,0.5\n"
            "b,,0.5,0.5\n"
        )


@st.composite
def factorable_matrices(draw):
    # A = L0 D0 U0 with unit triangular factors keeps all leading minors
    # bounded away from zero, so unpivoted elimination is well defined.
    s = draw(st.integers(min_value=1, max_value=5))
    unit = st.floats(min_value=-0.9, max_value=0.9)
    L = np.eye(s)
    U = np.eye(s)
    for i in range(s):
        for j in range(i):
            L[i, j] = draw(unit)
            U[j, i] = draw(unit)
    D = np.array([draw(st.floats(min_value=0.5, max_value=2.0)) for _ in range(s)])
    return L @ np.diag(D) @ U


@settings(max_examples=60, deadline=None)
@given(factorable_matrices())
def test_ldu_reconstructs_random_factorable(A):
    s = A.shape[0]
    tab = ButcherTableau(A, np.full(s, 1.0 / s), A.sum(axis=1), 1, 1, "random")
    fac = ldu_factor(tab)
    scale = max(1.0, np.abs(A).max())
    np.testing.assert_allclose(fac.reconstruct(), A, atol=1e-10 * scale)


@settings(max_examples=60, deadline=None)
@given(factorable_matrices())
def test_additive_split_partitions_random(A):
    s = A.shape[0]
    tab = ButcherTableau(A, np.full(s, 1.0 / s), A.sum(axis=1), 1, 1, "random")
    sp = additive_split(tab)
    assert np.array_equal(sp.reconstruct(), A)
    assert np.array_equal(np.tril(sp.L_strict, -1), sp.L_strict)
    assert np.array_equal(np.triu(sp.U_strict, 1), sp.U_strict)
