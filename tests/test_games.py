import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kincoop.games import (
    DilemmaParams,
    cooperation_favored,
    kin_weighted_payoffs,
    payoff_matrix,
    transformed_matrix,
)

C, D = 0, 1


def strict_c_dominance(matrix: np.ndarray) -> bool:
    """Brute-force oracle: cooperate beats defect against both opponent actions."""
    return all(matrix[0, other] > matrix[1, other] for other in (0, 1))


class TestDilemmaParams:
    def test_valid(self):
        p = DilemmaParams(benefit=3.0, cost=1.0)
        assert (p.benefit, p.cost) == (3.0, 1.0)

    @pytest.mark.parametrize("b,c", [(1.0, 1.0), (1.0, 2.0), (2.0, 0.0), (0.0, -1.0)])
    def test_invalid(self, b, c):
        with pytest.raises(ValueError):
            DilemmaParams(benefit=b, cost=c)


class TestPayoffMatrix:
    def test_mutual_defection_is_zero(self):
        assert payoff_matrix(DilemmaParams(5.0, 0.5))[D, D] == 0.0

    def test_mutual_cooperation(self):
        assert payoff_matrix(DilemmaParams(3.0, 1.0))[C, C] == 2.0

    def test_sucker_and_temptation(self):
        m = payoff_matrix(DilemmaParams(3.0, 1.0))
        assert (m[C, D], m[D, C]) == (-1.0, 3.0)

    @given(st.floats(0.01, 50.0), st.floats(1.01, 10.0))
    def test_pd_ordering(self, c, ratio):
        # temptation > reward > punishment > sucker for any valid params
        m = payoff_matrix(DilemmaParams(benefit=c * ratio, cost=c))
        assert m[D, C] > m[C, C] > m[D, D] > m[C, D]


class TestKinWeightedPayoffs:
    """The one kin-weighted payoff builder is ``w * pm.T + pm``, bit for bit,
    for any real weight: it checks none."""

    PMS = [payoff_matrix(DilemmaParams(b, c)) for b, c in [(3.0, 1.0), (3.7, 0.3), (12.0, 5.0)]]
    WEIGHTS = [0.0, -0.0, 1 / 3, -1 / 3, 0.75, 1.0, -1.0, 0.1, -0.7, 2.5]

    @pytest.mark.parametrize("w", WEIGHTS)
    def test_scalar_weight(self, w):
        for pm in self.PMS:
            got = kin_weighted_payoffs(pm, w)
            assert got.shape == (2, 2)
            assert got.tobytes() == (w * pm.T + pm).tobytes()

    def test_array_weights_lead(self):
        weights = np.array(self.WEIGHTS)
        for pm in self.PMS:
            got = kin_weighted_payoffs(pm, weights)
            assert got.shape == (len(weights), 2, 2)
            for k, w in enumerate(weights):
                assert got[k].tobytes() == (w * pm.T + pm).tobytes()
            # a 2-d weight array keeps both leading axes
            assert kin_weighted_payoffs(pm, weights.reshape(2, -1)).tobytes() == got.tobytes()

    @pytest.mark.parametrize("w", [0.0, -0.0])
    def test_zero_weight_is_the_payoff(self, w):
        # a zero weight times the negative sucker's payoff is a signed zero,
        # and adding it leaves every payoff's bits as they were
        for pm in self.PMS:
            assert kin_weighted_payoffs(pm, w).tobytes() == pm.tobytes()
            assert kin_weighted_payoffs(pm, np.full(3, w)).tobytes() == np.tile(pm, (3, 1, 1)).tobytes()

    @given(st.floats(-10.0, 10.0), st.floats(0.01, 50.0), st.floats(1.01, 10.0))
    def test_any_weight(self, w, c, ratio):
        pm = payoff_matrix(DilemmaParams(benefit=c * ratio, cost=c))
        assert kin_weighted_payoffs(pm, w).tobytes() == (w * pm.T + pm).tobytes()


class TestTransformedMatrix:
    def test_worked_example(self):
        m = transformed_matrix(DilemmaParams(3.0, 1.0), 0.75)
        assert m[0, 0] == pytest.approx(3.5)
        assert m[0, 1] == pytest.approx(1.25)
        assert m[1, 0] == pytest.approx(2.25)
        assert m[1, 1] == 0.0
        assert strict_c_dominance(m)

    def test_zero_relatedness_recovers_original(self):
        p = DilemmaParams(4.0, 1.5)
        assert np.allclose(transformed_matrix(p, 0.0), payoff_matrix(p))

    @pytest.mark.parametrize("h", [-0.5, 1.5])
    def test_relatedness_outside_unit_interval_rejected(self, h):
        with pytest.raises(ValueError):
            transformed_matrix(DilemmaParams(3.0, 1.0), h)

    def test_low_relatedness_not_dominant(self):
        m = transformed_matrix(DilemmaParams(3.0, 1.0), 0.2)
        assert m[0, 1] == pytest.approx(-0.4)
        assert not strict_c_dominance(m)


class TestCooperationFavored:
    def test_favored(self):
        assert cooperation_favored(DilemmaParams(4.0, 1.0), 0.75)

    def test_boundary_not_favored(self):
        assert not cooperation_favored(DilemmaParams(2.0, 1.0), 0.5)

    def test_below_threshold(self):
        assert not cooperation_favored(DilemmaParams(3.0, 1.0), 0.2)

    def test_matches_dominance_oracle_on_grid(self):
        # full acceptance grid: b in 1.5..20 step 0.5, c=1, h in sixths
        for b in np.arange(1.5, 20.0 + 0.25, 0.5):
            params = DilemmaParams(float(b), 1.0)
            for k in range(7):
                h = k / 6
                favored = cooperation_favored(params, h)
                assert favored == strict_c_dominance(transformed_matrix(params, h)), (
                    b,
                    h,
                )
