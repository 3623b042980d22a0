import pytest
from hypothesis import given
from hypothesis import strategies as st

from kincoop.learning import LearnerConfig, epsilon_at, q_update, resolve_decay

finite = st.floats(-100.0, 100.0)


class TestQUpdate:
    def test_worked_example(self):
        assert q_update(0.0, 2.0, 0.1) == pytest.approx(0.2)

    def test_fixed_point(self):
        assert q_update(1.7, 1.7, 0.3) == 1.7

    def test_full_overwrite(self):
        assert q_update(-3.0, 5.5, 1.0) == 5.5

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            q_update(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            q_update(0.0, 1.0, 1.5)

    @given(finite, finite, st.floats(0.01, 1.0))
    def test_contraction_toward_reward(self, q, r, alpha):
        q_next = q_update(q, r, alpha)
        assert abs(q_next - r) == pytest.approx((1 - alpha) * abs(q - r), rel=1e-9, abs=1e-9)

    @given(
        st.floats(-10.0, 0.0),
        st.floats(0.0, 10.0),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
        st.floats(0.01, 1.0),
    )
    def test_bounded_by_observed_rewards(self, r_min, r_max, mix, alpha):
        # rewards within [r_min, r_max] keep values in range from q=0
        q = 0.0
        for frac in mix:
            reward = r_min + frac * (r_max - r_min)
            q = q_update(q, reward, alpha)
            assert r_min - 1e-9 <= q <= r_max + 1e-9


class TestEpsilonSchedule:
    def test_start(self):
        cfg = LearnerConfig(epsilon0=0.7, decay=0.9, epsilon_min=0.0)
        assert epsilon_at(cfg, 0) == 0.7

    def test_constant_when_decay_one(self):
        cfg = LearnerConfig(epsilon0=0.4, decay=1.0, epsilon_min=0.1)
        assert all(epsilon_at(cfg, t) == 0.4 for t in (0, 10, 10_000))

    def test_thousand_step_value(self):
        cfg = LearnerConfig(epsilon0=1.0, decay=0.999, epsilon_min=0.0)
        assert epsilon_at(cfg, 1000) == pytest.approx(0.36770, abs=1e-5)

    def test_non_increasing_with_floor(self):
        cfg = LearnerConfig(epsilon0=1.0, decay=0.99, epsilon_min=0.05)
        values = [epsilon_at(cfg, t) for t in range(600)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert min(values) == 0.05

    def test_unresolved_decay_rejected(self):
        with pytest.raises(ValueError):
            epsilon_at(LearnerConfig(decay=None), 3)

    def test_resolve_decay_hits_target(self):
        cfg = resolve_decay(LearnerConfig(epsilon0=1.0, decay=None, epsilon_min=0.0), 1000)
        assert cfg.epsilon0 * cfg.decay ** 800 == pytest.approx(0.01, rel=1e-9)

    def test_resolve_decay_keeps_explicit_value(self):
        cfg = resolve_decay(LearnerConfig(decay=0.5), 1000)
        assert cfg.decay == 0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LearnerConfig(alpha=0.0)
        with pytest.raises(ValueError):
            LearnerConfig(epsilon0=1.2)
        with pytest.raises(ValueError):
            LearnerConfig(epsilon_min=0.5, epsilon0=0.3)
        with pytest.raises(ValueError):
            LearnerConfig(decay=0.0)
