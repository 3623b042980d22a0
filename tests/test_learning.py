import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kincoop.games import Action
from kincoop.learning import (
    LearnerConfig,
    QTable,
    epsilon_at,
    greedy_action,
    q_update,
    resolve_decay,
    select_action,
)

C, D = Action.COOPERATE, Action.DEFECT

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


class TestGreedyAction:
    def test_cooperate_wins(self):
        t = QTable()
        t.update(0, C, 0.3, 1.0)
        t.update(0, D, 0.1, 1.0)
        assert greedy_action(t, 0) is C

    def test_exact_tie_reported(self):
        assert greedy_action(QTable(), "anything") is None

    def test_defect_wins(self):
        t = QTable()
        t.update(0, C, -1.0, 1.0)
        assert greedy_action(t, 0) is D


class TestSelectAction:
    def test_pure_greedy(self):
        t = QTable()
        t.update("s", C, 1.0, 1.0)
        rng = np.random.default_rng(0)
        assert all(select_action(t, "s", 0.0, rng) is C for _ in range(100))

    def test_full_exploration_is_uniform(self):
        t = QTable()
        t.update("s", C, 100.0, 1.0)
        rng = np.random.default_rng(42)
        draws = [select_action(t, "s", 1.0, rng) for _ in range(10_000)]
        freq = sum(1 for a in draws if a is C) / len(draws)
        assert freq == pytest.approx(0.5, abs=0.02)

    def test_tie_break_is_fair(self):
        t = QTable()
        rng = np.random.default_rng(7)
        draws = [select_action(t, "s", 0.0, rng) for _ in range(10_000)]
        freq = sum(1 for a in draws if a is C) / len(draws)
        assert freq == pytest.approx(0.5, abs=0.02)

    def test_bit_reproducible(self):
        t = QTable()
        t.update("s", C, 1.0, 0.5)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            runs.append([select_action(t, "s", 0.3, rng) for _ in range(500)])
        assert runs[0] == runs[1]

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            select_action(QTable(), 0, 1.5, np.random.default_rng(0))


class TestQTableDump:
    def test_missing_entries_read_as_init(self):
        t = QTable(q_init=0.25)
        assert t.get("never-seen", C) == 0.25
