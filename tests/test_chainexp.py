import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varsortbench.chainexp import (
    REGIMES,
    RULES,
    ChainInstance,
    chain_accuracy_study,
    increasingness,
    make_chain,
    orient_by_coefficients,
    orient_by_variance,
    pairwise_coefficients,
)
from varsortbench.errors import ConfigurationError
from varsortbench.scm import SigmaLaw, WeightLaw

LAW_WIDE = WeightLaw.symmetric(0.5, 2.0)
SIGMAS = SigmaLaw.uniform(0.5, 2.0)


class TestMakeChain:
    def test_standardized_population_variances_are_one(self):
        inst = make_chain(4, LAW_WIDE, SIGMAS, regime="standardized", seed=1)
        assert np.allclose(inst.var, 1.0, atol=1e-12)

    def test_harmonized_coefficients_match_closed_form(self):
        inst = make_chain(3, LAW_WIDE, SIGMAS, regime="harmonized", seed=2)
        lr, _ = pairwise_coefficients(inst)
        beta = inst.weights
        assert np.allclose(lr, np.abs(beta / np.sqrt(beta**2 + 1.0)), atol=1e-12)

    def test_seed_reproducibility(self):
        a = make_chain(5, LAW_WIDE, SIGMAS, seed=3)
        b = make_chain(5, LAW_WIDE, SIGMAS, seed=3)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.cov, b.cov)

    def test_backward_presentation_reverses_cov(self):
        fwd = make_chain(4, LAW_WIDE, SIGMAS, direction="forward", seed=4)
        bwd = make_chain(4, LAW_WIDE, SIGMAS, direction="backward", seed=4)
        assert np.allclose(bwd.var, fwd.var[::-1])
        assert np.allclose(bwd.cov, fwd.cov[::-1])

    def test_finite_sample_instances_carry_data(self):
        inst = make_chain(3, LAW_WIDE, SIGMAS, seed=5, n=200)
        pop = make_chain(3, LAW_WIDE, SIGMAS, seed=5)
        assert inst.n == 200
        assert not np.allclose(inst.var, pop.var)
        assert not np.allclose(inst.cov, pop.cov)

    def test_needs_three_nodes(self):
        with pytest.raises(ConfigurationError):
            make_chain(2, LAW_WIDE, SIGMAS, seed=6)


class TestPairwiseCoefficients:
    def test_standardized_sequences_are_reverses(self):
        inst = make_chain(5, LAW_WIDE, SIGMAS, regime="standardized", seed=7)
        lr, rl = pairwise_coefficients(inst)
        assert np.allclose(lr, rl[::-1], atol=1e-12)

    def test_two_node_raw_values(self):
        # chain a -> b with unit weight and unit noises: Cov = [[1, 1], [1, 2]]
        inst = ChainInstance(
            d=2,
            true_direction="forward",
            regime="raw",
            weights=np.array([1.0]),
            sigmas=np.array([1.0, 1.0]),
            var=np.array([1.0, 2.0]),
            cov=np.array([1.0]),
        )
        lr, rl = pairwise_coefficients(inst)
        assert lr.tolist() == [1.0]
        assert rl.tolist() == [0.5]

    def test_population_and_sample_agree(self):
        pop = make_chain(3, LAW_WIDE, SIGMAS, seed=8)
        fin = make_chain(3, LAW_WIDE, SIGMAS, seed=8, n=1_000_000)
        lr_p, rl_p = pairwise_coefficients(pop)
        lr_f, rl_f = pairwise_coefficients(fin)
        assert np.allclose(lr_p, lr_f, atol=1e-2)
        assert np.allclose(rl_p, rl_f, atol=1e-2)


class TestIncreasingness:
    def test_examples(self):
        assert increasingness([1.0, 2.0, 3.0]) == 3
        assert increasingness([3.0, 2.0, 1.0]) == -3
        assert increasingness([2.0, 2.0]) == 0

    def test_reversal_negates(self):
        rng = np.random.default_rng(9)
        seq = rng.random(6)
        assert increasingness(seq[::-1]) == -increasingness(seq)

    def test_needs_two_entries(self):
        with pytest.raises(ConfigurationError):
            increasingness([1.0])


class TestOrientationRules:
    def test_three_bullet_rule_equivalence(self):
        # with two coefficients per sweep the generalized rule reduces to:
        # forward iff lr increasing and rl decreasing, backward in the
        # mirrored case, coin otherwise
        for seed in range(40):
            inst = make_chain(3, LAW_WIDE, SIGMAS, regime="raw", seed=seed)
            lr, rl = pairwise_coefficients(inst)
            decision = orient_by_coefficients(inst, seed=seed)
            if lr[0] < lr[1] and rl[0] > rl[1]:
                assert decision.direction == "forward" and not decision.tie
            elif lr[0] > lr[1] and rl[0] < rl[1]:
                assert decision.direction == "backward" and not decision.tie
            else:
                assert decision.tie

    def test_variance_rule_on_sorted_chain(self):
        inst = make_chain(3, WeightLaw.symmetric(1.1, 2.0), SigmaLaw.fixed(1.0), seed=10)
        assert np.all(np.diff(inst.var) > 0)
        assert orient_by_variance(inst).direction == "forward"

    def test_variance_rule_ties_on_standardized(self):
        inst = make_chain(3, LAW_WIDE, SIGMAS, regime="standardized", seed=11)
        decision = orient_by_variance(inst, seed=11)
        assert decision.tie

    def test_reversed_labeling_flips_rules(self):
        for seed in range(25):
            fwd = make_chain(4, LAW_WIDE, SIGMAS, regime="raw", direction="forward", seed=seed)
            bwd = make_chain(4, LAW_WIDE, SIGMAS, regime="raw", direction="backward", seed=seed)
            d_f = orient_by_coefficients(fwd, seed=seed)
            d_b = orient_by_coefficients(bwd, seed=seed)
            if not d_f.tie and not d_b.tie:
                assert d_f.direction != d_b.direction
            v_f = orient_by_variance(fwd, seed=seed)
            v_b = orient_by_variance(bwd, seed=seed)
            if not v_f.tie and not v_b.tie:
                assert v_f.direction != v_b.direction


class TestAccuracyStudy:
    def test_population_standardized_cell(self):
        result = chain_accuracy_study(3, LAW_WIDE, 20_000, "standardized", seed=12)
        assert result.accuracy == pytest.approx(0.73181, abs=0.02)
        assert result.tie_fraction < 0.01

    def test_population_raw_cell(self):
        result = chain_accuracy_study(3, LAW_WIDE, 20_000, "raw", seed=13)
        assert result.accuracy == pytest.approx(0.61945, abs=0.02)

    def test_variance_rule_chance_band_on_standardized(self):
        for mode, n in (("population", None), ("finite", 500)):
            result = chain_accuracy_study(
                3, LAW_WIDE, 2000, "standardized", rule="variance", mode=mode, n=n, seed=14
            )
            assert 0.45 <= result.accuracy <= 0.55
            assert result.tie_fraction == 1.0

    def test_finite_variance_rule_raw_is_strong(self):
        result = chain_accuracy_study(
            3, LAW_WIDE, 1000, "raw", rule="variance", mode="finite", n=1000, seed=15
        )
        assert result.accuracy > 0.9

    def test_deterministic(self):
        a = chain_accuracy_study(3, LAW_WIDE, 500, "raw", seed=16)
        b = chain_accuracy_study(3, LAW_WIDE, 500, "raw", seed=16)
        assert a.accuracy == b.accuracy

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            chain_accuracy_study(3, LAW_WIDE, 0, "raw")
        with pytest.raises(ConfigurationError):
            chain_accuracy_study(3, LAW_WIDE, 10, "raw", mode="finite")
        with pytest.raises(ConfigurationError):
            chain_accuracy_study(3, LAW_WIDE, 10, "nope")

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(3, 6),
        regime=st.sampled_from(REGIMES),
        rule=st.sampled_from(RULES),
        n=st.sampled_from([None, 2, 50]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_make_chain_is_the_study_chain_at_one_rep(self, d, regime, rule, n, seed):
        inst = make_chain(d, LAW_WIDE, SIGMAS, regime=regime, seed=seed, n=n)
        orient = orient_by_coefficients if rule == "coefficients" else orient_by_variance
        decision = orient(inst, seed=seed)
        mode = "population" if n is None else "finite"
        result = chain_accuracy_study(d, LAW_WIDE, 1, regime, rule=rule, mode=mode, n=n, seed=seed)
        assert result.accuracy == float(decision.direction == "forward")
        assert result.tie_fraction == float(decision.tie)


def _chain(d=3, sigma_law=SIGMAS, noise_kind="gaussian", n=None):
    return make_chain(d, LAW_WIDE, sigma_law, regime="standardized", n=n, noise_kind=noise_kind)


def _study(d=3, sigma_law=SIGMAS, noise_kind="gaussian", n=None):
    mode = "population" if n is None else "finite"
    return chain_accuracy_study(
        d, LAW_WIDE, 10, "standardized", mode=mode, n=n, sigma_law=sigma_law, noise_kind=noise_kind
    )


@pytest.mark.parametrize("entry", [_chain, _study], ids=["make_chain", "study"])
@pytest.mark.parametrize(
    "bad",
    [
        dict(d=2),
        dict(noise_kind="bogus"),
        dict(sigma_law=SigmaLaw.fixed(0.0)),
        dict(sigma_law=SigmaLaw.fixed(0.0), n=50),
        dict(n=1),
    ],
    ids=["d2", "noise", "sigma0", "sigma0-finite", "n1"],
)
def test_entry_points_refuse_malformed_chains(entry, bad):
    with pytest.raises(ConfigurationError):
        entry(**bad)
