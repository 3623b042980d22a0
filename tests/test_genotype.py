import copy

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kincoop.genotype import (
    GenotypeSpace,
    MutationSpec,
    enumerate_genotypes,
    format_genotype,
    hamming_similarity,
    match_count,
    mutate,
    parse_genotype,
    similarity_matrix,
)


def g(*genes):
    return tuple(genes)


genotypes_pairs = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
    )
)

# a genotype space of 1-12 loci and 2-5 variants with one of its members
space_members = st.tuples(st.integers(1, 12), st.integers(2, 5)).flatmap(
    lambda lv: st.tuples(
        st.just(GenotypeSpace(*lv)),
        st.lists(st.integers(0, lv[1] - 1), min_size=lv[0], max_size=lv[0]).map(tuple),
    )
)

genotype_triples = st.integers(1, 10).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=3, max_size=3
    )
)


class TestHammingSimilarity:
    def test_three_quarters_example(self):
        assert hamming_similarity(g(1, 1, 1, 1), g(1, 1, 1, 0)) == 0.75

    def test_identity(self):
        x = g(2, 0, 1, 1, 0)
        assert hamming_similarity(x, x) == 1.0

    def test_all_loci_differ(self):
        assert hamming_similarity(g(1, 0, 1), g(0, 1, 0)) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamming_similarity(g(1, 0), g(1, 0, 1))

    def test_match_count_counts_agreeing_loci(self):
        assert match_count(g(1, 1, 0, 2), g(1, 0, 0, 1)) == 2
        assert match_count(g(1, 0, 1), g(0, 1, 0)) == 0
        with pytest.raises(ValueError, match="lengths differ"):
            match_count(g(1, 0), g(1, 0, 1))

    @given(genotypes_pairs)
    def test_symmetry(self, pair):
        a, b = tuple(pair[0]), tuple(pair[1])
        assert hamming_similarity(a, b) == hamming_similarity(b, a)

    @given(genotypes_pairs)
    def test_range_is_lattice(self, pair):
        a, b = tuple(pair[0]), tuple(pair[1])
        h = hamming_similarity(a, b)
        assert 0.0 <= h <= 1.0
        assert h * len(a) == pytest.approx(round(h * len(a)))

    @given(genotype_triples)
    def test_triangle_inequality_on_distance(self, triple):
        a, b, c = (tuple(t) for t in triple)
        d = lambda x, y: 1.0 - hamming_similarity(x, y)
        assert d(a, c) <= d(a, b) + d(b, c) + 1e-12


class TestGenotypeType:
    def test_round_trip_string(self):
        assert format_genotype(parse_genotype("1-1-0-1")) == "1-1-0-1"
        assert parse_genotype("1-1-0-1") == (1, 1, 0, 1)
        assert parse_genotype(" 12-0\n") == (12, 0)
        assert all(type(v) is int for v in parse_genotype("1-1-0-1"))

    def test_malformed_string(self):
        with pytest.raises(ValueError, match="malformed genotype string '1-x-0'"):
            parse_genotype("1-x-0")

    def test_empty_rejected(self):
        for text in ("", "  ", "1--0", "1-0-"):
            with pytest.raises(ValueError, match="malformed"):
                parse_genotype(text)
        assert not GenotypeSpace(1, 2).contains(())

    def test_negative_gene_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_genotype("-1-0")
        assert not GenotypeSpace(2, 2).contains(g(0, -1))

    @pytest.mark.parametrize(
        "value",
        [[0, 1], (0, 1.0), (0, np.int64(1)), (0, True), (0, "1"), (0, None), "01", (0,), (0, 1, 0)],
    )
    def test_contains_takes_only_tuples_of_ints(self, value):
        space = GenotypeSpace(2, 2)
        assert space.contains((0, 1))
        assert not space.contains(value)
        with pytest.raises(ValueError, match="not a member"):
            mutate(value, MutationSpec(0.5), space, np.random.default_rng(0))


class TestGenotypeSpace:
    def test_enumerate_binary_single_locus(self):
        space = GenotypeSpace(1, 2)
        assert enumerate_genotypes(space) == [g(0), g(1)]

    def test_enumerate_sixty_four(self):
        out = enumerate_genotypes(GenotypeSpace(6, 2))
        assert len(out) == 64
        assert out[0] == g(0, 0, 0, 0, 0, 0)
        assert out[-1] == g(1, 1, 1, 1, 1, 1)

    def test_enumerate_eight(self):
        assert len(enumerate_genotypes(GenotypeSpace(3, 2))) == 8

    def test_lexicographic_no_duplicates(self):
        out = enumerate_genotypes(GenotypeSpace(3, 3))
        assert len(set(out)) == len(out) == 27
        assert out == sorted(out)
        assert all(type(x) is tuple and all(type(v) is int for v in x) for x in out)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            enumerate_genotypes(GenotypeSpace(21, 2))

    def test_invariants(self):
        with pytest.raises(ValueError):
            GenotypeSpace(0, 2)
        with pytest.raises(ValueError):
            GenotypeSpace(3, 1)


class TestMutate:
    def test_mu_zero_is_identity(self):
        space = GenotypeSpace(8, 4)
        x = g(0, 1, 2, 3, 0, 1, 2, 3)
        for seed in range(5):
            assert mutate(x, MutationSpec(0.0), space, np.random.default_rng(seed)) == x

    def test_mu_one_binary_is_complement(self):
        space = GenotypeSpace(6, 2)
        x = g(1, 0, 1, 1, 0, 0)
        out = mutate(x, MutationSpec(1.0), space, np.random.default_rng(0))
        assert out == g(0, 1, 0, 0, 1, 1)

    def test_mutation_always_changes_locus(self):
        space = GenotypeSpace(4, 5)
        x = g(0, 1, 2, 3)
        rng = np.random.default_rng(42)
        for _ in range(200):
            out = mutate(x, MutationSpec(1.0), space, rng)
            assert all(a != b for a, b in zip(out, x))
            assert space.contains(out)

    def test_mean_flip_count_matches_expectation(self):
        # E[unnormalized Hamming distance] = mu * n = 1.0
        space = GenotypeSpace(10, 2)
        spec = MutationSpec(0.1)
        x = g(*([0] * 10))
        rng = np.random.default_rng(1234)
        total = 0
        trials = 100_000
        for _ in range(trials):
            total += sum(1 for a, b in zip(mutate(x, spec, space, rng), x) if a != b)
        assert total / trials == pytest.approx(1.0, abs=0.03)

    @given(space_members, st.sampled_from([0.0, 0.1, 1.0]), st.integers(0, 2**128))
    def test_same_draws_and_child_as_numpy_formula(self, member, mu, seed):
        # the numpy formula mutate used before it built the child in Python
        space, x = member
        rng = np.random.default_rng(seed)
        ref_rng = copy.deepcopy(rng)
        flips = ref_rng.random(space.loci) < mu
        draws = ref_rng.integers(0, space.variants - 1, size=space.loci)
        genes = np.array(x, dtype=np.int64)
        expected = tuple(int(v) for v in np.where(flips, draws + (draws >= genes), genes))

        out = mutate(x, MutationSpec(mu), space, rng)
        assert out == expected
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert type(out) is tuple
        assert all(type(v) is int for v in out)

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            MutationSpec(1.5)
        with pytest.raises(ValueError):
            MutationSpec(-0.1)


class TestSimilarityMatrix:
    def test_matches_pairwise_function(self):
        gs = enumerate_genotypes(GenotypeSpace(3, 2))
        mat = similarity_matrix(gs)
        for i, a in enumerate(gs):
            for j, b in enumerate(gs):
                assert mat[i, j] == pytest.approx(hamming_similarity(a, b))

    def test_symmetric_unit_diagonal(self):
        gs = enumerate_genotypes(GenotypeSpace(4, 2))
        mat = similarity_matrix(gs)
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 1.0)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            similarity_matrix([g(0, 1), g(0, 1, 1)])
