import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kincoop.genotype import (
    Genotype,
    GenotypeSpace,
    MutationSpec,
    enumerate_genotypes,
    hamming_similarity,
    match_count,
    mutate,
    similarity_matrix,
)


def g(*genes):
    return Genotype(tuple(genes))


genotypes_pairs = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
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
        a, b = Genotype(tuple(pair[0])), Genotype(tuple(pair[1]))
        assert hamming_similarity(a, b) == hamming_similarity(b, a)

    @given(genotypes_pairs)
    def test_range_is_lattice(self, pair):
        a, b = Genotype(tuple(pair[0])), Genotype(tuple(pair[1]))
        h = hamming_similarity(a, b)
        assert 0.0 <= h <= 1.0
        assert h * len(a) == pytest.approx(round(h * len(a)))

    @given(genotype_triples)
    def test_triangle_inequality_on_distance(self, triple):
        a, b, c = (Genotype(tuple(t)) for t in triple)
        d = lambda x, y: 1.0 - hamming_similarity(x, y)
        assert d(a, c) <= d(a, b) + d(b, c) + 1e-12


class TestGenotypeType:
    def test_round_trip_string(self):
        assert Genotype.from_string("1-1-0-1").to_string() == "1-1-0-1"
        assert Genotype.from_string("1-1-0-1") == g(1, 1, 0, 1)

    def test_malformed_string(self):
        with pytest.raises(ValueError):
            Genotype.from_string("1-x-0")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Genotype(())

    def test_negative_gene_rejected(self):
        with pytest.raises(ValueError):
            g(0, -1)


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
        keys = [x.genes for x in out]
        assert keys == sorted(keys)

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
