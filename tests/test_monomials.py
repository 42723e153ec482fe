import random
from math import comb

import pytest
from hypothesis import given, strategies as st

from hyperbetti.errors import DimensionError, DomainError
from hyperbetti.monomials import (ExponentTuple, Monomial, MonomialIdeal,
                                  enumerate_tuples, minimal_generators,
                                  power_generators, tuple_product)
from helpers import brute_minimal_power_generators


def mono(*exps):
    return Monomial(exps)


@st.composite
def monomial_triple(draw):
    n = draw(st.integers(1, 5))
    vec = st.lists(st.integers(0, 4), min_size=n, max_size=n)
    return tuple(Monomial(draw(vec)) for _ in range(3))


class TestMonomial:
    def test_lcm_componentwise_max(self):
        assert mono(1, 1, 0).lcm(mono(0, 1, 1)) == mono(1, 1, 1)
        assert mono(2, 1).lcm(mono(0, 3)) == mono(2, 3)

    def test_lcm_idempotent(self):
        m = mono(3, 0, 2)
        assert m.lcm(m) == m

    def test_lcm_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mono(1, 0).lcm(mono(1, 0, 0))

    def test_divides(self):
        assert mono(1, 1, 0).divides(mono(1, 1, 1))
        assert not mono(2, 0).divides(mono(1, 1))
        assert mono(0, 0, 0).divides(mono(5, 0, 3))

    def test_divides_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mono(1).divides(mono(1, 1))

    def test_degree_is_exponent_sum(self):
        assert mono(2, 0, 3).degree == 5
        assert Monomial.one(4).degree == 0

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            mono(1, -1)

    def test_mul_and_pow(self):
        assert mono(1, 2) * mono(0, 1) == mono(1, 3)
        assert mono(1, 2) ** 3 == mono(3, 6)

    def test_from_support(self):
        assert Monomial.from_support(5, [1, 2, 3]) == mono(1, 1, 1, 0, 0)

    def test_str(self):
        assert str(mono(2, 0, 1)) == "x1^2*x3"
        assert str(Monomial.one(3)) == "1"

    @given(monomial_triple())
    def test_lcm_algebra(self, triple):
        a, b, c = triple
        assert a.lcm(b) == b.lcm(a)
        assert a.lcm(b).lcm(c) == a.lcm(b.lcm(c))
        assert a.lcm(a) == a
        assert a.divides(a * b)


class TestEnumerateTuples:
    def test_m2_t2_order(self):
        assert [b.entries for b in enumerate_tuples(2, 2)] == [(2, 0), (1, 1), (0, 2)]

    def test_m1(self):
        assert [b.entries for b in enumerate_tuples(1, 3)] == [(3,)]

    def test_standard_basis_at_t1(self):
        assert [b.entries for b in enumerate_tuples(3, 1)] == [
            (1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            enumerate_tuples(0, 2)
        with pytest.raises(DomainError):
            enumerate_tuples(2, 0)

    @given(st.integers(1, 5), st.integers(1, 6))
    def test_count_and_order(self, m, t):
        tuples = enumerate_tuples(m, t)
        assert len(tuples) == comb(t + m - 1, m - 1)
        assert all(b.total == t for b in tuples)
        assert all(len(b.entries) == m for b in tuples)
        keys = [b.sort_key() for b in tuples]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_order_is_total(self):
        tuples = enumerate_tuples(3, 3)
        for a in tuples:
            for b in tuples:
                assert (a < b) + (b < a) + (a == b) == 1


class TestMinimalGenerators:
    def test_containment_removed(self):
        assert minimal_generators([mono(1, 1, 0), mono(1, 1, 1)]) == [mono(1, 1, 0)]

    def test_incomparable_kept(self):
        gens = [mono(1, 1, 0, 0), mono(0, 0, 1, 1)]
        assert minimal_generators(gens) == gens

    def test_empty(self):
        assert minimal_generators([]) == []

    def test_duplicates_collapse(self):
        assert minimal_generators([mono(1, 0), mono(1, 0)]) == [mono(1, 0)]

    def test_four_cycle_square_collapses(self):
        # products of pairs of the 4-cycle edge monomials: 10 pairs, 9 monomials
        edges = [mono(1, 1, 0, 0), mono(0, 1, 1, 0), mono(0, 0, 1, 1), mono(1, 0, 0, 1)]
        products = [edges[i] * edges[k] for i in range(4) for k in range(i, 4)]
        assert len(products) == 10
        survivors = minimal_generators(products)
        assert len(survivors) == 9
        assert set(survivors) == set(products)

    @given(st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3),
                    min_size=1, max_size=8))
    def test_idempotent_antichain(self, raw):
        gens = [Monomial(e) for e in raw]
        reduced = minimal_generators(gens)
        assert minimal_generators(reduced) == reduced
        for a in reduced:
            for b in reduced:
                assert a is b or not a.divides(b)


class TestMonomialIdeal:
    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            MonomialIdeal(2, [mono(1, 1), mono(1, 1)])

    def test_rejects_non_minimal(self):
        with pytest.raises(DomainError):
            MonomialIdeal(3, [mono(1, 0, 0), mono(1, 1, 0)])

    def test_names_first_redundant_generator(self):
        with pytest.raises(DomainError, match=r"x1\*x2\*x3 is redundant"):
            MonomialIdeal(3, [mono(0, 1, 1), mono(1, 1, 1), mono(1, 1, 0), mono(2, 1, 1)])

    def test_rejects_wrong_ring(self):
        with pytest.raises(DimensionError):
            MonomialIdeal(3, [mono(1, 0)])

    def test_truncate(self):
        ideal = MonomialIdeal(4, [mono(1, 1, 0, 0), mono(0, 0, 1, 1)])
        assert ideal.truncate(1).generators == (mono(1, 1, 0, 0),)
        assert ideal.truncate(2) == ideal


class TestPowerGenerators:
    def test_principal(self):
        ideal = MonomialIdeal(2, [mono(1, 1)])
        assert power_generators(ideal, 3) == [(ExponentTuple((3,)), mono(3, 3))]

    def test_two_triples_cubed(self):
        # (abc, cde)^3 has four generators, all of degree nine
        ideal = MonomialIdeal(5, [mono(1, 1, 1, 0, 0), mono(0, 0, 1, 1, 1)])
        pairs = power_generators(ideal, 3)
        assert [b.entries for b, _ in pairs] == [(3, 0), (2, 1), (1, 2), (0, 3)]
        assert [m for _, m in pairs] == [
            mono(3, 3, 3, 0, 0), mono(2, 2, 3, 1, 1), mono(1, 1, 3, 2, 2), mono(0, 0, 3, 3, 3)]
        assert all(m.degree == 9 for _, m in pairs)

    def test_four_cycle_collision_representative(self):
        edges = [mono(1, 1, 0, 0), mono(0, 1, 1, 0), mono(0, 0, 1, 1), mono(1, 0, 0, 1)]
        ideal = MonomialIdeal(4, edges)
        pairs = power_generators(ideal, 2)
        assert len(pairs) == 9
        tuples = {b.entries for b, _ in pairs}
        # the collided square x1x2x3x4 keeps the earliest balanced tuple
        assert (1, 0, 1, 0) in tuples
        assert (0, 1, 0, 1) not in tuples

    def test_zero_power_rejected(self):
        ideal = MonomialIdeal(2, [mono(1, 1)])
        with pytest.raises(DomainError):
            power_generators(ideal, 0)

    def test_tuples_witness_products(self):
        ideal = MonomialIdeal(5, [mono(1, 1, 0, 0, 0), mono(0, 1, 1, 0, 0),
                                  mono(0, 0, 0, 1, 1)])
        for t in (1, 2, 3):
            for b, m in power_generators(ideal, t):
                assert b.total == t
                assert tuple_product(ideal.generators, b) == m

    def test_uniform_power_needs_no_divisibility_test(self, monkeypatch):
        # products of t generators of one degree all share a degree, so none divides another
        calls = []
        divides = Monomial.divides

        def counted(self, other):
            calls.append(1)
            return divides(self, other)

        monkeypatch.setattr(Monomial, "divides", counted)
        ideal = MonomialIdeal(6, [Monomial.from_support(6, e)
                                  for e in ([1, 2], [2, 3], [3, 4], [4, 5], [5, 6])])
        assert len(power_generators(ideal, 3)) == 35
        assert calls == []

    def test_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 5)
            pool = [Monomial([rng.randint(0, 2) for _ in range(n)]) for _ in range(4)]
            gens = minimal_generators([g for g in pool if g.degree > 0])
            if not gens:
                continue
            ideal = MonomialIdeal(n, gens)
            for t in (2, 3):
                ours = {m for _, m in power_generators(ideal, t)}
                assert ours == brute_minimal_power_generators(ideal, t)
