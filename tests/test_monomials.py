import random
import time
from math import comb

import pytest
from hypothesis import given, strategies as st

from hyperbetti.errors import DimensionError, DomainError, ResourceCapError, check_budget
from hyperbetti.monomials import Monomial, MonomialIdeal, minimal_generators, power_generators
from helpers import brute_minimal_power_generators, disjoint_ideal, multiply_tuple


def mono(*exps):
    return Monomial(exps)


def tuples_of(m, t):
    return [b for b, _ in power_generators(disjoint_ideal(m), t)]


@st.composite
def monomial_triple(draw):
    n = draw(st.integers(1, 5))
    vec = st.lists(st.integers(0, 4), min_size=n, max_size=n)
    return tuple(Monomial(draw(vec)) for _ in range(3))


class TestMonomial:
    def test_divides(self):
        assert mono(1, 1, 0).divides(mono(1, 1, 1))
        assert not mono(2, 0).divides(mono(1, 1))
        assert mono(0, 0, 0).divides(mono(5, 0, 3))

    def test_divides_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mono(1).divides(mono(1, 1))

    def test_degree_is_exponent_sum(self):
        assert mono(2, 0, 3).degree == 5
        assert Monomial((0,) * 4).degree == 0

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            mono(1, -1)

    def test_mul_and_pow(self):
        assert mono(1, 2) * mono(0, 1) == mono(1, 3)
        assert mono(1, 2) * mono(1, 2) * mono(1, 2) == mono(3, 6)

    def test_str(self):
        assert str(mono(2, 0, 1)) == "x1^2*x3"
        assert str(Monomial((0,) * 3)) == "1"

    @given(monomial_triple())
    def test_lcm_algebra(self, triple):
        a, b, _ = triple
        assert a.divides(a * b)


class TestEnumerateTuples:
    """The factorization-tuple walk of power_generators, on disjoint_ideal."""

    def test_m2_t2_order(self):
        assert tuples_of(2, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_m1(self):
        assert tuples_of(1, 3) == [(3,)]

    def test_standard_basis_at_t1(self):
        assert tuples_of(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_domain_errors(self):
        with pytest.raises(DomainError, match="no generators"):
            power_generators(MonomialIdeal(2, []), 2)
        with pytest.raises(DomainError, match="power must be >= 1"):
            power_generators(disjoint_ideal(2), 0)

    def test_walk_within_budget_enumerates(self):
        # C(103, 3) = 176851 tuples of 4 generators at t = 100: under 2^20
        assert len(tuples_of(4, 100)) == comb(103, 3)

    def test_walk_over_budget_refused_before_enumerating(self):
        # C(203, 3) = 1373701 tuples at t = 200: over 2^20, refused at once
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match="^1373701 factorization tuples of 4 "
                                                   "generators at power 200, over the cap"):
            power_generators(disjoint_ideal(4), 200)
        assert time.perf_counter() - start < 0.1

    def test_budget_message_past_printable_decimals(self):
        # 2^20000 has 6021 decimal digits, more than Python prints by default
        with pytest.raises(ResourceCapError, match=r"^2\^20000 tuples, over the cap"):
            check_budget(1 << 20000, "tuples")
        with pytest.raises(ResourceCapError, match=r"^more than 2\^20000 tuples, over the cap"):
            check_budget((1 << 20000) + 1, "tuples")

    @given(st.integers(1, 5), st.integers(1, 6))
    def test_count_and_order(self, m, t):
        tuples = tuples_of(m, t)
        assert len(tuples) == comb(t + m - 1, m - 1)
        assert all(sum(b) == t and len(b) == m for b in tuples)
        assert all(type(e) is int for b in tuples for e in b)
        assert all(a > b for a, b in zip(tuples, tuples[1:]))


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
        assert power_generators(ideal, 3) == [((3,), mono(3, 3))]

    def test_two_triples_cubed(self):
        # (abc, cde)^3 has four generators, all of degree nine
        ideal = MonomialIdeal(5, [mono(1, 1, 1, 0, 0), mono(0, 0, 1, 1, 1)])
        pairs = power_generators(ideal, 3)
        assert [b for b, _ in pairs] == [(3, 0), (2, 1), (1, 2), (0, 3)]
        assert [m for _, m in pairs] == [
            mono(3, 3, 3, 0, 0), mono(2, 2, 3, 1, 1), mono(1, 1, 3, 2, 2), mono(0, 0, 3, 3, 3)]
        assert all(m.degree == 9 for _, m in pairs)

    def test_four_cycle_collision_representative(self):
        edges = [mono(1, 1, 0, 0), mono(0, 1, 1, 0), mono(0, 0, 1, 1), mono(1, 0, 0, 1)]
        ideal = MonomialIdeal(4, edges)
        pairs = power_generators(ideal, 2)
        assert len(pairs) == 9
        tuples = {b for b, _ in pairs}
        # the collided square x1x2x3x4 keeps the earliest balanced tuple
        assert (1, 0, 1, 0) in tuples
        assert (0, 1, 0, 1) not in tuples

    def test_tuple_walk_over_budget_refused(self):
        ideal = MonomialIdeal(4, [mono(1, 1, 0, 0), mono(0, 1, 1, 0), mono(0, 0, 1, 1),
                                  mono(1, 0, 0, 1)])
        with pytest.raises(ResourceCapError, match="factorization tuples"):
            power_generators(ideal, 200)

    def test_zero_power_rejected(self):
        ideal = MonomialIdeal(2, [mono(1, 1)])
        with pytest.raises(DomainError):
            power_generators(ideal, 0)

    def test_tuples_witness_products(self):
        ideal = MonomialIdeal(5, [mono(1, 1, 0, 0, 0), mono(0, 1, 1, 0, 0),
                                  mono(0, 0, 0, 1, 1)])
        for t in (1, 2, 3):
            for b, m in power_generators(ideal, t):
                assert sum(b) == t
                assert multiply_tuple(ideal.generators, b) == m

    def test_uniform_power_needs_no_divisibility_test(self, monkeypatch):
        # products of t generators of one degree all share a degree, so none divides another
        calls = []
        divides = Monomial.divides

        def counted(self, other):
            calls.append(1)
            return divides(self, other)

        monkeypatch.setattr(Monomial, "divides", counted)
        ideal = MonomialIdeal(6, [mono(1, 1, 0, 0, 0, 0), mono(0, 1, 1, 0, 0, 0),
                                  mono(0, 0, 1, 1, 0, 0), mono(0, 0, 0, 1, 1, 0),
                                  mono(0, 0, 0, 0, 1, 1)])
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
