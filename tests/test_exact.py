"""Exact-engine unit tests: frozen small values, oracle cross-checks, and
structural properties."""

from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partbounds.errors import PreconditionError
from partbounds.exact import (
    AVOIDING_BOUND,
    ENUMERATION_BOUND,
    LISTING_BOUND,
    RANK_BOUND,
    TABLE_CEILING,
    PartitionTable,
    _partitions,
    _rank_tally,
    delta_r_j_direct,
    dyson_rank_count,
    enumerate_partitions,
    f_jn,
    nonkary_enumerate_oracle,
    nu_k,
    p_enumerate_oracle,
    p_exact,
    series_delta_coeffs,
    shifted_index,
)
from fractions import Fraction

# p(0)..p(20), long-established reference values
P_SMALL = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231,
           297, 385, 490, 627]


def test_p_small_values():
    for n, expected in enumerate(P_SMALL):
        assert p_exact(n) == expected


def test_p_reference_points():
    assert p_exact(100) == 190569292
    assert p_exact(200) == 3972999029388
    assert p_exact(1000) == 24061467864032622473692149727991


def test_p_negative_is_zero():
    assert p_exact(-1) == 0
    assert p_exact(-100) == 0


def test_fresh_table_growth():
    t = PartitionTable()
    assert len(t) == 1
    assert t.p(30) == 5604
    assert len(t) == 31


def test_table_ceiling():
    t = PartitionTable()
    with pytest.raises(PreconditionError, match=str(TABLE_CEILING)):
        t.ensure(TABLE_CEILING + 1)
    assert len(t) == 1


def _pentagonal_steps(top):
    """Growth targets on, and one either side of, each generalized pentagonal
    number k(3k -+ 1)/2 up to top, with irregular gaps between them."""
    steps = set()
    k = 1
    while k * (3 * k - 1) // 2 <= top:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            steps.update(s for s in (g - 1, g, g + 1, g + k % 7 + 3) if 0 <= s <= top)
        k += 1
    return sorted(steps | {top})


GROWTH_TOP = 1500


@lru_cache(maxsize=1)
def _series_p():
    return series_delta_coeffs(1, 0, GROWTH_TOP)


# a growth target for one of two tables: on or next to a generalized
# pentagonal number, anywhere up to GROWTH_TOP, or one past the ceiling
_targets = st.tuples(
    st.sampled_from([0, 1]),
    st.one_of(
        st.sampled_from(_pentagonal_steps(GROWTH_TOP)),
        st.integers(0, GROWTH_TOP),
        st.just(TABLE_CEILING + 1),
    ),
)


@given(targets=st.lists(_targets, max_size=40))
@settings(max_examples=60, deadline=None)
@example(targets=[(0, s) for s in _pentagonal_steps(GROWTH_TOP)])
@example(targets=[(i % 2, s) for i, s in enumerate(_pentagonal_steps(GROWTH_TOP))])
@example(targets=[(0, TABLE_CEILING + 1), (1, 7), (0, 5), (1, TABLE_CEILING + 1), (1, 8)])
def test_interleaved_growth_matches_series(targets):
    # the series is built by repeated division, never the pentagonal
    # identity; two tables grown in turn keep their growth state apart, and a
    # refused target leaves a table and its state as they were
    tables = (PartitionTable(), PartitionTable())
    for which, n in targets:
        table = tables[which]
        size, state = len(table), table._growth
        if n > TABLE_CEILING:
            with pytest.raises(PreconditionError, match="table ceiling"):
                table.ensure(n)
            assert len(table) == size and table._growth is state
        else:
            table.ensure(n)
            assert len(table) == max(size, n + 1)
    for table in tables:
        table.ensure(GROWTH_TOP)
        assert [table.p(n) for n in range(GROWTH_TOP + 1)] == _series_p()


def test_one_shot_growth_equals_stepwise():
    one_shot = PartitionTable()
    one_shot.ensure(20_000)
    stepwise = PartitionTable()
    for step in [*range(0, 20_000, 997), 20_000]:
        stepwise.ensure(step)
    assert len(stepwise) == len(one_shot) == 20_001
    assert all(stepwise.p(n) == one_shot.p(n) for n in range(20_001))


def test_p_monotone():
    for n in range(1, 2000):
        assert p_exact(n) >= p_exact(n - 1)


def test_enumeration_oracle_small():
    # partitions of 5: 5, 41, 32, 311, 221, 2111, 11111
    assert p_enumerate_oracle(5) == 7
    assert p_enumerate_oracle(1) == 1
    assert p_enumerate_oracle(0) == 1


def test_enumeration_oracle_matches_recurrence():
    for n in range(61):
        assert p_enumerate_oracle(n) == p_exact(n)


def test_oracles_count_as_literal_enumeration():
    # the counting pass against the partitions themselves, listed one by one
    for n in range(LISTING_BOUND + 1):
        listed = list(enumerate_partitions(n))
        assert p_enumerate_oracle(n) == len(listed), n
        if n <= 30:
            for k in range(1, n + 2):
                avoiding = sum(1 for parts in listed if k not in parts)
                assert nonkary_enumerate_oracle(n, k) == avoiding, (n, k)


def test_enumeration_oracle_bound():
    with pytest.raises(PreconditionError):
        p_enumerate_oracle(91)


def test_f_jn_values():
    assert f_jn(4, 2) == 2      # 5 - 4 + 1
    assert f_jn(2, 1) == 1      # 2 - 2 + 1
    assert f_jn(14, 1) == 10    # 135 - 202 + 77


@given(j=st.integers(1, 10))
def test_f_jn_boundary_uses_p0(j):
    assert f_jn(2 * j, j) == p_exact(2 * j) - 2 * p_exact(j) + 1


def test_f_jn_preconditions():
    with pytest.raises(PreconditionError):
        f_jn(4, 3)
    with pytest.raises(PreconditionError):
        f_jn(1, 1)
    with pytest.raises(PreconditionError):
        f_jn(4, 0)


def test_delta_values():
    assert delta_r_j_direct(5, 1, 1) == p_exact(5) - p_exact(4) == 2
    assert delta_r_j_direct(6, 2, 3) == 11 - 15 + 6 - 1 == 1


@given(n=st.integers(2, 120), j=st.integers(1, 20))
@settings(max_examples=200)
def test_delta_2_equals_f(n, j):
    if 2 * j > n:
        j = n // 2
    assert delta_r_j_direct(n, j, 2) == f_jn(n, j)


def test_delta_precondition():
    with pytest.raises(PreconditionError):
        delta_r_j_direct(5, 2, 3)


def test_series_r0_is_partition_series():
    assert series_delta_coeffs(3, 0, 40) == [p_exact(n) for n in range(41)]


def test_series_matches_direct_differences():
    coeffs = series_delta_coeffs(1, 2, 10)
    for n in range(2, 11):
        assert coeffs[n] == delta_r_j_direct(n, 1, 2)


def test_series_j3_r2_nonnegative():
    assert all(c >= 0 for c in series_delta_coeffs(3, 2, 20))


def test_series_three_way_agreement():
    # direct difference, binomial sum, and series extraction must agree
    for j in (1, 2, 5, 9):
        coeffs = series_delta_coeffs(j, 2, 200)
        for n in range(2 * j, 201, 7):
            direct = p_exact(n) - 2 * p_exact(n - j) + p_exact(n - 2 * j)
            assert coeffs[n] == direct == delta_r_j_direct(n, j, 2)


def test_nu_values():
    assert nu_k(5, 1) == 2          # {5}, {3,2}
    assert nu_k(6, 2) == 6
    assert nu_k(4, 9) == p_exact(4)  # no part can equal 9


def test_nu_matches_oracle():
    for n in range(1, 41):
        for k in range(1, n + 1):
            assert nu_k(n, k) == nonkary_enumerate_oracle(n, k)


def test_nonkary_oracle_self_exclusion():
    for n in range(1, 20):
        assert nonkary_enumerate_oracle(n, n) == p_exact(n) - 1


def test_nonkary_oracle_spot():
    assert nonkary_enumerate_oracle(5, 1) == 2
    assert nonkary_enumerate_oracle(40, 3) == nu_k(40, 3)


def test_enumerate_partitions_of_5():
    parts = list(enumerate_partitions(5))
    assert len(parts) == 7
    assert (5,) in parts and (2, 1, 1, 1) in parts
    for lam in parts:
        assert sum(lam) == 5
        assert all(a >= b for a, b in zip(lam, lam[1:]))


def test_enumerate_partitions_count_matches():
    for n in range(LISTING_BOUND + 1):
        assert sum(1 for _ in enumerate_partitions(n)) == p_exact(n)


def test_dyson_rank_counts_sum_to_p():
    for n in range(1, 41):
        total = sum(dyson_rank_count(n, m) for m in range(-(n + 1), n + 1))
        assert total == p_exact(n)


def test_dyson_rank_spot():
    # rank 3 partitions of 4: only (4) with rank 4-1=3
    assert dyson_rank_count(4, 3) == 1


def _recursive_partitions(n, max_part):
    # the recursive generator the iterative one replaced, kept as its reference
    if n == 0:
        yield ()
        return
    for first in range(min(max_part, n), 0, -1):
        for rest in _recursive_partitions(n - first, first):
            yield (first,) + rest


@pytest.mark.parametrize("n", range(31))
def test_partitions_match_recursive_order(n):
    expected = list(_recursive_partitions(n, n))
    assert list(enumerate_partitions(n)) == expected
    assert list(_partitions(n)) == expected


def test_rank_counts_match_per_m_literal_count():
    for n in range(1, 26):
        listed = list(_recursive_partitions(n, n))
        for m in range(-n - 2, n + 2):
            expected = sum(1 for parts in listed if parts[0] - len(parts) == m)
            assert dyson_rank_count(n, m) == expected, (n, m)


def test_repeated_rank_count_is_cache_hit():
    dyson_rank_count(17, 2)
    hits = _rank_tally.cache_info().hits
    assert dyson_rank_count(17, 3) == dyson_rank_count(17, 3)
    assert _rank_tally.cache_info().hits == hits + 2


def test_oracle_bounds_refuse_one_past():
    # the rank memo holds one tally for every n the rank oracle accepts
    assert _rank_tally.cache_info().maxsize == RANK_BOUND + 1
    assert dyson_rank_count(RANK_BOUND, 0) > 0
    assert nonkary_enumerate_oracle(AVOIDING_BOUND, 1) == nu_k(AVOIDING_BOUND, 1)
    with pytest.raises(PreconditionError, match=r"^rank enumeration requires n <= 40$"):
        dyson_rank_count(RANK_BOUND + 1, 0)
    with pytest.raises(PreconditionError, match=r"^avoiding-part oracle requires n <= 60$"):
        nonkary_enumerate_oracle(AVOIDING_BOUND + 1, 1)


def test_shifted_index():
    assert shifted_index(14) == Fraction(335, 24)
    assert shifted_index(14) == 14 - Fraction(1, 24)
    assert shifted_index(1) == Fraction(23, 24)
