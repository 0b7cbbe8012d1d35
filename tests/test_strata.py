import pytest

from twolevel.errors import InvalidInput
from twolevel.strata import (
    STRATA_MAX_DIM,
    MultiplicityFamily,
    enumerate_families,
    enumerate_strata,
    is_faithful,
    stratum_info,
    two_level_stratum_dim,
)


def partition_count_oracle(n):
    """Independent partition counter via the standard DP over part sizes."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def test_enumerate_families_n1():
    fams = enumerate_families(1)
    assert len(fams) == 1
    assert fams[0].mults == ((0, 1),)


def test_enumerate_families_n2():
    fams = enumerate_families(2)
    assert [f.parts() for f in fams] == [(2,), (1, 1)]


def test_enumerate_families_n4_order():
    fams = enumerate_families(4)
    assert [f.parts() for f in fams] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_families_sum_constraint():
    for n in range(1, 15):
        for f in enumerate_families(n):
            assert f.total_dim() == n


def test_family_counts_match_partition_oracle():
    for n in range(1, 25):
        assert len(enumerate_families(n)) == partition_count_oracle(n)


def test_no_duplicate_families():
    for n in range(1, 15):
        fams = enumerate_families(n)
        assert len({f.mults for f in fams}) == len(fams)


def test_is_faithful_parity():
    assert is_faithful(MultiplicityFamily(((1, 1), (0, 2))))
    assert not is_faithful(MultiplicityFamily(((0, 4),)))
    assert not is_faithful(MultiplicityFamily(((2, 1), (0, 1))))


def test_stratum_info_golden_n4():
    assert stratum_info(MultiplicityFamily(((1, 1), (0, 2))), 4).orbit_dim == 11
    assert stratum_info(MultiplicityFamily(((3, 1),)), 4).orbit_dim == 15


def test_stratum_info_golden_n8():
    assert stratum_info(MultiplicityFamily(((1, 1), (0, 6))), 8).orbit_dim == 27
    assert stratum_info(MultiplicityFamily(((7, 1),)), 8).orbit_dim == 63


def test_stratum_info_stabilizer_factors():
    info = stratum_info(MultiplicityFamily(((1, 1), (0, 2))), 4)
    assert info.stabilizer_factors == (1, 2)
    assert info.faithful


def test_stratum_info_dim_mismatch():
    with pytest.raises(InvalidInput, match="family has total dimension 2, expected 4"):
        stratum_info(MultiplicityFamily(((1, 1),)), 4)


def test_orbit_dim_consistency():
    for n in range(2, 13):
        for f in enumerate_families(n):
            info = stratum_info(f, n)
            assert info.orbit_dim + sum(m * m for m in info.stabilizer_factors) == n * n


def test_enumerate_strata_n2():
    infos = enumerate_strata(2)
    assert len(infos) == 1
    assert infos[0].orbit_dim == 3
    assert infos[0].family.mults == ((1, 1),)


def test_enumerate_strata_n4():
    infos = enumerate_strata(4)
    assert [s.orbit_dim for s in infos] == [15, 12, 11]


def test_enumerate_strata_n8_contains_examples():
    dims = {s.orbit_dim for s in enumerate_strata(8)}
    assert 27 in dims and 63 in dims


def test_enumerate_strata_counts_by_parity_oracle():
    # Brute-force parity filter directly over partition tuples.
    for n in (2, 4, 6, 8):
        fams = enumerate_families(n)
        expected = sum(1 for f in fams if any(s % 2 == 0 for s in f.parts()))
        assert len(enumerate_strata(n)) == expected


def test_enumerate_strata_rejects_n1():
    with pytest.raises(InvalidInput, match="no faithful representation in dimension 1"):
        enumerate_strata(1)


def test_enumerate_rejects_dims_above_the_bound():
    # Raised before any partition is listed, so n = 60 (966,467 partitions) is instant.
    for n in (STRATA_MAX_DIM + 1, 60):
        for enumerate_ in (enumerate_families, enumerate_strata):
            with pytest.raises(InvalidInput, match=f"\\[1, {STRATA_MAX_DIM}\\]"):
                enumerate_(n)
    assert len(enumerate_families(STRATA_MAX_DIM)) == partition_count_oracle(STRATA_MAX_DIM)


def test_max_orbit_dim_from_multiplicity_free_family():
    for n in range(2, 13):
        infos = [stratum_info(f, n) for f in enumerate_families(n)]
        best = max(i.orbit_dim for i in infos)
        winners = [i for i in infos if i.orbit_dim == best]
        assert any(all(m <= 1 for m in i.stabilizer_factors) for i in winners)


@pytest.mark.parametrize("n,expected", [(4, 11), (8, 27), (16, 59)])
def test_two_level_stratum_dim(n, expected):
    assert two_level_stratum_dim(n) == expected


def test_two_level_stratum_dim_rejects_small():
    with pytest.raises(InvalidInput, match="two-level stratum needs dim >= 3, got 2"):
        two_level_stratum_dim(2)


def test_stratum_json_shape():
    info = stratum_info(MultiplicityFamily(((1, 1), (0, 2))), 4)
    obj = info.to_json()
    assert obj == {
        "mults": {"1": 1, "0": 2},
        "faithful": True,
        "stabilizer": [1, 2],
        "orbit_dim": 11,
    }
