import pytest
from hypothesis import given, settings, strategies as st

import oracles
from triplepass.actions import INSTANCE_KINDS, build_instance
from triplepass.errors import SingularMatrixError
from triplepass.fields import PrimeField, RATIONALS
from triplepass.groups import (
    DEFAULT_PRIME_CAP,
    FiniteGroup,
    _mul,
    commutator,
    commutator_subgroup,
    distinct_commutators,
    enumerate_gl2,
    gl2_order,
    subgroup_closure,
)
from triplepass.matrices import Mat2

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def residue_set(group):
    return {m.residues() for m in group}


def from_elements(mats):
    """A ``FiniteGroup`` of ``Mat2`` elements, validated by ``from_residues``."""
    unique = list({m: None for m in mats})
    if not unique:
        raise ValueError("a group needs at least one element")
    domains = {m.domain for m in unique}
    if len(domains) != 1:
        raise ValueError("group elements must share one scalar domain")
    domain = domains.pop()
    if not isinstance(domain, PrimeField):
        raise ValueError("finite groups are supported over prime fields only")
    return FiniteGroup.from_residues(domain, (m.residues() for m in unique))


class TestEnumerateGl2:
    def test_sizes_match_brute_force(self):
        # Oracle: filter all p^4 matrices by nonzero determinant.
        for p, expected in ((2, 6), (3, 48)):
            group = enumerate_gl2(p)
            oracle = oracles.gl2(p)
            assert len(oracle) == expected
            assert len(group) == expected
            assert residue_set(group) == set(oracle)

    def test_closed_under_product_and_inverse(self):
        res = enumerate_gl2(3).residues
        members = set(res)
        for g in res:
            assert oracles.minv(3, g) in members
            for h in res:
                assert oracles.mmul(3, g, h) in members

    def test_order_formula(self):
        assert gl2_order(2) == 6
        assert gl2_order(3) == 48
        assert gl2_order(7) == 2016

    def test_cap_rejects_large_prime(self):
        with pytest.raises(ValueError, match="cap"):
            enumerate_gl2(11, cap=DEFAULT_PRIME_CAP)

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            enumerate_gl2(6)

    def test_canonical_element_order(self):
        group = enumerate_gl2(2)
        keys = [m.residues() for m in group]
        assert keys == sorted(keys)


class TestSubgroupClosure:
    def test_identity_alone_gives_trivial_group(self):
        group = subgroup_closure([Mat2.identity(F5)])
        assert len(group) == 1

    def test_diagonal_generators_close_to_full_diagonal_group(self):
        # (p-1)^2 invertible diagonals; oracle closure agrees.
        gens = [Mat2.from_values(F5, 2, 0, 0, 1), Mat2.from_values(F5, 1, 0, 0, 2)]
        group = subgroup_closure(gens)
        assert len(group) == 16
        assert residue_set(group) == oracles.closure(5, [(2, 0, 0, 1), (1, 0, 0, 2)])

    def test_closure_is_idempotent(self):
        gens = [Mat2.from_values(F5, 0, 1, 4, 0), Mat2.from_values(F5, 2, 0, 0, 3)]
        group = subgroup_closure(gens)
        reclosed = subgroup_closure(list(group.elements))
        assert group.elements == reclosed.elements

    def test_rational_domain_rejected(self):
        with pytest.raises(ValueError, match="closure requires finite domain"):
            subgroup_closure([Mat2.identity(RATIONALS)])

    def test_empty_and_singular_generators_rejected(self):
        with pytest.raises(ValueError):
            subgroup_closure([])
        with pytest.raises(SingularMatrixError):
            subgroup_closure([Mat2.from_values(F5, 1, 2, 2, 4)])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(oracles.gl2(3)), min_size=1, max_size=2))
    def test_closure_matches_oracle_on_f3(self, raw_gens):
        gens = [Mat2.from_values(F3, *m) for m in raw_gens]
        group = subgroup_closure(gens)
        assert residue_set(group) == oracles.closure(3, raw_gens)


class TestCommutator:
    def test_commuting_elements_give_identity(self):
        a = Mat2.from_values(F5, 2, 0, 0, 3)
        b = Mat2.from_values(F5, 4, 0, 0, 1)
        assert commutator(a, b) == Mat2.identity(F5)

    def test_equal_arguments_give_identity(self):
        g = Mat2.from_values(F2, 1, 1, 0, 1)
        assert commutator(g, g) == Mat2.identity(F2)

    def test_f2_shears_do_not_commute(self):
        g = Mat2.from_values(F2, 1, 1, 0, 1)
        h = Mat2.from_values(F2, 1, 0, 1, 1)
        expected = oracles.mmul(
            2,
            oracles.mmul(2, oracles.mmul(2, oracles.minv(2, (1, 0, 1, 1)), oracles.minv(2, (1, 1, 0, 1))), (1, 0, 1, 1)),
            (1, 1, 0, 1),
        )
        got = commutator(g, h)
        assert got.residues() == expected
        assert got != Mat2.identity(F2)

    def test_all_commutators_trivial_in_commuting_families(self):
        # Diagonal groups are built from pairwise-commuting generators.
        for p in (2, 3, 5):
            fp = PrimeField(p)
            diag = subgroup_closure(
                [Mat2.from_values(fp, a, 0, 0, d) for a in range(1, p) for d in range(1, p)]
            )
            ident = Mat2.identity(fp)
            for g in diag:
                for h in diag:
                    assert commutator(g, h) == ident


class TestCommutatorSubgroup:
    def test_abelian_group_has_trivial_commutator_subgroup(self):
        diag = subgroup_closure([Mat2.from_values(F5, 2, 0, 0, 1), Mat2.from_values(F5, 1, 0, 0, 2)])
        assert len(commutator_subgroup(diag)) == 1

    def test_gl2_f2_commutator_subgroup_has_order_three(self):
        group = enumerate_gl2(2)
        sub = commutator_subgroup(group)
        # Oracle: closure over all 36 commutator pairs.
        assert residue_set(sub) == oracles.comm_subgroup(2, oracles.gl2(2))
        assert len(sub) == 3

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_gl2_commutator_subgroup_is_sl2(self, p):
        # Beyond p = 2, [GL2(F_p), GL2(F_p)] is SL2(F_p): no |G|^2 oracle needed.
        sl2 = {r for r in oracles.gl2(p) if oracles.det(p, r) == 1}
        assert len(sl2) == p * (p * p - 1)
        assert residue_set(commutator_subgroup(enumerate_gl2(p))) == sl2

    def test_upper_triangular_f3_commutators_are_unipotent(self):
        gens = [
            Mat2.from_values(F3, a, b, 0, d)
            for a in range(1, 3)
            for b in range(3)
            for d in range(1, 3)
        ]
        borel = subgroup_closure(gens)
        assert len(borel) == 12
        sub = commutator_subgroup(borel)
        assert residue_set(sub) == {(1, 0, 0, 1), (1, 1, 0, 1), (1, 2, 0, 1)}

    def test_normality_holds_externally(self):
        for group in (enumerate_gl2(2), enumerate_gl2(3)):
            sub = commutator_subgroup(group)
            for x in group:
                for c in sub:
                    assert (x.inverse() @ c) @ x in sub

    def test_normality_on_medium_borel_group(self):
        gens = [
            Mat2.from_values(F5, a, b, 0, d)
            for a in range(1, 5)
            for b in range(5)
            for d in range(1, 5)
        ]
        borel = subgroup_closure(gens)
        assert len(borel) == 80
        sub = commutator_subgroup(borel)
        assert len(sub) == 5
        for x in borel:
            for c in sub:
                assert (x.inverse() @ c) @ x in sub

    def test_every_p3_census_subgroup_matches_the_oracle(self):
        # Each subgroup three ways: as the census builds it from GL2(F3),
        # sharing the ambient rows and inverses; closed from its census
        # generators; and as a bare element set, whose generating set is
        # found greedily.
        from triplepass.census import _census_subgroups

        ambient = enumerate_gl2(3)
        subgroups, complete = _census_subgroups(ambient, 2, 10**9)
        assert complete and len(subgroups) == 55
        for key, combo in subgroups.items():
            gens = tuple(ambient.elements[i] for i in combo)
            census = ambient._subgroup(sorted(key), gens)
            closed = subgroup_closure(gens)
            bare = FiniteGroup.from_residues(F3, census.residues)
            assert closed.residues == bare.residues == census.residues
            assert census.inverse_indices == bare.inverse_indices
            assert census._point_rows == bare._point_rows
            expected = oracles.comm_subgroup(3, census.residues)
            for group in (census, closed, bare):
                assert residue_set(commutator_subgroup(group)) == expected

    def test_distinct_commutators_of_gl2_f2(self):
        got = {m.residues() for m in distinct_commutators(enumerate_gl2(2))}
        assert got == oracles.commutators(2, oracles.gl2(2))


class TestFiniteGroupValidation:
    def test_identity_required(self):
        with pytest.raises(ValueError, match="identity"):
            from_elements([Mat2.from_values(F5, 2, 0, 0, 2)])

    def test_inverse_closure_required(self):
        ident = Mat2.identity(F5)
        with pytest.raises(ValueError, match="not closed under inversion"):
            from_elements([ident, Mat2.from_values(F5, 2, 0, 0, 1)])

    def test_rational_elements_rejected(self):
        with pytest.raises(ValueError, match="prime fields"):
            from_elements([Mat2.identity(RATIONALS)])

    def test_products_match_the_oracle(self):
        group = enumerate_gl2(2)
        for g in group:
            for h in group:
                product = oracles.mmul(2, g.residues(), h.residues())
                assert group.index_of(g @ h) == group.residues.index(product)

    def test_is_abelian(self):
        assert not enumerate_gl2(2).is_abelian
        diag = subgroup_closure([Mat2.from_values(F5, 2, 0, 0, 1), Mat2.from_values(F5, 1, 0, 0, 2)])
        assert diag.is_abelian


def oracle_group(p, raw):
    return from_elements(Mat2.from_values(PrimeField(p), *m) for m in raw)


NON_ABELIAN = [
    pytest.param(3, oracles.gl2, id="gl2-f3"),
    pytest.param(5, oracles.gl2, id="gl2-f5"),
    pytest.param(7, oracles.upper_triangular_elements, id="borel-f7"),
]


class TestResidueKernelAgainstOracles:
    """The residue-tuple kernel against the plain-integer oracles, on
    groups larger than GL2(F2)."""

    @pytest.mark.parametrize("p, elements", NON_ABELIAN)
    def test_distinct_commutators(self, p, elements):
        raw = elements(p)
        got = [m.residues() for m in distinct_commutators(oracle_group(p, raw))]
        assert got == sorted(oracles.commutators(p, raw))

    @pytest.mark.parametrize("p, elements", NON_ABELIAN)
    def test_commutator_subgroup(self, p, elements):
        raw = elements(p)
        sub = commutator_subgroup(oracle_group(p, raw))
        assert residue_set(sub) == oracles.comm_subgroup(p, raw)

    def test_products_and_inverses_on_gl2_f3(self):
        group = enumerate_gl2(3)
        res = [m.residues() for m in group.elements]
        for i, g in enumerate(res):
            assert res[group.inverse_indices[i]] == oracles.minv(3, g)
            for h in res:
                assert _mul(3, g, h) == oracles.mmul(3, g, h)

    @pytest.mark.parametrize(
        "p, raw",
        [
            (3, oracles.gl2(3)),
            (3, oracles.upper_triangular_elements(3)),
            (5, oracles.diagonal_elements(5)),
            (7, oracles.rotation_elements(7)),
        ],
        ids=["gl2-f3", "borel-f3", "diagonal-f5", "rotation-f7"],
    )
    def test_is_abelian(self, p, raw):
        expected = all(oracles.mmul(p, g, h) == oracles.mmul(p, h, g) for g in raw for h in raw)
        assert oracle_group(p, raw).is_abelian == expected

    @pytest.mark.parametrize(
        "p, raw",
        [(2, oracles.gl2(2)), (3, oracles.gl2(3)), (5, oracles.upper_triangular_elements(5))],
        ids=["gl2-f2", "gl2-f3", "borel-f5"],
    )
    def test_from_elements_and_from_residues_agree(self, p, raw):
        # Shuffled, with repeats: both constructors dedup and sort.
        shuffled = raw[::-1] + raw[::3]
        by_residues = FiniteGroup.from_residues(PrimeField(p), shuffled)
        by_elements = from_elements(
            Mat2.from_values(PrimeField(p), *m) for m in shuffled
        )
        assert by_residues == by_elements
        assert hash(by_residues) == hash(by_elements)
        assert by_residues.residues == tuple(sorted(raw))
        for group in (by_residues, by_elements):
            assert len(group.elements) == len(group.residues) == len(raw)
            for i, m in enumerate(group.elements):
                assert m.residues() == group.residues[i]
            assert group.identity == Mat2.identity(PrimeField(p))
            assert group.residues[group.identity_index] == (1, 0, 0, 1)

    def test_from_residues_rejects_out_of_range_residues(self):
        with pytest.raises(ValueError, match=r"\[0, 5\)"):
            FiniteGroup.from_residues(F5, [(1, 0, 0, 1), (6, 0, 0, 1)])


def assert_tables_match_the_oracle(group):
    """Every point row entry and every inverse index, against the
    plain-integer action and inverse."""
    p, res = group.p, group.residues
    assert len(group._point_rows) == len(group.inverse_indices) == len(res)
    for g, row in zip(res, group._point_rows):
        assert len(row) == p * p
        for x in range(p):
            for y in range(p):
                u, v = oracles.act(p, (x, y), g)
                assert row[x * p + y] == u * p + v
    for i, g in enumerate(res):
        assert res[group.inverse_indices[i]] == oracles.minv(p, g)


class TestTablesAgainstOracles:
    """``_point_rows`` is built from per-column tables and
    ``inverse_indices`` by the validation in ``from_residues``; both
    against the oracles."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("kind", [k for k in INSTANCE_KINDS if k != "custom"])
    def test_named_kinds(self, kind, p):
        assert_tables_match_the_oracle(build_instance(kind, p).group)

    def test_a_group_whose_elements_share_no_column(self):
        # Every scalar matrix has its own two columns.
        group = build_instance("scalar", 31).group
        columns = {(a, c) for a, b, c, d in group.residues}
        assert len(columns) == len(group) == 30
        assert_tables_match_the_oracle(group)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_custom_groups(self, data):
        # Drawn as the kernel guard draws its instances: p in {2, 3, 5},
        # one or two generators from GL2(F_p).
        p = data.draw(st.sampled_from([2, 3, 5]))
        gens = data.draw(st.lists(st.sampled_from(oracles.gl2(p)), min_size=1, max_size=2))
        group = subgroup_closure([Mat2.from_values(PrimeField(p), *g) for g in gens])
        assert set(group.residues) == oracles.closure(p, gens)
        assert_tables_match_the_oracle(group)
