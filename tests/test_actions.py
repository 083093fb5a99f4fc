import gc
import json
import random
import time
import weakref
from collections import Counter

import pytest

import oracles
from triplepass import analysis, posterior
from triplepass.actions import (
    ActionInstance,
    InstanceIndex,
    Point,
    WireTranscript,
    _embedding_json,
    _instance_on,
    act,
    build_instance,
    format_point,
    instance_from_descriptor,
    instance_index,
    instance_to_descriptor,
    parse_point,
    rational_demo_instance,
    trivial_instance,
)
from triplepass.census import search_instances
from triplepass.checks import (
    ConditionReport,
    check_masking_coverage,
    check_transcript_equivalence,
    commutator_fixed_carrier_points,
    is_commutator_fixed_point,
    is_commutator_fixed_set,
    recheck_counterexample,
    secret_square_points,
)
from triplepass.errors import SingularMatrixError, TriplePassError, WorkCapExceeded
from triplepass.fields import RATIONALS, PrimeField
from triplepass.groups import FiniteGroup
from triplepass.matrices import Mat2, format_matrix
from triplepass.posterior import posterior_from_transcript
from triplepass.protocol import exhaustive_roundtrip, run_session

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def pt(field, x, y):
    return Point(field.scalar(x), field.scalar(y))


class TestAct:
    def test_identity_fixes_everything(self):
        p = pt(F5, 2, 3)
        assert act(Mat2.identity(F5), p) == p

    def test_f2_shear(self):
        assert oracles.act(2, (1, 0), (1, 1, 0, 1)) == (1, 1)
        assert act(Mat2.from_values(F2, 1, 1, 0, 1), pt(F2, 1, 0)) == pt(F2, 1, 1)

    def test_f5_diagonal(self):
        assert oracles.act(5, (2, 3), (2, 0, 0, 1)) == (4, 3)
        assert act(Mat2.from_values(F5, 2, 0, 0, 1), pt(F5, 2, 3)) == pt(F5, 4, 3)

    def test_domain_mismatch(self):
        with pytest.raises(TriplePassError):
            act(Mat2.identity(F2), pt(F5, 1, 1))

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularMatrixError):
            act(Mat2.from_values(F5, 1, 2, 2, 4), pt(F5, 1, 1))

    def test_composition_convention(self):
        # act(g*h, x) applies g first: act(h, act(g, x)).
        g = Mat2.from_values(F5, 1, 2, 0, 1)
        h = Mat2.from_values(F5, 2, 0, 1, 3)
        x = pt(F5, 3, 4)
        assert act(g @ h, x) == act(h, act(g, x))


def test_point_literals():
    p = pt(F5, 0, 4)
    assert format_point(p) == "[0,4]@F5"
    assert parse_point("[0,4]@F5") == p
    with pytest.raises(ValueError):
        parse_point("(0,4)@F5")
    with pytest.raises(ValueError):
        parse_point("[0,4,1]@F5")


class TestBuildInstance:
    def test_rotation_sizes_match_circle_count(self):
        # Oracle: brute-force solutions of c^2 + s^2 = 1 (mod p).
        for p, expected in ((5, 4), (7, 8)):
            inst = build_instance("rotation", p)
            assert len(oracles.rotation_elements(p)) == expected
            assert len(inst.group) == expected
            assert {m.residues() for m in inst.group} == set(oracles.rotation_elements(p))

    def test_diagonal_size(self):
        assert len(build_instance("diagonal", 5).group) == 16

    def test_scalar_group(self):
        inst = build_instance("scalar", 5)
        assert len(inst.group) == 4
        assert all(m.b.is_zero and m.c.is_zero and m.a == m.d for m in inst.group)

    def test_general_linear(self):
        assert len(build_instance("general-linear", 3).group) == 48

    def test_default_domains(self):
        inst = build_instance("diagonal", 5)
        assert [s.value for s in inst.secret_domain] == [1, 2, 3, 4]
        assert [t.value for t in inst.t_domain] == [0, 1, 2, 3, 4]
        assert inst.multiplicative

    def test_borel_embedded_lands_on_fixed_line(self):
        inst = build_instance("borel-embedded", 5)
        assert [s.value for s in inst.secret_domain] == [1, 2]
        assert [t.value for t in inst.t_domain] == [1, 2]
        for point in inst.embedding.values():
            assert point.x.is_zero and not point.y.is_zero
        report = is_commutator_fixed_set(secret_square_points(inst), inst.group, inst.name)
        assert report.passed

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown instance kind"):
            build_instance("permutation", 5)

    def test_custom_requires_generators(self):
        with pytest.raises(ValueError, match="generators"):
            build_instance("custom", 5)

    def test_named_kinds_refuse_generators_and_embedding(self):
        with pytest.raises(ValueError, match="fix their own generators"):
            build_instance("diagonal", 5, generators=["[[2,0],[0,1]]@F5"])
        with pytest.raises(ValueError, match="fix their own embedding"):
            build_instance("rotation", 5, embedding=[((1, 1), (0, 1))])

    def test_custom_accepts_literals(self):
        inst = build_instance("custom", 5, generators=["[[2,0],[0,1]]@F5", "[[1,0],[0,2]]@F5"])
        assert len(inst.group) == 16

    def test_zero_secret_marks_instance_non_multiplicative(self):
        inst = build_instance("diagonal", 5, secret_domain=[0, 1, 2, 3, 4])
        assert not inst.multiplicative

    def test_explicit_multiplicative_with_zero_rejected(self):
        with pytest.raises(ValueError, match="multiplicative"):
            build_instance("diagonal", 5, secret_domain=[0, 1], multiplicative=True)

    def test_trivial_instance(self):
        inst = trivial_instance(5)
        assert len(inst.group) == 1
        assert [s.value for s in inst.secret_domain] == [1]


def test_non_injective_embedding_rejected():
    fp = F3
    group = build_instance("borel-embedded", 3).group
    s1 = fp.scalar(1)
    with pytest.raises(ValueError, match="injective"):
        ActionInstance(
            name="bad",
            field=fp,
            group=group,
            secret_domain=(s1, fp.scalar(2)),
            t_domain=(s1, fp.scalar(2)),
            embedding={
                (s, t): Point(fp.zero, fp.one)
                for s in (s1, fp.scalar(2))
                for t in (s1, fp.scalar(2))
            },
            multiplicative=True,
        )


@pytest.mark.parametrize("entry, message", [
    (((-1, -1), (0, 1)), "embedding residue -1 is not a residue in [0, 5)"),
    (((4, 4), (True, 1)), "embedding residue True is not a residue in [0, 5)"),
    (((4, 4), (0, 7)), "embedding residue 7 is not a residue in [0, 5)"),
    (((4, 4), (F5.zero, PrimeField(7).one)), "embedding residue 1 is over F7, not F5"),
    (((1, 1),), "embedding entries must be [[s, t], [x, y]], got ((1, 1),)"),
    (5, "embedding entries must be [[s, t], [x, y]], got 5"),
], ids=["negative", "bool", "above-p", "foreign-scalar", "one-pair", "not-a-pair"])
def test_malformed_embedding_entry_rejected(entry, message):
    # -1 would alias 4, True would alias 1, and 7 indexes past the field.
    with pytest.raises(ValueError) as refused:
        build_instance("custom", 5, generators=["[[1,0],[0,1]]@F5"], secret_domain=[4],
                       t_domain=[4], embedding=[entry])
    assert str(refused.value) == message


@pytest.mark.parametrize("changes, message", [
    ({"secret_domain": (F5.scalar(1), F5.scalar(1), F5.scalar(2))}, "a secret is listed twice"),
    ({"t_domain": (F5.zero, F5.one, F5.zero)}, "a blinding value is listed twice"),
], ids=["secret", "blinding-value"])
def test_a_value_listed_twice_rejected(diag5, changes, message):
    # Listed twice, a secret would carry twice the prior mass of the others.
    fields = {"name": "dup", "field": F5, "group": diag5.group,
              "secret_domain": diag5.secret_domain, "t_domain": diag5.t_domain, **changes}
    with pytest.raises(ValueError) as refused:
        ActionInstance(**fields)
    assert str(refused.value) == message


def test_embedding_that_repeats_a_pair_rejected():
    with pytest.raises(ValueError, match="twice"):
        build_instance(
            "custom",
            5,
            generators=["[[2,0],[0,1]]@F5"],
            secret_domain=[1],
            t_domain=[1],
            embedding=[((1, 1), (0, 1)), ((1, 1), (0, 2))],
        )


def test_action_axioms_exhaustive_on_standard_instances(
    diag5, rot3, rot7, gl2f2, gl2f3, borel3_embedded
):
    for inst in (diag5, rot3, rot7, gl2f2, gl2f3, borel3_embedded):
        idx = instance_index(inst)
        group = inst.group
        ident_row = idx.act_table[group.identity_index]
        assert ident_row == list(range(idx.n_points))
        res = group.residues
        position = {r: k for k, r in enumerate(res)}
        for i in range(len(group)):
            for j in range(len(group)):
                composed = idx.act_table[position[oracles.mmul(idx.p, res[i], res[j])]]
                for x in range(idx.n_points):
                    assert composed[x] == idx.act_table[j][idx.act_table[i][x]]


@pytest.fixture(scope="module")
def mixed_stabilizers():
    # {diag(a, +-1)} over F5: stabilizers of sizes 1, 2, 4 and 8.
    return build_instance(
        "custom", 5, generators=["[[2,0],[0,1]]@F5", "[[1,0],[0,4]]@F5"], name="mixed-f5"
    )


KERNEL_INSTANCES = ["gl2f3", "borel5_embedded", "rot7", "diag5", "mixed_stabilizers"]


@pytest.mark.parametrize("fixture", KERNEL_INSTANCES)
def test_fibres_partition_the_group_by_orbit_point(request, fixture):
    idx = InstanceIndex(request.getfixturevalue(fixture))
    assert idx._fibres == {}  # built on first use, never by the constructor
    stabilizer_sizes = set()
    for v in range(idx.n_points):
        fib = idx.fibres(v)
        assert sorted(g for gs in fib.values() for g in gs) == list(range(idx.n_group))
        for w, gs in fib.items():
            assert list(gs) == [g for g, row in enumerate(idx.act_table) if row[v] == w]
        stabilizer_sizes.add(len(fib[v]))
        assert len(fib) * len(fib[v]) == idx.n_group
    if fixture == "mixed_stabilizers":
        assert stabilizer_sizes == {1, 2, 4, 8}


@pytest.mark.parametrize("fixture", KERNEL_INSTANCES)
def test_weighted_grid_counts_every_exchange(request, fixture):
    # The pair-class table: every orbit pair falls in exactly one class,
    # the sizes sum to the sum of |orbit|^2, and from every start point
    # the class counts, spread over their pairs, give every exchange.
    inst = request.getfixturevalue(fixture)
    idx = InstanceIndex(inst)
    classes = analysis._pair_classes(idx)
    n, p, table = idx.n_points, idx.p, idx.act_table
    orbits = {frozenset(row[v] for row in table) for v in range(n)}
    # Each class is the G-orbit of its representative pair, by brute force.
    members = {c: {(row[r], row[w]) for row in table} for c, (r, w, _, _) in enumerate(classes)}
    class_of = {}
    for c, pairs in members.items():
        for v1, v2 in pairs:
            assert v1 * n + v2 not in class_of
            class_of[v1 * n + v2] = c
    assert set(class_of) == {v1 * n + v2 for orb in orbits for v1 in orb for v2 in orb}
    for c, (r, w, size, stab) in enumerate(classes):
        assert r == min(next(orb for orb in orbits if r in orb))
        assert size == len(members[c])
        assert stab == sum(row[r] == w for row in table)
    assert sum(size for _, _, size, _ in classes) == sum(len(orb) ** 2 for orb in orbits)

    masks = [m.residues() for m in inst.group.elements]
    for v in range(n):
        per_class = Counter()
        for c, (r, w, _, stab) in enumerate(classes):
            for inv_row in idx.inv_rows:
                if inv_row[r] == v:
                    per_class[(c, inv_row[w])] += stab
        weighted = Counter({key: n * classes[key[0]][2] for key, n in per_class.items()})
        exchanges = Counter(
            tuple(x * p + y for x, y in oracles.session(p, divmod(v, p), a, b)[:3])
            for a in masks
            for b in masks
        )
        brute = Counter()
        for (v1, v2, v3), count in exchanges.items():
            assert per_class[(class_of[v1 * n + v2], v3)] == count
            brute[(class_of[v1 * n + v2], v3)] += count
        assert weighted == brute


def test_a_pair_in_two_classes_is_refused_explicitly(diag5):
    idx = InstanceIndex(diag5)
    v = idx.point_index(pt(F5, 1, 1))
    # A forged orbit {v, v + 1} for v, fixed by the identity alone: the
    # true orbit of v + 1 then puts pairs at v into a second class.
    identity = (idx.group.index_of(Mat2.identity(F5)),)
    idx._fibres[v] = {v: identity, v + 1: identity}
    with pytest.raises(TriplePassError, match="exactly one orbit class"):
        analysis._pair_classes(idx)


@pytest.mark.parametrize("fixture", KERNEL_INSTANCES)
def test_reverse_scans_match_a_brute_scan(request, fixture):
    idx = instance_index(request.getfixturevalue(fixture))
    table, inv_rows = idx.act_table, idx.inv_rows
    for v1 in range(idx.n_points):
        for v2 in range(idx.n_points):
            replies = [b for b, row in enumerate(table) if row[v1] == v2]
            pairs = idx.pair_of_point
            for v3 in range(idx.n_points):
                brute = [
                    (a, pairs[inv_rows[a][v1]])
                    for a in range(idx.n_group)
                    if inv_rows[a][v2] == v3 and inv_rows[a][v1] in pairs
                ]
                assert posterior._factors(idx, WireTranscript(v1, v2, v3, None)) == (brute, replies)


def test_a_broken_action_row_is_refused_explicitly():
    # The index reads its group's rows, so this breaks a group of its own.
    idx = InstanceIndex(build_instance("diagonal", 5))
    v = idx.point_index(pt(F5, 1, 1))
    # Make one mask that moves v fix it instead: its fibre grows.
    mover = next(g for g, row in enumerate(idx.act_table) if row[v] != v)
    idx.act_table[mover] = list(range(idx.n_points))
    with pytest.raises(TriplePassError, match="orbit-stabilizer"):
        idx.fibres(v)


def test_a_dropped_instance_frees_its_index_by_reference_counting():
    # The index keeps the field and name, not the instance, so no cycle
    # holds its tables, fibres or point table alive.
    gc.disable()
    try:
        inst = build_instance("diagonal", 5)
        out = run_session(inst, F5.scalar(2), random.Random(3))
        posterior_from_transcript(out.transcript, inst)
        idx = instance_index(inst)
        idx.fibres(idx.point_index(out.transcript.v1))
        assert idx.points
        ref = weakref.ref(idx)
        del inst, out, idx
        assert ref() is None
    finally:
        gc.enable()


def test_an_instance_is_frozen_and_built_with_its_one_index(diag5, monkeypatch):
    for name in ActionInstance._fields + ("_index",):
        with pytest.raises(AttributeError):
            setattr(diag5, name, None)
        with pytest.raises(AttributeError):
            delattr(diag5, name)
    assert instance_index(diag5) is instance_index(diag5)

    builds = []
    build = InstanceIndex.__init__

    def counted(self, instance):
        builds.append(instance)
        build(self, instance)

    monkeypatch.setattr(InstanceIndex, "__init__", counted)
    direct = ActionInstance("direct-f5", F5, diag5.group, diag5.secret_domain, diag5.t_domain)
    assert builds == [direct]
    assert instance_index(direct).act_table is diag5.group._point_rows
    assert len(builds) == 1
    with pytest.raises(TriplePassError, match="indexing requires finite group"):
        instance_index(rational_demo_instance())


def test_a_group_built_directly_gives_an_instance_and_an_exact_leakage_report():
    # The scalar group of F3, from the constructor alone: its index reads
    # the group's own tables, and it leaks what the named kind does.
    inst = _instance_on(FiniteGroup(PrimeField(3), ((1, 0, 0, 1), (2, 0, 0, 2))), "custom")
    idx = instance_index(inst)
    assert idx.act_table is inst.group._point_rows
    assert idx.inverse is inst.group.inverse_indices
    report = analysis.exact_mutual_information(inst)
    named = analysis.exact_mutual_information(build_instance("scalar", 3))
    assert report.mutual_information_bits == named.mutual_information_bits == 1.0
    assert report.transcripts_examined == named.transcripts_examined


@pytest.mark.parametrize("changes, message", [
    ({"field": F7}, "the group must be over F7"),
    ({"field": RATIONALS}, "the group must be over Q"),
    ({"secret_domain": tuple(F7.scalar(s) for s in (1, 2, 3, 4))}, "every secret must be over F5"),
    ({"t_domain": F7.elements()[:5]}, "every blinding value must be over F5"),
    ({"secret_domain": (F5.scalar(1), F5.scalar(2)), "t_domain": (F5.scalar(1), F5.scalar(2)),
      "embedding": {(F5.scalar(s), F5.scalar(t)): Point(F7.scalar(0), F7.scalar(2 * s + t - 2))
                    for s in (1, 2) for t in (1, 2)}}, "every embedding scalar must be over F5"),
], ids=["f7-field", "rational-field", "f7-secrets", "f7-blinding-values", "f7-embedding-points"])
def test_an_instance_over_one_field_refuses_parts_over_another(diag5, changes, message):
    # Built, such an instance would fail later, in whatever scan first
    # mixed the two fields, or not at all.
    fields = {"name": "mixed", "field": F5, "group": diag5.group,
              "secret_domain": diag5.secret_domain, "t_domain": diag5.t_domain, **changes}
    with pytest.raises(ValueError) as refused:
        ActionInstance(**fields)
    assert str(refused.value) == message


@pytest.mark.parametrize("refuse", [
    analysis.uniform_prior,
    secret_square_points,
    lambda inst: recheck_counterexample(inst, ConditionReport(
        inst.name, "comm-fixed-set", False,
        {"point": "[1,1]@Q", "element": "[[1,1],[0,1]]@Q"}, 0)),
    lambda inst: recheck_counterexample(inst, ConditionReport(
        inst.name, "masking-coverage", False,
        {"s": "1", "t": "1", "g": "[[1,0],[0,1]]@Q", "s_prime": "2"}, 0)),
    lambda inst: recheck_counterexample(inst, ConditionReport(
        inst.name, "transcript-equivalence", False,
        {"s": "1", "t": "1", "A": "[[1,0],[0,1]]@Q", "B": "[[1,0],[0,1]]@Q", "s_prime": "2"}, 0)),
], ids=["uniform-prior", "secret-square", "recheck-comm-fixed", "recheck-masking",
        "recheck-transcript"])
def test_the_rational_instance_is_refused_where_a_finite_one_is_needed(refuse):
    with pytest.raises(TriplePassError) as refused:
        refuse(rational_demo_instance())
    assert str(refused.value).endswith("requires finite group")


def _gated_jobs(inst):
    """(job, estimate, run under a cap) for every job that checks its
    work cap before it runs, with each estimate from its closed form."""
    n_g, n_s, p = len(inst.group), len(inst.secret_domain), inst.field.p
    transcript = run_session(inst, inst.secret_domain[-1], random.Random(1)).transcript
    witnesses = len(posterior.enumerate_consistent(transcript, inst).witnesses)
    return [
        ("instance-construction", n_g * p * p,
         lambda cap: build_instance(inst.kind, p, work_cap=cap)),
        ("leakage-analysis", 3 * n_g * p * p,
         lambda cap: analysis.exact_mutual_information(inst, cap=cap)),
        ("masking-coverage", n_s**2 * n_g, lambda cap: check_masking_coverage(inst, cap=cap)),
        ("transcript-equivalence", n_g * (n_g + n_s + p * p),
         lambda cap: check_transcript_equivalence(inst, cap=cap)),
        ("roundtrip", n_s**2 * n_g**2,
         lambda cap: exhaustive_roundtrip(inst, "secret-square", cap=cap)),
        ("roundtrip", p * p * n_g**2, lambda cap: exhaustive_roundtrip(inst, "carrier", cap=cap)),
        ("witness-enumeration", 2 * n_g,
         lambda cap: posterior_from_transcript(transcript, inst, cap=cap)),
        # The fibre scan is gated first, then the |Alice| * |Bob| witnesses.
        ("witness-enumeration", max(2 * n_g, witnesses),
         lambda cap: posterior.enumerate_consistent(transcript, inst, cap=cap)),
    ]


@pytest.mark.parametrize("fixture", ["diag5", "gl2f3", "borel3_embedded"])
def test_every_capped_job_runs_at_its_estimate_and_is_refused_one_below(request, fixture):
    # On borel3_embedded the witness product (36) exceeds the fibre scan
    # (2 * 12), so its second gate is the one that refuses.
    for job, estimate, run in _gated_jobs(request.getfixturevalue(fixture)):
        run(estimate)
        with pytest.raises(WorkCapExceeded) as refused:
            run(estimate - 1)
        assert (refused.value.job, refused.value.estimate, refused.value.cap) == (
            job, estimate, estimate - 1
        ), job


def test_square_is_the_secret_square_in_pair_order(borel3_embedded, diag5):
    # S = {1, 2} is disjoint from T = {0}: the square still covers S x S.
    outside_t = build_instance(
        "custom", 5, generators=["[[2,0],[0,1]]@F5"], secret_domain=[1, 2], t_domain=[0]
    )
    for inst in (borel3_embedded, diag5, outside_t):
        idx = instance_index(inst)
        assert list(idx.square) == [(s, t) for s in idx.s_res for t in idx.s_res]
        points = [idx.points[v] for v in idx.square.values()]
        assert points == list(secret_square_points(inst))
        assert idx.secret_pair_of_point == {v: k for k, v in idx.square.items()}


class TestCommutatorFixed:
    def test_abelian_group_fixes_everything(self, diag5):
        for x in range(5):
            for y in range(5):
                assert is_commutator_fixed_point(pt(F5, x, y), diag5.group)

    def test_fixed_line_of_upper_triangular_f3(self, borel3_plane):
        group = borel3_plane.group
        for y in range(3):
            assert is_commutator_fixed_point(pt(F3, 0, y), group)
        assert not is_commutator_fixed_point(pt(F3, 1, 0), group)

    def test_gl2_f2_moves_the_point_one_zero(self, gl2f2):
        # Oracle: exhaust the order-3 commutator subgroup directly.
        sub = oracles.comm_subgroup(2, oracles.gl2(2))
        assert any(oracles.act(2, (1, 0), m) != (1, 0) for m in sub)
        assert not is_commutator_fixed_point(pt(F2, 1, 0), gl2f2.group)

    def test_modes_agree_on_every_point(self, gl2f2, gl2f3, borel3_plane):
        for inst in (gl2f2, gl2f3, borel3_plane):
            p = inst.field.p
            for x in range(p):
                for y in range(p):
                    point = pt(inst.field, x, y)
                    assert is_commutator_fixed_point(point, inst.group, "subgroup") == (
                        is_commutator_fixed_point(point, inst.group, "pairwise")
                    )

    def test_fixed_set_reports(self, diag5, gl2f2, borel3_plane):
        plane5 = [pt(F5, x, y) for x in range(5) for y in range(5)]
        assert is_commutator_fixed_set(plane5, diag5.group).passed

        line = [pt(F3, 0, y) for y in range(3)]
        assert is_commutator_fixed_set(line, borel3_plane.group).passed

        plane2 = [pt(F2, x, y) for x in range(2) for y in range(2)]
        report = is_commutator_fixed_set(plane2, gl2f2.group, "gl2-plane")
        assert not report.passed
        assert report.counterexample is not None
        assert recheck_counterexample(gl2f2, report)

    def test_general_linear_f5_report_rechecks_without_pair_products(self, gl2f5):
        # [G, G] = SL2(F5) has 120 elements; closing the residue
        # commutators finds the element without |G|^2 matrix products.
        report = is_commutator_fixed_set(secret_square_points(gl2f5), gl2f5.group, gl2f5.name)
        assert report.counterexample == {"point": "[1,1]@F5", "element": "[[0,1],[4,0]]@F5"}
        start = time.perf_counter()
        assert recheck_counterexample(gl2f5, report) is True
        assert time.perf_counter() - start < 5.0

    def test_requires_finite_group(self):
        with pytest.raises(TriplePassError, match="finite group"):
            is_commutator_fixed_point(pt(F5, 1, 1), "rational-gl2")

    def test_fixed_carrier_points_of_borel(self, borel3_plane):
        fixed = commutator_fixed_carrier_points(borel3_plane.group)
        assert [(q.x.value, q.y.value) for q in fixed] == [(0, 0), (0, 1), (0, 2)]


def _p3_census_element_sets() -> list[frozenset]:
    gl2 = oracles.gl2(3)
    combos = [[g] for g in gl2] + [[g, h] for i, g in enumerate(gl2) for h in gl2[i + 1 :]]
    return sorted({oracles.closure(3, combo) for combo in combos}, key=lambda s: (len(s), sorted(s)))


COMM_FIXED_GROUPS = (
    [(3, elems) for elems in _p3_census_element_sets()]
    + [(2, frozenset(oracles.gl2(2))), (5, frozenset(oracles.upper_triangular_elements(5)))]
)


@pytest.mark.parametrize(
    "p, elems",
    COMM_FIXED_GROUPS,
    ids=[f"f3-census-{i}" for i in range(55)] + ["gl2-f2", "borel-f5"],
)
def test_comm_fixed_scans_match_brute_force(p, elems):
    # Brute force: every carrier point in lexicographic order against the
    # oracle commutator subgroup in sorted order, counting each element
    # tried until the first one that moves a point.
    fp = PrimeField(p)
    group = FiniteGroup(fp, elems)
    sub = sorted(oracles.comm_subgroup(p, elems))
    carrier = [(x, y) for x in range(p) for y in range(p)]
    fixed, work, counterexample = [], 0, None
    for v in carrier:
        movers = [m for m in sub if oracles.act(p, v, m) != v]
        if not movers:
            fixed.append(v)
        if counterexample is None:
            if movers:
                first = movers[0]
                work += sub.index(first) + 1
                counterexample = {
                    "point": f"[{v[0]},{v[1]}]@F{p}",
                    "element": "[[{},{}],[{},{}]]@F{}".format(*first, p),
                }
            else:
                work += len(sub)

    got = commutator_fixed_carrier_points(group)
    assert [(q.x.value, q.y.value) for q in got] == fixed
    assert all(q.domain == fp for q in got)
    report = is_commutator_fixed_set([pt(fp, x, y) for x, y in carrier], group, "census")
    assert report.passed == (counterexample is None)
    assert report.counterexample == counterexample
    assert report.work == work
    for v in carrier:
        for mode in ("subgroup", "pairwise"):
            assert is_commutator_fixed_point(pt(fp, *v), group, mode) == (v in fixed)


class TestMaskingCoverage:
    def test_trivial_instance_passes(self, trivial5):
        assert check_masking_coverage(trivial5).passed

    def test_diagonal_passes(self, diag5):
        report = check_masking_coverage(diag5)
        assert report.passed
        assert report.counterexample is None

    def test_zero_secret_breaks_coverage(self):
        inst = build_instance("diagonal", 5, secret_domain=[0, 1, 2, 3, 4])
        report = check_masking_coverage(inst)
        assert not report.passed
        assert recheck_counterexample(inst, report)

    def test_cap(self, diag5):
        with pytest.raises(WorkCapExceeded) as exc:
            check_masking_coverage(diag5, cap=10)
        assert exc.value.estimate > 10

    def test_rational_rejected(self):
        with pytest.raises(TriplePassError, match="finite group"):
            check_masking_coverage(rational_demo_instance())


class TestTranscriptEquivalence:
    def test_trivial_instance_passes(self, trivial5):
        assert check_transcript_equivalence(trivial5).passed

    def test_diagonal_fails_with_smallest_counterexample(self, diag5):
        report = check_transcript_equivalence(diag5)
        assert not report.passed
        # Lexicographic tie-break: the identity masks on (1, 1) already
        # pin the secret, so s' = 2 is the first unexplained candidate.
        assert report.counterexample == {
            "s": "1",
            "t": "1",
            "A": "[[1,0],[0,1]]@F5",
            "B": "[[1,0],[0,1]]@F5",
            "s_prime": "2",
        }
        assert recheck_counterexample(diag5, report)

    def test_rotation_fails(self, rot7):
        report = check_transcript_equivalence(rot7)
        assert not report.passed
        assert recheck_counterexample(rot7, report)

    def test_equivalence_implies_masking(
        self, trivial5, diag5, diag3, rot3, rot7, gl2f2, gl2f3, borel3_embedded
    ):
        for inst in (trivial5, diag5, diag3, rot3, rot7, gl2f2, gl2f3, borel3_embedded):
            if check_transcript_equivalence(inst).passed:
                assert check_masking_coverage(inst).passed, inst.name

    def test_deterministic_reports(self, diag5):
        a = check_transcript_equivalence(diag5)
        b = check_transcript_equivalence(diag5)
        assert a == b

    def test_cap(self, gl2f3):
        with pytest.raises(WorkCapExceeded):
            check_transcript_equivalence(gl2f3, cap=1000)


@pytest.mark.parametrize(
    "kind, p, masking_work, transcript_work",
    [
        ("diagonal", 5, 256, 18),
        ("rotation", 7, 290, 10),
        ("borel-embedded", 7, 1008, 254),
        ("general-linear", 3, 192, 50),
        ("general-linear", 5, 7680, 482),
        ("general-linear", 7, 72576, 2018),
        ("borel-embedded", 3, 12, 192),
        ("scalar", 5, 64, 6),
        ("trivial", 5, 1, 2),
    ],
)
def test_checker_work_is_pinned(kind, p, masking_work, transcript_work):
    # Work is part of every report and calibrates the cap estimates, so a
    # rewrite of the scans behind the checkers must leave it unchanged.
    inst = trivial_instance(p) if kind == "trivial" else build_instance(kind, p)
    assert check_masking_coverage(inst).work == masking_work
    assert check_transcript_equivalence(inst).work == transcript_work


def test_failure_work_counts_each_repeated_transcript_once():
    # Sessions before this counterexample repeat transcripts: the scan
    # charges |G| for the first sight of each, and 1 per candidate test.
    inst = build_instance(
        "custom", 5, generators=["[[0,4],[2,3]]@F5", "[[4,3],[4,4]]@F5"], secret_domain=[3, 4]
    )
    report = check_transcript_equivalence(inst)
    assert (report.passed, report.work) == (False, 514)
    assert report.counterexample == {
        "s": "3", "t": "3", "A": "[[0,1],[1,3]]@F5", "B": "[[1,0],[0,1]]@F5", "s_prime": "4"
    }
    assert recheck_counterexample(inst, report)


SWAP_F5 = "[[0,1],[1,0]]@F5"


@pytest.mark.parametrize("fixture, condition, counterexample", [
    ("gl2f2", "comm-fixed-set", {"point": "[0,0]@F2", "element": "[[0,1],[1,1]]@F2"}),
    ("diag5", "comm-fixed-set", {"point": "[1,1]@F5", "element": "[[2,0],[0,1]]@F5"}),
    ("gl2f5", "comm-fixed-set", {"point": "[1,1]@F5", "element": "[[2,0],[0,1]]@F5"}),
    ("diag5", "masking-coverage", {"s": "1", "t": "1", "g": "[[2,0],[0,3]]@F5", "s_prime": "2"}),
    ("diag5", "masking-coverage", {"s": "0", "t": "1", "g": "[[1,0],[0,1]]@F5", "s_prime": "2"}),
    ("diag5", "transcript-equivalence",
     {"s": "1", "t": "2", "A": "[[2,0],[0,3]]@F5", "B": "[[1,0],[0,4]]@F5", "s_prime": "1"}),
    ("diag5", "transcript-equivalence",
     {"s": "1", "t": "1", "A": SWAP_F5, "B": SWAP_F5, "s_prime": "2"}),
], ids=["element-fixes-the-point", "element-outside-the-commutator-subgroup",
        "element-outside-sl2-f5", "masking-s-prime-explains", "masking-s-outside-the-secret-domain",
        "transcript-s-prime-is-s", "transcript-masks-outside-the-group"])
def test_a_forged_counterexample_is_not_confirmed(request, fixture, condition, counterexample):
    # Every real counterexample re-checks True; these name no violation
    # the checker could report, so a re-check that confirmed whatever it
    # was given would pass them.
    inst = request.getfixturevalue(fixture)
    report = ConditionReport(inst.name, condition, False, counterexample, 0)
    assert recheck_counterexample(inst, report) is False


class TestDescriptors:
    def test_round_trip_standard_kinds(self, diag5, rot7, borel3_embedded, trivial5):
        for inst in (diag5, rot7, borel3_embedded, trivial5):
            desc = instance_to_descriptor(inst)
            rebuilt = instance_from_descriptor(json.loads(json.dumps(desc)))
            assert rebuilt.name == inst.name
            assert rebuilt.group.elements == inst.group.elements
            assert rebuilt.secret_domain == inst.secret_domain
            assert rebuilt.t_domain == inst.t_domain
            assert rebuilt.embedding == inst.embedding

    def test_named_kinds_list_no_generators(self, gl2f3, borel3_embedded, diag5):
        for inst in (gl2f3, borel3_embedded, diag5):
            assert instance_to_descriptor(inst)["generators"] == []

    def test_old_descriptor_with_every_element_still_loads(self):
        # Earlier descriptors of named kinds listed every group element.
        inst = build_instance("borel-embedded", 7)
        desc = instance_to_descriptor(inst)
        desc["generators"] = [format_matrix(m) for m in inst.group.elements]
        rebuilt = instance_from_descriptor(json.loads(json.dumps(desc)))
        assert rebuilt.kind == inst.kind
        assert rebuilt.name == inst.name
        assert rebuilt.group.elements == inst.group.elements
        assert rebuilt.secret_domain == inst.secret_domain
        assert rebuilt.t_domain == inst.t_domain
        assert rebuilt.embedding == inst.embedding
        assert rebuilt.multiplicative == inst.multiplicative

    def test_named_kind_with_a_foreign_embedding_is_rejected(self, borel5_embedded, diag5):
        desc = instance_to_descriptor(borel5_embedded)
        (first, a), (second, b) = desc["embedding"][:2]
        desc["embedding"][:2] = [[first, b], [second, a]]
        with pytest.raises(ValueError, match="embedding"):
            instance_from_descriptor(desc)

        desc = instance_to_descriptor(diag5)
        desc["embedding"] = [[[s, t], [0, 2 * s + t - 2]] for s in (1, 2) for t in (1, 2)]
        desc["secret_domain"] = desc["t_domain"] = [1, 2]
        with pytest.raises(ValueError, match="embedding"):
            instance_from_descriptor(desc)

    def test_embedded_round_trip(self, borel5_embedded):
        # A census entry, rebuilt through the API from the descriptor the
        # census wrote, and borel-embedded-f5 both survive a round trip.
        entry = next(e for e in search_instances(5, with_leakage=False).entries
                     if e.descriptor["name"].endswith("-embedded"))
        desc = entry.descriptor
        census = build_instance(
            "custom", 5, generators=desc["generators"], secret_domain=desc["secret_domain"],
            t_domain=desc["t_domain"], name=desc["name"],
            embedding=[tuple(map(tuple, e)) for e in desc["embedding"]])
        assert _embedding_json(census) == desc["embedding"]
        for inst in (borel5_embedded, census):
            rebuilt = instance_from_descriptor(json.loads(json.dumps(instance_to_descriptor(inst))))
            assert rebuilt == inst
            assert _embedding_json(rebuilt) == _embedding_json(inst)

    def test_custom_round_trip(self, borel3_plane):
        desc = instance_to_descriptor(borel3_plane)
        rebuilt = instance_from_descriptor(desc)
        assert rebuilt.group.elements == borel3_plane.group.elements
        assert rebuilt.name == borel3_plane.name
