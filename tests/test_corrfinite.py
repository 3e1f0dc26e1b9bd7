from itertools import permutations
from math import factorial

import pytest

from rittforge import corrfinite
from rittforge.corrfinite import (
    FinSet,
    FiniteCorr,
    HomTable,
    SchreierReport,
    all_corrs,
    all_maps,
    alpha,
    block,
    compose,
    conjugation_table,
    constant_corr,
    degree,
    enumerate_automorphisms,
    from_sets,
    full_corr,
    graph_of_map,
    identity_corr,
    inverse,
    is_map,
    is_surjective,
    minimal_ideal,
    run_suite,
    schreier_extract,
)
from rittforge.decompose import CertificateError

X2, X3 = FinSet(2), FinSet(3)


class TestBasics:
    def test_ground_validation(self):
        with pytest.raises(ValueError):
            FinSet(0)

    def test_row_validation(self):
        with pytest.raises(ValueError):
            FiniteCorr(X2, (1, 0))  # empty image
        with pytest.raises(ValueError):
            FiniteCorr(X2, (1, 4))  # out of range
        with pytest.raises(ValueError):
            FiniteCorr(X2, (1,))

    def test_predicates(self):
        ident = identity_corr(X3)
        assert is_map(ident) and is_surjective(ident) and degree(ident) == 1
        full = full_corr(X3)
        assert not is_map(full) and is_surjective(full) and degree(full) == 3

    def test_image_and_matrix(self):
        k = from_sets(X2, [{0, 1}, {1}])
        assert k.image(0) == {0, 1} and k.image(1) == {1}
        assert k.matrix() == [[1, 1], [0, 1]]


class TestCompose:
    def test_worked_example(self):
        k1 = from_sets(X2, [{0, 1}, {1}])
        swap = graph_of_map(X2, [1, 0])
        assert compose(swap, k1) == from_sets(X2, [{0, 1}, {0}])

    def test_graphs_compose_like_functions(self):
        f, g = [0, 2, 1], [1, 1, 0]
        lhs = compose(graph_of_map(X3, g), graph_of_map(X3, f))
        assert lhs == graph_of_map(X3, [g[f[x]] for x in range(3)])

    def test_full_absorbs(self):
        k1 = from_sets(X3, [{0}, {1, 2}, {0}])
        assert compose(full_corr(X3), k1) == full_corr(X3)

    def test_ground_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity_corr(X2), identity_corr(X3))

    def test_associativity_exhaustive_n2(self):
        corrs = all_corrs(X2)
        for a in corrs:
            for b in corrs:
                ab = compose(a, b)
                for c in corrs:
                    assert compose(ab, c) == compose(a, compose(b, c))


class TestInverse:
    def test_bijection(self):
        swap = graph_of_map(X2, [1, 0])
        assert inverse(swap) == swap
        cycle = graph_of_map(X3, [1, 2, 0])
        assert inverse(cycle) == graph_of_map(X3, [2, 0, 1])

    def test_constant_has_no_inverse(self):
        assert inverse(constant_corr(X2, [0])) is None

    def test_surjective_corr_transpose(self):
        k = from_sets(X3, [{0, 1}, {2}, {2}])
        assert inverse(k) == from_sets(X3, [{0}, {0}, {1, 2}])

    def test_graph_inverse_iff_surjective(self):
        for X in (X2, X3):
            for f in all_maps(X):
                assert (inverse(f) is not None) == is_surjective(f)


class TestBlocks:
    def test_same_bijection_gives_identity(self):
        cycle = graph_of_map(X3, [1, 2, 0])
        assert block(cycle, cycle) == identity_corr(X3)

    def test_swap_over_identity(self):
        swap = graph_of_map(X2, [1, 0])
        assert block(swap, identity_corr(X2)) == swap

    def test_preconditions(self):
        with pytest.raises(ValueError):
            block(identity_corr(X2), constant_corr(X2, [0]))
        with pytest.raises(ValueError):
            block(full_corr(X2), identity_corr(X2))

    def test_degree_matches_fiber_size(self):
        # on a single finite ground set surjective maps are bijections,
        # so every block is a map of degree 1
        for values in permutations(range(3)):
            b = block(graph_of_map(X3, [0, 0, 1]), graph_of_map(X3, values))
            assert degree(b) == 1 and is_map(b)


class TestIdealAndAlpha:
    def test_ideal_sizes(self):
        assert len(minimal_ideal(FinSet(1))) == 1
        ideal = minimal_ideal(X2)
        assert [c.rows for c in ideal] == [(1, 1), (2, 2), (3, 3)]

    def test_constants_absorb_exhaustive(self):
        for c in minimal_ideal(X2):
            for k in all_corrs(X2):
                assert compose(c, k) == c
                assert compose(k, c) in minimal_ideal(X2)

    def test_alpha_identity_and_constants(self):
        assert alpha(identity_corr(X2)) == tuple(minimal_ideal(X2))
        c = constant_corr(X2, [1])
        assert all(entry == c for entry in alpha(c))

    def test_alpha_injective_exhaustive_n2(self):
        tables = {alpha(k): k for k in all_corrs(X2)}
        assert len(tables) == len(all_corrs(X2))


class TestHomTable:
    def test_not_closed_rejected(self):
        swap = graph_of_map(X2, [1, 0])
        dom = (swap,)  # swap o swap = id missing
        with pytest.raises(ValueError):
            HomTable(dom, {swap: swap})

    def test_not_multiplicative_rejected(self):
        dom = tuple(all_maps(X2))
        swap = graph_of_map(X2, [1, 0])
        images = {k: k for k in dom}
        images[identity_corr(X2)] = swap
        with pytest.raises(ValueError):
            HomTable(dom, images)


class TestSchreier:
    def test_conjugation_by_swap(self):
        table = conjugation_table(X2, (1, 0))
        report = schreier_extract(table)
        assert report.f == (1, 0)
        assert report.bijective and report.conjugation_verified

    def test_identity_homomorphism(self):
        dom = tuple(all_maps(X3))
        report = schreier_extract(HomTable(dom, {k: k for k in dom}))
        assert report.f == (0, 1, 2)

    def test_collapsing_homomorphism_not_bijective(self):
        dom = tuple(all_maps(X2))
        c0 = constant_corr(X2, [0])
        report = schreier_extract(HomTable(dom, {k: c0 for k in dom}))
        assert report.f == (0, 0) and not report.bijective

    def test_constant_image_must_be_constant(self):
        dom = tuple(all_maps(X2))
        ident = identity_corr(X2)
        with pytest.raises(ValueError):
            schreier_extract(HomTable(dom, {k: ident for k in dom}))

    def test_missing_constants_rejected(self):
        swap = graph_of_map(X2, [1, 0])
        dom = (identity_corr(X2), swap)
        with pytest.raises(ValueError):
            schreier_extract(HomTable(dom, {k: k for k in dom}))


class TestAutomorphisms:
    def test_counts(self):
        assert len(enumerate_automorphisms(FinSet(1), "MapX")) == 1
        assert len(enumerate_automorphisms(X2, "MapX")) == 2
        assert len(enumerate_automorphisms(X3, "MapX")) == 6
        assert len(enumerate_automorphisms(X2, "CorrX")) == 2

    def test_extracted_maps_are_all_bijections(self):
        fs = {schreier_extract(t).f for t in enumerate_automorphisms(X3, "MapX")}
        assert fs == set(permutations(range(3)))

    def test_budgets(self):
        with pytest.raises(ValueError):
            enumerate_automorphisms(FinSet(5), "MapX")
        with pytest.raises(ValueError):
            enumerate_automorphisms(FinSet(4), "CorrX")
        with pytest.raises(ValueError):
            enumerate_automorphisms(X2, "weird")

    def test_brute_force_cross_check_n2(self):
        # independent route: try all 4! bijective self-tables of Map({0,1})
        dom = tuple(all_maps(X2))
        found = []
        for images in permutations(dom):
            table = dict(zip(dom, images))
            ok = all(
                table[compose(a, b)] == compose(table[a], table[b])
                for a in dom
                for b in dom
            )
            if ok:
                found.append(table)
        assert len(found) == len(enumerate_automorphisms(X2, "MapX")) == 2


class TestSuites:
    def test_all_suites_pass_n2_n3(self):
        for name in ("alpha", "blocks", "ideal", "schreier", "aut"):
            for n in (2, 3):
                report = run_suite(name, n)
                assert report["passed"], (name, n, report)

    def test_nonprime_pair_found_for_n3(self):
        report = run_suite("ideal", 3)
        assert report["nonprime_pair"] is not None

    def test_suite_validation(self):
        with pytest.raises(ValueError):
            run_suite("nope", 2)
        with pytest.raises(ValueError):
            run_suite("alpha", 4)


def _count_scans(monkeypatch):
    """Record every all-pairs HomTable check made from now on."""
    scans = []
    real = HomTable.__post_init__
    monkeypatch.setattr(HomTable, "__post_init__", lambda self: scans.append(self) or real(self))
    return scans


class TestCertifiedOnce:
    @pytest.mark.parametrize("n, ambient", [(3, "MapX"), (4, "MapX"), (3, "CorrX")])
    def test_tables_are_the_conjugations(self, n, ambient):
        X = FinSet(n)
        elements = all_maps(X) if ambient == "MapX" else all_corrs(X)
        expected = set()
        for values in permutations(range(n)):
            f = graph_of_map(X, values)
            f_inv = inverse(f)
            expected.add(tuple(compose(f, compose(k, f_inv)) for k in elements))
        autos = enumerate_automorphisms(X, ambient)
        assert all(t.domain == tuple(elements) for t in autos)
        got = [tuple(t.images[k] for k in elements) for t in autos]
        assert len(got) == factorial(n) and set(got) == expected

    @pytest.mark.parametrize("n, ambient", [
        (1, "MapX"), (2, "MapX"), (3, "MapX"), (4, "MapX"),
        (1, "CorrX"), (2, "CorrX"), (3, "CorrX"),
    ])
    def test_no_all_pairs_scan(self, monkeypatch, n, ambient):
        scans = _count_scans(monkeypatch)
        assert len(enumerate_automorphisms(FinSet(n), ambient)) == factorial(n)
        assert scans == []

    @pytest.mark.parametrize("rejection", ["raises", "not bijective"])
    def test_rejected_automorphism_is_certified_by_the_scan(self, monkeypatch, rejection):
        real = corrfinite.schreier_extract
        rejected = (1, 2, 0)

        def rejecting(phi):
            report = real(phi)
            if report.f != rejected:
                return report
            if rejection == "raises":
                raise ValueError("rejected")
            return SchreierReport(report.f, False, False)

        monkeypatch.setattr(corrfinite, "schreier_extract", rejecting)
        scans = _count_scans(monkeypatch)
        autos = enumerate_automorphisms(X3, "MapX")
        assert len(autos) == 6 and len(scans) == 1
        assert scans[0].images == conjugation_table(X3, rejected).images
        assert any(t.images == scans[0].images for t in autos)

    def test_candidate_failing_both_certificates_is_dropped(self, monkeypatch):
        real = corrfinite.schreier_extract
        rejected = (1, 0, 2)

        def rejecting(phi):
            report = real(phi)
            if report.f == rejected:
                raise ValueError("rejected")
            return report

        def failing_scan(self):
            raise ValueError("table is not multiplicative")

        monkeypatch.setattr(corrfinite, "schreier_extract", rejecting)
        monkeypatch.setattr(HomTable, "__post_init__", failing_scan)
        autos = enumerate_automorphisms(X3, "MapX")
        assert len(autos) == 5
        assert {real(t).f for t in autos} == set(permutations(range(3))) - {rejected}

    def test_bijective_table_off_the_conjugation_is_rejected(self):
        # constants fixed, so f is the identity, but phi(id) = swap
        dom = tuple(all_maps(X2))
        swap, ident = graph_of_map(X2, [1, 0]), identity_corr(X2)
        images = {k: k for k in dom}
        images[ident], images[swap] = swap, ident
        with pytest.raises(ValueError, match="not geometric"):
            schreier_extract(corrfinite._unscanned_table(dom, images))

    def test_alpha_not_injective_raises(self, monkeypatch):
        real = corrfinite._ambient

        def duplicated(X, ambient):
            elements, ideal = real(X, ambient)
            return elements + elements[:1], ideal

        monkeypatch.setattr(corrfinite, "_ambient", duplicated)
        with pytest.raises(CertificateError, match="alpha"):
            enumerate_automorphisms(X2, "MapX")
