import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from polyverse import naturalmodel, poly, poly2
from polyverse.finset import (
    EnumerationCapExceeded,
    FinFamily,
    FinMap,
    FinSet,
    Square,
    TERMINAL,
    enumeration_cap,
    section_tuple,
    _shared_builds,
)
from polyverse.poly import from_map
from polyverse.poly2 import cells_square_equal
from polyverse.naturalmodel import (
    PolynomialPseudoalgebra,
    Universe,
    UniverseError,
    apply_to_set,
    lift_apply,
    lift_apply_square,
    lift_mult,
    lift_unit,
    lift_unit_mult,
    mk_bool_universe,
    mk_skewed_universe,
    pi_structure,
    pseudoalgebra_from,
    pseudoalgebra_pasting_report,
    pseudomonad_from,
    pseudomonad_pasting_report,
    sigma_structure,
    unit_structure,
    validate_universe,
    verify_type_isos,
)
from polyverse.generators import rand_cartesian_square, rand_universe
from reference import constant, decode_operation, mult_component, recorded, replaced, unit_component


BOOL = mk_bool_universe()
SKEW = mk_skewed_universe()


@pytest.fixture
def extended():
    """Each build of ``extend``, as ``recorded`` gives it."""
    with recorded(poly, "extend") as builds:
        yield builds


def _sets(builds) -> list:
    """Each set ``Z`` whose ``P_p(Z)`` was built, in order of building."""
    return [X.fibre("*") for _, (_, X), _ in builds if X.index == TERMINAL]


class TestUniverses:
    def test_builtins_validate(self):
        assert validate_universe(BOOL) == []
        assert validate_universe(SKEW) == []

    def test_bool_sum_table_rows(self):
        # empty sums land on the empty code, singleton index forces the value
        for bt in BOOL.btables("code0"):
            assert BOOL.sigma_code("code0", bt) == "code0"
            assert BOOL.pi_code("code0", bt) == "code1"
        for bt in BOOL.btables("code1"):
            value = dict(bt)["el"]
            assert BOOL.sigma_code("code1", bt) == value
            assert BOOL.pi_code("code1", bt) == value

    def test_skew_always_prefers_first_singleton(self):
        for A in SKEW.codes:
            for bt in SKEW.btables(A):
                table = dict(bt)
                size = sum(len(SKEW.el.fibre(table[x])) for x in SKEW.el.fibre(A))
                expected = "code1a" if size == 1 else "code0"
                assert SKEW.sigma_code(A, bt) == expected

    def test_corrupted_pairing_rejected(self):
        broken = {k: ("code0" if v == "code1" else v) for k, v in BOOL.sigma}
        bad = Universe(BOOL.codes, BOOL.el, BOOL.unit_code, broken, dict(BOOL.pi))
        with pytest.raises(UniverseError):
            sigma_structure(bad)

    def test_pairing_and_lam_refuse_a_fibre_of_the_wrong_size(self):
        # every sum, or every product, sent to the empty code
        bt = (("el", "code1"),)
        broken_sum = Universe(BOOL.codes, BOOL.el, BOOL.unit_code, {k: "code0" for k, _ in BOOL.sigma}, dict(BOOL.pi))
        with pytest.raises(UniverseError, match=r"^sum code for \('code1', \(\('el', 'code1'\),\)\) has fibre size 0, need 1$"):
            broken_sum.pairing("code1", bt)
        broken_product = Universe(BOOL.codes, BOOL.el, BOOL.unit_code, dict(BOOL.sigma), {k: "code0" for k, _ in BOOL.pi})
        with pytest.raises(UniverseError, match=r"^product code for \('code1', \(\('el', 'code1'\),\)\) has fibre size 0, need 1$"):
            broken_product.lam("code1", bt)

    def test_pairing_and_lam_pair_off_their_fibres_in_order(self):
        u = rand_universe(random.Random(2), 4)
        for A in u.codes:
            for bt in u.btables(A):
                for bij, dom, code in (
                    (u.pairing(A, bt), u.pair_domain(A, bt), u.sigma_code(A, bt)),
                    (u.lam(A, bt), u.section_domain(A, bt), u.pi_code(A, bt)),
                ):
                    cod = u.term_fibre(code)
                    assert bij == FinMap(dom, cod, dict(zip(dom.elements, cod.elements)))

    def test_a_universe_is_validated_once(self):
        with recorded(naturalmodel, "_universe_problems") as validated:
            u = replaced(BOOL)
            pseudomonad_from(u).pseudoalgebra()
            verify_type_isos(u)
            assert validate_universe(u) == []
        assert [args for _, args, _ in validated] == [(u,)]

    def test_a_corrupted_universe_raises_the_same_error_on_every_call(self):
        broken = {k: ("code0" if v == "code1" else v) for k, v in BOOL.sigma}
        bad = Universe(BOOL.codes, BOOL.el, BOOL.unit_code, broken, dict(BOOL.pi))
        # what is kept does not depend on the cap it was found under
        with enumeration_cap(1):
            problems = validate_universe(bad)
        assert problems and validate_universe(replaced(bad)) == problems
        problems.append("a copy")
        messages = set()
        for build in (sigma_structure, unit_structure, pi_structure, verify_type_isos, pseudomonad_from, sigma_structure):
            with pytest.raises(UniverseError) as raised:
                build(bad)
            messages.add(str(raised.value))
        assert messages == {"; ".join(validate_universe(bad))}

    def test_a_table_that_cannot_be_total_is_refused_before_any_family_is_listed(self):
        # ten codes, one with four terms, so 10 ** 4 families over that code
        # alone, and two empty tables
        codes = FinSet([f"c{i}" for i in range(10)])
        el = FinFamily(codes, {**{c: FinSet() for c in codes}, "c0": FinSet(["w", "x", "y", "z"]), "c1": FinSet(["e"])})
        listed, btables = [], Universe.btables

        def listing(u, code):
            for bt in btables(u, code):
                listed.append(bt)
                yield bt

        with mock.patch.object(Universe, "btables", listing):
            assert validate_universe(Universe(codes, el, "c1", {}, {})) == [
                "sum table is not total over all (code, family) pairs"
            ]
        assert listed == []

    def test_random_universes_validate(self):
        rng = random.Random(0)
        for _ in range(10):
            u = rand_universe(rng, 4)
            assert validate_universe(u) == []


class TestStructureCells:
    def test_unit_picks_unit_code(self):
        eta = unit_structure(BOOL)
        assert eta.is_cartesian()
        assert eta.phi0("*") == "code1"
        skew_eta = unit_structure(SKEW)
        assert skew_eta.phi0("*") == "code1b"

    def test_unit_extension_is_singleton_indexed_copy(self):
        from polyverse.poly2 import extend_cell

        X = FinFamily(TERMINAL, {"*": FinSet(["x", "y"])})
        eta = unit_structure(BOOL)
        cell = extend_cell(eta, X)
        assert len(cell.src.fibre("*")) == len(X.fibre("*"))
        image = {cell.at("*")(e) for e in cell.src.fibre("*")}
        unit_indexed = {e for e in cell.dst.fibre("*") if e[0] == "code1"}
        assert len(image) == len(X.fibre("*"))
        assert image == unit_indexed

    def test_sigma_base_enumerated(self):
        # the composite's operations: (code0, empty), (code1, constant code0),
        # (code1, constant code1); their sum codes are code0, code0, code1
        mu = sigma_structure(BOOL)
        assert len(mu.src.A) == 3
        values = sorted(mu.phi0(m) for m in mu.src.A)
        assert values == ["code0", "code0", "code1"]

    def test_sigma_pairing_sizes(self):
        mu = sigma_structure(BOOL)
        for melt in mu.src.A:
            c, assign = decode_operation(melt)
            pair_count = sum(
                len(BOOL.el.fibre(a)) for d, a in assign.items()
            )
            assert pair_count == len(BOOL.el.fibre(mu.phi0(melt)))

    def test_skew_mu_lands_on_first_singleton(self):
        mu = sigma_structure(SKEW)
        for melt in mu.src.A:
            code = mu.phi0(melt)
            assert code in ("code0", "code1a")

    def test_pi_empty_product_is_unit(self):
        zeta = pi_structure(BOOL)
        for (A, sect) in zeta.src.A:
            if A == "code0":
                assert zeta.phi0((A, sect)) == "code1"

    def test_pi_lambda_sizes(self):
        zeta = pi_structure(BOOL)
        for (A, sect) in zeta.src.A:
            prod = 1
            for _, code in sect:
                prod *= len(BOOL.el.fibre(code))
            assert prod == len(BOOL.el.fibre(zeta.phi0((A, sect))))

    def test_structure_cells_honour_the_cap(self):
        # the sum and product cells enumerate a fibre of 2 on the bool universe
        for cell in (sigma_structure, pi_structure):
            with enumeration_cap(1), pytest.raises(EnumerationCapExceeded, match=r"\(cap 1\)"):
                cell(BOOL)
            with enumeration_cap(2):
                assert cell(BOOL).is_cartesian()

    def test_skew_pi_exists(self):
        zeta = pi_structure(SKEW)
        assert zeta.is_cartesian()


class TestPseudomonad:
    def test_bool_strict_with_identity_adjustments(self):
        pm = pseudomonad_from(BOOL)
        assert pm.is_strict_monad()
        assert pm.assoc.is_identity()
        assert pm.left_unit.is_identity()
        assert pm.right_unit.is_identity()

    def test_skew_right_unit_fails_on_unit_code(self):
        cells = pseudomonad_from(SKEW).cells
        right = cells["right_cell"]
        assert right.phi0("code1b") == "code1a"
        assert not cells_square_equal(right, cells["id_cell"])

    def test_skew_unique_invertible_nonidentity_rho(self):
        pm = pseudomonad_from(SKEW)
        assert not pm.strict_right
        assert pm.right_unit.is_invertible()
        assert not pm.right_unit.is_identity()

    def test_skew_left_unit_composite_against_identity(self):
        # the composite of the multiplication with the unit whiskered on the
        # outer side also misses the unit code, and the unique adjustment
        # repairing it is invertible but not an identity
        pm = pseudomonad_from(SKEW)
        assert not pm.strict_left
        assert pm.left_unit.is_invertible()
        assert not pm.left_unit.is_identity()

    def test_pastings_hold_for_all_universes(self):
        rng = random.Random(4)
        universes = [BOOL, SKEW] + [rand_universe(rng, 4) for _ in range(3)]
        for u in universes:
            assert pseudomonad_from(u).pasting_report()["ok"]

    def test_bool_contrasts_with_skew(self):
        assert pseudomonad_from(BOOL).is_strict_monad()
        assert not pseudomonad_from(SKEW).is_strict_monad()


class TestPseudoalgebra:
    def test_bool_strict(self):
        alg = pseudomonad_from(BOOL).pseudoalgebra()
        assert alg.is_strict()
        assert alg.sigma_adj.is_identity()
        assert alg.tau_adj.is_identity()

    def test_skew_tau_nonidentity(self):
        alg = pseudomonad_from(SKEW).pseudoalgebra()
        assert not alg.strict_tau
        assert alg.tau_adj.is_invertible()
        assert not alg.tau_adj.is_identity()

    def test_pastings_hold(self):
        rng = random.Random(5)
        for u in [BOOL, SKEW] + [rand_universe(rng, 4) for _ in range(3)]:
            assert pseudomonad_from(u).pseudoalgebra().pasting_report()["ok"]


class TestLazyPseudoalgebra:
    """A pseudoalgebra holds its monad and zeta; its squares, law
    adjustments and strictness flags are built when first read, and kept."""

    LAZY = {"squares", "_laws", "_adjustments", "_strict"}

    def test_only_zeta_is_built_with_it(self, extended):
        pm = pseudomonad_from(SKEW)
        del extended[:]
        alg = pm.pseudoalgebra()
        assert type(alg)._fields == ("monad", "zeta") and not self.LAZY & set(vars(alg))
        assert sorted(_sets(extended), key=len) == [SKEW.terms, SKEW.codes]
        assert not alg.strict_tau and not alg.tau_adj.is_identity()
        assert self.LAZY <= set(vars(alg))

    def test_a_read_over_the_cap_keeps_nothing(self):
        alg = pseudomonad_from(SKEW).pseudoalgebra()
        with enumeration_cap(2):
            for name in ("squares", "sigma_adj", "tau_adj", "strict_sigma", "strict_tau"):
                with pytest.raises(EnumerationCapExceeded):
                    getattr(alg, name)
        assert not self.LAZY & set(vars(alg))
        assert alg.sigma_adj.is_identity() and alg.tau_adj.is_invertible() and not alg.is_strict()

    def test_equal_exactly_when_monad_and_zeta_are(self):
        pm, other = pseudomonad_from(SKEW), pseudomonad_from(BOOL)
        alg = pm.pseudoalgebra()
        alg.pasting_report()  # what it keeps is not compared
        same = PolynomialPseudoalgebra(pseudomonad_from(SKEW), pi_structure(SKEW))
        assert same == alg and hash(same) == hash(alg) and same.monad is not pm
        assert PolynomialPseudoalgebra(other, alg.zeta) != alg
        assert PolynomialPseudoalgebra(pm, pi_structure(BOOL)) != alg
        # the pseudomonad compares its universe too
        assert replaced(pm, universe=BOOL) != pm

    def test_pasting_report_outside_a_table_extends_only_the_first_sets_twice(self, extended):
        pm = pseudomonad_from(SKEW)
        del extended[:]
        assert pm.pseudoalgebra().pasting_report()["ok"]
        sets = Counter(_sets(extended))
        assert len(extended) == sum(sets.values()) == 8 and len(sets) == 6
        assert {Z for Z, n in sets.items() if n > 1} == {SKEW.terms, SKEW.codes}
        assert max(sets.values()) == 2


class TestOnePath:
    """The pseudomonad is built once per universe and the pseudoalgebra over
    it; the Universe-level entry points only delegate to those objects."""

    @pytest.fixture
    def calls(self):
        """The count of calls of ``monad_law_cells`` and of builds of
        ``pi_structure``, for ``pi_structure(u)`` and the pseudoalgebra alike."""
        with recorded(naturalmodel, "monad_law_cells", "pi_structure") as calls:
            yield lambda: Counter(name for name, _, _ in calls)

    def test_model_pseudomonad_builds_the_law_cells_once(self, calls):
        from test_cli import run_cli

        proc = run_cli("model", "pseudomonad", "skewed")
        assert proc.returncode == 0
        assert proc.stdout
        assert calls() == {"monad_law_cells": 1, "pi_structure": 1}

    def test_pseudomonad_suite_builds_eta_and_mu_once_per_universe(self):
        from polyverse.suites import InstanceGenConfig, run_suite

        cfg = InstanceGenConfig(seed=1, count=3, max_set_size=2)
        with recorded(naturalmodel, "unit_structure", "sigma_structure") as builds:
            rep = run_suite("pseudomonad", cfg)
            assert rep.failed == 0 and rep.skipped == 0
            # the explicit cells and those of the law cells are one build, for
            # each universe and for the corrupted control's sum
            first = [(name, u) for name, (u,), _ in builds]
            units = [u for name, u in first if name == "unit_structure"]
            sums = [u for name, u in first if name == "sigma_structure"]
            assert len(units) == 3 and len(sums) == 4
            assert len(units) == len(set(units)) and len(sums) == len(set(sums))
            assert {BOOL, SKEW} <= set(units)
            # a second run builds them again
            run_suite("pseudomonad", cfg)
            assert [(name, u) for name, (u,), _ in builds] == first + first

    @pytest.mark.parametrize("suite", ["pseudomonad", "pseudoalgebra"])
    def test_suites_build_the_law_cells_once_per_universe(self, calls, suite):
        from polyverse.suites import InstanceGenConfig, run_suite

        rep = run_suite(suite, InstanceGenConfig(seed=1, count=2, max_set_size=3))
        assert rep.failed == 0 and rep.skipped == 0
        # one build each for bool and skewed; the pseudoalgebra reads only
        # eta and mu, so it builds none
        assert calls()["monad_law_cells"] == (2 if suite == "pseudomonad" else 0)
        if suite == "pseudoalgebra":
            assert calls()["pi_structure"] == 2

    def test_the_laws_are_built_when_first_read(self, calls):
        pm = pseudomonad_from(SKEW)
        assert calls()["monad_law_cells"] == 0
        assert pm.pasting_report()["ok"] and calls()["monad_law_cells"] == 1
        assert "_adjustments" not in vars(pm)
        assert pm.right_unit.is_invertible() and not pm.strict_right
        assert pm.assoc.is_identity() and calls()["monad_law_cells"] == 1

    def test_a_law_over_the_cap_is_built_at_a_later_read(self, calls):
        pm = pseudomonad_from(SKEW)
        with enumeration_cap(2):
            with pytest.raises(EnumerationCapExceeded):
                pm.assoc
        assert not {"cells", "_adjustments"} & set(vars(pm))
        assert pm.assoc.is_identity() and not pm.right_unit.is_identity()
        assert calls()["monad_law_cells"] == 2

    def test_pseudomonad_keeps_its_cells(self):
        pm = pseudomonad_from(SKEW)
        assert type(pm)._fields == ("eta", "mu", "universe")
        assert pm.cells["t"] is pm.carrier is pm.mu.dst
        assert pm.cells["eta"] is pm.eta and pm.cells["mu"] is pm.mu
        assert pm.universe is SKEW
        assert "cells" not in repr(pm)

    def test_pseudoalgebra_lifts_through_one_endofunctor(self, extended):
        # in one table zeta and the lifted squares share P_p(terms) and
        # P_p(codes), so each is computed once
        pm = pseudomonad_from(SKEW)
        del extended[:]
        with _shared_builds():
            pm.pseudoalgebra().squares
        sets = _sets(extended)
        assert len(sets) == len(set(sets))
        assert set(sets) >= {SKEW.terms, SKEW.codes}

    def test_pseudoalgebra_is_over_its_pseudomonad(self):
        pm = pseudomonad_from(SKEW)
        alg = pm.pseudoalgebra()
        assert alg.monad is pm
        assert "carrier" not in type(alg)._fields and alg.carrier is pm.carrier
        assert alg.squares["z"].src == alg.zeta.src.f

    @pytest.mark.parametrize("u", [BOOL, SKEW], ids=["bool", "skewed"])
    def test_universe_delegations_match_the_object_path(self, u):
        pm = pseudomonad_from(u)
        alg = pm.pseudoalgebra()
        assert pseudomonad_pasting_report(u) == pm.pasting_report()
        assert pseudoalgebra_from(u) == alg
        assert pseudoalgebra_pasting_report(u) == alg.pasting_report()


class TestOneBuildPerCheck:
    """Within one check each canonical bijection is built once, and each
    pasting extends the law cells or squares its object keeps."""

    def test_type_isos_build_each_pairing_and_abstraction_once(self):
        with recorded(Universe, "pairing", "lam") as builds:
            assert verify_type_isos(SKEW)["ok"]
            # 94 calls of 14 distinct bijections
            assert len(builds) == len({(name, args) for name, args, _ in builds}) == 14
            # a second check builds them again
            verify_type_isos(SKEW)
            assert len(builds) == 28

    def test_the_pseudomonad_pasting_extends_the_law_cells(self):
        pm = pseudomonad_from(SKEW)
        cells = pm.cells
        with recorded(poly2, "v_comp") as composed:
            assert pm.pasting_report()["ok"]
        # 22 when each node was composed from mu
        assert len(composed) == 12
        # three nodes extend mu.p_mu.a3, four extend mu.mu_p
        outermost = Counter(name for name in ("assoc_lhs", "assoc_rhs") for _, args, _ in composed if args[0] is cells[name])
        assert outermost == {"assoc_lhs": 3, "assoc_rhs": 4}

    def test_the_pseudoalgebra_pasting_extends_the_law_squares(self):
        alg = pseudomonad_from(SKEW).pseudoalgebra()
        (zTz, zm_p), _ = alg._laws
        with recorded(Square, "after") as composed:
            assert alg.pasting_report()["ok"]
        # 16 when each node was composed from z
        assert len(composed) == 8
        assert {args[0] for _, args, _ in composed} == {zTz, zm_p}


class TestLiftOnePath:
    """Inside one table P_p(Z) is computed once for each set Z; the lift
    suite opens one table per run and keeps nothing across runs."""

    def test_lift_instance_computes_each_set_once(self, extended):
        from polyverse.suites import InstanceGenConfig, run_suite

        cfg = InstanceGenConfig(seed=1, count=1, max_set_size=2)
        rep = run_suite("lift", cfg)
        assert rep.failed == 0 and rep.skipped == 0
        first = _sets(extended)
        assert first and len(first) == len(set(first))
        # a second run computes every set again
        run_suite("lift", cfg)
        assert _sets(extended) == first + first

    def test_repeated_sets_are_kept(self, extended):
        t = from_map(SKEW.p)
        f = constant(FinSet(["x", "y"]), FinSet(["w"]), "w")
        with _shared_builds():
            Pf = lift_apply(t, f)
            assert lift_apply_square(t, Square.identity(f)) == Square.identity(Pf)
            assert apply_to_set(t, f.dom) is Pf.dom
            # another carrier of the same map reads the same table
            assert apply_to_set(from_map(SKEW.p), f.cod) is Pf.cod
        assert _sets(extended) == [f.dom, f.cod]
        # a second table computes them again
        with _shared_builds():
            assert lift_apply(t, f) == Pf
        assert _sets(extended) == [f.dom, f.cod] * 2

    def test_lift_suite_builds_the_structure_cells_once_per_universe(self):
        from polyverse.suites import InstanceGenConfig, run_suite

        cfg = InstanceGenConfig(seed=7, count=20, max_set_size=3)
        with recorded(naturalmodel, "unit_structure", "sigma_structure") as builds:
            rep = run_suite("lift", cfg)
            assert rep.failed == 0 and rep.skipped == 0
            # one build of each cell for bool and one for skewed
            assert sorted(name for name, _, _ in builds) == ["sigma_structure"] * 2 + ["unit_structure"] * 2
            assert {u for _, (u,), _ in builds} == {BOOL, SKEW}
            # a second run builds them again
            run_suite("lift", cfg)
            assert len(builds) == 8

    def test_pseudoalgebra_pasting_report_shares_its_table(self, extended):
        with _shared_builds():
            alg = pseudomonad_from(SKEW).pseudoalgebra()
            squares = alg.squares
            assert apply_to_set(alg.carrier, squares["z"].src.dom) is squares["Tz"].src.dom
            met = set(_sets(extended))
            del extended[:]
            alg.pasting_report()  # meets only sets the pseudoalgebra's build did not
        sets = _sets(extended)
        assert sets and len(sets) == len(set(sets)) and not met & set(sets)


class TestLift:
    def test_apply_to_objects_counts(self):
        # frozen: sum over codes of |B| ** |fibre|
        B = FinSet(["x", "y", "z"])
        val = apply_to_set(from_map(BOOL.p), B)
        assert len(val) == 3 ** 0 + 3 ** 1

    def test_lift_identity_components(self):
        B = FinSet(["x", "y"])
        A = FinSet(["w"])
        f = constant(B, A, "w")
        ident = lift_apply(from_map(BOOL.p), FinMap.identity(B))
        assert ident == FinMap.identity(apply_to_set(from_map(BOOL.p), B))

    def test_lift_composes(self):
        rng = random.Random(6)
        sq = rand_cartesian_square(rng, 2)
        sq2 = rand_cartesian_square(rng, 2, dst=sq.src)
        t = from_map(BOOL.p)
        lhs = lift_apply_square(t, sq.after(sq2))
        rhs = lift_apply_square(t, sq).after(lift_apply_square(t, sq2))
        assert lhs == rhs

    def test_lift_preserves_pullbacks(self):
        rng = random.Random(7)
        for _ in range(6):
            sq = rand_cartesian_square(rng, 3)
            assert lift_apply_square(from_map(SKEW.p), sq).is_pullback()

    def test_unit_mult_squares_are_pullbacks(self):
        rng = random.Random(8)
        eta = unit_structure(SKEW)
        mu = sigma_structure(SKEW)
        for _ in range(4):
            sq = rand_cartesian_square(rng, 2)
            h_f, m_f = lift_unit_mult(eta, mu, sq.src)
            assert h_f.is_pullback() and m_f.is_pullback()

    def test_identity_map_degenerates_to_unit_shape(self):
        eta = unit_structure(BOOL)
        mu = sigma_structure(BOOL)
        one = FinMap.identity(TERMINAL)
        h_f, m_f = lift_unit_mult(eta, mu, one)
        assert h_f.top == unit_component(eta, TERMINAL)
        assert h_f.bot == unit_component(eta, TERMINAL)
        assert m_f.top == mult_component(mu, TERMINAL)


def _structure_cells(u):
    return unit_structure(u), sigma_structure(u)


UNIVERSES = st.one_of(
    st.sampled_from([BOOL, SKEW]),
    st.integers(0, 10_000).map(lambda seed: rand_universe(random.Random(seed), 4)),
)


@st.composite
def lifted_sets(draw):
    """The empty set, the point, small sets of labels, or a set of a random
    cartesian square."""
    kind = draw(st.sampled_from(["empty", "point", "labels", "square"]))
    if kind == "empty":
        return FinSet()
    if kind == "point":
        return TERMINAL
    if kind == "labels":
        return FinSet(draw(st.sets(st.sampled_from(["x", "y", "*", ("x", "y"), ("*", ("z",))]), max_size=3)))
    sq = rand_cartesian_square(random.Random(draw(st.integers(0, 10_000))), 2)
    return draw(st.sampled_from([sq.src.dom, sq.src.cod, sq.dst.dom, sq.dst.cod]))


class TestLiftedComponents:
    """``lift_unit`` and ``lift_mult`` against the route through the
    extension bijections, kept in ``tests/reference.py``."""

    @settings(max_examples=60, deadline=None)
    @given(UNIVERSES, lifted_sets())
    def test_unit_and_mult_equal_the_extension_route(self, u, Z):
        eta, mu = _structure_cells(u)
        assert lift_unit(eta, Z) == unit_component(eta, Z)
        assert lift_mult(mu, Z) == mult_component(mu, Z)

    @pytest.mark.parametrize("Z", [FinSet(), TERMINAL, FinSet(["x", "y"])], ids=["empty", "point", "two"])
    def test_mult_reads_the_inner_arity_of_each_outer_arity(self, Z):
        # over skewed an outer arity (code1a, a) can carry the code code1b,
        # whose arity (code1b, b) differs from it, so looking the two up the
        # other way round gives another map or none
        _, mu = _structure_cells(SKEW)
        PPZ = apply_to_set(mu.dst, apply_to_set(mu.dst, Z))
        assert any(b != b_in for _, outer in PPZ for b, (_, s) in outer for b_in, _ in s) == bool(Z)
        assert lift_mult(mu, Z) == mult_component(mu, Z)

    def test_components_are_read_off_the_kept_sets(self, extended):
        eta, mu = _structure_cells(SKEW)
        Z = FinSet(["x", "y"])
        with _shared_builds():
            h, m = lift_unit(eta, Z), lift_mult(mu, Z)
            assert h.cod is apply_to_set(mu.dst, Z) and m.cod is h.cod
            assert m.dom is apply_to_set(mu.dst, h.cod)
        assert _sets(extended) == [Z, h.cod]


class TestTypeIsos:
    def test_bool_sweep_all_strict(self):
        summary = verify_type_isos(BOOL)
        assert summary["ok"]
        assert summary["total_checked"] == 14
        for key, row in summary.items():
            if isinstance(row, dict):
                assert row["failures"] == []
                assert row["nonidentity"] == 0

    def test_skew_has_nonidentity_rows(self):
        summary = verify_type_isos(SKEW)
        assert summary["ok"]
        assert summary["sum-right-unit"]["nonidentity"] >= 1
        assert summary["sum-left-unit"]["nonidentity"] >= 1
        assert summary["product-left-unit"]["nonidentity"] >= 1

    def test_sum_unit_sizes(self):
        # the size of the sum over the unit family equals the index size
        for u in (BOOL, SKEW):
            for A in u.codes:
                bt = section_tuple({x: u.unit_code for x in u.el.fibre(A)})
                code = u.sigma_code(A, bt)
                assert len(u.el.fibre(code)) == len(u.el.fibre(A))

    def test_random_universe_sweeps(self):
        rng = random.Random(9)
        for _ in range(3):
            u = rand_universe(rng, 4)
            assert verify_type_isos(u)["ok"]
