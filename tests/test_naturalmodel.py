import random

import pytest

from polyverse import naturalmodel
from polyverse.finset import (
    EnumerationCapExceeded,
    FinFamily,
    FinMap,
    FinSet,
    Square,
    TERMINAL,
    enumeration_cap,
    section_tuple,
)
from polyverse.poly import compose, decode_operation
from polyverse.poly2 import cells_square_equal, identity_cell
from polyverse.naturalmodel import (
    Universe,
    UniverseError,
    apply_to_set,
    lift_apply,
    lift_apply_square,
    lift_unit_mult,
    mk_bool_universe,
    mk_skewed_universe,
    mult_component,
    pi_structure,
    poly_of,
    pseudoalgebra_from,
    pseudoalgebra_pasting_report,
    pseudomonad_from,
    pseudomonad_pasting_report,
    sigma_structure,
    unit_component,
    unit_structure,
    validate_universe,
    verify_type_isos,
)
from polyverse.generators import rand_cartesian_square, rand_universe


BOOL = mk_bool_universe()
SKEW = mk_skewed_universe()


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


class TestOnePath:
    """The pseudomonad is built once per universe and the pseudoalgebra over
    it; the Universe-level entry points only delegate to those objects."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"monad_law_cells": 0, "pi_structure": 0}
        for name in counts:
            original = getattr(naturalmodel, name)

            def counted(u, _original=original, _name=name):
                counts[_name] += 1
                return _original(u)

            monkeypatch.setattr(naturalmodel, name, counted)
        return counts

    def test_model_pseudomonad_builds_the_law_cells_once(self, calls, capsys):
        from polyverse.cli import main

        assert main(["model", "pseudomonad", "skewed"]) == 0
        assert capsys.readouterr().out
        assert calls == {"monad_law_cells": 1, "pi_structure": 1}

    @pytest.mark.parametrize("suite", ["pseudomonad", "pseudoalgebra"])
    def test_suites_build_the_law_cells_once_per_universe(self, calls, suite):
        from polyverse.suites import InstanceGenConfig, run_suite

        rep = run_suite(suite, InstanceGenConfig(seed=1, count=2, max_set_size=3))
        assert rep.failed == 0 and rep.skipped == 0
        # one build each for bool and skewed
        assert calls["monad_law_cells"] == 2
        if suite == "pseudoalgebra":
            assert calls["pi_structure"] == 2

    def test_pseudomonad_keeps_its_cells(self):
        pm = pseudomonad_from(SKEW)
        assert pm.cells["t"] == pm.carrier
        assert pm.cells["eta"] is pm.eta and pm.cells["mu"] is pm.mu
        assert pm.universe is SKEW
        assert "cells" not in repr(pm)

    def test_pseudoalgebra_is_over_its_pseudomonad(self):
        pm = pseudomonad_from(SKEW)
        alg = pm.pseudoalgebra()
        assert alg.monad is pm
        assert alg.carrier == pm.carrier
        assert alg.z.src == alg.zeta.src.f

    @pytest.mark.parametrize("u", [BOOL, SKEW], ids=["bool", "skewed"])
    def test_universe_delegations_match_the_object_path(self, u):
        pm = pseudomonad_from(u)
        alg = pm.pseudoalgebra()
        assert pseudomonad_pasting_report(u) == pm.pasting_report()
        assert pseudoalgebra_from(u) == alg
        assert pseudoalgebra_pasting_report(u) == alg.pasting_report()


class TestLift:
    def test_apply_to_objects_counts(self):
        # frozen: sum over codes of |B| ** |fibre|
        B = FinSet(["x", "y", "z"])
        val = apply_to_set(BOOL.p, B)
        assert len(val) == 3 ** 0 + 3 ** 1

    def test_lift_identity_components(self):
        B = FinSet(["x", "y"])
        A = FinSet(["w"])
        f = FinMap.constant(B, A, "w")
        ident = lift_apply(BOOL.p, FinMap.identity(B))
        assert ident == FinMap.identity(apply_to_set(BOOL.p, B))

    def test_lift_composes(self):
        rng = random.Random(6)
        sq = rand_cartesian_square(rng, 2)
        sq2 = rand_cartesian_square(rng, 2, dst=sq.src)
        lhs = lift_apply_square(BOOL.p, sq.after(sq2))
        rhs = lift_apply_square(BOOL.p, sq).after(lift_apply_square(BOOL.p, sq2))
        assert lhs == rhs

    def test_lift_preserves_pullbacks(self):
        rng = random.Random(7)
        for _ in range(6):
            sq = rand_cartesian_square(rng, 3)
            assert lift_apply_square(SKEW.p, sq).is_pullback()

    def test_unit_mult_squares_are_pullbacks(self):
        rng = random.Random(8)
        eta = unit_structure(SKEW)
        mu = sigma_structure(SKEW)
        for _ in range(4):
            sq = rand_cartesian_square(rng, 2)
            h_f, m_f = lift_unit_mult(SKEW.p, eta, mu, sq.src)
            assert h_f.is_pullback() and m_f.is_pullback()

    def test_identity_map_degenerates_to_unit_shape(self):
        eta = unit_structure(BOOL)
        mu = sigma_structure(BOOL)
        one = FinMap.identity(TERMINAL)
        h_f, m_f = lift_unit_mult(BOOL.p, eta, mu, one)
        assert h_f.top == unit_component(eta, TERMINAL)
        assert h_f.bot == unit_component(eta, TERMINAL)
        assert m_f.top == mult_component(mu, TERMINAL)


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
