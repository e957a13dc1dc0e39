"""Seeded random instances: polynomials, morphisms, squares, universes.

Everything is valid by construction and a function of the seed alone, so
suites rerun byte-identically.  Morphisms are built target-first: the
lower square is instantiated as the chosen pullback and the source
polynomial is grown around it, which guarantees the pullback condition
instead of searching for it.
"""

from __future__ import annotations

import random

from .finset import FamilyMorphism, FinFamily, FinMap, FinSet, Square, label_key, pullback
from .poly import Polynomial, from_map
from .poly2 import PolyMorphism
from .naturalmodel import Universe, _checked


def rand_finset(rng: random.Random, prefix: str, max_size: int, min_size: int = 0) -> FinSet:
    return FinSet(f"{prefix}{i}" for i in range(rng.randint(min_size, max_size)))


def rand_finmap(rng: random.Random, dom: FinSet, cod: FinSet) -> FinMap:
    if len(dom) > 0 and len(cod) == 0:
        raise ValueError("no map into the empty set")
    return FinMap(dom, cod, {x: rng.choice(cod.elements) for x in dom})


def rand_family(rng: random.Random, index: FinSet, max_size: int, prefix: str = "x") -> FinFamily:
    return FinFamily(
        index,
        {
            i: FinSet(f"{prefix}{n}_{k}" for k in range(rng.randint(0, max_size)))
            for n, i in enumerate(index)
        },
    )


def rand_family_morphism(rng: random.Random, X: FinFamily, max_size: int) -> FamilyMorphism:
    fibres = {}
    maps = {}
    for i in X.index:
        size = rng.randint(1 if len(X.fibre(i)) > 0 else 0, max(1, max_size))
        tgt = FinSet(f"y{len(fibres)}_{k}" for k in range(size))
        fibres[i] = tgt
        maps[i] = rand_finmap(rng, X.fibre(i), tgt)
    return FamilyMorphism(X, FinFamily(X.index, fibres), maps)


def rand_polynomial(
    rng: random.Random,
    max_size: int,
    I: FinSet | None = None,
    J: FinSet | None = None,
    one_to_one: bool = False,
) -> Polynomial:
    if one_to_one:
        B = rand_finset(rng, "b", max_size)
        A = rand_finset(rng, "a", max_size, 1)
        return from_map(rand_finmap(rng, B, A))
    if I is None:
        I = rand_finset(rng, "i", max_size, 1)
    if J is None:
        J = rand_finset(rng, "j", max_size, 1)
    B = rand_finset(rng, "b", max_size)
    A = rand_finset(rng, "a", max_size, 1)
    return Polynomial(
        I, B, A, J,
        rand_finmap(rng, B, I), rand_finmap(rng, B, A), rand_finmap(rng, A, J),
    )


def rand_composable_pair(rng: random.Random, max_size: int) -> tuple[Polynomial, Polynomial]:
    F = rand_polynomial(rng, max_size)
    G = rand_polynomial(rng, max_size, I=F.J)
    return F, G


def _relabel(X: FinSet, prefix: str) -> FinMap:
    fresh = FinSet(f"{prefix}{i}" for i in range(len(X)))
    return FinMap(X, fresh, dict(zip(X.elements, fresh.elements)))


def rand_morphism(
    rng: random.Random,
    max_size: int,
    cartesian: bool | None = None,
    target: Polynomial | None = None,
) -> PolyMorphism:
    """A valid-by-construction morphism into ``target`` (or a fresh one).

    The source polynomial is grown around the chosen pullback of the
    target's middle map, with extra arities glued on for the
    non-cartesian case.
    """
    G = target if target is not None else rand_polynomial(rng, max_size)
    if cartesian is None:
        cartesian = rng.random() < 0.5
    A = rand_finset(rng, "sa", max_size, 1)
    phi0 = rand_finmap(rng, A, G.A)
    t = G.t.after(phi0)
    vertex, proj_a, proj_d = pullback(phi0, G.f)
    relabel = _relabel(vertex, "sb")
    B_core = relabel.cod
    if cartesian:
        B = B_core
        phi2 = relabel
        f = proj_a.after(relabel.inverse())
        s = G.s.after(proj_d).after(relabel.inverse())
    else:
        extra = FinSet(f"xb{i}" for i in range(rng.randint(1, max(1, max_size))))
        B = FinSet(list(B_core) + list(extra))
        phi2 = FinMap(vertex, B, dict(relabel.pairs))
        f_table = {relabel(e): proj_a(e) for e in vertex}
        s_table = {relabel(e): G.s(proj_d(e)) for e in vertex}
        for x in extra:
            f_table[x] = rng.choice(A.elements)
            s_table[x] = rng.choice(G.I.elements)
        f = FinMap(B, A, f_table)
        s = FinMap(B, G.I, s_table)
    F = Polynomial(G.I, B, A, G.J, s, f, t)
    return PolyMorphism(F, G, vertex, phi0, proj_d, phi2)


def rand_parallel_pair(
    rng: random.Random, max_size: int, max_vertex: int | None = None
) -> tuple[PolyMorphism, PolyMorphism]:
    """An arbitrary morphism next to a parallel cartesian one."""
    for _ in range(64):
        psi = rand_morphism(rng, max_size, cartesian=True)
        if max_vertex is not None and len(psi.dphi) > max_vertex:
            continue
        F, G = psi.src, psi.dst
        phi0_table = {}
        for a in F.A:
            candidates = [c for c in G.A if G.t(c) == F.t(a)]
            phi0_table[a] = rng.choice(candidates)
        phi0 = FinMap(F.A, G.A, phi0_table)
        vertex, proj_a, proj_d = pullback(phi0, G.f)
        if max_vertex is not None and len(vertex) > max_vertex:
            continue
        phi2_table = {}
        feasible = True
        for e in vertex:
            a, d = e
            candidates = [b for b in F.B if F.f(b) == a and F.s(b) == G.s(d)]
            if not candidates:
                feasible = False
                break
            phi2_table[e] = rng.choice(candidates)
        if not feasible:
            continue
        phi = PolyMorphism(F, G, vertex, phi0, proj_d, FinMap(vertex, F.B, phi2_table))
        return phi, psi
    psi = rand_morphism(rng, 1, cartesian=True)
    return psi, psi


def rand_parallel_cartesian_pair(rng: random.Random, max_size: int) -> tuple[PolyMorphism, PolyMorphism]:
    """Two parallel cartesian morphisms between one-to-one polynomials."""
    for _ in range(64):
        psi = rand_morphism(rng, max_size, cartesian=True, target=rand_polynomial(rng, max_size, one_to_one=True))
        if not psi.src.is_one_to_one():
            continue
        F, G = psi.src, psi.dst
        phi0_table = {}
        feasible = True
        for a in F.A:
            candidates = [c for c in G.A if len(G.f.preimage(c)) == len(F.f.preimage(a))]
            if not candidates:
                feasible = False
                break
            phi0_table[a] = rng.choice(candidates)
        if not feasible:
            continue
        phi0 = FinMap(F.A, G.A, phi0_table)
        vertex, proj_a, proj_d = pullback(phi0, G.f)
        phi2_table = {}
        for a in F.A:
            src_fibre = list(F.f.preimage(a))
            vert_fibre = [e for e in vertex if e[0] == a]
            perm = list(src_fibre)
            rng.shuffle(perm)
            for e, b in zip(sorted(vert_fibre, key=label_key), perm):
                phi2_table[e] = b
        phi = PolyMorphism(F, G, vertex, phi0, proj_d, FinMap(vertex, F.B, phi2_table))
        return phi, psi
    raise RuntimeError("could not build a parallel cartesian pair")


def rand_cartesian_square(
    rng: random.Random, max_size: int, dst: FinMap | None = None
) -> Square:
    """A pullback square onto ``dst`` (or a fresh random map)."""
    if dst is None:
        D = rand_finset(rng, "d", max_size)
        C = rand_finset(rng, "c", max_size, 1)
        dst = rand_finmap(rng, D, C)
    A = rand_finset(rng, "qa", max_size, 1)
    bot = rand_finmap(rng, A, dst.cod)
    vertex, proj_a, proj_d = pullback(bot, dst)
    relabel = _relabel(vertex, "qb")
    return Square(
        proj_a.after(relabel.inverse()), dst, proj_d.after(relabel.inverse()), bot
    )


def rand_universe(rng: random.Random, max_codes: int = 4) -> Universe:
    """A random finite universe: one empty code, at least one singleton
    code, and sum/product codes drawn uniformly among the size-matching
    candidates (which is where the skew lives)."""
    n_singletons = rng.randint(1, max(1, max_codes - 1))
    codes = FinSet(["z0"] + [f"u{i}" for i in range(n_singletons)])
    el = {c: FinSet() if c == "z0" else FinSet([f"e_{c}"]) for c in codes}
    el_fam = FinFamily(codes, el)
    unit = f"u{rng.randint(0, n_singletons - 1)}"
    empties = [c for c in codes if len(el_fam.fibre(c)) == 0]
    singletons = [c for c in codes if len(el_fam.fibre(c)) == 1]
    sigma, pi = {}, {}
    for A, bt, ssize, psize in Universe(codes, el_fam, unit, {}, {}).fibre_sizes():
        sigma[(A, bt)] = rng.choice(singletons if ssize == 1 else empties)
        pi[(A, bt)] = rng.choice(singletons if psize == 1 else empties)
    return _checked(Universe(codes, el_fam, unit, sigma, pi))
