"""Bisimulation machinery for finite instances.

Two equivalence checks live here, both computed as greatest fixpoints:

* ``check_guarded_bisim`` — a family of partial isomorphisms between guarded
  sets, refined until the back-and-forth conditions hold for every guarded
  set of either instance.
* ``check_strong_gn`` — a collection of pairs of guarded tuples, refined
  until every surviving pair admits global homomorphisms in both directions
  whose guarded-tuple images stay inside the collection.

On top of the second check sit ``check_directional`` (does a tuple-to-tuple
map extend to a collection-compatible homomorphism?) and ``amalgamate``
(glue two instances over different signatures along a witness for their
shared part).  ``directed_cycle`` builds the standard small test structures.

Conventions:

* A guarded tuple is any nonempty tuple over the argument set of a single
  fact, with length bounded by that fact's arity.  Constant-interpreted
  values participate exactly when they occur in facts; tuples made purely of
  constants that appear in no fact are covered separately by the
  constant-substructure check.
* Witnesses returned by the checkers are always re-verified structurally
  before being handed back; the verifiers are public so externally built
  witnesses can be validated the same way.
* Both fixpoint computations are exponential in the worst case, so instances
  are capped at ``max_size`` active-domain values (default 12).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .model import (
    BudgetExceeded,
    Fact,
    Homomorphism,
    Instance,
    Signature,
    Value,
    _hom_search,
    active_domain,
    elem,
    fact_key,
    guarded_sets,
    pair_value,
)

MapItems = tuple[tuple[Value, Value], ...]
GuardedTuple = tuple[Value, ...]
TuplePair = tuple[GuardedTuple, GuardedTuple]
ImageMap = dict[GuardedTuple, list[GuardedTuple]]
PairHoms = tuple[dict[Value, Value], dict[Value, Value]]


# ---------------------------------------------------------------------------
# Generators


def directed_cycle(k: int, rel: str = "E") -> Instance:
    """Directed cycle with elements n1..nk and facts rel(n_i, n_{i+1 mod k})."""
    if k < 1:
        raise ValueError(f"directed_cycle: need k >= 1, got {k}")
    sig = Signature([(rel, 2)])
    elems = [elem(f"n{i}") for i in range(1, k + 1)]
    return Instance(sig, (Fact(rel, (elems[i], elems[(i + 1) % k])) for i in range(k)))


# ---------------------------------------------------------------------------
# Shared small helpers


def _val_key(v: Value) -> str:
    return v.name


def _tuple_key(t: GuardedTuple) -> tuple:
    return (len(t), tuple(v.name for v in t))


def _pair_key(p: TuplePair) -> tuple:
    return (_tuple_key(p[0]), _tuple_key(p[1]))


def _map_key(items: MapItems) -> tuple:
    return (len(items), tuple((s.name, t.name) for s, t in items))


def _map_items(m: Mapping[Value, Value]) -> MapItems:
    return tuple(sorted(m.items(), key=lambda st: st[0].name))


def _const_seed(a: Instance, b: Instance) -> Optional[dict[Value, Value]]:
    """Map each constant's value in `a` to its value in `b`.

    Returns None when the map is not a well-defined injection, i.e. when the
    constant substructures cannot possibly correspond.
    """
    m: dict[Value, Value] = {}
    for name, va in a.const_interp.items():
        vb = b.const_interp[name]
        if m.get(va, vb) != vb:
            return None
        m[va] = vb
    if len(set(m.values())) != len(m):
        return None
    return m


def _is_partial_iso(a: Instance, b: Instance, m: Mapping[Value, Value]) -> bool:
    """Is `m`, extended with constant pinning, a partial isomorphism a -> b?

    Requires the extended map to be a well-defined injection, every a-fact
    inside its domain to have its image in b, and every b-fact inside its
    range to have its preimage in a.
    """
    full: dict[Value, Value] = dict(m)
    for name, va in a.const_interp.items():
        vb = b.const_interp[name]
        if full.get(va, vb) != vb:
            return False
        full[va] = vb
    inv: dict[Value, Value] = {}
    for s, t in full.items():
        if t in inv:
            return False
        inv[t] = s
    dom = set(full)
    rng = set(inv)
    for f in a.facts:
        if set(f.args) <= dom and Fact(f.rel, tuple(full[v] for v in f.args)) not in b:
            return False
    for f in b.facts:
        if set(f.args) <= rng and Fact(f.rel, tuple(inv[v] for v in f.args)) not in a:
            return False
    return True


def _merged_seed(base: Mapping[Value, Value], src: Sequence[Value],
                 dst: Sequence[Value]) -> Optional[dict[Value, Value]]:
    """Extend `base` with the positional map src -> dst; None on conflict."""
    m = dict(base)
    for vs, vd in zip(src, dst):
        if m.get(vs, vd) != vd:
            return None
        m[vs] = vd
    return m


# ---------------------------------------------------------------------------
# Guarded bisimulation


@dataclass(frozen=True)
class GuardedBisimWitness:
    """Non-empty family of partial isomorphisms closed under back-and-forth.

    Each map is stored as a tuple of (source value, target value) pairs
    sorted by source name.
    """

    family: frozenset[MapItems]

    def maps(self) -> list[dict[Value, Value]]:
        return [dict(items) for items in sorted(self.family, key=_map_key)]


def _family_indexes(family: Iterable[MapItems]):
    by_dom: dict[frozenset[Value], list[dict[Value, Value]]] = {}
    by_cod: dict[frozenset[Value], list[dict[Value, Value]]] = {}
    for items in family:
        fwd = dict(items)
        bwd = {t: s for s, t in items}
        by_dom.setdefault(frozenset(fwd), []).append(fwd)
        by_cod.setdefault(frozenset(bwd), []).append(bwd)
    return by_dom, by_cod


def _back_and_forth_holds(items: MapItems,
                          gs_a: Iterable[frozenset[Value]],
                          gs_b: Iterable[frozenset[Value]],
                          by_dom, by_cod) -> bool:
    g = dict(items)
    ginv = {t: s for s, t in items}
    for xs in gs_a:
        shared = [v for v in xs if v in g]
        if not any(all(cand[v] == g[v] for v in shared)
                   for cand in by_dom.get(xs, ())):
            return False
    for ys in gs_b:
        shared = [w for w in ys if w in ginv]
        if not any(all(cand[w] == ginv[w] for w in shared)
                   for cand in by_cod.get(ys, ())):
            return False
    return True


def check_guarded_bisim(a: Instance, b: Instance) -> Optional[GuardedBisimWitness]:
    """Greatest family of partial isomorphisms between guarded sets that is
    closed under the back-and-forth conditions; None when the family is empty.

    Starts from every partial isomorphism whose domain is a guarded set of
    `a` and whose codomain is a guarded set of `b`, then repeatedly removes
    maps for which some guarded set of `a` lacks a domain-matching family
    member agreeing on the overlap (forth), or some guarded set of `b` lacks
    a codomain-matching member whose inverse agrees on the overlap (back).
    """
    if a.sig != b.sig:
        raise ValueError("check_guarded_bisim: signatures differ")
    gs_a = sorted(guarded_sets(a), key=lambda s: (len(s), sorted(v.name for v in s)))
    gs_b = sorted(guarded_sets(b), key=lambda s: (len(s), sorted(v.name for v in s)))
    family: set[MapItems] = set()
    for xs in gs_a:
        xs_sorted = sorted(xs, key=_val_key)
        for ys in gs_b:
            if len(ys) != len(xs):
                continue
            for perm in itertools.permutations(sorted(ys, key=_val_key)):
                m = dict(zip(xs_sorted, perm))
                if _is_partial_iso(a, b, m):
                    family.add(_map_items(m))
    while True:
        by_dom, by_cod = _family_indexes(family)
        survivors = {items for items in family
                     if _back_and_forth_holds(items, gs_a, gs_b, by_dom, by_cod)}
        if survivors == family:
            break
        family = survivors
    if not family:
        return None
    witness = GuardedBisimWitness(frozenset(family))
    if not verify_guarded_bisim(a, b, witness):
        raise AssertionError("internal error: guarded-bisimulation witness "
                             "failed re-verification")
    return witness


def verify_guarded_bisim(a: Instance, b: Instance, witness: GuardedBisimWitness) -> bool:
    """Structural validity of a guarded-bisimulation witness: the family is
    non-empty, every map is a partial isomorphism between guarded sets, and
    the back-and-forth conditions hold within the family."""
    if a.sig != b.sig or not witness.family:
        return False
    gs_a = guarded_sets(a)
    gs_b = guarded_sets(b)
    by_dom, by_cod = _family_indexes(witness.family)
    for items in witness.family:
        m = dict(items)
        if len(m) != len(items):
            return False
        if frozenset(m) not in gs_a or frozenset(m.values()) not in gs_b:
            return False
        if len(set(m.values())) != len(m):
            return False
        if not _is_partial_iso(a, b, m):
            return False
        if not _back_and_forth_holds(items, gs_a, gs_b, by_dom, by_cod):
            return False
    return True


# ---------------------------------------------------------------------------
# Strong guarded-negation bisimulation


def guarded_tuples(inst: Instance) -> list[GuardedTuple]:
    """Canonical guarded tuples: every nonempty tuple over the argument set
    of some fact, with length bounded by that fact's arity; sorted."""
    out: set[GuardedTuple] = set()
    for f in inst.facts:
        base = sorted(set(f.args), key=_val_key)
        for length in range(1, len(f.args) + 1):
            out.update(itertools.product(base, repeat=length))
    return sorted(out, key=_tuple_key)


@dataclass(frozen=True)
class StrongGnBisimWitness:
    """Stable collection of guarded-tuple pairs with, per pair, one verified
    homomorphism in each direction mapping the pair's tuples onto each other."""

    pairs: frozenset[TuplePair]
    forward: tuple[tuple[TuplePair, Homomorphism], ...]
    backward: tuple[tuple[TuplePair, Homomorphism], ...]

    def forward_homs(self) -> dict[TuplePair, Homomorphism]:
        return dict(self.forward)

    def backward_homs(self) -> dict[TuplePair, Homomorphism]:
        return dict(self.backward)


def _positional_map(ta: GuardedTuple, tb: GuardedTuple) -> Optional[dict[Value, Value]]:
    """The map ta[i] -> tb[i]; None unless it is well-defined and injective
    position-wise in both directions."""
    fwd: dict[Value, Value] = {}
    bwd: dict[Value, Value] = {}
    for va, vb in zip(ta, tb):
        if fwd.get(va, vb) != vb or bwd.get(vb, va) != va:
            return None
        fwd[va] = vb
        bwd[vb] = va
    return fwd


def _initial_pairs(a: Instance, b: Instance) -> set[TuplePair]:
    """All well-typed pairs: equal length, positionally bijective, and the
    induced map (with constants pinned) is a partial isomorphism."""
    gtb_by_len: dict[int, list[GuardedTuple]] = {}
    for tb in guarded_tuples(b):
        gtb_by_len.setdefault(len(tb), []).append(tb)
    out: set[TuplePair] = set()
    for ta in guarded_tuples(a):
        for tb in gtb_by_len.get(len(ta), ()):
            m = _positional_map(ta, tb)
            if m is not None and _is_partial_iso(a, b, m):
                out.add((ta, tb))
    return out


def _image_maps(pairs: Iterable[TuplePair]) -> tuple[ImageMap, ImageMap]:
    """The collection as two image maps: each a-tuple to its partner b-tuples,
    and each b-tuple to its partner a-tuples."""
    fwd: ImageMap = {}
    bwd: ImageMap = {}
    for ta, tb in pairs:
        fwd.setdefault(ta, []).append(tb)
        bwd.setdefault(tb, []).append(ta)
    return fwd, bwd


def _compatible_hom(src: Instance, seed: Mapping[Value, Value],
                    images: ImageMap) -> Optional[dict[Value, Value]]:
    """First map extending `seed` to the active domain of `src` that sends every
    src fact's argument tuple to one of its `images`; None when there is none.

    Pair membership subsumes fact preservation: well-typed pairs only relate
    tuples whose induced map carries facts across.
    """
    constraints = [(f.args, images.get(f.args, ())) for f in sorted(src.facts, key=fact_key)]
    found = next(_hom_search(constraints, seed), None)
    return None if found is None else {**seed, **found}


def _pair_homs(a: Instance, b: Instance, p: TuplePair,
               seeds: tuple[dict[Value, Value], dict[Value, Value]],
               maps: tuple[ImageMap, ImageMap]
               ) -> Optional[PairHoms]:
    """Compatible homomorphisms a -> b and b -> a mapping the pair's tuples onto
    each other, given both constant seeds and both image maps; None if either
    is missing."""
    ta, tb = p
    fwd_seed = _merged_seed(seeds[0], ta, tb)
    bwd_seed = _merged_seed(seeds[1], tb, ta)
    if fwd_seed is None or bwd_seed is None:
        return None
    h = _compatible_hom(a, fwd_seed, maps[0])
    g = None if h is None else _compatible_hom(b, bwd_seed, maps[1])
    return None if g is None else (h, g)


def _refine(a: Instance, b: Instance, pairs: set[TuplePair]) -> dict[TuplePair, PairHoms]:
    """Remove pairs lacking a compatible homomorphism in either direction,
    until stable.  The result is the greatest fixpoint inside `pairs`, each
    pair with the homomorphisms a -> b and b -> a found for it in the last
    round."""
    seeds = (_const_seed(a, b), _const_seed(b, a))
    if seeds[0] is None or seeds[1] is None:
        return {}
    live = set(pairs)
    while True:
        maps = _image_maps(live)
        homs = {p: _pair_homs(a, b, p, seeds, maps) for p in live}
        stable = {p: hg for p, hg in homs.items() if hg is not None}
        if len(stable) == len(live):
            return stable
        live = set(stable)


def _stable_pairs(a: Instance, b: Instance) -> dict[TuplePair, PairHoms]:
    """Greatest stable collection of guarded-tuple pairs between a and b,
    each with its compatible homomorphisms (empty when the constant
    substructures cannot correspond)."""
    if _const_seed(a, b) is None or not _is_partial_iso(a, b, {}):
        return {}
    return _refine(a, b, _initial_pairs(a, b))


def _check_size(inst: Instance, max_size: int, where: str) -> None:
    n = len(active_domain(inst))
    if n > max_size:
        raise BudgetExceeded(f"{where}: instance has {n} active-domain values, "
                             f"cap is {max_size}")


def check_strong_gn(a: Instance, b: Instance,
                    max_size: int = 12) -> Optional[StrongGnBisimWitness]:
    """Greatest stable collection of guarded-tuple pairs such that each pair
    admits compatible global homomorphisms in both directions; None when the
    collection is empty.

    Fails fast (returns None) when the constant substructures are not
    isomorphic.  Instances with no facts have no guarded tuples, hence None.
    The stable collection is closed under taking sub-tuples and reorderings:
    the initial well-typed pairs are, and a pair's surviving homomorphisms
    also witness every projection of that pair, so refinement preserves the
    closure; the verifier relies on this when it checks stored
    homomorphisms against every canonical guarded tuple.
    """
    if a.sig != b.sig:
        raise ValueError("check_strong_gn: signatures differ")
    _check_size(a, max_size, "check_strong_gn")
    _check_size(b, max_size, "check_strong_gn")
    stable = _stable_pairs(a, b)
    if not stable:
        return None
    ordered = sorted(stable, key=_pair_key)
    forward = tuple((p, Homomorphism.of(stable[p][0])) for p in ordered)
    backward = tuple((p, Homomorphism.of(stable[p][1])) for p in ordered)
    witness = StrongGnBisimWitness(frozenset(stable), forward, backward)
    if not verify_strong_gn(a, b, witness):
        raise AssertionError("internal error: strong-GN witness failed re-verification")
    return witness


def _verify_direction(src: Instance, dst: Instance, ts: GuardedTuple,
                      tt: GuardedTuple, hom: Mapping[Value, Value],
                      pairs: frozenset[TuplePair], forward: bool) -> bool:
    if not active_domain(src) <= set(hom):
        return False
    if any(hom.get(v) != w for v, w in zip(ts, tt)):
        return False
    for name, v in src.const_interp.items():
        if v in hom and hom[v] != dst.const_interp[name]:
            return False
    for f in src.facts:
        img = tuple(hom[v] for v in f.args)
        if Fact(f.rel, img) not in dst:
            return False
    for t in guarded_tuples(src):
        img = tuple(hom[v] for v in t)
        key = (t, img) if forward else (img, t)
        if key not in pairs:
            return False
    return True


def verify_strong_gn(a: Instance, b: Instance, witness: StrongGnBisimWitness) -> bool:
    """Structural validity of a strong-GN witness: pairs relate guarded
    tuples, and each pair's stored homomorphisms are total on the respective
    active domain, map the pair's tuples onto each other, pin constants,
    preserve facts, and send every guarded tuple to a pair of the witness."""
    if a.sig != b.sig or not witness.pairs:
        return False
    fwd = witness.forward_homs()
    bwd = witness.backward_homs()
    if set(fwd) != set(witness.pairs) or set(bwd) != set(witness.pairs):
        return False
    gta = set(guarded_tuples(a))
    gtb = set(guarded_tuples(b))
    for p in witness.pairs:
        ta, tb = p
        if ta not in gta or tb not in gtb:
            return False
        if not _verify_direction(a, b, ta, tb, fwd[p].as_dict(), witness.pairs, True):
            return False
        if not _verify_direction(b, a, tb, ta, bwd[p].as_dict(), witness.pairs, False):
            return False
    return True


def _pattern_closed(pairs: set[TuplePair]) -> bool:
    """Is the collection closed under applying one index pattern to both
    sides of a pair (sub-tuples and reorderings, same length bound)?"""
    for ta, tb in pairs:
        n = len(ta)
        for length in range(1, n + 1):
            for pattern in itertools.product(range(n), repeat=length):
                key = (tuple(ta[i] for i in pattern), tuple(tb[i] for i in pattern))
                if key not in pairs:
                    return False
    return True


def is_strong_gn_bisimulation(a: Instance, b: Instance,
                              pairs: Iterable[TuplePair]) -> bool:
    """Does the collection itself satisfy the defining property?  Non-empty,
    relates guarded tuples, closed under sub-tuples/reorderings, and every
    pair admits compatible homomorphisms in both directions with respect to
    the collection."""
    pset = set(pairs)
    if not pset or a.sig != b.sig:
        return False
    gta = set(guarded_tuples(a))
    gtb = set(guarded_tuples(b))
    if any(ta not in gta or tb not in gtb for ta, tb in pset):
        return False
    if not _pattern_closed(pset):
        return False
    seeds = (_const_seed(a, b), _const_seed(b, a))
    if seeds[0] is None or seeds[1] is None:
        return False
    maps = _image_maps(pset)
    return all(_pair_homs(a, b, p, seeds, maps) is not None for p in pset)


def check_directional(a: Instance, ta: Sequence[Value], b: Instance,
                      tb: Sequence[Value], max_size: int = 12) -> bool:
    """Does ta -> tb extend to a homomorphism a -> b compatible with the
    greatest stable collection of guarded-tuple pairs?

    Any collection-compatible homomorphism is compatible with the greatest
    stable collection, so checking against the greatest one is complete.
    The tuples need not be guarded.  When `a` has no facts the answer is
    vacuously true provided the constants can be mapped.
    """
    if a.sig != b.sig:
        raise ValueError("check_directional: signatures differ")
    ta = tuple(ta)
    tb = tuple(tb)
    if len(ta) != len(tb):
        raise ValueError("check_directional: tuple lengths differ")
    _check_size(a, max_size, "check_directional")
    _check_size(b, max_size, "check_directional")
    seed0 = _const_seed(a, b)
    if seed0 is None:
        return False
    seed = _merged_seed(seed0, ta, tb)
    if seed is None:
        return False
    fwd, _ = _image_maps(_stable_pairs(a, b))
    return _compatible_hom(a, seed, fwd) is not None


# ---------------------------------------------------------------------------
# Amalgamation


def _restrict(inst: Instance, rels: Iterable[str], constants: Iterable[str]) -> Instance:
    keep = set(rels)
    names = list(constants)
    sub = Signature([(r, inst.sig.arities[r]) for r in inst.sig.relations() if r in keep],
                    names)
    return Instance(sub, (f for f in inst.facts if f.rel in keep),
                    {c: inst.const_interp[c] for c in names})


def amalgamate(a: Instance, b: Instance, z: StrongGnBisimWitness,
               sigma: Signature, tau: Signature, max_size: int = 12) -> Instance:
    """Glue the sigma-part of `a` and the tau-part of `b` along a verified
    witness over the shared relations.

    The result's domain is the set of value pairs (c, d) such that c -> d
    extends to a witness-compatible homomorphism between the shared-relation
    parts; each sigma-fact of `a` is paired with every extension-related
    image tuple, each tau-fact of `b` with every extension-related preimage
    tuple, and constants are interpreted pairwise.  For shared relations the
    two constructions coincide, and extension-relatedness of a guarded tuple
    pair coincides with membership in the witness, which is used as a fast
    path.  Raises ValueError when the witness does not verify over the
    shared part or the signatures are inconsistent.
    """
    if set(sigma.constants) != set(tau.constants):
        raise ValueError("amalgamate: sigma and tau must declare the same constants")
    for name in sigma.constants:
        if name not in a.sig.constants or name not in b.sig.constants:
            raise ValueError(f"amalgamate: constant {name} missing from an input signature")
    for r in sigma.relations():
        if a.sig.arities.get(r) != sigma.arities[r]:
            raise ValueError(f"amalgamate: relation {r} missing from `a` or arity differs")
    for r in tau.relations():
        if b.sig.arities.get(r) != tau.arities[r]:
            raise ValueError(f"amalgamate: relation {r} missing from `b` or arity differs")
    shared = sorted(set(sigma.arities) & set(tau.arities))
    for r in shared:
        if sigma.arities[r] != tau.arities[r]:
            raise ValueError(f"amalgamate: shared relation {r} declared with two arities")
    consts = list(sigma.constants)
    ra = _restrict(a, shared, consts)
    rb = _restrict(b, shared, consts)
    if not verify_strong_gn(ra, rb, z):
        raise ValueError("amalgamate: witness does not verify over the shared signature")
    a_part = _restrict(a, sigma.relations(), consts)
    b_part = _restrict(b, tau.relations(), consts)
    _check_size(a_part, max_size, "amalgamate")
    _check_size(b_part, max_size, "amalgamate")

    seed_ab = _const_seed(ra, rb)
    seed_ba = _const_seed(rb, ra)
    by_a, by_b = _image_maps(z.pairs)

    @functools.cache
    def extends(src_t: GuardedTuple, dst_t: GuardedTuple, fwd: bool) -> bool:
        src, base, images = (ra, seed_ab, by_a) if fwd else (rb, seed_ba, by_b)
        seed = _merged_seed(base, src_t, dst_t)
        return seed is not None and _compatible_hom(src, seed, images) is not None

    dom_a = sorted(active_domain(a_part) | a_part.const_values(), key=_val_key)
    dom_b = sorted(active_domain(b_part) | b_part.const_values(), key=_val_key)
    glued: dict[tuple[Value, Value], Value] = {}
    for c in dom_a:
        for d in dom_b:
            if extends((c,), (d,), True):
                glued[(c, d)] = pair_value(c, d)

    shared_set = set(shared)
    facts: set[Fact] = set()

    def image_candidates(args: GuardedTuple, dom: list[Value], fwd: bool) -> Iterable[GuardedTuple]:
        pools = []
        for v in args:
            pool = [w for w in dom
                    if (((v, w) in glued) if fwd else ((w, v) in glued))]
            if not pool:
                return
            pools.append(pool)
        for cand in itertools.product(*pools):
            if extends(args, cand, fwd):
                yield cand

    for f in sorted(a_part.facts, key=fact_key):
        if f.rel in shared_set:
            partners: Iterable[GuardedTuple] = by_a.get(f.args, ())
        else:
            partners = image_candidates(f.args, dom_b, True)
        for tb in partners:
            facts.add(Fact(f.rel, tuple(glued[(v, w)] for v, w in zip(f.args, tb))))
    for f in sorted(b_part.facts, key=fact_key):
        if f.rel in shared_set:
            partners = by_b.get(f.args, ())
        else:
            partners = image_candidates(f.args, dom_a, False)
        for ta in partners:
            facts.add(Fact(f.rel, tuple(glued[(v, w)] for v, w in zip(ta, f.args))))

    rels = [(r, sigma.arities[r]) for r in sigma.relations()]
    rels += [(s, tau.arities[s]) for s in tau.relations() if s not in sigma.arities]
    usig = Signature(sorted(rels), consts)
    interp = {name: pair_value(a.const_interp[name], b.const_interp[name])
              for name in consts}
    return Instance(usig, facts, interp)
