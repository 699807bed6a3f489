"""Bisimulation machinery for finite instances.

Two equivalence checks live here, both computed as greatest fixpoints:

* ``check_guarded_bisim`` — a family of partial isomorphisms between guarded
  sets, refined until the back-and-forth conditions hold for every guarded
  set of either instance.
* ``check_strong_gn`` — a collection of pairs of guarded tuples, refined
  until every surviving pair admits global homomorphisms in both directions
  whose guarded-tuple images stay inside the collection.

On top of the second check sit ``check_directional`` (does a tuple-to-tuple
map extend to a collection-compatible homomorphism?), ``directional_checker``
(the same question for many tuple pairs of one instance pair, refining once)
and ``amalgamate`` (glue two instances over different signatures along a
witness for their shared part).  ``is_strong_gn_bisimulation`` decides
whether a given collection has the strong-GN property by searching one
homomorphism per pair and direction and passing the result to
``verify_strong_gn``.
``directed_cycle`` builds the standard small test structures.

Conventions:

* A guarded tuple is any nonempty tuple over the argument set of a single
  fact, with length bounded by that fact's arity.  Constant-interpreted
  values participate exactly when they occur in facts; tuples made purely of
  constants that appear in no fact are covered separately by the
  constant-substructure check.
* Witnesses returned by the checkers are always re-verified structurally
  before being handed back; the verifiers are public so externally built
  witnesses can be validated the same way.
* Both fixpoint computations are exponential in the worst case.  Only the
  strong-GN side caps its instances: ``check_strong_gn``,
  ``directional_checker``, ``check_directional`` and ``amalgamate`` raise
  ``BudgetExceeded`` past ``max_size`` active-domain values (default 12).
  ``check_guarded_bisim`` takes no cap, and the CLI's ``--max-size`` applies
  to ``--kind strong-gn`` only.

How the rounds are computed:

* The initial families are matched by atomic type (``model.atomic_types``),
  not tested pair by pair: once one check has found that the constants
  alone correspond, two tuples are related by a partial isomorphism exactly
  when their types are equal.  So every permutation of each guarded set of
  ``b`` (each guarded tuple, for strong-GN) is bucketed by type, and each
  guarded set of ``a`` (each guarded tuple) finds its partners in its
  type's bucket.
* A guarded-bisimulation round (``_back_and_forth``) checks a map only
  against the guarded sets that share an element with its domain or
  codomain, each by one set lookup in the projections of the members with
  that domain; a guarded set that is no member's domain empties the family.
  Which sets those are, and the elements they share, are planned once per
  domain, with their projections, for every map with that domain.
* Every homomorphism search runs on ``model._hom_search``.  Its constraints
  are prepared once per fact set and image map (``_fact_constraints``), so
  a strong-GN round prepares each direction once for all of its pairs and
  ``amalgamate`` once for all of its extension tests.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence

from .model import (
    BudgetExceeded,
    Fact,
    HomConstraints,
    Homomorphism,
    Instance,
    Signature,
    Value,
    _hom_constraints,
    _hom_search,
    active_domain,
    atomic_types,
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


def _pinned(a: Instance, b: Instance,
            pairs: Iterable[tuple[Value, Value]] = ()) -> Optional[dict[Value, Value]]:
    """The map sending the first value of each pair to its second, extended by
    each constant's value in `a` to its value in `b`; None unless it is a
    well-defined injection.  `a` and `b` must declare the same constants."""
    fwd: dict[Value, Value] = {}
    bwd: dict[Value, Value] = {}
    consts = ((va, b.const_interp[name]) for name, va in a.const_interp.items())
    for s, t in itertools.chain(pairs, consts):
        if fwd.setdefault(s, t) != t or bwd.setdefault(t, s) != s:
            return None
    return fwd


def _is_partial_iso(a: Instance, b: Instance, pairs: Iterable[tuple[Value, Value]]) -> bool:
    """Is the map given by `pairs`, extended with constant pinning, a partial
    isomorphism a -> b?

    Requires the extended map to be a well-defined injection, every a-fact
    inside its domain to have its image in b, and every b-fact inside its
    range to have its preimage in a.
    """
    full = _pinned(a, b, pairs)
    if full is None:
        return False
    inv = {t: s for s, t in full.items()}
    dom = set(full)
    rng = set(inv)
    for f in a.facts:
        if set(f.args) <= dom and Fact(f.rel, tuple(full[v] for v in f.args)) not in b:
            return False
    for f in b.facts:
        if set(f.args) <= rng and Fact(f.rel, tuple(inv[v] for v in f.args)) not in a:
            return False
    return True


def _greatest_fixpoint(live: set, step: Callable[[set], Collection]) -> Collection:
    """Greatest fixpoint inside `live`.  `step` returns the members that
    survive one round, as a set or as a dict from each survivor to what
    witnesses it; rounds repeat until no member drops out, and the last
    round's result is returned."""
    while True:
        kept = step(live)
        if len(kept) == len(live):
            return kept
        live = set(kept)


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


def _agreeing(maps: Mapping[MapItems, Mapping[Value, Value]],
              sets: Collection[frozenset[Value]], keys: Iterable[MapItems]) -> set[MapItems]:
    """The `keys` whose map in `maps` agrees, for every set in `sets`, with
    some map in `maps` that has that set as its domain, on their overlap.

    No key passes when some set is the domain of no map.  Otherwise a map is
    checked only against the sets that share an element with its domain, by
    looking its values on the shared elements up in the projections onto
    those elements of the maps with that domain.  Which sets those are, and
    which elements they share, depend on the domain alone: each domain's
    checks are planned once, with their projections, for all of its maps."""
    by_dom: dict[frozenset[Value], list[Mapping[Value, Value]]] = {}
    dom_of: dict[MapItems, frozenset[Value]] = {}
    for key, m in maps.items():
        dom = dom_of[key] = frozenset(m)
        by_dom.setdefault(dom, []).append(m)
    if any(xs not in by_dom for xs in sets):
        return set()
    touching: dict[Value, list[frozenset[Value]]] = {}
    for xs in sets:
        for v in xs:
            touching.setdefault(v, []).append(xs)
    projections: dict[tuple, set] = {}

    def plan(dom: frozenset[Value]) -> list[tuple[Callable, set]]:
        """Per set touching `dom`: the getter of a map's values on the
        shared elements, and the projection to find them in.  `dom` itself
        needs no check: each map with that domain is in its projection."""
        checks = []
        for xs in {xs for v in dom for xs in touching.get(v, ())} - {dom}:
            shared = tuple(v for v in xs if v in dom)
            get = operator.itemgetter(*shared)
            proj = projections.get((xs, shared))
            if proj is None:
                proj = projections[xs, shared] = {get(m) for m in by_dom[xs]}
            checks.append((get, proj))
        return checks

    keys = list(keys)
    plans = {dom: plan(dom) for dom in {dom_of[key] for key in keys}}
    return {key for key in keys
            if all(get(maps[key]) in proj for get, proj in plans[dom_of[key]])}


def _back_and_forth(family: Collection[MapItems], gs_a: Collection[frozenset[Value]],
                    gs_b: Collection[frozenset[Value]]) -> set[MapItems]:
    """The maps of `family` for which every guarded set of `a` is the domain
    of a family member agreeing with the map on the overlap (forth), and
    every guarded set of `b` the codomain of a member whose inverse agrees
    with the map's inverse (back).  Both conditions are decided by
    `_agreeing`, the back one only for the maps that pass forth."""
    forth = _agreeing({items: dict(items) for items in family}, gs_a, family)
    return _agreeing({items: {t: s for s, t in items} for items in family}, gs_b, forth)


def _typed_pairs(a: Instance, b: Instance, tuples_a: Iterable[GuardedTuple],
                 tuples_b: Iterable[GuardedTuple]) -> list[TuplePair]:
    """The pairs of a tuple of `tuples_a` and a tuple of `tuples_b` whose
    positional map, with constants pinned, is a partial isomorphism a -> b.
    Once one check has found that the constants alone map by one,
    `tuples_b` is bucketed by atomic type, and each tuple of `tuples_a`
    finds its partners in its type's bucket."""
    if not _is_partial_iso(a, b, ()):
        return []
    type_a, type_b = atomic_types(a), atomic_types(b)
    buckets: dict[tuple, list[GuardedTuple]] = {}
    for tb in tuples_b:
        buckets.setdefault(type_b(tb), []).append(tb)
    return [(ta, tb) for ta in tuples_a for tb in buckets.get(type_a(ta), ())]


def _initial_family(a: Instance, b: Instance, gs_a: Iterable[frozenset[Value]],
                    gs_b: Iterable[frozenset[Value]]) -> set[MapItems]:
    """Every partial isomorphism (constants pinned) from a guarded set of `a`,
    in name order, onto a guarded set of `b`: the sets of `a` against every
    permutation of the sets of `b`, by `_typed_pairs`."""
    named = (tuple(sorted(xs, key=_val_key)) for xs in gs_a)
    perms = (p for ys in gs_b for p in itertools.permutations(sorted(ys, key=_val_key)))
    return {tuple(zip(xs, ys)) for xs, ys in _typed_pairs(a, b, named, perms)}


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
    gs_a, gs_b = guarded_sets(a), guarded_sets(b)
    family = _greatest_fixpoint(_initial_family(a, b, gs_a, gs_b),
                                lambda live: _back_and_forth(live, gs_a, gs_b))
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
    for items in witness.family:
        m = dict(items)
        if len(m) != len(items):
            return False
        if frozenset(m) not in gs_a or frozenset(m.values()) not in gs_b:
            return False
        if not _is_partial_iso(a, b, items):
            return False
    return _back_and_forth(witness.family, gs_a, gs_b) == witness.family


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


def _initial_pairs(a: Instance, b: Instance) -> set[TuplePair]:
    """All well-typed pairs: equal length, and the positional map (with
    constants pinned) is a partial isomorphism; by `_typed_pairs`."""
    return set(_typed_pairs(a, b, guarded_tuples(a), guarded_tuples(b)))


def _image_maps(pairs: Iterable[TuplePair]) -> tuple[ImageMap, ImageMap]:
    """The collection as two image maps: each a-tuple to its partner b-tuples,
    and each b-tuple to its partner a-tuples."""
    fwd: ImageMap = {}
    bwd: ImageMap = {}
    for ta, tb in pairs:
        fwd.setdefault(ta, []).append(tb)
        bwd.setdefault(tb, []).append(ta)
    return fwd, bwd


def _fact_constraints(src: Instance, images: ImageMap) -> HomConstraints:
    """The search constraints sending each fact's argument tuple of `src`
    to one of its `images`, prepared once for any number of seeds."""
    return _hom_constraints((f.args, images.get(f.args, ()))
                            for f in sorted(src.facts, key=fact_key))


def _extension(constraints: HomConstraints, seed: Mapping[Value, Value],
               src_t: Sequence[Value], dst_t: Sequence[Value]) -> Optional[dict[Value, Value]]:
    """First map extending `seed` and src_t -> dst_t that meets the
    `_fact_constraints` of a source instance; None when there is none or
    when src_t -> dst_t contradicts itself or `seed`."""
    m = dict(seed)
    for vs, vd in zip(src_t, dst_t):
        if m.setdefault(vs, vd) != vd:
            return None
    found = next(_hom_search(constraints, m), None)
    return None if found is None else {**m, **found}


def _compatible_homs(a: Instance, b: Instance,
                     pairs: Collection[TuplePair]) -> dict[TuplePair, PairHoms]:
    """Each pair with maps a -> b and b -> a, compatible with the collection,
    that send its tuples onto each other; pairs lacking either are left out.

    The constants of `a` and `b` must correspond.  When the collection
    relates only partial isomorphisms, as the well-typed pairs do, the maps
    are homomorphisms: each fact goes to a fact.  Each direction's
    constraints are prepared once for all pairs.
    """
    seed_ab, seed_ba = _pinned(a, b), _pinned(b, a)
    fwd, bwd = _image_maps(pairs)
    cons_ab, cons_ba = _fact_constraints(a, fwd), _fact_constraints(b, bwd)
    out: dict[TuplePair, PairHoms] = {}
    for ta, tb in pairs:
        h = _extension(cons_ab, seed_ab, ta, tb)
        g = None if h is None else _extension(cons_ba, seed_ba, tb, ta)
        if g is not None:
            out[(ta, tb)] = (h, g)
    return out


def _stable_pairs(a: Instance, b: Instance) -> dict[TuplePair, PairHoms]:
    """Greatest stable collection of guarded-tuple pairs between a and b,
    each with the compatible homomorphisms found for it in the last round
    (empty when the constant substructures cannot correspond, for then
    `_typed_pairs` relates no tuples)."""
    return _greatest_fixpoint(_initial_pairs(a, b), functools.partial(_compatible_homs, a, b))


def _witness(homs: Mapping[TuplePair, PairHoms]) -> StrongGnBisimWitness:
    """The pairs of `homs` with their homomorphisms, in pair order."""
    ordered = sorted(homs, key=_pair_key)
    return StrongGnBisimWitness(frozenset(homs),
                                tuple((p, Homomorphism.of(homs[p][0])) for p in ordered),
                                tuple((p, Homomorphism.of(homs[p][1])) for p in ordered))


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
    witness = _witness(stable)
    if not verify_strong_gn(a, b, witness):
        raise AssertionError("internal error: strong-GN witness failed re-verification")
    return witness


def _verify_direction(src: Instance, dst: Instance, src_guarded: set[GuardedTuple],
                      ts: GuardedTuple, tt: GuardedTuple, hom: Mapping[Value, Value],
                      pairs: frozenset[TuplePair], forward: bool) -> bool:
    if not active_domain(src) <= set(hom):
        return False
    if tuple(hom.get(v) for v in ts) != tt:
        return False
    for name, v in src.const_interp.items():
        if v in hom and hom[v] != dst.const_interp[name]:
            return False
    for f in src.facts:
        img = tuple(hom[v] for v in f.args)
        if Fact(f.rel, img) not in dst:
            return False
    for t in src_guarded:
        img = tuple(hom[v] for v in t)
        key = (t, img) if forward else (img, t)
        if key not in pairs:
            return False
    return True


def verify_strong_gn(a: Instance, b: Instance, witness: StrongGnBisimWitness) -> bool:
    """Structural validity of a strong-GN witness: pairs relate guarded
    tuples, and each pair's stored homomorphisms are total on the respective
    active domain, map the pair's tuples onto each other, pin constants,
    preserve facts, and send every guarded tuple to a pair of the witness.
    The constants of `a` and `b` must span isomorphic substructures, as
    `check_strong_gn` requires."""
    if a.sig != b.sig or not witness.pairs or not _is_partial_iso(a, b, ()):
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
        if not _verify_direction(a, b, gta, ta, tb, fwd[p].as_dict(), witness.pairs, True):
            return False
        if not _verify_direction(b, a, gtb, tb, ta, bwd[p].as_dict(), witness.pairs, False):
            return False
    return True


def is_strong_gn_bisimulation(a: Instance, b: Instance,
                              pairs: Iterable[TuplePair]) -> bool:
    """Does the collection itself satisfy the defining property?  Non-empty,
    relates guarded tuples, and every pair admits homomorphisms in both
    directions that map its tuples onto each other and send every guarded
    tuple to a pair of the collection (so the collection is closed under
    sub-tuples and reorderings).

    Decided by `verify_strong_gn` on the first collection-compatible maps
    found for each pair: a collection with the property relates only partial
    isomorphisms, so those maps are homomorphisms, and one without it has no
    witness that verifies.
    """
    pset = set(pairs)
    if not pset or a.sig != b.sig or not _is_partial_iso(a, b, ()):
        return False
    homs = _compatible_homs(a, b, pset)
    return len(homs) == len(pset) and verify_strong_gn(a, b, _witness(homs))


def directional_checker(a: Instance, b: Instance,
                        max_size: int = 12) -> Callable[[Sequence[Value], Sequence[Value]], bool]:
    """`check_directional` for one instance pair: the greatest stable
    collection is computed once, here, and the returned callable answers
    any number of tuple pairs (ta, tb) against it.

    Raises as `check_directional` does: ValueError when the signatures
    differ, BudgetExceeded when an instance has more than `max_size`
    active-domain values, and, from the callable, ValueError when the
    tuple lengths differ.
    """
    if a.sig != b.sig:
        raise ValueError("check_directional: signatures differ")
    _check_size(a, max_size, "check_directional")
    _check_size(b, max_size, "check_directional")
    seed = _pinned(a, b)
    cons = None if seed is None else _fact_constraints(a, _image_maps(_stable_pairs(a, b))[0])

    def check(ta: Sequence[Value], tb: Sequence[Value]) -> bool:
        ta, tb = tuple(ta), tuple(tb)
        _check_lengths(ta, tb)
        return cons is not None and _extension(cons, seed, ta, tb) is not None

    return check


def _check_lengths(ta: GuardedTuple, tb: GuardedTuple) -> None:
    if len(ta) != len(tb):
        raise ValueError("check_directional: tuple lengths differ")


def check_directional(a: Instance, ta: Sequence[Value], b: Instance,
                      tb: Sequence[Value], max_size: int = 12) -> bool:
    """Does ta -> tb extend to a homomorphism a -> b compatible with the
    greatest stable collection of guarded-tuple pairs?

    Any collection-compatible homomorphism is compatible with the greatest
    stable collection, so checking against the greatest one is complete.
    The tuples need not be guarded.  When `a` has no facts the answer is
    vacuously true provided the constants can be mapped.  To ask about many
    tuple pairs of one instance pair, use `directional_checker`, which
    refines once.
    """
    ta, tb = tuple(ta), tuple(tb)
    if a.sig == b.sig:  # a length mismatch is reported before a size cap
        _check_lengths(ta, tb)
    return directional_checker(a, b, max_size)(ta, tb)


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

    by_a, by_b = _image_maps(z.pairs)
    searches = {True: (_fact_constraints(ra, by_a), _pinned(ra, rb)),
                False: (_fact_constraints(rb, by_b), _pinned(rb, ra))}

    @functools.cache
    def extends(src_t: GuardedTuple, dst_t: GuardedTuple, fwd: bool) -> bool:
        return _extension(*searches[fwd], src_t, dst_t) is not None

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
        if f.rel not in shared_set:  # a's loop built the shared-relation facts
            for ta in image_candidates(f.args, dom_a, False):
                facts.add(Fact(f.rel, tuple(glued[(v, w)] for v, w in zip(ta, f.args))))

    rels = [(r, sigma.arities[r]) for r in sigma.relations()]
    rels += [(s, tau.arities[s]) for s in tau.relations() if s not in sigma.arities]
    usig = Signature(sorted(rels), consts)
    interp = {name: pair_value(a.const_interp[name], b.const_interp[name])
              for name in consts}
    return Instance(usig, facts, interp)
